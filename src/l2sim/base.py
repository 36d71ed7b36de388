"""Shared base functionalities: append-only ledger and signature registry.

The ledger is the one source of on-chain truth in every run.  Submissions are
validated immediately (kind, authorization signature, txid, conflict key);
accepted transactions wait in a pending pool and are committed by the next
round's block unless the adversary holds them, and a hold can never stretch
past `liveness_bound` rounds.  The txid and the signatures are checked once,
at submit (``validate``), which also refuses a txid that is already pending
or committed, so a txid commits at most once; the block re-checks only what
can change while a transaction waits, its conflict key and its kind's check
(``admissible``).
The ledger stands alone: it holds the run's timing, which every world on
it reads, builds the run's signature registry, and counts its own rounds,
one block per round, which the first world on it to reach the round mints
(``World.advance_round``).  Every world is built on a ledger, joins
``worlds`` and sees its events by one rule: each ``ledger-submit`` as it is
made, and the last block's events (``block``) right after its own
``round`` event; machines poll after that, from ``Machine.on_round``.  So
``round``, ``height`` (a count; no block is kept) and every world's round
stay in lockstep.  A committed entry's confirmation depth is
height_now - height(tx) + 1, and ``buried(tx)`` is the one burial rule:
that depth is at least the timing's ``confirm_depth``.

Committed entries are kept twice, in commit order: in ``committed`` and,
split by transaction kind and by the chain that the body's ``chain`` field
names, in the one index that ``records(kind, chain)`` reads.  A record
whose ``chain`` is not a string is in no list.  ``tick`` appends to both,
so every party that polls the ledger each round (openings, warden
publications, deposits, settlements) reads its own chain's records of one
kind instead of scanning the whole history.  ``deposit_position(txid)``
is a deposit's index in its chain's list, which is what an account
state's minted watermark counts (``accounts``).  ``find(pred)`` scans
``committed``; it is the ideal side's query, for one-shot checks: the
ideal bundles' ``open`` and ``settlement`` and the brick simulator's
settlement trigger.

Signatures are idealized: sign() records (signer, digest) under a fresh
handle (an int); one lookup gives the signer whose record a ref replays
over a message digest, which verify() compares and verify_any() returns.
There is no key material and nothing to forge.  Signing and verifying take
the message's digest rather than the message, so a caller that checks
several refs over one message digests it once; ``signed_tx`` signs the
``txid`` that ``make_tx`` computed, which is the digest of the signable
part, and ``Ledger.validate`` refuses a transaction whose txid is not.

Each run has one registry (its ledger's, shared by every world on it),
and it is the one place that memoizes digests: ``CertRegistry.digest``
equals ``trace.digest`` and ``message(*parts)`` is ``digest(list(parts))``,
each computed once per run for a value.  A list is keyed by its items and
any other value by its identity; an item that is exactly a ``str`` or an
``int`` is keyed by value, any other by a tagged identity.  The memo keeps
every value it keys by identity alive, so no id is reused while the run
lasts, and a copy of the registry starts with an empty memo.  An identity
key is exact only while the value is never changed in place, which the
protocols keep to (``tests/test_digest_memo.py`` re-digests every hit).
The memo dies with its registry, so memory stays bounded by one run.
``Ledger.validate`` keeps its own uncached digest of the signable
part: it is the ledger's forgery check, and must hold even for a body
changed after it was signed.
"""

from __future__ import annotations

from .trace import digest
from .runtime import SimError

# tags an identity in a memo key, so an id never equals a str or int part
_BY_ID = object()

TX_KINDS = (
    "deposit", "open-commit", "settle", "peg-out",
    "batch-publish", "fraud-proof", "warden-publish",
)


class CertRegistry:
    def __init__(self):
        self.log: list[tuple[str, str]] = []    # handle h is log[h - 1]
        self.memo: dict[tuple, tuple] = {}      # key -> (digest, what it digests)

    def __getstate__(self):
        # memo keys are identities of this registry's objects, which a copy
        # (``World.clone``) does not share, so a copy starts with none
        return dict(self.__dict__, memo={})

    def digest(self, value) -> str:
        """``trace.digest(value)``, memoized for this registry's run."""
        if type(value) is list:
            return self.message(*value)
        key = (_BY_ID, id(value))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        dig = digest(value)
        self.memo[key] = (dig, value)
        return dig

    def message(self, *parts) -> str:
        """The digest of the message ``list(parts)``, memoized for this
        registry: a part that is exactly a ``str`` or an ``int`` is keyed
        by value (so ``True`` never stands in for ``1``), any other part by
        its identity, which the entry keeps alive."""
        key = parts
        for part in parts:
            if type(part) is not str and type(part) is not int:
                key = tuple([p if type(p) is str or type(p) is int
                             else (_BY_ID, id(p)) for p in parts])
                break
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        dig = digest(list(parts))
        self.memo[key] = (dig, parts)
        return dig

    def sign(self, signer: str, dig: str) -> dict:
        """Sign the message whose digest is ``dig``."""
        self.log.append((signer, dig))
        return {"sig": len(self.log), "by": signer, "over": dig}

    def _signer(self, ref, dig) -> str | None:
        """The signer whose record ``ref`` replays over ``dig``, or None."""
        if not isinstance(ref, dict) or not isinstance(ref.get("sig"), int) \
                or not 1 <= ref["sig"] <= len(self.log):
            return None
        signer, signed = self.log[ref["sig"] - 1]
        if ref.get("by") != signer or signed != dig:
            return None
        return signer

    def verify(self, ref, dig, signer: str) -> bool:
        found = self._signer(ref, dig)
        return found is not None and found == signer

    def verify_any(self, ref, dig) -> str | None:
        """Returns the signer if the ref is a valid signature over ``dig``."""
        return self._signer(ref, dig)


def make_tx(kind: str, body: dict, author: str) -> dict:
    tx = {"kind": kind, "body": body, "author": author, "sigs": []}
    tx["txid"] = digest([kind, body, author])
    return tx


def tx_signable(tx: dict):
    return [tx["kind"], tx["body"], tx["author"]]


def signed_tx(certs: CertRegistry, kind: str, body: dict, author: str) -> dict:
    """A ledger transaction authorized by its author's own signature."""
    tx = make_tx(kind, body, author)
    tx["sigs"] = [certs.sign(author, tx["txid"])]
    return tx


class Ledger:
    def __init__(self, timing: dict):
        self.timing = dict(timing)
        self.certs = CertRegistry()
        self.worlds = []                      # every world on the ledger
        self.round = 0                        # the round of the last block
        self.height = 0                       # blocks minted so far
        self.committed: list[dict] = []       # tx + {"height"}
        self.by_txid: dict[str, dict] = {}    # txid -> its committed entry
        self.index: dict[tuple, list] = {}    # (kind, chain) -> its entries
        self.deposit_at: dict[str, int] = {}  # deposit txid -> its position
        self.pending: list[dict] = []         # tx + {"submit_round", "hold_until"}
        self.keys: dict[str, str] = {}        # conflict key -> txid
        self.frontier: dict[str, int] = {}
        self.kind_checks = {}                 # kind -> fn(tx, ledger) -> (ok, reason)
        self.block = []                       # the last tick's (type, fields)
        self.views = {}                       # chain sid -> its one fold

    def buried(self, tx: dict) -> bool:
        """Whether committed entry ``tx`` lies ``confirm_depth`` deep."""
        return self.height - tx["height"] + 1 >= self.timing["confirm_depth"]

    # -- submission --------------------------------------------------------

    def validate(self, tx: dict):
        """Kind, shape, signatures, txid and replay, then ``admissible``;
        ``submit`` runs it once, so a transaction's txid is digested once,
        afresh and never through the registry's memo."""
        if not isinstance(tx, dict) or tx.get("kind") not in TX_KINDS:
            return False, "unknown-kind"
        if not isinstance(tx.get("body"), dict) or not isinstance(tx.get("author"), str):
            return False, "malformed"
        dig = digest(tx_signable(tx))
        if not tx.get("sigs"):
            return False, "unsigned"
        authorized = False
        for ref in tx["sigs"]:
            signer = self.certs.verify_any(ref, dig)
            if signer is None:
                return False, "bad-signature"
            if signer == tx["author"]:
                authorized = True
        if not authorized:
            return False, "unauthorized"
        if tx.get("txid") != dig:
            # proofs strike, and Ledger.get finds, entries by txid
            return False, "bad-txid"
        if dig in self.by_txid or any(p["txid"] == dig for p in self.pending):
            return False, "replay"
        return self.admissible(tx)

    def admissible(self, tx: dict):
        """The checks that can change between submit and tick: the conflict
        key and the kind's own check."""
        key = tx["body"].get("conflict")
        if key is not None and key in self.keys:
            return False, "conflict"
        check = self.kind_checks.get(tx["kind"])
        if check is not None:
            ok, reason = check(tx, self)
            if not ok:
                return False, reason
        return True, None

    def submit(self, tx: dict) -> dict:
        ok, reason = self.validate(tx)
        if ok:
            entry = dict(tx)
            entry["submit_round"] = self.round
            entry["hold_until"] = self.round + 1
            self.pending.append(entry)
        for world in self.worlds:
            world.emit("ledger-submit", txid=tx.get("txid"),
                       kind=tx.get("kind"), author=tx.get("author"),
                       body=tx.get("body"), accepted=ok, reason=reason)
        return {"accepted": ok, "reason": reason, "txid": tx.get("txid")}

    def hold(self, txid: str, until_round: int):
        """Adversary hold, capped at ``liveness_bound`` rounds; kept for the
        planned adversary search (ROADMAP.md)."""
        for tx in self.pending:
            if tx["txid"] == txid:
                cap = tx["submit_round"] + self.timing["liveness_bound"]
                if until_round > cap:
                    raise SimError(f"hold past liveness bound (cap round {cap})")
                tx["hold_until"] = until_round
                return
        raise SimError(f"no pending tx {txid}")

    # -- block production ---------------------------------------------------

    def tick(self):
        """Mint the next round's block into ``block``.  The round moves
        first, the height last: its checks see the new round, old depth."""
        rnd = self.round = self.round + 1
        due, rest = [], []
        for tx in self.pending:
            force = rnd - tx["submit_round"] >= self.timing["liveness_bound"]
            (due if force or rnd >= tx["hold_until"] else rest).append(tx)
        height = self.height + 1
        included, self.block = [], []
        for tx in due:
            ok, reason = self.admissible(tx)   # conflicts may have appeared since
            if not ok:
                self.block.append(("ledger-reject",
                                   {"txid": tx["txid"], "reason": reason}))
                continue
            entry = {k: tx[k] for k in ("kind", "body", "author", "sigs", "txid")}
            entry["height"] = height
            entry["commit_round"] = rnd
            entry["submit_round"] = tx["submit_round"]
            self.committed.append(entry)
            self.by_txid[tx["txid"]] = entry
            chain = tx["body"].get("chain")
            if isinstance(chain, str):      # a record of no chain is in no list
                records = self.index.setdefault((tx["kind"], chain), [])
                if tx["kind"] == "deposit":
                    self.deposit_at[tx["txid"]] = len(records)
                records.append(entry)
            key = tx["body"].get("conflict")
            if key is not None:
                self.keys[key] = tx["txid"]
            included.append(tx["txid"])
        self.pending = rest
        self.height = height
        self.block.append(("ledger-commit",
                           {"height": height, "txids": included}))

    # -- reads --------------------------------------------------------------

    def read(self, party: str, lag: int = 0) -> dict:
        """Committed prefix visible to `party`; the frontier never moves back.
        No party calls it; it stays because the benchmark's tracer wraps it."""
        visible = max(0, len(self.committed) - max(0, lag))
        visible = max(visible, self.frontier.get(party, 0))
        self.frontier[party] = visible
        txs = self.committed[:visible]
        return {"height": self.height, "txs": txs}

    def records(self, kind: str, chain: str) -> list[dict]:
        """The committed entries of one kind whose body names ``chain``, in
        commit order.  The list is the ledger's own, so callers must not
        change it."""
        return self.index.get((kind, chain), [])

    def deposit_position(self, txid) -> int | None:
        """The index of a committed deposit in ``records("deposit", chain)``
        of its chain, or None for any other txid."""
        return self.deposit_at.get(txid) if isinstance(txid, str) else None

    def find(self, pred) -> list[dict]:
        """Every committed entry ``pred`` accepts: a scan of the history.  The
        benchmark's tracer wraps it with a ``find(ledger, pred)`` shim."""
        return [tx for tx in self.committed if pred(tx)]

    def get(self, txid) -> dict | None:
        """The committed entry with this txid, or None."""
        # txids are strings; a reference copied from untrusted input may not be
        return self.by_txid.get(txid) if isinstance(txid, str) else None

    def fingerprint(self):
        return (len(self.committed), len(self.pending), self.height,
                tuple(tx["txid"] for tx in self.committed[-4:]))
