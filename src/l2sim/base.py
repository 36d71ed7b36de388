"""Shared base functionalities: append-only ledger, signature registry, clocks.

The ledger is the one source of on-chain truth in every run.  Submissions are
validated immediately (kind, authorization signature, conflict key); accepted
transactions wait in a pending pool and are committed by the next round's
block unless the adversary holds them, and a hold can never stretch past
`liveness_bound` rounds.  Exactly one block is minted per round advance, so
block height and round count stay in lockstep and confirmation depth is
height_now - height(tx) + 1.

Committed entries are kept twice, in commit order: in ``committed`` and,
split by transaction kind, in the kind index that ``records(kind)`` reads.
``tick`` appends to both, so every party that polls the ledger on each round
and block (openings, warden publications, deposits, settlements) reads one
kind's records instead of scanning the whole history.  ``find(pred)`` scans
``committed`` and stays the query for one-shot checks: the ideal bundles'
``open`` and ``settlement`` and the brick simulator's settlement trigger.

Signatures are idealized: sign() records (signer, digest) under a fresh
handle (an int), verify() succeeds only for refs whose handle replays that
exact record.  There is no key material and nothing to forge.
"""

from __future__ import annotations

from .trace import digest
from .runtime import EntityId, SimError

TX_KINDS = (
    "deposit", "open-commit", "settle", "peg-out",
    "batch-publish", "fraud-proof", "warden-publish",
)


class CertRegistry:
    def __init__(self):
        self.log: list[tuple[str, str]] = []    # handle h is log[h - 1]

    def sign(self, signer: str, msg) -> dict:
        dig = digest(msg)
        self.log.append((signer, dig))
        return {"sig": len(self.log), "by": signer, "over": dig}

    def _record(self, ref):
        """The (signer, digest) record behind ``ref``, or None."""
        if not isinstance(ref, dict) or not isinstance(ref.get("sig"), int):
            return None
        handle = ref["sig"]
        return self.log[handle - 1] if 1 <= handle <= len(self.log) else None

    def verify(self, ref, msg, signer: str) -> bool:
        rec = self._record(ref)
        if rec is None:
            return False
        return rec == (signer, digest(msg)) and ref.get("by") == signer

    def verify_any(self, ref, msg) -> str | None:
        """Returns the signer if the ref is a valid signature over msg."""
        rec = self._record(ref)
        if rec is None:
            return None
        signer, dig = rec
        if dig == digest(msg) and ref.get("by") == signer:
            return signer
        return None


def make_tx(kind: str, body: dict, author: str) -> dict:
    tx = {"kind": kind, "body": body, "author": author, "sigs": []}
    tx["txid"] = digest([kind, body, author])
    return tx


def tx_signable(tx: dict):
    return [tx["kind"], tx["body"], tx["author"]]


def signed_tx(certs: CertRegistry, kind: str, body: dict, author: str) -> dict:
    """A ledger transaction authorized by its author's own signature."""
    tx = make_tx(kind, body, author)
    tx["sigs"] = [certs.sign(author, tx_signable(tx))]
    return tx


class Ledger:
    def __init__(self, timing: dict):
        self.timing = timing
        self.blocks: list[dict] = []          # {"height", "round", "txids"}
        self.committed: list[dict] = []       # tx + {"height"}
        self.by_txid: dict[str, dict] = {}    # txid -> first committed entry
        self.by_kind: dict[str, list] = {k: [] for k in TX_KINDS}
        self.pending: list[dict] = []         # tx + {"submit_round", "hold_until"}
        self.keys: dict[str, str] = {}        # conflict key -> txid
        self.frontier: dict[str, int] = {}
        self.kind_checks = {}                 # kind -> fn(tx, ledger) -> (ok, reason)
        self.world = None                     # bound owner, for events and hooks
        self.views = {}                       # readers' folds over `committed`

    def bind(self, world):
        self.world = world

    def _emit(self, t, **fields):
        if self.world is not None:
            self.world.emit(t, **fields)

    @property
    def height(self) -> int:
        return len(self.blocks)

    def depth(self, tx: dict) -> int:
        return self.height - tx["height"] + 1

    # -- submission --------------------------------------------------------

    def validate(self, tx: dict):
        if not isinstance(tx, dict) or tx.get("kind") not in TX_KINDS:
            return False, "unknown-kind"
        if not isinstance(tx.get("body"), dict) or not isinstance(tx.get("author"), str):
            return False, "malformed"
        certs = self.world.certs if self.world else None
        if certs is not None:
            if not tx.get("sigs"):
                return False, "unsigned"
            authorized = False
            for ref in tx["sigs"]:
                signer = certs.verify_any(ref, tx_signable(tx))
                if signer is None:
                    return False, "bad-signature"
                if signer == tx["author"]:
                    authorized = True
            if not authorized:
                return False, "unauthorized"
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
        rnd = self.world.round_no if self.world else 0
        ok, reason = self.validate(tx)
        if ok:
            entry = dict(tx)
            entry["submit_round"] = rnd
            entry["hold_until"] = rnd + 1
            self.pending.append(entry)
        self._emit("ledger-submit", txid=tx.get("txid"), kind=tx.get("kind"),
                   author=tx.get("author"), body=tx.get("body"),
                   accepted=ok, reason=reason)
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

    def tick(self, world):
        """Mint the block for the round; ``world`` calls it once per advance."""
        rnd = world.round_no
        due, rest = [], []
        for tx in self.pending:
            force = rnd - tx["submit_round"] >= self.timing["liveness_bound"]
            (due if force or rnd >= tx["hold_until"] else rest).append(tx)
        height = self.height + 1
        included = []
        for tx in due:
            ok, reason = self.validate(tx)   # conflicts may have appeared since
            if not ok:
                self._emit("ledger-reject", txid=tx["txid"], reason=reason)
                continue
            entry = {k: tx[k] for k in ("kind", "body", "author", "sigs", "txid")}
            entry["height"] = height
            entry["commit_round"] = rnd
            entry["submit_round"] = tx["submit_round"]
            self.committed.append(entry)
            self.by_kind[entry["kind"]].append(entry)
            self.by_txid.setdefault(tx["txid"], entry)
            key = tx["body"].get("conflict")
            if key is not None:
                self.keys[key] = tx["txid"]
            included.append(tx["txid"])
        self.pending = rest
        self.blocks.append({"height": height, "round": rnd, "txids": included})
        self._emit("ledger-commit", height=height, txids=included)
        world.ledger_block_hooks(height)

    # -- reads --------------------------------------------------------------

    def read(self, party: str, lag: int = 0) -> dict:
        """Committed prefix visible to `party`; the frontier never moves back.
        No party calls it; it stays because the benchmark's tracer wraps it."""
        visible = max(0, len(self.committed) - max(0, lag))
        visible = max(visible, self.frontier.get(party, 0))
        self.frontier[party] = visible
        txs = self.committed[:visible]
        return {"height": self.height, "txs": txs}

    def records(self, kind: str) -> list[dict]:
        """The committed entries of one kind, in commit order; the list
        grows in place as blocks commit, so callers must not change it."""
        return self.by_kind[kind]

    def find(self, pred) -> list[dict]:
        """Every committed entry ``pred`` accepts: a scan of the history.  The
        benchmark's tracer wraps it with a ``find(ledger, pred)`` shim."""
        return [tx for tx in self.committed if pred(tx)]

    def get(self, txid) -> dict | None:
        """The first committed entry with this txid, or None."""
        # txids are strings; a reference copied from untrusted input may not be
        return self.by_txid.get(txid) if isinstance(txid, str) else None

    def fingerprint(self):
        return (len(self.committed), len(self.pending), self.height,
                tuple(tx["txid"] for tx in self.committed[-4:]))


# -- clocks ----------------------------------------------------------------


def clock_entity(sid: str) -> EntityId:
    return EntityId("tick", sid, "clock")


def attach_leader_clock(world, operators: list[EntityId]):
    """Every round advance nudges the round-robin leader (sidechain style)."""
    clock = clock_entity(world.sid)

    def hook():
        leader = operators[world.round_no % len(operators)]
        world.queue_io(clock, leader, {"kind": "update-leader", "round": world.round_no})

    world.round_hooks.append(hook)


def attach_periodic_clock(world, t_period: int, operators, validators):
    """Every t_period rounds: publication nudge to operators, audit nudge to
    validators (rollup style)."""
    clock = clock_entity(world.sid)

    def hook():
        if world.round_no % t_period != 0:
            return
        for op in operators:
            world.queue_io(clock, op, {"kind": "update-request", "round": world.round_no})
        for v in validators:
            world.queue_io(clock, v, {"kind": "update-check", "round": world.round_no})

    world.round_hooks.append(hook)
