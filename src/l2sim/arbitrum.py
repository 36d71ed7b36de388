"""Optimistic rollup: batches live on L1, fraud proofs police them.

Operators collect client transactions and, on every publication period,
post a batch (transaction list plus claimed post-state) straight to the
base ledger.  Validators re-execute every committed batch and, on a
mismatch, submit a fraud proof whose acceptance the ledger itself decides
by deterministic re-execution, standing in for the interactive challenge
game.  A batch becomes final once its challenge window has passed with no
accepted proof; reads serve the final prefix only.  The window is judged
at proof inclusion, so finality is monotone provided the publication
period exceeds the worst-case inclusion delay (t_period > liveness_bound).

The canonical chain is a pure function of the ledger: walk committed
batches in order, accept each whose sequence number and parent digest
extend the chain and which no accepted proof struck down.  An invalidated
batch orphans its descendants and the next publisher simply rebuilds.  The
walk is kept incrementally, in the one fold per chain that the chain's
ledger checks make, and still equals a walk from genesis: a batch's
re-executed post only goes from None (a mint whose deposit is not yet
buried) to its one valid value, so only None posts are run again, and a
proof that strikes an accepted batch cuts the chain back to the batches
before it and re-walks only the publications after the last one kept.
The fold hands out one view per fold state and round, each party reads
one view per poll, and a poll skips the work whose inputs did not change.
A view carries its tip, the claimed state that every party builds on.

Clients can rescue a censored transaction by publishing it themselves as a
one-transaction batch once it has waited ``t_period`` rounds (a buried
deposit nobody minted waits as long); a scenario flag turns that escape
hatch off so censorship experiments have something to find.

The security assumptions are one honest operator (liveness, unless
self-publication is on, in which case none) and one honest validator
(safety).  A wrong batch that outlives its window unchallenged voids the
guarantees: the ideal-side update check answers with a halt instead of a
verdict.
"""

from __future__ import annotations

from bisect import bisect_left

from .runtime import Machine
from .base import signed_tx
from .core import OPEN, UPDATE, SETTLEMENT, CLIENT
from .accounts import (
    OPERATOR, AccountBundle, AccountClient, AccountHooks, AccountTracker,
    apply_txs, genesis_state, l2_txid, pack_block, register_onchain,
    ripe_deposits, spam_overdraft,
)

VALIDATOR = "validator"


def genesis_anchor(sid):
    return f"genesis/{sid}"


def batch_digest(certs, batch):
    return certs.message("batch", batch)


def plausible_state(s) -> bool:
    """Shape check for claimed post-states, so folds over them stay total."""
    if not isinstance(s, dict):
        return False
    if not isinstance(s.get("bal"), dict) or not isinstance(s.get("nonce"), dict):
        return False
    vals = list(s["bal"].values()) + list(s["nonce"].values())
    if not all(isinstance(v, int) for v in vals):
        return False
    upto, above = s.get("minted_upto"), s.get("minted_above")
    if not isinstance(upto, int) or upto < 0 or not isinstance(above, list):
        return False
    # the positions minted past the watermark, strictly increasing
    marks = [upto, *above]
    if not all(isinstance(p, int) for p in above) \
            or any(a >= b for a, b in zip(marks, above)):
        return False
    return isinstance(s.get("height"), int)


def chain_view(ledger, sid, round_no):
    """Canonical rollup chain derived from the ledger.

    Returns {"entries": [...], "final": k, "tip": state} where entries are
    accepted batches in order and the first k of them are final at
    round_no, under the ledger's ``t_period``.  The base layer never
    re-executes, so the fold treats each batch's claimed post-state as
    authoritative: "tip" is the last entry's "claimed" state, or the
    chain's genesis state while there is no entry, and every rollup party
    builds on it.  "post" is the re-execution result kept alongside for
    fraud detection (fraudulent iff post != claimed).  Each entry also
    carries the batch's "digest" and the "ids" (l2 txids) of its
    transactions.

    The view is a pure function of the ledger, derived incrementally by the
    chain's one ``ChainFold``, which ``install_ledger_checks`` keeps in
    ``ledger.views[sid]``.  That equals a fold from genesis: a post can
    only go from None to its one valid value (deposits only gain depth), so
    only None posts are run again, and a proof striking an accepted batch
    keeps the entries before it and re-walks the publications after theirs
    (see ``ChainFold._read``).  Entries follow ledger commit order, so their
    "commit_round" never decreases and the final prefix, the entries whose
    window has closed (round_no > commit_round + t_period), is found by
    bisection, once per round (``ChainFold.view``).  One view per fold
    state and round: on a ledger that has not changed, in the same round, a
    call returns the last view.
    """
    return ledger.views[sid].view(ledger, round_no)


class ChainFold:
    """The accepted batches of one chain, folded from a ledger's commits.

    Reads ``ledger.committed`` (append-only) from where the last call left
    off; a call on an unchanged ledger (same commit count and height) does
    no work.  ``view`` hands out one view per fold state and round, whose
    entries are a list that is never changed: a change to the entries
    drops it, and the next view takes a new one, with its tip.  An entry
    whose post ripens is replaced rather than changed, so views stay as
    they were.

    Batch digests and l2 txids come from the ledger's registry, the run's
    one registry, and a mint's deposit is buried by ``Ledger.buried``.

    ``positions`` maps each l2 txid to the index of the first entry whose
    "ids" hold it.  Extending the chain adds to the map; cutting the chain
    back starts a fresh one, so a map read right after ``view`` (the
    operator's and the client's polls) stays exact for that view: a txid is
    in the view's entries iff its position is below ``len(entries)``, and
    in its final prefix iff below ``final``.
    """

    def __init__(self, sid, genesis):
        self.sid = sid
        self.genesis = genesis
        self.mark = (0, None)      # (commits read, ledger height) last seen
        self.published = []        # this chain's batch publications, in order
        self.struck = set()        # targets of committed fraud proofs
        self.entries = []
        self.sources = []          # index in published of each entry
        self.positions = {}        # l2 txid -> index of first entry with it
        self.unripe = []           # indexes of the entries whose post is None
        self.handed = None         # (round_no, view) handed out last, or None

    def catch_up(self, ledger):
        mark = (len(ledger.committed), ledger.height)
        if mark != self.mark:
            new = ledger.committed[self.mark[0]:]
            self.mark = mark
            self._read(new, ledger)

    def view(self, ledger, round_no):
        """The chain view at ``round_no``, caught up with ``ledger``: its
        entries, its final count and its tip (see ``chain_view``)."""
        self.catch_up(ledger)
        if self.handed is None or self.handed[0] != round_no:
            entries = self.handed[1]["entries"] if self.handed \
                else list(self.entries)
            self.handed = (round_no, {"entries": entries, "final": bisect_left(
                entries, round_no - ledger.timing["t_period"],
                key=lambda e: e["commit_round"]),
                "tip": entries[-1]["claimed"] if entries else self.genesis})
        return self.handed[1]

    def _read(self, new, ledger):
        """Fold in newly committed transactions.

        A proof striking entry k cuts the chain back to ``entries[:k]`` and
        re-walks only the publications after entry k - 1's.  That equals a
        walk from genesis under the grown struck set: up to that
        publication the walk makes the same decisions, since none of
        ``entries[:k]`` is struck and a publication it refused there meets
        the same predecessor and a struck set that only grew.  Struck
        entries are looked for only when a proof has landed, and only the
        entries whose post is still None are run again.
        """
        start, strikes = len(self.published), set()
        for tx in new:
            if tx["body"].get("chain") != self.sid:
                continue
            if tx["kind"] == "batch-publish":
                self.published.append(tx)
            elif tx["kind"] == "fraud-proof":
                strikes.add(tx["body"].get("target"))
        if strikes:
            self.struck |= strikes
            k = next((i for i, e in enumerate(self.entries)
                      if e["txid"] in strikes), None)
            if k is not None:
                start = self.sources[k - 1] + 1 if k else 0
                del self.entries[k:], self.sources[k:]
                self.positions = {t: i for t, i in self.positions.items()
                                  if i < k}
                self.unripe = [i for i in self.unripe if i < k]
                self.handed = None
        # deposits may have been buried since: run unripe posts again
        if self.unripe:
            still = []
            for i in self.unripe:
                post = self._execute(i, self.entries[i]["batch"], ledger)
                if post is None:
                    still.append(i)
                else:
                    self.entries[i] = dict(self.entries[i], post=post)
                    self.handed = None
            self.unripe = still
        for p in range(start, len(self.published)):
            self._extend(p, ledger)

    def _execute(self, i, batch, ledger):
        state = self.entries[i - 1]["claimed"] if i else self.genesis
        return apply_txs(state, batch.get("txs", []), ledger, batch["seq"])

    def _extend(self, p, ledger):
        """Append publication ``published[p]`` if it extends the chain."""
        tx = self.published[p]
        if tx["txid"] in self.struck:
            return
        batch = tx["body"].get("batch") or {}
        n = len(self.entries)
        prev = self.entries[-1]["digest"] if n else genesis_anchor(self.sid)
        if batch.get("seq") != n + 1 or batch.get("prev") != prev:
            return
        certs = ledger.certs
        ids = [l2_txid(certs, t) for t in batch.get("txs", [])]
        for i in ids:
            self.positions.setdefault(i, n)
        post = self._execute(n, batch, ledger)
        if post is None:
            self.unripe.append(n)
        self.sources.append(p)
        self.entries.append({
            "batch": batch, "txid": tx["txid"],
            "commit_round": tx.get("commit_round", 0),
            "post": post, "claimed": batch["post"],
            "digest": batch_digest(certs, batch), "ids": ids})
        self.handed = None


def world_view(world):
    """The chain view at the world's current round."""
    return chain_view(world.ledger, world.sid, world.round_no)


def batch_tx(certs, view, sid, author, seq, txs, post):
    """Signed publication of batch ``seq`` on top of ``view``."""
    prev = genesis_anchor(sid) if seq == 1 else view["entries"][-1]["digest"]
    batch = {"seq": seq, "prev": prev, "txs": txs, "post": post, "by": author}
    return signed_tx(certs, "batch-publish", {"chain": sid, "batch": batch},
                     author)


# -- ledger kind checks ----------------------------------------------------


def install_ledger_checks(world, initial, publishers):
    """Batches are shape-checked; fraud proofs are settled by re-execution.
    Also makes the chain's one ``ChainFold``, from ``initial``."""
    sid = world.sid
    world.ledger.views[sid] = ChainFold(sid, genesis_state(initial))

    def check_batch(tx, ledger):
        body = tx["body"]
        batch = body.get("batch")
        if not isinstance(batch, dict):
            return False, "malformed"
        if not isinstance(batch.get("seq"), int) or not isinstance(batch.get("prev"), str):
            return False, "malformed"
        if not isinstance(batch.get("txs"), list) or not plausible_state(batch.get("post")):
            return False, "malformed"
        if tx["author"] not in publishers:
            return False, "unknown-publisher"
        return True, None

    def check_proof(tx, ledger):
        # validated again at inclusion time, so the window check below also
        # guards against proofs the adversary held back: once a batch turns
        # final nothing can strike it any more
        view = chain_view(ledger, sid, ledger.round)
        entry = None
        for e in view["entries"]:
            if e["txid"] == tx["body"].get("target"):
                entry = e
                break
        if entry is None:
            return False, "unknown-target"
        if ledger.round > entry["commit_round"] + ledger.timing["t_period"]:
            return False, "window-closed"
        if entry["post"] is not None and entry["post"] == entry["claimed"]:
            return False, "batch-correct"
        return True, None

    def check_settle(tx, ledger):
        body = tx["body"]
        view = chain_view(ledger, sid, ledger.round)
        entry = None
        for e in view["entries"][:view["final"]]:
            if e["txid"] == body.get("batch"):
                entry = e
                break
        if entry is None:
            return False, "batch-not-final"
        if body.get("state") != entry["claimed"]:
            return False, "state-mismatch"
        for btx, l2id in zip(entry["batch"]["txs"], entry["ids"]):
            if (l2id == body.get("l2txid")
                    and btx.get("op") == "peg-out"
                    and btx.get("from") == body.get("to")
                    and btx.get("amt") == body.get("amt")):
                return True, None
        return False, "no-such-burn"

    world.ledger.kind_checks["batch-publish"] = check_batch
    world.ledger.kind_checks["fraud-proof"] = check_proof
    world.ledger.kind_checks["settle"] = check_settle


# -- real machines ---------------------------------------------------------


class RollupParty(Machine):
    """Shared L1 plumbing: registration and chain derivation."""

    def __init__(self, me, initial):
        super().__init__(me)
        self.initial = dict(initial)

    def on_start(self, ctx):
        register_onchain(ctx)

    def view(self, ctx):
        """This round's chain view; the fold's ``positions`` answer for it."""
        return chain_view(ctx.ledger, self.me.sid, ctx.world.round_no)


class ArbitrumOperator(RollupParty):
    def __init__(self, me, initial):
        super().__init__(me, initial)
        self.mempool = {}

    def on_message(self, ctx, env):
        p = env.payload
        if p.get("kind") == "tx":
            self.mempool[l2_txid(ctx.certs, p["tx"])] = p["tx"]

    def _publish(self, ctx):
        view = self.view(ctx)
        txs, post = pack_block(ctx.ledger, self.me.sid, view["tip"],
                               self.mempool)
        if not txs:
            return
        seq = len(view["entries"]) + 1
        ctx.ledger.submit(batch_tx(ctx.certs, view, self.me.sid, self.me.short(),
                                   seq, txs, dict(post, height=seq)))
        ctx.note("batch-publish", seq=seq, ntx=len(txs))

    def on_round(self, ctx):
        # drop mempool entries that landed in an accepted batch
        if self.mempool:
            self.view(ctx)              # catches the fold's positions up
            positions = ctx.ledger.views[self.me.sid].positions
            for txid in [t for t in self.mempool if t in positions]:
                del self.mempool[txid]
        if ctx.round % ctx.timing["t_period"] == 0:
            self._publish(ctx)


class ArbitrumValidator(RollupParty):
    def __init__(self, me, initial):
        super().__init__(me, initial)
        self.checked = set()
        self._audited = []         # txids of the entries audited, in order
        self._entries = None       # the entries list audited last

    def on_round(self, ctx):
        self._audit(ctx)

    def _audit(self, ctx):
        """Audit the entries added since the last audit.  Entry i's batch
        names entry i - 1's digest, and a txid commits once, so an entry
        still at its audited position means the prefix up to it stands;
        otherwise a strike cut the chain back, and the audit starts again
        from the cut.  The entries list audited last holds nothing new."""
        entries, done = self.view(ctx)["entries"], self._audited
        if entries is self._entries:
            return
        self._entries = entries
        n = len(done)
        if n and (len(entries) < n or entries[n - 1]["txid"] != done[-1]):
            n = 0
            while n < len(entries) and n < len(done) \
                    and entries[n]["txid"] == done[n]:
                n += 1
            del done[n:]
        # orphaned and struck batches are not entries, so never audited
        for entry in entries[n:]:
            txid = entry["txid"]
            done.append(txid)
            if txid in self.checked:
                continue
            self.checked.add(txid)
            if entry["post"] is None or entry["post"] != entry["claimed"]:
                proof = signed_tx(
                    ctx.certs, "fraud-proof",
                    {"chain": self.me.sid, "target": txid,
                     "seq": entry["batch"]["seq"],
                     "conflict": f"fraud/{txid}/{self.me.short()}"},
                    self.me.short())
                res = ctx.ledger.submit(proof)
                ctx.note("fraud-found", seq=entry["batch"]["seq"],
                         target=txid, accepted=res["accepted"])


class ArbitrumClient(AccountClient):
    settle_kind = "settle"
    view = RollupParty.view

    def __init__(self, me, operators, initial, self_publish=True):
        super().__init__(me, operators)
        self.initial = dict(initial)
        self.self_publish = self_publish
        self.inflight = []         # sent but not yet final: {"txid","body"}
        self.final_len = 0
        self.exit_submitted = False

    def genesis(self):
        return genesis_state(self.initial)

    def tip_state(self, ctx):
        return self.view(ctx)["tip"]

    def _sent(self, ctx, body):
        # "since" starts the self-publication wait; the inflight entry
        # lets a struck batch re-queue the request
        self.outstanding["since"] = ctx.world.round_no
        self.inflight.append({"txid": self.outstanding["txid"], "body": body})

    def _included(self, view, positions, txid):
        return positions.get(txid, len(view["entries"])) < len(view["entries"])

    def _overdue_mints(self, ctx, state, wait):
        """Our own buried deposits that the operators have failed to mint."""
        cd = ctx.timing["confirm_depth"]
        out = []
        for m in ripe_deposits(ctx.ledger, self.me.sid, state):
            if m["to"] != self.me.pid:
                continue
            dep = ctx.ledger.get(m["ref"])
            if ctx.world.round_no - (dep["commit_round"] + cd) >= wait:
                out.append(m)
        return out

    def _maybe_self_publish(self, ctx, view):
        wait, now = ctx.timing["t_period"], ctx.world.round_no
        state = view["tip"]
        late = self.outstanding is not None \
            and now - self.outstanding["since"] >= wait
        if not late and state["minted_upto"] >= len(
                ctx.ledger.records("deposit", self.me.sid)):
            return      # nothing waits: no deposit is left to mint
        seq = len(view["entries"]) + 1
        txs = self._overdue_mints(ctx, state, wait)
        if late:
            tx = self.outstanding["tx"]
            if apply_txs(state, txs + [tx], ctx.ledger, seq) is not None:
                txs.append(tx)
            else:
                # stale against the settled chain; drop it rather than
                # poison our own batch
                gone = self.outstanding["txid"]
                self.inflight = [i for i in self.inflight if i["txid"] != gone]
                self.outstanding = None
                self._try_send(ctx)
        if not txs:
            return
        post = apply_txs(state, txs, ctx.ledger, seq)
        ctx.ledger.submit(batch_tx(ctx.certs, view, self.me.sid, self.me.short(),
                                   seq, txs, post))
        ctx.note("self-publish", seq=seq)
        if self.outstanding is not None:
            self.outstanding["since"] = now

    def read_view(self, ctx, start):
        view = self.view(ctx)
        executed = ([{"kind": OPEN, "seq": 0, "state": self.genesis()}]
                    if start == 0 else [])
        # executed entry i > 0 is final batch i - 1
        for e in view["entries"][max(start, 1) - 1:view["final"]]:
            executed.append({"kind": UPDATE, "seq": e["batch"]["seq"],
                             "state": e["claimed"], "txs": e["batch"]["txs"]})
        return executed

    def _recheck(self, ctx):
        self._check_open(ctx)
        if not self.opened:
            return
        # the view caught the fold up, so the fold's positions are its own
        view, positions = self.view(ctx), ctx.ledger.views[self.me.sid].positions
        if self.inflight:
            self._reclaim_orphans(ctx, view, positions)
        if self.outstanding is not None \
                and self._included(view, positions, self.outstanding["txid"]):
            self.outstanding = None
            self._try_send(ctx)
        if self.self_publish:
            self._maybe_self_publish(ctx, view)
        if view["final"] > self.final_len:
            newly_final = view["entries"][self.final_len:view["final"]]
            for e in newly_final:
                ctx.note("batch-final", seq=e["batch"]["seq"], txid=e["txid"],
                         commit_round=e["commit_round"])
            self.final_len = view["final"]
            self._watch_exits(ctx, newly_final)
        self._watch_settlements(ctx)

    def _reclaim_orphans(self, ctx, view, positions):
        # a struck batch takes its transactions off the chain; re-queue ours
        # (an identical resend is idempotent thanks to the nonce check)
        keep, orphans = self._sort_inflight(view, positions)
        for item in orphans:
            ctx.note("tx-reorged", txid=item["txid"])
        self.inflight = keep
        if orphans:
            self.pending = [item["body"] for item in orphans] + self.pending
            self._try_send(ctx)

    def _sort_inflight(self, view, positions):
        """Splits ``inflight`` into the items still to wait for (in an
        accepted batch that is not final yet, or the outstanding one) and
        the orphans; items in a final batch are done and dropped."""
        n, final = len(view["entries"]), view["final"]
        keep, orphans = [], []
        for item in self.inflight:
            at = positions.get(item["txid"], n)
            if at < final:
                continue
            if at < n or (self.outstanding
                          and item["txid"] == self.outstanding["txid"]):
                keep.append(item)
            else:
                orphans.append(item)
        return keep, orphans

    def _watch_exits(self, ctx, newly_final):
        # a burn of ours gets claimed on L1 when its batch turns final
        for e in newly_final:
            for tx in e["batch"]["txs"]:
                if tx.get("op") == "peg-out" and tx.get("from") == self.me.pid \
                        and not self.exit_submitted:
                    l2id = l2_txid(ctx.certs, tx)
                    ctx.ledger.submit(signed_tx(
                        ctx.certs, "settle",
                        {"chain": self.me.sid, "to": self.me.pid,
                         "amt": tx["amt"], "l2txid": l2id,
                         "batch": e["txid"], "state": e["claimed"],
                         "conflict": f"exit/{self.me.sid}/{l2id}"},
                        self.me.short()))
                    self.exit_submitted = True


# -- ideal bundle ----------------------------------------------------------


class ArbitrumBundle(AccountBundle):
    name = "arbitrum"
    update_key, seq_field, settle_kind = "batch", "seq", "settle"

    def _certify(self, ist, batch, attachment, ctx):
        # entries hold distinct seqs, so at most one matches; the batch to
        # certify is the one after the last certified, near the tip
        entry = next((e for e in reversed(world_view(ctx.world)["entries"])
                      if e["batch"] == batch), None)
        if entry is None:
            return "not-on-ledger"
        if ctx.round <= entry["commit_round"] + ctx.timing["t_period"]:
            return "window-open"
        if entry["post"] is None or entry["post"] != entry["claimed"]:
            return "halt:unchallenged-fraud"
        return None


# -- protocol descriptor ---------------------------------------------------


def canonical_scenario(n_ops=2, n_vals=1, balance=10, self_publish=True):
    return {
        "protocol": "arbitrum",
        "clients": ["c1", "c2"],
        "operators": [f"p{i+1}" for i in range(n_ops)],
        "validators": [f"v{i+1}" for i in range(n_vals)],
        "initial": {"c1": balance, "c2": balance},
        "self_publish": self_publish,
    }


def operator_tolerance(scn):
    """Corrupt operators liveness tolerates: all of them with the
    self-publication escape hatch, else all but one."""
    n_ops = len(scn["operators"])
    return n_ops if scn.get("self_publish", True) else n_ops - 1


def liveness_params(scn):
    n_vals = len(scn["validators"])
    op_f = operator_tolerance(scn)
    return {
        OPEN: {"f": {CLIENT: 1, OPERATOR: 0, VALIDATOR: n_vals}, "t_l2": 8,
               "t_l1": 6},
        UPDATE: {"f": {CLIENT: 1, OPERATOR: op_f, VALIDATOR: n_vals},
                 "t_l2": 8, "t_l1": 18},
        SETTLEMENT: {"f": {CLIENT: 1, OPERATOR: op_f, VALIDATOR: n_vals},
                     "t_l2": 8, "t_l1": 26},
    }


def build_real(world, scn):
    for role, _, budget in party_roles(scn):
        world.declare_role(role, budget=budget)
    ops = [world.entity(OPERATOR, o) for o in scn["operators"]]
    vals = [world.entity(VALIDATOR, v) for v in scn["validators"]]
    clients = [world.entity(CLIENT, c) for c in scn["clients"]]
    publishers = {o.short() for o in ops} | {c.short() for c in clients}
    install_ledger_checks(world, scn["initial"], publishers)
    for c in clients:
        world.register(ArbitrumClient(c, ops, scn["initial"],
                                      self_publish=scn.get("self_publish", True)))
    for o in ops:
        world.register(ArbitrumOperator(o, scn["initial"]))
    for v in vals:
        world.register(ArbitrumValidator(v, scn["initial"]))


def make_bundle(world, scn):
    return ArbitrumBundle(world.sid, scn["clients"],
                          [f"{OPERATOR}:{o}" for o in scn["operators"]],
                          scn["initial"])


def party_roles(scn):
    """(role, pids, corruption budget) rows for mirroring the cast."""
    # safety rests on one honest watcher, so the budget stops short of the
    # last validator, and operators get the liveness tolerance; corrupting
    # one more is an explicit assumption break
    return [(CLIENT, list(scn["clients"]), 1),
            (OPERATOR, list(scn["operators"]), operator_tolerance(scn)),
            (VALIDATOR, list(scn["validators"]), len(scn["validators"]) - 1)]


EnvTracker = AccountTracker


class Hooks(AccountHooks):
    def triggers_for(self, inner, ev):
        if ev.get("kind") != "batch-final":
            return self.account_triggers(ev)
        key = ("b", ev["seq"])
        if key in self.done:
            return []
        self.done.add(key)
        target = inner.ledger.get(ev["txid"])
        if target is None:
            return []
        return [{"kind": UPDATE, "state": target["body"]["batch"],
                 "attachment": {"l1": ev["txid"]}}]

    def read_delay(self, inner, pid):
        return self.client(inner, pid).final_len


# -- adversary helpers -----------------------------------------------------


def publish_wrong_batch(world, op_entity):
    """Corrupt operator posts a batch whose claimed state inflates its own
    favorite balance by one; only an honest validator stands in the way."""
    view = world_view(world)
    state, seq = view["tip"], len(view["entries"]) + 1
    bal = dict(state["bal"])
    fav = sorted(bal)[0]
    bal[fav] = bal.get(fav, 0) + 1
    ltx = batch_tx(world.certs, view, world.sid, op_entity.short(), seq, [],
                   dict(state, height=seq, bal=bal))
    world.ledger.submit(ltx)
    return ltx["txid"]


def menu(world, entity):
    actions = {}
    if entity.role == OPERATOR:
        actions["publish-wrong"] = lambda: (
            publish_wrong_batch(world, entity) and None)
    if entity.role == VALIDATOR:
        def false_accuse():
            view = world_view(world)
            if not view["entries"]:
                return None
            target = view["entries"][-1]["txid"]
            world.ledger.submit(signed_tx(
                world.certs, "fraud-proof",
                {"chain": world.sid, "target": target, "seq": 0,
                 "conflict": f"fraud/{target}/{entity.short()}"},
                entity.short()))
            return None
        actions["false-accuse"] = false_accuse
    if entity.role == CLIENT:
        actions["spam-overdraft"] = lambda: spam_overdraft(world, entity)
    return actions
