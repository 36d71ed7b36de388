"""Account model shared by the committee sidechain and the optimistic rollup.

A state holds balances and per-sender nonces, the chain height, and which
L1 deposits of its chain it has minted, as a watermark: ``minted_upto``
counts the chain's deposits, in ledger commit order, that are all minted,
and ``minted_above`` is the sorted list of the positions minted past that
point (``Ledger.deposit_position``).  Honest operators mint in burial
order, so ``minted_above`` is empty after every honest block and a state
stays the same size however many deposits it has minted.  The watermark
counts positions among the chain's own deposits, so it is a pure function
of the minted set.  Transactions are plain dicts; application is pure
except for the deposit lookups, which consult the ledger so that a mint
can only reference a deposit the ledger calls buried (``Ledger.buried``,
the run's one burial rule).  A new state shares every field a transaction
leaves alone, so no state is ever changed in place.

Both protocols also share everything around that arithmetic that does not
depend on how an update is certified: block packing, the client plumbing
(registration, request queueing, deposits, reads, open and settlement
detection), the ideal bundle's entry points, the environment-side request
translation, the simulator's open and settlement triggers, and a corrupted
client's overdraft move.  Each protocol module keeps its update
certification, its dispute timing and what its parties store.
"""

from __future__ import annotations

from .base import signed_tx
from .core import (CLIENT, OPEN, SETTLEMENT, UPDATE, SimulatorHooks,
                   SubroutineBundle, honest, open_record, read_result)
from .runtime import Machine

OPERATOR = "operator"

# the (request kind, op) pairs that spend the requester's balance
SPENDS = ((UPDATE, "pay"), (SETTLEMENT, "peg-out"))
# the entry word each transaction op answers, in a client's notes
ENTRY_WORD = {"pay": "pay", "peg-out": "settle"}


def genesis_state(initial: dict) -> dict:
    return {"bal": dict(sorted(initial.items())),
            "nonce": {p: 0 for p in sorted(initial)},
            "minted_upto": 0, "minted_above": [], "height": 0}


def l2_txid(certs, tx) -> str:
    """The transaction's id, digested once per run by the registry."""
    return certs.message("l2tx", tx)


def apply_tx(state, tx, ledger):
    op = tx.get("op")
    if op == "mint":
        return _mint(state, tx, ledger)
    if op not in ("pay", "peg-out"):
        return None
    bal, nonce = state["bal"], state["nonce"]
    frm, amt = tx.get("from"), tx.get("amt", 0)
    if frm not in bal or amt <= 0 or bal[frm] < amt:
        return None
    if tx.get("nonce") != nonce.get(frm, 0) + 1:
        return None
    to = tx.get("to")
    if op == "pay" and to not in bal:
        return None
    bal = dict(bal)
    bal[frm] -= amt
    if op == "pay":
        bal[to] += amt
    return {"bal": bal, "nonce": {**nonce, frm: tx["nonce"]},
            "minted_upto": state["minted_upto"],
            "minted_above": state["minted_above"], "height": state["height"]}


def _mint(state, tx, ledger):
    """Credit a buried deposit that the state has not minted, and move
    the watermark past the deposit's position among its chain's deposits.
    The state does not name its chain, so that chain is the deposit's."""
    ref = tx.get("ref")
    dep = ledger.get(ref)
    if dep is None or dep["kind"] != "deposit" or not ledger.buried(dep):
        return None
    pos = ledger.deposit_position(ref)
    upto, above = state["minted_upto"], state["minted_above"]
    if pos is None or pos < upto or pos in above:
        return None
    body = dep["body"]
    if body.get("to") != tx.get("to") or body.get("amt") != tx.get("amt"):
        return None
    bal = dict(state["bal"])
    bal[tx["to"]] = bal.get(tx["to"], 0) + tx["amt"]
    if pos == upto:
        upto += 1
        skip = 0
        while skip < len(above) and above[skip] == upto:
            upto += 1
            skip += 1
        above = above[skip:] if skip else above
    else:
        above = sorted(above + [pos])
    return {"bal": bal, "nonce": state["nonce"], "minted_upto": upto,
            "minted_above": above, "height": state["height"]}


def apply_txs(state, txs, ledger, height):
    """Folds a whole transaction list; None if any step is invalid."""
    cur = state
    for tx in txs:
        cur = apply_tx(cur, tx, ledger)
        if cur is None:
            return None
    return dict(cur, height=height)


def ripe_deposits(ledger, sid, state):
    """Mint transactions for every buried bridge deposit of chain ``sid``
    that ``state`` has not minted.  The walk starts at the watermark and
    skips the positions minted above it; it stops at the first deposit
    that is not yet buried, since depth never increases along commit
    order."""
    deps, above = ledger.records("deposit", sid), state["minted_above"]
    out = []
    for pos in range(state["minted_upto"], len(deps)):
        if pos in above:
            continue
        d = deps[pos]
        if not ledger.buried(d):
            break
        out.append({"op": "mint", "to": d["body"]["to"],
                    "amt": d["body"]["amt"], "ref": d["txid"]})
    return sorted(out, key=lambda t: t["ref"])


def pack_block(ledger, sid, state, mempool):
    """Transactions for the next block or batch on top of ``state``.

    Ripe mints come first, then every mempool transaction (txid -> tx)
    that still applies, in (nonce, txid) order.  Returns the transactions
    and the state after them.
    """
    txs = ripe_deposits(ledger, sid, state)
    for tx in txs:
        state = apply_tx(state, tx, ledger)
    for txid in sorted(mempool, key=lambda i: (mempool[i].get("nonce", 0), i)):
        trial = apply_tx(state, mempool[txid], ledger)
        if trial is not None:
            txs.append(mempool[txid])
            state = trial
    return txs, state


def overdraft_tx(frm, to):
    """A payment no balance covers, sent as adversary noise."""
    return {"op": "pay", "from": frm, "to": to, "amt": 999, "nonce": 1}


def spam_overdraft(world, entity):
    """Menu move of a corrupted client: an overdraft to every operator."""
    tx = overdraft_tx(entity.pid, "c1")
    for op in world.roles.get(OPERATOR, []):
        world.queue_net(entity, op, {"kind": "tx", "tx": tx})


def register_onchain(ctx):
    """Submit the calling party's joining record (open-commit) for its chain."""
    sid, me = ctx.me.sid, ctx.me.short()
    ctx.ledger.submit(signed_tx(ctx.certs, "open-commit",
                                {"chain": sid, "conflict": f"reg/{sid}/{me}"},
                                me))


# -- real client -----------------------------------------------------------


class AccountClient(Machine):
    """Client plumbing of the account-model protocols.

    A subclass supplies its chain view: ``genesis()``, ``tip_state(ctx)``
    for building transactions, ``read_view(ctx, start)`` for reads (just
    the executed entries from index ``start`` on), and ``_recheck(ctx)``,
    run once a round, which opens the client (``_check_open``) and reports
    settlements (``_watch_settlements``); both read their own chain's
    records of one kind (``Ledger.records``).  A settlement is a committed
    ledger record of kind ``settle_kind``; settlements are read past a
    cursor, as the record list only grows.  A ``request-queued`` or
    ``request-refused`` note names the entry word (``settle``, not the
    ``peg-out`` op it becomes).
    """

    settle_kind = None

    def __init__(self, me, operators):
        super().__init__(me)
        self.operators = list(operators)
        self.watching = False
        self.opened = False
        self.closed = False
        self.pending = []         # env requests not yet sent as L2 txs
        self.outstanding = None   # {"txid", "tx"} of the tx in flight
        self.dep_counter = 0
        self.settles_seen = set()
        self.settled_state = None
        self._served = 0          # executed entries the reads have shown
        self._settles_read = 0    # settlement records read so far

    def on_start(self, ctx):
        register_onchain(ctx)

    def on_input(self, ctx, p):
        kind = p.get("kind")
        if kind == "open":
            self.watching = True
            self._recheck(ctx)
        elif kind == "pay":
            self._queue_tx(ctx, {"op": "pay", "to": p["to"], "amt": p["amt"]})
        elif kind == "deposit":
            self._deposit(ctx, p["amt"])
        elif kind == "settle":
            self._queue_tx(ctx, {"op": "peg-out", "amt": p["amt"]})
        elif kind == "read":
            self._serve_read(ctx)

    def on_round(self, ctx):
        self._recheck(ctx)

    def _queue_tx(self, ctx, body):
        if self.closed or not self.opened:
            ctx.note("request-refused", why="phase",
                     req=ENTRY_WORD[body["op"]])
            return
        self.pending.append(body)
        self._try_send(ctx)

    def _try_send(self, ctx):
        if self.outstanding is not None or not self.pending or self.closed:
            return
        body = self.pending.pop(0)
        state = self.tip_state(ctx)
        nonce = state["nonce"].get(self.me.pid, 0) + 1
        tx = {**body, "from": self.me.pid, "nonce": nonce}
        if apply_tx(state, tx, ctx.ledger) is None:
            ctx.note("request-refused", why="invalid-transfer",
                     req=ENTRY_WORD[body["op"]])
            self._try_send(ctx)
            return
        ctx.note("request-queued", req=ENTRY_WORD[tx["op"]])
        self.outstanding = {"txid": l2_txid(ctx.certs, tx), "tx": tx}
        self._sent(ctx, body)
        for op in self.operators:
            ctx.send_net(op, {"kind": "tx", "tx": tx})

    def _sent(self, ctx, body):
        """Bookkeeping for the transaction just put in flight."""

    def _deposit(self, ctx, amt):
        self.dep_counter += 1
        sid, pid = self.me.sid, self.me.pid
        ctx.ledger.submit(signed_tx(
            ctx.certs, "deposit",
            {"chain": sid, "to": pid, "amt": amt,
             "conflict": f"dep/{sid}/{pid}/{self.dep_counter}"},
            self.me.short()))
        ctx.note("request-queued", req="deposit")

    def _serve_read(self, ctx):
        if not self.opened:
            ctx.note("read-empty")
            return
        base = self._served
        executed = self.read_view(ctx, base)
        self._served += len(executed)
        ctx.output(read_result(base, executed, self.settled_state))

    def _check_open(self, ctx):
        """Open once every operator's joining record has committed."""
        if not self.watching or self.opened:
            return
        authors = {t["author"] for t in
                   ctx.ledger.records("open-commit", self.me.sid)}
        if {o.short() for o in self.operators} <= authors:
            self.opened = True
            ctx.note("open-done", state=self.genesis())
            ctx.output({"kind": "open-ok", "state": self.genesis()})
            self._try_send(ctx)

    def _watch_settlements(self, ctx):
        """Report every committed settlement record of this chain once,
        reading only the records committed since the last call."""
        records = ctx.ledger.records(self.settle_kind, self.me.sid)
        if len(records) == self._settles_read:
            return
        new, self._settles_read = records[self._settles_read:], len(records)
        for t in new:
            body = t["body"]
            if body["l2txid"] in self.settles_seen:
                continue
            self.settles_seen.add(body["l2txid"])
            self.closed = True
            self.settled_state = body["state"]
            ctx.note("settle-done", state=body["state"], l2txid=body["l2txid"],
                     frm=body["to"], amt=body["amt"])
            ctx.output({"kind": "settle-ok", "state": body["state"]})


# -- ideal bundle ----------------------------------------------------------


class AccountBundle(SubroutineBundle):
    """Ideal checks shared by the account-model protocols.

    An update is a dict with ``txs`` (a block or a batch) whose position
    sits under ``seq_field``; its executed record keeps it under
    ``update_key``.  Subclasses define ``_certify(ist, update, attachment,
    ctx)``, None or the reason the protocol refuses the update; it runs
    after the shape and position checks and before the one computation of
    the post-state.  A settlement needs the burn's committed ledger record
    of kind ``settle_kind``.  Every state may be read: an update is
    accepted only at height ``latest + 1``, so ``states[i]`` has height i.
    """

    update_key = seq_field = settle_kind = None

    def __init__(self, sid, clients, operators, initial):
        self.sid = sid
        self.clients = list(clients)
        self.operators = list(operators)  # shorts
        self.initial = dict(initial)

    def _pending_spend(self, ist, pid):
        return sum(r["body"].get("amt", 0) for r in ist.queue
                   if r["by"] == pid and (r["kind"], r["body"].get("op"))
                   in SPENDS)

    def submit(self, ist, req, ctx):
        kind, body, by = req["kind"], req["body"], req["by"]
        if ist.phase() == "settled":
            return False, "settled"
        if kind == OPEN:
            if ist.phase() != "init":
                return False, "phase"
            if body.get("state") != genesis_state(self.initial):
                return False, "bad-state"
            return True, None
        move = (kind, body.get("op"))
        if move not in SPENDS and move != (UPDATE, "peg-in"):
            return False, "unknown-kind"
        # a deposit is an L1 transfer, so a client may make it before the open
        if ist.phase() != "open" and move in SPENDS:
            return False, "phase"
        if move == (UPDATE, "pay") and body.get("to") not in self.clients \
                or body.get("amt", 0) <= 0:
            return False, "malformed"
        if move in SPENDS and body["amt"] > \
                ist.latest()["bal"].get(by, 0) - self._pending_spend(ist, by):
            return False, "insufficient"
        return True, None

    def open(self, ist, body, attachment, ctx):
        if body.get("state") != genesis_state(self.initial):
            return False, "bad-state", None
        queued = {r["by"] for r in ist.queue if r["kind"] == OPEN}
        if not set(honest(ctx, ist, CLIENT)) <= queued:
            return False, "missing-open-requests", None
        regs = ctx.ledger.find(
            lambda t: t["kind"] == "open-commit" and t["body"].get("chain") == self.sid)
        if not set(self.operators) <= {t["author"] for t in regs}:
            return False, "registration-missing", None
        return True, None, open_record(body["state"], attachment, ctx)

    def update(self, ist, update, attachment, ctx):
        if "txs" not in update:
            return False, "malformed", None
        seq = update.get(self.seq_field)
        if seq != ist.latest()["height"] + 1:
            return False, "stale", None
        reason = self._certify(ist, update, attachment, ctx)
        if reason is not None:
            return False, reason, None
        post = apply_txs(ist.latest(), update["txs"], ctx.ledger, seq)
        if post is None:
            return False, "invalid-transition", None
        rids = []
        for tx in update["txs"]:
            for r in ist.queue:
                if r["rid"] in rids or r["kind"] != UPDATE:
                    continue
                body = r["body"]
                pays = (tx.get("op") == "pay" and body.get("op") == "pay"
                        and r["by"] == tx.get("from")
                        and body.get("to") == tx.get("to"))
                mints = (tx.get("op") == "mint" and body.get("op") == "peg-in"
                         and r["by"] == tx.get("to"))
                if (pays or mints) and body.get("amt") == tx.get("amt"):
                    rids.append(r["rid"])
                    break
        return True, None, {
            "kind": UPDATE, "seq": seq, "state": post, "txs": update["txs"],
            self.update_key: update, "evidence": attachment, "rids": rids,
            "round": ctx.round}

    def settlement(self, ist, body, attachment, ctx):
        if body.get("op") != "peg-out":
            return False, "malformed", None
        asked = [r for r in ist.queue if r["kind"] == SETTLEMENT]
        if not asked:
            return False, "no-settle-request", None
        burn = None
        for e in ist.executed:
            if e["kind"] != UPDATE:
                continue
            for tx in e["txs"]:
                if (tx.get("op") == "peg-out" and tx.get("from") == body.get("from")
                        and tx.get("amt") == body.get("amt")):
                    burn = (e, tx)
        if burn is None:
            return False, "no-burn", None
        entry, tx = burn
        txid = l2_txid(ctx.certs, tx)
        committed = ctx.ledger.find(
            lambda t: t["kind"] == self.settle_kind
            and t["body"].get("chain") == self.sid
            and t["body"].get("l2txid") == txid)
        if not committed:
            return False, "not-committed", None
        return True, None, entry["state"]


# -- environment and simulator ---------------------------------------------


class AccountTracker:
    """Stateless translation of client inputs into ideal requests."""

    def __init__(self, scn):
        self.scn = scn

    def ideal_request(self, pid, entry):
        kind = entry.get("kind")
        if kind == "open":
            return {"kind": OPEN,
                    "body": {"state": genesis_state(self.scn["initial"])}}
        if kind == "pay":
            return {"kind": UPDATE,
                    "body": {"op": "pay", "to": entry["to"], "amt": entry["amt"]}}
        if kind == "deposit":
            return {"kind": UPDATE, "body": {"op": "peg-in", "amt": entry["amt"]}}
        if kind == "settle":
            return {"kind": SETTLEMENT,
                    "body": {"op": "peg-out", "from": pid, "amt": entry["amt"]}}
        return None


class AccountHooks(SimulatorHooks):
    """Simulator triggers for the open and for each settlement.

    Subclasses turn their own update notes into update triggers and fall
    back on ``account_triggers`` for every other note.
    """

    def __init__(self, scn):
        super().__init__(scn)
        self.scn = scn

    def account_triggers(self, ev):
        kind = ev.get("kind")
        if kind == "open-done" and "open" not in self.done:
            self.done.add("open")
            return [{"kind": OPEN,
                     "body": {"state": genesis_state(self.scn["initial"])}}]
        if kind == "settle-done" and ("s", ev["l2txid"]) not in self.done:
            self.done.add(("s", ev["l2txid"]))
            return [{"kind": SETTLEMENT,
                     "body": {"op": "peg-out", "from": ev["frm"],
                              "amt": ev["amt"]},
                     "attachment": None}]
        return []
