"""Federated sidechain with a rotating-leader BFT committee (n = 3f+1).

Operators keep an account ledger and finalize one block per committee round
trip: the round's leader proposes, operators precommit, then final-sign, and
a block carrying both quorum certificates is appended and pushed to clients.
A block is ``{height, prev, txs}`` and its digest is its one identity: the
round travels in the proposal and in the votes, and the proposer is the
proposal's sender, so the same content certified in two rounds is one block.
An honest operator votes at most once per (height, round) slot.  The first
block it final-votes at a height becomes its lock there; the lock never
moves, it precommits no other proposal at that height, final-votes no other
quorum block, and as leader it re-proposes the locked block.  So at the
default quorum of 2f+1 no two blocks at one height can both gather
certificates.  With no unlock rule, though, a lock split (two honest
operators locked on each of two blocks) stalls the chain for good
(ROADMAP item 1; ``tests/test_liquid.py`` pins one as a strict xfail, and
sets quorum=2 to show what happens below the intersection).

Value enters by peg-in (an L1 deposit that leaders mint once it is buried
confirm_depth blocks deep) and leaves by peg-out (an L2 burn followed by a
federation-multisigned L1 payout, which is the settlement event).

Clients replicate the chain from block pushes, verify certificates
themselves, and serve reads from their local copy.
"""

from __future__ import annotations

from .runtime import Machine, EntityId
from .base import signed_tx
from .core import OPEN, UPDATE, SETTLEMENT, CLIENT
from .accounts import (
    OPERATOR, AccountBundle, AccountClient, AccountHooks, AccountTracker,
    apply_txs, genesis_state, l2_txid, overdraft_tx, pack_block,
    register_onchain, ripe_deposits, spam_overdraft,
)


# round allowances before a queued request counts as overdue; update work
# settles inside the federation, settlement additionally crosses the chain
UPDATE_ALLOWANCE = 10
SETTLE_ALLOWANCE = 18


def genesis_block():
    return {"height": 0, "prev": None, "txs": []}


# each *_msg helper returns the digest of the message that is signed, which
# the registry memoizes: every operator checks each peer's vote on one message
def pre_msg(certs, sid, h, rnd, bdig):
    return certs.message("pre", sid, h, rnd, bdig)


def fin_msg(certs, sid, h, rnd, bdig):
    return certs.message("fin", sid, h, rnd, bdig)


def pegout_msg(certs, sid, l2txid, height):
    return certs.message("pegout", sid, l2txid, height)


def apply_block(state, block, ledger):
    if block["height"] != state["height"] + 1:
        return None
    return apply_txs(state, block["txs"], ledger, block["height"])


def cert_valid(certs, sid, block, cert, quorum, operators):
    """The digest of ``block`` if both its quorum certificates (lists of
    {"by", "ref"}) hold, else None."""
    if not isinstance(cert, dict):
        return None
    bdig = certs.digest(block)
    h, rnd = block["height"], cert.get("round")
    ok_sets = []
    for phase, dig in (("pre", pre_msg(certs, sid, h, rnd, bdig)),
                       ("fin", fin_msg(certs, sid, h, rnd, bdig))):
        entries = cert.get(phase, [])
        if not isinstance(entries, list) \
                or not all(isinstance(e, dict) for e in entries):
            return None
        good = set()
        for entry in entries:
            by = entry.get("by")
            if by in operators and certs.verify(entry.get("ref"), dig, by):
                good.add(by)
        ok_sets.append(good)
    return bdig if all(len(g) >= quorum for g in ok_sets) else None


# -- real machines ---------------------------------------------------------


class LiquidOperator(Machine):
    def __init__(self, me, operators, clients, quorum, initial):
        super().__init__(me)
        self.operators = list(operators)
        self.clients = list(clients)
        self.quorum = quorum
        self.chain = [{"block": genesis_block(), "cert": None}]
        self.states = [genesis_state(initial)]
        self.mempool = {}
        self.voted = set()        # (height, round) precommit slots
        self.finvoted = set()
        self.locks = {}           # height -> bdig of the block final-voted
        self.pre_store = {}       # (h, rnd, bdig) -> {op: ref}
        self.fin_store = {}
        self.blocks_seen = {}     # bdig -> block
        self.pegout_sigs = {}     # l2txid -> {op: ref}
        self.pegout_done = set()

    def on_start(self, ctx):
        register_onchain(ctx)

    # helpers

    def tip(self):
        return self.chain[-1]["block"]

    def _leader_for(self, rnd):
        return self.operators[rnd % len(self.operators)]

    def _broadcast_ops(self, ctx, payload):
        for op in self.operators:
            if op == self.me:
                self._handle(ctx, payload, self.me)
            else:
                ctx.send_net(op, payload)

    # dispatch

    def on_message(self, ctx, env):
        self._handle(ctx, env.payload, env.src)

    def _handle(self, ctx, p, src):
        kind = p.get("kind")
        if kind == "tx":
            tx = p["tx"]
            self.mempool[l2_txid(ctx.certs, tx)] = tx
        elif kind == "propose":
            self._on_propose(ctx, p["round"], p["block"], src)
        elif kind == "precommit":
            self._on_precommit(ctx, p, src)
        elif kind == "final":
            self._on_final(ctx, p, src)
        elif kind == "block-push":
            self._on_push(ctx, p["entry"])
        elif kind == "pegout-sig":
            self._on_pegout_sig(ctx, p, src)

    def on_round(self, ctx):
        """As the round's leader, propose the locked block or a new one."""
        rnd = ctx.round
        if self._leader_for(rnd) != self.me:
            return
        h = self.tip()["height"] + 1
        lock = self.locks.get(h)
        if lock is not None:
            block = self.blocks_seen[lock]
        else:
            txs, _ = pack_block(ctx.ledger, self.me.sid, self.states[-1],
                                self.mempool)
            if not txs:
                return
            block = {"height": h, "prev": ctx.certs.digest(self.tip()),
                     "txs": txs}
        self._broadcast_ops(ctx, {"kind": "propose", "round": rnd,
                                  "block": block})

    def _on_propose(self, ctx, rnd, block, src):
        h = block["height"]
        if h != self.tip()["height"] + 1:
            return
        if src != self._leader_for(rnd):
            return
        if block.get("prev") != ctx.certs.digest(self.tip()):
            return
        bdig = ctx.certs.digest(block)
        if self.locks.get(h, bdig) != bdig:
            return
        slot = (h, rnd)
        if slot in self.voted:
            return
        if apply_block(self.states[-1], block, ctx.ledger) is None:
            return
        self.voted.add(slot)
        self.blocks_seen[bdig] = block
        ref = ctx.certs.sign(self.me.short(),
                             pre_msg(ctx.certs, self.me.sid, h, rnd, bdig))
        self._broadcast_ops(ctx, {"kind": "precommit", "height": h,
                                  "round": rnd, "bdig": bdig,
                                  "ref": ref, "block": block})

    def _on_precommit(self, ctx, p, src):
        h, rnd, bdig = p["height"], p["round"], p["bdig"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], pre_msg(ctx.certs, self.me.sid, h, rnd, bdig), src.short()):
            return
        # a vote carries its own copy of the block: keep only one that
        # ``bdig`` digests, so a certificate is never paired with another
        if bdig not in self.blocks_seen \
                and ctx.certs.digest(p.get("block")) == bdig:
            self.blocks_seen[bdig] = p["block"]
        store = self.pre_store.setdefault((h, rnd, bdig), {})
        store[src.short()] = p["ref"]
        slot = (h, rnd)
        block = self.blocks_seen.get(bdig)
        if (len(store) >= self.quorum and slot not in self.finvoted
                and h == self.tip()["height"] + 1 and block is not None
                and self.locks.get(h, bdig) == bdig):
            self.finvoted.add(slot)
            self.locks[h] = bdig
            ref = ctx.certs.sign(self.me.short(),
                                 fin_msg(ctx.certs, self.me.sid, h, rnd, bdig))
            self._broadcast_ops(ctx, {"kind": "final", "height": h, "round": rnd,
                                      "bdig": bdig, "ref": ref, "block": block})

    def _on_final(self, ctx, p, src):
        h, rnd, bdig = p["height"], p["round"], p["bdig"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], fin_msg(ctx.certs, self.me.sid, h, rnd, bdig), src.short()):
            return
        if bdig not in self.blocks_seen \
                and ctx.certs.digest(p.get("block")) == bdig:
            self.blocks_seen[bdig] = p["block"]
        store = self.fin_store.setdefault((h, rnd, bdig), {})
        store[src.short()] = p["ref"]
        pres = self.pre_store.get((h, rnd, bdig), {})
        block = self.blocks_seen.get(bdig)
        if (len(store) >= self.quorum and len(pres) >= self.quorum
                and h == self.tip()["height"] + 1 and block is not None):
            cert = {"round": rnd,
                    "pre": [{"by": o, "ref": r} for o, r in sorted(pres.items())],
                    "fin": [{"by": o, "ref": r} for o, r in sorted(store.items())]}
            self._append(ctx, {"block": block, "cert": cert}, bdig, via="vote")

    def _append(self, ctx, entry, bdig, via):
        """Append ``entry``, whose block has digest ``bdig``, if it applies."""
        block = entry["block"]
        new_state = apply_block(self.states[-1], block, ctx.ledger)
        if new_state is None:
            return
        self.chain.append(entry)
        self.states.append(new_state)
        for tx in block["txs"]:
            self.mempool.pop(l2_txid(ctx.certs, tx), None)
        ctx.note("block-final", height=block["height"], bdig=bdig,
                 via=via, ntx=len(block["txs"]))
        push = {"kind": "block-push", "entry": entry}
        for c in self.clients:
            ctx.send_net(c, push)
        for op in self.operators:
            if op != self.me:
                ctx.send_net(op, push)
        for tx in block["txs"]:
            if tx.get("op") == "peg-out":
                txid = l2_txid(ctx.certs, tx)
                ref = ctx.certs.sign(self.me.short(), pegout_msg(
                    ctx.certs, self.me.sid, txid, block["height"]))
                self._broadcast_ops(ctx, {"kind": "pegout-sig", "l2txid": txid,
                                          "height": block["height"], "ref": ref,
                                          "tx": tx})

    def _on_push(self, ctx, entry):
        block = entry["block"]
        if block["height"] != self.tip()["height"] + 1:
            return
        if block.get("prev") != ctx.certs.digest(self.tip()):
            return
        bdig = cert_valid(ctx.certs, self.me.sid, block, entry["cert"],
                          self.quorum, [o.short() for o in self.operators])
        if bdig is None:
            return
        self._append(ctx, entry, bdig, via="adopt")

    def _on_pegout_sig(self, ctx, p, src):
        txid, h = p["l2txid"], p["height"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], pegout_msg(ctx.certs, self.me.sid, txid, h), src.short()):
            return
        store = self.pegout_sigs.setdefault(txid, {})
        store[src.short()] = p["ref"]
        if txid in self.pegout_done or len(store) < self.quorum:
            return
        if h >= len(self.states):
            return
        tx = p["tx"]
        body = {"chain": self.me.sid, "to": tx["from"], "amt": tx["amt"],
                "height": h, "l2txid": txid, "state": self.states[h],
                "opsigs": [{"by": o, "ref": r} for o, r in sorted(store.items())],
                "conflict": f"pegout/{self.me.sid}/{txid}"}
        ctx.ledger.submit(signed_tx(ctx.certs, "peg-out", body, self.me.short()))
        self.pegout_done.add(txid)


class LiquidClient(AccountClient):
    settle_kind = "peg-out"

    def __init__(self, me, operators, quorum, initial):
        super().__init__(me, operators)
        self.quorum = quorum
        self.chain = [{"block": genesis_block(), "cert": None}]
        self.states = [genesis_state(initial)]
        self.buffer = {}

    def height(self):
        return self.chain[-1]["block"]["height"]

    def genesis(self):
        return self.states[0]

    def tip_state(self, ctx):
        return self.states[-1]

    def on_message(self, ctx, env):
        if env.payload.get("kind") == "block-push":
            self._on_push(ctx, env.payload["entry"])

    def _on_push(self, ctx, entry):
        height = entry["block"]["height"]
        if height > self.height():       # a push for a held height is stale
            self.buffer.setdefault(height, entry)
        self._absorb(ctx)

    def _absorb(self, ctx):
        while True:
            entry = self.buffer.pop(self.height() + 1, None)
            if entry is None:
                return
            block = entry["block"]
            if block.get("prev") != ctx.certs.digest(self.chain[-1]["block"]):
                return
            bdig = cert_valid(ctx.certs, self.me.sid, block, entry["cert"],
                              self.quorum, [o.short() for o in self.operators])
            if bdig is None:
                return
            new_state = apply_block(self.states[-1], block, ctx.ledger)
            if new_state is None:
                return
            self.chain.append(entry)
            self.states.append(new_state)
            ctx.note("chain-extend", height=block["height"])
            if (self.outstanding is not None
                    and any(l2_txid(ctx.certs, t) == self.outstanding["txid"]
                            for t in block["txs"])):
                self.outstanding = None
            self._try_send(ctx)

    def read_view(self, ctx, start):
        executed = [{"kind": OPEN, "seq": 0, "state": self.states[0]}][start:]
        for h in range(max(start, 1), len(self.chain)):
            block = self.chain[h]["block"]
            executed.append({"kind": UPDATE, "seq": block["height"],
                             "state": self.states[h], "txs": block["txs"]})
        return executed

    def _recheck(self, ctx):
        self._check_open(ctx)
        self._watch_settlements(ctx)


# -- ledger kind check -----------------------------------------------------


def install_ledger_checks(world, operators, quorum):
    sid, ops = world.sid, set(operators)

    def check_pegout(tx, ledger):
        body = tx["body"]
        entries = body.get("opsigs") or []
        dig = pegout_msg(ledger.certs, sid, body.get("l2txid"), body.get("height"))
        good = {e.get("by") for e in entries
                if e.get("by") in ops and ledger.certs.verify(e.get("ref"), dig, e["by"])}
        if len(good) < quorum:
            return False, "thin-federation-multisig"
        return True, None

    world.ledger.kind_checks["peg-out"] = check_pegout


# -- ideal bundle ----------------------------------------------------------


class LiquidBundle(AccountBundle):
    name = "liquid"
    update_key, seq_field, settle_kind = "block", "height", "peg-out"

    def __init__(self, sid, clients, operators, quorum, initial):
        super().__init__(sid, clients, operators, initial)
        self.quorum = quorum

    def open(self, ist, body, attachment, ctx):
        ok, reason, record = super().open(ist, body, attachment, ctx)
        return ok, reason, record and dict(record, block=genesis_block())

    def _certify(self, ist, block, attachment, ctx):
        # while open, the last record is the open or an update, and both
        # carry their block
        if block.get("prev") != ctx.certs.digest(ist.executed[-1]["block"]):
            return "wrong-parent"
        if cert_valid(ctx.certs, self.sid, block, attachment,
                      self.quorum, self.operators) is None:
            return "thin-certificate"
        return None

    def upd_rnd(self, ist, ctx):
        if ist.phase() != "open":
            return True, None
        for r in ist.queue:
            if r["kind"] not in (UPDATE, SETTLEMENT):
                continue
            allowance = (UPDATE_ALLOWANCE if r["kind"] == UPDATE
                         else SETTLE_ALLOWANCE)
            if ctx.round - r["round"] < allowance:
                continue
            if r["kind"] == UPDATE and r["body"].get("op") == "peg-in":
                if not self._ripe_deposit(ist, r, ctx):
                    continue
            return False, "pending-l2-work"
        return True, None

    def _ripe_deposit(self, ist, req, ctx):
        return any(m["to"] == req["by"] and m["amt"] == req["body"].get("amt")
                   for m in ripe_deposits(ctx.ledger, self.sid, ist.latest()))


# -- protocol descriptor ---------------------------------------------------


def canonical_scenario(n_ops=4, f=1, quorum=None, balance=10):
    return {
        "protocol": "liquid",
        "clients": ["c1", "c2"],
        "operators": [f"op{i+1}" for i in range(n_ops)],
        "f": f,
        "quorum": quorum if quorum is not None else 2 * f + 1,
        "initial": {"c1": balance, "c2": balance},
    }


def liveness_params(scn):
    f = scn["f"]
    return {
        OPEN: {"f": {CLIENT: 1, OPERATOR: 0}, "t_l2": 8, "t_l1": 6},
        # updates settle entirely inside the federation; the allowance is
        # sized so that deposit burial and leader rotation both fit
        UPDATE: {"f": {CLIENT: 1, OPERATOR: f}, "t_l2": UPDATE_ALLOWANCE,
                 "t_l1": 0},
        SETTLEMENT: {"f": {CLIENT: 1, OPERATOR: f}, "t_l2": 10,
                     "t_l1": SETTLE_ALLOWANCE - 10},
    }


def build_real(world, scn):
    for role, _, budget in party_roles(scn):
        world.declare_role(role, budget=budget)
    ops = [world.entity(OPERATOR, o) for o in scn["operators"]]
    clients = [world.entity(CLIENT, c) for c in scn["clients"]]
    for c in clients:
        world.register(LiquidClient(c, ops, scn["quorum"], scn["initial"]))
    for o in ops:
        world.register(LiquidOperator(o, ops, clients, scn["quorum"],
                                      scn["initial"]))
    install_ledger_checks(world, [o.short() for o in ops], scn["quorum"])


def make_bundle(world, scn):
    return LiquidBundle(world.sid, scn["clients"],
                        [f"{OPERATOR}:{o}" for o in scn["operators"]],
                        scn["quorum"], scn["initial"])


def party_roles(scn):
    """(role, pids, corruption budget) rows for mirroring the cast."""
    return [(CLIENT, list(scn["clients"]), 1),
            (OPERATOR, list(scn["operators"]), scn["f"])]


EnvTracker = AccountTracker


class Hooks(AccountHooks):
    def triggers_for(self, inner, ev):
        if ev.get("kind") != "block-final":
            return self.account_triggers(ev)
        key = ("b", ev["height"])
        if key in self.done:
            return []
        self.done.add(key)
        src = inner.machines[EntityId(ev["party"].split(":", 1)[1],
                                      inner.sid, OPERATOR)]
        entry = src.chain[ev["height"]]
        return [{"kind": UPDATE, "state": entry["block"],
                 "attachment": entry["cert"]}]

    def read_delay(self, inner, pid):
        return self.client(inner, pid).height()


# -- adversary helpers -----------------------------------------------------


def sign_branch(world, op_entity, block, rnd):
    """Corrupt operator's precommit and final for an arbitrary block."""
    sid = world.sid
    bdig = world.certs.digest(block)
    h = block["height"]
    pre = world.certs.sign(op_entity.short(), pre_msg(world.certs, sid, h, rnd, bdig))
    fin = world.certs.sign(op_entity.short(), fin_msg(world.certs, sid, h, rnd, bdig))
    return {"pre": {"kind": "precommit", "height": h, "round": rnd, "bdig": bdig,
                    "ref": pre, "block": block},
            "fin": {"kind": "final", "height": h, "round": rnd, "bdig": bdig,
                    "ref": fin, "block": block}}


def equivocate(world, op_entity, targets_a, targets_b, txs_a, rnd):
    """Two conflicting proposals for the same height, one per recipient set.

    Branch A carries txs_a; branch B is the empty block.  The corrupt
    proposer double-votes on both, which only pays off below the 2f+1
    quorum.  Returns the two blocks for the caller's bookkeeping.
    """
    some_op = world.machines[targets_a[0]] if targets_a else None
    tip = some_op.tip() if some_op else genesis_block()
    h, prev = tip["height"] + 1, world.certs.digest(tip)
    block_a = {"height": h, "prev": prev, "txs": txs_a}
    block_b = {"height": h, "prev": prev, "txs": []}
    for block, targets in ((block_a, targets_a), (block_b, targets_b)):
        sigs = sign_branch(world, op_entity, block, rnd)
        for t in targets:
            world.queue_net(op_entity, t, {"kind": "propose", "round": rnd,
                                           "block": block})
            world.queue_net(op_entity, t, sigs["pre"])
            world.queue_net(op_entity, t, sigs["fin"])
    return block_a, block_b


def menu(world, entity):
    """Benign-noise adversary moves for random suites: none of these can
    break the default-quorum guarantees, they only exercise rejection paths."""
    m = world.machines.get(entity)
    actions = {}
    if entity.role == OPERATOR:
        def stale_push():
            if m is None or len(m.chain) < 2:
                return None
            push = {"kind": "block-push", "entry": m.chain[1]}
            for c in world.roles.get(CLIENT, []):
                world.queue_net(entity, c, push)
            return None

        def garbage_propose():
            if m is None:
                return None
            bogus = {"height": m.tip()["height"] + 1,
                     "prev": world.certs.digest(m.tip()),
                     "txs": [overdraft_tx("c1", "c2")]}
            for op in world.roles.get(OPERATOR, []):
                if op != entity:
                    world.queue_net(entity, op, {"kind": "propose",
                                                 "round": world.round_no,
                                                 "block": bogus})
            return None

        actions["stale-push"] = stale_push
        actions["garbage-propose"] = garbage_propose
    if entity.role == CLIENT:
        actions["spam-overdraft"] = lambda: spam_overdraft(world, entity)
    return actions
