"""Federated sidechain with a rotating-leader BFT committee (n = 3f+1).

Operators keep an account ledger and finalize one block per committee round
trip: the round's leader proposes, operators precommit, then final-sign, and
a block carrying both quorum certificates is appended and pushed to clients.
Honest operators vote at most once per (height, round) slot and lock on the
first digest they see a precommit quorum for, so with the default quorum of
2f+1 two conflicting blocks can never both gather certificates.  The quorum
is a scenario parameter; ``tests/test_liquid.py`` sets quorum=2 to show
what happens below the intersection threshold.

Value enters by peg-in (an L1 deposit that leaders mint once it is buried
confirm_depth blocks deep) and leaves by peg-out (an L2 burn followed by a
federation-multisigned L1 payout, which is the settlement event).

Clients replicate the chain from block pushes, verify certificates
themselves, and serve reads from their local copy.
"""

from __future__ import annotations

from .runtime import ENV_ROLE, Machine, EntityId
from .base import signed_tx, attach_leader_clock
from .core import OPEN, UPDATE, SETTLEMENT, CLIENT
from .trace import digest
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
    return {"height": 0, "prev": None, "txs": [], "round": 0, "proposer": None}


def pre_msg(sid, h, rnd, bdig):
    return ["pre", sid, h, rnd, bdig]


def fin_msg(sid, h, rnd, bdig):
    return ["fin", sid, h, rnd, bdig]


def pegout_msg(sid, l2txid, height):
    return ["pegout", sid, l2txid, height]


def content_digest(block):
    """Round- and proposer-independent block identity, used for locks."""
    return digest([block["height"], block["prev"], block["txs"]])


def apply_block(state, block, ledger, confirm_depth):
    if block["height"] != state["height"] + 1:
        return None
    return apply_txs(state, block["txs"], ledger, confirm_depth, block["height"])


def cert_valid(certs, sid, block, cert, quorum, operators):
    """Both quorum certificates of ``block``: lists of {"by", "ref"}."""
    if not isinstance(cert, dict):
        return False
    bdig = digest(block)
    h, rnd = block["height"], cert.get("round")
    ok_sets = []
    for phase, msg in (("pre", pre_msg(sid, h, rnd, bdig)),
                       ("fin", fin_msg(sid, h, rnd, bdig))):
        entries = cert.get(phase, [])
        if not isinstance(entries, list) \
                or not all(isinstance(e, dict) for e in entries):
            return False
        good = set()
        for entry in entries:
            by = entry.get("by")
            if by in operators and certs.verify(entry.get("ref"), msg, by):
                good.add(by)
        ok_sets.append(good)
    return all(len(g) >= quorum for g in ok_sets)


# -- real machines ---------------------------------------------------------


class LiquidOperator(Machine):
    def __init__(self, me, operators, clients, f, quorum, initial):
        super().__init__(me)
        self.operators = list(operators)
        self.clients = list(clients)
        self.f = f
        self.quorum = quorum
        self.chain = [{"block": genesis_block(), "cert": None}]
        self.states = [genesis_state(initial)]
        self.mempool = {}
        self.voted = set()        # (height, round) precommit slots
        self.finvoted = set()
        self.locks = {}           # height -> {"cdig", "block"}
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
        if kind == "update-leader":
            self._maybe_propose(ctx, p["round"])
        elif kind == "tx":
            tx = p["tx"]
            self.mempool[l2_txid(tx)] = tx
        elif kind == "propose":
            self._on_propose(ctx, p["block"], src)
        elif kind == "precommit":
            self._on_precommit(ctx, p, src)
        elif kind == "final":
            self._on_final(ctx, p, src)
        elif kind == "block-push":
            self._on_push(ctx, p["entry"])
        elif kind == "pegout-sig":
            self._on_pegout_sig(ctx, p, src)

    def _maybe_propose(self, ctx, rnd):
        if self._leader_for(rnd) != self.me:
            return
        h = self.tip()["height"] + 1
        lock = self.locks.get(h)
        if lock is not None:
            block = dict(lock["block"], round=rnd, proposer=self.me.short())
        else:
            txs, _ = pack_block(ctx.ledger, self.me.sid, self.states[-1],
                                self.mempool, ctx.timing["confirm_depth"])
            if not txs:
                return
            block = {"height": h, "prev": digest(self.tip()), "txs": txs,
                     "round": rnd, "proposer": self.me.short()}
        self._broadcast_ops(ctx, {"kind": "propose", "block": block})

    def _on_propose(self, ctx, block, src):
        h = block["height"]
        if h != self.tip()["height"] + 1:
            return
        if block.get("proposer") != self._leader_for(block["round"]).short():
            return
        if src != self.me and src.short() != block.get("proposer"):
            return
        if block.get("prev") != digest(self.tip()):
            return
        bdig = digest(block)
        lock = self.locks.get(h)
        if lock is not None and lock["cdig"] != content_digest(block):
            return
        slot = (h, block["round"])
        if slot in self.voted:
            return
        if apply_block(self.states[-1], block, ctx.ledger,
                       ctx.timing["confirm_depth"]) is None:
            return
        self.voted.add(slot)
        self.blocks_seen[bdig] = block
        ref = ctx.certs.sign(self.me.short(), pre_msg(self.me.sid, h, block["round"], bdig))
        self._broadcast_ops(ctx, {"kind": "precommit", "height": h,
                                  "round": block["round"], "bdig": bdig,
                                  "ref": ref, "block": block})

    def _on_precommit(self, ctx, p, src):
        h, rnd, bdig = p["height"], p["round"], p["bdig"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], pre_msg(self.me.sid, h, rnd, bdig), src.short()):
            return
        self.blocks_seen.setdefault(bdig, p.get("block"))
        store = self.pre_store.setdefault((h, rnd, bdig), {})
        store[src.short()] = p["ref"]
        slot = (h, rnd)
        if (len(store) >= self.quorum and slot not in self.finvoted
                and h == self.tip()["height"] + 1
                and self.blocks_seen.get(bdig) is not None):
            self.finvoted.add(slot)
            block = self.blocks_seen[bdig]
            self.locks[h] = {"cdig": content_digest(block), "block": block}
            ref = ctx.certs.sign(self.me.short(), fin_msg(self.me.sid, h, rnd, bdig))
            self._broadcast_ops(ctx, {"kind": "final", "height": h, "round": rnd,
                                      "bdig": bdig, "ref": ref,
                                      "block": self.blocks_seen[bdig]})

    def _on_final(self, ctx, p, src):
        h, rnd, bdig = p["height"], p["round"], p["bdig"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], fin_msg(self.me.sid, h, rnd, bdig), src.short()):
            return
        self.blocks_seen.setdefault(bdig, p.get("block"))
        store = self.fin_store.setdefault((h, rnd, bdig), {})
        store[src.short()] = p["ref"]
        pres = self.pre_store.get((h, rnd, bdig), {})
        block = self.blocks_seen.get(bdig)
        if (len(store) >= self.quorum and len(pres) >= self.quorum
                and h == self.tip()["height"] + 1 and block is not None):
            cert = {"round": rnd,
                    "pre": [{"by": o, "ref": r} for o, r in sorted(pres.items())],
                    "fin": [{"by": o, "ref": r} for o, r in sorted(store.items())]}
            self._append(ctx, {"block": block, "cert": cert}, via="vote")

    def _append(self, ctx, entry, via):
        block = entry["block"]
        new_state = apply_block(self.states[-1], block, ctx.ledger,
                                ctx.timing["confirm_depth"])
        if new_state is None:
            return
        self.chain.append(entry)
        self.states.append(new_state)
        for tx in block["txs"]:
            self.mempool.pop(l2_txid(tx), None)
        ctx.note("block-final", height=block["height"], bdig=digest(block),
                 via=via, ntx=len(block["txs"]))
        push = {"kind": "block-push", "entry": entry}
        for c in self.clients:
            ctx.send_net(c, push)
        for op in self.operators:
            if op != self.me:
                ctx.send_net(op, push)
        for tx in block["txs"]:
            if tx.get("op") == "peg-out":
                txid = l2_txid(tx)
                ref = ctx.certs.sign(self.me.short(),
                                     pegout_msg(self.me.sid, txid, block["height"]))
                self._broadcast_ops(ctx, {"kind": "pegout-sig", "l2txid": txid,
                                          "height": block["height"], "ref": ref,
                                          "tx": tx})

    def _on_push(self, ctx, entry):
        block = entry["block"]
        if block["height"] != self.tip()["height"] + 1:
            return
        if block.get("prev") != digest(self.tip()):
            return
        if not cert_valid(ctx.certs, self.me.sid, block, entry["cert"],
                          self.quorum, [o.short() for o in self.operators]):
            return
        self._append(ctx, entry, via="adopt")

    def _on_pegout_sig(self, ctx, p, src):
        txid, h = p["l2txid"], p["height"]
        if src != self.me and not ctx.certs.verify(
                p["ref"], pegout_msg(self.me.sid, txid, h), src.short()):
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
    settle_note_fields = ("height",)

    def __init__(self, me, operators, f, quorum, initial):
        super().__init__(me, operators)
        self.f = f
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
        if env.src.role == ENV_ROLE:
            super().on_message(ctx, env)
        elif env.payload.get("kind") == "block-push":
            self._on_push(ctx, env.payload["entry"])

    def _on_push(self, ctx, entry):
        block = entry["block"]
        self.buffer.setdefault(block["height"], entry)
        self._absorb(ctx)

    def _absorb(self, ctx):
        while True:
            entry = self.buffer.get(self.height() + 1)
            if entry is None:
                return
            block = entry["block"]
            if block.get("prev") != digest(self.chain[-1]["block"]):
                del self.buffer[block["height"]]
                return
            if not cert_valid(ctx.certs, self.me.sid, block, entry["cert"],
                              self.quorum, [o.short() for o in self.operators]):
                del self.buffer[block["height"]]
                return
            new_state = apply_block(self.states[-1], block, ctx.ledger,
                                    ctx.timing["confirm_depth"])
            if new_state is None:
                del self.buffer[block["height"]]
                return
            self.chain.append(entry)
            self.states.append(new_state)
            del self.buffer[block["height"]]
            ctx.note("chain-extend", height=block["height"])
            if (self.outstanding is not None
                    and any(l2_txid(t) == self.outstanding["txid"]
                            for t in block["txs"])):
                self.outstanding = None
            self._try_send(ctx)

    def read_view(self, ctx, start):
        executed = [{"kind": OPEN, "seq": 0, "state": self.states[0]}][start:]
        for h in range(max(start, 1), len(self.chain)):
            block = self.chain[h]["block"]
            executed.append({"kind": UPDATE, "seq": block["height"],
                             "state": self.states[h], "txs": block["txs"]})
        return self.states[-1], executed, self.height()

    def _recheck(self, ctx):
        self._check_open(ctx)
        self._watch_settlements(ctx)


# -- ledger kind check -----------------------------------------------------


def install_ledger_checks(world, sid, operators, quorum):
    ops = set(operators)

    def check_pegout(tx, ledger):
        body = tx["body"]
        entries = body.get("opsigs") or []
        msg = pegout_msg(sid, body.get("l2txid"), body.get("height"))
        good = {e.get("by") for e in entries
                if e.get("by") in ops and world.certs.verify(e.get("ref"), msg, e["by"])}
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
        if block.get("prev") != digest(ist.executed[-1]["block"]):
            return "wrong-parent"
        if not cert_valid(ctx.certs, self.sid, block, attachment,
                          self.quorum, self.operators):
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
                   for m in ripe_deposits(ctx.ledger, self.sid, ist.latest(),
                                          ctx.timing["confirm_depth"]))


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
    world.declare_role("clock")
    world.wire("clock", OPERATOR)
    ops = [world.entity(OPERATOR, o) for o in scn["operators"]]
    clients = [world.entity(CLIENT, c) for c in scn["clients"]]
    for c in clients:
        world.register(LiquidClient(c, ops, scn["f"], scn["quorum"], scn["initial"]))
    for o in ops:
        world.register(LiquidOperator(o, ops, clients, scn["f"], scn["quorum"],
                                      scn["initial"]))
    install_ledger_checks(world, world.sid, [o.short() for o in ops], scn["quorum"])
    attach_leader_clock(world, ops)


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
        if ev.get("t") != "note" or ev.get("kind") != "block-final":
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
        return inner.machines[EntityId(pid, inner.sid, CLIENT)].height()


# -- adversary helpers -----------------------------------------------------


def forge_block(proposer_short, height, prev, txs, rnd):
    return {"height": height, "prev": prev, "txs": txs, "round": rnd,
            "proposer": proposer_short}


def sign_branch(world, op_entity, block):
    """Corrupt operator's precommit and final for an arbitrary block."""
    sid = world.sid
    bdig = digest(block)
    h, rnd = block["height"], block["round"]
    pre = world.certs.sign(op_entity.short(), pre_msg(sid, h, rnd, bdig))
    fin = world.certs.sign(op_entity.short(), fin_msg(sid, h, rnd, bdig))
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
    h, prev = tip["height"] + 1, digest(tip)
    block_a = forge_block(op_entity.short(), h, prev, txs_a, rnd)
    block_b = forge_block(op_entity.short(), h, prev, [], rnd)
    for block, targets in ((block_a, targets_a), (block_b, targets_b)):
        sigs = sign_branch(world, op_entity, block)
        for t in targets:
            world.queue_net(op_entity, t, {"kind": "propose", "block": block})
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
            bogus = forge_block(entity.short(), m.tip()["height"] + 1,
                                digest(m.tip()), [overdraft_tx("c1", "c2")],
                                world.round_no)
            for op in world.roles.get(OPERATOR, []):
                if op != entity:
                    world.queue_net(entity, op, {"kind": "propose", "block": bogus})
            return None

        actions["stale-push"] = stale_push
        actions["garbage-propose"] = garbage_propose
    if entity.role == CLIENT:
        actions["spam-overdraft"] = lambda: spam_overdraft(world, entity)
    return actions
