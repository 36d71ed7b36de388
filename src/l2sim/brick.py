"""Payment channel with a warden committee (n = 3f+1, threshold 2f+1).

Two clients run a two-party channel; wardens countersign every state and act
as the settlement committee.  Communication is asynchronous: NET deliveries
are fully adversary-ordered and only the cross-round synchrony envelope of
the runtime bounds them.  A state {s, i} is accepted once both clients have
signed it and 2f+1 wardens have countersigned; wardens store only their
latest accepted state and refuse stale sequence numbers.

Settlement is either collaborative (both clients co-sign a close, which may
deliberately be an old state) or unilateral (the settling client instructs
the wardens, waits for 2f+1 on-chain publications, and the highest published
sequence number wins).

The ideal bundle mirrors these rules as subroutine checks over the shared
internal state: client signatures are verified against the registry (they
carry the agreement), warden multisets are counted structurally, and every
on-chain condition is delegated to the ledger, whose kind checks validate
embedded channel signatures.  An update must carry sequence number
``latest + 1``, as a client accepts only the state after its own, so
``states[i]`` has seq i; a collab settlement must name a recorded state, as
an honest client co-signs only entries of its chain.  A read may therefore
serve every state from the on-chain anchor's seq up: a closed channel hides
the states below its settled anchor.

A pay request names its transfer (``op``, ``to``, ``amt``), and the bundle
admits it as the account models do: ``to`` is a client and ``amt`` a
positive int within the payer's latest balance less its queued pays.  An
update clears the first queued pay whose transfer yields its post-state.
"""

from __future__ import annotations

from .runtime import Machine, EntityId
from .base import signed_tx
from .core import (SubroutineBundle, SimulatorHooks, OPEN, UPDATE,
                   SETTLEMENT, CLIENT, honest, open_record, read_entries,
                   read_result, settled_entry)

WARDEN = "warden"


def initial_state(collateral: dict) -> dict:
    return {"bal": dict(sorted(collateral.items())), "seq": 0}


def transfer(state: dict, payer: str, payee: str, amt: int) -> dict | None:
    bal = dict(state["bal"])
    if payer not in bal or payee not in bal or amt <= 0 or bal[payer] < amt:
        return None
    bal[payer] -= amt
    bal[payee] += amt
    return {"bal": bal, "seq": state["seq"] + 1}


def channel_state(s) -> bool:
    """Shape check for a state from outside, so the arithmetic stays total."""
    return (isinstance(s, dict) and isinstance(s.get("seq"), int)
            and isinstance(s.get("bal"), dict)
            and all(isinstance(v, int) for v in s["bal"].values()))


def attached(attachment, key) -> list:
    """The list an attachment carries under ``key``; empty if it is not one."""
    value = (attachment or {}).get(key)
    return value if isinstance(value, list) else []


def conserves(prev: dict, new: dict) -> bool:
    if set(new["bal"]) != set(prev["bal"]):
        return False
    if any(v < 0 for v in new["bal"].values()):
        return False
    return sum(new["bal"].values()) == sum(prev["bal"].values())


# each *_msg helper returns the digest of the message that is signed, which
# the registry memoizes: both clients and every warden sign or check it
def state_msg(certs, sid, state, seq):
    return certs.message("chan-state", sid, state, seq)


def open_msg(certs, sid, state):
    return certs.message("chan-open", sid, state)


def close_msg(certs, sid, state, seq):
    return certs.message("chan-close", sid, state, seq)


def warden_msg(certs, sid, state, seq):
    return certs.message("warden-state", sid, state, seq)


# -- real machines ---------------------------------------------------------


class BrickClient(Machine):
    def __init__(self, me, peer_pid, wardens, collateral, f):
        super().__init__(me)
        self.peer = peer_pid
        self.wardens = list(wardens)
        self.f = f
        self.collateral = dict(collateral)
        self.phase = "idle"
        self.s0 = None
        self.my_open_sig = None
        self.peer_open_sig = None
        self.open_acks = {}
        self.open_submitted = False
        self.chain = []          # accepted: {"kind","seq","state","csigs","wacks"}
        self.pending_pay = []
        self.proposal = None     # outstanding outgoing {state, seq, sig}
        self.acks = {}           # seq -> {warden_short: {"ref","state","csigs"}}
        self.close_pending = None
        self.uni_pending = False
        self.close_submitted = False
        self.settled_entry = None
        self._served = 0         # chain entries the reads have shown

    # helpers

    def _peer_entity(self):
        return EntityId(self.peer, self.me.sid, CLIENT)

    def latest(self):
        return self.chain[-1] if self.chain else None

    def participants(self):
        return [f"{CLIENT}:{self.me.pid}", f"{CLIENT}:{self.peer}"] + \
               [w.short() for w in self.wardens]

    # environment requests

    def on_input(self, ctx, p):
        kind = p.get("kind")
        if kind == "open":
            self._start_open(ctx)
        elif kind == "pay":
            self._start_pay(ctx, p["to"], p["amt"])
        elif kind == "settle":
            self._start_settle(ctx, p.get("type", "collab"), p.get("seq"))
        elif kind == "read":
            self._serve_read(ctx)

    def _start_open(self, ctx):
        if self.phase != "idle":
            ctx.note("request-refused", why="phase", req="open")
            return
        self.s0 = initial_state(self.collateral)
        self.my_open_sig = ctx.certs.sign(self.me.short(),
                                          open_msg(ctx.certs, self.me.sid, self.s0))
        msg = {"kind": "chan-open", "state": self.s0, "sig": self.my_open_sig}
        ctx.send_net(self._peer_entity(), msg)
        for w in self.wardens:
            ctx.send_net(w, msg)
        self.phase = "opening"

    def _start_pay(self, ctx, to, amt):
        if self.phase != "open":
            ctx.note("request-refused", why="phase", req="pay")
            return
        self.pending_pay.append({"to": to, "amt": amt})
        self._try_propose(ctx)

    def _try_propose(self, ctx):
        if self.proposal is not None or not self.pending_pay or self.phase != "open":
            return
        pay = self.pending_pay.pop(0)
        new = transfer(self.latest()["state"], self.me.pid, pay["to"], pay["amt"])
        if new is None:
            ctx.note("request-refused", why="invalid-transfer", req="pay")
            self._try_propose(ctx)
            return
        seq = new["seq"]
        ctx.note("request-queued", req="pay")
        sig = ctx.certs.sign(self.me.short(),
                             state_msg(ctx.certs, self.me.sid, new, seq))
        self.proposal = {"state": new, "seq": seq, "sig": sig}
        ctx.send_net(self._peer_entity(),
                     {"kind": "pay", "state": new, "seq": seq, "sig": sig})

    def _start_settle(self, ctx, stype, seq):
        if self.phase != "open":
            ctx.note("request-refused", why="phase", req="settle")
            return
        if stype not in ("collab", "unilateral"):
            ctx.note("request-refused", why="malformed", req="settle")
            return
        if stype == "unilateral":
            self.uni_pending = True
            for w in self.wardens:
                ctx.send_net(w, {"kind": "close-uni"})
            return
        target = self.latest()
        if seq is not None:
            hits = [e for e in self.chain if e["seq"] == seq]
            if not hits:
                ctx.note("request-refused", why="unknown-seq", req="settle")
                return
            target = hits[0]
        sig = ctx.certs.sign(self.me.short(), close_msg(
            ctx.certs, self.me.sid, target["state"], target["seq"]))
        self.close_pending = {"state": target["state"], "seq": target["seq"], "sig": sig}
        ctx.send_net(self._peer_entity(),
                     {"kind": "close-req", "state": target["state"],
                      "seq": target["seq"], "sig": sig})

    def _serve_read(self, ctx):
        if not self.chain:
            ctx.note("read-empty")
            return
        settled = self.settled_entry and self.settled_entry["state"]
        base, self._served = self._served, len(self.chain)
        ctx.output(read_result(base, read_entries(self.chain[base:]), settled))

    # protocol messages

    def on_message(self, ctx, env):
        p, src = env.payload, env.src
        kind = p.get("kind")
        if kind == "chan-open":
            if ctx.certs.verify(p["sig"],
                                open_msg(ctx.certs, self.me.sid, p["state"]),
                                f"{CLIENT}:{self.peer}"):
                self.peer_open_sig = p["sig"]
        elif kind == "chan-open-ack":
            self._on_open_ack(ctx, p, src)
        elif kind == "pay":
            self._on_pay(ctx, p)
        elif kind == "pay-ack":
            self._on_pay_ack(ctx, p, src)
        elif kind == "close-req":
            self._on_close_req(ctx, p)
        elif kind == "close-ack":
            self._on_close_ack(ctx, p)

    def _on_open_ack(self, ctx, p, src):
        if self.phase != "opening" or p["state"] != self.s0:
            return
        if not ctx.certs.verify(p["wsig"],
                                warden_msg(ctx.certs, self.me.sid, self.s0, 0),
                                src.short()):
            return
        self.open_acks[src.short()] = p["wsig"]
        if len(self.open_acks) >= 2 * self.f + 1 and not self.open_submitted:
            ctx.ledger.submit(signed_tx(
                ctx.certs, "open-commit",
                {"chain": self.me.sid, "state": self.s0,
                 "conflict": f"open/{self.me.sid}/{self.me.short()}"},
                self.me.short()))
            self.open_submitted = True

    def _on_pay(self, ctx, p):
        if self.phase != "open":
            return
        state, seq = p["state"], p["seq"]
        mine = self.latest()
        if seq != mine["seq"] + 1 or state.get("seq") != seq:
            return
        if not conserves(mine["state"], state):
            return
        if state["bal"].get(self.me.pid, 0) < mine["state"]["bal"].get(self.me.pid, 0):
            return                       # the proposer pays out of their own share
        dig = state_msg(ctx.certs, self.me.sid, state, seq)
        if not ctx.certs.verify(p["sig"], dig, f"{CLIENT}:{self.peer}"):
            return
        sig2 = ctx.certs.sign(self.me.short(), dig)
        for w in self.wardens:
            ctx.send_net(w, {"kind": "pay2", "state": state, "seq": seq,
                             "csigs": [p["sig"], sig2]})

    def _on_pay_ack(self, ctx, p, src):
        if self.phase != "open":
            return
        seq, state = p["seq"], p["state"]
        mine = self.latest()
        if mine is None or seq != mine["seq"] + 1:
            return
        if not ctx.certs.verify(p["wsig"],
                                warden_msg(ctx.certs, self.me.sid, state, seq),
                                src.short()):
            return
        slot = self.acks.setdefault(seq, {})
        slot[src.short()] = {"ref": p["wsig"], "state": state, "csigs": p["csigs"]}
        matching = {w: a for w, a in slot.items() if a["state"] == state}
        if len(matching) >= 2 * self.f + 1:
            self.chain.append({"kind": UPDATE, "seq": seq, "state": state,
                               "csigs": p["csigs"],
                               "wacks": {w: a["ref"] for w, a in matching.items()}})
            ctx.note("state-accept", seq=seq, state=state)
            if self.proposal is not None and self.proposal["seq"] == seq:
                self.proposal = None
            self._try_propose(ctx)

    def _on_close_req(self, ctx, p):
        if self.phase != "open":
            return
        state, seq = p["state"], p["seq"]
        known = [e for e in self.chain if e["seq"] == seq and e["state"] == state]
        if not known:
            return
        dig = close_msg(ctx.certs, self.me.sid, state, seq)
        if not ctx.certs.verify(p["sig"], dig, f"{CLIENT}:{self.peer}"):
            return
        sig2 = ctx.certs.sign(self.me.short(), dig)
        ctx.send_net(self._peer_entity(), {"kind": "close-ack", "seq": seq, "sig": sig2})

    def _on_close_ack(self, ctx, p):
        if self.close_pending is None or p["seq"] != self.close_pending["seq"]:
            return
        cp = self.close_pending
        if not ctx.certs.verify(p["sig"], close_msg(ctx.certs, self.me.sid,
                                                    cp["state"], cp["seq"]),
                                f"{CLIENT}:{self.peer}"):
            return
        self._submit_close(ctx, cp["state"], cp["seq"], [cp["sig"], p["sig"]], "collab")

    def _submit_close(self, ctx, state, seq, csigs, mode):
        if self.close_submitted:
            return
        ctx.ledger.submit(signed_tx(
            ctx.certs, "settle",
            {"chain": self.me.sid, "state": state, "seq": seq,
             "csigs": csigs, "mode": mode, "conflict": f"close/{self.me.sid}"},
            self.me.short()))
        self.close_submitted = True

    # polling

    def on_round(self, ctx):
        self._recheck(ctx)

    def _recheck(self, ctx):
        if self.phase == "opening" and self.open_submitted:
            authors = {t["author"] for t in
                       ctx.ledger.records("open-commit", self.me.sid)}
            if authors >= set(self.participants()):
                self.phase = "open"
                self.chain.append({"kind": OPEN, "seq": 0, "state": self.s0,
                                   "csigs": [self.my_open_sig, self.peer_open_sig],
                                   "wacks": dict(self.open_acks)})
                ctx.note("open-done", state=self.s0)
                ctx.output({"kind": "open-ok", "state": self.s0})
                self._try_propose(ctx)
        if self.uni_pending and not self.close_submitted:
            pubs = ctx.ledger.records("warden-publish", self.me.sid)
            if len({t["author"] for t in pubs}) >= 2 * self.f + 1:
                best = max(pubs, key=lambda t: t["body"]["seq"])
                self._submit_close(ctx, best["body"]["state"], best["body"]["seq"],
                                   best["body"]["csigs"], "unilateral")
        if self.phase in ("opening", "open"):
            closes = ctx.ledger.records("settle", self.me.sid)
            if closes:
                body = closes[0]["body"]
                self.phase = "closed"
                stype = body.get("mode", "collab")
                self.settled_entry = settled_entry(body["state"])
                ctx.note("settle-done", state=body["state"], seq=body["seq"], type=stype)
                ctx.output({"kind": "settle-ok", "state": body["state"]})


class BrickWarden(Machine):
    def __init__(self, me, clients, f):
        super().__init__(me)
        self.clients = list(clients)     # two client shorts
        self.f = f
        self.open_sigs = {}
        self.s0 = None
        self.countersigned_open = False
        self.stored = None               # {"state","seq","csigs"}
        self.published = False

    def on_message(self, ctx, env):
        kind = env.payload.get("kind")
        p = env.payload
        if kind == "chan-open":
            self._on_open(ctx, p, env.src)
        elif kind == "pay2":
            self._on_update(ctx, p)
        elif kind == "close-uni":
            self._publish(ctx)

    def _client_entities(self):
        return [EntityId(c.split(":", 1)[1], self.me.sid, CLIENT) for c in self.clients]

    def _on_open(self, ctx, p, src):
        if self.countersigned_open:
            return
        if src.short() not in self.clients:
            return
        if not ctx.certs.verify(p["sig"],
                                open_msg(ctx.certs, self.me.sid, p["state"]),
                                src.short()):
            return
        self.open_sigs[src.short()] = p["sig"]
        self.s0 = p["state"]
        if set(self.open_sigs) == set(self.clients):
            self.countersigned_open = True
            self.stored = {"state": self.s0, "seq": 0,
                           "csigs": [self.open_sigs[c] for c in self.clients]}
            wsig = ctx.certs.sign(self.me.short(),
                                  warden_msg(ctx.certs, self.me.sid, self.s0, 0))
            for c in self._client_entities():
                ctx.send_net(c, {"kind": "chan-open-ack", "state": self.s0, "wsig": wsig})
            ctx.ledger.submit(signed_tx(
                ctx.certs, "open-commit",
                {"chain": self.me.sid, "state": self.s0,
                 "conflict": f"open/{self.me.sid}/{self.me.short()}"},
                self.me.short()))
            ctx.note("warden-open")

    def _on_update(self, ctx, p):
        if self.stored is None:
            return
        state, seq, csigs = p["state"], p["seq"], p["csigs"]
        if seq <= self.stored["seq"]:
            ctx.note("stale-refused", seq=seq)
            return
        if len(csigs) != 2:
            return
        dig = state_msg(ctx.certs, self.me.sid, state, seq)
        signers = {ctx.certs.verify_any(ref, dig) for ref in csigs}
        if signers != set(self.clients):
            return
        self.stored = {"state": state, "seq": seq, "csigs": csigs}
        ctx.note("warden-accept", seq=seq, state=state)
        wsig = ctx.certs.sign(self.me.short(),
                              warden_msg(ctx.certs, self.me.sid, state, seq))
        for c in self._client_entities():
            ctx.send_net(c, {"kind": "pay-ack", "state": state, "seq": seq,
                             "wsig": wsig, "csigs": csigs})

    def _publish(self, ctx):
        if self.published or self.stored is None:
            return
        ctx.ledger.submit(signed_tx(
            ctx.certs, "warden-publish",
            {"chain": self.me.sid, "state": self.stored["state"],
             "seq": self.stored["seq"], "csigs": self.stored["csigs"],
             "conflict": f"wpub/{self.me.sid}/{self.me.short()}"},
            self.me.short()))
        self.published = True
        ctx.note("warden-publish", seq=self.stored["seq"])


# -- ledger kind checks ----------------------------------------------------


def install_ledger_checks(world, clients):
    """On-chain validation of embedded channel signatures."""
    sid, shorts = world.sid, {f"{CLIENT}:{c}" for c in clients}

    def unsigned(certs, body, forms):
        """None if both clients signed one of the message digests that
        ``forms`` yields in the body's ``csigs``, else the refusal."""
        csigs = body.get("csigs") or []
        if len(csigs) != 2:
            return "need-both-client-sigs"
        for dig in forms:
            if {certs.verify_any(ref, dig) for ref in csigs} == shorts:
                return None
        return "bad-channel-sigs"

    def check_close(tx, ledger):
        body, certs = tx["body"], ledger.certs
        state, seq = body.get("state"), body.get("seq")

        def forms():                     # digested only as far as tried
            yield close_msg(certs, sid, state, seq)
            yield state_msg(certs, sid, state, seq)
            yield open_msg(certs, sid, state)
        why = unsigned(certs, body, forms())
        return why is None, why

    def check_wpub(tx, ledger):
        body, certs = tx["body"], ledger.certs
        state, seq = body.get("state"), body.get("seq")
        why = unsigned(certs, body, (open_msg(certs, sid, state) if seq == 0
                                     else state_msg(certs, sid, state, seq),))
        return why is None, why

    world.ledger.kind_checks["settle"] = check_close
    world.ledger.kind_checks["warden-publish"] = check_wpub


# -- ideal bundle ----------------------------------------------------------


class BrickBundle(SubroutineBundle):
    name = "brick"

    def __init__(self, sid, clients, wardens, f, collateral):
        self.sid = sid
        self.clients = list(clients)
        self.wardens = list(wardens)          # shorts
        self.f = f
        self.collateral = dict(collateral)

    def submit(self, ist, req, ctx):
        kind, body, by = req["kind"], req["body"], req["by"]
        if ist.phase() == "settled":
            return False, "settled"
        if any(r["kind"] == SETTLEMENT and r["by"] == by for r in ist.queue):
            return False, "settle-pending"
        if kind == OPEN:
            if ist.phase() != "init":
                return False, "phase"
            if body.get("state") != initial_state(self.collateral):
                return False, "bad-state"
            return True, None
        if ist.phase() != "open":
            return False, "phase"
        if kind == UPDATE:
            to, amt = body.get("to"), body.get("amt")
            if to not in self.clients or type(amt) is not int or amt <= 0:
                return False, "malformed"
            queued = sum(r["body"]["amt"] for r in ist.queue
                         if r["kind"] == UPDATE and r["by"] == by)
            if amt > ist.latest()["bal"].get(by, 0) - queued:
                return False, "insufficient"
            return True, None
        if kind == SETTLEMENT:
            if body.get("type") not in ("collab", "unilateral"):
                return False, "malformed"
            return True, None
        return False, "unknown-kind"

    def open(self, ist, body, attachment, ctx):
        if body.get("state") != initial_state(self.collateral):
            return False, "bad-state", None
        queued = {r["by"] for r in ist.queue if r["kind"] == OPEN}
        if not set(honest(ctx, ist, CLIENT)) <= queued:
            return False, "missing-open-requests", None
        if len(self._warden_entries(attachment)) < 2 * self.f + 1:
            return False, "thin-warden-multiset", None
        opens = ctx.ledger.find(
            lambda t: t["kind"] == "open-commit" and t["body"].get("chain") == self.sid)
        authors = {t["author"] for t in opens}
        participants = {f"{CLIENT}:{c}" for c in self.clients} | set(self.wardens)
        if not participants <= authors:
            return False, "collateral-missing", None
        return True, None, open_record(body["state"], attachment, ctx)

    def _warden_entries(self, attachment):
        return {e.get("by") for e in attached(attachment, "wardens")
                if isinstance(e, dict) and e.get("by") in self.wardens}

    def _agreed(self, attachment, dig, ctx):
        """Both clients signed the message digest ``dig`` in the
        attachment's client refs."""
        signers = {ctx.certs.verify_any(ref, dig)
                   for ref in attached(attachment, "clients")}
        return signers == {f"{CLIENT}:{c}" for c in self.clients}

    def update(self, ist, new_state, attachment, ctx):
        if not channel_state(new_state):
            return False, "malformed", None
        seq = new_state["seq"]
        if seq <= ist.latest()["seq"]:
            return False, "stale", None
        if seq != ist.latest()["seq"] + 1:
            return False, "not-next", None
        if not conserves(ist.latest(), new_state):
            return False, "not-conserving", None
        if not self._agreed(attachment,
                            state_msg(ctx.certs, self.sid, new_state, seq), ctx):
            return False, "missing-agreement", None
        if len(self._warden_entries(attachment)) < 2 * self.f + 1:
            return False, "thin-warden-multiset", None
        rids = [r["rid"] for r in ist.queue if r["kind"] == UPDATE
                and transfer(ist.latest(), r["by"], r["body"]["to"],
                             r["body"]["amt"]) == new_state][:1]
        return True, None, {"kind": UPDATE, "seq": seq, "state": new_state,
                            "evidence": attachment, "rids": rids,
                            "round": ctx.round}

    def read(self, ist, idx, ctx):
        return idx >= ist.onchain["seq"]

    def settlement(self, ist, body, attachment, ctx):
        stype = body.get("type")
        if stype == "collab":
            want_state, want_seq = body.get("state"), body.get("seq")
            asked = [r for r in ist.queue if r["kind"] == SETTLEMENT
                     and r["body"].get("type") == "collab"]
            if not asked:
                return False, "no-settle-request", None
            if not (isinstance(want_seq, int) and 0 <= want_seq < len(ist.states)
                    and ist.states[want_seq] == want_state):
                return False, "unrecorded-state", None
            if not self._agreed(attachment, close_msg(ctx.certs, self.sid,
                                                      want_state, want_seq), ctx):
                return False, "missing-agreement", None
            closes = ctx.ledger.find(
                lambda t: t["kind"] == "settle" and t["body"].get("chain") == self.sid
                and t["body"].get("state") == want_state)
            if not closes:
                return False, "not-committed", None
            return True, None, want_state
        if stype == "unilateral":
            pubs = ctx.ledger.find(
                lambda t: t["kind"] == "warden-publish"
                and t["body"].get("chain") == self.sid)
            if len({t["author"] for t in pubs}) < 2 * self.f + 1:
                return False, "thin-publication", None
            latest = ist.latest()
            best = max(pubs, key=lambda t: t["body"]["seq"])
            if best["body"]["seq"] != latest["seq"]:
                return False, "not-latest", None
            return True, None, latest
        return False, "malformed", None


# -- protocol descriptor ---------------------------------------------------


def canonical_scenario(n_wardens=4, f=1, collateral=10):
    return {
        "protocol": "brick",
        "clients": ["c1", "c2"],
        "wardens": [f"w{i+1}" for i in range(n_wardens)],
        "f": f,
        "collateral": {"c1": collateral, "c2": collateral},
    }


def liveness_params(scn):
    f = scn["f"]
    return {
        OPEN: {"f": {CLIENT: 0, WARDEN: 0}, "t_l2": 8, "t_l1": 6},
        UPDATE: {"f": {CLIENT: 0, WARDEN: f}, "t_l2": 8, "t_l1": 0},
        SETTLEMENT + "-collab": {"f": {CLIENT: 0, WARDEN: f}, "t_l2": 8, "t_l1": 6},
        # the unilateral path is pure chain work: warden publications and the
        # close transaction, with the one broadcast folded into the allowance
        SETTLEMENT + "-unilateral": {"f": {CLIENT: 1, WARDEN: f}, "t_l2": 0, "t_l1": 8},
    }


def build_real(world, scn):
    for role, _, budget in party_roles(scn):
        world.declare_role(role, budget=budget)
    wardens = [world.entity(WARDEN, w) for w in scn["wardens"]]
    c1, c2 = scn["clients"]
    for me, peer in ((c1, c2), (c2, c1)):
        world.register(BrickClient(world.entity(CLIENT, me), peer, wardens,
                                   scn["collateral"], scn["f"]))
    shorts = [f"{CLIENT}:{c}" for c in scn["clients"]]
    for w in wardens:
        world.register(BrickWarden(w, shorts, scn["f"]))
    install_ledger_checks(world, scn["clients"])


def make_bundle(world, scn):
    return BrickBundle(world.sid, scn["clients"],
                       [f"{WARDEN}:{w}" for w in scn["wardens"]],
                       scn["f"], scn["collateral"])


def party_roles(scn):
    """(role, pids, corruption budget) rows for mirroring the cast."""
    return [(CLIENT, list(scn["clients"]), 1),
            (WARDEN, list(scn["wardens"]), scn["f"])]


class EnvTracker:
    """Stateless translation of client inputs into ideal requests."""

    def __init__(self, scn):
        self.scn = scn

    def ideal_request(self, pid, entry):
        kind = entry.get("kind")
        if kind == "open":
            return {"kind": OPEN, "body": {"state": initial_state(self.scn["collateral"])}}
        if kind == "pay":
            return {"kind": UPDATE,
                    "body": {"op": "pay", "to": entry["to"], "amt": entry["amt"]}}
        if kind == "settle":
            body = {"type": entry.get("type", "collab")}
            if entry.get("seq") is not None:
                body["seq"] = entry["seq"]
            return {"kind": SETTLEMENT, "body": body}
        return None


# -- simulator hooks -------------------------------------------------------


class Hooks(SimulatorHooks):
    """Turns internal-simulation progress into interface triggers."""

    def triggers_for(self, inner, ev):
        kind = ev.get("kind")
        out = []
        if kind == "open-done" and "open" not in self.done:
            self.done.add("open")
            pid = ev["party"].split(":", 1)[1]
            m = self.client(inner, pid)
            out.append({"kind": OPEN, "body": {"state": ev["state"]},
                        "attachment": {"wardens": [
                            {"by": w, "ref": r}
                            for w, r in sorted(m.open_acks.items())]}})
        elif kind == "state-accept":
            key = ("u", ev["seq"])
            if key not in self.done:
                self.done.add(key)
                pid = ev["party"].split(":", 1)[1]
                entry = self.client(inner, pid).chain[ev["seq"]]
                out.append({"kind": UPDATE, "state": ev["state"],
                            "attachment": {
                                "clients": entry["csigs"],
                                "wardens": [{"by": w, "ref": r}
                                            for w, r in sorted(entry["wacks"].items())]}})
        elif kind == "settle-done" and "settle" not in self.done:
            self.done.add("settle")
            body = {"type": ev["type"]}
            att = {}
            if ev["type"] == "collab":
                body["state"], body["seq"] = ev["state"], ev["seq"]
                closes = inner.ledger.find(
                    lambda t: t["kind"] == "settle"
                    and t["body"].get("chain") == inner.sid)
                if closes:
                    att["clients"] = closes[0]["body"]["csigs"]
            out.append({"kind": SETTLEMENT, "body": body, "attachment": att})
        return out

    def read_delay(self, inner, pid):
        return max(0, len(self.client(inner, pid).chain) - 1)


# -- corrupted-party menu --------------------------------------------------


def menu(world, entity):
    """Adversary moves available in the corrupted party's name.

    Each action makes its real sends and returns the environment entry it
    mirrors, or None; on differential runs the harness hands that entry to
    the interface as a forced input in the party's name.
    """
    m = world.machines.get(entity)
    sid = world.sid
    actions = {}
    if entity.role == WARDEN:
        def publish_stale():
            if m is None or m.stored is None:
                return None
            body = {"chain": sid, "state": m.s0 or m.stored["state"], "seq": 0,
                    "csigs": m.stored["csigs"] if m.stored["seq"] == 0 else
                    [m.open_sigs[c] for c in m.clients],
                    "conflict": f"wpub/{sid}/{entity.short()}"}
            world.ledger.submit(signed_tx(world.certs, "warden-publish", body,
                                          entity.short()))
            return None

        def ack_garbage():
            bogus = {"bal": {"c1": 1, "c2": 1}, "seq": 99}
            wsig = world.certs.sign(entity.short(),
                                    warden_msg(world.certs, sid, bogus, 99))
            for ent in world.roles.get(CLIENT, []):
                world.queue_net(entity, ent,
                                {"kind": "pay-ack", "state": bogus, "seq": 99,
                                 "wsig": wsig, "csigs": [None, None]})
            return None

        actions["publish-stale"] = publish_stale
        actions["ack-garbage"] = ack_garbage
    if entity.role == CLIENT:
        def stale_settle():
            if m is None or not m.chain:
                return None
            target = m.chain[0]
            sig = world.certs.sign(entity.short(), close_msg(
                world.certs, sid, target["state"], target["seq"]))
            peer = EntityId(m.peer, sid, CLIENT)
            world.queue_net(entity, peer,
                            {"kind": "close-req", "state": target["state"],
                             "seq": target["seq"], "sig": sig})
            return {"kind": "settle", "type": "collab", "seq": target["seq"]}
        actions["stale-settle"] = stale_settle
    return actions
