"""Trace predicates: initialization, safety, liveness, settlement, storage.

Every check consumes a finished run's trace (any object with an `.events`
list) and returns a Verdict.  The checks work on both stackings: real runs
are interpreted through client inputs, refusal/queue notes, and read
outputs; interface runs through submit leaks, exec records, and the same
outputs.  Nothing here mutates a world.

A Verdict's witness is a minimal list of events: feeding it back to the
same check (wrapped in any `.events` holder) reproduces the failure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace

from .accounts import apply_tx
from .brick import conserves
from .core import CLIENT, OPEN, SETTLEMENT, UPDATE
from .trace import canon

SETTLE_TX_KINDS = ("settle", "peg-out")


@dataclass
class ReadView:
    party: str
    pid: str
    round: int
    step: int
    pointer: int | None
    state: dict | None
    executed: list


@dataclass
class LivenessParams:
    f: dict
    t_l2: int
    t_l1: int

    @classmethod
    def of(cls, params):
        if isinstance(params, cls):
            return params
        return cls(f=dict(params.get("f", {})),
                   t_l2=params["t_l2"], t_l1=params["t_l1"])


@dataclass
class DAReport:
    g_l2: int
    g_l1: int
    reconstruction_ok: bool
    detail: dict = field(default_factory=dict)

    def to_record(self):
        return {"record": "da", "g_l2": self.g_l2, "g_l1": self.g_l1,
                "reconstruction_ok": self.reconstruction_ok,
                "detail": self.detail}


@dataclass
class Verdict:
    name: str
    passed: bool
    witness: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    vacuous: bool = False

    def to_record(self):
        return {"record": "verdict", "property": self.name,
                "pass": self.passed, "vacuous": self.vacuous,
                "params": {k: v for k, v in self.params.items()
                           if k != "witness"},
                "witness_len": len(self.witness)}


def as_trace(events):
    """Wrap a bare event list so a witness can be re-checked."""
    return SimpleNamespace(events=list(events))


# -- trace digestion --------------------------------------------------------


def _pid(party):
    return party.split(":", 1)[1] if ":" in str(party) else str(party)


def corrupted_parties(trace) -> dict:
    """party short name -> round of corruption (first if repeated)."""
    out = {}
    for ev in trace.events:
        if ev.get("t") == "corrupt" and ev.get("party") not in out:
            out[ev["party"]] = ev.get("round", 0)
    return out


def corruption_counts(trace) -> dict:
    out = {}
    for party in corrupted_parties(trace):
        role = str(party).split(":", 1)[0]
        out[role] = out.get(role, 0) + 1
    return out


def last_round(trace) -> int:
    rounds = [ev.get("round", 0) for ev in trace.events]
    return max(rounds) if rounds else 0


def read_views(trace) -> list[ReadView]:
    """Read results output to parties that were never corrupted."""
    bad = set(corrupted_parties(trace))
    views = []
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        p = ev.get("payload", {})
        if p.get("kind") != "read-result" or ev.get("party") in bad:
            continue
        views.append(ReadView(party=ev["party"], pid=_pid(ev["party"]),
                              round=ev.get("round", 0), step=ev.get("step", 0),
                              pointer=p.get("pointer"), state=p.get("state"),
                              executed=list(p.get("executed", ()))))
    return views


def entry_keys(executed, texts) -> list:
    """The [kind, seq, canonical state] key of each executed entry.

    ``texts`` maps id(state) to the state's canonical text, so ``canon``
    runs once per distinct state object across every call sharing it.
    Read results share their state objects, and the trace keeps them alive
    while the keys are in use, so an object's id names one canonical text.
    """
    row = []
    for e in executed:
        state = e.get("state")
        text = texts.get(id(state))
        if text is None:
            text = texts[id(state)] = canon(state)
        row.append([e.get("kind"), e.get("seq"), text])
    return row


def evidence_keys(views) -> dict:
    """id(view) -> the entry_keys of the view's executed entries."""
    texts = {}
    return {id(v): entry_keys(v.executed, texts) for v in views}


def is_prefix(shorter, longer) -> bool:
    """Whether key list ``shorter`` (see evidence_keys) starts ``longer``."""
    return longer[:len(shorter)] == shorter


def committed_txs(trace) -> list[dict]:
    """Committed transactions reassembled from submit and commit events."""
    bodies = {}
    for ev in trace.events:
        if ev.get("t") == "ledger-submit" and ev.get("accepted"):
            bodies[ev["txid"]] = {"txid": ev["txid"], "kind": ev.get("kind"),
                                  "author": ev.get("author"),
                                  "body": ev.get("body", {})}
    out = []
    for ev in trace.events:
        if ev.get("t") != "ledger-commit":
            continue
        for txid in ev.get("txids", ()):
            tx = bodies.get(txid)
            if tx is not None:
                out.append(dict(tx, height=ev.get("height"),
                                round=ev.get("round")))
    return out


class _TraceLedger:
    """Just enough ledger surface for replaying account evidence."""

    def __init__(self, commits):
        self.by_txid = {}
        for t in commits:
            self.by_txid.setdefault(t["txid"], t)

    def get(self, txid):
        return self.by_txid.get(txid) if isinstance(txid, str) else None

    def depth(self, tx):
        return 10 ** 9       # everything in the committed past is buried


# -- request extraction -----------------------------------------------------

_ENTRY_CLASS = {"open": OPEN, "pay": UPDATE, "deposit": UPDATE,
                "settle": SETTLEMENT}
_NOTE_REQ = {"open": "open", "pay": "pay", "settle": "settle",
             "peg-out": "settle"}


def requests(trace) -> list[dict]:
    """Client requests with outcome annotations, in submission order.

    A request dict has: pid, party, round, step, cls (open/update/
    settlement), entry, refused (bool), queued (note fields or None),
    rid (interface runs only).  Notes pair with inputs first-in first-out
    per party and request word, which mirrors how the clients drain their
    queues.  Corrupted submitters are skipped; their inputs are absorbed
    or adversary-forged, and no guarantee covers them.
    """
    bad = set(corrupted_parties(trace))
    reqs = []
    pending = {}         # (pid, input word) -> indexes awaiting an outcome
    for ev in trace.events:
        t = ev.get("t")
        if t == "input":
            p = ev.get("payload", {})
            if ev.get("party") in bad or ev.get("forced"):
                continue
            if p.get("kind") == "submit":      # interface-run submission
                continue                       # tracked via leak events
            cls = _ENTRY_CLASS.get(p.get("kind"))
            if cls is None:
                continue
            reqs.append({"pid": _pid(ev["party"]), "party": ev["party"],
                         "round": ev.get("round", 0), "step": ev.get("step", 0),
                         "cls": cls, "entry": dict(p), "refused": False,
                         "queued": None, "rid": None, "event": ev})
            key = (reqs[-1]["pid"], p["kind"])
            pending.setdefault(key, []).append(len(reqs) - 1)
        elif t == "note" and ev.get("kind") in ("request-refused",
                                                "request-queued"):
            word = _NOTE_REQ.get(ev.get("req"))
            waiting = pending.get((_pid(ev.get("party", "")), word))
            if not waiting:
                continue
            i = waiting.pop(0)
            if ev["kind"] == "request-refused":
                reqs[i]["refused"] = True
            else:
                reqs[i]["queued"] = {k: ev[k] for k in ("seq", "nonce")
                                     if k in ev}
        elif t == "leak" and isinstance(ev.get("data"), dict) \
                and ev["data"].get("kind") == "submit":
            req = ev["data"]["req"]
            party = f"{CLIENT}:{req['by']}"
            if party in bad:
                continue
            cls = req.get("kind")
            if cls not in (OPEN, UPDATE, SETTLEMENT):
                continue
            reqs.append({"pid": req["by"], "party": party,
                         "round": req.get("round", ev.get("round", 0)),
                         "step": ev.get("step", 0), "cls": cls,
                         "entry": dict(req.get("body", {})),
                         "refused": False, "queued": {},
                         "rid": req.get("rid"), "event": ev})
    return reqs


# -- Definition checks ------------------------------------------------------


def check_correct_initialization(trace) -> Verdict:
    """Every open confirmation is requested beforehand and anchored on chain.

    The chain anchor is either a committed transaction embedding the
    initial state or a committed joining record from every account named
    in it (registration-style bootstraps never put balances on chain).
    """
    name = "correct-initialization"
    bad = set(corrupted_parties(trace))
    commits = committed_txs(trace)
    open_inputs = []
    for ev in trace.events:
        if ev.get("t") != "input" or ev.get("party") in bad:
            continue
        p = ev.get("payload", {})
        if p.get("kind") == "open" or (p.get("kind") == "submit"
                                       and p.get("req", {}).get("kind") == OPEN):
            open_inputs.append(ev)

    def anchored(s_int):
        for tx in commits:
            if _embeds(tx.get("body"), s_int):
                return True
        accounts = set((s_int or {}).get("bal", ()))
        if not accounts:
            return False
        joined = {_pid(t.get("author", "")) for t in commits
                  if t.get("kind") == "open-commit"}
        return accounts <= joined

    for ev in trace.events:
        if ev.get("t") != "output" or ev.get("party") in bad:
            continue
        p = ev.get("payload", {})
        if p.get("kind") != "open-ok":
            continue
        prior = [i for i in open_inputs if i.get("step", 0) <= ev.get("step", 0)]
        if not prior:
            return Verdict(name, False, witness=[ev],
                           params={"reason": "no-honest-open-request"})
        if not anchored(p.get("state")):
            return Verdict(name, False, witness=[ev],
                           params={"reason": "initial-state-not-on-chain"})
    n = sum(1 for ev in trace.events
            if ev.get("t") == "output"
            and ev.get("payload", {}).get("kind") == "open-ok")
    return Verdict(name, True, params={"open_outputs": n}, vacuous=n == 0)


def _embeds(container, target):
    if container == target:
        return target is not None
    if isinstance(container, dict):
        return any(_embeds(v, target) for v in container.values())
    if isinstance(container, list):
        return any(_embeds(v, target) for v in container)
    return False


def _within(f, counts):
    if isinstance(f, int):
        return sum(counts.values()) <= f
    return all(counts.get(role, 0) <= limit for role, limit in f.items()) \
        and all(role in f for role in counts)


def check_safety(trace, f) -> Verdict:
    """Per-party view monotonicity plus pairwise view comparability.

    Self-consistency compares each party's consecutive views.  Once it
    holds, each party's views form a chain, so the views are pairwise
    comparable exactly when every view is a prefix of a longest one L: a
    view that is not cannot be L's party's (that chain would make it a
    prefix), so it and L are an incomparable pair of distinct parties.
    Only then does the ordered pair scan run, to return the same first
    pair as a full scan.  Evidence keys are built once per view.
    """
    name = "safety"
    counts = corruption_counts(trace)
    if not _within(f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    views = read_views(trace)
    keys = evidence_keys(views)
    by_party = {}
    for v in views:
        by_party.setdefault(v.party, []).append(v)
    for party, vs in by_party.items():
        vs.sort(key=lambda v: (v.round, v.step))
        for a, b in zip(vs, vs[1:]):
            if not is_prefix(keys[id(a)], keys[id(b)]):
                return Verdict(name, False,
                               witness=[_view_event(a), _view_event(b)],
                               params={"clause": "self-consistency",
                                       "party": party, "f": f})
    top = max(keys.values(), key=len, default=[])
    if not all(is_prefix(k, top) for k in keys.values()):
        flat = sorted(views, key=lambda v: (v.round, v.step))
        for i, a in enumerate(flat):
            for b in flat[i + 1:]:
                if a.party == b.party:
                    continue
                ka, kb = keys[id(a)], keys[id(b)]
                if not (is_prefix(ka, kb) or is_prefix(kb, ka)):
                    return Verdict(name, False,
                                   witness=[_view_event(a), _view_event(b)],
                                   params={"clause": "view-consistency",
                                           "parties": [a.party, b.party],
                                           "f": f})
    return Verdict(name, True, params={"f": f, "views": len(views)},
                   vacuous=not views)


def _view_event(v: ReadView):
    return {"t": "output", "party": v.party, "round": v.round, "step": v.step,
            "payload": {"kind": "read-result", "state": v.state,
                        "pointer": v.pointer, "executed": v.executed}}


def check_liveness(trace, kind, params) -> Verdict:
    """Every valid request of the kind is served inside its latency budget.

    Serving means: a confirmation output for opens and settlements, and for
    updates either an exec record clearing the request (interface runs) or
    evidence of the transfer inside some honest read view (real runs).
    Requests whose deadline lies past the recorded horizon are not judged.

    The evidence is summarised in one pass (``_first_seen``): for each
    key a request can wait on, the earliest round of a view or exec
    record that shows it.  Whether a view shows a key depends on that
    view alone, so "some view up to the deadline shows it" is exactly
    "its earliest round is at or before the deadline".
    """
    name = f"liveness-{kind}"
    lp = LivenessParams.of(params)
    counts = corruption_counts(trace)
    if not _within(lp.f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"kind": kind, "f": lp.f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    horizon = last_round(trace)
    bound = lp.t_l2 + lp.t_l1
    views = read_views(trace)
    # opens and settlements are served by confirmation outputs alone
    seen = _first_seen(trace, views) if kind == UPDATE else {}
    confirmed = _confirmations(trace)
    every = requests(trace)
    deposits = {}                      # pid -> sorted steps of its deposits
    for q in every:
        if q["entry"].get("kind") == "deposit":
            deposits.setdefault(q["pid"], []).append(q["step"])
    for steps in deposits.values():
        steps.sort()
    reqs = [r for r in every if r["cls"] == kind]
    judged = unresolved = 0
    seen_pay = 0
    marker = {"t": "horizon", "round": horizon}
    for r in reqs:
        if r["refused"]:
            continue
        if r["cls"] == UPDATE and r["entry"].get("kind") == "pay" \
                and r["rid"] is None:
            seen_pay += 1
            r["pay_index"] = seen_pay
        deadline = r["round"] + bound
        if deadline > horizon:
            unresolved += 1
            continue
        judged += 1
        if not _served(r, deadline, seen, confirmed, deposits):
            witness = [r["event"]] + [_view_event(v) for v in views
                                      if v.round <= deadline] + [marker]
            return Verdict(name, False, witness=witness,
                           params={"kind": kind, "pid": r["pid"],
                                   "submit_round": r["round"],
                                   "deadline": deadline,
                                   "t_l2": lp.t_l2, "t_l1": lp.t_l1})
    return Verdict(name, True, vacuous=judged == 0,
                   params={"kind": kind, "judged": judged,
                           "beyond_horizon": unresolved, "f": lp.f})


def _served(r, deadline, seen, confirmed, deposits) -> bool:
    pid, cls = r["pid"], r["cls"]
    if cls == OPEN:
        return any(rnd <= deadline
                   for rnd in confirmed.get((pid, "open-ok"), ()))
    if cls == SETTLEMENT:
        return any(r["round"] <= rnd <= deadline
                   for rnd in confirmed.get((pid, "settle-ok"), ()))
    if r["rid"] is not None:                       # interface run: exact rid
        key = ("rid", r["rid"])
    elif r["entry"].get("kind") == "deposit":
        # the deposits of pid up to this one, itself included, so k >= 1
        key = ("mint", pid, bisect_right(deposits[pid], r["step"]))
    elif r.get("queued") is None:
        return False                               # accepted but never sent
    elif "nonce" in r["queued"]:
        key = ("tx", pid, r["queued"]["nonce"])
    else:
        key = ("update", r.get("pay_index", 1))
    return key in seen and seen[key] <= deadline


def _first_seen(trace, views) -> dict:
    """Earliest round at which each piece of update evidence shows.

    Keys: ("update", k) when a view holds at least k update entries;
    ("mint", pid, k) when a view holds at least k mints to pid;
    ("tx", pid, nonce) when a view holds a transaction from pid with that
    nonce; ("rid", rid) when an exec record clears rid.  Counts start at
    1, as every request waits for at least one.
    """
    first = {}

    def see(key, rnd):
        if key not in first or rnd < first[key]:
            first[key] = rnd

    for v in views:
        updates = 0
        mints = {}
        for e in v.executed:
            if e.get("kind") == UPDATE:
                updates += 1
            for tx in e.get("txs", ()):
                if tx.get("op") == "mint":
                    mints[tx.get("to")] = mints.get(tx.get("to"), 0) + 1
                see(("tx", tx.get("from"), tx.get("nonce")), v.round)
        for k in range(1, updates + 1):
            see(("update", k), v.round)
        for to, n in mints.items():
            for k in range(1, n + 1):
                see(("mint", to, k), v.round)
    for ev in trace.events:
        if ev.get("t") == "exec":
            for rid in ev.get("rids", ()):
                see(("rid", rid), ev.get("round", 0))
    return first


def _confirmations(trace) -> dict:
    """(pid, "open-ok" | "settle-ok") -> rounds of those outputs to pid."""
    out = {}
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        kind = ev.get("payload", {}).get("kind")
        if kind in ("open-ok", "settle-ok"):
            out.setdefault((_pid(ev.get("party", "")), kind), []).append(
                ev.get("round", 0))
    return out


def check_correct_settlement(trace) -> Verdict:
    """Honest settlement confirmations carry the freshest state on record.

    The settled state must reach the highest sequence any honest view (or
    the settlement itself) attests, unless the settling party explicitly
    asked for an older anchor; and a close or payout record must have
    committed on the chain.
    """
    name = "correct-settlement"
    bad = set(corrupted_parties(trace))
    views = read_views(trace)
    commits = committed_txs(trace)
    settles = [ev for ev in trace.events
               if ev.get("t") == "output" and ev.get("party") not in bad
               and ev.get("payload", {}).get("kind") == "settle-ok"]
    explicit = set()
    for r in requests(trace):
        if r["cls"] == SETTLEMENT and r["entry"].get("seq") is not None:
            explicit.add((r["pid"], r["entry"]["seq"]))
    heights = [max((_state_height(e.get("state") or {}) for e in v.executed),
                   default=None) for v in views]
    closed = any(t.get("kind") in SETTLE_TX_KINDS for t in commits)
    for ev in settles:
        state = ev["payload"].get("state") or {}
        got = _state_height(state)
        rnd = ev.get("round", 0)
        best = max([got] + [h for v, h in zip(views, heights)
                            if h is not None and v.round <= rnd])
        pid = _pid(ev.get("party", ""))
        if got < best and (pid, got) not in explicit:
            witness = [ev] + [_view_event(v) for v in views
                              if v.round <= rnd]
            return Verdict(name, False, witness=witness,
                           params={"settled_at": got, "latest_known": best})
        if not closed:
            return Verdict(name, False, witness=[ev],
                           params={"reason": "no-close-record-on-chain"})
    return Verdict(name, True, params={"settlements": len(settles)},
                   vacuous=not settles)


def _state_height(state) -> int:
    if "seq" in state:
        return state["seq"]
    return state.get("height", -1)


# -- storage accounting -----------------------------------------------------


def measure_data_availability(trace) -> DAReport:
    """Record counts behind each honest party's latest reconstruction.

    Off-chain records are the evidence entries a view folds over; on-chain
    records are joining commitments, bridge transfers, and (for chains that
    publish their history) the update-bearing commitments themselves.  The
    replay bit re-derives every folded state with the shared transition
    function.
    """
    views = read_views(trace)
    commits = committed_txs(trace)
    ledger = _TraceLedger(commits)
    batches_onchain = any(t.get("kind") == "batch-publish" for t in commits)
    g_l1 = len([t for t in commits
                if t.get("kind") in ("open-commit", "deposit", "batch-publish")
                + SETTLE_TX_KINDS])
    latest = {}
    for v in views:
        cur = latest.get(v.pid)
        if cur is None or (v.round, v.step) >= (cur.round, cur.step):
            latest[v.pid] = v
    per_party = {}
    ok = bool(latest)
    for pid, v in latest.items():
        updates = [e for e in v.executed if e.get("kind") == UPDATE]
        g_l2 = 1 if batches_onchain else len(updates)
        per_party[pid] = g_l2
        ok = ok and _replay(v.executed, ledger)
    g_l2 = min(per_party.values()) if per_party else 0
    if batches_onchain:
        g_l2 = max(per_party.values()) if per_party else 1
    return DAReport(g_l2=g_l2, g_l1=g_l1, reconstruction_ok=ok,
                    detail={"per_party_l2": per_party,
                            "onchain_records": g_l1,
                            "history_on_chain": batches_onchain})


def _replay(executed, ledger) -> bool:
    cur = None
    for e in executed:
        kind, state = e.get("kind"), e.get("state")
        if kind == OPEN:
            cur = state
            continue
        if kind == SETTLEMENT:
            continue           # judged by the settlement check, not replay
        if cur is None:
            return False
        if "txs" in e:
            nxt = cur
            for tx in e["txs"]:
                nxt = apply_tx(nxt, tx, ledger, 0)
                if nxt is None:
                    return False
            nxt = dict(nxt, height=e.get("seq"))
            if nxt != state:
                return False
        else:
            if e.get("seq") != cur.get("seq", 0) + 1 \
                    or not conserves(cur, state):
                return False
        cur = state
    return True
