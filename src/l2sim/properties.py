"""Trace predicates: initialization, safety, liveness, settlement, storage.

Every check consumes a finished run's trace (any object with an `.events`
list) and returns a Verdict.  The checks work on both stackings: real runs
are interpreted through client inputs, refusal/queue notes, and read
outputs; interface runs through submit leaks, exec records, and the same
outputs.  Nothing here mutates a world.

A read-result carries only its delta (see ``core.read_result``): the
first ``base`` entries of its reader's previous view, then ``executed``,
then the entry of the ``settled`` state when set.  ``read_views`` rebuilds
each honest reader's whole views in trace order, so every check judges
whole views; a witness read carries its whole view from ``base`` 0, so a
witness stands on its own.

No check scans the events itself: each reads the trace's TraceSummary,
which ``summarize`` derives once (corruptions, horizon, honest read views,
requests, committed transactions, confirmations, exec rids, open inputs).
Traces are append-only, so the most recent summary is reused while the
same trace object has the same number of events; the checks only read it.

A Verdict's witness is a minimal list of events: feeding it back to the
same check (wrapped in any `.events` holder) reproduces the failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

from .accounts import apply_tx
from .brick import conserves
from .core import CLIENT, OPEN, SETTLEMENT, UPDATE, read_result, settled_entry
from .trace import IntegrityError, canon

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


def read_views(trace) -> list[ReadView]:
    """Read results output to parties that were never corrupted, each
    rebuilt into its reader's whole view."""
    bad = set(corrupted_parties(trace))
    views = []
    shown = {}           # party -> entries of its previous read
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        p = ev.get("payload", {})
        if p.get("kind") != "read-result" or ev.get("party") in bad:
            continue
        prev, base = shown.get(ev["party"], []), p.get("base", 0)
        if not 0 <= base <= len(prev):
            raise IntegrityError(f"read at step {ev.get('step')} extends "
                                 f"{base} of {len(prev)} entries seen")
        entries = shown[ev["party"]] = prev[:base] + list(p.get("executed", ()))
        if p.get("settled") is not None:
            entries = entries + [settled_entry(p["settled"])]
        views.append(ReadView(party=ev["party"], pid=_pid(ev["party"]),
                              round=ev.get("round", 0), step=ev.get("step", 0),
                              pointer=p.get("pointer"), state=p.get("state"),
                              executed=entries))
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
    return [dict(bodies[txid], height=ev.get("height"), round=ev.get("round"))
            for ev in trace.events if ev.get("t") == "ledger-commit"
            for txid in ev.get("txids", ()) if txid in bodies]


class _TraceLedger:
    """Just enough ledger surface for replaying account evidence."""

    def __init__(self, commits):
        # the first commit of a txid wins, as in Ledger.get
        self.by_txid = {t["txid"]: t for t in reversed(commits)}

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


# -- the trace summary ------------------------------------------------------


@dataclass
class TraceSummary:
    """What the checks read of one trace; only ``summarize`` builds it."""
    corrupted: dict      # party -> round of corruption
    counts: dict         # role -> corrupted parties of that role
    horizon: int         # the last round on record
    views: list          # read_views
    requests: list       # requests
    commits: list        # committed_txs
    confirmed: dict      # (pid, "open-ok" | "settle-ok") -> output rounds
    exec_rids: list      # (rid, round) of each exec record clearing rid
    open_inputs: list    # honest open-request input events
    open_oks: list       # honest open-ok output events
    settle_oks: list     # honest settle-ok output events


_last = None             # (trace, event count, its TraceSummary)


def summarize(trace) -> TraceSummary:
    """The facts of ``trace`` that the checks read, derived once.

    The summary calls corrupted_parties, read_views, requests and
    committed_txs once each and gathers the rest in one more pass.  It is
    kept for the most recent trace: a trace only ever grows, so the same
    object with the same event count has the same summary.
    """
    global _last
    if _last is not None and _last[0] is trace \
            and _last[1] == len(trace.events):
        return _last[2]
    bad = corrupted_parties(trace)
    counts = dict(Counter(str(party).split(":", 1)[0] for party in bad))
    horizon, confirmed, exec_rids = 0, {}, []
    open_inputs, open_oks, settle_oks = [], [], []
    for ev in trace.events:
        t, rnd = ev.get("t"), ev.get("round", 0)
        horizon = max(horizon, rnd)
        honest = ev.get("party") not in bad
        p = ev.get("payload", {})
        if t == "output" and p.get("kind") in ("open-ok", "settle-ok"):
            confirmed.setdefault((_pid(ev.get("party", "")), p["kind"]),
                                 []).append(rnd)
            if honest:
                (open_oks if p["kind"] == "open-ok" else settle_oks).append(ev)
        elif t == "input" and honest and (
                p.get("kind") == "open" or (p.get("kind") == "submit" and
                                            p.get("req", {}).get("kind") == OPEN)):
            open_inputs.append(ev)
        elif t == "exec":
            exec_rids += [(rid, rnd) for rid in ev.get("rids", ())]
    s = TraceSummary(corrupted=bad, counts=counts, horizon=horizon,
                     views=read_views(trace), requests=requests(trace),
                     commits=committed_txs(trace), confirmed=confirmed,
                     exec_rids=exec_rids, open_inputs=open_inputs,
                     open_oks=open_oks, settle_oks=settle_oks)
    _last = (trace, len(trace.events), s)
    return s


# -- Definition checks ------------------------------------------------------


def check_correct_initialization(trace) -> Verdict:
    """Every open confirmation is requested beforehand and anchored on chain.

    The chain anchor is either a committed transaction embedding the
    initial state or a committed joining record from every account named
    in it (registration-style bootstraps never put balances on chain).
    """
    name = "correct-initialization"
    s = summarize(trace)
    joined = {_pid(t.get("author", "")) for t in s.commits
              if t.get("kind") == "open-commit"}

    def anchored(s_int):
        accounts = set((s_int or {}).get("bal", ()))
        return any(_embeds(tx.get("body"), s_int) for tx in s.commits) \
            or bool(accounts) and accounts <= joined

    for ev in s.open_oks:
        asked = next((i for i in s.open_inputs
                      if i.get("step", 0) <= ev.get("step", 0)), None)
        if asked is None:
            return Verdict(name, False, witness=[ev],
                           params={"reason": "no-honest-open-request"})
        if not anchored(ev["payload"].get("state")):
            # the request rides along, so the witness fails for this reason
            return Verdict(name, False, witness=[asked, ev],
                           params={"reason": "initial-state-not-on-chain"})
    n = len(s.open_oks)                # only honest confirmations are judged
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
    s = summarize(trace)
    if not _within(f, s.counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": dict(s.counts),
                               "reason": "corruptions-exceed-f"})
    views = s.views
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
    """A read event carrying the whole view ``v``, settled entry included."""
    return {"t": "output", "party": v.party, "round": v.round, "step": v.step,
            "payload": read_result(v.state, 0, v.executed, v.pointer, None)}


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
    f, t_l2, t_l1 = params.get("f", {}), params["t_l2"], params["t_l1"]
    s = summarize(trace)
    if not _within(f, s.counts):
        return Verdict(name, True, vacuous=True,
                       params={"kind": kind, "f": f,
                               "corrupted": dict(s.counts),
                               "reason": "corruptions-exceed-f"})
    # opens and settlements are served by confirmation outputs alone
    seen = _first_seen(s) if kind == UPDATE else {}
    judged = unresolved = 0
    pays = 0                           # real-run pays so far, this one included
    deposited = {}                     # pid -> its deposits so far, the same
    marker = {"t": "horizon", "round": s.horizon}
    for r in s.requests:
        if r["cls"] != kind or r["refused"]:
            continue
        asked = [r]
        if r["cls"] == UPDATE and r["entry"].get("kind") == "pay" \
                and r["rid"] is None:
            pays += 1
        elif r["entry"].get("kind") == "deposit":
            # a deposit waits for a mint per deposit of its depositor up
            # to it, so its witness carries them all
            asked = deposited[r["pid"]] = deposited.get(r["pid"], []) + [r]
        deadline = r["round"] + t_l2 + t_l1
        if deadline > s.horizon:
            unresolved += 1
            continue
        judged += 1
        if not _served(r, deadline, seen, s.confirmed, len(asked), pays):
            witness = [q["event"] for q in asked] + [
                _view_event(v) for v in s.views if v.round <= deadline] + [marker]
            return Verdict(name, False, witness=witness,
                           params={"kind": kind, "pid": r["pid"],
                                   "submit_round": r["round"],
                                   "deadline": deadline,
                                   "t_l2": t_l2, "t_l1": t_l1})
    return Verdict(name, True, vacuous=judged == 0,
                   params={"kind": kind, "judged": judged,
                           "beyond_horizon": unresolved, "f": f})


def _served(r, deadline, seen, confirmed, deposits, pays) -> bool:
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
        key = ("mint", pid, deposits)     # deposits of pid so far, k >= 1
    elif r.get("queued") is None:
        return False                               # accepted but never sent
    elif "nonce" in r["queued"]:
        key = ("tx", pid, r["queued"]["nonce"])
    else:
        key = ("update", pays)
    return key in seen and seen[key] <= deadline


def _first_seen(s: TraceSummary) -> dict:
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

    for v in s.views:
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
    for rid, rnd in s.exec_rids:
        see(("rid", rid), rnd)
    return first


def check_correct_settlement(trace) -> Verdict:
    """Honest settlement confirmations carry the freshest state on record.

    The settled state must reach the highest sequence any honest view (or
    the settlement itself) attests, unless the settling party explicitly
    asked for an older anchor; and a close or payout record must have
    committed on the chain.
    """
    name = "correct-settlement"
    s = summarize(trace)
    explicit = set()
    for r in s.requests:
        if r["cls"] == SETTLEMENT and r["entry"].get("seq") is not None:
            explicit.add((r["pid"], r["entry"]["seq"]))
    heights = [max((_state_height(e.get("state") or {}) for e in v.executed),
                   default=None) for v in s.views]
    closed = any(t.get("kind") in SETTLE_TX_KINDS for t in s.commits)
    for ev in s.settle_oks:
        state = ev["payload"].get("state") or {}
        got = _state_height(state)
        rnd = ev.get("round", 0)
        best = max([got] + [h for v, h in zip(s.views, heights)
                            if h is not None and v.round <= rnd])
        pid = _pid(ev.get("party", ""))
        if got < best and (pid, got) not in explicit:
            witness = [ev] + [_view_event(v) for v in s.views
                              if v.round <= rnd]
            return Verdict(name, False, witness=witness,
                           params={"settled_at": got, "latest_known": best})
        if not closed:
            return Verdict(name, False, witness=[ev],
                           params={"reason": "no-close-record-on-chain"})
    return Verdict(name, True, params={"settlements": len(s.settle_oks)},
                   vacuous=not s.settle_oks)


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
    s = summarize(trace)
    ledger = _TraceLedger(s.commits)
    batches_onchain = any(t.get("kind") == "batch-publish" for t in s.commits)
    g_l1 = len([t for t in s.commits
                if t.get("kind") in ("open-commit", "deposit", "batch-publish")
                + SETTLE_TX_KINDS])
    latest = {}
    for v in s.views:
        cur = latest.get(v.pid)
        if cur is None or (v.round, v.step) >= (cur.round, cur.step):
            latest[v.pid] = v
    per_party = {pid: 1 if batches_onchain else
                 sum(1 for e in v.executed if e.get("kind") == UPDATE)
                 for pid, v in latest.items()}
    ok = bool(latest) and all(_replay(v.executed, ledger)
                              for v in latest.values())
    g_l2 = 1 if batches_onchain else min(per_party.values(), default=0)
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
