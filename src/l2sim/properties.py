"""Trace predicates: initialization, safety, liveness, settlement, storage.

Every check judges a finished run's trace, a ``Trace`` or a holder that
``as_trace`` builds, and returns a Verdict.  The checks work on both
stackings and judge them by what the environment sees: both runs get the
same client inputs, so the requests come from the inputs in both, each
paired with its answer, the ``request-queued`` or ``request-refused``
note that a real client and the interface write alike, and both are
judged against the same honest read outputs and confirmations.  Nothing
here mutates a world.

A read-result carries only its delta (see ``core.read_result``): the first
``base`` entries of its reader's previous view, then ``executed``, then
the entry of the ``settled`` state when set.  ``read_views`` keeps each
honest read as a ReadView holding just that delta and settled entry; a
view's whole ``executed`` list is rebuilt from its reader's earlier reads
only when something asks for it (witnesses, the pair scan of a failing
safety check, the data-availability replay).  The checks judge whole
views but walk only deltas: per reader they keep running values over the
view last walked (evidence keys, pay and mint counts, the highest state
height), cut them back to the next view's ``base`` and walk only the
entries after it, so each entry is walked a bounded number of times and
the cost grows linearly with the trace.  A reader's previous view in
trace order is its previous one in time: where a trace enters,
``trace.validate_events`` refuses a read whose (round, step) is below its
reader's previous read.  A witness read carries its whole view from
``base`` 0, so a witness stands on its own.

No check scans the events itself: each reads the trace's TraceSummary,
which ``summarize`` derives in one walk over the events.  That walk sorts
them into lists by type, builds the corrupted set once, and hands each
list to the helper that reads it (``read_views``, ``requests``,
``committed_txs``).  Traces are append-only, so the most recent summary
is reused while the same trace object holds the same events list with the
same number of events; the checks only read it.  The data-availability
replay depends only on a view and the committed transactions, so it runs
once per distinct whole view among the honest parties' latest ones.

Malformed input is refused where it enters: ``Trace.from_text`` and
``as_trace`` hold its events to ``trace.EVENT`` and raise IntegrityError
naming the step, so the checks trust the events they read.

A Verdict's witness is a minimal list of events: feeding it back to the
same check (wrapped by ``as_trace``) reproduces the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from .accounts import apply_txs
from .brick import conserves
from .core import OPEN, SETTLEMENT, UPDATE, read_result, settled_entry
from .trace import canon, validate_events

SETTLE_TX_KINDS = ("settle", "peg-out")


@dataclass
class ReadView:
    """One honest read, holding only what it adds to its reader's view.

    Its whole view is the first ``base`` entries of the reader's previous
    view (settled entry aside), then ``delta``, then ``settled`` when set;
    its last entry before ``settled`` has the tip state.  ``delta`` is the
    read payload's own ``executed`` list: an event is never edited in
    place.  ``reads`` is the reader's views in read order, shared by all
    of them, and ``index`` this view's place in it; they are left out of
    comparisons, so views compare by their own fields.
    """
    party: str
    pid: str
    round: int
    step: int
    base: int            # entries shared with the reader's previous view
    delta: list          # the entries the read carried after them
    settled: dict | None  # the settled entry, or None
    reads: list = field(compare=False, repr=False)
    index: int = field(compare=False, repr=False)

    @property
    def executed(self) -> list:
        """The whole view, rebuilt from the reader's reads since its last
        read with ``base`` 0, one read after the other."""
        first = self.index
        while first and self.reads[first].base:
            first -= 1
        kept = []
        for v in self.reads[first:self.index + 1]:
            del kept[v.base:]
            kept += v.delta
        return kept if self.settled is None else kept + [self.settled]

    def after(self) -> list:
        """The view after its first ``base`` entries: delta, settled entry."""
        return self.delta if self.settled is None \
            else self.delta + [self.settled]


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
    """Wrap a bare event list, held to ``trace.EVENT``, so a witness or a
    hand-built trace can be checked."""
    validate_events(events := list(events))
    return SimpleNamespace(events=events)


# -- trace digestion --------------------------------------------------------


def _pid(party):
    return party.split(":", 1)[1] if ":" in str(party) else str(party)


class _Pids(dict):
    """party -> its pid, each worked out once."""

    def __missing__(self, party):
        pid = self[party] = _pid(party)
        return pid


def corrupted_parties(corrupts) -> dict:
    """party short name -> round of corruption (first if repeated), from
    the trace's ``corrupt`` events."""
    out = {}
    for ev in corrupts:
        out.setdefault(ev["party"], ev.get("round", 0))
    return out


def read_views(outputs, bad) -> list[ReadView]:
    """Read results among the trace's ``outputs`` to parties not in
    ``bad`` (the corrupted ones), in trace order, each holding its delta
    (see ReadView); a reader's reads are in time order, as
    ``trace.validate_events`` checks where a trace enters."""
    views, reads, pids = [], {}, _Pids()   # reads: party -> its views so far
    for ev in outputs:
        if ev["payload"].get("kind") != "read-result":
            continue
        party = ev["party"]
        if party in bad:
            continue
        mine = reads.setdefault(party, [])
        base, delta, settled = read_fields(ev["payload"])
        mine.append(ReadView(
            party, pids[party], ev.get("round", 0), ev.get("step", 0), base,
            delta, None if settled is None else settled_entry(settled),
            mine, len(mine)))
        views.append(mine[-1])
    return views


def read_fields(p) -> tuple:
    """The one decoder of read-result payload ``p``: its ``base``,
    ``executed`` and ``settled``, a missing field at its default."""
    return p.get("base", 0), p.get("executed", []), p.get("settled")


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


def is_prefix(shorter, longer) -> bool:
    """Whether key list ``shorter`` (see entry_keys) starts ``longer``."""
    return longer[:len(shorter)] == shorter


def committed_txs(ledger) -> list[dict]:
    """Committed transactions reassembled from the trace's ledger submit
    and commit events."""
    bodies, commits = {}, []
    for ev in ledger:
        t = ev.get("t")
        if t == "ledger-submit" and ev.get("accepted"):
            bodies[ev["txid"]] = {"txid": ev["txid"], "kind": ev.get("kind"),
                                  "author": ev.get("author"),
                                  "body": ev.get("body", {})}
        elif t == "ledger-commit":
            commits.append(ev)
    return [dict(bodies[txid], height=ev.get("height"), round=ev.get("round"))
            for ev in commits for txid in ev.get("txids", ()) if txid in bodies]


class _TraceLedger:
    """Just enough ledger surface for replaying account evidence."""

    def __init__(self, commits):
        # the first commit of a txid wins, as in Ledger.get
        self.by_txid = {t["txid"]: t for t in reversed(commits)}
        # each chain's deposits numbered in commit order, as Ledger.tick does
        self.deposit_at, counts = {}, {}
        for t in commits:
            body = t.get("body")
            if t.get("kind") != "deposit" or not isinstance(body, dict) \
                    or self.by_txid[t["txid"]] is not t:
                continue
            chain = body.get("chain")
            if not isinstance(chain, str):
                continue
            self.deposit_at[t["txid"]] = counts.get(chain, 0)
            counts[chain] = counts.get(chain, 0) + 1

    def get(self, txid):
        return self.by_txid.get(txid) if isinstance(txid, str) else None

    def deposit_position(self, txid):
        return self.deposit_at.get(txid) if isinstance(txid, str) else None

    def buried(self, tx):
        return True          # everything in the committed past is buried


# -- request extraction -----------------------------------------------------

_ENTRY_CLASS = {"open": OPEN, "pay": UPDATE, "deposit": UPDATE,
                "settle": SETTLEMENT}


def requests(asks, bad) -> list[dict]:
    """Client requests with outcome annotations, in submission order.

    A request is an honest, unforced input whose entry word (``what``) asks
    for an open, an update or a settlement, by one path in both runs.  A
    request dict has: pid, party, round, step, cls (open/update/
    settlement), what, entry, refused (bool), event (the input event) and
    note (its answer or None).  An answer is a ``request-queued`` or
    ``request-refused`` note, whose ``req`` is the entry word, in both
    runs; answers pair with inputs first-in first-out per party and
    entry word, which mirrors how the clients drain their queues.
    Corrupted submitters are skipped; their inputs are absorbed or
    adversary-forged, and no guarantee covers them.  ``asks`` holds the
    trace's input and note events, and ``bad`` its corrupted parties.
    """
    reqs, pids = [], _Pids()
    pending = {}         # (pid, input word) -> indexes awaiting an answer
    for ev in asks:
        t, kind = ev.get("t"), ev.get("kind")
        if t == "input":
            p, party = ev["payload"], ev["party"]
            pid, what = pids[party], p.get("kind")
            cls = _ENTRY_CLASS.get(what)
            if cls is None or party in bad or ev.get("forced"):
                continue
            pending.setdefault((pid, what), []).append(len(reqs))
            reqs.append({"pid": pid, "party": party,
                         "round": ev.get("round", 0), "step": ev.get("step", 0),
                         "cls": cls, "what": what, "entry": dict(p),
                         "refused": False, "event": ev, "note": None})
        elif kind == "request-refused" or kind == "request-queued":
            waiting = pending.get((pids[ev["party"]], ev.get("req")))
            if waiting:
                reqs[waiting.pop(0)].update(
                    note=ev, refused=kind == "request-refused")
    return reqs


# -- the trace summary ------------------------------------------------------


@dataclass
class TraceSummary:
    """What the checks read of one trace; only ``summarize`` builds it."""
    corrupted: dict      # party -> round of corruption
    counts: dict         # role -> corrupted parties of that role
    horizon: int         # the last round on record
    views: list          # read_views
    readers: dict        # party -> its views in read order (ReadView.reads)
    requests: list       # requests
    commits: list        # committed_txs
    confirmed: dict      # (pid, "open-ok" | "settle-ok") -> output rounds
    open_inputs: list    # the input events of the open requests
    open_oks: list       # honest open-ok output events
    settle_oks: list     # honest settle-ok output events


_last = None             # (trace, its events list, their count, TraceSummary)


def summarize(trace) -> TraceSummary:
    """The facts of ``trace`` that the checks read, derived in one walk.

    The one walk over the events takes the horizon and sorts the events
    into lists by type: outputs, the input and note events, the ledger
    submits and commits, and corruptions.  The corrupted set is built
    once from its list, and the rest from theirs: the confirmation rounds
    and honest open-ok and settle-ok outputs from the outputs;
    ``read_views`` walks the outputs, ``requests`` the inputs and their
    answers and ``committed_txs`` the ledger events, each with that
    corrupted set.

    The summary is kept for the most recent trace: a trace only ever
    grows, so the same object holding the same events list with the same
    count has the same summary.
    """
    global _last
    events = trace.events
    if _last is not None and _last[0] is trace and _last[1] is events \
            and _last[2] == len(events):
        return _last[3]
    outputs, asks, ledger, corrupts = [], [], [], []
    into = {"output": outputs, "input": asks, "note": asks,
            "ledger-submit": ledger, "ledger-commit": ledger,
            "corrupt": corrupts}
    horizon = 0
    for ev in events:
        rnd = ev.get("round", 0)
        if rnd > horizon:
            horizon = rnd
        kept = into.get(ev.get("t"))
        if kept is not None:
            kept.append(ev)
    bad = corrupted_parties(corrupts)
    views = read_views(outputs, bad)
    confirmed, open_oks, settle_oks, pids = {}, [], [], _Pids()
    for ev in outputs:
        kind = ev["payload"].get("kind")
        if kind == "open-ok" or kind == "settle-ok":
            party = ev["party"]
            confirmed.setdefault((pids[party], kind), []).append(
                ev.get("round", 0))
            if party not in bad:
                (open_oks if kind == "open-ok" else settle_oks).append(ev)
    roles = [party.split(":", 1)[0] for party in bad]
    reqs = requests(asks, bad)
    s = TraceSummary(
        corrupted=bad, counts={role: roles.count(role) for role in roles},
        horizon=horizon, views=views,
        readers={v.party: v.reads for v in views}, requests=reqs,
        commits=committed_txs(ledger), confirmed=confirmed,
        open_inputs=[r["event"] for r in reqs if r["cls"] == OPEN],
        open_oks=open_oks, settle_oks=settle_oks)
    _last = (trace, events, len(events), s)
    return s


# -- Definition checks ------------------------------------------------------


def check_correct_initialization(trace) -> Verdict:
    """Every open confirmation is requested beforehand by its own party and
    anchored on chain.

    The chain anchor is either a committed joining record from every
    account named in the initial state (registration-style bootstraps
    never put balances on chain) or a committed transaction embedding it.
    The joining records are tested first: scanning every committed body
    costs as much as the bodies are large.
    """
    name = "correct-initialization"
    s = summarize(trace)
    joined = {_pid(t.get("author", "")) for t in s.commits
              if t.get("kind") == "open-commit"}

    def anchored(s_int):
        accounts = set((s_int or {}).get("bal", ()))
        return bool(accounts) and accounts <= joined \
            or any(_embeds(tx.get("body"), s_int) for tx in s.commits)

    for ev in s.open_oks:
        asked = next((i for i in s.open_inputs if i["party"] == ev["party"]
                      and i.get("step", 0) <= ev.get("step", 0)), None)
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

    Self-consistency compares each party's consecutive views.  Two
    consecutive views share the later one's first ``base`` entries, so
    only the keys from ``base`` on are built and compared.
    Once it holds, each party's views form a chain, so the views are
    pairwise comparable exactly when every party's last view is a prefix
    of a longest view L: a view that is not cannot be L's party's (that
    chain would make it a prefix), so it and L are an incomparable pair of
    distinct parties.  Only then does the ordered pair scan run, over the
    keys of every whole view, to return the same first pair as a full scan.
    """
    name = "safety"
    s = summarize(trace)
    if not _within(f, s.counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": dict(s.counts),
                               "reason": "corruptions-exceed-f"})
    views = s.views
    texts = {}
    last = {}            # party -> keys of its last view
    for party, reads in s.readers.items():
        keys, prev = [], None      # keys of the view walked last
        for v in reads:
            dropped = keys[v.base:]
            del keys[v.base:]
            keys += entry_keys(v.after(), texts)
            if prev is not None and not is_prefix(dropped, keys[v.base:]):
                return Verdict(name, False,
                               witness=[_view_event(prev), _view_event(v)],
                               params={"clause": "self-consistency",
                                       "party": party, "f": f})
            prev = v
        last[party] = keys
    top = max(last.values(), key=len, default=[])
    if not all(is_prefix(k, top) for k in last.values()):
        keys = {id(v): entry_keys(v.executed, texts) for v in views}
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
            "payload": read_result(0, v.executed, None)}


def check_liveness(trace, kind, params) -> Verdict:
    """Every valid request of the kind is served inside its latency budget.

    Serving means a confirmation output for opens and settlements.  An
    update is served by what honest reads show, by one rule in both runs:
    the k-th pay (deposit) request of a pid is served when an honest view
    read by its deadline shows k pays from (mints to) that pid.  Requests
    whose deadline lies past the recorded horizon are not judged, but
    they count among their pid's requests.

    The evidence is summarised in one pass (``_first_seen``): for each
    (what, pid, k) the earliest round of a view that shows it.  Whether a
    view shows a key depends on that view alone, so "some view up to the
    deadline shows it" is exactly "its earliest round is at or before the
    deadline".  The pass walks each view's delta only, as the module
    docstring describes.  A failing update's witness carries the pid's k
    requests of that word with their notes.
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
    asked = {}                         # (pid, what) -> its requests so far
    marker = {"t": "horizon", "round": s.horizon}
    for r in s.requests:
        if r["cls"] != kind or r["refused"]:
            continue
        mine = [r]
        if kind == UPDATE:
            mine = asked.setdefault((r["pid"], r["what"]), [])
            mine.append(r)
        deadline = r["round"] + t_l2 + t_l1
        if deadline > s.horizon:
            unresolved += 1
            continue
        judged += 1
        if not _served(r, deadline, seen, s.confirmed, len(mine)):
            shown = [e for q in mine for e in (q["event"], q["note"]) if e]
            witness = shown + [_view_event(v) for v in s.views
                               if v.round <= deadline] + [marker]
            return Verdict(name, False, witness=witness,
                           params={"kind": kind, "pid": r["pid"],
                                   "submit_round": r["round"],
                                   "deadline": deadline,
                                   "t_l2": t_l2, "t_l1": t_l1})
    return Verdict(name, True, vacuous=judged == 0,
                   params={"kind": kind, "judged": judged,
                           "beyond_horizon": unresolved, "f": f})


def _served(r, deadline, seen, confirmed, k) -> bool:
    pid, cls = r["pid"], r["cls"]
    if cls == OPEN:
        return any(rnd <= deadline
                   for rnd in confirmed.get((pid, "open-ok"), ()))
    if cls == SETTLEMENT:
        return any(r["round"] <= rnd <= deadline
                   for rnd in confirmed.get((pid, "settle-ok"), ()))
    return seen.get((r["what"], pid, k), deadline + 1) <= deadline


def _first_seen(s: TraceSummary) -> dict:
    """Earliest round at which an honest view shows each update key.

    Key (what, pid, k), k >= 1: ("pay", pid, k) when a view holds at
    least k pays from pid, ("deposit", pid, k) when it holds at least k
    mints to pid (``_shown``).

    Each reader's views are walked in read order from their ``base``,
    with the reader's kept entries and its pays and mints among them cut
    back to it.  The entries before it were walked in the reader's
    previous view, at a round no later than this one, so each key they
    show has its earliest round already; the entries after it show
    exactly the keys this view adds.
    """
    first = {}
    for reads in s.readers.values():
        kept = []        # the entries walked and kept, in view order
        marks = []       # (index, (what, pid)) of each pay and mint in them
        count = {}       # (what, pid) -> its marks
        for v in reads:
            del kept[v.base:]
            while marks and marks[-1][0] >= v.base:
                count[marks.pop()[1]] -= 1
            for e in v.after():
                for mark in _shown(e, kept):
                    n = count[mark] = count.get(mark, 0) + 1
                    marks.append((len(kept), mark))
                    key = mark + (n,)
                    if key not in first or v.round < first[key]:
                        first[key] = v.round
                kept.append(e)
    return first


def _shown(e, before) -> list:
    """The (what, pid) of each pay and mint entry ``e`` shows after the
    entries ``before`` it.

    A ``pay`` transaction is a pay from its ``from``, a ``mint`` one a
    deposit to its ``to``.  An update entry without ``txs`` (a channel
    state) is a pay of each client whose balance it lowers against the
    entry before it.  Both counts are sound: a co-signing channel client
    refuses any state that lowers its own share, so a channel update
    lowers only its proposer's balance, and an account's pays apply in
    nonce order.
    """
    txs = e.get("txs")
    if txs is not None:
        return [("pay", tx.get("from")) if tx.get("op") == "pay"
                else ("deposit", tx.get("to"))
                for tx in txs if tx.get("op") in ("pay", "mint")]
    if e.get("kind") != UPDATE or not before:
        return []
    old = (before[-1].get("state") or {}).get("bal")
    new = (e.get("state") or {}).get("bal")
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return []
    return [("pay", pid) for pid, amt in new.items()
            if pid in old and amt < old[pid]]


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
    heights = _heights(s)
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


def _heights(s: TraceSummary) -> list:
    """The highest state height among each view's entries, or None.

    A running prefix maximum per reader, cut back to each view's
    ``base``, so only the entries after it are read.
    """
    out, best_of = [], {}   # best_of: party -> its running prefix maximum
    for v in s.views:
        best = best_of.setdefault(v.party, [None])  # best[i]: of the first i
        del best[v.base + 1:]
        for e in v.after():
            h = _state_height(e.get("state") or {})
            best.append(h if best[-1] is None else max(best[-1], h))
        out.append(best[-1])
    return out


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
    whole = {pid: v.executed for pid, v in latest.items()}
    per_party = {pid: 1 if batches_onchain else
                 sum(1 for e in executed if e.get("kind") == UPDATE)
                 for pid, executed in whole.items()}
    # _replay reads only the view and the ledger: each distinct one runs once
    views = list(whole.values())
    ok = bool(views) and all(_replay(x, ledger) for i, x in enumerate(views)
                             if x not in views[:i])
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
        if cur is None or state is None:
            return False
        try:
            if "txs" in e:
                ok = apply_txs(cur, e["txs"], ledger, e.get("seq")) == state
            else:
                ok = e.get("seq") == cur.get("seq", 0) + 1 \
                    and conserves(cur, state)
        except KeyError:   # a state lacking what its transition reads
            ok = False
        if not ok:
            return False
        cur = state
    return True
