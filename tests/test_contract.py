"""The subroutine contract: bundles answer, the interface machine writes.

Four things pin it on whole runs.  Each accepted account-model update
computes its post-state once.  The whole views the interface serves on
reads, rebuilt from their deltas, equal what the bundles' own read bodies
served before the interface built them; those bodies are kept here as the
reference.  Every state the interface holds sits at its own position
beside its own record, the invariant the bundles' reads answer from.  And a
raw trigger of any shape is refused (or, if its payload is not a dict,
ignored), never raised, without an output the real run lacks.
"""

import pytest

from l2sim import accounts, arbitrum, brick, liquid
from l2sim.core import OPEN, UPDATE, InterfaceMachine
from l2sim.harness import (
    PROTOCOLS, IdealRun, apply_schedule, lifecycle_schedule, protocol,
    run_differential, scripted_schedules,
)
from l2sim.trace import canon, digest


def interface(run):
    (machine,) = [m for m in run.outer.machines.values()
                  if isinstance(m, InterfaceMachine)]
    return machine


# -- one post-state per accepted update --------------------------------------


@pytest.mark.parametrize("name, accepted", [("liquid", 26), ("arbitrum", 14)])
def test_one_post_state_per_accepted_update(name, accepted, monkeypatch):
    scn = protocol(name).canonical_scenario()
    run = IdealRun(name, scn)
    ist = interface(run).ist
    real_apply_txs = accounts.apply_txs
    calls = []

    def spy(state, *rest):
        # a post-state of the interface's latest state; the protocol
        # machines and the chain fold never hold that object
        if ist.states and state is ist.states[-1]:
            calls.append(len(ist.states))
        return real_apply_txs(state, *rest)

    for module in (accounts, liquid, arbitrum):
        monkeypatch.setattr(module, "apply_txs", spy)
    apply_schedule(run, lifecycle_schedule(name, scn, 1, pays=25))
    events = run.trace.events
    execs = [e for e in events if e["t"] == "exec" and e["kind"] == UPDATE]
    invalid = [e for e in events if e["t"] == "sub-reply"
               and e["sub"] == "update"
               and e["result"]["reason"] == "invalid-transition"]
    assert len(execs) == accepted
    assert len(calls) == len(execs) + len(invalid)


# -- reads: the interface's entries against the old bundle bodies ------------


def reference_account_read(ist, idx):
    """``AccountBundle.read`` before the interface built the entries."""
    want = ist.states[idx]
    cur = ist.states[0]
    for e in ist.executed:
        if e["kind"] != UPDATE or e["seq"] > want["height"]:
            continue
        if e["seq"] != cur["height"] + 1:
            return None
        cur = e["state"]
    if cur != want:
        return None
    executed = []
    for e in ist.executed:
        if e["kind"] == OPEN:
            executed.append({"kind": OPEN, "seq": 0, "state": e["state"]})
        elif e["kind"] == UPDATE and e["seq"] <= want["height"]:
            executed.append({"kind": UPDATE, "seq": e["seq"],
                             "state": e["state"], "txs": e["txs"]})
    return executed


def reference_brick_read(ist, idx):
    """``BrickBundle.read`` before the interface built the entries."""
    want = ist.states[idx]
    cur = ist.onchain
    if cur is None:
        return None
    if cur["seq"] >= want["seq"]:
        ok = cur == want
    else:
        ok = True
        for e in ist.executed:
            if e["kind"] != UPDATE or e["seq"] > want["seq"] \
                    or e["seq"] <= cur["seq"]:
                continue
            if e["seq"] != cur["seq"] + 1 or not brick.conserves(cur, e["state"]):
                ok = False
                break
            cur = e["state"]
        ok = ok and cur == want
    if not ok:
        return None
    return [{"kind": e["kind"], "seq": e.get("seq"), "state": e["state"]}
            for e in ist.executed
            if e["kind"] in (OPEN, UPDATE) and e.get("seq", 0) <= want["seq"]]


REFERENCE_READ = {"brick": reference_brick_read,
                  "liquid": reference_account_read,
                  "arbitrum": reference_account_read}


def reads_against_reference(name, scn, schedule):
    """(served, expected) entry lists of every non-empty ideal read; a
    served list is the reader's whole view, rebuilt from the deltas."""
    run = IdealRun(name, scn)
    machine = interface(run)
    ist, serve = machine.ist, machine._read
    expected = []

    def read(ctx, pid):
        before = len(ctx.world.trace.events)
        want = None
        if not ist.halted and ist.states:
            top = len(ist.states) - 1
            delay = machine.read_delay(pid)
            idx = max(ist.read_ptr.get(pid, 0),
                      top if delay is None else min(top, delay))
            want = REFERENCE_READ[name](ist, idx)
        serve(ctx, pid)
        (reply,) = [e["result"] for e in ctx.world.trace.events[before:]
                    if e["t"] == "sub-reply"]
        assert reply["empty"] == (want is None)
        if want is not None:
            expected.append(want)

    machine._read = read
    apply_schedule(run, schedule)
    served, shown = [], {}
    for ev in run.trace.events:
        if ev["t"] == "output" and ev["payload"]["kind"] == "read-result":
            p = ev["payload"]
            prev = shown.get(ev["party"], [])
            served.append(prev[:p["base"]] + p["executed"])
            shown[ev["party"]] = served[-1]
    return served, expected


def scripted_corpus():
    return [(name, label) for name in sorted(PROTOCOLS)
            for label in scripted_schedules(
                name, protocol(name).canonical_scenario())]


@pytest.mark.parametrize("name, label", scripted_corpus())
def test_reads_match_reference_on_scripted(name, label):
    scn = protocol(name).canonical_scenario()
    served, expected = reads_against_reference(
        name, scn, scripted_schedules(name, scn)[label])
    assert canon(served) == canon(expected)


@pytest.mark.parametrize("name, seed, adversarial",
                         [(name, seed, adversarial) for name in sorted(PROTOCOLS)
                          for seed in (1, 2, 3) for adversarial in (False, True)])
def test_reads_match_reference_on_lifecycles(name, seed, adversarial):
    scn = protocol(name).canonical_scenario()
    served, expected = reads_against_reference(
        name, scn, lifecycle_schedule(name, scn, seed, pays=10,
                                      adversarial=adversarial))
    assert served and canon(served) == canon(expected)


# -- the invariants reads answer from ------------------------------------------


POSITION = {"brick": "seq", "liquid": "height", "arbitrum": "height"}


def assert_states_beside_records(name, scn, schedule):
    """``ist.states[i]`` is the state of the record ``ist.executed[i]``
    and sits at position i, which is what lets a bundle's read answer
    without walking the records."""
    ist = interface(apply_schedule(IdealRun(name, scn), schedule)).ist
    assert ist.states
    assert [(s is ist.executed[i]["state"], s[POSITION[name]])
            for i, s in enumerate(ist.states)] == \
        [(True, i) for i in range(len(ist.states))]


@pytest.mark.parametrize("name, label", scripted_corpus())
def test_states_sit_beside_their_records_on_scripted(name, label):
    scn = protocol(name).canonical_scenario()
    assert_states_beside_records(name, scn, scripted_schedules(name, scn)[label])


@pytest.mark.parametrize("name, seed, adversarial",
                         [(name, seed, adversarial) for name in sorted(PROTOCOLS)
                          for seed in (1, 2, 3, 7919)
                          for adversarial in (False, True)])
def test_states_sit_beside_their_records_on_lifecycles(name, seed, adversarial):
    scn = protocol(name).canonical_scenario()
    assert_states_beside_records(name, scn, lifecycle_schedule(
        name, scn, seed, pays=10, adversarial=adversarial))


# -- malformed raw triggers ----------------------------------------------------


def liquid_block():
    """A block that passes the position checks after a liquid open."""
    return {"height": 1, "prev": digest(liquid.genesis_block()), "txs": []}


CHANNEL_STATE = {"bal": {"c1": 9, "c2": 11}, "seq": 1}

MALFORMED = {
    "payload-int": 5,
    "payload-str": "open",
    "payload-list": [{"kind": "open"}],
    "payload-none": None,
    "open-body-int": {"kind": "open", "body": 5},
    "open-body-none": {"kind": "open", "body": None},
    "open-attachment-list": {"kind": "open", "body": {}, "attachment": [1]},
    "open-wardens-int": {"kind": "open",
                         "body": {"state": brick.initial_state(
                             {"c1": 10, "c2": 10})},
                         "attachment": {"wardens": 5}},
    "open-wardens-not-dicts": {"kind": "open",
                               "body": {"state": brick.initial_state(
                                   {"c1": 10, "c2": 10})},
                               "attachment": {"wardens": [1, "w"]}},
    "settlement-body-list": {"kind": "settlement", "body": [1]},
    "settlement-body-str": {"kind": "settlement", "body": "collab"},
    "settlement-attachment-str": {"kind": "settlement",
                                  "body": {"type": "collab"},
                                  "attachment": "sigs"},
    "settlement-clients-int": {"kind": "settlement",
                               "body": {"type": "collab"},
                               "attachment": {"clients": 5}},
    "update-state-int": {"kind": "update", "state": 7},
    "update-attachment-list": {"kind": "update", "state": CHANNEL_STATE,
                               "attachment": [1]},
    "brick-seq-str": {"kind": "update",
                      "state": dict(CHANNEL_STATE, seq="9")},
    "brick-no-bal": {"kind": "update", "state": {"seq": 1}},
    "brick-bal-str": {"kind": "update",
                      "state": {"bal": {"c1": "9", "c2": 11}, "seq": 1}},
    "brick-clients-int": {"kind": "update", "state": CHANNEL_STATE,
                          "attachment": {"clients": 5}},
    "sig-handle-list": {"kind": "update", "state": CHANNEL_STATE,
                        "attachment": {"clients": [
                            {"sig": [1], "by": "client:c1"},
                            {"sig": [2], "by": "client:c2"}]}},
    "liquid-pre-int": {"kind": "update", "state": liquid_block(),
                       "attachment": {"round": 0, "pre": 5, "fin": []}},
    "liquid-pre-not-dicts": {"kind": "update", "state": liquid_block(),
                             "attachment": {"round": 0, "pre": [1],
                                            "fin": []}},
    "liquid-sig-handle-list": {"kind": "update", "state": liquid_block(),
                               "attachment": {"round": 0, "pre": [
                                   {"by": "operator:op1",
                                    "ref": {"sig": [1],
                                            "by": "operator:op1"}}],
                                   "fin": []}},
}

PHASES = ("fresh", "requested", "open")


def phase_prefix(scn, phase):
    """Schedule steps that leave the ideal interface in ``phase``: nothing
    done, open requests queued, or the open executed."""
    opens = [{"op": "input", "pid": c, "entry": {"kind": "open"}}
             for c in scn["clients"]]
    rounds = [step for _ in range(4)
              for step in ({"op": "advance"}, {"op": "pump"})]
    return {"fresh": [], "requested": opens, "open": opens + rounds}[phase]


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("label", list(MALFORMED))
def test_malformed_trigger_is_refused(label, name, phase):
    scn = protocol(name).canonical_scenario()
    payload = MALFORMED[label]
    reads = [{"op": "input", "pid": c, "entry": {"kind": "read"}}
             for c in scn["clients"]]
    schedule = (phase_prefix(scn, phase)
                + [{"op": "raw-trigger", "payload": payload}]
                + [{"op": "advance"}, {"op": "pump"}] + reads)
    real, ideal, diffs = run_differential(name, scn, schedule)
    assert diffs == []
    events = ideal.trace.events
    (at,) = [i for i, e in enumerate(events)
             if e["t"] == "deliver" and e["src"] == "adv:sim"
             and canon(e["payload"]) == canon(payload)]
    after = events[at + 1:at + 3]
    if not isinstance(payload, dict):
        assert not after or after[0]["t"] != "sub-call"
        return
    assert [e["t"] for e in after] == ["sub-call", "sub-reply"]
    assert after[1]["result"]["ok"] is False
