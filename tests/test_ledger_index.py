"""The ledger's kind index against a scan of its history.

``Ledger.records(kind)`` is what the polling parties read on every round and
block; ``Ledger.find`` scans ``committed``.  After every ``tick`` of every
ledger in whole runs (the scripted suites and seeded lifecycles of all three
protocols, real and ideal) each kind's records must be exactly the entries a
scan finds, in commit order, and so must each chain's numbered deposits
(``Ledger.deposits``).  A cloned world carries its own index.
"""

import pytest

from l2sim.base import TX_KINDS, Ledger
from l2sim.core import CLIENT
from l2sim.harness import (
    RealRun, lifecycle_schedule, protocol, run_differential,
    scripted_schedules,
)

# the kinds each protocol's scripted suite commits; together, all of TX_KINDS
SCRIPTED_KINDS = {
    "brick": {"open-commit", "settle", "warden-publish"},
    "liquid": {"deposit", "open-commit", "peg-out"},
    "arbitrum": {"batch-publish", "deposit", "fraud-proof", "open-commit",
                 "settle"},
}
PROTOCOLS = tuple(SCRIPTED_KINDS)


def exact(ledger, kind):
    """The kind's records are the very entries a scan finds, in order."""
    want = ledger.find(lambda t: t["kind"] == kind)
    return [id(t) for t in ledger.records(kind)] == [id(t) for t in want]


def deposits_numbered(ledger):
    """Each chain's deposits are the entries a scan finds, in order, and
    each one's position is its index there."""
    chains = {t["body"].get("chain") for t in ledger.records("deposit")}
    for chain in chains:
        want = ledger.find(lambda t: t["kind"] == "deposit"
                           and t["body"].get("chain") == chain)
        got = ledger.deposits(chain)
        if [id(t) for t in got] != [id(t) for t in want]:
            return False
        if [ledger.deposit_position(t["txid"]) for t in got] \
                != list(range(len(got))):
            return False
    return True


class IndexAudit:
    """Compares the index with a scan after every tick of every ledger."""

    def __init__(self, monkeypatch):
        self.ticks = 0
        self.kinds_seen = set()
        tick = Ledger.tick

        def checked(ledger):
            tick(ledger)
            for kind in TX_KINDS:
                assert exact(ledger, kind)
                if ledger.records(kind):
                    self.kinds_seen.add(kind)
            assert deposits_numbered(ledger)
            self.ticks += 1

        monkeypatch.setattr(Ledger, "tick", checked)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_the_index_matches_a_scan_on_the_scripted_suite(monkeypatch, name):
    audit = IndexAudit(monkeypatch)
    scn = protocol(name).canonical_scenario()
    for sched in scripted_schedules(name, scn).values():
        run_differential(name, scn, sched)
    assert audit.kinds_seen == SCRIPTED_KINDS[name]


@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("name", PROTOCOLS)
def test_the_index_matches_a_scan_on_lifecycles(monkeypatch, name,
                                                adversarial):
    audit = IndexAudit(monkeypatch)
    scn = protocol(name).canonical_scenario()
    for seed in (1, 2, 3):
        sched = lifecycle_schedule(name, scn, seed, pays=12,
                                   adversarial=adversarial)
        run_differential(name, scn, sched)
    assert audit.ticks > 0


def test_the_scripted_suites_commit_every_kind():
    assert set().union(*SCRIPTED_KINDS.values()) == set(TX_KINDS)


def _cycle(world, k=1):
    for _ in range(k):
        while world.pending_net():
            world.deliver_net(min(e.eid for e in world.pending_net()))
        world.advance_round()


def _snapshot(ledger):
    return {k: [t["txid"] for t in ledger.records(k)] for k in TX_KINDS}


def test_a_clone_has_its_own_index():
    scn = protocol("liquid").canonical_scenario()
    world = RealRun("liquid", scn).world
    for pid in scn["clients"]:
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    _cycle(world, 3)
    before = _snapshot(world.ledger)
    assert before["open-commit"]

    twin = world.clone()
    assert twin.ledger.by_kind is not world.ledger.by_kind
    twin.inject_input(twin.entity(CLIENT, "c1"), {"kind": "deposit", "amt": 3})
    _cycle(twin, 2)
    grown = _snapshot(twin.ledger)
    assert len(grown["deposit"]) == len(before["deposit"]) + 1
    assert all(exact(twin.ledger, kind) for kind in TX_KINDS)

    assert _snapshot(world.ledger) == before
    assert all(exact(world.ledger, kind) for kind in TX_KINDS)
