"""The ledger's (kind, chain) index against a scan of its history.

``Ledger.records(kind, chain)`` is what the polling parties read on every
round and block; ``Ledger.find`` scans ``committed``.  Each list must be
exactly the entries of its kind whose body's ``chain`` names its chain, in
commit order, and a deposit's position is its index in its chain's list
(``Ledger.deposit_position``).  That is checked after every ``tick`` of
every ledger in whole runs (the scripted suites and seeded lifecycles of
all three protocols, real and ideal), and on a ledger where two chains
commit records of every kind, interleaved, next to records that name no
chain.  A cloned world carries its own index, and every submission in the
golden tables' runs names its run's chain.
"""

import random

import pytest

import golden_audit
from l2sim.base import TX_KINDS, Ledger, signed_tx
from l2sim.core import CLIENT
from l2sim.harness import (
    RealRun, lifecycle_schedule, protocol, run_differential,
    scripted_schedules,
)
from l2sim.runtime import World

# the kinds each protocol's scripted suite commits; together, all of TX_KINDS
SCRIPTED_KINDS = {
    "brick": {"open-commit", "settle", "warden-publish"},
    "liquid": {"deposit", "open-commit", "peg-out"},
    "arbitrum": {"batch-publish", "deposit", "fraud-proof", "open-commit",
                 "settle"},
}
PROTOCOLS = tuple(SCRIPTED_KINDS)


def chains(ledger):
    """Every chain a committed body names."""
    return {t["body"]["chain"] for t in ledger.committed
            if isinstance(t["body"].get("chain"), str)}


def exact(ledger, kind, chain):
    """The (kind, chain) records are the very entries a scan finds, in
    order."""
    want = ledger.find(lambda t: t["kind"] == kind
                       and t["body"].get("chain") == chain)
    return [id(t) for t in ledger.records(kind, chain)] == [id(t) for t in want]


def deposits_numbered(ledger, chain):
    """Each of the chain's deposits has its index in its chain's list as
    its position."""
    deps = ledger.records("deposit", chain)
    return [ledger.deposit_position(t["txid"]) for t in deps] \
        == list(range(len(deps)))


def indexed(ledger):
    """Every committed entry that names a chain is in exactly one list."""
    named = [t for t in ledger.committed
             if isinstance(t["body"].get("chain"), str)]
    return sum(len(ledger.records(k, c)) for k in TX_KINDS
               for c in chains(ledger)) == len(named)


class IndexAudit:
    """Compares the index with a scan after every tick of every ledger."""

    def __init__(self, monkeypatch):
        self.ticks = 0
        self.kinds_seen = set()
        tick = Ledger.tick

        def checked(ledger):
            tick(ledger)
            for chain in chains(ledger):
                for kind in TX_KINDS:
                    assert exact(ledger, kind, chain)
                    if ledger.records(kind, chain):
                        self.kinds_seen.add(kind)
                assert deposits_numbered(ledger, chain)
            assert indexed(ledger)
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


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_submission_names_its_runs_chain(name):
    # one field names the chain of every ledger record, in every protocol:
    # each submission of the golden tables' schedules (the scripted suite
    # and the six golden lifecycles), real and ideal, names the run's sid
    rows = 0
    for _, key, scn, sched in golden_audit.schedules():
        if key[0] != name:
            continue
        real, ideal, _ = run_differential(name, scn, sched)
        for trace, sid in ((real.trace, real.world.sid),
                           (ideal.trace, ideal.outer.sid)):
            bodies = [ev["body"] for ev in trace.events
                      if ev["t"] == "ledger-submit"]
            assert bodies
            assert all(isinstance(body.get("chain"), str)
                       and body["chain"] == sid for body in bodies), key
        rows += 1
    scn = protocol(name).canonical_scenario()
    assert rows == len(scripted_schedules(name, scn)) + 6


# -- two chains on one ledger ----------------------------------------------------

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}
# the chain fields of a body that names no chain
NO_CHAIN = ({}, {"chain": None}, {"chain": 7}, {"chain": ["A"]},
            {"chain": {"sid": "A"}})


def two_chain_ledger(seed, per_kind=3):
    """A ledger on which chains A and B each commit ``per_kind`` records of
    every kind, and a record of every kind and every ``NO_CHAIN`` field
    commits too, all interleaved in a seeded order over several blocks.
    The ledger has no kind checks, so every record commits."""
    ledger = Ledger(TIMING)
    world = World("A", ledger)
    rng = random.Random(seed)
    fields = [{"chain": "A"}, {"chain": "B"}] * per_kind + list(NO_CHAIN)
    order = [(kind, f) for kind in TX_KINDS for f in fields]
    rng.shuffle(order)
    for i, (kind, field) in enumerate(order):
        tx = signed_tx(ledger.certs, kind,
                       {**field, "to": "c1", "amt": i + 1,
                        "conflict": f"two/{i}"}, "client:c1")
        assert ledger.submit(tx)["accepted"]
        if rng.random() < 0.3:
            world.advance_round()
    for _ in range(TIMING["liveness_bound"] + 1):
        world.advance_round()
    assert len(ledger.committed) == len(order)
    return ledger


@pytest.mark.parametrize("seed", range(4))
def test_each_chain_reads_only_its_own_records(seed):
    ledger = two_chain_ledger(seed)
    assert chains(ledger) == {"A", "B"}
    for kind in TX_KINDS:
        for chain in ("A", "B"):
            assert exact(ledger, kind, chain)
            assert len(ledger.records(kind, chain)) == 3
            assert all(t["kind"] == kind and t["body"]["chain"] == chain
                       for t in ledger.records(kind, chain))
        assert ledger.records(kind, "C") == []
    assert indexed(ledger)


@pytest.mark.parametrize("seed", range(4))
def test_a_record_of_no_chain_is_in_no_list(seed):
    ledger = two_chain_ledger(seed)
    listed = {id(t) for k in TX_KINDS for c in ("A", "B")
              for t in ledger.records(k, c)}
    stray = [t for t in ledger.committed
             if not isinstance(t["body"].get("chain"), str)]
    assert len(stray) == len(TX_KINDS) * len(NO_CHAIN)
    for t in stray:
        assert id(t) not in listed
        assert ledger.deposit_position(t["txid"]) is None


@pytest.mark.parametrize("seed", range(4))
def test_a_deposit_counts_only_among_its_own_chain(seed):
    ledger = two_chain_ledger(seed)
    for chain in ("A", "B"):
        assert deposits_numbered(ledger, chain)
    # both chains' positions run from 0, whichever chain committed first
    positions = {c: [ledger.deposit_position(t["txid"])
                     for t in ledger.records("deposit", c)] for c in "AB"}
    assert positions == {"A": [0, 1, 2], "B": [0, 1, 2]}
    for kind in TX_KINDS:
        if kind != "deposit":
            for t in ledger.records(kind, "A") + ledger.records(kind, "B"):
                assert ledger.deposit_position(t["txid"]) is None


def _cycle(world, k=1):
    for _ in range(k):
        while world.pending_net():
            world.deliver_net(min(e.eid for e in world.pending_net()))
        world.advance_round()


def _snapshot(ledger):
    return {k: [t["txid"] for t in ledger.records(k, "liquid")]
            for k in TX_KINDS}


def test_a_clone_has_its_own_index():
    scn = protocol("liquid").canonical_scenario()
    world = RealRun("liquid", scn).world
    for pid in scn["clients"]:
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    _cycle(world, 3)
    before = _snapshot(world.ledger)
    assert before["open-commit"]

    twin = world.clone()
    assert twin.ledger.index is not world.ledger.index
    twin.inject_input(twin.entity(CLIENT, "c1"), {"kind": "deposit", "amt": 3})
    _cycle(twin, 2)
    grown = _snapshot(twin.ledger)
    assert len(grown["deposit"]) == len(before["deposit"]) + 1
    assert all(exact(twin.ledger, kind, "liquid") for kind in TX_KINDS)

    assert _snapshot(world.ledger) == before
    assert all(exact(world.ledger, kind, "liquid") for kind in TX_KINDS)
