"""The account states' minted watermark.

A liquid or rollup state records the L1 deposits it has minted as
``minted_upto`` (its chain's deposits, in commit order, that are all
minted) plus ``minted_above`` (the positions minted past that point).  The
tests pin what that buys and what it must keep:

- work: ``ripe_deposits`` visits at most the unminted deposits plus one,
  a pay does the same work however many deposits are minted, and a
  state's canonical text does not grow with its minted count;
- meaning: the watermark is a pure function of the minted set.  With two
  chains' deposits interleaved on one ledger, each chain counts only its
  own, and every order of applying the blocks gives the state of a replay
  from scratch.  A state names no chain, so a mint never checks its
  deposit's chain (a strict xfail pins that, for ROADMAP item 9);
- replay: the trace ledger of ``properties`` numbers deposits as the
  ledger does;
- settlement: a client reads its own chain's settlement records past a
  cursor, so on a ledger that also commits another chain's records it
  reads each of its own records once, none of the other chain's, and
  reports its own chain's settlement once.
"""

import itertools
import random

import pytest

from l2sim import properties
from l2sim.accounts import apply_tx, apply_txs, genesis_state, ripe_deposits
from l2sim.base import Ledger, signed_tx
from l2sim.harness import RealRun, apply_schedule, lifecycle_schedule, protocol
from l2sim.runtime import World
from l2sim.trace import canon

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}
INITIAL = {"c1": 10, "c2": 10}


# -- work counts ---------------------------------------------------------------


class CountingList(list):
    """A ledger list that counts the entries read from it, by index, by
    slice or by iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class CountingLedger:
    """A ledger stand-in holding ``n`` deposits of chain ``s``, of which
    the first ``buried`` are buried; it counts every lookup."""

    def __init__(self, n, buried):
        self.calls = 0
        deps = [{"kind": "deposit", "txid": f"d{i:04}", "height": i,
                 "body": {"chain": "s", "to": "c1", "amt": 1}}
                for i in range(n)]
        self.height = buried - 1 + TIMING["confirm_depth"] - 1
        self.list = CountingList(deps)
        self.by_txid = {d["txid"]: (i, d) for i, d in enumerate(deps)}

    def records(self, kind, chain):
        self.calls += 1
        return self.list if (kind, chain) == ("deposit", "s") else []

    def buried(self, tx):
        self.calls += 1
        return self.height - tx["height"] + 1 >= TIMING["confirm_depth"]

    def get(self, txid):
        self.calls += 1
        return self.by_txid[txid][1] if txid in self.by_txid else None

    def deposit_position(self, txid):
        self.calls += 1
        return self.by_txid[txid][0] if txid in self.by_txid else None


def minted_state(upto, above):
    return dict(genesis_state(INITIAL), minted_upto=upto,
                minted_above=list(above))


WALKS = [  # (deposits, buried, minted_upto, minted_above)
    (0, 0, 0, []),
    (50, 50, 50, []),
    (50, 50, 0, []),
    (50, 20, 10, []),
    (50, 20, 10, [12, 15, 30]),
    (500, 500, 490, [495]),
    (500, 3, 0, [1, 2, 7]),
]


@pytest.mark.parametrize("n, buried, upto, above", WALKS)
def test_ripe_deposits_visits_only_the_unminted_and_one_more(n, buried, upto,
                                                              above):
    ledger = CountingLedger(n, buried)
    got = ripe_deposits(ledger, "s", minted_state(upto, above))
    minted = set(range(upto)) | set(above)
    unminted = [i for i in range(n) if i not in minted]
    assert [m["ref"] for m in got] == [f"d{i:04}" for i in unminted
                                       if i < buried]
    # the ripe ones and the first deposit not yet buried, so never more
    # than the unminted deposits plus one
    assert ledger.list.reads <= len(got) + 1 <= len(unminted) + 1


def test_a_pay_does_not_depend_on_the_minted_count():
    pay = {"op": "pay", "from": "c1", "to": "c2", "amt": 1, "nonce": 1}
    for upto, above in ((0, []), (10, [12]), (100_000, range(100_001, 101_000))):
        ledger = CountingLedger(0, 0)
        state = minted_state(upto, above)
        post = apply_tx(state, pay, ledger)
        assert post["bal"] == {"c1": 9, "c2": 11}
        assert ledger.calls == 0
        # the minted fields are shared, never copied
        assert post["minted_above"] is state["minted_above"]
        assert post["minted_upto"] == upto


def shape(state):
    """The state's canonical text with every number written as 0."""
    def zero(v):
        if isinstance(v, dict):
            return {k: zero(x) for k, x in v.items()}
        if isinstance(v, list):
            return [zero(x) for x in v]
        return 0 if isinstance(v, int) else v
    return canon(zero(state))


def test_a_state_does_not_grow_with_its_minted_count():
    ledger = CountingLedger(300, 300)
    state = genesis_state(INITIAL)
    sizes = set()
    for i in range(300):
        state = apply_tx(state, {"op": "mint", "to": "c1", "amt": 1,
                                 "ref": f"d{i:04}"}, ledger)
        sizes.add(shape(state))
    assert state["minted_upto"] == 300 and state["minted_above"] == []
    assert sizes == {shape(genesis_state(INITIAL))}


def read_states(trace):
    return [e["state"] for ev in trace.events
            if ev["t"] == "output" and ev["payload"].get("kind") == "read-result"
            for e in ev["payload"]["executed"]]


@pytest.mark.parametrize("name", ["liquid", "arbitrum"])
def test_states_read_in_a_lifecycle_keep_one_shape(name):
    # more pays mean more deposits minted; every state read in either run
    # has the genesis state's shape
    scn = protocol(name).canonical_scenario()
    shapes, minted = set(), []
    for pays in (20, 60):
        run = apply_schedule(RealRun(name, scn),
                             lifecycle_schedule(name, scn, 1, pays=pays))
        states = read_states(run.trace)
        shapes |= {shape(s) for s in states}
        minted.append(max(s["minted_upto"] for s in states))
    assert shapes == {shape(genesis_state(scn["initial"]))}
    assert minted[1] > minted[0] > 0


# -- two chains on one ledger ----------------------------------------------------


def two_chain_ledger(seed, per_chain=6):
    """A world on a ledger where chains A and B each commit ``per_chain``
    deposits, interleaved in a seeded order over several blocks."""
    ledger = Ledger(TIMING)
    world = World("A", ledger)
    rng = random.Random(seed)
    order = ["A"] * per_chain + ["B"] * per_chain
    rng.shuffle(order)
    mints = {"A": [], "B": []}
    for i, chain in enumerate(order):
        to = rng.choice(sorted(INITIAL))
        dep = signed_tx(ledger.certs, "deposit",
                        {"chain": chain, "to": to, "amt": i + 1,
                         "conflict": f"dep/{chain}/{i}"}, f"client:{to}")
        assert ledger.submit(dep)["accepted"]
        mints[chain].append({"op": "mint", "to": to, "amt": i + 1,
                             "ref": dep["txid"]})
        if rng.random() < 0.4:
            world.advance_round()
    for _ in range(TIMING["confirm_depth"] + 1):
        world.advance_round()
    return world, mints


def replay(ledger, mints):
    return apply_txs(genesis_state(INITIAL), mints, ledger, 0)


@pytest.mark.parametrize("seed", range(6))
def test_each_chain_counts_only_its_own_deposits(seed):
    world, mints = two_chain_ledger(seed)
    ledger = world.ledger
    for chain in ("A", "B"):
        mine = mints[chain]
        assert [ledger.deposit_position(m["ref"]) for m in mine] \
            == list(range(len(mine)))
        # mint every other deposit: the watermark stops at the first gap
        some = replay(ledger, mine[::2])
        assert (some["minted_upto"], some["minted_above"]) == (1, [2, 4])
        assert ripe_deposits(ledger, chain, some) \
            == sorted(mine[1::2], key=lambda m: m["ref"])
        whole = replay(ledger, mine)
        assert (whole["minted_upto"], whole["minted_above"]) == (len(mine), [])
        # the same blocks applied in every order give the replay's state
        blocks = [mine[:2], mine[2:3], mine[3:5], mine[5:]]
        for perm in itertools.permutations(blocks):
            state = genesis_state(INITIAL)
            for block in perm:
                state = apply_txs(state, block, ledger, 0)
            assert state == whole
        # a double mint is refused wherever the watermark holds it
        for m in mine:
            assert apply_tx(whole, m, ledger) is None
            assert apply_tx(some, m, ledger) is None or m in mine[1::2]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 9: a mint never checks its deposit's chain, so a state "
    "of chain A that mints chain B's deposit 0 holds chain A's deposit 0 "
    "as minted too"))
def test_a_mint_of_another_chains_deposit_leaves_its_own_mintable():
    world, mints = two_chain_ledger(0)
    ledger = world.ledger
    state = genesis_state(INITIAL)
    state = apply_tx(state, mints["B"][0], ledger) or state
    assert apply_tx(state, mints["A"][0], ledger) is not None


def test_a_block_applied_later_gives_the_same_state():
    # one replica applies the block at once, another after more deposits of
    # both chains have committed: the states are equal
    world, mints = two_chain_ledger(7, per_chain=3)
    ledger = world.ledger
    early = replay(ledger, mints["A"][1:])
    for i in range(4):
        for chain in ("A", "B"):
            ledger.submit(signed_tx(ledger.certs, "deposit",
                                    {"chain": chain, "to": "c1", "amt": 1,
                                     "conflict": f"late/{chain}/{i}"},
                                    "client:c1"))
        world.advance_round()
    assert replay(ledger, mints["A"][1:]) == early
    assert (early["minted_upto"], early["minted_above"]) == (0, [1, 2])


def test_the_trace_ledger_numbers_deposits_as_the_ledger_does():
    world, mints = two_chain_ledger(3)
    commits = properties.summarize(world.trace).commits
    traced = properties._TraceLedger(commits)
    for chain in ("A", "B"):
        for m in mints[chain]:
            assert traced.deposit_position(m["ref"]) \
                == world.ledger.deposit_position(m["ref"])
    assert traced.deposit_position(["not", "a", "txid"]) is None


def test_a_claimed_state_needs_a_well_formed_watermark():
    from l2sim.arbitrum import plausible_state
    good = genesis_state(INITIAL)
    assert plausible_state(good)
    assert plausible_state(dict(good, minted_upto=3, minted_above=[5, 9]))
    for bad in ({"minted_upto": None}, {"minted_upto": -1},
                {"minted_above": None}, {"minted_above": ["x"]},
                {"minted_upto": 3, "minted_above": [3]},
                {"minted_upto": 3, "minted_above": [6, 5]},
                {"minted_upto": 3, "minted_above": [5, 5]}):
        assert not plausible_state(dict(good, **bad)), bad
    assert not plausible_state({k: v for k, v in good.items()
                                if k != "minted_above"})


SETTLE_KINDS = {"liquid": "peg-out", "arbitrum": "settle"}


@pytest.mark.parametrize("name", sorted(SETTLE_KINDS))
def test_a_client_reports_its_chains_settlement_once(name):
    # chain B's settlement records commit before, with and after this
    # chain's one, and one of them reuses its l2 txid; every client reads
    # none of them, reports its own chain's settlement once, and reads its
    # own record once however many rounds it polls
    scn = protocol(name).canonical_scenario()
    run = RealRun(name, scn)
    ledger, sid, kind = run.world.ledger, run.world.sid, SETTLE_KINDS[name]
    del ledger.kind_checks[kind]          # records of any chain commit
    mine = ledger.index[(kind, sid)] = CountingList([])
    other = ledger.index[(kind, "B")] = CountingList([])
    apply_schedule(run, [{"op": "input", "pid": pid, "entry": {"kind": "open"}}
                         for pid in scn["clients"]]
                   + [{"op": "advance"}, {"op": "pump"}] * 4)

    def settle(chain, tag, **extra):
        body = {"chain": chain, "to": "c1", "amt": 1, "l2txid": "t1",
                "state": genesis_state(INITIAL), "height": 1,
                "conflict": f"exit/{chain}/{tag}", **extra}
        assert ledger.submit(signed_tx(ledger.certs, kind, body,
                                       "client:c1"))["accepted"]

    settle("B", "before")
    run.world.advance_round()
    settle("B", "with", l2txid="t2")
    settle(sid, "mine")
    run.world.advance_round()
    for i in range(3):
        settle("B", f"after/{i}", l2txid=f"t{i + 3}")
        run.world.advance_round()
    assert (len(mine), len(other)) == (1, 5)
    for pid in scn["clients"]:
        party = f"client:{pid}"
        notes = [ev for ev in run.trace.events if ev["t"] == "note"
                 and ev["party"] == party and ev["kind"] == "settle-done"]
        outs = [ev for ev in run.trace.events if ev["t"] == "output"
                and ev["party"] == party
                and ev["payload"]["kind"] == "settle-ok"]
        assert [(n["l2txid"], n["frm"]) for n in notes] == [("t1", "c1")]
        assert len(outs) == 1
    assert mine.reads == len(scn["clients"])
    assert other.reads == 0
