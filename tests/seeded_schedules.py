"""Seeded random schedules for the real/ideal agreement sweeps.

``random_schedule`` draws one schedule from a seed: both clients open,
then 5-40 steps drawn uniformly from the protocol's entry kinds and read,
advance, seeded pump and garbage raw trigger, then closing rounds of
advance, seeded pump and a read by each client.  There are 20 closing
rounds, or more when the protocol's update deadline allowance
(``t_l2 + t_l1`` of its update liveness parameters) plus 4 is longer, so
that an update requested in the drawn steps can still be judged: 30 for
the rollup, 20 for the channel and the sidechain.  With ``corrupt``, one
party of a role in the menu-move table is corrupted at step 2-6 and makes
1-4 of its role's menu moves at later random steps.

A pay goes to the other client and every entry's amount is 1-3.  The
draws depend only on the seed, the entry kinds and the menu-move table,
so a sweep sees the same schedules on every run.

``real_runs`` replays the fixed corpus instead: every scripted schedule
and every golden lifecycle, each in a real run.

``separate_runs`` drives a schedule through a stand-alone real run and an
ideal run, so the protocol executes twice, and requires the two executions
to write one trace whenever the ideal run refused no round.  That is what
makes it sound for ``harness.run_differential`` to return the ideal run's
inner world as the real run.

``request_rows`` is what the sweeps compare of the two runs' requests:
both runs get the same inputs, so they ask the same requests, and the rows
differ only where the runs answer a request differently.
"""

import random

from l2sim import harness, properties
from l2sim.core import UPDATE

# the steps drawn after the entry kinds, in draw order
OTHER_STEPS = ("read", "advance", "pump", "garbage")


def inp(pid, **entry):
    return {"op": "input", "pid": pid, "entry": entry}


def random_schedule(name, seed, corrupt, entry_kinds, menu_moves):
    """(scenario, schedule) for protocol ``name`` at ``seed``.

    ``entry_kinds`` lists the environment entries a step may draw, such
    as ``("pay",)``; ``menu_moves`` maps each role that may be corrupted
    to the menu moves it draws from, in the order the role is drawn.
    """
    rng = random.Random(seed)
    proto = harness.protocol(name)
    scn = proto.canonical_scenario()
    clients = scn["clients"]
    cast = {role: pids for role, pids, _ in proto.party_roles(scn)}
    sched = [inp(c, kind="open") for c in clients]
    steps = []
    kinds = tuple(entry_kinds) + OTHER_STEPS
    for _ in range(rng.randint(5, 40)):
        kind = kinds[rng.randrange(len(kinds))]
        pid = rng.choice(clients)
        if kind == "pay":
            other = next(c for c in clients if c != pid)
            steps.append(inp(pid, kind="pay", to=other, amt=rng.randint(1, 3)))
        elif kind in entry_kinds:
            steps.append(inp(pid, kind=kind, amt=rng.randint(1, 3)))
        elif kind == "read":
            steps.append(inp(pid, kind="read"))
        elif kind == "advance":
            steps.append({"op": "advance"})
        elif kind == "pump":
            steps.append({"op": "pump", "seed": rng.randrange(1 << 20)})
        else:
            steps.append({"op": "raw-trigger",
                          "payload": dict(rng.choice(harness.GARBAGE_TRIGGERS))})
    if corrupt:
        role = rng.choice(list(menu_moves))
        pid = rng.choice(cast[role])
        at = rng.randint(2, 6)
        steps.insert(at, {"op": "corrupt", "role": role, "pid": pid})
        for _ in range(rng.randint(1, 4)):
            steps.insert(rng.randint(at + 1, len(steps)),
                         {"op": "menu", "role": role, "pid": pid,
                          "action": rng.choice(menu_moves[role])})
    sched += steps
    update = proto.liveness_params(scn)[UPDATE]
    for _ in range(max(20, update["t_l2"] + update["t_l1"] + 4)):
        sched += [{"op": "advance"},
                  {"op": "pump", "seed": rng.randrange(1 << 20)}]
        sched += [inp(c, kind="read") for c in clients]
    return scn, sched


def real_runs(name):
    """(schedule, real run) of protocol ``name`` for every scripted
    schedule and every golden lifecycle (seeds 1-3, ten pays, honest and
    adversarial)."""
    scn = harness.protocol(name).canonical_scenario()
    scheds = list(harness.scripted_schedules(name, scn).values())
    scheds += [harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adv)
               for seed in (1, 2, 3) for adv in (False, True)]
    for sched in scheds:
        run = harness.RealRun(name, scn)
        harness.apply_schedule(run, sched)
        yield sched, run


def request_rows(trace):
    """(pid, cls, what, round, refused) of each request of ``trace``."""
    return [(r["pid"], r["cls"], r["what"], r["round"], r["refused"])
            for r in properties.summarize(trace).requests]


def separate_runs(name, scn, sched):
    """(real, ideal, diffs) of ``sched``, where ``real`` is a stand-alone
    real run, not the ideal run's inner world.  Unless the ideal run
    refused a round, the inner world's events equal the real run's."""
    real = harness.apply_schedule(harness.RealRun(name, scn), sched)
    ideal = harness.apply_schedule(harness.IdealRun(name, scn), sched)
    if not ideal.refused:
        assert real.trace.events == ideal.sim.inner.trace.events
    return real, ideal, harness.diff_outputs(real.trace, ideal.trace)
