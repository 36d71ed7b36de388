"""The registry's digest memo is exact on whole runs.

``CertRegistry`` memoizes each digest for its run, keying a value that
is not an exact ``str`` or ``int`` by its identity.  That is exact only
while no digested value is changed in place, which the protocols never
do; these tests re-digest every memo hit of every scripted schedule and
of one adversarial lifecycle per protocol, in a stand-alone real run and
in the ideal run, so a future change that mutates a digested value fails
here.  Each run has its own registry: the ideal run's outer and inner
worlds share one, and no object is keyed or kept alive by both the real
and the ideal run's memo.
"""

import pytest

from l2sim import base
from l2sim.harness import (
    PROTOCOLS, IdealRun, RealRun, apply_schedule, lifecycle_schedule,
    protocol, scripted_schedules,
)
from l2sim.trace import digest


class CheckedMemo(dict):
    """A memo whose hits are digested again and compared."""

    hits = 0

    def get(self, key, default=None):
        hit = super().get(key, default)
        if hit is not None:
            dig, value = hit
            assert digest(value) == dig, f"stale memo entry for {value!r}"
            CheckedMemo.hits += 1
        return hit


@pytest.fixture
def checked(monkeypatch):
    init = base.CertRegistry.__init__

    def checked_init(certs):
        init(certs)
        assert certs.memo == {}            # a fresh registry's memo is empty
        certs.memo = CheckedMemo()

    monkeypatch.setattr(base.CertRegistry, "__init__", checked_init)
    monkeypatch.setattr(CheckedMemo, "hits", 0)
    return CheckedMemo


def pinned(certs) -> set:
    """Ids of the objects the memo keys by identity, which it keeps alive."""
    out = set()
    for _, value in certs.memo.values():
        for part in (value if type(value) is tuple else (value,)):
            if type(part) is not str and type(part) is not int:
                out.add(id(part))
    return out


def schedules(name):
    scn = protocol(name).canonical_scenario()
    out = list(scripted_schedules(name, scn).values())
    out.append(lifecycle_schedule(name, scn, 1, pays=10, adversarial=True))
    return scn, out


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_memo_hit_is_exact(name, checked):
    scn, scheds = schedules(name)
    for sched in scheds:
        real = apply_schedule(RealRun(name, scn), sched)
        ideal = apply_schedule(IdealRun(name, scn), sched)
        assert isinstance(real.world.certs.memo, checked)
        assert ideal.sim.inner.certs is ideal.outer.certs
        # equal str and int messages may have equal keys in both memos,
        # but no object is keyed or kept alive by both
        assert real.world.certs.memo is not ideal.outer.certs.memo
        assert not pinned(real.world.certs) & pinned(ideal.outer.certs)
    assert checked.hits > 100


def test_the_guard_sees_a_value_changed_after_digesting(checked):
    certs = base.CertRegistry()
    state = {"bal": {"c1": 1}}
    certs.message("chan-state", "s", state, 1)
    state["bal"]["c1"] = 2
    with pytest.raises(AssertionError, match="stale memo entry"):
        certs.message("chan-state", "s", state, 1)
