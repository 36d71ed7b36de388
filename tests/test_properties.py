"""Property checks: pinned verdicts, a reference safety check, failing traces.

The verdict tables pin the real and the ideal trace of every scripted
schedule and of the golden lifecycles (seeds 1-3, ten payments, honest
and adversarial) in two parts.  The output tables hold a sha256 of each
reader's whole views and one of every check's record; they were recorded
once, while each read still carried its reader's whole view, and are not
regenerated.  The witness tables hold a sha256 of every check's witness;
they were recorded before the checks were reworked to build evidence
keys once per view, and again when reads began to carry only their delta
(a witness read carries its whole view from ``base`` 0).  A change that
moves a verdict or a witness has to say why.

``reference_check_safety`` keeps the all-pairs safety check that the
one-pass ``check_safety`` replaced; the two are compared on hand-built
failing traces and on random view sets.  The hand-built liveness and
settlement traces pin the verdicts the checks gave before that rework
(their witness digests recorded again with delta reads), and every
failing witness must fail again, with the same parameters, when checked
on its own.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from l2sim import harness, properties
from l2sim.core import CLIENT, OPEN, SETTLEMENT, UPDATE, settled_entry
from l2sim.properties import (
    Verdict,
    as_trace,
    check_correct_settlement,
    check_liveness,
    check_safety,
    read_views,
)
from l2sim.trace import canon


def all_checks(name, scn, trace):
    """Every check on one trace, in the order the benchmark runs them."""
    proto = harness.protocol(name)
    f = {role: budget for role, _, budget in proto.party_roles(scn)}
    out = [properties.check_correct_initialization(trace),
           check_safety(trace, f)]
    out += [check_liveness(trace, kind, params)
            for kind, params in proto.liveness_params(scn).items()]
    out.append(check_correct_settlement(trace))
    out.append(properties.measure_data_availability(trace))
    return out


def sha(obj):
    return hashlib.sha256(canon(obj).encode()).hexdigest()


def witnesses_digest(checks):
    """sha256 of every check's witness (None for the storage report)."""
    return sha([getattr(v, "witness", None) for v in checks])


def witness_digest(v):
    return sha(v.witness)


def full_view_projection(trace):
    """``harness.output_projection`` with every read-result's executed
    entries rebuilt into its reader's whole view, the settled entry last.

    A read keeps the first ``base`` entries (0 when absent) of its reader's
    previous read and appends its own; a ``settled`` state ends the view.
    The rebuild follows the payload format alone, independently of
    ``properties.read_views``.
    """
    per = harness.output_projection(trace)
    texts, prev, seen = {}, {}, {}
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        party, p = ev["party"], ev["payload"]
        i = seen[party] = seen.get(party, -1) + 1
        if p.get("kind") != "read-result":
            continue
        entries = prev.get(party, [])[:p.get("base", 0)] + list(p["executed"])
        prev[party] = entries
        if p.get("settled") is not None:
            entries = entries + [settled_entry(p["settled"])]
        per[party][i] = {"kind": "read-result", "state": p.get("state"),
                         "pointer": p.get("pointer"),
                         "executed": properties.entry_keys(entries, texts)}
    return per


# (protocol, schedule label) -> (real, ideal) witness digests
SCRIPTED_WITNESSES = {
    ("brick", "corrupt-warden-noise"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "garbage-triggers"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "no-pump-delta-flush"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "open-only"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "overdraft-refused"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "pay-both-directions"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "pay-pipeline"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "pay-race-same-step"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "read-heavy"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "settle-after-traffic"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "settle-fresh"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "shuffled-delivery"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "single-pay"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "stale-settle-attempt"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", "unilateral-exit"): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("liquid", "client-spam"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "corrupt-operator-rotation"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "deposit-mint"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "deposit-then-withdraw"): (
        "3925aa5318ac4bdb2b3671fa86873b34c34cf198f08799a5dff36134e0d0bbe5",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "garbage-triggers"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "no-pump-delta-flush"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "open-only"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "operator-menu-noise"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "overdraft-refused"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "pay-both-directions"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "pay-pipeline"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "pay-race-same-step"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "read-heavy"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "settle-after-traffic"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "settle-fresh"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "shuffled-delivery"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", "single-pay"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "deposit-mint"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "false-accuse-noise"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "fraud-struck"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "garbage-triggers"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "no-pump-delta-flush"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "open-only"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "overdraft-refused"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "pay-both-directions"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "pay-pipeline"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "pay-race-same-step"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "read-heavy"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "self-publish-rescue"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "settle-after-traffic"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "settle-fresh"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "shuffled-delivery"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "single-pay"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", "withdraw-exit"): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
}

# (protocol, seed, adversarial) -> (real, ideal) witness digests
LIFECYCLE_WITNESSES = {
    ("brick", 1, False): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", 1, True): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", 2, False): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", 2, True): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", 3, False): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("brick", 3, True): (
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20",
        "c1a4afcc141ecb56b318536bb72a35899f2518564e8011db71778e3b05fc7c20"),
    ("liquid", 1, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", 1, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", 2, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", 2, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", 3, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("liquid", 3, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 1, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 1, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 2, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 2, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 3, False): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
    ("arbitrum", 3, True): (
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9",
        "b86f1f329f83e159ba35bf407e3d1512918b54d2d0e071badcb06e90509b34d9"),
}


# The output tables pin, per schedule, the real run's then the ideal run's
# sha256 of ``full_view_projection`` and of every check's ``to_record()``.
# They were recorded once, while every read-result still carried its
# reader's whole view, and are not regenerated: the payload format may
# change, the views a reader was shown and the verdicts may not.  The
# records of brick stale-settle-attempt and unilateral-exit and of liquid
# client-spam were recorded again when ``open_outputs`` stopped counting
# the confirmation of a client corrupted later (2 became 1).

# (protocol, schedule label) -> (real projection, real records,
#                                ideal projection, ideal records)
SCRIPTED_OUTPUTS = {
    ("brick", "corrupt-warden-noise"): (
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "d33ad4602ee574e49e3dd598e98ded611e359ff8d385fead9916b7503cabd5c9",
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "d33ad4602ee574e49e3dd598e98ded611e359ff8d385fead9916b7503cabd5c9"),
    ("brick", "garbage-triggers"): (
        "e5639cb5a49da70c2e6bddbca7f1b7be4e9dcb7a2639d88d30b654a222775251",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980",
        "e5639cb5a49da70c2e6bddbca7f1b7be4e9dcb7a2639d88d30b654a222775251",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980"),
    ("brick", "no-pump-delta-flush"): (
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980",
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980"),
    ("brick", "open-only"): (
        "c0ec9870f0c6eaff2ae6dfb06cde5930c06dbac8db5bf57355bde4486778c1a9",
        "9f8f7ee9048b3b5346cd5aecc56bb0dad7d41268fdebcb96df369e4aee1cb068",
        "c0ec9870f0c6eaff2ae6dfb06cde5930c06dbac8db5bf57355bde4486778c1a9",
        "9f8f7ee9048b3b5346cd5aecc56bb0dad7d41268fdebcb96df369e4aee1cb068"),
    ("brick", "overdraft-refused"): (
        "dde3c068a2f3b90d564b5dbad55942f84e661ba2bd1977696a57113c98431424",
        "d66fb6b8212e34ecf96bafe71687ef319eef408cd8314effca6abb0e6f6ea57f",
        "dde3c068a2f3b90d564b5dbad55942f84e661ba2bd1977696a57113c98431424",
        "21471ee93d713af577119b9c1143d55719fd70624a2938cf8e9d327625e01560"),
    ("brick", "pay-both-directions"): (
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "24e2da80f90284c14eae89c179d69a1dad471bac67c345f7dc47cd8b222e44b4",
        "62288d3b3813c0059ad6f22eb8cb071d315e9e9f3a17c9bf6f7baa97ac9e96a8",
        "24e2da80f90284c14eae89c179d69a1dad471bac67c345f7dc47cd8b222e44b4"),
    ("brick", "pay-pipeline"): (
        "a32df542ce777d9e19752aed2dabb02fcb8121cf55a728df151db71a7571f8aa",
        "1bcaaa6a56f87b02a469ab8d179b5ddf6849a2104c1170ddf8565558f4e94a93",
        "a32df542ce777d9e19752aed2dabb02fcb8121cf55a728df151db71a7571f8aa",
        "1bcaaa6a56f87b02a469ab8d179b5ddf6849a2104c1170ddf8565558f4e94a93"),
    ("brick", "pay-race-same-step"): (
        "52f2dc2bc064d2bfda6d61d3f0bbcec49b0a1a11a4011d79ba6ba4caac4d2a89",
        "24e2da80f90284c14eae89c179d69a1dad471bac67c345f7dc47cd8b222e44b4",
        "52f2dc2bc064d2bfda6d61d3f0bbcec49b0a1a11a4011d79ba6ba4caac4d2a89",
        "24e2da80f90284c14eae89c179d69a1dad471bac67c345f7dc47cd8b222e44b4"),
    ("brick", "read-heavy"): (
        "5f93aa5d48e3ad389f8d6db84183b93b241bfd6354cec27a0c1d6949b774c929",
        "b49094959b6ec2b7a596655a64e9f02d2371c74cb366ec3dfb8e52ca18078369",
        "5f93aa5d48e3ad389f8d6db84183b93b241bfd6354cec27a0c1d6949b774c929",
        "b49094959b6ec2b7a596655a64e9f02d2371c74cb366ec3dfb8e52ca18078369"),
    ("brick", "settle-after-traffic"): (
        "1c140a7c721a2cb2fd097bf140511aebeef267a578ad72c2bbfc51a74caa4bef",
        "80b5fd8cdc20d91df02e45711105c85515cca3dbfcd3440b96d53c5f0f09b585",
        "1c140a7c721a2cb2fd097bf140511aebeef267a578ad72c2bbfc51a74caa4bef",
        "80b5fd8cdc20d91df02e45711105c85515cca3dbfcd3440b96d53c5f0f09b585"),
    ("brick", "settle-fresh"): (
        "6ad09fa396a4aecfb55b9f4b0011c10c8568a278781379dbad9ca8260aa3829a",
        "9fd90d575c48f102f4c9f294d6881fe406fce4980bd6f1e64aa64b20b4917b8a",
        "6ad09fa396a4aecfb55b9f4b0011c10c8568a278781379dbad9ca8260aa3829a",
        "9fd90d575c48f102f4c9f294d6881fe406fce4980bd6f1e64aa64b20b4917b8a"),
    ("brick", "shuffled-delivery"): (
        "b20f4a54458d921a7039d14d825b0f4a3d24ca9250e6ac88f71697e2a7c42786",
        "8c282541adb05fd165c908e30329db0f55d2ce3db68c1a1e4f13dd458cb812bf",
        "b20f4a54458d921a7039d14d825b0f4a3d24ca9250e6ac88f71697e2a7c42786",
        "8c282541adb05fd165c908e30329db0f55d2ce3db68c1a1e4f13dd458cb812bf"),
    ("brick", "single-pay"): (
        "01f9caed3f74f48d739296b62391d3f67383c78f0517805afc43db31ab0af139",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980",
        "01f9caed3f74f48d739296b62391d3f67383c78f0517805afc43db31ab0af139",
        "f9965d86ea3faf3675568108e6a24c87f69c3caf95c24a3d19738e6e245e1980"),
    ("brick", "stale-settle-attempt"): (
        "591de4be64745237f2453f517ab900097ff9756340fbc4f9b6105f45443b6341",
        "ef902059e83473268412fce31b71f49d1f39cabe7038b5b9337c3a52794f262c",
        "591de4be64745237f2453f517ab900097ff9756340fbc4f9b6105f45443b6341",
        "ef902059e83473268412fce31b71f49d1f39cabe7038b5b9337c3a52794f262c"),
    ("brick", "unilateral-exit"): (
        "b0fc79bc64b27f8acdd3b01bb61c94740e02e755ec520047888dfae3d8c9296b",
        "ceb8419b4e43ea320d409b10718352eeec5ba2d96eb49c6fcf1d94b02c78c429",
        "b0fc79bc64b27f8acdd3b01bb61c94740e02e755ec520047888dfae3d8c9296b",
        "ceb8419b4e43ea320d409b10718352eeec5ba2d96eb49c6fcf1d94b02c78c429"),
    ("liquid", "client-spam"): (
        "c0196f7e846fbcd1bf091de4fce00d11508d657b0f5dbd69b6ff750c030bf04b",
        "50e0d243c8ab2df5dbc8769bb7a32b1d74ecd0150593b9e7755145762857acf6",
        "c0196f7e846fbcd1bf091de4fce00d11508d657b0f5dbd69b6ff750c030bf04b",
        "50e0d243c8ab2df5dbc8769bb7a32b1d74ecd0150593b9e7755145762857acf6"),
    ("liquid", "corrupt-operator-rotation"): (
        "19baa58fdead7b8b620cd52484a93e288830f2d66b87899d39fcac49f8e2752f",
        "d1cbc030faaebe661a0726396fb41f005c5d5a6ee13282abd643e6d95c57c98a",
        "19baa58fdead7b8b620cd52484a93e288830f2d66b87899d39fcac49f8e2752f",
        "d1cbc030faaebe661a0726396fb41f005c5d5a6ee13282abd643e6d95c57c98a"),
    ("liquid", "deposit-mint"): (
        "1c1bb4811171b4e275a3a7323c4a78f9979fae49a5af74bdace0a7a6a0e8ae14",
        "985fb39d7b4a3940e3367e159d3be914364ca5624ef43dfb01074393d0e79fc2",
        "1c1bb4811171b4e275a3a7323c4a78f9979fae49a5af74bdace0a7a6a0e8ae14",
        "985fb39d7b4a3940e3367e159d3be914364ca5624ef43dfb01074393d0e79fc2"),
    ("liquid", "deposit-then-withdraw"): (
        "9c28505ea7b4347b3c8576cfa85540641fe127d913c2e11930f437409284e3f3",
        "b132d0d868b8f5c617a54a587b6b8bb2e2d928fc67ef9e35be58c34a2906fc5b",
        "9c28505ea7b4347b3c8576cfa85540641fe127d913c2e11930f437409284e3f3",
        "d31584483bcd76c50c3e2e7cb0c51b3bd27d00c2cdc3611b4fdf7d339e2a44bc"),
    ("liquid", "garbage-triggers"): (
        "e4ff78dc9b0f9d673d297ae691123d8ee7935a87dda6c8aa72aa027cb57edbc0",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "e4ff78dc9b0f9d673d297ae691123d8ee7935a87dda6c8aa72aa027cb57edbc0",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("liquid", "no-pump-delta-flush"): (
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("liquid", "open-only"): (
        "7529b5e98345390a2475dfa1a4582e62447ab304164c872c8c19f84491884dc6",
        "466e629b5a2f6ba90d0e8881ffd1ce83c12eabeddef8b5564e3b89911342845a",
        "7529b5e98345390a2475dfa1a4582e62447ab304164c872c8c19f84491884dc6",
        "466e629b5a2f6ba90d0e8881ffd1ce83c12eabeddef8b5564e3b89911342845a"),
    ("liquid", "operator-menu-noise"): (
        "e4ff78dc9b0f9d673d297ae691123d8ee7935a87dda6c8aa72aa027cb57edbc0",
        "c584a58bc928a40e4bc9cb81abd3fa585eb014940180deb0a33887d162d52da8",
        "e4ff78dc9b0f9d673d297ae691123d8ee7935a87dda6c8aa72aa027cb57edbc0",
        "c584a58bc928a40e4bc9cb81abd3fa585eb014940180deb0a33887d162d52da8"),
    ("liquid", "overdraft-refused"): (
        "a725a7af25c0ed701bc19929ad5d87ad339d1e83f126a044f7601b7e001e5e5d",
        "8e6e6c757edb617218a70c0b9091797bd8570bf84264a2d807b14fb62e15db10",
        "a725a7af25c0ed701bc19929ad5d87ad339d1e83f126a044f7601b7e001e5e5d",
        "8e6e6c757edb617218a70c0b9091797bd8570bf84264a2d807b14fb62e15db10"),
    ("liquid", "pay-both-directions"): (
        "a5893581355d0ed9857dc42c42b5e93e73d99e3cedfe8eafd97962b07de3f262",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02",
        "a5893581355d0ed9857dc42c42b5e93e73d99e3cedfe8eafd97962b07de3f262",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02"),
    ("liquid", "pay-pipeline"): (
        "515716176efacbd2bfb9c6424c6e6192f53eea70c541a14e5ab0f8aa79cdeb0a",
        "eeab67732c7b9fd89c4e54a3b621ee1c88c8dd934af1b309a41c941241943644",
        "515716176efacbd2bfb9c6424c6e6192f53eea70c541a14e5ab0f8aa79cdeb0a",
        "eeab67732c7b9fd89c4e54a3b621ee1c88c8dd934af1b309a41c941241943644"),
    ("liquid", "pay-race-same-step"): (
        "a12cd587be020f5e3045e828ae37d6c1413f77710082e80886c9a66f5930b7e0",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02",
        "a12cd587be020f5e3045e828ae37d6c1413f77710082e80886c9a66f5930b7e0",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02"),
    ("liquid", "read-heavy"): (
        "4baf17f6f52082714a0615e77db01fdeb89b095a839ffdbe4c45be285947b647",
        "12e58fa85347f876683f007204d229dff02e91c1911d9e63f4d230bf4f25b8b2",
        "4baf17f6f52082714a0615e77db01fdeb89b095a839ffdbe4c45be285947b647",
        "12e58fa85347f876683f007204d229dff02e91c1911d9e63f4d230bf4f25b8b2"),
    ("liquid", "settle-after-traffic"): (
        "fe43d2d602f0885e16acef0d351e268b6980af677680e607df28525e3d0f9511",
        "3958728229378bd8b6c9051ae7be9940671b44429323621a925f994154f09f50",
        "fe43d2d602f0885e16acef0d351e268b6980af677680e607df28525e3d0f9511",
        "3958728229378bd8b6c9051ae7be9940671b44429323621a925f994154f09f50"),
    ("liquid", "settle-fresh"): (
        "f688e5b3eacfa1800b736adff427a1b64ea607eb5f2b85759a81014568ce5faa",
        "a70f6a7c445c517bd24044c4cbb3193ef9d75d242d7577a02a89b350d62d88f5",
        "f688e5b3eacfa1800b736adff427a1b64ea607eb5f2b85759a81014568ce5faa",
        "a70f6a7c445c517bd24044c4cbb3193ef9d75d242d7577a02a89b350d62d88f5"),
    ("liquid", "shuffled-delivery"): (
        "d9e71baf87a988a2de99a7bd743c51145a9aacbd38435b7ac8e9ef878254eba3",
        "2ec7cb5d9aa0e94f49e5d772f0c1df806619df201a21a695fa84bad922ce1325",
        "d9e71baf87a988a2de99a7bd743c51145a9aacbd38435b7ac8e9ef878254eba3",
        "2ec7cb5d9aa0e94f49e5d772f0c1df806619df201a21a695fa84bad922ce1325"),
    ("liquid", "single-pay"): (
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("arbitrum", "deposit-mint"): (
        "caf61d79c57411e95f632a7771a76e4e4be8d9d2088a7f6df33fc9294948e8cb",
        "44b94c4b02f0f3295aaa59b2dccad65380e831fd8e1ed98f7897bc485b72a531",
        "caf61d79c57411e95f632a7771a76e4e4be8d9d2088a7f6df33fc9294948e8cb",
        "44b94c4b02f0f3295aaa59b2dccad65380e831fd8e1ed98f7897bc485b72a531"),
    ("arbitrum", "false-accuse-noise"): (
        "f48e1209733a2deaa7db7d36990cfcbe66e6f4981f5361abbe91c505b4678e47",
        "5afb80bbe00d3fdecf9fd258d747408b278583eca83ab0b5d32a419ef2d0c26f",
        "f48e1209733a2deaa7db7d36990cfcbe66e6f4981f5361abbe91c505b4678e47",
        "5afb80bbe00d3fdecf9fd258d747408b278583eca83ab0b5d32a419ef2d0c26f"),
    ("arbitrum", "fraud-struck"): (
        "f1eaee70ad96621ee12f61af535fdee32c06e3ed28782fd3134f51ed203db795",
        "d0efecf4268e3a6efd95ec0811512050eb12b3a520e21f7f2dea9a334810af95",
        "f1eaee70ad96621ee12f61af535fdee32c06e3ed28782fd3134f51ed203db795",
        "d0efecf4268e3a6efd95ec0811512050eb12b3a520e21f7f2dea9a334810af95"),
    ("arbitrum", "garbage-triggers"): (
        "f1eaee70ad96621ee12f61af535fdee32c06e3ed28782fd3134f51ed203db795",
        "20fa1d25eea4ac0573ced5bce8ba2d01613787583a1b2fe19d14380283b3d338",
        "f1eaee70ad96621ee12f61af535fdee32c06e3ed28782fd3134f51ed203db795",
        "20fa1d25eea4ac0573ced5bce8ba2d01613787583a1b2fe19d14380283b3d338"),
    ("arbitrum", "no-pump-delta-flush"): (
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "aac83ebee2ab2d903e09e7d0cde14fbc950d462490a432be7ef2b688459ba6dc",
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "aac83ebee2ab2d903e09e7d0cde14fbc950d462490a432be7ef2b688459ba6dc"),
    ("arbitrum", "open-only"): (
        "7529b5e98345390a2475dfa1a4582e62447ab304164c872c8c19f84491884dc6",
        "f31f658eec0a708cd5660b18e90323bc43c842157f1115cd38964209e27b7fa2",
        "7529b5e98345390a2475dfa1a4582e62447ab304164c872c8c19f84491884dc6",
        "f31f658eec0a708cd5660b18e90323bc43c842157f1115cd38964209e27b7fa2"),
    ("arbitrum", "overdraft-refused"): (
        "a725a7af25c0ed701bc19929ad5d87ad339d1e83f126a044f7601b7e001e5e5d",
        "bb5dbc63b52071e32a154aa0f2a8b0a8363df3e25de9ba3e47713eb0ce94561f",
        "a725a7af25c0ed701bc19929ad5d87ad339d1e83f126a044f7601b7e001e5e5d",
        "bb5dbc63b52071e32a154aa0f2a8b0a8363df3e25de9ba3e47713eb0ce94561f"),
    ("arbitrum", "pay-both-directions"): (
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208",
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208"),
    ("arbitrum", "pay-pipeline"): (
        "284bab56f8f672b673d347218640ce37014cde9718f42cc9ffca0b9480dd8d96",
        "023eef5fd27324f40c805f3fdf2ab1481e921fc19b418ce6db2a03dfdc19f4cc",
        "284bab56f8f672b673d347218640ce37014cde9718f42cc9ffca0b9480dd8d96",
        "023eef5fd27324f40c805f3fdf2ab1481e921fc19b418ce6db2a03dfdc19f4cc"),
    ("arbitrum", "pay-race-same-step"): (
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208",
        "2e09502517541e87dcdaef609c816a3e8b869f1b75c0c5eca398be647b00c473",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208"),
    ("arbitrum", "read-heavy"): (
        "4baf17f6f52082714a0615e77db01fdeb89b095a839ffdbe4c45be285947b647",
        "370e8382bbfbf0034843ecf13984c7e1d703a83bf3297d8ee5bc76068bb51467",
        "4baf17f6f52082714a0615e77db01fdeb89b095a839ffdbe4c45be285947b647",
        "370e8382bbfbf0034843ecf13984c7e1d703a83bf3297d8ee5bc76068bb51467"),
    ("arbitrum", "self-publish-rescue"): (
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "aa48fee498cce156d1c4ed2eaffef06d7d53f3af81cfd0a9f789b3623c539ae9",
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "aa48fee498cce156d1c4ed2eaffef06d7d53f3af81cfd0a9f789b3623c539ae9"),
    ("arbitrum", "settle-after-traffic"): (
        "fe43d2d602f0885e16acef0d351e268b6980af677680e607df28525e3d0f9511",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84",
        "fe43d2d602f0885e16acef0d351e268b6980af677680e607df28525e3d0f9511",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84"),
    ("arbitrum", "settle-fresh"): (
        "f688e5b3eacfa1800b736adff427a1b64ea607eb5f2b85759a81014568ce5faa",
        "4dcea45779d11892e46886aa4fb965c304dc8f8f033b29b1319e15d14292a684",
        "f688e5b3eacfa1800b736adff427a1b64ea607eb5f2b85759a81014568ce5faa",
        "4dcea45779d11892e46886aa4fb965c304dc8f8f033b29b1319e15d14292a684"),
    ("arbitrum", "shuffled-delivery"): (
        "d9e71baf87a988a2de99a7bd743c51145a9aacbd38435b7ac8e9ef878254eba3",
        "f716145e084e0d9fdce535f1b2fc6e66aaf16b82fcc1f64650acf826e6fd626e",
        "d9e71baf87a988a2de99a7bd743c51145a9aacbd38435b7ac8e9ef878254eba3",
        "f716145e084e0d9fdce535f1b2fc6e66aaf16b82fcc1f64650acf826e6fd626e"),
    ("arbitrum", "single-pay"): (
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "9df6df6a8238c365c38d568193e1a4749227d5a2baf69f4cea5a38fde771cd5e",
        "413d69d99bee1f752c564b2577567b9e95b28c6ffcbcf37e8d26a0d57120830b",
        "9df6df6a8238c365c38d568193e1a4749227d5a2baf69f4cea5a38fde771cd5e"),
    ("arbitrum", "withdraw-exit"): (
        "c102202735656fb08051016a353f0e460d72e8ddb48a0fd0f7494717222935ba",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84",
        "c102202735656fb08051016a353f0e460d72e8ddb48a0fd0f7494717222935ba",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84"),
}

# (protocol, seed, adversarial) -> the same four digests
LIFECYCLE_OUTPUTS = {
    ("brick", 1, False): (
        "9b49fa3eaf6643069a3a7d37f253730fc8a03272abb7da998566422bc087367d",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849",
        "9b49fa3eaf6643069a3a7d37f253730fc8a03272abb7da998566422bc087367d",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849"),
    ("brick", 1, True): (
        "9db72dfdab370590dfc778aa8ea18196bb5ddd2ee60b7391aad0431a1607763b",
        "5545f4e50dfebb80b1698be781316268e43005563f498cd83ed30aba97d35546",
        "9db72dfdab370590dfc778aa8ea18196bb5ddd2ee60b7391aad0431a1607763b",
        "5545f4e50dfebb80b1698be781316268e43005563f498cd83ed30aba97d35546"),
    ("brick", 2, False): (
        "97b641c21b61414016ffd657502710fb5d7fe3528cd3abda2ff61a053ac3e7e6",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849",
        "97b641c21b61414016ffd657502710fb5d7fe3528cd3abda2ff61a053ac3e7e6",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849"),
    ("brick", 2, True): (
        "f9c0d54453fbfa0942dc62387b16c8ebde283fc9e312aeb9f5b698c8e7c9967b",
        "5545f4e50dfebb80b1698be781316268e43005563f498cd83ed30aba97d35546",
        "f9c0d54453fbfa0942dc62387b16c8ebde283fc9e312aeb9f5b698c8e7c9967b",
        "5545f4e50dfebb80b1698be781316268e43005563f498cd83ed30aba97d35546"),
    ("brick", 3, False): (
        "f52b3f9f71cda5c5448a454d9ad94ba2b8990b2155f11befd142d4efc1ab1bd1",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849",
        "f52b3f9f71cda5c5448a454d9ad94ba2b8990b2155f11befd142d4efc1ab1bd1",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849"),
    ("brick", 3, True): (
        "c752f48bfd1b95ed21843f0559f83f82000a20af4878fbf0c5d078ca283d6719",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849",
        "c752f48bfd1b95ed21843f0559f83f82000a20af4878fbf0c5d078ca283d6719",
        "340e9f76c9bb90d8c887840716037c6a0748abb709044917ed68e3e04bcfa849"),
    ("liquid", 1, False): (
        "1a4ede4a14c31622652cb9a4c7f02e024c29ea93249adbc8f71e150c6b857513",
        "a5f40cdbceab6f7a2d024e2964b67841c4461b39ba79600082fe9f7be4b2ca48",
        "1a4ede4a14c31622652cb9a4c7f02e024c29ea93249adbc8f71e150c6b857513",
        "a5f40cdbceab6f7a2d024e2964b67841c4461b39ba79600082fe9f7be4b2ca48"),
    ("liquid", 1, True): (
        "d9b96ee3ede9a12824bc72ab588e2d1fbd819160cdd6b09527aaff71c244607b",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1",
        "d9b96ee3ede9a12824bc72ab588e2d1fbd819160cdd6b09527aaff71c244607b",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1"),
    ("liquid", 2, False): (
        "321b55933814ec82f44ff9272ea4b0e0c8326878afd20222fb6997d2274ae7a8",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2",
        "321b55933814ec82f44ff9272ea4b0e0c8326878afd20222fb6997d2274ae7a8",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2"),
    ("liquid", 2, True): (
        "cb43653d183d0df09b6a72f88ed37af40f2e4ab1ce245f2e44efbbd881728f61",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1",
        "cb43653d183d0df09b6a72f88ed37af40f2e4ab1ce245f2e44efbbd881728f61",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1"),
    ("liquid", 3, False): (
        "1e4fe4c13d34d76ab8eb5480949ad0e42b059c5ffbf5e60991c91c7782b507dc",
        "55c8246de151d3d73c8c025c9ea3663571439c12397e0c2e5a4e595a757034b8",
        "1e4fe4c13d34d76ab8eb5480949ad0e42b059c5ffbf5e60991c91c7782b507dc",
        "55c8246de151d3d73c8c025c9ea3663571439c12397e0c2e5a4e595a757034b8"),
    ("liquid", 3, True): (
        "030471836c9ac689e47b8a2286dcc273a84dd8696563be2bade6f75970b26b1b",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2",
        "030471836c9ac689e47b8a2286dcc273a84dd8696563be2bade6f75970b26b1b",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2"),
    ("arbitrum", 1, False): (
        "53352821342994eb83d76c862a4a38c1e6989c656399baa86d058dbbc16be93c",
        "1e1fd9b96739c601f14ad6a4f5d13c1f08c22951ce11e57d69e2d3244928922f",
        "53352821342994eb83d76c862a4a38c1e6989c656399baa86d058dbbc16be93c",
        "1e1fd9b96739c601f14ad6a4f5d13c1f08c22951ce11e57d69e2d3244928922f"),
    ("arbitrum", 1, True): (
        "58bec5ffb3a7a63c4f1de42fecfc049821b94c66005d701adf0f6488d8743d8b",
        "3d125417dac58861d8a803ac705458628519743cb7046fdeb309c1e488508cf5",
        "58bec5ffb3a7a63c4f1de42fecfc049821b94c66005d701adf0f6488d8743d8b",
        "3d125417dac58861d8a803ac705458628519743cb7046fdeb309c1e488508cf5"),
    ("arbitrum", 2, False): (
        "c66fe24ad277393dfb2c586861fe7bdcb931a0cafccd6feb57001fff13730405",
        "3c851140fdc01050042c666aa8a9d393ec14c9d1e82d50c6c56f151f02505830",
        "c66fe24ad277393dfb2c586861fe7bdcb931a0cafccd6feb57001fff13730405",
        "3c851140fdc01050042c666aa8a9d393ec14c9d1e82d50c6c56f151f02505830"),
    ("arbitrum", 2, True): (
        "eb7e08d5178355da1585594c9f9b3e3263c9918755895b4acb0bc50340af6189",
        "11e509e1009d15748a5d69b7a30a1cf69994be81d7b98775b167c74ccf3100c1",
        "eb7e08d5178355da1585594c9f9b3e3263c9918755895b4acb0bc50340af6189",
        "11e509e1009d15748a5d69b7a30a1cf69994be81d7b98775b167c74ccf3100c1"),
    ("arbitrum", 3, False): (
        "91f47f62f1f32ea14b5e1a0c131f683617df376d790a706f606eab557d73a168",
        "0cb67b6872c75ba5e1e28a5f0474d4fcac5c0fb0f37333ff34f964d4115d119c",
        "91f47f62f1f32ea14b5e1a0c131f683617df376d790a706f606eab557d73a168",
        "0cb67b6872c75ba5e1e28a5f0474d4fcac5c0fb0f37333ff34f964d4115d119c"),
    ("arbitrum", 3, True): (
        "ec7ab31f30cb171a1f7a207c3f67bf6cf277cf42e2830cb68617d75e72fae08d",
        "ff67957301340b204a61549c459f412e579cd92397c82471c541e991dc3378f7",
        "ec7ab31f30cb171a1f7a207c3f67bf6cf277cf42e2830cb68617d75e72fae08d",
        "ff67957301340b204a61549c459f412e579cd92397c82471c541e991dc3378f7"),
}


def table_digests(name, scn, schedule):
    """((real, ideal) witness digests, the four output digests)."""
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    witnesses, outputs = (), ()
    for run in (real, ideal):
        checks = all_checks(name, scn, run.trace)
        witnesses += (witnesses_digest(checks),)
        outputs += (sha(full_view_projection(run.trace)),
                    sha([v.to_record() for v in checks]))
    return witnesses, outputs


def test_verdict_table_covers_every_scripted_schedule():
    labels = {(name, label) for name, proto in harness.PROTOCOLS.items()
              for label in harness.scripted_schedules(
                  name, proto.canonical_scenario())}
    assert labels == set(SCRIPTED_WITNESSES) == set(SCRIPTED_OUTPUTS)
    assert set(LIFECYCLE_WITNESSES) == set(LIFECYCLE_OUTPUTS)


@pytest.mark.parametrize("name, label", list(SCRIPTED_WITNESSES))
def test_scripted_verdicts(name, label):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.scripted_schedules(name, scn)[label]
    witnesses, outputs = table_digests(name, scn, schedule)
    assert outputs == SCRIPTED_OUTPUTS[name, label]
    assert witnesses == SCRIPTED_WITNESSES[name, label]


@pytest.mark.parametrize("name, seed, adversarial", list(LIFECYCLE_WITNESSES))
def test_lifecycle_verdicts(name, seed, adversarial):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adversarial)
    witnesses, outputs = table_digests(name, scn, schedule)
    assert outputs == LIFECYCLE_OUTPUTS[name, seed, adversarial]
    assert witnesses == LIFECYCLE_WITNESSES[name, seed, adversarial]


# -- the all-pairs safety check, kept as the reference -----------------------


def reference_is_prefix(shorter, longer):
    def key(e):
        return (e.get("kind"), e.get("seq"), canon(e.get("state")))
    keys_a = [key(e) for e in shorter]
    keys_b = [key(e) for e in longer]
    return keys_b[:len(keys_a)] == keys_a


def reference_check_safety(trace, f) -> Verdict:
    name = "safety"
    counts = dict(Counter(party.split(":", 1)[0]
                          for party in properties.corrupted_parties(trace)))
    if not properties._within(f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    views = read_views(trace)
    by_party = {}
    for v in views:
        by_party.setdefault(v.party, []).append(v)
    for party, vs in by_party.items():
        vs.sort(key=lambda v: (v.round, v.step))
        for a, b in zip(vs, vs[1:]):
            if not reference_is_prefix(a.executed, b.executed):
                return Verdict(name, False,
                               witness=[properties._view_event(a),
                                        properties._view_event(b)],
                               params={"clause": "self-consistency",
                                       "party": party, "f": f})
    flat = sorted(views, key=lambda v: (v.round, v.step))
    for i, a in enumerate(flat):
        for b in flat[i + 1:]:
            if a.party == b.party:
                continue
            if not (reference_is_prefix(a.executed, b.executed)
                    or reference_is_prefix(b.executed, a.executed)):
                return Verdict(name, False,
                               witness=[properties._view_event(a),
                                        properties._view_event(b)],
                               params={"clause": "view-consistency",
                                       "parties": [a.party, b.party], "f": f})
    return Verdict(name, True, params={"f": f, "views": len(views)},
                   vacuous=not views)


# -- hand-built traces -------------------------------------------------------

A, B, C, D = (f"{CLIENT}:{p}" for p in "ABCD")


def event(t, party, rnd, step, **fields):
    return {"t": t, "party": party, "round": rnd, "step": step, **fields}


def read(party, rnd, step, executed):
    state = executed[-1]["state"] if executed else None
    return event("output", party, rnd, step,
                 payload={"kind": "read-result", "state": state,
                          "pointer": len(executed), "executed": executed})


def corrupt(party, rnd, step):
    return event("corrupt", party, rnd, step)


# entries shared between views, as read results share them in real runs
LETTERS = {c: {"kind": UPDATE, "seq": i, "state": {"seq": i, "tag": c}}
           for i, c in enumerate("oxyzw")}


def chain(text):
    return [LETTERS[c] for c in text]


SAFETY_CASES = {
    "self-consistency-break": (
        [read(A, 1, 1, chain("ox")), read(B, 1, 2, chain("o")),
         read(A, 2, 3, chain("oy"))], {CLIENT: 0}),
    "first-failing-pair-avoids-longest": (
        [read(A, 1, 1, chain("ox")), read(B, 2, 2, chain("oy")),
         read(C, 3, 3, chain("oyzw"))], {CLIENT: 0}),
    "equal-length-divergent-longest": (
        [read(A, 1, 1, chain("o")), read(B, 2, 2, chain("oxz")),
         read(C, 2, 3, chain("oyz"))], {CLIENT: 0}),
    "same-party-views-skipped": (
        [read(A, 1, 1, chain("o")), read(B, 1, 2, chain("ox")),
         read(A, 2, 3, chain("ox")), read(A, 3, 4, chain("oxyz")),
         read(B, 4, 5, chain("oxy"))], {CLIENT: 0}),
    "corruptions-over-f": (
        [corrupt(B, 1, 1), read(A, 2, 2, chain("ox")),
         read(B, 2, 3, chain("oy"))], {CLIENT: 0}),
    "corrupted-reader-ignored": (
        [corrupt(B, 1, 1), read(A, 2, 2, chain("ox")),
         read(B, 2, 3, chain("oy"))], {CLIENT: 1}),
    "no-views": ([], {CLIENT: 0}),
}

# label -> (passed, vacuous, clause, parties of the failing pair)
SAFETY_EXPECTED = {
    "self-consistency-break": (False, False, "self-consistency", None),
    "first-failing-pair-avoids-longest": (
        False, False, "view-consistency", [A, B]),
    "equal-length-divergent-longest": (
        False, False, "view-consistency", [B, C]),
    "same-party-views-skipped": (True, False, None, None),
    "corruptions-over-f": (True, True, None, None),
    "corrupted-reader-ignored": (True, False, None, None),
    "no-views": (True, True, None, None),
}


def assert_same_verdict(got, want):
    assert got.to_record() == want.to_record()
    assert canon(got.witness) == canon(want.witness)


@pytest.mark.parametrize("label", list(SAFETY_CASES))
def test_safety_matches_reference(label):
    events, f = SAFETY_CASES[label]
    trace = as_trace(events)
    got = check_safety(trace, f)
    assert_same_verdict(got, reference_check_safety(trace, f))
    assert (got.passed, got.vacuous, got.params.get("clause"),
            got.params.get("parties")) == SAFETY_EXPECTED[label]
    if not got.passed:
        assert not check_safety(as_trace(got.witness), f).passed


class CanonCounter:
    def __init__(self):
        self.calls = 0

    def __call__(self, obj):
        self.calls += 1
        return canon(obj)


def distinct_states(trace):
    return len({id(e.get("state"))
                for v in read_views(trace) for e in v.executed})


STATE_POOL = [None] + [{"seq": i, "tag": t} for i in range(2) for t in "ab"]


@st.composite
def view_sets(draw):
    """Reads of 2-4 parties over a small entry alphabet, rounds shuffled.

    Each party reads growing prefixes of its own branch of one base
    history, and now and then a view with a stray tail, so passing sets,
    self-consistency breaks and cross-party forks all occur.
    """
    alphabet = st.builds(
        lambda kind, seq, state: {"kind": kind, "seq": seq,
                                  "state": STATE_POOL[state]},
        st.sampled_from([OPEN, UPDATE]), st.integers(0, 2),
        st.integers(0, len(STATE_POOL) - 1))
    parties = [f"{CLIENT}:p{i}" for i in range(draw(st.integers(2, 4)))]
    base = draw(st.lists(alphabet, max_size=4))
    branches = {p: base + draw(st.lists(alphabet, max_size=3))
                for p in parties}
    reads = [(draw(st.sampled_from(parties)), draw(st.integers(0, 4)), step)
             for step in range(draw(st.integers(2, 8)))]
    cuts = {}
    events = []
    for party, rnd, step in sorted(reads, key=lambda r: (r[1], r[2])):
        cuts[party] = draw(st.integers(cuts.get(party, 0),
                                       len(branches[party])))
        executed = branches[party][:cuts[party]]
        if draw(st.integers(0, 9)) == 0:
            executed = executed + draw(st.lists(alphabet, min_size=1,
                                                max_size=2))
        events.append(read(party, rnd, step, executed))
    events = draw(st.permutations(events))
    bad = draw(st.lists(st.sampled_from(parties), max_size=1))
    events = [corrupt(p, 0, -1) for p in bad] + list(events)
    return events, {CLIENT: draw(st.integers(0, 2))}


@settings(max_examples=300, deadline=None)
@given(view_sets())
def test_safety_matches_reference_on_random_views(case):
    events, f = case
    trace = as_trace(events)
    counter = CanonCounter()
    saved = properties.canon
    properties.canon = counter
    try:
        got = check_safety(trace, f)
    finally:
        properties.canon = saved
    assert_same_verdict(got, reference_check_safety(trace, f))
    assert counter.calls <= distinct_states(trace) + 1
    if not got.passed:
        assert not check_safety(as_trace(got.witness), f).passed


# -- liveness and settlement on failing traces ------------------------------

LIVE = {"f": {CLIENT: 0}, "t_l2": 4, "t_l1": 2}       # deadline: round + 6


def entry(seq, txs=()):
    return {"kind": UPDATE, "seq": seq, "state": {"seq": seq},
            "txs": list(txs)}


GENESIS = {"kind": OPEN, "seq": 0, "state": {"seq": 0}}
PAY_B = {"op": "pay", "from": "B", "to": "C", "amt": 1, "nonce": 1}
MINT_A = {"op": "mint", "to": "A", "amt": 5, "ref": "dep-1"}


def horizon(rnd):
    return event("note", D, rnd, 99, kind="tick")


def inp(party, rnd, step, **payload):
    return event("input", party, rnd, step, payload=payload)


def note(party, rnd, step, kind, **fields):
    return event("note", party, rnd, step, kind=kind, **fields)


def out(party, rnd, step, **payload):
    return event("output", party, rnd, step, payload=payload)


def commit(rnd, step, kind):
    return [event("ledger-submit", "chain", rnd, step, accepted=True,
                  txid=f"tx-{kind}", kind=kind, author=A, body={}),
            event("ledger-commit", "chain", rnd, step, height=1,
                  txids=[f"tx-{kind}"])]


# label -> (check kind, events)
LIVENESS_CASES = {
    "deposit-never-minted": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        read(B, 3, 2, [GENESIS, entry(1, [PAY_B])]),
        read(B, 8, 3, [GENESIS, entry(1, [PAY_B]), entry(2, [MINT_A])]),
        horizon(20)]),
    "deposit-minted-at-deadline": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        read(B, 7, 2, [GENESIS, entry(1, [MINT_A])]),
        horizon(20)]),
    "second-deposit-needs-second-mint": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        inp(A, 2, 2, kind="deposit", amt=5),
        read(B, 4, 3, [GENESIS, entry(1, [MINT_A])]),
        horizon(20)]),
    "queued-pay-nonce-missing": (UPDATE, [
        inp(B, 1, 1, kind="pay", to="C", amt=1),
        note(B, 1, 2, "request-queued", req="pay", nonce=2),
        read(C, 4, 3, [GENESIS, entry(1, [PAY_B])]),
        horizon(20)]),
    "queued-pay-nonce-seen": (UPDATE, [
        inp(B, 1, 1, kind="pay", to="C", amt=1),
        note(B, 1, 2, "request-queued", req="pay", nonce=1),
        read(C, 4, 3, [GENESIS, entry(1, [PAY_B])]),
        horizon(20)]),
    "kth-update-missing": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        note(A, 1, 2, "request-queued", req="pay", seq=1),
        inp(A, 2, 3, kind="pay", amt=1),
        note(A, 2, 4, "request-queued", req="pay", seq=2),
        read(B, 5, 5, [GENESIS, entry(1)]),
        read(B, 9, 6, [GENESIS, entry(1), entry(2)]),
        horizon(20)]),
    "pay-never-sent": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        read(B, 5, 2, [GENESIS, entry(1)]),
        horizon(20)]),
    "open-without-open-ok": (OPEN, [
        inp(A, 1, 1, kind="open"),
        out(A, 9, 2, kind="open-ok", state={"seq": 0}),
        horizon(20)]),
    "open-confirmed": (OPEN, [
        inp(A, 1, 1, kind="open"),
        out(A, 7, 2, kind="open-ok", state={"seq": 0}),
        horizon(20)]),
    "settle-confirmed-before-request": (SETTLEMENT, [
        out(A, 1, 1, kind="settle-ok", state={"seq": 0}),
        inp(A, 2, 2, kind="settle"),
        horizon(20)]),
    "exec-clears-rid-late": (UPDATE, [
        event("leak", "funct", 1, 1,
              data={"kind": "submit",
                    "req": {"by": "A", "kind": UPDATE, "rid": 7, "round": 1,
                            "body": {"kind": "pay"}}}),
        event("exec", "funct", 3, 2, kind=UPDATE, seq=1, rids=[6]),
        event("exec", "funct", 8, 3, kind=UPDATE, seq=2, rids=[7]),
        horizon(20)]),
}

# label -> (record, witness sha256) as the checks gave them before the
# one-pass rework; second-deposit-needs-second-mint recorded again when a
# deposit's witness began to carry its depositor's earlier deposits
LIVENESS_EXPECTED = {
    "deposit-never-minted": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "fca613b222977c337a5dc727ec61c1bf9bf4b7f08331f6b2d4f2cc7a2edb0a8c"),
    "deposit-minted-at-deadline": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "update",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "second-deposit-needs-second-mint": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 4},
        "dcd906287c8a68a5b81dfbf9f5a8c65d99d6b4625ffa1033e5e9db1e1bbae54f"),
    "queued-pay-nonce-missing": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "B",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "1292d17d868628870571d13b339ef6e3f2134f329862c3577845b9d10d57cf68"),
    "queued-pay-nonce-seen": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "update",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "kth-update-missing": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "c76b95eb19a0ca61d796cbf86a9dcad5190b9177cf230bb2c013206c900c1cd6"),
    "pay-never-sent": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "2b535a08b7a4c083fe678505d57435ae48a65f009d83068f31f3fb47b8000d21"),
    "open-without-open-ok": (
        {"record": "verdict",
         "property": "liveness-open",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "open",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "97bb55b21841186d0157b5a8a93972a3a76dc1b397920a06106825058f6ab4ee"),
    "open-confirmed": (
        {"record": "verdict",
         "property": "liveness-open",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "open",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "settle-confirmed-before-request": (
        {"record": "verdict",
         "property": "liveness-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "settlement",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "98796b6f20fc09c0e52955540ac0d99f57b7d4e672da26dc8938cc045279b67e"),
    "exec-clears-rid-late": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "ce3e7525b01d2da9df2675b88fbc58ffb7dbcb1b2c9ed0f73be790c682599185"),
}


@pytest.mark.parametrize("label", list(LIVENESS_CASES))
def test_liveness_on_hand_built_traces(label):
    kind, events = LIVENESS_CASES[label]
    v = check_liveness(as_trace(events), kind, LIVE)
    record, witness = LIVENESS_EXPECTED[label]
    assert v.to_record() == record
    assert witness_digest(v) == witness


@pytest.mark.parametrize("label", [
    label for label in LIVENESS_CASES
    if not LIVENESS_EXPECTED[label][0]["pass"]])
def test_liveness_witness_replays(label):
    kind, events = LIVENESS_CASES[label]
    v = check_liveness(as_trace(events), kind, LIVE)
    again = check_liveness(as_trace(v.witness), kind, LIVE)
    assert not again.passed and again.params == v.params


def stale_view():
    return read(B, 3, 1, [GENESIS, entry(1), entry(2)])


SETTLEMENT_CASES = {
    "stale-settlement": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 1}),
        *commit(5, 3, "settle")],
    "stale-but-explicit-anchor": [
        stale_view(), inp(A, 4, 2, kind="settle", seq=1),
        out(A, 5, 3, kind="settle-ok", state={"seq": 1}),
        *commit(5, 4, "settle")],
    "fresh-settlement": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 2}),
        *commit(5, 3, "peg-out")],
    "no-close-record-on-chain": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 2}),
        *commit(5, 3, "deposit")],
    "later-view-not-counted": [
        out(A, 2, 1, kind="settle-ok", state={"seq": 1}), stale_view(),
        *commit(2, 2, "settle")],
}

SETTLEMENT_EXPECTED = {
    "stale-settlement": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"settled_at": 1, "latest_known": 2},
         "witness_len": 2},
        "efc4d88c2dd8d4af616c4f6cd7d726d4f052fe5a47b9a39c66b61ba69e7bbcff"),
    "stale-but-explicit-anchor": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "fresh-settlement": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "no-close-record-on-chain": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"reason": "no-close-record-on-chain"},
         "witness_len": 1},
        "e41018df82d1be844d21e1c55f581426f54a1038183e3e914af1566984847420"),
    "later-view-not-counted": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}


@pytest.mark.parametrize("label", list(SETTLEMENT_CASES))
def test_settlement_on_hand_built_traces(label):
    v = check_correct_settlement(as_trace(SETTLEMENT_CASES[label]))
    record, witness = SETTLEMENT_EXPECTED[label]
    assert v.to_record() == record
    assert witness_digest(v) == witness
    if not v.passed:
        assert not check_correct_settlement(as_trace(v.witness)).passed
