"""Property checks: pinned verdicts, a reference safety check, failing traces.

The verdict tables pin the real and the ideal trace of every scripted
schedule and of the golden lifecycles (seeds 1-3, ten payments, honest
and adversarial) in two parts.  The output tables hold a sha256 of each
reader's whole views and one of every check's record; they were recorded
while each read still carried its reader's whole view, and since then
only the projection digests were recorded again, when states changed
shape (below).  The witness tables hold a sha256 of every check's witness;
they were recorded before the checks were reworked to build evidence
keys once per view, and again when reads began to carry only their delta
(a witness read carries its whole view from ``base`` 0).  The witness
rows that hold a read event (the real run of liquid
deposit-then-withdraw) were recorded once more when a read stopped
carrying its tip state and pointer.  The ideal run of liquid
deposit-then-withdraw was recorded again (its record and witness digests)
when update liveness came to be judged from honest reads in both runs:
an exec record had served its deposit, while no honest read shows the
mint by the round-14 deadline, so it now fails as the real run does and
the two record digests are equal.  The real witness digest of liquid
deposit-then-withdraw was recorded again when the leader began to propose
from its own ``on_round`` instead of from a clock nudge: its witness
events are the same but for their step numbers, which shifted when the
nudges' deliveries left the trace.  When an account state's list of
minted deposit txids became a watermark (``minted_upto``,
``minted_above``), the projection digests of every liquid and rollup row
(34 scripted and 12 lifecycle, real and ideal) were recorded again,
because the views hold states; every record digest stayed the same.  So
did every witness digest but the two of liquid deposit-then-withdraw,
whose witnesses hold a read of account states.  When both runs came to
get the same inputs, and an interface run's requests came to be read from
its inputs, each paired with its ``submit-result``, the ideal witness and
record digests of liquid deposit-then-withdraw were recorded again: its
failing deposit request now carries its answer, so the witness holds the
input and its submit-result (``witness_len`` 4 became 5, while the real
deposit has no answer and keeps 4).  Every projection digest and every
other row stayed the same.  When a real account client came to answer a
deposit with a ``request-queued`` note, the real witness and record
digests of liquid deposit-then-withdraw were recorded again: its failing
deposit request carries its answer as the ideal one does (``witness_len``
4 became 5), so the two record digests are equal.  When the interface
came to answer a submit with the ``request-queued`` or
``request-refused`` note a real client writes, instead of a
``submit-result``, the ideal witness digest of liquid
deposit-then-withdraw was recorded again: its witness holds that answer.
Its record digest and every other row stayed the same.  A change that
moves a verdict or a witness has to say why.

``reference_check_safety`` keeps the all-pairs safety check that the
one-pass ``check_safety`` replaced; the two are compared on hand-built
failing traces and on random view sets.  The hand-built liveness and
settlement traces pin the verdicts the checks gave before that rework
(their witness digests recorded again with delta reads, and those with a
read event again when reads dropped their tip state and pointer; the
update cases reworked when both runs came to be judged by one rule over
honest reads), and every failing witness must fail again, with the same
parameters, when checked on its own.
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
    summarize,
)
from l2sim.trace import canon

from golden_audit import all_checks


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
    ``properties.read_views``.  Reads and settle-oks once also carried the
    fields the output tables below were recorded with, and no longer do
    because the whole view gives them: a read's ``state`` (the state of
    its view's last entry before the settled one) and ``pointer`` (that
    entry's index), and a settle-ok's constant ``success``.  They are
    derived here, so the tables pin that the fields were redundant.
    """
    per = harness.output_projection(trace)
    texts, prev, seen = {}, {}, {}
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        party, p = ev["party"], ev["payload"]
        i = seen[party] = seen.get(party, -1) + 1
        if p.get("kind") == "settle-ok":
            per[party][i] = dict(per[party][i], success=True)
        if p.get("kind") != "read-result":
            continue
        entries = prev.get(party, [])[:p.get("base", 0)] + list(p["executed"])
        prev[party] = entries
        tip = {"state": entries[-1]["state"], "pointer": len(entries) - 1}
        if p.get("settled") is not None:
            entries = entries + [settled_entry(p["settled"])]
        per[party][i] = {"kind": "read-result", **tip,
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
        "2a215e730a2372a45e8d276f9956560f064a7b99521053fe18d86b35aae66fd3",
        "6ddff74ecfd846d314602eda9ae648a6c664a7bf94b547ac99efb7ff2a519042"),
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
# the confirmation of a client corrupted later (2 became 1).  The ideal
# records of brick overdraft-refused were recorded again when the brick
# bundle began to refuse an overdraft at submit, as the real client does:
# its update-liveness ``beyond_horizon`` went from 2 to the real run's 1,
# so both runs' records are now equal.

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
        "d66fb6b8212e34ecf96bafe71687ef319eef408cd8314effca6abb0e6f6ea57f"),
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
        "710ec71324e3e430d3ac076c32064508f364fd155afc45bc49ddd35b3f48357e",
        "50e0d243c8ab2df5dbc8769bb7a32b1d74ecd0150593b9e7755145762857acf6",
        "710ec71324e3e430d3ac076c32064508f364fd155afc45bc49ddd35b3f48357e",
        "50e0d243c8ab2df5dbc8769bb7a32b1d74ecd0150593b9e7755145762857acf6"),
    ("liquid", "corrupt-operator-rotation"): (
        "f95cbceba0aad9f10f8e44860ad556e2637a48d291288dea9594ae8f64498fd6",
        "d1cbc030faaebe661a0726396fb41f005c5d5a6ee13282abd643e6d95c57c98a",
        "f95cbceba0aad9f10f8e44860ad556e2637a48d291288dea9594ae8f64498fd6",
        "d1cbc030faaebe661a0726396fb41f005c5d5a6ee13282abd643e6d95c57c98a"),
    ("liquid", "deposit-mint"): (
        "6e1b78afb1d5160e73dc420f601df7b148b12312e28058230f8b94eeb1849594",
        "985fb39d7b4a3940e3367e159d3be914364ca5624ef43dfb01074393d0e79fc2",
        "6e1b78afb1d5160e73dc420f601df7b148b12312e28058230f8b94eeb1849594",
        "985fb39d7b4a3940e3367e159d3be914364ca5624ef43dfb01074393d0e79fc2"),
    ("liquid", "deposit-then-withdraw"): (
        "0e61a1c911a416dff26d2ca258370fe1a692964b627206e396ee3494be283121",
        "03919c254b70303875a4ccbafdf404bec371b96f1d5ac588c21c19da601b4209",
        "0e61a1c911a416dff26d2ca258370fe1a692964b627206e396ee3494be283121",
        "03919c254b70303875a4ccbafdf404bec371b96f1d5ac588c21c19da601b4209"),
    ("liquid", "garbage-triggers"): (
        "91b9eb38ca08d3982fa9b979e31eb3c203bbff1d701d8d626452ee6ba31ca70f",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "91b9eb38ca08d3982fa9b979e31eb3c203bbff1d701d8d626452ee6ba31ca70f",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("liquid", "no-pump-delta-flush"): (
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("liquid", "open-only"): (
        "31e8ff9f803983f44333a2e439bb041aae0304ce62ba251edcae7c0cea23e41e",
        "466e629b5a2f6ba90d0e8881ffd1ce83c12eabeddef8b5564e3b89911342845a",
        "31e8ff9f803983f44333a2e439bb041aae0304ce62ba251edcae7c0cea23e41e",
        "466e629b5a2f6ba90d0e8881ffd1ce83c12eabeddef8b5564e3b89911342845a"),
    ("liquid", "operator-menu-noise"): (
        "91b9eb38ca08d3982fa9b979e31eb3c203bbff1d701d8d626452ee6ba31ca70f",
        "c584a58bc928a40e4bc9cb81abd3fa585eb014940180deb0a33887d162d52da8",
        "91b9eb38ca08d3982fa9b979e31eb3c203bbff1d701d8d626452ee6ba31ca70f",
        "c584a58bc928a40e4bc9cb81abd3fa585eb014940180deb0a33887d162d52da8"),
    ("liquid", "overdraft-refused"): (
        "5e696c3294ffdab432b425512f3c913fb16768247bfd13d5d5aaa772b1bdd215",
        "8e6e6c757edb617218a70c0b9091797bd8570bf84264a2d807b14fb62e15db10",
        "5e696c3294ffdab432b425512f3c913fb16768247bfd13d5d5aaa772b1bdd215",
        "8e6e6c757edb617218a70c0b9091797bd8570bf84264a2d807b14fb62e15db10"),
    ("liquid", "pay-both-directions"): (
        "687494b3423526f7ec0eaa53adcd8cb73f56131d6c85231e2110af9b3234eac3",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02",
        "687494b3423526f7ec0eaa53adcd8cb73f56131d6c85231e2110af9b3234eac3",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02"),
    ("liquid", "pay-pipeline"): (
        "0ca4f455114c7cd85a57193ef2816bb8efe42b2e433cc48c0afe242bdb4e3425",
        "eeab67732c7b9fd89c4e54a3b621ee1c88c8dd934af1b309a41c941241943644",
        "0ca4f455114c7cd85a57193ef2816bb8efe42b2e433cc48c0afe242bdb4e3425",
        "eeab67732c7b9fd89c4e54a3b621ee1c88c8dd934af1b309a41c941241943644"),
    ("liquid", "pay-race-same-step"): (
        "b5ed392548a8a4c8a37a9babcf2a473562ddaf8892261c3d7c4669ce831030ee",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02",
        "b5ed392548a8a4c8a37a9babcf2a473562ddaf8892261c3d7c4669ce831030ee",
        "6e83916676f529b5017a37f67de09143eddb263acb9cb6b2832c87150fd42b02"),
    ("liquid", "read-heavy"): (
        "13a9490c28a7ca3c7250f62ddd9a20443e9a6d58dc3dbcb95a3d6bca65a8fa8e",
        "12e58fa85347f876683f007204d229dff02e91c1911d9e63f4d230bf4f25b8b2",
        "13a9490c28a7ca3c7250f62ddd9a20443e9a6d58dc3dbcb95a3d6bca65a8fa8e",
        "12e58fa85347f876683f007204d229dff02e91c1911d9e63f4d230bf4f25b8b2"),
    ("liquid", "settle-after-traffic"): (
        "c44aecc8f29615629c4cfdb7b245172730a785ada15ba608e93626a903f63316",
        "3958728229378bd8b6c9051ae7be9940671b44429323621a925f994154f09f50",
        "c44aecc8f29615629c4cfdb7b245172730a785ada15ba608e93626a903f63316",
        "3958728229378bd8b6c9051ae7be9940671b44429323621a925f994154f09f50"),
    ("liquid", "settle-fresh"): (
        "670cfbfb7f49f25de1daef686f97c1cd19b8fb84cb1d18056685be51cfd5588e",
        "a70f6a7c445c517bd24044c4cbb3193ef9d75d242d7577a02a89b350d62d88f5",
        "670cfbfb7f49f25de1daef686f97c1cd19b8fb84cb1d18056685be51cfd5588e",
        "a70f6a7c445c517bd24044c4cbb3193ef9d75d242d7577a02a89b350d62d88f5"),
    ("liquid", "shuffled-delivery"): (
        "772ddb0cba621f421ea85cecf9697692bd7d6bb9801c0aeb711e4079de3923bd",
        "2ec7cb5d9aa0e94f49e5d772f0c1df806619df201a21a695fa84bad922ce1325",
        "772ddb0cba621f421ea85cecf9697692bd7d6bb9801c0aeb711e4079de3923bd",
        "2ec7cb5d9aa0e94f49e5d772f0c1df806619df201a21a695fa84bad922ce1325"),
    ("liquid", "single-pay"): (
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47",
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "7edc7453a51a6ef9c248f422eab498b4073fa8dda777f194b33b52e00644db47"),
    ("arbitrum", "deposit-mint"): (
        "8db1af4cbb47493af143d2bf8906af90d2341873a41faed47ea310a2170dee12",
        "44b94c4b02f0f3295aaa59b2dccad65380e831fd8e1ed98f7897bc485b72a531",
        "8db1af4cbb47493af143d2bf8906af90d2341873a41faed47ea310a2170dee12",
        "44b94c4b02f0f3295aaa59b2dccad65380e831fd8e1ed98f7897bc485b72a531"),
    ("arbitrum", "false-accuse-noise"): (
        "ce363af87a6f3f69f3850dc93cddf7441e8258024049622d1d1f9b08e4a6dbf0",
        "5afb80bbe00d3fdecf9fd258d747408b278583eca83ab0b5d32a419ef2d0c26f",
        "ce363af87a6f3f69f3850dc93cddf7441e8258024049622d1d1f9b08e4a6dbf0",
        "5afb80bbe00d3fdecf9fd258d747408b278583eca83ab0b5d32a419ef2d0c26f"),
    ("arbitrum", "fraud-struck"): (
        "4714424767250b8607bcf3b55438818d2c7c4ec1a0bc0b9b31aa69c50d1a76df",
        "d0efecf4268e3a6efd95ec0811512050eb12b3a520e21f7f2dea9a334810af95",
        "4714424767250b8607bcf3b55438818d2c7c4ec1a0bc0b9b31aa69c50d1a76df",
        "d0efecf4268e3a6efd95ec0811512050eb12b3a520e21f7f2dea9a334810af95"),
    ("arbitrum", "garbage-triggers"): (
        "4714424767250b8607bcf3b55438818d2c7c4ec1a0bc0b9b31aa69c50d1a76df",
        "20fa1d25eea4ac0573ced5bce8ba2d01613787583a1b2fe19d14380283b3d338",
        "4714424767250b8607bcf3b55438818d2c7c4ec1a0bc0b9b31aa69c50d1a76df",
        "20fa1d25eea4ac0573ced5bce8ba2d01613787583a1b2fe19d14380283b3d338"),
    ("arbitrum", "no-pump-delta-flush"): (
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "aac83ebee2ab2d903e09e7d0cde14fbc950d462490a432be7ef2b688459ba6dc",
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "aac83ebee2ab2d903e09e7d0cde14fbc950d462490a432be7ef2b688459ba6dc"),
    ("arbitrum", "open-only"): (
        "31e8ff9f803983f44333a2e439bb041aae0304ce62ba251edcae7c0cea23e41e",
        "f31f658eec0a708cd5660b18e90323bc43c842157f1115cd38964209e27b7fa2",
        "31e8ff9f803983f44333a2e439bb041aae0304ce62ba251edcae7c0cea23e41e",
        "f31f658eec0a708cd5660b18e90323bc43c842157f1115cd38964209e27b7fa2"),
    ("arbitrum", "overdraft-refused"): (
        "5e696c3294ffdab432b425512f3c913fb16768247bfd13d5d5aaa772b1bdd215",
        "bb5dbc63b52071e32a154aa0f2a8b0a8363df3e25de9ba3e47713eb0ce94561f",
        "5e696c3294ffdab432b425512f3c913fb16768247bfd13d5d5aaa772b1bdd215",
        "bb5dbc63b52071e32a154aa0f2a8b0a8363df3e25de9ba3e47713eb0ce94561f"),
    ("arbitrum", "pay-both-directions"): (
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208",
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208"),
    ("arbitrum", "pay-pipeline"): (
        "f712db6470532d18bb0ccc277ee40dbabe379188644dd3a6604459de24686055",
        "023eef5fd27324f40c805f3fdf2ab1481e921fc19b418ce6db2a03dfdc19f4cc",
        "f712db6470532d18bb0ccc277ee40dbabe379188644dd3a6604459de24686055",
        "023eef5fd27324f40c805f3fdf2ab1481e921fc19b418ce6db2a03dfdc19f4cc"),
    ("arbitrum", "pay-race-same-step"): (
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208",
        "c10a612de934468b2a2eebbc5e95494249f955456f7a8078d62e8146d4c49c97",
        "e18ba83834c629da476b662fb466cf924aa72879e8b1c751e5e6714f8f721208"),
    ("arbitrum", "read-heavy"): (
        "13a9490c28a7ca3c7250f62ddd9a20443e9a6d58dc3dbcb95a3d6bca65a8fa8e",
        "370e8382bbfbf0034843ecf13984c7e1d703a83bf3297d8ee5bc76068bb51467",
        "13a9490c28a7ca3c7250f62ddd9a20443e9a6d58dc3dbcb95a3d6bca65a8fa8e",
        "370e8382bbfbf0034843ecf13984c7e1d703a83bf3297d8ee5bc76068bb51467"),
    ("arbitrum", "self-publish-rescue"): (
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "aa48fee498cce156d1c4ed2eaffef06d7d53f3af81cfd0a9f789b3623c539ae9",
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "aa48fee498cce156d1c4ed2eaffef06d7d53f3af81cfd0a9f789b3623c539ae9"),
    ("arbitrum", "settle-after-traffic"): (
        "c44aecc8f29615629c4cfdb7b245172730a785ada15ba608e93626a903f63316",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84",
        "c44aecc8f29615629c4cfdb7b245172730a785ada15ba608e93626a903f63316",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84"),
    ("arbitrum", "settle-fresh"): (
        "670cfbfb7f49f25de1daef686f97c1cd19b8fb84cb1d18056685be51cfd5588e",
        "4dcea45779d11892e46886aa4fb965c304dc8f8f033b29b1319e15d14292a684",
        "670cfbfb7f49f25de1daef686f97c1cd19b8fb84cb1d18056685be51cfd5588e",
        "4dcea45779d11892e46886aa4fb965c304dc8f8f033b29b1319e15d14292a684"),
    ("arbitrum", "shuffled-delivery"): (
        "772ddb0cba621f421ea85cecf9697692bd7d6bb9801c0aeb711e4079de3923bd",
        "f716145e084e0d9fdce535f1b2fc6e66aaf16b82fcc1f64650acf826e6fd626e",
        "772ddb0cba621f421ea85cecf9697692bd7d6bb9801c0aeb711e4079de3923bd",
        "f716145e084e0d9fdce535f1b2fc6e66aaf16b82fcc1f64650acf826e6fd626e"),
    ("arbitrum", "single-pay"): (
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "9df6df6a8238c365c38d568193e1a4749227d5a2baf69f4cea5a38fde771cd5e",
        "8a297be5c800c7e715e8bec84f90e4a9d2519f63897873bfe4ebdee0d5f2d827",
        "9df6df6a8238c365c38d568193e1a4749227d5a2baf69f4cea5a38fde771cd5e"),
    ("arbitrum", "withdraw-exit"): (
        "c26179d9bfb569ded56e23c3b7fa3388a2e9c4ce984e80f1ac2bf02d91da8d26",
        "8f2cda728bb632ae20ecf72258db33b093eca68bcf952616f5f4e4ae153f5e84",
        "c26179d9bfb569ded56e23c3b7fa3388a2e9c4ce984e80f1ac2bf02d91da8d26",
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
        "62a4c6495e15c30fef414b8ec26d386144f3b78946532582c2bb61bdd8de4711",
        "a5f40cdbceab6f7a2d024e2964b67841c4461b39ba79600082fe9f7be4b2ca48",
        "62a4c6495e15c30fef414b8ec26d386144f3b78946532582c2bb61bdd8de4711",
        "a5f40cdbceab6f7a2d024e2964b67841c4461b39ba79600082fe9f7be4b2ca48"),
    ("liquid", 1, True): (
        "e9c3366625ebd2f89a5153a832ad0906627add055ccd26b9a7e095aec8033bd4",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1",
        "e9c3366625ebd2f89a5153a832ad0906627add055ccd26b9a7e095aec8033bd4",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1"),
    ("liquid", 2, False): (
        "7fa0b11403877f98683248b03114c2eb2bb0a6e08be6e9a2327e222c0d25976e",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2",
        "7fa0b11403877f98683248b03114c2eb2bb0a6e08be6e9a2327e222c0d25976e",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2"),
    ("liquid", 2, True): (
        "b39d4959ddda38fc198b330b4939f6ce23b5b3e3e26c2f2225f07d4d7c3bdee6",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1",
        "b39d4959ddda38fc198b330b4939f6ce23b5b3e3e26c2f2225f07d4d7c3bdee6",
        "e951b8bcc884c6a026d91f45291d2ac2debf9a6a65f4dffba5bbb739f4368de1"),
    ("liquid", 3, False): (
        "5bf8eb93da3adce32acc031792e52c11d3f79bc37f0b82b48ced7cf5b47ebeae",
        "55c8246de151d3d73c8c025c9ea3663571439c12397e0c2e5a4e595a757034b8",
        "5bf8eb93da3adce32acc031792e52c11d3f79bc37f0b82b48ced7cf5b47ebeae",
        "55c8246de151d3d73c8c025c9ea3663571439c12397e0c2e5a4e595a757034b8"),
    ("liquid", 3, True): (
        "06d023379e7ea0c66abbf8cdb8d93f8dbe3589181043987e6facbe8426a169f6",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2",
        "06d023379e7ea0c66abbf8cdb8d93f8dbe3589181043987e6facbe8426a169f6",
        "3c6a0d29777a58202ece24f0b8e495eb8f8fb55d564e694556841b1b24d816c2"),
    ("arbitrum", 1, False): (
        "aa156ebd4bb4d0469946074d8ff1d64612e4c58870b5cd377bc3c4495edc47bb",
        "1e1fd9b96739c601f14ad6a4f5d13c1f08c22951ce11e57d69e2d3244928922f",
        "aa156ebd4bb4d0469946074d8ff1d64612e4c58870b5cd377bc3c4495edc47bb",
        "1e1fd9b96739c601f14ad6a4f5d13c1f08c22951ce11e57d69e2d3244928922f"),
    ("arbitrum", 1, True): (
        "c01ade8fe4084765326cb1f29eee180811367738f12827254720914538959c15",
        "11e509e1009d15748a5d69b7a30a1cf69994be81d7b98775b167c74ccf3100c1",
        "c01ade8fe4084765326cb1f29eee180811367738f12827254720914538959c15",
        "11e509e1009d15748a5d69b7a30a1cf69994be81d7b98775b167c74ccf3100c1"),
    ("arbitrum", 2, False): (
        "1a609fbee641c3e843247ed349d2d67436e9f13f9ebbd33d05abcf8bddeb0396",
        "3c851140fdc01050042c666aa8a9d393ec14c9d1e82d50c6c56f151f02505830",
        "1a609fbee641c3e843247ed349d2d67436e9f13f9ebbd33d05abcf8bddeb0396",
        "3c851140fdc01050042c666aa8a9d393ec14c9d1e82d50c6c56f151f02505830"),
    ("arbitrum", 2, True): (
        "643da630946c9dde5d01ce17153c0072d90661092aadf470945133639f49d4da",
        "ccd1e18035f1abf12e7d29bf6836131476d05e85d1462c5a5a57b7569ed58631",
        "643da630946c9dde5d01ce17153c0072d90661092aadf470945133639f49d4da",
        "ccd1e18035f1abf12e7d29bf6836131476d05e85d1462c5a5a57b7569ed58631"),
    ("arbitrum", 3, False): (
        "bd89bd110c9a6a61f1e2435be3292692c44b9c56c3161ba02bcbb29d41f04930",
        "0cb67b6872c75ba5e1e28a5f0474d4fcac5c0fb0f37333ff34f964d4115d119c",
        "bd89bd110c9a6a61f1e2435be3292692c44b9c56c3161ba02bcbb29d41f04930",
        "0cb67b6872c75ba5e1e28a5f0474d4fcac5c0fb0f37333ff34f964d4115d119c"),
    ("arbitrum", 3, True): (
        "9cd6ecc8382b4de89cde1faf64d346fcd80c6608eb701dc118be21ddd5cc8b30",
        "ae7c10a7fb7addd25e8a2dc1c19e3f4c64247ac3fca8ced48cc81ad87392b8f2",
        "9cd6ecc8382b4de89cde1faf64d346fcd80c6608eb701dc118be21ddd5cc8b30",
        "ae7c10a7fb7addd25e8a2dc1c19e3f4c64247ac3fca8ced48cc81ad87392b8f2"),
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
                          for party in properties.summarize(trace).corrupted))
    if not properties._within(f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    views = summarize(trace).views
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
    return event("output", party, rnd, step,
                 payload={"kind": "read-result", "executed": executed})


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
                for v in summarize(trace).views for e in v.executed})


STATE_POOL = [None] + [{"seq": i, "tag": t} for i in range(2) for t in "ab"]


@st.composite
def view_sets(draw):
    """Reads of 2-4 parties over a small entry alphabet, the parties
    interleaved in any order, each reader's reads in (round, step) order.

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
    queues = {}
    for ev in events:
        queues.setdefault(ev["party"], []).append(ev)
    order = draw(st.permutations([ev["party"] for ev in events]))
    events = [queues[party].pop(0) for party in order]
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


def channel(seq, a, b):
    """A channel entry: an update entry without ``txs``."""
    return {"kind": OPEN if seq == 0 else UPDATE, "seq": seq,
            "state": {"seq": seq, "bal": {"A": a, "B": b}}}


GENESIS = {"kind": OPEN, "seq": 0, "state": {"seq": 0}}
PAY_A = {"op": "pay", "from": "A", "to": "B", "amt": 1, "nonce": 1}
PAY_B = {"op": "pay", "from": "B", "to": "C", "amt": 1, "nonce": 1}
MINT_A = {"op": "mint", "to": "A", "amt": 5, "ref": "dep-1"}


def horizon(rnd):
    return event("note", D, rnd, 99, kind="tick")


def inp(party, rnd, step, **payload):
    return event("input", party, rnd, step, payload=payload)


def note(party, rnd, step, kind, **fields):
    return event("note", party, rnd, step, kind=kind, **fields)


def submitted(party, rnd, step, word, accepted):
    """The interface's answer to ``party``'s request of entry ``word``."""
    if accepted:
        return note(party, rnd, step, "request-queued", req=word)
    return note(party, rnd, step, "request-refused", req=word,
                why="insufficient")


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
        note(B, 1, 2, "request-queued", req="pay", nonce=1),
        inp(B, 2, 3, kind="pay", to="C", amt=1),
        note(B, 2, 4, "request-queued", req="pay", nonce=2),
        read(C, 4, 5, [GENESIS, entry(1, [PAY_B])]),
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
        read(B, 5, 5, [channel(0, 5, 5), channel(1, 4, 6)]),
        read(B, 9, 6, [channel(0, 5, 5), channel(1, 4, 6), channel(2, 3, 7)]),
        horizon(20)]),
    "channel-state-lowers-the-peer": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        note(A, 1, 2, "request-queued", req="pay", seq=1),
        read(B, 5, 3, [channel(0, 5, 5), channel(1, 6, 4)]),
        horizon(20)]),
    "channel-pays-counted-per-client": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        note(A, 1, 2, "request-queued", req="pay", seq=2),
        read(A, 5, 3, [channel(0, 5, 5), channel(1, 6, 4), channel(2, 5, 5)]),
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
    # an interface run answers each input with a request note; the exec
    # record clears the request's rid in time, but an update is served
    # only by what an honest read shows
    "submitted-pay-read-late": (UPDATE, [
        inp(A, 1, 1, kind="pay", to="B", amt=1),
        submitted(A, 1, 2, "pay", True),
        event("exec", "funct", 3, 3, kind=UPDATE, seq=1, rids=[1]),
        read(B, 8, 4, [GENESIS, entry(1, [PAY_A])]),
        horizon(20)]),
    "submitted-deposit-minted": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        submitted(A, 1, 2, "deposit", True),
        read(B, 6, 3, [GENESIS, entry(1, [MINT_A])]),
        horizon(20)]),
    # a request the interface refused is not judged
    "submitted-pay-refused": (UPDATE, [
        inp(A, 1, 1, kind="pay", to="B", amt=9),
        submitted(A, 1, 2, "pay", False),
        horizon(20)]),
}

# label -> (record, witness sha256) as the checks gave them before the
# one-pass rework; second-deposit-needs-second-mint recorded again when a
# deposit's witness began to carry its depositor's earlier deposits.  When
# update liveness came to be judged by one rule over honest reads (the
# k-th pay or deposit of a pid needs a view with k pays from, or mints to,
# it), queued-pay-nonce-missing gained the first pay its missing second
# one follows, kth-update-missing's views gained channel balances, and the
# channel and submitted cases were added; submitted-pay-read-late replaced
# a case in which an exec record cleared a request's rid late.  When both
# runs came to get the same inputs, a submitted case became an input
# answered by the interface's submit-result (no more a submit leak), so
# submitted-pay-read-late's witness carries the input and its answer
# (witness_len 2 became 3), and submitted-pay-refused was added.  When the
# interface began to answer with the note a real client writes, the
# submitted cases' answers became request-queued and request-refused
# notes, and submitted-pay-read-late's witness digest moved with its note
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
        "0fc98b4ca220bab37489206ab25299478d61c05d6363e4b5a937a581da05f3eb"),
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
        "ed2ea97daf6139bdd600edd318e36d0b5c9c3255b1f2280c0454f9dfa2afd48c"),
    "queued-pay-nonce-missing": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "B",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 6},
        "f4018ed20c4022c9905a3b698be36b724b28ef71ab0921919c595e4ca0edd04b"),
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
         "witness_len": 6},
        "d9e68bd4dfb19195b275afc42ff974556cdc54407ee3418d302dd2071508964c"),
    "channel-state-lowers-the-peer": (
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
         "witness_len": 4},
        "3fe9babc8aed6856a7e7ca8e4a9014e40dead662aa665eb9296c79db0da6a010"),
    "channel-pays-counted-per-client": (
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
        "0a88aae08d98443a2c1647522095fb0f93d4144f1b173fdce1e600db7e0c23a0"),
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
    "submitted-pay-read-late": (
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
        "996cb65da2e36b22ed39fa867d025a85add204d7a16ec9db52bc5c3e7c142d5c"),
    "submitted-deposit-minted": (
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
    "submitted-pay-refused": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": True,
         "vacuous": True,
         "params": {"kind": "update",
                    "judged": 0,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
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
    # the replay fails for the same reason: its failing request is its
    # pid's k-th of the same word
    assert failing_request(v.witness, kind, v.params) == \
        failing_request(events, kind, v.params)


def failing_request(events, kind, params):
    """(word, k) of the request a failing liveness verdict with ``params``
    names: its pid's k-th judged request of that word."""
    judged = [r for r in summarize(as_trace(events)).requests
              if r["cls"] == kind and not r["refused"]]
    i = next(i for i, r in enumerate(judged) if r["pid"] == params["pid"]
             and r["round"] == params["submit_round"])
    mine = [r for r in judged[:i + 1]
            if (r["pid"], r["what"]) == (judged[i]["pid"], judged[i]["what"])]
    return judged[i]["what"], len(mine)


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
        "884921b6fcdf30d831a0c415e219859b250502ae3119ac62986de3af8fbe09d5"),
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
