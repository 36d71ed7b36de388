"""The incremental rollup chain view against a fold from genesis.

``arbitrum.chain_view`` keeps its fold on the ledger, one per chain, and
reads only new commits.  ``reference_chain_view`` below is the plain fold
it replaced, walking every committed batch again on every call; the tests
require the two to agree on every call of whole schedules, pin the
call-time depth semantics of a mint in a batch, check that a run keeps
one fold per chain, and check that a cloned world carries its own copy
of the fold.  The rollup parties look l2 txids up in the fold's
positions map instead of scanning the view's "ids"; every such answer is
compared with the scan, and the ordering that lets ``chain_view`` bisect
for the final prefix is checked on every view.  Views share one snapshot
of the entries: a view handed out earlier must not change.  A validator
audits only new entries, and must audit again from a strike's cut.
"""

import copy

import pytest

from l2sim import arbitrum
from l2sim.accounts import apply_txs, genesis_state
from l2sim.base import Ledger, signed_tx
from l2sim.core import CLIENT
from l2sim.harness import (
    IdealRun, RealRun, apply_schedule, lifecycle_schedule, protocol,
    run_differential, scripted_schedules,
)
from l2sim.runtime import World
from l2sim.trace import digest


def reference_chain_view(ledger, sid, round_no):
    """Walk all committed batches from genesis, skipping struck ones; the
    genesis state is the one the chain's ledger checks were installed
    with, and the tip is the last accepted batch's claim or that state."""
    published = ledger.find(
        lambda t: t["kind"] == "batch-publish" and t["body"].get("chain") == sid)
    proofs = ledger.find(
        lambda t: t["kind"] == "fraud-proof" and t["body"].get("chain") == sid)
    struck = {p["body"].get("target") for p in proofs}
    entries = []
    state = ledger.views[sid].genesis
    prev = arbitrum.genesis_anchor(sid)
    for tx in published:
        if tx["txid"] in struck:
            continue
        batch = tx["body"].get("batch") or {}
        if batch.get("seq") != len(entries) + 1 or batch.get("prev") != prev:
            continue
        post = apply_txs(state, batch.get("txs", []), ledger, batch["seq"])
        bdig = digest(["batch", batch])
        entries.append({"batch": batch, "txid": tx["txid"],
                        "commit_round": tx.get("commit_round", 0),
                        "post": post, "claimed": batch["post"],
                        "digest": bdig,
                        "ids": [digest(["l2tx", t])
                                for t in batch.get("txs", [])]})
        state = batch["post"]
        prev = bdig
    final = 0
    for e in entries:
        if round_no > e["commit_round"] + ledger.timing["t_period"]:
            final += 1
        else:
            break
    return {"entries": entries, "final": final, "tip": state}


class Audit:
    """Spies on the fold while a schedule runs.

    Every ``chain_view`` call, including those made inside a ledger tick,
    is compared with the reference.  It also counts re-walks (a fold
    extending with a publication it had already extended with),
    accepted batches that later drop out without being struck (orphaned
    descendants), rejected fraud proofs and self-published batches.
    """

    def __init__(self, monkeypatch):
        self.calls = 0
        self.rewalks = 0
        self.ever_accepted = {}       # id(ledger) -> txids ever accepted
        self.orphaned = set()
        self.extended = set()         # (id(fold), index in published)
        view, extend = arbitrum.chain_view, arbitrum.ChainFold._extend

        def checked(ledger, sid, round_no):
            got = view(ledger, sid, round_no)
            want = reference_chain_view(ledger, sid, round_no)
            assert got == want
            self.calls += 1
            now = {e["txid"] for e in got["entries"]}
            seen = self.ever_accepted.setdefault(id(ledger), set())
            struck = {t["body"].get("target") for t in ledger.find(
                lambda t: t["kind"] == "fraud-proof")}
            self.orphaned |= seen - now - struck
            seen |= now
            return got

        def counted(fold, p, ledger):
            key = (id(fold), p)
            if key in self.extended:
                self.rewalks += 1
            self.extended.add(key)
            return extend(fold, p, ledger)

        monkeypatch.setattr(arbitrum, "chain_view", checked)
        monkeypatch.setattr(arbitrum.ChainFold, "_extend", counted)

    def run(self, scn, schedule):
        """Both flavours, step by step, comparing views after every step."""
        out = {}
        for flavor in (RealRun, IdealRun):
            run = flavor("arbitrum", scn)
            worlds = ([run.world] if flavor is RealRun
                      else [run.sim.inner, run.outer])
            for step in schedule:
                apply_schedule(run, [step])
                for w in worlds:
                    arbitrum.world_view(w)
            out[run.flavor] = run.trace
        return out


def _kinds(trace, t, kind):
    return [e for e in trace.events if e.get("t") == t and e.get("kind") == kind]


SCN = protocol("arbitrum").canonical_scenario()


@pytest.mark.parametrize("label", sorted(scripted_schedules("arbitrum", SCN)))
def test_incremental_view_matches_reference_on_scripted(monkeypatch, label):
    audit = Audit(monkeypatch)
    sched = scripted_schedules("arbitrum", SCN)[label]
    traces = audit.run(SCN, sched)
    assert audit.calls >= 3 * len(sched)     # one world real, two ideal
    if label == "fraud-struck":
        assert audit.rewalks >= 1
    if label == "false-accuse-noise":
        rejected = [e for e in _kinds(traces["real"], "ledger-submit",
                                      "fraud-proof") if not e["accepted"]]
        assert rejected


# two validators let the adversary corrupt one and falsely accuse; seeds
# 4, 5 and 12 strike batches that already had descendants
LIFECYCLES = [(1, 1), (1, 7), (2, 4), (2, 5), (2, 12)]


def test_incremental_view_matches_reference_on_adversarial_lifecycles(
        monkeypatch):
    audit = Audit(monkeypatch)
    rejected = self_published = 0
    for n_vals, seed in LIFECYCLES:
        scn = protocol("arbitrum").canonical_scenario(n_vals=n_vals)
        sched = lifecycle_schedule("arbitrum", scn, seed, pays=12,
                                   adversarial=True)
        real = audit.run(scn, sched)["real"]
        rejected += sum(1 for e in _kinds(real, "ledger-submit", "fraud-proof")
                        if not e["accepted"])
        self_published += len(_kinds(real, "note", "self-publish"))
    assert audit.rewalks >= 1
    assert audit.orphaned
    assert rejected >= 1
    assert self_published >= 1


# -- txid positions -----------------------------------------------------------


def holds(entries, txid):
    return any(txid in e["ids"] for e in entries)


class PositionAudit:
    """Spies on the rollup parties' txid lookups while schedules run.

    Every ``_included`` answer, every split of a client's in-flight
    transactions and every operator mempool drop is compared with a scan of
    the view's "ids".  The (view, positions) pairs handed to a client are
    kept, and ``recheck_kept`` asks ``_included`` about them again once the
    runs are over, when the fold has grown and may have re-walked: a map
    taken with a view must stay exact for that view.
    """

    def __init__(self, monkeypatch):
        self.included = self.splits = self.drops = self.orphans = 0
        self.kept = {}                # (id(positions), len, final) -> pair
        self.txids = set()
        client, operator = arbitrum.ArbitrumClient, arbitrum.ArbitrumOperator
        included, split = client._included, client._sort_inflight
        self.included_unchecked = included
        on_round = operator.on_round

        def checked_included(me, view, positions, txid):
            got = included(me, view, positions, txid)
            assert got == holds(view["entries"], txid)
            self.included += 1
            self._keep(me, view, positions, [txid])
            return got

        def checked_split(me, view, positions):
            entries, final = view["entries"], view["final"]
            out = me.outstanding and me.outstanding["txid"]
            live = [i for i in me.inflight
                    if not holds(entries[:final], i["txid"])]
            want = ([i for i in live
                     if holds(entries, i["txid"]) or i["txid"] == out],
                    [i for i in live
                     if not holds(entries, i["txid"]) and i["txid"] != out])
            got = split(me, view, positions)
            assert got == want
            self.splits += 1
            self.orphans += len(got[1])
            self._keep(me, view, positions, [i["txid"] for i in me.inflight])
            return got

        def checked_round(me, ctx):
            before = set(me.mempool)
            view = arbitrum.world_view(ctx.world)
            on_round(me, ctx)
            dropped = before - set(me.mempool)
            assert dropped == {t for t in before
                               if holds(view["entries"], t)}
            self.drops += len(dropped)
            self.txids |= before

        monkeypatch.setattr(client, "_included", checked_included)
        monkeypatch.setattr(client, "_sort_inflight", checked_split)
        monkeypatch.setattr(operator, "on_round", checked_round)

    def _keep(self, me, view, positions, txids):
        self.txids.update(txids)
        for e in view["entries"]:
            self.txids.update(e["ids"])
        key = (id(positions), len(view["entries"]), view["final"])
        self.kept.setdefault(key, (me, view, positions))

    def recheck_kept(self):
        for me, view, positions in self.kept.values():
            entries, final = view["entries"], view["final"]
            for txid in self.txids:
                assert self.included_unchecked(me, view, positions, txid) \
                    == holds(entries, txid)
                at = positions.get(txid, len(entries))
                assert (at < final) == holds(entries[:final], txid)
        return len(self.kept)


def test_txid_positions_match_a_scan_on_scripted(monkeypatch):
    audit = PositionAudit(monkeypatch)
    for sched in scripted_schedules("arbitrum", SCN).values():
        run_differential("arbitrum", SCN, sched)
    assert audit.included and audit.splits and audit.drops
    assert audit.recheck_kept() > 1


def test_txid_positions_match_a_scan_on_adversarial_lifecycles(monkeypatch):
    audit = PositionAudit(monkeypatch)
    rewalked = Audit(monkeypatch)
    for n_vals, seed in LIFECYCLES:
        scn = protocol("arbitrum").canonical_scenario(n_vals=n_vals)
        sched = lifecycle_schedule("arbitrum", scn, seed, pays=12,
                                   adversarial=True)
        run_differential("arbitrum", scn, sched)
    assert rewalked.rewalks >= 1
    assert audit.recheck_kept() > 1


def test_an_orphaned_transaction_is_requeued(monkeypatch):
    # a wrong batch commits, its fraud proof is held for the whole liveness
    # bound, and meanwhile the honest operator builds on it a batch holding
    # c1's payment; once the proof strikes, that batch is an orphan and the
    # client sends the payment again
    audit = PositionAudit(monkeypatch)
    world = RealRun("arbitrum", SCN).world
    for pid in SCN["clients"]:
        world.inject_input(_client(world, pid), {"kind": "open"})
    _cycle(world, 3)
    p1 = world.entity("operator", "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    world.inject_input(_client(world, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 1})
    bound = world.timing["liveness_bound"]
    for _ in range(10):
        while world.pending_net():
            world.deliver_net(min(e.eid for e in world.pending_net()))
        for tx in world.ledger.pending:
            if tx["kind"] == "fraud-proof":
                world.ledger.hold(tx["txid"], tx["submit_round"] + bound)
        world.advance_round()
    assert _kinds(world.trace, "note", "tx-reorged")
    assert audit.orphans >= 1
    assert audit.recheck_kept() > 1


def test_commit_round_never_decreases_along_a_view(monkeypatch):
    seen = []
    view = arbitrum.chain_view

    def checked(*args):
        got = view(*args)
        rounds = [e["commit_round"] for e in got["entries"]]
        assert rounds == sorted(rounds)
        seen.append(len(rounds))
        return got

    monkeypatch.setattr(arbitrum, "chain_view", checked)
    for sched in scripted_schedules("arbitrum", SCN).values():
        run_differential("arbitrum", SCN, sched)
    for n_vals, seed in LIFECYCLES:
        scn = protocol("arbitrum").canonical_scenario(n_vals=n_vals)
        for adversarial in (False, True):
            run_differential("arbitrum", scn, lifecycle_schedule(
                "arbitrum", scn, seed, pays=12, adversarial=adversarial))
    assert max(seen) > 2


# -- a mint whose deposit is not yet buried ----------------------------------

RIPEN_TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 3,
                "t_period": 6}
INITIAL = {"c1": 10, "c2": 10}


def _bare_rollup():
    w = World("roll", Ledger(RIPEN_TIMING))
    arbitrum.install_ledger_checks(w, INITIAL, {"operator:p1"})
    w.advance_round()
    return w


def _view(w):
    return arbitrum.chain_view(w.ledger, w.sid, w.round_no)


def _mint_batch(w):
    """A deposit and a batch minting it, committed in the same block."""
    dep = signed_tx(w.certs, "deposit",
                    {"chain": w.sid, "to": "c1", "amt": 5, "conflict": "dep/1"},
                    "client:c1")
    assert w.ledger.submit(dep)["accepted"]
    claimed = dict(genesis_state(INITIAL), bal={"c1": 15, "c2": 10},
                   minted_upto=1, height=1)
    pub = arbitrum.batch_tx(
        w.certs, _view(w), w.sid, "operator:p1", 1,
        [{"op": "mint", "to": "c1", "amt": 5, "ref": dep["txid"]}], claimed)
    assert w.ledger.submit(pub)["accepted"]
    w.advance_round()                        # round 2: both commit
    return pub, claimed


def _proof(w, target, conflict):
    return signed_tx(w.certs, "fraud-proof",
                     {"chain": w.sid, "target": target, "seq": 1,
                      "conflict": conflict}, "validator:v1")


def test_late_ripening_mint_is_judged_at_call_time():
    # the re-execution reads the deposit's depth when the view is taken, not
    # at the batch's inclusion height; these rounds are those of the fold
    # from genesis, so caching the view kept the semantics
    w = _bare_rollup()
    pub, claimed = _mint_batch(w)
    proof = _proof(w, pub["txid"], "fraud/probe")
    first = _view(w)
    held = copy.deepcopy(first)
    seen = []
    for _ in range(9):
        e = _view(w)["entries"][0]
        assert e["claimed"] == claimed
        seen.append((w.round_no, e["post"] == claimed if e["post"] else None,
                     w.ledger.validate(proof)))
        w.advance_round()
    assert seen == [
        (2, None, (True, None)),
        (3, None, (True, None)),
        (4, True, (False, "batch-correct")),
        (5, True, (False, "batch-correct")),
        (6, True, (False, "batch-correct")),
        (7, True, (False, "batch-correct")),
        (8, True, (False, "batch-correct")),
        (9, True, (False, "window-closed")),
        (10, True, (False, "window-closed")),
    ]
    assert first == held          # a view handed out earlier never changes


def test_proof_against_unripe_mint_strikes_in_the_ripening_block():
    # submitted while the post is None, the proof is validated again inside
    # the tick of round 4, before that block counts toward the deposit's
    # depth, so it still commits and strikes the batch
    w = _bare_rollup()
    pub, _ = _mint_batch(w)
    w.advance_round()                        # round 3: depth 2 of 3
    assert w.ledger.submit(_proof(w, pub["txid"], "fraud/late"))["accepted"]
    w.advance_round()                        # round 4
    assert w.ledger.find(lambda t: t["kind"] == "fraud-proof")
    assert _view(w)["entries"] == []
    assert _view(w) == reference_chain_view(w.ledger, w.sid, w.round_no)


# -- a strike behind an accepted batch ----------------------------------------


def _pay(frm, to, nonce):
    return {"op": "pay", "from": frm, "to": to, "amt": 1, "nonce": nonce}


def _publish(w, seq, txs, claimed=None):
    """Commit batch ``seq`` on the current view; its claim is the true post
    unless ``claimed`` is given."""
    view = _view(w)
    post = apply_txs(view["tip"], txs, w.ledger, seq)
    pub = arbitrum.batch_tx(w.certs, view, w.sid, "operator:p1", seq, txs,
                            claimed or post)
    assert w.ledger.submit(pub)["accepted"]
    w.advance_round()
    return pub


def test_a_strike_keeps_the_entries_before_it(monkeypatch):
    # batch 2 is wrong, batch 3 builds on it; the proof against batch 2
    # cuts the chain back to batch 1, re-walking batches 2 and 3 only, and
    # a correct batch 2 then extends it; every view, including those the
    # ledger's proof check takes, must equal the fold from genesis
    audit = Audit(monkeypatch)
    w = _bare_rollup()
    first = _publish(w, 1, [_pay("c1", "c2", 1)])
    wrong = _publish(w, 2, [_pay("c1", "c2", 2)],
                     dict(genesis_state(INITIAL), height=2))
    _publish(w, 3, [_pay("c2", "c1", 1)])
    assert [e["txid"] for e in _view(w)["entries"]][:2] \
        == [first["txid"], wrong["txid"]]
    assert len(_view(w)["entries"]) == 3
    assert audit.rewalks == 0
    assert w.ledger.submit(_proof(w, wrong["txid"], "fraud/wrong"))["accepted"]
    w.advance_round()
    assert [e["txid"] for e in _view(w)["entries"]] == [first["txid"]]
    assert audit.rewalks == 2            # from genesis it would be 3
    view = _view(w)
    assert set(w.ledger.views[w.sid].positions) \
        == set(view["entries"][0]["ids"])
    again = _publish(w, 2, [_pay("c1", "c2", 2)])
    assert [e["txid"] for e in _view(w)["entries"]] \
        == [first["txid"], again["txid"]]
    assert audit.calls >= 8


def test_a_validator_audits_again_from_the_cut():
    # a validator audits only the entries added since its last audit; a
    # wrong batch is struck, a second wrong batch takes its place at the
    # same height, and the validator must audit and strike that one too
    w = _bare_rollup()
    w.declare_role(arbitrum.VALIDATOR)
    w.register(arbitrum.ArbitrumValidator(
        w.entity(arbitrum.VALIDATOR, "v1"), INITIAL))
    wrongs = []
    for c1 in (11, 12):
        claimed = dict(genesis_state(INITIAL), height=1,
                       bal={"c1": c1, "c2": 10})
        wrongs.append(_publish(w, 1, [_pay("c1", "c2", 1)], claimed)["txid"])
        w.advance_round()                    # the proof commits and strikes
        assert _view(w)["entries"] == []
    found = [e["target"] for e in _kinds(w.trace, "note", "fraud-found")]
    assert found == wrongs


def test_a_handed_out_view_does_not_change():
    # views share one snapshot of the entries until the fold changes; a
    # view taken before a post ripens, before a strike or in an earlier
    # round keeps its entries and its final count
    w = _bare_rollup()
    pub, claimed = _mint_batch(w)
    unripe = _view(w)
    assert _view(w)["entries"] is unripe["entries"]      # one snapshot
    w.advance_round()
    w.advance_round()                        # round 4: the mint ripens
    ripe = _view(w)
    assert ripe["entries"][0]["post"] == claimed
    wrong = _publish(w, 2, [_pay("c1", "c2", 1)],
                     dict(genesis_state(INITIAL), height=2))
    before = _view(w)
    held = [copy.deepcopy(v) for v in (unripe, ripe, before)]
    assert w.ledger.submit(_proof(w, wrong["txid"], "fraud/wrong"))["accepted"]
    for _ in range(RIPEN_TIMING["t_period"] + 2):
        w.advance_round()
    after = _view(w)
    assert [e["txid"] for e in after["entries"]] == [pub["txid"]]
    assert after["final"] == 1 and before["final"] == 0
    assert [unripe, ripe, before] == held
    assert unripe["entries"][0]["post"] is None


# -- clones carry their own fold ----------------------------------------------


def _client(world, pid):
    return world.entity(CLIENT, pid)


def _cycle(world, k=1):
    for _ in range(k):
        while world.pending_net():
            world.deliver_net(min(e.eid for e in world.pending_net()))
        world.advance_round()


def _pay_and_wait(world, amt):
    world.inject_input(_client(world, "c1"),
                       {"kind": "pay", "to": "c2", "amt": amt})
    _cycle(world, 6)


def test_clone_keeps_an_independent_chain_view():
    run = RealRun("arbitrum", SCN)
    world = run.world
    for pid in SCN["clients"]:
        world.inject_input(_client(world, pid), {"kind": "open"})
    _cycle(world, 2)
    _pay_and_wait(world, 1)                  # mid-lifecycle: one batch in
    before = arbitrum.world_view(world)
    assert before["entries"]
    digest = world.trace.digest()

    twin = world.clone()
    _pay_and_wait(twin, 2)
    grown = arbitrum.world_view(twin)
    assert len(grown["entries"]) > len(before["entries"])
    assert twin.ledger.views is not world.ledger.views

    assert arbitrum.world_view(world) == before
    assert world.trace.digest() == digest

    _pay_and_wait(world, 2)
    assert arbitrum.world_view(world) == grown


# -- one fold per chain ------------------------------------------------------


@pytest.mark.parametrize("label", ["fraud-struck", "withdraw-exit"])
def test_a_run_keeps_one_fold_per_chain(label):
    # every reader of the chain, real or ideal, shares the fold that the
    # chain's ledger checks made
    real, ideal, _ = run_differential("arbitrum", SCN,
                                      scripted_schedules("arbitrum", SCN)[label])
    for world in (real.world, ideal.outer):
        views = world.ledger.views
        assert list(views) == [world.sid]
        assert type(views[world.sid]) is arbitrum.ChainFold
        assert views[world.sid].entries


# -- each publication is digested once ----------------------------------------


def test_a_fold_digests_each_publication_once(monkeypatch):
    # on runs whose proofs strike batches with descendants, a fold digests
    # a publication when it first accepts it and never again
    digested, accepted = [], {}
    batch_digest, catch_up = arbitrum.batch_digest, arbitrum.ChainFold.catch_up

    def counted(certs, batch):
        digested.append(batch)
        return batch_digest(certs, batch)

    def watched(fold, ledger):
        catch_up(fold, ledger)
        for e in fold.entries:
            accepted[id(e["batch"])] = e["batch"]

    monkeypatch.setattr(arbitrum, "batch_digest", counted)
    monkeypatch.setattr(arbitrum.ChainFold, "catch_up", watched)
    scn = protocol("arbitrum").canonical_scenario(n_vals=2)
    runs = [(SCN, scripted_schedules("arbitrum", SCN)["fraud-struck"]),
            (scn, lifecycle_schedule("arbitrum", scn, 4, pays=12,
                                     adversarial=True))]
    published = 0
    for scn, sched in runs:
        # two executions, a stand-alone real run and an ideal run, so that
        # each ledger's publications are counted once
        real = apply_schedule(RealRun("arbitrum", scn), sched)
        ideal = apply_schedule(IdealRun("arbitrum", scn), sched)
        for ledger in (real.world.ledger, ideal.outer.ledger):
            assert ledger.records("fraud-proof", "arbitrum")
            published += len(ledger.records("batch-publish", "arbitrum"))
    ids = [id(b) for b in digested]
    assert len(ids) == len(set(ids)) == len(accepted)
    assert set(ids) == set(accepted)
    assert len(ids) < published
