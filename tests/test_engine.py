"""Batch engine: every lane must equal its replication run alone.

Here the reference is the scalar path: ``run_trajectory`` (or
``run_system``) for one replication at a time, reduced by
``trajectory_snapshot``, which performs the engine's Kahan accumulation
in the same order.  Every policy combination and system shape is
compared field by field for exact equality, which is what makes
chunking and multiprocessing safe.  The README's contract, not either
path, is the spec: test_contract_oracle.py holds both paths to an
oracle written from it alone, and the golden pins in test_golden.py
catch changes that would move both paths together.
"""

import tracemalloc

import numpy as np
import pytest

import contract_oracle as oracle
from hrru import engine
from hrru.engine import (
    SNAPSHOT_FIELDS,
    _Layout,
    check_int64_range,
    lane_cap,
    run_chunk,
    sample_hypergeometric_batch,
    trajectory_snapshot,
    worst_case_total,
)
from hrru.multi_urn import CommonFactors, UrnSpec, UrnSystem, run_system
from hrru.urn_core import (
    AbsorbingRandomWalk,
    ConstantOne,
    ConstantReinforcement,
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IidUniform,
    IntegerDistribution,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    run_trajectory,
)
from test_golden import chunk_configs

UNIFORM3 = IntegerDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))


def _trajectories(config, seed, rep, steps):
    if isinstance(config, UrnSystem):
        return run_system(config, steps, seed, rep).urns
    return {config.label: run_trajectory(config, steps, seed, rep)}


def assert_paths_agree(config, seed=0, lo=0, hi=7, horizons=(13, 37)):
    got = run_chunk(config, seed, lo, hi, horizons)
    alone = [_trajectories(config, seed, rep, horizons[-1]) for rep in range(lo, hi)]
    assert set(got) == set(alone[0])
    for label in got:
        assert len(got[label]) == len(horizons)
        want = [trajectory_snapshot(trajs[label], horizons) for trajs in alone]
        for hidx in range(len(horizons)):
            for f in SNAPSHOT_FIELDS:
                a, b = got[label][hidx][f], np.array([w[hidx][f] for w in want])
                assert np.array_equal(a, b), (label, hidx, f, a, b)


DRAW_POLICIES = [
    ConstantOne(),
    DeterministicSchedule((2, 1, 3)),
    IidUniform(4),
    DiscreteDraw((1, 3), (0.3, 0.7)),
    AbsorbingRandomWalk(start=3, high=5),
]

REINF_POLICIES = [
    ConstantReinforcement(2),
    UniformReinforcement(1, 3),
    DiscreteReinforcement((1, 4), (0.6, 0.4)),
]


@pytest.mark.parametrize("draw", DRAW_POLICIES, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("reinf", REINF_POLICIES, ids=lambda p: type(p).__name__)
def test_single_urn_paths_agree(draw, reinf):
    cfg = UrnConfig(a=6, b=7, draw=draw, reinforce=reinf)
    assert_paths_agree(cfg, seed=11)


def test_system_paths_agree_full_factors():
    sys2 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2),
        ),
        factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3),
    )
    assert_paths_agree(sys2, seed=21)


# The benchmark's mtest system: both urns read one constant draw of 2
# and one shared reinforcement row.
REINFORCE_ONLY = UrnSystem(
    urns=(
        UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
        UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
    ),
    factors=CommonFactors(reinforce=UNIFORM3),
)


def test_system_paths_agree_reinforce_only_factor():
    assert_paths_agree(REINFORCE_ONLY, seed=8)


def test_system_paths_agree_no_factors():
    sys1 = UrnSystem(
        urns=(UrnSpec(label="only", a=5, b=5, draw_base=3, reinforce_base=2),),
        factors=CommonFactors(),
    )
    assert_paths_agree(sys1, seed=2)


def _distinct_draw_bases(factors):
    return UrnSystem(
        urns=(
            UrnSpec(label="A", a=4, b=6, draw_base=1, reinforce_base=1),
            UrnSpec(label="B", a=7, b=3, draw_base=2, reinforce_base=1),
            UrnSpec(label="C", a=5, b=5, draw_base=3, reinforce_base=2),
        ),
        factors=factors,
    )


FACTORS = {"no-factors": CommonFactors(), "reinforce-factor": CommonFactors(reinforce=UNIFORM3)}


@pytest.mark.parametrize("factors", FACTORS.values(), ids=FACTORS.keys())
def test_system_paths_agree_distinct_draw_bases(factors):
    # Constant draw sizes 1, 2, 3: every urn's row of the stacked draw
    # carries its own scalar, and balls past an urn's draw are masked.
    # With the factor, A and B share one reinforcement emission and C
    # has its own.
    assert_paths_agree(_distinct_draw_bases(factors), seed=13)


LONG_HORIZON = {
    "reinforce-only-factor": REINFORCE_ONLY,
    "schedule": UrnConfig(a=6, b=7, draw=DeterministicSchedule((2, 1, 3)),
                          reinforce=ConstantReinforcement(2)),
    **{f"distinct-draw-bases-{k}": _distinct_draw_bases(f) for k, f in FACTORS.items()},
}


@pytest.mark.parametrize("config", LONG_HORIZON.values(), ids=LONG_HORIZON.keys())
def test_paths_agree_at_a_long_horizon(config):
    # Sums kept once per emission, as Python floats where the emission
    # is an int, over enough steps for the Kahan compensation of 1/N
    # (1/3 is inexact) to matter to the last bit.
    assert_paths_agree(config, seed=5, horizons=(13, 1500))


def test_snapshots_alias_nothing():
    # Urns reading one emission get their own arrays of its sums: no
    # field, of one urn or two, shares memory with another.
    got = run_chunk(REINFORCE_ONLY, 3, 0, 6, (4, 9))
    fields = [f for snaps in got.values() for snap in snaps for f in snap.values()]
    assert len(fields) == 2 * 2 * len(SNAPSHOT_FIELDS)
    for i, f in enumerate(fields):
        assert not any(np.shares_memory(f, g) for g in fields[i + 1:])


def _traced_peak(config, lanes, horizons, labels):
    tracemalloc.start()
    try:
        run_chunk(config, 1, 0, lanes, horizons, labels=labels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SYSTEM2 = UrnSystem(urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
                           UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2)),
                     factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3))


@pytest.mark.parametrize("config, lanes, labels", [
    (UrnConfig(a=10, b=10, draw=IidUniform(4), reinforce=UniformReinforcement(1, 3)), 1024, None),
    (SYSTEM2, 1024, None),
    (UrnConfig(a=10, b=10, draw=AbsorbingRandomWalk(start=3, high=6),
               reinforce=ConstantReinforcement(2)), 1024, None),
    (UrnConfig(a=1000, b=1000, draw=DiscreteDraw((1, 1000), (0.99, 0.01)),
               reinforce=UniformReinforcement(1, 3)), 32, None),
    (REINFORCE_ONLY, 1024, None),
    (_distinct_draw_bases(FACTORS["no-factors"]), 1024, None),
    (SYSTEM2, 1024, ("B",)),
    (_distinct_draw_bases(FACTORS["reinforce-factor"]), 1024, ("A", "C")),
], ids=["reference", "system", "walk", "stride-1000", "mtest", "distinct-draw-bases",
        "system-urn-B", "distinct-draw-bases-urns-A-C"])
def test_lane_bytes_matches_the_traced_peak(config, lanes, labels):
    # lane_bytes sizes chunks against the memory budget, so it must
    # cover what run_chunk holds per lane at its peak, snapshots
    # included: one more float64 row would break the upper bound.
    # numpy reports its buffers to tracemalloc; the difference of two
    # lane counts drops the chunk's fixed overhead.  A subset run is
    # held to the layout of the urns it simulates.
    horizons = (3, 30)
    run_chunk(config, 1, 0, 8, horizons, labels=labels)
    per_lane = (_traced_peak(config, 2 * lanes, horizons, labels)
                - _traced_peak(config, lanes, horizons, labels)) / lanes
    layout = _Layout(config, labels)
    estimate = layout.lane_bytes(len(horizons))
    emission_rows = 8 * (len(layout.draws) + len(layout.reinfs))
    assert 0.99 * estimate - emission_rows <= per_lane <= estimate + 4


def test_early_snapshots_are_final():
    # A snapshot taken before the last horizon equals a run stopped
    # there, and the steps after it leave it alone.
    sys2 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2),
        ),
        factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3),
    )
    stopped = run_chunk(sys2, 4, 0, 9, (6,))
    ran_on = run_chunk(sys2, 4, 0, 9, (6, 50))
    for label in ("A", "B"):
        for f in SNAPSHOT_FIELDS:
            assert np.array_equal(ran_on[label][0][f], stopped[label][0][f]), (label, f)


def test_run_chunk_rejects_bad_ranges():
    cfg = UrnConfig(a=2, b=2, draw=ConstantOne(), reinforce=ConstantReinforcement(1))
    with pytest.raises(ParameterError):
        run_chunk(cfg, 0, 3, 3, (10,))
    with pytest.raises(ParameterError):
        run_chunk(cfg, 0, 0, 2, ())
    with pytest.raises(ParameterError):
        run_chunk(cfg, 0, 0, 2, (10, 10))
    with pytest.raises(ParameterError):
        run_chunk(cfg, 0, 0, 2, (0, 10))


def test_run_chunk_refuses_the_key_tree_in_one_chunk():
    # This ended in numpy's "Maximum allowed size exceeded"; it is
    # refused at the lane cap, before any allocation.
    cfg = UrnConfig(a=3, b=4, draw=IidUniform(3), reinforce=UniformReinforcement(1, 3))
    cap = lane_cap(cfg, 1)
    with pytest.raises(ParameterError, match=rf"exceeds lane_cap = {cap} for horizons \(5,\)"):
        run_chunk(cfg, 7, np.uint64(3), 2**64, (5,))


def test_run_chunk_refuses_more_lanes_than_its_cap():
    # lane_cap + 1 lanes ran over the workspace budget; the cap runs.
    reference = UrnConfig(a=10, b=10, draw=IidUniform(4), reinforce=UniformReinforcement(1, 3))
    for horizons in ((1,), (1, 2)):
        cap = lane_cap(reference, len(horizons))
        with pytest.raises(ParameterError, match=f"a chunk of {cap + 1} lanes exceeds "
                                                 f"lane_cap = {cap}"):
            run_chunk(reference, 0, 0, cap + 1, horizons)
        assert len(run_chunk(reference, 0, 0, cap, horizons)["u0"][-1]["z"]) == cap


@pytest.mark.parametrize("rep_lo, rep_hi", [
    (True, 3), (-1, 2), (2**64 - 1, 2**64 + 1), (0.5, 2), (0, 2.0),
], ids=repr)
def test_run_chunk_refuses_a_range_outside_the_key_tree(rep_lo, rep_hi):
    # a bool ran as rep 1; the others failed in numpy or rng with an
    # OverflowError or a TypeError
    cfg = UrnConfig(a=2, b=2, draw=ConstantOne(), reinforce=ConstantReinforcement(1))
    with pytest.raises(ParameterError, match="replication range must be integers"):
        run_chunk(cfg, 7, rep_lo, rep_hi, (5,))


def test_run_chunk_takes_numpy_integer_bounds():
    # numpy bounds run the lanes of the same ints; an int64 with a
    # uint64 bound (a float64 difference) ended in a TypeError, and a
    # uint64 below 2**64 in an OverflowError
    cfg = UrnConfig(a=3, b=4, draw=IidUniform(3), reinforce=UniformReinforcement(1, 3))
    for lo, hi in ((np.int64(2), np.int64(6)), (np.int64(2), np.uint64(6)),
                   (np.uint64(2**64 - 2), 2**64)):
        want = run_chunk(cfg, 7, int(lo), int(hi), (5, 9))
        got = run_chunk(cfg, 7, lo, hi, (5, 9))
        for want_h, got_h in zip(want["u0"], got["u0"], strict=True):
            for f in SNAPSHOT_FIELDS:
                assert np.array_equal(want_h[f], got_h[f]), f
    # the last lane of the key tree is its replication run alone
    top = run_chunk(cfg, 7, 2**64 - 2, 2**64, (5,))["u0"][0]
    alone = run_trajectory(cfg, 5, 7, 2**64 - 1)
    assert [top["z"][1]] == [trajectory_snapshot(alone, (5,))[0]["z"]]


@pytest.mark.parametrize("horizon", [-1, 0, 11, True, 2.0], ids=repr)
def test_trajectory_snapshot_refuses_a_horizon_outside_the_trajectory(horizon):
    # -1 gave m_emp = -2.5 and s_over_n = -20.0, 0 a ZeroDivisionError,
    # 11 an IndexError, and True ran as 1
    traj = run_trajectory(UrnConfig(a=2, b=2, draw=ConstantOne(),
                                    reinforce=ConstantReinforcement(1)), 10, 0)
    with pytest.raises(ParameterError, match=r"horizons must be strictly increasing integers "
                                             r"in \[1, 10\]"):
        trajectory_snapshot(traj, (horizon,))


def test_run_chunk_rejects_capacity_overflow():
    cfg = UrnConfig(a=2, b=2, draw=DeterministicSchedule((4,)),
                    reinforce=ConstantReinforcement(10**15))
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        run_chunk(cfg, 0, 0, 1, (10**4,))


SQUARE_OVERFLOW = [
    # 1000 steps of R = 2**31: the ball count stays near 2**41, but the
    # int64 sum of R^2 would be 2**72.
    UrnConfig(10, 10, ConstantOne(), ConstantReinforcement(2**31)),
    # The same urn as a system: draw 1 times R = 2**31 keeps its ball
    # count near 2**41 too, so the sum of R^2 rejects both shapes.
    UrnSystem(urns=(UrnSpec(label="A", a=2**31, b=1, draw_base=1, reinforce_base=2**31),),
              factors=CommonFactors()),
]


@pytest.mark.parametrize("cfg", SQUARE_OVERFLOW, ids=["urn", "system"])
def test_run_chunk_rejects_reinforcement_square_overflow(cfg):
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        run_chunk(cfg, 0, 0, 2, (1000,))


def test_reinforcement_square_bound_is_tight():
    # R = 2**26: two steps sum R^2 to exactly 2**53, three pass it
    cfg = UrnConfig(10, 10, ConstantOne(), ConstantReinforcement(2**26))
    check_int64_range(cfg, 2)
    with pytest.raises(ParameterError, match="R\\^2"):
        check_int64_range(cfg, 3)
    assert_paths_agree(cfg, hi=3, horizons=(1, 2))
    # the reduction the engine would otherwise wrap
    snap = trajectory_snapshot(run_trajectory(SQUARE_OVERFLOW[0], 1000, 0), (1000,))[0]
    assert snap["reinf_sqmean"] == float(2**62)


def test_run_chunk_rejects_counts_above_2_53():
    # numpy divides int64 by int64 through float64, which rounds counts
    # above 2**53; the scalar path divides exactly.  Admitted, this
    # config gave 70 fields (z, s_over_n) unlike the scalar path's.
    cfg = UrnConfig(2**53 + 1, 2**53 + 7, IidUniform(3), ConstantReinforcement(1))
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        run_chunk(cfg, 0, 0, 64, (5,))


def test_ball_count_bound_is_tight():
    # 2**53 - 8 balls gaining one a step reach exactly 2**53 in 8 steps
    cfg = UrnConfig(2**52, 2**52 - 8, ConstantOne(), ConstantReinforcement(1))
    check_int64_range(cfg, 8)
    with pytest.raises(ParameterError, match="ball count"):
        check_int64_range(cfg, 9)
    assert_paths_agree(cfg, hi=5, horizons=(3, 8))


def test_system_ball_count_bound_is_exact_per_urn():
    # 2**53 - 16 balls gaining two a step reach exactly 2**53 in 8 steps:
    # the bound is draw 1 times R 2 per urn, not the system's k**2 = 4
    system = UrnSystem(urns=(UrnSpec(label="A", a=2**52, b=2**52 - 16,
                                     draw_base=1, reinforce_base=2),))
    check_int64_range(system, 8)
    with pytest.raises(ParameterError, match="ball count"):
        check_int64_range(system, 9)
    assert_paths_agree(system, hi=5, horizons=(3, 8))


def test_worst_case_total():
    cfg = UrnConfig(a=2, b=3, draw=IidUniform(3), reinforce=UniformReinforcement(1, 2))
    assert worst_case_total(cfg, 10) == 5 + 10 * 3 * 2
    # per urn, then the largest: A grows by at most 4 * 2 a step, B by 3 * 6
    system = UrnSystem(
        urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
              UrnSpec(label="B", a=30, b=3, draw_base=1, reinforce_base=5)),
        factors=CommonFactors(draw=UNIFORM3, reinforce=IntegerDistribution((0, 1), (0.5, 0.5))),
    )
    assert worst_case_total(system, 10) == max(20 + 10 * 4 * 2, 33 + 10 * 3 * 6)


def test_chunk_boundaries_do_not_matter():
    cfg = UrnConfig(a=5, b=5, draw=IidUniform(3), reinforce=UniformReinforcement(1, 2))
    whole = run_chunk(cfg, 7, 0, 10, (20,))
    left = run_chunk(cfg, 7, 0, 4, (20,))
    right = run_chunk(cfg, 7, 4, 10, (20,))
    for f in SNAPSHOT_FIELDS:
        merged = np.concatenate([left["u0"][0][f], right["u0"][0][f]])
        assert np.array_equal(whole["u0"][0][f], merged), f


@pytest.mark.parametrize("name", sorted(chunk_configs()))
def test_the_plugin_cut_keeps_every_other_field_on_the_golden_grid(name, monkeypatch):
    # With the plug-in sums stopped after each horizon in turn, every
    # field kept has the default call's bits and no plug-in field
    # outlives the cut, and the Kahan block is added on the first
    # ``cut`` steps alone; a cut off the horizons is refused.
    config, horizons = chunk_configs()[name], (2, 5, 9)
    plugins = ("m_emp", "reinf_sqmean", "draw_recipmean")
    full = run_chunk(config, 11, 3, 12, horizons)
    kahan_adds = []
    kahan_add = engine._kahan_add
    monkeypatch.setattr(engine, "_kahan_add", lambda *a: kahan_adds.append(kahan_add(*a)))
    for cut in (*horizons, np.int64(5)):
        kahan_adds.clear()
        got = run_chunk(config, 11, 3, 12, horizons, plugins_to=cut)
        assert len(kahan_adds) == cut
        assert list(got) == list(full)
        for label in full:
            for h, snap, want in zip(horizons, got[label], full[label], strict=True):
                kept = [f for f in SNAPSHOT_FIELDS if h <= cut or f not in plugins]
                assert list(snap) == kept
                assert {f: snap[f].tobytes() for f in kept} == {
                    f: want[f].tobytes() for f in kept}, (label, h, cut)
    for bad in (1, 4, 10, 5.0, "5"):
        with pytest.raises(ParameterError, match="plugins_to: must be one of the horizons"):
            run_chunk(config, 11, 3, 12, horizons, plugins_to=bad)
    with pytest.raises(ParameterError, match="plugins_to"):
        run_chunk(config, 11, 3, 5, (1, 3), plugins_to=True)


def test_snapshot_fields_are_consistent():
    cfg = UrnConfig(a=3, b=3, draw=DeterministicSchedule((2,)),
                    reinforce=ConstantReinforcement(3))
    out = run_chunk(cfg, 0, 0, 5, (10,))
    snap = out["u0"][0]
    # constant policies make the moment fields exact
    assert np.all(snap["reinf_mean"] == 3.0)
    assert np.all(snap["reinf_sqmean"] == 9.0)
    assert np.all(snap["draw_mean"] == 2.0)
    assert np.all(snap["draw_recipmean"] == 0.5)
    # S_10 = 6 + 10 * 2 * 3
    assert np.all(snap["s_over_n"] == (6 + 60) / 10)


def test_sample_hypergeometric_batch_matches_scalar_views():
    # sample j is the contract oracle's chain from counter j * n_draw
    key = oracle.derive_key(3, "urn", "u0", "extract")
    n_draw, total, marked = 4, 11, 5
    batch = sample_hypergeometric_batch(key, n_draw, total, marked, 100)
    direct = [oracle.chain(key, j * n_draw, n_draw, marked, total) for j in range(100)]
    assert batch.dtype == np.int64
    assert batch.tolist() == direct


def test_sample_hypergeometric_batch_validation():
    with pytest.raises(ParameterError):
        sample_hypergeometric_batch(1, 0, 5, 2, 10)
    with pytest.raises(ParameterError):
        sample_hypergeometric_batch(1, 6, 5, 2, 10)
    with pytest.raises(ParameterError):
        sample_hypergeometric_batch(1, 2, 5, 7, 10)
    with pytest.raises(ParameterError):
        sample_hypergeometric_batch(1, 2, 5, 2, 0)
