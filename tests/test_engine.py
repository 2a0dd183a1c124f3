"""Batch engine: every lane must equal its replication run alone.

The reference is the readable scalar path: ``run_trajectory`` (or
``run_system``) for one replication at a time, reduced by
``trajectory_snapshot``, which performs the engine's Kahan accumulation
in the same order.  Every policy combination and system shape is
compared field by field for exact equality, which is what makes
chunking and multiprocessing safe.  The golden pins in test_golden.py
catch changes that would move both paths together.
"""

import tracemalloc

import numpy as np
import pytest

from hrru import rng
from hrru.engine import (
    SNAPSHOT_FIELDS,
    _Layout,
    check_int64_range,
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
    CustomRule,
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IidUniform,
    IntegerDistribution,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    run_trajectory,
    sample_hypergeometric,
)

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
        for hidx, h in enumerate(horizons):
            want = [trajectory_snapshot(trajs[label], h) for trajs in alone]
            for f in SNAPSHOT_FIELDS:
                a, b = got[label][hidx][f], np.array([w[f] for w in want])
                assert np.array_equal(a, b), (label, hidx, f, a, b)


DRAW_POLICIES = [
    ConstantOne(),
    DeterministicSchedule((2, 1, 3)),
    IidUniform(4),
    DiscreteDraw((1, 3), (0.3, 0.7)),
    AbsorbingRandomWalk(start=3, high=5),
    CustomRule(lambda t, s_prev, hist: 1 + (t * 7 + s_prev) % 3, bound=3),
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


def _traced_peak(config, lanes, horizons):
    tracemalloc.start()
    try:
        run_chunk(config, 1, 0, lanes, horizons)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("config, lanes", [
    (UrnConfig(a=10, b=10, draw=IidUniform(4), reinforce=UniformReinforcement(1, 3)), 1024),
    (UrnSystem(urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
                     UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2)),
               factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3)), 1024),
    (UrnConfig(a=10, b=10, draw=AbsorbingRandomWalk(start=3, high=6),
               reinforce=ConstantReinforcement(2)), 1024),
    (UrnConfig(a=1000, b=1000, draw=DiscreteDraw((1, 1000), (0.99, 0.01)),
               reinforce=UniformReinforcement(1, 3)), 32),
    (REINFORCE_ONLY, 1024),
    (_distinct_draw_bases(FACTORS["no-factors"]), 1024),
], ids=["reference", "system", "walk", "stride-1000", "mtest", "distinct-draw-bases"])
def test_lane_bytes_matches_the_traced_peak(config, lanes):
    # lane_bytes sizes chunks against the memory budget, so it must
    # cover what run_chunk holds per lane at its peak, snapshots
    # included: one more float64 row would break the upper bound.
    # numpy reports its buffers to tracemalloc; the difference of two
    # lane counts drops the chunk's fixed overhead.
    horizons = (3, 30)
    run_chunk(config, 1, 0, 8, horizons)
    per_lane = (_traced_peak(config, 2 * lanes, horizons)
                - _traced_peak(config, lanes, horizons)) / lanes
    layout = _Layout(config)
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
    snap = trajectory_snapshot(run_trajectory(SQUARE_OVERFLOW[0], 1000, 0), 1000)
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


def test_custom_rule_falls_back_to_scalar():
    cfg = UrnConfig(
        a=4, b=4,
        draw=CustomRule(lambda t, s_prev, hist: 1 + (t % 3), bound=3),
        reinforce=ConstantReinforcement(1),
    )
    out = run_chunk(cfg, 0, 0, 3, (9,))
    # deterministic rule: mean draw = mean of 1,2,3 cycles
    assert np.allclose(out["u0"][0]["draw_mean"], 2.0)


def test_chunk_boundaries_do_not_matter():
    cfg = UrnConfig(a=5, b=5, draw=IidUniform(3), reinforce=UniformReinforcement(1, 2))
    whole = run_chunk(cfg, 7, 0, 10, (20,))
    left = run_chunk(cfg, 7, 0, 4, (20,))
    right = run_chunk(cfg, 7, 4, 10, (20,))
    for f in SNAPSHOT_FIELDS:
        merged = np.concatenate([left["u0"][0][f], right["u0"][0][f]])
        assert np.array_equal(whole["u0"][0][f], merged), f


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
    key = rng.derive_key(3, "urn", "u0", "extract")
    n_draw, total, marked = 4, 11, 5
    batch = sample_hypergeometric_batch(key, n_draw, total, marked, 100)
    stream = rng.Stream(key)
    direct = [
        sample_hypergeometric(stream, j * n_draw, n_draw, total, marked)
        for j in range(100)
    ]
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
