"""Exact-arithmetic urn mechanics: draws, reinforcement, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrru import rng, urn_core
from hrru.montecarlo import ReplicationPlan
from hrru.multi_urn import UrnSpec, UrnSystem
from hrru.urn_core import (
    _COMPARE_LANES,
    _COMPARE_MAX,
    _WINDOW_READS,
    DRAW_POLICIES,
    REINFORCEMENT_POLICIES,
    AbsorbingRandomWalk,
    ConfigError,
    ConstantOne,
    ConstantReinforcement,
    CustomRule,
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IidUniform,
    IntegerDistribution,
    ModelViolationError,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    increment_identity_check,
    run_trajectory,
    sample_hypergeometric,
    urn_rule,
    walk_move,
)


def _streams(seed=0, rep=0, label="u0"):
    # An urn's own streams, straight from the README key tree.
    rk = rng.derive_key(seed, "rep", rep)
    return rng.UrnStreams(*(rng.Stream(rng.derive_key(rk, "urn", label, purpose))
                            for purpose in ("draw", "extract", "reinforce")))


# Draw distribution: exact probabilities against the closed form.


def exact_pmf(n_draw, total, marked):
    lo = max(0, n_draw - (total - marked))
    hi = min(n_draw, marked)
    out = {}
    for x in range(lo, hi + 1):
        out[x] = (
            math.comb(marked, x) * math.comb(total - marked, n_draw - x)
            / math.comb(total, n_draw)
        )
    return out


def test_value_example_two_of_four():
    # N=2 from 4 balls of which 2 marked: P{X=1} = 2/3
    pmf = exact_pmf(2, 4, 2)
    assert pmf[1] == pytest.approx(2.0 / 3.0)


def test_sample_hypergeometric_support():
    s = _streams().extract
    for j, (n_draw, total, marked) in enumerate([(3, 7, 2), (5, 5, 3), (2, 9, 0), (4, 6, 6)]):
        for i in range(200):
            x = sample_hypergeometric(s, (j * 200 + i) * n_draw, n_draw, total, marked)
            assert max(0, n_draw - (total - marked)) <= x <= min(n_draw, marked)


def test_sample_hypergeometric_exhaustive_draw():
    # drawing the whole urn returns exactly the marked count
    s = _streams().extract
    assert sample_hypergeometric(s, 0, 6, 6, 4) == 4


def test_sample_hypergeometric_frequencies():
    n_draw, total, marked = 3, 10, 4
    pmf = exact_pmf(n_draw, total, marked)
    s = _streams(seed=5).extract
    counts = {x: 0 for x in pmf}
    reps = 20000
    for j in range(reps):
        counts[sample_hypergeometric(s, j * n_draw, n_draw, total, marked)] += 1
    for x, p in pmf.items():
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(counts[x] / reps - p) < 5 * se


def test_sample_hypergeometric_validation():
    s = _streams().extract
    with pytest.raises(ParameterError):
        sample_hypergeometric(s, 0, 0, 5, 2)
    with pytest.raises(ParameterError):
        sample_hypergeometric(s, 0, 6, 5, 2)
    with pytest.raises(ParameterError):
        sample_hypergeometric(s, 0, 2, 5, 6)


# Policy objects.


def test_integer_distribution_validation():
    with pytest.raises(ParameterError):
        IntegerDistribution((), ())
    with pytest.raises(ParameterError):
        IntegerDistribution((1, 1), (0.5, 0.5))
    with pytest.raises(ParameterError):
        IntegerDistribution((1, 2), (0.5,))
    with pytest.raises(ParameterError):
        IntegerDistribution((1, 2), (0.6, 0.6))
    with pytest.raises(ParameterError):
        IntegerDistribution((1, 2), (-0.1, 1.1))
    d = IntegerDistribution((2, 5), (0.25, 0.75))
    assert d.mean() == pytest.approx(4.25)
    assert d.sample(0.0) == 2
    assert d.sample(0.2499999) == 2
    assert d.sample(0.25) == 5
    assert d.sample(0.999999) == 5
    assert type(d.sample(0.25)) is int
    assert d.sample(np.array([0.0, 0.2499999, 0.25, 0.999999])).tolist() == [2, 2, 5, 5]


def _uniform_law(k, order=1):
    return tuple(range(1, k + 1))[::order], (1 / k,) * k


@pytest.mark.parametrize("values,probs", [
    ((2, 5), (0.25, 0.75)),
    ((7,), (1.0,)),
    ((1, 2, 3, 4, 5), (0.0, 0.5, 0.0, 0.5, 0.0)),   # zero-probability plateaus
    ((9, 2, 5), (0.2, 0.3, 0.5)),                   # unsorted support
    ((1, 1000), (0.99, 0.01)),
    _uniform_law(_COMPARE_MAX),                     # the largest law compared
    _uniform_law(_COMPARE_MAX + 1, order=-1),       # always searchsorted
], ids=["two", "one", "plateaus", "unsorted", "wide", "compare-max", "searchsorted"])
def test_array_sample_matches_searchsorted(values, probs):
    # Both array branches against searchsorted(side="right") plus the
    # clamp, at 0, every CDF step, just below each step, 1 - 2**-53 and
    # a random batch: the short array takes searchsorted (but for one
    # value), the long one compares every law of up to _COMPARE_MAX
    # values.  Each lane also equals the float branch.
    dist = IntegerDistribution(values, probs)
    cdf = dist._cdf
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], cdf, np.nextafter(cdf, 0.0),
                        np.random.default_rng(5).random(256)])
    want = np.asarray(values)[np.minimum(np.searchsorted(cdf, u, side="right"),
                                         len(values) - 1)]
    assert [dist.sample(x) for x in u.tolist()] == want.tolist()
    for lanes in (len(u), _COMPARE_MAX * _COMPARE_LANES):
        got = dist.sample(np.resize(u, lanes))
        assert got.dtype == np.float64
        assert got.tolist() == np.resize(want, lanes).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integer_distribution_rejects_non_finite_probabilities(bad):
    # NaN fails every comparison, so sign and sum checks alone admit it
    probs = (0.5, bad, 0.5)
    for law in (IntegerDistribution, DiscreteDraw, DiscreteReinforcement):
        with pytest.raises(ParameterError, match="finite"):
            law((1, 2, 3), probs)


def _emissions(pol, stream, steps):
    # A stream policy run alone, as urn_rule runs it: step t hands
    # emit_vec the stream's uniform at counter t - stream_lag (none
    # without a lag or before that counter) and, for a draw-size
    # policy, the previous emission.
    out = []
    for t in range(steps):
        lag = pol.stream_lag
        u = None if lag is None or t < lag else stream.unit_at(t - lag)
        if type(pol) in REINFORCEMENT_POLICIES.values():
            out.append(pol.emit_vec(t, u))
        else:
            out.append(pol.emit_vec(t, u, out[-1] if out else None))
    return out


def test_deterministic_schedule_repeats_last():
    pol = DeterministicSchedule((1, 3, 2))
    assert _emissions(pol, _streams().draw, 6) == [1, 3, 2, 2, 2, 2]
    assert pol.bound == 3
    assert not pol.iid_draws
    assert DeterministicSchedule((2, 2, 2)).iid_draws


def test_iid_uniform_range_and_mean():
    pol = IidUniform(4)
    vals = _emissions(pol, _streams(seed=9).draw, 8000)
    assert set(vals) == {1, 2, 3, 4}
    assert abs(sum(vals) / len(vals) - 2.5) < 0.05
    assert pol.bound == 4 and pol.iid_draws


def test_uniform_draw_hits_top_value_even_at_power_of_two():
    # u close to 1 must clamp into the top cell, not overflow past it
    pol = IidUniform(8)
    assert pol.emit_vec(0, 1.0 - 2.0 ** -53, None) == 8
    assert pol.emit_vec(0, np.array([1.0 - 2.0 ** -53]), None).tolist() == [8]


def test_absorbing_walk_dynamics():
    pol = AbsorbingRandomWalk(start=3, high=5)
    walk = _emissions(pol, _streams(seed=2).draw, 200)
    assert walk[0] == 3
    for prev, n in zip(walk, walk[1:]):
        if prev in (1, 5):
            assert n == prev
        else:
            assert n in (prev - 1, prev + 1)
    # absorbed by now with overwhelming probability
    assert walk[-1] in (1, 5)


def test_absorbing_walk_replays_without_history():
    pol = AbsorbingRandomWalk(start=2, high=6)
    traj = run_trajectory(_basic_config(a=3, b=3, draw=pol), 50, 4)
    # the same walk rebuilt from the urn's draw stream alone: step t
    # reads counter t - 1
    s = _streams(seed=4).draw
    prev = pol.start
    assert traj.N[0] == prev
    for t in range(1, 50):
        prev = walk_move(prev, s.unit_at(t - 1), pol.high)
        assert traj.N[t] == prev


def test_custom_rule_contract():
    pol = CustomRule(lambda t, s_prev, hist: 1 + (t % 2), bound=2)
    assert [pol.emit(t, 10, ()) for t in range(4)] == [1, 2, 1, 2]
    bad = CustomRule(lambda t, s_prev, hist: 0, bound=2)
    with pytest.raises(ModelViolationError):
        bad.emit(0, 10, ())
    overflow = CustomRule(lambda t, s_prev, hist: 3, bound=2)
    with pytest.raises(ModelViolationError):
        overflow.emit(0, 10, ())
    nonint = CustomRule(lambda t, s_prev, hist: 1.5, bound=2)
    with pytest.raises(ModelViolationError):
        nonint.emit(0, 10, ())
    # urn_rule calls the checked rule, so a bad emission stops a step
    with pytest.raises(ModelViolationError, match="custom rule emitted 0"):
        urn_rule(0, 5, 10, bad, ConstantReinforcement(1), _streams(), 2, [])


def test_reinforcement_policies():
    s = _streams(seed=3).reinforce
    vals = _emissions(UniformReinforcement(1, 3), s, 6000)
    assert set(vals) == {1, 2, 3}
    assert abs(sum(vals) / len(vals) - 2.0) < 0.05
    assert ConstantReinforcement(4).emit_vec(0, None) == 4
    dvals = set(_emissions(DiscreteReinforcement((2, 7), (0.5, 0.5)), s, 200))
    assert dvals == {2, 7}
    with pytest.raises(ParameterError):
        ConstantReinforcement(0)
    with pytest.raises(ParameterError):
        UniformReinforcement(0, 3)
    with pytest.raises(ParameterError):
        UniformReinforcement(3, 2)
    with pytest.raises(ParameterError):
        DiscreteReinforcement((0, 1), (0.5, 0.5))


# One example of every JSON policy; a policy added to either table
# without one fails the test below.
POLICY_EXAMPLES = {
    ConstantOne: ConstantOne(),
    DeterministicSchedule: DeterministicSchedule((1, 3, 2)),
    IidUniform: IidUniform(8),
    DiscreteDraw: DiscreteDraw((1, 3, 6), (0.25, 0.5, 0.25)),
    AbsorbingRandomWalk: AbsorbingRandomWalk(start=3, high=5),
    ConstantReinforcement: ConstantReinforcement(4),
    UniformReinforcement: UniformReinforcement(2, 5),
    DiscreteReinforcement: DiscreteReinforcement((2, 7), (0.25, 0.75)),
}
# The extremes of a uniform, the walk's up/down split and the discrete
# examples' CDF steps (0.25 and 0.75), each hit exactly.
EDGE_UNITS = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("t", [0, 1, 5], ids=lambda t: f"t{t}")
@pytest.mark.parametrize("cls", [*DRAW_POLICIES.values(), *REINFORCEMENT_POLICIES.values()],
                         ids=lambda c: c.__name__)
def test_scalar_emission_matches_vector_lane(cls, t):
    # urn_rule calls emit_vec with one float, the engine with one
    # uniform per lane: lane i must equal the float call on u[i], which
    # returns a Python int.
    pol = POLICY_EXAMPLES[cls]
    draw = cls in DRAW_POLICIES.values()
    # previous draw sizes: absorbed low, inside and absorbed high
    prevs = [None] if t == 0 else [1, 3, 5]
    for prev in prevs:
        lanes = np.array(EDGE_UNITS)
        if draw:
            vec = pol.emit_vec(t, lanes, None if prev is None else np.full(len(lanes), prev))
        else:
            vec = pol.emit_vec(t, lanes)
        if pol.stream_lag is not None and t >= pol.stream_lag:
            # the engine's dtype, used as it is
            assert vec.dtype == np.float64, prev
        vec = np.broadcast_to(vec, lanes.shape)
        for i, u in enumerate(EDGE_UNITS):
            one = pol.emit_vec(t, u, prev) if draw else pol.emit_vec(t, u)
            assert type(one) is int, (u, prev)
            assert one == vec[i], (u, prev)


# Stepping and whole trajectories.


def _basic_config(**kw):
    base = dict(a=3, b=4, draw=IidUniform(3), reinforce=UniformReinforcement(1, 2))
    base.update(kw)
    return UrnConfig(**base)


def test_step_updates_both_colors():
    rec = run_trajectory(_basic_config(), 1, 8).record(0)
    assert rec.t == 0
    assert rec.H_after == 3 + rec.R * rec.X
    assert rec.S_after == 7 + rec.R * rec.N
    assert increment_identity_check(rec, 3, 7)


def test_step_rejects_oversized_draw():
    # the rule's own guard, behind the config's k <= a + b check
    with pytest.raises(ModelViolationError, match="outside \\[1, 2\\]"):
        urn_rule(0, 1, 2, DeterministicSchedule((3,)), ConstantReinforcement(1),
                 _streams(), 3, [])


def test_run_trajectory_shapes_and_echo():
    cfg = _basic_config()
    traj = run_trajectory(cfg, 25, 7)
    assert len(traj) == 25
    assert traj.config is cfg
    assert traj.seed == 7
    assert traj.H[-1] / traj.S[-1] == traj.Z[-1]
    # M recomputed from X/N
    m = np.cumsum(traj.X / traj.N) / np.arange(1, 26)
    assert np.allclose(m, traj.M, rtol=1e-12, atol=0)


def test_trajectory_ball_count_identity():
    # S_n = a + b + sum R_j N_j holds exactly in integers
    cfg = _basic_config(a=2, b=5)
    traj = run_trajectory(cfg, 40, 1)
    assert traj.S[-1] == 2 + 5 + int(np.sum(traj.R * traj.N))
    # constant draw and reinforcement: S_n = a + b + k r n exactly
    cfg2 = _basic_config(
        a=2, b=2, draw=DeterministicSchedule((2,)), reinforce=ConstantReinforcement(3)
    )
    traj2 = run_trajectory(cfg2, 30, 0)
    assert traj2.S[-1] == 4 + 2 * 3 * 30


def test_trajectory_determinism_and_rep_independence():
    cfg = _basic_config()
    t1 = run_trajectory(cfg, 30, 5)
    t2 = run_trajectory(cfg, 30, 5)
    assert np.array_equal(t1.X, t2.X) and np.array_equal(t1.R, t2.R)
    t3 = run_trajectory(cfg, 30, 5, rep=1)
    assert not np.array_equal(t1.X, t3.X)


# run_trajectory's column builder against a test-local loop of urn_rule
# on streams derived here, so the slot's key paths are pinned too.

COLUMNS = "NXRHSZM"
STEPS = 300


def rule_columns(cfg, stride, streams, steps):
    h, s, history, xsum = cfg.a, cfg.a + cfg.b, [], 0.0
    cols = {f: [] for f in COLUMNS}
    for t in range(steps):
        n, x, r = urn_rule(t, h, s, cfg.draw, cfg.reinforce, streams, stride, history)
        history.append(n)
        h, s = h + r * x, s + r * n
        xsum += x / n
        for f, v in zip(COLUMNS, (n, x, r, h, s, h / s, xsum / (t + 1))):
            cols[f].append(v)
    return cols


def assert_columns(traj, cols):
    for f in COLUMNS:
        got = getattr(traj, f)
        assert got.dtype == (np.float64 if f in "ZM" else np.int64), f
        assert got.tolist() == cols[f], f


BUILDER_CONFIGS = [
    _basic_config(a=4, b=4, draw=ConstantOne(), reinforce=ConstantReinforcement(2)),
    _basic_config(a=4, b=4, draw=DeterministicSchedule((2, 1, 3))),
    _basic_config(a=4, b=4, draw=IidUniform(4),
                  reinforce=DiscreteReinforcement((1, 4), (0.6, 0.4))),
    _basic_config(a=4, b=4, draw=DiscreteDraw((1, 3), (0.3, 0.7)),
                  reinforce=ConstantReinforcement(2)),
    _basic_config(a=4, b=4, draw=AbsorbingRandomWalk(start=3, high=5)),
    # reads its history: one more than the previous draw, cycling 1..3
    _basic_config(a=4, b=4, draw=CustomRule(
        lambda t, s_prev, hist: 1 + hist[-1] % 3 if hist else 2, bound=3)),
    # a wide stride: a step's 1000 balls span a stream block boundary
    _basic_config(a=1000, b=1000, draw=DiscreteDraw((1, 1000), (0.99, 0.01))),
    # counts past 2**53, where Z must stay the exact H / S of Python ints
    _basic_config(a=2**53 + 1, b=2**53 + 7, draw=IidUniform(3),
                  reinforce=ConstantReinforcement(1)),
]


def past_one_window(stride):
    # one builder window of a run at this stride, and a few steps more
    return max(1, _WINDOW_READS // stride) + 3


@pytest.mark.parametrize("cfg,steps", [
    pytest.param(cfg, steps, id=f"{type(cfg.draw).__name__}-a{cfg.a}{seam}")
    for cfg in BUILDER_CONFIGS
    for steps, seam in ((STEPS, ""), (past_one_window(cfg.draw.bound), "-seam"))
])
def test_run_trajectory_matches_step_loop(cfg, steps):
    traj = run_trajectory(cfg, steps, 11, rep=3)
    assert_columns(traj, rule_columns(cfg, cfg.draw.bound, _streams(seed=11, rep=3), steps))
    assert cfg.draw.bound < 1000 or 1000 in traj.N


def test_extraction_reads_follow_the_draws(monkeypatch):
    # the wide config reads the sum of its draws from its extraction
    # stream, not its stride of 1000 counters a step
    cfg, steps = BUILDER_CONFIGS[6], 300
    reads = {}

    def counting(keys, counters):
        reads[int(keys)] = reads.get(int(keys), 0) + np.size(counters)
        return rng.units_vec(keys, counters)

    monkeypatch.setattr(urn_core, "units_vec", counting)
    traj = run_trajectory(cfg, steps, 11, rep=3)
    extract = rng.derive_key(rng.derive_key(11, "rep", 3), "urn", cfg.label, "extract")
    assert reads[extract] == int(traj.N.sum()) < steps * 1000 // 10


def test_z_is_exact_above_2_53():
    traj = run_trajectory(BUILDER_CONFIGS[-1], 3000, 0)
    exact = [h / s for h, s in zip(traj.H.tolist(), traj.S.tolist())]
    assert traj.Z.tolist() == exact
    # numpy's int64 division rounds H and S to float64 first, so it
    # would not do: this path has steps where the two differ
    assert np.any(traj.H / traj.S != traj.Z)


def test_config_error_collects_all_problems():
    with pytest.raises(ConfigError) as ei:
        UrnConfig(a=0, b=-1, draw=IidUniform(3), reinforce=ConstantReinforcement(1))
    msg = str(ei.value)
    assert "a" in msg and "b" in msg
    assert len(ei.value.problems) == 2


def test_config_rejects_draw_bound_above_capacity():
    with pytest.raises(ConfigError, match="k <= a \\+ b"):
        UrnConfig(a=1, b=1, draw=IidUniform(3), reinforce=ConstantReinforcement(1))


_URN = UrnConfig(a=3, b=3, draw=IidUniform(2), reinforce=ConstantReinforcement(2))

# One constructor per integer field, with True (an int to isinstance)
# in that field and valid values elsewhere.
BOOL_FIELDS = {
    "UrnConfig.a": lambda: UrnConfig(True, 3, IidUniform(2), ConstantReinforcement(2)),
    "UrnConfig.b": lambda: UrnConfig(3, True, IidUniform(2), ConstantReinforcement(2)),
    "UrnSpec.a": lambda: UrnSystem(urns=(UrnSpec("A", True, 3, 1, 1),)),
    "UrnSpec.b": lambda: UrnSystem(urns=(UrnSpec("A", 3, True, 1, 1),)),
    "UrnSpec.draw_base": lambda: UrnSystem(urns=(UrnSpec("A", 3, 3, True, 1),)),
    "UrnSpec.reinforce_base": lambda: UrnSystem(urns=(UrnSpec("A", 3, 3, 1, True),)),
    "ConstantReinforcement": lambda: ConstantReinforcement(True),
    "UniformReinforcement.low": lambda: UniformReinforcement(True, 3),
    "UniformReinforcement.high": lambda: UniformReinforcement(1, True),
    "IidUniform": lambda: IidUniform(True),
    "DeterministicSchedule": lambda: DeterministicSchedule((2, True)),
    "AbsorbingRandomWalk.start": lambda: AbsorbingRandomWalk(start=True, high=3),
    "AbsorbingRandomWalk.high": lambda: AbsorbingRandomWalk(start=1, high=True),
    "CustomRule.bound": lambda: CustomRule(lambda t, s_prev, hist: 1, bound=True),
    "ReplicationPlan.reps": lambda: ReplicationPlan(_URN, reps=True, n=10),
    "ReplicationPlan.n": lambda: ReplicationPlan(_URN, reps=2, n=True),
    "ReplicationPlan.n_proxy": lambda: ReplicationPlan(_URN, reps=2, n=1, n_proxy=True),
}


@pytest.mark.parametrize("build", BOOL_FIELDS.values(), ids=BOOL_FIELDS.keys())
def test_integer_fields_reject_bools(build):
    # Each of these ran with True as 1 (or failed only at a later step),
    # while the CLI and IntegerDistribution reject it.
    with pytest.raises((ConfigError, ParameterError), match="integer"):
        build()


# Property tests: the exact integer identity under fuzzed parameters.


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(1, 50),
    b=st.integers(1, 50),
    high=st.integers(1, 6),
    rhigh=st.integers(1, 5),
    seed=st.integers(0, 2**32),
)
def test_increment_identity_property(a, b, high, rhigh, seed):
    high = min(high, a + b)
    cfg = UrnConfig(a=a, b=b, draw=IidUniform(high),
                    reinforce=UniformReinforcement(1, rhigh))
    traj = run_trajectory(cfg, 5, seed)
    h_prev, s_prev = a, a + b
    for t in range(5):
        rec = traj.record(t)
        assert increment_identity_check(rec, h_prev, s_prev)
        h_prev, s_prev = rec.H_after, rec.S_after
