"""Exact-arithmetic urn mechanics: draws, reinforcement, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contract_oracle as oracle
from hrru import rng, urn_core
from hrru.cli import ExperimentConfig, MTest, Plan, Steps, config_to_json_dict
from hrru.engine import run_chunk, sample_hypergeometric_batch, trajectory_snapshot
from hrru.montecarlo import ReplicationPlan, hitting_probability_check, replicate
from hrru.multi_urn import UrnSpec, UrnSystem, run_system
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
    DeterministicSchedule,
    DiscreteDraw,
    DiscreteReinforcement,
    IidUniform,
    IntegerDistribution,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    increment_identity_check,
    run_trajectory,
    walk_move,
)


def _key(purpose, seed=0, rep=0, label="u0"):
    # An urn's own stream key, from the contract oracle's key tree.
    return oracle.derive_key(oracle.derive_key(seed, "rep", rep), "urn", label, purpose)


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
    # sample j * 200 + i reads counters from (j * 200 + i) * n_draw on
    key = _key("extract")
    for j, (n_draw, total, marked) in enumerate([(3, 7, 2), (5, 5, 3), (2, 9, 0), (4, 6, 6)]):
        xs = sample_hypergeometric_batch(key, n_draw, total, marked, (j + 1) * 200)[j * 200:]
        assert max(0, n_draw - (total - marked)) <= xs.min()
        assert xs.max() <= min(n_draw, marked)


def test_sample_hypergeometric_exhaustive_draw():
    # drawing the whole urn returns exactly the marked count
    assert sample_hypergeometric_batch(_key("extract"), 6, 6, 4, 50).tolist() == [4] * 50


def test_sample_hypergeometric_frequencies():
    n_draw, total, marked = 3, 10, 4
    pmf = exact_pmf(n_draw, total, marked)
    reps = 20000
    xs = sample_hypergeometric_batch(_key("extract", seed=5), n_draw, total, marked, reps)
    counts = np.bincount(xs, minlength=n_draw + 1)
    assert counts.sum() == sum(counts[x] for x in pmf) == reps
    for x, p in pmf.items():
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(counts[x] / reps - p) < 5 * se


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


def test_integer_distribution_rejects_values_past_the_float_range():
    # np.asarray(values, dtype=float64) raised OverflowError before any
    # range rule ran; the law names the value instead, as a policy does.
    # The largest float's integer still samples exactly.
    for law in (IntegerDistribution, DiscreteDraw, DiscreteReinforcement):
        with pytest.raises(ParameterError, match=r"values\[1\]: integer is too large for a float"):
            law((1, 10**400), (0.5, 0.5))
    top = int(np.finfo(np.float64).max)
    assert IntegerDistribution((1, top), (0.5, 0.5)).sample(0.75) == top


def _emissions(pol, key, steps):
    # A policy run alone on the contract oracle's stream ``key``: step t
    # hands emit_vec the uniform at counter t - stream_lag (none without
    # a lag or before that counter) and, for a draw-size policy, the
    # previous emission.
    out = []
    for t in range(steps):
        lag = pol.stream_lag
        u = None if lag is None or t < lag else oracle.uniform(key, t - lag)
        if type(pol) in REINFORCEMENT_POLICIES.values():
            out.append(pol.emit_vec(t, u))
        else:
            out.append(pol.emit_vec(t, u, out[-1] if out else None))
    return out


def test_deterministic_schedule_repeats_last():
    pol = DeterministicSchedule((1, 3, 2))
    assert _emissions(pol, _key("draw"), 6) == [1, 3, 2, 2, 2, 2]
    assert pol.bound == 3
    assert not pol.iid_draws
    assert DeterministicSchedule((2, 2, 2)).iid_draws


def test_iid_uniform_range_and_mean():
    pol = IidUniform(4)
    vals = _emissions(pol, _key("draw", seed=9), 8000)
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
    walk = _emissions(pol, _key("draw", seed=2), 200)
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
    key = _key("draw", seed=4)
    prev = pol.start
    assert traj.N[0] == prev
    for t in range(1, 50):
        prev = walk_move(prev, oracle.uniform(key, t - 1), pol.high)
        assert traj.N[t] == prev


def test_reinforcement_policies():
    s = _key("reinforce", seed=3)
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
    # The trajectory builder calls emit_vec with one float for a step
    # that emits alone, the engine with one uniform per lane: lane i
    # must equal the float call on u[i], which returns a Python int.
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


# run_trajectory's column builder against the contract oracle, which
# reads the config's JSON echo and derives the streams along the
# README's key tree, so the slot's key paths are pinned too.

STEPS = 300


def oracle_columns(config, seed, rep, steps):
    # The oracle's columns per urn label for a library urn or system.
    urn = isinstance(config, UrnConfig)
    echo = config_to_json_dict(
        ExperimentConfig("simulate", urn=config, plan=Steps(n=1, seed=seed)) if urn else
        ExperimentConfig("mtest", system=config, plan=Plan(reps=1, n=1, seed=seed),
                         options=MTest(target="", reference=())))
    return oracle.trajectories(echo, rep, steps)


def assert_columns(traj, cols):
    for f in oracle.COLUMNS:
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
    assert_columns(traj, oracle_columns(cfg, 11, 3, steps)[cfg.label])
    assert cfg.draw.bound < 1000 or 1000 in traj.N


def test_extraction_reads_follow_the_draws(monkeypatch):
    # the wide config reads the sum of its draws from its extraction
    # stream, not its stride of 1000 counters a step
    cfg, steps = BUILDER_CONFIGS[5], 300
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


class _ZeroDraw:
    # Off the draw menu: a bound within a + b, and a draw size of 0.
    bound = 2
    stream_lag = None

    def emit_vec(self, t, u, n_prev):
        return 0


class _ZeroReinforcement(ConstantReinforcement):
    # A subclass is off the menu too: it can override the menu's rule.
    def emit_vec(self, t, u):
        return 0


def test_config_refuses_a_policy_off_the_json_menu():
    # The config proves every step exists, so neither path re-checks one.
    with pytest.raises(ConfigError) as ei:
        UrnConfig(a=3, b=3, draw=_ZeroDraw(), reinforce=_ZeroReinforcement(1))
    assert [p.split(":")[0] for p in ei.value.problems] == ["draw", "reinforce"]
    assert "constant-one, schedule, iid-uniform" in ei.value.problems[0]
    assert "constant, uniform-range, discrete" in ei.value.problems[1]
    # refused before its bound is read
    with pytest.raises(ConfigError, match="^draw: must be a policy on the JSON menu"):
        UrnConfig(a=3, b=3, draw=object(), reinforce=ConstantReinforcement(1))


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
    "ReplicationPlan.reps": lambda: ReplicationPlan(_URN, reps=True, n=10),
    "ReplicationPlan.n": lambda: ReplicationPlan(_URN, reps=2, n=True),
    "ReplicationPlan.n_proxy": lambda: ReplicationPlan(_URN, reps=2, n=1, n_proxy=True),
    "ReplicationPlan.master_seed": lambda: ReplicationPlan(_URN, reps=2, n=1, master_seed=True),
    "ReplicationPlan.horizons": lambda: ReplicationPlan(_URN, reps=2, n=1, horizons=(True,)),
    "hitting_probability_check.master_seed": lambda: hitting_probability_check(
        2, 4, 8, master_seed=True),
    "run_trajectory.rep": lambda: run_trajectory(_URN, 5, 1, rep=True),
    "run_system.rep": lambda: run_system(UrnSystem(urns=(UrnSpec("A", 3, 3, 1, 1),)), 5, 1,
                                         rep=True),
    "run_chunk.rep_lo": lambda: run_chunk(_URN, 1, True, 3, (5,)),
    "run_chunk.rep_hi": lambda: run_chunk(_URN, 1, 0, True, (5,)),
    "trajectory_snapshot.horizon": lambda: trajectory_snapshot(run_trajectory(_URN, 5, 1),
                                                                       (True,)),
}


@pytest.mark.parametrize("build", BOOL_FIELDS.values(), ids=BOOL_FIELDS.keys())
def test_integer_fields_reject_bools(build):
    # Each of these ran with True as 1 (or failed only at a later step,
    # or with rng's TypeError), while the CLI and IntegerDistribution
    # reject it.
    with pytest.raises((ConfigError, ParameterError), match="integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: run_trajectory(_URN, 5, 1.7),
    lambda: ReplicationPlan(_URN, reps=3, n=5, master_seed=1.7),
    lambda: hitting_probability_check(2, 4, 8, master_seed=1.7),
], ids=["run_trajectory", "ReplicationPlan", "hitting_probability_check"])
def test_master_seed_rejects_floats(build):
    # int() would run 1.7 as seed 1, and derive_key cannot mask a float
    with pytest.raises(ParameterError, match="master seed must be an integer"):
        build()


@pytest.mark.parametrize("rep", [2**64, -1, 1.5, "2", np.bool_(True)], ids=repr)
def test_rep_outside_the_key_range_is_refused(rep):
    # the key tree reads rep as a 64-bit word: 2**64 ran as rep 0, and
    # -1, 1.5 and "2" failed with a TypeError or ValueError of rng's
    with pytest.raises(ParameterError, match="replication index must be an integer"):
        run_trajectory(_URN, 5, 7, rep=rep)


@pytest.mark.parametrize("rep", [np.int64(2), np.uint64(2), 2**64 - 1], ids=repr)
def test_rep_accepts_every_integer_in_the_key_range(rep):
    traj = run_trajectory(_URN, 50, 7, rep=rep)
    assert traj.X.tolist() == oracle_columns(_URN, 7, int(rep), 50)["u0"]["X"]


@pytest.mark.parametrize("seed", [-3, np.int64(5), np.uint64(5)], ids=repr)
def test_master_seed_accepts_every_integer(seed):
    # a negative seed, as the CLI takes it, and numpy integers all run
    # as the Python int of the same value
    traj = run_trajectory(_URN, 5, seed)
    assert type(traj.seed) is int and traj.seed == seed
    assert traj.Z.tolist() == run_trajectory(_URN, 5, int(seed)).Z.tolist()
    plan = ReplicationPlan(_URN, reps=3, n=5, master_seed=seed)
    assert type(plan.master_seed) is int and plan.master_seed == seed
    same = ReplicationPlan(_URN, reps=3, n=5, master_seed=int(seed))
    assert replicate(plan, 1).single.at_n.z.tolist() == replicate(same, 1).single.at_n.z.tolist()


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
