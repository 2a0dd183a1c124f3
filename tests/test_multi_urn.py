"""Coupled urns: shared factors, cross statistics, combined intervals."""

import numpy as np
import pytest

from hrru.engine import trajectory_snapshot
from hrru.estimators import FROM_MN, FROM_ZN, trajectory_variances
from hrru.multi_urn import (
    CommonFactors,
    UrnSpec,
    UrnSystem,
    conditional_independence_stat,
    linear_combination_ci,
    mean_reinforcement_test,
    run_system,
)
from hrru.urn_core import ConfigError, ParameterError, run_trajectory
from test_urn_core import assert_columns, oracle_columns, past_one_window

UNIFORM3 = dict(values=(0, 1, 2), probs=(1 / 3, 1 / 3, 1 / 3))


def _dist(**kw):
    from hrru.urn_core import IntegerDistribution

    spec = dict(UNIFORM3)
    spec.update(kw)
    return IntegerDistribution(spec["values"], spec["probs"])


def _system(labels=("A", "B"), a=10, b=10, draw_base=2, reinforce_base=1,
            factors=None):
    urns = tuple(
        UrnSpec(label=lab, a=a, b=b, draw_base=draw_base, reinforce_base=reinforce_base)
        for lab in labels
    )
    return UrnSystem(urns=urns, factors=factors or CommonFactors())


def test_system_validation_collects_everything():
    # An urn checks its own fields, all in one pass; the system keeps the
    # rules across urns, such as distinct labels.
    with pytest.raises(ConfigError) as ei:
        UrnSpec(label="A", a=0, b=-2, draw_base=1, reinforce_base=0)
    assert [p.split(":", 1)[0] for p in ei.value.problems] == ["a", "b", "reinforce_base"]
    with pytest.raises(ConfigError) as ei:
        _system(labels=("A", "B", "A"))
    assert ei.value.problems == ["urns: labels must be distinct, got ['A', 'B', 'A']"]


def test_system_validation_cross_checks_after_basics():
    # bound checks run once the per-urn basics are valid
    with pytest.raises(ConfigError) as ei:
        UrnSystem(
            urns=(
                UrnSpec(label="A", a=3, b=3, draw_base=9, reinforce_base=1),
                UrnSpec(label="B", a=2, b=2, draw_base=5, reinforce_base=1),
            ),
            factors=CommonFactors(),
        )
    assert any("k <= a + b" in p for p in ei.value.problems)


def test_system_rejects_factor_that_can_zero_the_draw():
    bad = _dist(values=(-1, 0, 1))
    with pytest.raises(ConfigError, match="min F' >= 1"):
        _system(draw_base=1, factors=CommonFactors(draw=bad))


def test_system_rejects_draw_bound_above_smallest_urn():
    with pytest.raises(ConfigError, match="k <= a \\+ b"):
        _system(a=2, b=1, draw_base=2, factors=CommonFactors(draw=_dist()))


def test_system_k_and_stride():
    sys2 = _system(draw_base=2, factors=CommonFactors(draw=_dist(), reinforce=_dist()))
    assert sys2.k == 4
    assert sys2.draw_stride == 4
    plain = _system(draw_base=3)
    assert plain.k == 3
    assert plain.draw_stride == 3


def test_shared_factors_are_identical_across_urns():
    sys2 = _system(factors=CommonFactors(draw=_dist(), reinforce=_dist()))
    traj = run_system(sys2, 30, 0)
    for lab in ("A", "B"):
        assert (traj.urn(lab).N - 2).tolist() == traj.factor_draw.tolist()
        assert (traj.urn(lab).R - 1).tolist() == traj.factor_reinforce.tolist()
    assert len(set(traj.factor_draw.tolist())) > 1


# run_system's column builder against the contract oracle, which derives
# the shared factor streams and each urn's own extraction stream along
# the README's key tree.

BUILDER_SYSTEMS = {
    "full-factors": UrnSystem(
        urns=(UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
              UrnSpec(label="B", a=8, b=12, draw_base=1, reinforce_base=2)),
        factors=CommonFactors(draw=_dist(), reinforce=_dist()),
    ),
    "reinforce-only-factor": _system(factors=CommonFactors(reinforce=_dist())),
    "no-factors": _system(labels=("only",), a=5, b=5, draw_base=3, reinforce_base=2),
}


@pytest.mark.parametrize("name,seam", [
    pytest.param(name, seam, id=name + ("-seam" if seam else ""))
    for name in BUILDER_SYSTEMS for seam in (False, True)
])
def test_run_system_matches_system_step_loop(name, seam):
    system = BUILDER_SYSTEMS[name]
    steps = past_one_window(system.draw_stride) if seam else 60
    traj = run_system(system, steps, master_seed=4, rep=2)
    want = oracle_columns(system, 4, 2, steps)
    assert list(want) == list(system.labels)
    for label, cols in want.items():
        assert_columns(traj.urn(label), cols)
    first = system.urns[0]
    assert traj.factor_draw.dtype == traj.factor_reinforce.dtype == np.int64
    assert (traj.factor_draw + first.draw_base).tolist() == traj.urn(first.label).N.tolist()
    assert (traj.factor_reinforce + first.reinforce_base).tolist() == \
        traj.urn(first.label).R.tolist()


def test_single_urn_system_reduces_to_plain_trajectory():
    # one urn, no factors: the system must reproduce the single-urn
    # engine bit for bit, because the streams and ops are shared
    sys1 = _system(labels=("u0",), draw_base=2, reinforce_base=3)
    straj = run_system(sys1, 40, master_seed=5)
    single = straj.urns["u0"]
    cfg = single.config
    direct = run_trajectory(cfg, 40, 5)
    assert np.array_equal(single.X, direct.X)
    assert np.array_equal(single.H, direct.H)
    assert np.array_equal(single.S, direct.S)
    assert np.array_equal(single.Z, direct.Z)
    assert np.array_equal(single.M, direct.M)


def test_marginal_config_echo_matches_behavior():
    # factor-shifted draws echo as an explicit integer law
    sys2 = _system(factors=CommonFactors(draw=_dist()))
    straj = run_system(sys2, 25, master_seed=1)
    cfg = straj.urns["A"].config
    assert cfg.draw.iid_draws
    assert cfg.draw.bound == 4
    assert set(np.unique(straj.urns["A"].N)) <= {2, 3, 4}


def test_run_system_determinism_and_rep():
    sys2 = _system(factors=CommonFactors(reinforce=_dist()))
    a1 = run_system(sys2, 30, 9)
    a2 = run_system(sys2, 30, 9)
    assert np.array_equal(a1.urns["A"].X, a2.urns["A"].X)
    b = run_system(sys2, 30, 9, rep=4)
    assert not np.array_equal(a1.urns["A"].X, b.urns["A"].X)
    assert np.array_equal(a1.factor_reinforce, a2.factor_reinforce)


def test_conditional_independence_stat_centers_near_zero():
    sys2 = _system(factors=CommonFactors(reinforce=_dist()))
    straj = run_system(sys2, 4000, 3)
    stat = conditional_independence_stat(straj, "A", "B")
    assert stat.steps == 4000
    assert abs(stat.in_units_of_se) < 4.0
    with pytest.raises(ParameterError):
        conditional_independence_stat(straj, "A", "missing")
    with pytest.raises(ParameterError, match=r"n must be an integer in \[1, 4000\]"):
        conditional_independence_stat(straj, "A", "B", 4001)


def test_singleton_combination_equals_plain_interval():
    from hrru.estimators import proportion_interval, mean_interval

    sys2 = _system(factors=CommonFactors(reinforce=_dist()))
    straj = run_system(sys2, 60, 2)
    ci = linear_combination_ci(straj, {"A": 1.0}, "Z", 60, 0.95)
    solo = proportion_interval(straj.urns["A"], 0.05)
    assert ci.center == solo.center
    assert ci.half_width == solo.half_width
    ci_m = linear_combination_ci(straj, {"A": 1.0}, "M", 60, 0.95)
    solo_m = mean_interval(straj.urns["A"], 0.05)
    assert ci_m.center == solo_m.center
    assert ci_m.half_width == solo_m.half_width
    assert ci.basis == FROM_ZN and ci_m.basis == FROM_MN


def test_difference_combination_variance_adds():
    sys2 = _system(factors=CommonFactors(reinforce=_dist()))
    straj = run_system(sys2, 60, 2)
    ci = linear_combination_ci(straj, {"A": 1.0, "B": -1.0}, "Z", 60, 0.95)
    z = {lab: trajectory_snapshot(straj.urns[lab], (60,))[0]["z"] for lab in ("A", "B")}
    assert ci.center == pytest.approx(z["A"] - z["B"], rel=1e-15)
    var = trajectory_variances(straj.urns["A"])[0] + trajectory_variances(straj.urns["B"])[0]
    from hrru.estimators import normal_quantile

    assert ci.half_width == pytest.approx(
        normal_quantile(0.975) * np.sqrt(var / 60), rel=1e-12
    )


def test_linear_combination_validation():
    sys2 = _system()
    straj = run_system(sys2, 20, 0)
    with pytest.raises(ParameterError):
        linear_combination_ci(straj, {}, "Z", 20, 0.95)
    with pytest.raises(ParameterError):
        linear_combination_ci(straj, {"A": 0.0}, "Z", 20, 0.95)
    with pytest.raises(ParameterError):
        linear_combination_ci(straj, {"nope": 1.0}, "Z", 20, 0.95)
    with pytest.raises(ParameterError):
        linear_combination_ci(straj, {"A": 1.0}, "Q", 20, 0.95)
    with pytest.raises(ParameterError):
        linear_combination_ci(straj, {"A": 1.0}, "Z", 20, 1.5)
    with pytest.raises(ParameterError, match="finite"):
        linear_combination_ci(straj, {"A": float("nan"), "B": 1.0}, "Z", 20, 0.95)


@pytest.mark.parametrize("edge,inward", [(2.0**-53, np.inf), (1.0 - 2.0**-53, 0.0)],
                         ids=["low", "high"])
def test_a_level_whose_quantile_rounds_to_1_is_refused(edge, inward):
    # 1 - level/2 (the test) and 1 - (1 - level)/2 (the intervals) round
    # to 1.0 in float64 at a level 2**-53 from either end; the next
    # level inward has finite quantiles.
    straj = run_system(_system(factors=CommonFactors(reinforce=_dist())), 60, 2)
    for level in (edge, 0.0, 1.0):
        for stat in (lambda: linear_combination_ci(straj, {"A": 1.0}, "Z", 60, level),
                     lambda: mean_reinforcement_test(straj, "A", ("B",), 60, level)):
            with pytest.raises(ParameterError, match=r"^level: must lie in \(0, 1\)"):
                stat()
    level = float(np.nextafter(edge, inward))
    assert np.isfinite(linear_combination_ci(straj, {"A": 1.0}, "Z", 60, level).half_width)
    assert mean_reinforcement_test(straj, "A", ("B",), 60, level).statistic is not None


def test_mean_reinforcement_test_basics():
    sys3 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="B", a=10, b=10, draw_base=2, reinforce_base=1),
            UrnSpec(label="C", a=10, b=10, draw_base=2, reinforce_base=1),
        ),
        factors=CommonFactors(reinforce=_dist()),
    )
    straj = run_system(sys3, 300, 4)
    res = mean_reinforcement_test(straj, "A", ("B", "C"), 300, 0.05)
    assert res.applicable
    assert res.statistic is not None and res.statistic >= 0.0
    assert res.n == 300
    assert res.reference == ("B", "C")

    # relabeling the reference set must not change the statistic
    res2 = mean_reinforcement_test(straj, "A", ("C", "B"), 300, 0.05)
    assert res2.statistic == pytest.approx(res.statistic, rel=1e-12)

    # a tighter level can only make rejection easier
    res_tight = mean_reinforcement_test(straj, "A", ("B", "C"), 300, 0.5)
    assert res_tight.reject or not res.reject


def test_mean_reinforcement_test_inapplicable_when_variance_zero():
    # constant unit draws with constant reinforcement: the comparison
    # variance vanishes, so the test must decline rather than divide
    sys1 = UrnSystem(
        urns=(
            UrnSpec(label="A", a=5, b=5, draw_base=1, reinforce_base=2),
            UrnSpec(label="B", a=5, b=5, draw_base=1, reinforce_base=2),
        ),
        factors=CommonFactors(),
    )
    straj = run_system(sys1, 50, 0)
    res = mean_reinforcement_test(straj, "A", ("B",), 50, 0.05)
    assert not res.applicable
    assert res.statistic is None
    assert not res.reject


def test_mean_reinforcement_test_validation():
    sys2 = _system()
    straj = run_system(sys2, 20, 0)
    with pytest.raises(ParameterError):
        mean_reinforcement_test(straj, "A", (), 20, 0.05)
    with pytest.raises(ParameterError):
        mean_reinforcement_test(straj, "A", ("A",), 20, 0.05)
    with pytest.raises(ParameterError):
        mean_reinforcement_test(straj, "A", ("B", "B"), 20, 0.05)
    with pytest.raises(ParameterError):
        mean_reinforcement_test(straj, "missing", ("B",), 20, 0.05)
