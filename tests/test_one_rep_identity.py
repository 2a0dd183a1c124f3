"""A trajectory's statistics are the records of its replication.

Every per-trajectory statistic (plug-in estimates, variances, the two
intervals, a combination's interval and the mean-reinforcement test)
reads the one-rep block of ``engine.trajectory_snapshot``, so on
``run_trajectory(cfg, n, seed, r)`` or ``run_system(...)`` it must
equal, bit for bit, the record value of rep ``r`` from one
``replicate`` call of the same config and seed.  The configs cover
every JSON draw and reinforcement policy, a three-urn system with both
factors, and reference-urn reps at n = 2000, where the plain running
mean ``Trajectory.M`` and the records' Kahan mean differ in the last
bits.
"""

import pytest

from hrru import montecarlo as mc
from hrru.estimators import (
    FROM_MN,
    FROM_ZN,
    PlugInEstimates,
    half_width,
    mean_interval,
    plugin_estimates,
    proportion_interval,
    trajectory_variances,
)
from hrru.multi_urn import (
    CommonFactors,
    UrnSpec,
    UrnSystem,
    linear_combination_ci,
    mean_reinforcement_test,
    run_system,
)
from hrru.urn_core import IidUniform, IntegerDistribution, UniformReinforcement, UrnConfig, run_trajectory
from test_contract_oracle import URNS, _parsed

# The same level on both sides: the records' intervals read
# z_{1 - (1 - level)/2}, and 1 - 0.95 is not 0.05 in float64.
LEVEL = 0.9
ALPHA = 1.0 - LEVEL
REFERENCE = UrnConfig(a=10, b=10, draw=IidUniform(4), reinforce=UniformReinforcement(1, 3))
UNIFORM3 = IntegerDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
SYSTEM = UrnSystem(
    urns=(UrnSpec("A", 10, 10, 2, 1), UrnSpec("B", 8, 12, 1, 2), UrnSpec("C", 9, 9, 3, 1)),
    factors=CommonFactors(draw=UNIFORM3, reinforce=UNIFORM3),
)
# every JSON policy, without the 1000-ball draw the engine pays for per ball
SINGLE = {name: _parsed(config) for name, config in URNS.items() if name != "wide-draw"}


def _records(config, reps, n, seed):
    plan = mc.ReplicationPlan(config=config, reps=reps, n=n, master_seed=seed, horizons=(n,))
    return plan, mc.replicate(plan, workers=1)


def assert_single_urn(traj, cfg, blk, r):
    # the records' arrays over every rep, read at rep r
    v, w, u = blk.variances()
    assert plugin_estimates(traj) == PlugInEstimates(
        m_n=blk.reinf_mean[r], q_n=blk.reinf_sqmean[r], mu_n=blk.draw_mean[r],
        eta_n=blk.draw_recipmean[r], n=blk.horizon, iid_assumptions_met=cfg.draw.iid_draws)
    assert trajectory_variances(traj) == (v[r], w[r], u[r])
    for ci, basis, center, var in ((proportion_interval(traj, ALPHA), FROM_ZN, blk.z, v),
                                   (mean_interval(traj, ALPHA), FROM_MN, blk.m_emp, w)):
        assert (ci.basis, ci.n, ci.center) == (basis, blk.horizon, center[r])
        assert ci.half_width == half_width(var, blk.horizon, ALPHA)[r]


@pytest.mark.parametrize("name", SINGLE)
def test_single_urn_statistics_are_the_records_of_their_rep(name):
    cfg, seed = SINGLE[name]
    _, records = _records(cfg, reps=4, n=150, seed=seed)
    for r in range(4):
        assert_single_urn(run_trajectory(cfg, 150, seed, r), cfg, records.single.at_n, r)


def test_reference_urn_statistics_are_the_records_at_n_2000():
    # At this horizon Trajectory.M differs from the records' m_emp in
    # most reps; the statistics read the records' value.
    _, records = _records(REFERENCE, reps=5, n=2000, seed=7)
    blk = records.single.at_n
    for r in range(5):
        traj = run_trajectory(REFERENCE, 2000, 7, r)
        assert_single_urn(traj, REFERENCE, blk, r)
    assert any(run_trajectory(REFERENCE, 2000, 7, r).M[-1] != blk.m_emp[r] for r in range(5))


def test_system_statistics_are_the_records_of_their_rep():
    n, seed, reps = 200, 3, 6
    plan, records = _records(SYSTEM, reps=reps, n=n, seed=seed)
    at_n = {lab: u.at_n for lab, u in records.urns.items()}
    coeffs = {"C": 0.5, "A": -1.25, "B": 2.0}
    centers = {basis: mc.combination(coeffs, at_n, basis) for basis in ("Z", "M")}
    stat, applicable, reject = mc.mean_reinforcement(
        at_n["A"], [at_n["C"].reinf_mean, at_n["B"].reinf_mean], 0.5)
    tests = []
    for r in range(reps):
        straj = run_system(SYSTEM, n, seed, r)
        for slot in SYSTEM.lockstep[0]:
            assert_single_urn(straj.urn(slot.config.label), slot.config, at_n[slot.config.label], r)
        for basis, (center, variance) in centers.items():
            ci = linear_combination_ci(straj, coeffs, basis, n, LEVEL)
            assert (ci.center, ci.n) == (center[r], n)
            assert ci.half_width == half_width(variance, n, ALPHA)[r]
        res = mean_reinforcement_test(straj, "A", ("C", "B"), n, 0.5)
        assert (res.applicable, res.reject) == (applicable[r], reject[r])
        assert res.statistic == (stat[r] if applicable[r] else None)
        tests.append(res)
    freq = mc.mtest_rejection(plan, "A", ("C", "B"), 0.5, records)
    assert (freq.rejections, freq.applicable) == (sum(t.reject for t in tests),
                                                  sum(t.applicable for t in tests))
