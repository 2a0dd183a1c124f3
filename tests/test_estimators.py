"""Plug-in estimators, variance constructions, and intervals."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrru.estimators import (
    FROM_MN,
    FROM_ZN,
    confidence_interval,
    mean_interval,
    normal_cdf,
    normal_quantile,
    plugin_estimates,
    proportion_interval,
    trajectory_variances,
    variance_terms,
)
from hrru.engine import trajectory_snapshot
from hrru.multi_urn import UrnSpec, UrnSystem, conditional_independence_stat, run_system
from hrru.urn_core import (
    IidUniform,
    ParameterError,
    UniformReinforcement,
    UrnConfig,
    run_trajectory,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _traj(a=4, b=4, high=3, rlow=1, rhigh=3, steps=60, seed=0):
    cfg = UrnConfig(a=a, b=b, draw=IidUniform(high),
                    reinforce=UniformReinforcement(rlow, rhigh))
    return run_trajectory(cfg, steps, seed)


def test_moment_estimates_match_direct_sums():
    traj = _traj()
    est = plugin_estimates(traj)
    n = len(traj)
    assert est.n == n
    assert est.m_n == pytest.approx(np.sum(traj.R) / n, rel=1e-15)
    assert est.q_n == pytest.approx(np.sum(traj.R.astype(float) ** 2) / n, rel=1e-15)
    assert est.mu_n == pytest.approx(np.sum(traj.N) / n, rel=1e-15)
    assert est.eta_n == pytest.approx(np.sum(1.0 / traj.N) / n, rel=1e-12)
    assert est.iid_assumptions_met


def test_moment_estimates_frozen_example():
    # reinforcements 2, 3, 4: mean 3, second moment 29/3
    m_n = (2 + 3 + 4) / 3
    q_n = (4 + 9 + 16) / 3
    assert m_n == 3.0
    assert q_n == pytest.approx(29.0 / 3.0)
    v, w, u = variance_terms(z=0.5, m_emp=0.5, m_n=m_n, q_n=q_n, mu_n=1.0, eta_n=1.0)
    # with N identically 1: bracket = q/m^2 + eta - 2 = 29/27 - 1
    assert u == pytest.approx((29.0 / 27.0 - 1.0) * 0.25)


def test_variance_frozen_unit_case():
    # Z = 1/2 and unit moments: V = 1/4
    v, w, u = variance_terms(z=0.5, m_emp=0.5, m_n=1.0, q_n=1.0, mu_n=1.0, eta_n=1.0)
    assert v == 0.25
    assert w == 0.25
    assert u == 0.0


def test_estimate_invariants():
    # integer reinforcements >= 1 and draws >= 1 force these bounds
    for seed in range(8):
        est = plugin_estimates(_traj(seed=seed, steps=37))
        assert est.m_n >= 1.0
        assert est.q_n >= est.m_n ** 2 - 1e-12
        assert est.mu_n >= 1.0
        assert est.eta_n * est.mu_n >= 1.0 - 1e-12


def test_variance_decomposition_identity():
    # W - U * (M(1-M) / Z(1-Z)) == (q / m^2 mu) * M(1-M)
    traj = _traj(steps=80, seed=3)
    est = plugin_estimates(traj)
    snap = trajectory_snapshot(traj, (len(traj),))[0]
    z, m_emp = snap["z"], snap["m_emp"]
    _, w_n, u_n = trajectory_variances(traj)
    core = est.q_n / (est.m_n ** 2 * est.mu_n)
    lhs = w_n - u_n * (m_emp * (1 - m_emp)) / (z * (1 - z))
    rhs = core * m_emp * (1 - m_emp)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trajectory_variances_match_manual():
    # variance_terms of the snapshot's Z_n, Kahan M_n and plug-in means
    traj = _traj(steps=50, seed=9)
    est = plugin_estimates(traj)
    var = trajectory_variances(traj)
    snap = trajectory_snapshot(traj, (len(traj),))[0]
    assert var == variance_terms(snap["z"], snap["m_emp"], est.m_n, est.q_n,
                                 est.mu_n, est.eta_n)
    assert var[0] >= 0 and var[1] >= 0


def test_plugin_statistics_refuse_a_horizon_outside_the_trajectory():
    traj = _traj(steps=10)
    for f in (plugin_estimates, trajectory_variances,
              lambda t, n: proportion_interval(t, 0.05, n)):
        for n in (0, 11, True, 2.0):
            with pytest.raises(ParameterError, match=r"n must be an integer in \[1, 10\]"):
                f(traj, n)


def test_plugin_statistics_take_a_numpy_integer_horizon():
    # the one horizon rule (check_horizons) accepts numpy integers, as
    # trajectory_snapshot did, and still refuses a bool
    traj = _traj(steps=10)
    straj = run_system(UrnSystem(urns=(UrnSpec("A", 4, 4, 2, 1), UrnSpec("B", 5, 3, 1, 2))),
                       10, 3)
    for f in (plugin_estimates, trajectory_variances,
              lambda t, n: proportion_interval(t, 0.05, n),
              lambda t, n: mean_interval(t, 0.05, n)):
        assert f(traj, np.int64(7)) == f(traj, 7)
        with pytest.raises(ParameterError, match=r"n must be an integer in \[1, 10\]"):
            f(traj, np.bool_(True))
    stat = lambda n: conditional_independence_stat(straj, "A", "B", n)  # noqa: E731
    assert stat(np.int32(7)) == stat(7)
    with pytest.raises(ParameterError, match=r"n must be an integer in \[1, 10\]"):
        stat(True)


@settings(max_examples=150, deadline=None)
@given(
    z=st.floats(0.0, 1.0),
    m_emp=st.floats(0.0, 1.0),
    m_n=st.floats(1.0, 50.0),
    extra=st.floats(0.0, 100.0),
    mu_n=st.floats(1.0, 50.0),
    slack=st.floats(0.0, 10.0),
)
def test_variance_terms_nonnegative(z, m_emp, m_n, extra, mu_n, slack):
    # q >= m^2 and eta >= 1/mu hold for any integer-valued model; under
    # those constraints all three variance forms are nonnegative
    q_n = m_n * m_n + extra
    eta_n = 1.0 / mu_n + slack
    v, w, u = variance_terms(z, m_emp, m_n, q_n, mu_n, eta_n)
    assert v >= 0.0
    assert w >= -1e-15
    assert u >= -1e-15


# Normal quantile and CDF.


def test_normal_quantile_against_oracle_table():
    rows = json.loads((FIXTURES / "normal_quantile_table.json").read_text())
    for p_repr, q in rows:
        got = normal_quantile(float(p_repr))
        assert got == pytest.approx(q, abs=1e-13, rel=1e-13), p_repr


def _around(p):
    return [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]


# repr of the quantile at its branch edges (|p - 0.5| = 0.425 and
# min(p, 1 - p) = exp(-25)), one ulp on each side, and its extremes:
# frozen from the hand-written PPND16 code that statistics.NormalDist
# replaced, so the bytes of every interval stay as they were.
QUANTILE_PINS = list(zip(
    _around(0.075) + _around(0.925) + _around(math.exp(-25)) + _around(1 - math.exp(-25))
    + [1e-300, 5e-324, 1 - 2**-53, 0.975, 1 - 0.05 / 2, 0.5],
    ["-1.4395314709384555", "-1.4395314709384557", "-1.4395314709384557",
     "1.4395314709384552", "1.439531470938456", "1.4395314709384568",
     "-6.6579046435011024", "-6.6579046435011024", "-6.6579046435011024",
     "6.657904029578415", "6.657905204845547", "6.657906380121875",
     "-37.0470962993612", "-38.46740561714434", "8.209536151601386",
     "1.9599639845400536", "1.9599639845400536", "0.0"],
))


@pytest.mark.parametrize("p, want", QUANTILE_PINS)
def test_normal_quantile_bits_are_pinned(p, want):
    assert repr(normal_quantile(p)) == want
    assert repr(float(normal_quantile(np.float64(p)))) == want


def test_normal_quantile_key_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=5e-7)


def test_normal_quantile_symmetry():
    for p in (0.8, 0.99, 0.9999, 0.6):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), rel=1e-12)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(ParameterError):
            normal_quantile(bad)


def test_normal_cdf_quantile_roundtrip():
    for p in (0.001, 0.3, 0.5, 0.84, 0.999):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-10, abs=1e-12)


# Confidence intervals.


def test_interval_frozen_example():
    # alpha 0.05, variance 0.25, n 100: half width 1.959964 * 0.05
    ci = confidence_interval(FROM_ZN, 0.5, 0.25, 100, 0.05)
    assert ci.half_width == pytest.approx(0.097998, abs=5e-7)
    assert ci.level == pytest.approx(0.95)
    assert ci.basis == FROM_ZN
    assert ci.lower == pytest.approx(0.5 - ci.half_width)
    assert ci.upper == pytest.approx(0.5 + ci.half_width)


def test_interval_width_scales_with_root_n():
    # quadrupling n halves the width, exactly, at fixed variance
    w_n = confidence_interval(FROM_ZN, 0.5, 0.3, 50, 0.05).half_width
    w_4n = confidence_interval(FROM_ZN, 0.5, 0.3, 200, 0.05).half_width
    assert w_n / w_4n == 2.0


def test_interval_contains_is_closed():
    ci = confidence_interval(FROM_MN, 0.5, 0.0, 100, 0.05)
    assert ci.half_width == 0.0
    assert ci.contains(0.5)
    assert not ci.contains(0.5 + 1e-12)


def test_interval_clipping_is_display_only():
    ci = confidence_interval(FROM_ZN, 0.01, 0.25, 10, 0.05)
    assert ci.lower < 0.0
    lo, hi = ci.clipped
    assert lo == 0.0 and 0.0 < hi <= 1.0
    # raw endpoints unchanged by clipping
    assert ci.lower < 0.0


def test_interval_validation():
    with pytest.raises(ParameterError):
        confidence_interval("from_elsewhere", 0.5, 0.1, 10, 0.05)
    with pytest.raises(ParameterError):
        confidence_interval(FROM_ZN, 0.5, -0.1, 10, 0.05)
    with pytest.raises(ParameterError):
        confidence_interval(FROM_ZN, 0.5, 0.1, 0, 0.05)
    with pytest.raises(ParameterError):
        confidence_interval(FROM_ZN, 0.5, 0.1, 10, 0.0)
    with pytest.raises(ParameterError):
        confidence_interval(FROM_ZN, 0.5, 0.1, 10, 1.0)


def test_proportion_and_mean_interval_wrappers():
    traj = _traj(steps=64, seed=2)
    ci_z = proportion_interval(traj, 0.05)
    ci_m = mean_interval(traj, 0.05)
    assert ci_z.basis == FROM_ZN and ci_m.basis == FROM_MN
    # M_n is the snapshot's Kahan mean, which may differ from traj.M[-1]
    # in the last bits
    assert ci_z.center == traj.Z[-1]
    assert ci_m.center == trajectory_snapshot(traj, (len(traj),))[0]["m_emp"]
    assert ci_m.center == pytest.approx(traj.M[-1], rel=1e-14)
    assert ci_z.n == 64
    v_n, w_n, _ = trajectory_variances(traj)
    q = normal_quantile(0.975)
    assert ci_z.half_width == pytest.approx(q * math.sqrt(v_n / 64), rel=1e-12)
    assert ci_m.half_width == pytest.approx(q * math.sqrt(w_n / 64), rel=1e-12)
