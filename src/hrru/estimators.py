"""Plug-in estimators and normal-approximation confidence intervals.

All limit-theorem inputs that depend on unknown model quantities (mean
and second moment of reinforcement, mean and mean reciprocal of the
draw sizes) are estimated by sample averages over the observed steps.
The asymptotic variances are then assembled from those averages:

    v_n = (q_n / (m_n^2 mu_n)) * Z_n (1 - Z_n)          for the urn proportion
    u_n = (q_n / (m_n^2 mu_n) + eta_n - 2 / mu_n) * Z_n (1 - Z_n)
    w_n = (2 q_n / (m_n^2 mu_n) + eta_n - 2 / mu_n) * M_n (1 - M_n)
                                                        for the empirical mean

with m_n, q_n the reinforcement mean and mean square, mu_n the mean
draw size and eta_n the mean reciprocal draw size.  The variance
formulas assume draw sizes and reinforcements are i.i.d. across steps;
``PlugInEstimates.iid_assumptions_met`` carries whether the draw-size
policy guarantees that.  The functions on a trajectory read its one-rep
record block (``montecarlo.trajectory_block``), so they give the values
``replicate`` records for that replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .urn_core import ParameterError, Trajectory, _is_int


@dataclass(frozen=True)
class PlugInEstimates:
    """Sample averages over the first ``n`` steps of a trajectory."""

    m_n: float      # mean reinforcement
    q_n: float      # mean squared reinforcement
    mu_n: float     # mean draw size
    eta_n: float    # mean reciprocal draw size
    n: int
    iid_assumptions_met: bool


def _block(traj: Trajectory, n: int | None):
    # The one-rep record block of ``traj``: montecarlo imports this
    # module, so it is imported here, on first use.
    from .montecarlo import trajectory_block

    return trajectory_block(traj, n)


def plugin_estimates(traj: Trajectory, n: int | None = None) -> PlugInEstimates:
    """Averages of R, R^2, N and 1/N over steps 0..n-1, as the records
    of ``replicate`` hold them for this replication."""
    blk = _block(traj, n)
    return PlugInEstimates(
        m_n=float(blk.reinf_mean[0]), q_n=float(blk.reinf_sqmean[0]),
        mu_n=float(blk.draw_mean[0]), eta_n=float(blk.draw_recipmean[0]), n=blk.horizon,
        iid_assumptions_met=traj.config.draw.iid_draws,
    )


def variance_terms(
    z: float, m_emp: float, m_n: float, q_n: float, mu_n: float, eta_n: float
) -> tuple[float, float, float]:
    """(v, w, u) from raw plug-in values; shared by every caller."""
    core = q_n / (m_n * m_n * mu_n)
    bracket = core + eta_n - 2.0 / mu_n
    zz = z * (1.0 - z)
    mm = m_emp * (1.0 - m_emp)
    return core * zz, (core + bracket) * mm, bracket * zz


def trajectory_variances(traj: Trajectory, n: int | None = None) -> tuple[float, float, float]:
    """The plug-in variances (v_n, w_n, u_n) of ``traj`` at horizon ``n``."""
    return tuple(float(var[0]) for var in _block(traj, n).variances())


# Rational approximation for the standard normal quantile (Wichura's
# PPND16 coefficients); absolute error is below 1e-15 over (0, 1).

_P_CENTRAL = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_Q_CENTRAL = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_P_MIDDLE = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_Q_MIDDLE = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_P_TAIL = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_Q_TAIL = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ParameterError(f"quantile argument must lie in (0, 1), got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_P_CENTRAL, r) / _poly(_Q_CENTRAL, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_P_MIDDLE, r) / _poly(_Q_MIDDLE, r)
    else:
        r -= 5.0
        val = _poly(_P_TAIL, r) / _poly(_Q_TAIL, r)
    return -val if q < 0.0 else val


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


FROM_ZN = "from_Zn"
FROM_MN = "from_Mn"
_BASIS_TAGS = (FROM_ZN, FROM_MN)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Symmetric normal-approximation interval at confidence ``level``.

    ``lower``/``upper`` are the raw endpoints used for coverage
    accounting; ``clipped`` restricts them to [0, 1] for display of
    proportion-scale targets.  A zero-width interval contains only its
    center.
    """

    center: float
    half_width: float
    level: float
    basis: str
    n: int

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def clipped(self) -> tuple[float, float]:
        return max(self.lower, 0.0), min(self.upper, 1.0)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def half_width(variance, n: int, alpha: float):
    """``z_{1 - alpha/2} sqrt(variance / n)``, for a variance or an array
    of them: every interval's half-width, the records' and a
    trajectory's."""
    return normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variance / n)


def confidence_interval(
    basis: str, point: float, variance: float, n: int, alpha: float
) -> ConfidenceInterval:
    """Interval ``point +/- z_{1 - alpha/2} sqrt(variance / n)``."""
    if basis not in _BASIS_TAGS:
        raise ParameterError(f"basis must be one of {_BASIS_TAGS}, got {basis!r}")
    if not _is_int(n) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (variance >= 0.0):
        raise ParameterError(f"variance must be nonnegative, got {variance!r}")
    return ConfidenceInterval(
        center=point, half_width=float(half_width(variance, n, alpha)),
        level=1.0 - alpha, basis=basis, n=n,
    )


def proportion_interval(traj: Trajectory, alpha: float, n: int | None = None) -> ConfidenceInterval:
    """Interval for the limiting proportion, centered at Z_n."""
    blk = _block(traj, n)
    v, _, _ = blk.variances()
    return confidence_interval(FROM_ZN, float(blk.z[0]), float(v[0]), blk.horizon, alpha)


def mean_interval(traj: Trajectory, alpha: float, n: int | None = None) -> ConfidenceInterval:
    """Interval for the limiting proportion, centered at M_n, the
    records' Kahan mean of X/N (not the plain running ``traj.M``)."""
    blk = _block(traj, n)
    _, w, _ = blk.variances()
    return confidence_interval(FROM_MN, float(blk.m_emp[0]), float(w[0]), blk.horizon, alpha)
