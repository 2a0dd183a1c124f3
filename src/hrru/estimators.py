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
``replicate`` records for that replication.  The normal quantile of
every interval is the standard library's (``statistics.NormalDist``,
Wichura's AS241).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

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


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1), by ``statistics``' AS241."""
    if not (0.0 < p < 1.0):
        raise ParameterError(f"quantile argument must lie in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


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
