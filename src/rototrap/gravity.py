"""Gravity in the corotating frame and the resonances it drives.

A constant lab-frame acceleration g splits into a part along the rotation
axis, which is static in the corotating frame, and a transverse part that
whirls at the rotation rate and acts as a periodic drive,

    g(t) = g_par + g_perp cos(Omega t) - (n x g_perp) sin(Omega t).

Resonances occur where the drive frequency Omega meets a mode frequency,
i.e. on the omega = Omega section of the characteristic polynomial: the
degree-6 terms cancel there and the condition collapses to the biquadratic
D Omega^4 + E Omega^2 + F = 0 with two real roots. Whether a resonance
actually grows depends on which stability region its root falls in, so
reports carry region labels.
"""

from typing import NamedTuple

import numpy as np

from .errors import InsufficientSpan
from .numerics import _check_step_bound, _csv_text, linear_flow
from .stability import _real_quadratic_roots, region_map, solve_cubic
from .trap import char_poly_coeffs

__all__ = [
    "DecomposedGravity",
    "ResonanceCoeffs",
    "ResonanceReport",
    "GrowthReport",
    "decompose_gravity",
    "gravity_in_rotating_frame",
    "resonance_coefficients",
    "resonant_frequencies",
    "classify_resonances",
    "default_forced_dt",
    "forced_evolve",
    "growth_classification",
    "trajectory_to_csv",
]


class DecomposedGravity(NamedTuple):
    g_par: np.ndarray
    g_perp: np.ndarray
    axis: np.ndarray


def decompose_gravity(g, n):
    """Split g into components parallel and orthogonal to the axis n."""
    g = np.asarray(g, dtype=float)
    n = np.asarray(n, dtype=float)
    if g.shape != (3,) or not np.all(np.isfinite(g)):
        raise ValueError("g must be a finite 3-vector")
    nrm = np.linalg.norm(n)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"axis must be unit length, got |n| = {nrm:.9g}")
    n = n / nrm
    g_par = (g @ n) * n
    return DecomposedGravity(g_par, g - g_par, n)


def gravity_in_rotating_frame(dg, omega, t):
    """The corotating-frame acceleration at time t (a scalar or a 1-D array).

    Equals Re(g_par + (g_perp + i n x g_perp) exp(i Omega t)); the
    transverse part rotates rigidly, so |g(t)| and g(t).n are constants.
    An array of times gives an array of shape (len(t), 3).
    """
    wt = omega * np.asarray(t, dtype=float)[..., None]
    return dg.g_par + dg.g_perp * np.cos(wt) - np.cross(dg.axis, dg.g_perp) * np.sin(wt)


class ResonanceCoeffs(NamedTuple):
    """Coefficients of the resonance biquadratic D x^2 + E x + F in x = Omega^2."""

    d: float
    e: float
    f: float


def resonance_coefficients(cfg):
    """D = -2(TrV - n.V.n), E as below, F = -DetV.

    E = ((TrV)^2 - TrV^2)/2 + TrV (n.V.n) - n.V^2.n. These are exactly the
    omega = Omega section of the characteristic polynomial: P(Omega) with
    omega set to Omega reduces to D Omega^4 + E Omega^2 + F.
    """
    tr, tr_v2, det, nvn, nv2n = cfg.invariants
    d = -2.0 * (tr - nvn)
    e = 0.5 * (tr * tr - tr_v2) + tr * nvn - nv2n
    return ResonanceCoeffs(d, e, -det)


class ResonanceReport:
    """The two resonant frequencies (as Omega^2) with their region labels."""

    def __init__(self, omega1_sq, omega2_sq, region1=None, region2=None):
        self.omega1_sq = float(omega1_sq)
        self.omega2_sq = float(omega2_sq)
        self.region1 = region1
        self.region2 = region2

    @property
    def omega1(self):
        return float(np.sqrt(max(self.omega1_sq, 0.0)))

    @property
    def omega2(self):
        return float(np.sqrt(max(self.omega2_sq, 0.0)))

    def to_json_obj(self):
        return {
            "omega1_sq": self.omega1_sq,
            "omega2_sq": self.omega2_sq,
            "omega1": self.omega1,
            "omega2": self.omega2,
            "region1": self.region1,
            "region2": self.region2,
        }

    def __repr__(self):
        return (
            f"ResonanceReport(omega1_sq={self.omega1_sq:.6g} [{self.region1}], "
            f"omega2_sq={self.omega2_sq:.6g} [{self.region2}])"
        )


def resonant_frequencies(cfg, rmap=None):
    """Roots of the resonance biquadratic, sorted, with stability regions.

    Equivalent to intersecting the parabola chi = Omega^2 with the chi
    branches of a stability scan; here the roots come from the biquadratic
    and the labels from the window arithmetic. For a positive-definite V,
    D = -2 Tr((I - n n^T) V) <= -4 lambda_min(V) < 0, so the biquadratic is
    never degenerate and its roots scale as s^2 under V -> s^2 V.
    """
    roots = _real_quadratic_roots(*resonance_coefficients(cfg))
    if rmap is None:
        rmap = region_map(cfg)
    labels = [
        str(rmap.locate(float(np.sqrt(x)))) if x >= 0 else None for x in roots
    ]
    return ResonanceReport(roots[0], roots[1], labels[0], labels[1])


classify_resonances = resonant_frequencies  # the same function under its older name


def default_forced_dt(cfg):
    """dt = (2 pi / max(Omega, max mode frequency)) / 200."""
    om_max = float(np.sqrt(np.max(np.abs(solve_cubic(char_poly_coeffs(cfg))))))
    fastest = max(cfg.omega, om_max, 1e-6)
    return 2.0 * np.pi / fastest / 200.0


def forced_evolve(cfg, g, t_end, dt=None, x0=None):
    """Integrate dX/dt = M X + (0, g(t)) from X(0) = 0 (by default).

    The zero start isolates the driven particular solution from
    initial-condition transients; a given x0 must be a finite vector of
    shape (6,). Runs RK4 as the linear_flow one-step map, with g(t) as its
    drive (Omega, F): the rows of F, the momentum parts of the constant,
    cos and sin terms, are g_par, g_perp and -n x g_perp, built here from
    decompose_gravity and not from gravity_in_rotating_frame, which stays
    the independent form of the same drive. Raises StepTooLarge when
    dt ||M||_1 > 0.1, long before RK4 becomes inaccurate.
    """
    if dt is None:
        dt = default_forced_dt(cfg)
    m = cfg.dynamics_matrix
    _check_step_bound(dt, m)
    dg = decompose_gravity(g, cfg.axis)
    if x0 is None:
        x0 = np.zeros(6)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (6,):
            raise ValueError(f"x0 must have shape (6,), got shape {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 has non-finite entries: {x0.tolist()}")
    f = np.zeros((3, 6))
    f[:, 3:] = dg.g_par, dg.g_perp, -np.cross(dg.axis, dg.g_perp)
    return linear_flow(m, x0, t_end, dt, drive=(cfg.omega, f))


def _linfit(x, y):
    # least squares with R^2 and the slope's standard error
    n = len(x)
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    resid = y - (ym + slope * (x - xm))
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    se = np.sqrt(ss_res / ((n - 2) * sxx)) if n > 2 else np.inf
    return slope, r2, se


def _window_peaks(t, amp, period, n_win):
    """Centres and amp maxima of the non-empty windows [lo, lo + period).

    lo = t[0] + k period for k < n_win over the increasing times t; a
    window that holds no sample is skipped. The bounds come from one
    searchsorted each and the maxima from one reduceat over the
    interleaved bounds, whose odd slots (the gaps between windows) are
    dropped.
    """
    lo = t[0] + np.arange(n_win) * period
    starts = np.searchsorted(t, lo)
    ends = np.searchsorted(t, lo + period)
    keep = ends > starts
    bounds = np.column_stack([starts[keep], ends[keep]]).ravel()
    # a trailing sentinel keeps the last bound a valid index when a window
    # runs to the final sample
    peaks = np.maximum.reduceat(np.append(amp, 0.0), bounds)[::2]
    return lo[keep] + 0.5 * period, peaks


class GrowthReport(NamedTuple):
    label: str
    slope: float
    r2_linear: float
    slope_se: float
    log_slope: float
    r2_log: float
    log_slope_se: float
    n_windows: int


def growth_classification(traj, rotation_period):
    """Classify a forced trajectory as Bounded, LinearGrowth, or ExponentialGrowth.

    The position-amplitude envelope is sampled as one peak per rotation
    period and fit twice, linearly and in the log. LinearGrowth needs
    linear R^2 > 0.99 with a positive slope larger than 5 standard errors;
    ExponentialGrowth needs the same on the log fit and takes precedence
    when it also outfits the linear model. Anything else is Bounded.
    Requires at least 20 periods of data.
    """
    t = traj.times
    period = float(rotation_period)
    if period <= 0:
        raise ValueError("rotation_period must be positive")
    span = t[-1] - t[0]
    n_win = int(np.floor(span / period))
    if n_win < 20:
        raise InsufficientSpan(
            f"trajectory spans {span / period:.2f} rotation periods, need >= 20"
        )
    d = traj.states.shape[1] // 2
    amp = np.linalg.norm(np.real(traj.states[:, :d]), axis=1)
    centers, peaks = _window_peaks(t, amp, period, n_win)

    if peaks.max() <= 1e-300:
        return GrowthReport("Bounded", 0.0, 0.0, np.inf, 0.0, 0.0, np.inf, len(peaks))

    slope, r2_lin, se_lin = _linfit(centers, peaks)
    pos = peaks > 0
    if pos.sum() >= max(20, 0.9 * len(peaks)):
        lslope, r2_log, se_log = _linfit(centers[pos], np.log(peaks[pos]))
    else:
        lslope, r2_log, se_log = 0.0, 0.0, np.inf

    lin_ok = r2_lin > 0.99 and slope > 0 and slope > 5.0 * se_lin
    exp_ok = r2_log > 0.99 and lslope > 0 and lslope > 5.0 * se_log
    if exp_ok and (not lin_ok or r2_log > r2_lin):
        label = "ExponentialGrowth"
    elif lin_ok:
        label = "LinearGrowth"
    else:
        label = "Bounded"
    return GrowthReport(
        label, slope, r2_lin, se_lin, lslope, r2_log, se_log, len(peaks)
    )


def trajectory_to_csv(traj):
    """Phase-space trajectory as CSV with header t,x,y,z,px,py,pz."""
    cols = ["t", "x", "y", "z", "px", "py", "pz"]
    return _csv_text(cols, np.column_stack([traj.times, np.real(traj.states)]))
