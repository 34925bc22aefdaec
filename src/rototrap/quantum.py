"""Gaussian states of the rotating trap.

A Gaussian wave function psi = C exp(-r.K.r / 2) stays Gaussian under the
quadratic Hamiltonian; its complex symmetric matrix K obeys the matrix
Riccati equation (hbar = m = 1, W the rotation block)

    dK/dt = -i K^2 + i V - [W, K],

which linearizes through K = -i N D^{-1} with dD/dt = N - W D and
dN/dt = -V D - W N. Stationary K is assembled from classical normal modes:
the selected modes are the d columns of one (2d, d) block, whose position
rows form the matrix script-D and momentum rows script-N, and
K = -i script-N script-D^{-1}.

Sign convention, load-bearing: modes evolve as exp(+i omega t), so the
eigenvalue problem reads M Xbar = i omega Xbar. The opposite convention
silently flips every sign-selection rule below. Selection keeps the modes
with real frequency and positive symplectic sign -i Xbar^dag J Xbar; in the
lowest stability region those are the three positive frequencies, above the
exponential window the smallest flips negative, and above the oscillatory
window the middle one does. Two selected modes may share a frequency (a
same-sign crossing): K does not depend on the basis chosen inside their
eigenspace. Inside instability windows no choice makes Re K positive
definite, so the classical and quantum stability regions coincide.

A stationary state's Wigner exponent depends only on constants of motion:
wigner_decompose_into_invariants expands it over the symmetric forms G it
is given, invariant_forms' G0 .. G{d-1} in 1D, 2D and 3D alike. The planar
closed forms (planar_stationary_K) are an independent route, for tests.
"""

from typing import NamedTuple, Tuple

import numpy as np

from .errors import (
    ComplexKappa,
    InInstabilityRegion,
    NearSingular,
    NoValidRoot,
    NotNormalizable,
    NotInSpan,
    NotSymmetric,
    SingularD,
    SingularModeMatrix,
)
from .modes import eigenmodes, select_positive_signature_modes
from .numerics import (
    _check_step_bound,
    _csv_text,
    _finite_trajectory,
    _step_runs,
    cinv3,
    cinv3_stack,
    linear_flow,
    posdef_min_eig,
)

__all__ = [
    "GaussianState",
    "RiccatiTrajectory",
    "PlanarStationaryK",
    "WignerForm",
    "WignerDecomposition",
    "riccati_rhs",
    "evolve_riccati",
    "stationary_K_from_modes",
    "planar_stationary_K",
    "normalization_constant",
    "wigner_form",
    "wigner_decompose_into_invariants",
]


class GaussianState:
    """Complex symmetric K matrix of a Gaussian wave function.

    Symmetry is required on input (within 1e-9 relative, then exactly
    symmetrized); positive definiteness of Re K is what makes the state
    normalizable and is checked by the operations that need it, not here,
    so transient states from evolution can be represented too.
    """

    def __init__(self, k):
        k = np.asarray(k, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("K must be a square matrix")
        asym = float(np.max(np.abs(k - k.T)))
        if asym > 1e-9 * max(1.0, float(np.max(np.abs(k)))):
            raise NotSymmetric(f"K asymmetry {asym:.3e} exceeds tolerance")
        self.k = 0.5 * (k + k.T)
        self.k.setflags(write=False)

    @property
    def dim(self):
        return self.k.shape[0]

    def re_min_eig(self):
        return posdef_min_eig(np.real(self.k))

    def to_json_obj(self):
        return {
            "k": [[{"re": z.real, "im": z.imag} for z in row] for row in self.k]
        }

    @classmethod
    def from_json_obj(cls, obj):
        rows = obj["k"]
        k = np.array(
            [[complex(c["re"], c["im"]) for c in row] for row in rows]
        )
        return cls(k)

    def __repr__(self):
        return f"GaussianState(dim={self.dim})"


def _k_matrix(k, dim=None, name="K"):
    """K as a complex square array, of shape (dim, dim) when dim is given."""
    k = k.k if isinstance(k, GaussianState) else np.asarray(k, dtype=complex)
    if dim is not None and k.shape != (dim, dim):
        raise ValueError(f"{name} has shape {k.shape}, the config needs {(dim, dim)}")
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("K must be a square matrix")
    return k


def _normalizable(k):
    """K and Re K of a state whose Re K is positive definite, else NotNormalizable."""
    k = _k_matrix(k)
    kr = np.real(k)
    if posdef_min_eig(kr) <= 1e-10:
        raise NotNormalizable("Re K is not positive definite")
    return k, kr


def riccati_rhs(k, cfg):
    """dK/dt = -i K^2 + i V - [W, K], symmetrized output.

    For symmetric K the right side is symmetric identically (the
    commutator of antisymmetric with symmetric is symmetric); an asymmetry
    beyond 1e-12 therefore flags a non-symmetric input. A K that is not
    (cfg.dim, cfg.dim) is a ValueError naming both shapes.
    """
    k = _k_matrix(k, cfg.dim)
    v = cfg.v
    w = cfg.omega_matrix
    out = -1j * (k @ k) + 1j * v - (w @ k - k @ w)
    asym = float(np.max(np.abs(out - out.T)))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise NotSymmetric(f"Riccati right side asymmetric by {asym:.3e}")
    return 0.5 * (out + out.T)


def _direct_flow(k0, cfg, t_end, dt):
    """Classical RK4 on the Riccati equation from K(0) = K0, with rk4_integrate's steps.

    K is symmetric, so the state is its six independent entries
    K = [[a, b, c], [b, d, e], [c, e, f]], held as Python complex scalars.
    W is antisymmetric, so for symmetric K the commutator term is
    -[W, K] = -WK - (WK)^T, and each stage evaluates
    -iK^2 + iV - WK - (WK)^T on the upper triangle only: the state stays
    symmetric by construction. A trap of dimension d < 3 is padded with
    zeros to 3x3; the padded entries have a right side of exactly 0 and
    stay 0. K0 arrives symmetric from evolve_riccati, iV and W are bound
    once per run, and each step is written into one (n + 1, 6) buffer.
    Times and the NonFiniteState prefix are rk4_integrate's; the states
    differ from it by rounding only.
    """
    dim = k0.shape[0]
    v = np.zeros((3, 3))
    w = np.zeros((3, 3))
    v[:dim, :dim] = cfg.v
    w[:dim, :dim] = cfg.omega_matrix
    v11, v12, v13, v22, v23, v33 = (1j * float(v[i, j]) for i, j in _triu_indices(3))
    w12, w13, w23 = float(w[0, 1]), float(w[0, 2]), float(w[1, 2])

    def rhs(a, b, c, d, e, f):
        return (
            v11 - 1j * (a * a + b * b + c * c) - 2.0 * (w12 * b + w13 * c),
            v12 - 1j * (a * b + b * d + c * e) + w12 * (a - d) - w13 * e - w23 * c,
            v13 - 1j * (a * c + b * e + c * f) + w13 * (a - f) - w12 * e + w23 * b,
            v22 - 1j * (b * b + d * d + e * e) + 2.0 * (w12 * b - w23 * e),
            v23 - 1j * (b * c + d * e + e * f) + w12 * c + w13 * b + w23 * (d - f),
            v33 - 1j * (c * c + e * e + f * f) + 2.0 * (w13 * c + w23 * e),
        )

    runs, times = _step_runs(dt, t_end)
    buf = np.empty((len(times), 6), dtype=complex)
    k = np.zeros((3, 3), dtype=complex)
    k[:dim, :dim] = k0
    a, b, c, d, e, f = buf[0] = [complex(k[i, j]) for i, j in _triu_indices(3)]
    for lo, hi, h in runs:
        half, sixth = 0.5 * h, h / 6.0
        for i in range(lo + 1, hi + 1):
            pa, pb, pc, pd, pe, pf = rhs(a, b, c, d, e, f)
            qa, qb, qc, qd, qe, qf = rhs(
                a + half * pa, b + half * pb, c + half * pc,
                d + half * pd, e + half * pe, f + half * pf,
            )
            ra, rb, rc, rd, re, rf = rhs(
                a + half * qa, b + half * qb, c + half * qc,
                d + half * qd, e + half * qe, f + half * qf,
            )
            sa, sb, sc, sd, se, sf = rhs(
                a + h * ra, b + h * rb, c + h * rc,
                d + h * rd, e + h * re, f + h * rf,
            )
            a, b, c, d, e, f = buf[i] = (
                a + sixth * (pa + 2.0 * (qa + ra) + sa),
                b + sixth * (pb + 2.0 * (qb + rb) + sb),
                c + sixth * (pc + 2.0 * (qc + rc) + sc),
                d + sixth * (pd + 2.0 * (qd + rd) + sd),
                e + sixth * (pe + 2.0 * (qe + re) + se),
                f + sixth * (pf + 2.0 * (qf + rf) + sf),
            )
    # buffer column of each K entry, the d x d block of the padded matrix
    col = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])[:dim, :dim]
    return _finite_trajectory(times, buf[:, col])


# independent real components of symmetric K, upper triangle row-major
def _triu_indices(d):
    return [(i, j) for i in range(d) for j in range(i, d)]


class RiccatiTrajectory:
    """K(t) along a Riccati evolution, one matrix per accepted step."""

    def __init__(self, times, ks, method):
        self.times = np.asarray(times, dtype=float)
        self.ks = np.asarray(ks, dtype=complex)
        self.method = method

    def __len__(self):
        return len(self.times)

    @property
    def final_k(self):
        return self.ks[-1]

    def to_csv(self):
        iu, ju = np.array(_triu_indices(self.ks.shape[1])).T
        cols = ["t"]
        for i, j in zip(iu, ju):
            cols += [f"k{i + 1}{j + 1}_re", f"k{i + 1}{j + 1}_im"]
        z = self.ks[:, iu, ju]
        re_im = np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1)
        return _csv_text(cols, np.column_stack([self.times, re_im]))


def evolve_riccati(k0, cfg, t_end, dt, method="direct"):
    """Integrate the Riccati flow by one of two independent routes.

    direct runs RK4 on the Riccati equation itself, as scalar arithmetic on
    the six independent entries of K with a trap of dimension d < 3 padded
    to 3x3 (_direct_flow; its test oracle is rk4_integrate on riccati_rhs,
    which it matches to about 1e-15 relative); linearized runs RK4, as the
    linear_flow one-step map, on the (D; N) column block from D(0) = I,
    N(0) = i K0 and reconstructs K = -i N D^{-1} at every step. The two
    share no stepping code and must agree within 1e-7 over a run, which is
    the standing cross-check on both. Before either route runs, K0 passes
    GaussianState's symmetry check (NotSymmetric beyond 1e-9 relative, then
    exactly symmetrized). Raises ValueError naming both shapes when K0 is
    not (cfg.dim, cfg.dim), SingularD when D becomes ill-conditioned (a
    caustic of the linearized flow) and StepTooLarge under the same step
    bound as forced evolution.
    """
    # a non-finite K0 is reported as NonFiniteState by the run, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = GaussianState(_k_matrix(k0, cfg.dim, "K0")).k
    d = cfg.dim
    m = cfg.dynamics_matrix
    _check_step_bound(dt, m)
    if method == "direct":
        traj = _direct_flow(k0, cfg, t_end, dt)
        return RiccatiTrajectory(traj.times, traj.states, method)

    if method == "linearized":
        # dD/dt = N - W D and dN/dt = -V D - W N are M applied to (D; N)
        y0 = np.vstack([np.eye(d, dtype=complex), 1j * k0])
        traj = linear_flow(m, y0, t_end, dt)
        try:
            inv = cinv3_stack(traj.states[:, :d])
        except NearSingular as exc:
            t_bad = traj.times[exc.index]
            raise SingularD(f"D singular at t = {t_bad:.6g}: {exc}") from exc
        return RiccatiTrajectory(traj.times, -1j * (traj.states[:, d:] @ inv), method)

    raise ValueError(f"method must be 'direct' or 'linearized', got {method!r}")


def stationary_K_from_modes(cfg, modes=None):
    """Stationary Gaussian state assembled from classical normal modes.

    The modes with real frequency and positive symplectic sign are
    selected (see module docstring); position parts form the columns of
    script-D, momentum parts those of script-N, and K = -i script-N
    script-D^{-1}. Mode normalization cancels in the product, so the result
    is scaling-invariant (a precomputed or rescaled mode set may be passed
    in). Succeeds exactly on stable configs; inside instability windows the
    frequencies leave the real axis or the symplectic sign degenerates and
    no positive-definite Re K exists.
    """
    ms = eigenmodes(cfg.dynamics_matrix) if modes is None else modes
    _, xb = select_positive_signature_modes(ms)
    d = len(xb) // 2
    try:
        k = -1j * (xb[d:] @ cinv3(xb[:d]))
    except NearSingular as exc:
        raise SingularModeMatrix(f"mode position matrix singular: {exc}") from exc
    state = GaussianState(k)
    if state.re_min_eig() <= 1e-10:
        raise InInstabilityRegion(
            "selected signs give non-positive Re K: unstable config"
        )
    return state


class PlanarStationaryK(NamedTuple):
    """Closed-form stationary state for rotation about the z principal axis.

    K restricted to the plane is [[alpha, i gamma], [i gamma, beta]] and the
    axial direction stays at sqrt(Vz); kappa = -alpha/beta is the in-plane
    amplitude ratio.
    """

    alpha: float
    beta: float
    gamma: float
    kappa: float
    vz: float

    def matrix2(self):
        return np.array(
            [[self.alpha, 1j * self.gamma], [1j * self.gamma, self.beta]]
        )

    def matrix3(self):
        k = np.zeros((3, 3), dtype=complex)
        k[:2, :2] = self.matrix2()
        k[2, 2] = np.sqrt(self.vz)
        return k


def _planar_gamma_candidates(vx, vy, omega):
    # squared constraint: (Vx-Vy) g^2 - 2 W (Vx+Vy-2W^2) g + W^2 (Vx-Vy) = 0
    if omega == 0.0:
        return [0.0]
    a = vx - vy
    b = -2.0 * omega * (vx + vy - 2.0 * omega * omega)
    c = omega * omega * (vx - vy)
    if a == 0.0:
        if b == 0.0:
            raise NoValidRoot(
                "gamma equation degenerates (symmetric trap at its window edge)"
            )
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise ComplexKappa(
            f"gamma discriminant {disc:.3e} < 0: no real squeezing parameters "
            "(exponential instability window)"
        )
    # q = -(b + sign(b) s) / 2 adds terms of one sign, so the roots q/a and
    # c/q keep their digits where -b +- s cancels (|b| ~ 4 W^3 dwarfs a c);
    # listed in the order (-b - s)/(2a), (-b + s)/(2a)
    s = np.sqrt(disc)
    if b >= 0.0:
        q = -0.5 * (b + s)
        return [q / a, c / q]
    q = -0.5 * (b - s)
    return [c / q, q / a]


def planar_stationary_K(vx, vy, vz, omega):
    """Stationary K for z-axis rotation, solved in closed form.

    Squaring the stationarity constraint alpha (W - gamma) = beta
    (W + gamma) gives a quadratic for gamma; both roots are computed,
    alpha and beta are taken as the positive square roots of
    Vx - W^2 + (gamma + W)^2 and Vy - W^2 + (gamma - W)^2, and the
    unsquared constraint decides which root is genuine (squaring admits a
    spurious branch). A complex gamma pair means the rotation rate sits in
    the exponential window (ComplexKappa); real roots that all fail the
    unsquared constraint likewise signal instability (NoValidRoot).
    """
    if vx <= 0 or vy <= 0 or vz <= 0:
        raise ValueError("vx, vy, vz must be positive")
    if omega < 0:
        raise ValueError("omega must be >= 0")
    best = None
    for gamma in _planar_gamma_candidates(vx, vy, omega):
        # Vx - W^2 + (gamma + W)^2 and Vy - W^2 + (gamma - W)^2, without
        # the W^2 that cancels
        a2 = vx + gamma * (gamma + 2.0 * omega)
        b2 = vy + gamma * (gamma - 2.0 * omega)
        if a2 <= 0 or b2 <= 0:
            continue
        alpha = float(np.sqrt(a2))
        beta = float(np.sqrt(b2))
        lhs = alpha * (omega - gamma)
        rhs = beta * (omega + gamma)
        scale = max(1.0, abs(lhs), abs(rhs), alpha, beta)
        if abs(lhs - rhs) <= 1e-10 * scale:
            best = PlanarStationaryK(alpha, beta, float(gamma), -alpha / beta, float(vz))
            break
    if best is None:
        raise NoValidRoot(
            "no gamma root satisfies the unsquared constraint: unstable config"
        )
    return best


def normalization_constant(k):
    """C = sqrt(det(Re K / sqrt(pi))) for a normalizable state."""
    k, kr = _normalizable(k)
    d = k.shape[0]
    return float(np.sqrt(np.linalg.det(kr) / np.pi ** (d / 2.0)))


class WignerForm(NamedTuple):
    """Symmetric matrix of the Wigner exponent, W(X) = M exp(-X.w.X / 2)."""

    w: np.ndarray
    norm_const: float


def wigner_form(k):
    """Phase-space quadratic form of the Gaussian's Wigner function.

    Completing the square in the Fourier transform gives, with
    K = K_R + i K_I,

        w = 2 [[K_R + K_I K_R^{-1} K_I,  K_I K_R^{-1}],
               [K_R^{-1} K_I,            K_R^{-1}   ]],

    in (r, p) ordering, with normalization M = pi^{-d}. The form is
    positive definite with det w = 2^{2d}: a pure Gaussian fills exactly
    one phase-space cell.
    """
    k, kr = _normalizable(k)
    ki = np.imag(k)
    kri = np.linalg.inv(kr)
    d = k.shape[0]
    w = np.zeros((2 * d, 2 * d))
    w[:d, :d] = kr + ki @ kri @ ki
    w[:d, d:] = ki @ kri
    w[d:, :d] = kri @ ki
    w[d:, d:] = kri
    w = 2.0 * 0.5 * (w + w.T)
    return WignerForm(w, float(np.pi ** (-d)))


class WignerDecomposition(NamedTuple):
    coefficients: Tuple[float, ...]
    residual: float


def wigner_decompose_into_invariants(wf, forms):
    """Expand a Wigner exponent over the conserved quadratic forms.

    A stationary Wigner function can only depend on constants of motion,
    so its exponent w must be a combination of the invariant quadratic
    forms. forms is the basis: invariant_forms(cfg)'s G_n = H (-M^2)^n,
    n = 0 .. d-1, in 1D, 2D and 3D alike. G_n grows as Omega^(2n), so each
    column is scaled to unit norm for the least-squares solve, lest its
    cutoff drop the small ones at a large rate.

    Returns the coefficients k_n and the relative residual (NotInSpan
    beyond 1e-6). They satisfy w = sum_n k_n G_n for the exponent written
    as exp(-X.w.X / 2); quoting the combination without that minus sign
    flips the overall sign, which is the one documented discrepancy
    against the source expressions.
    """
    w = wf.w.reshape(-1)
    a = np.column_stack([g.reshape(-1) for g in forms])
    norms = np.linalg.norm(a, axis=0)
    a = a / norms
    coef, *_ = np.linalg.lstsq(a, w, rcond=None)
    resid = float(np.linalg.norm(w - a @ coef) / np.linalg.norm(w))
    if resid > 1e-6:
        raise NotInSpan(
            f"Wigner form residual {resid:.3e} outside the invariant span"
        )
    return WignerDecomposition(tuple(float(x) for x in coef / norms), resid)
