"""Quadratic constants of motion of the rotating trap.

An invariant is its symmetric (2d, 2d) form G, with C(X) = X.G X / 2 for
X = (r, p). Its rr, rp and pp blocks U, W and T spell C out as
C = p.T p / 2 + r.W p + r.U r / 2, and C is conserved along dX/dt = M X
exactly when the triple (T, W, U) satisfies

    0 = [Wm, T] + W + W^T,
    0 = [Wm, U] - W V - V W^T,
    0 = [Wm, W] + U - V T,

with Wm the rotation block. Writing M = J H with H = -J M the symmetric
Hamiltonian matrix, every G_n = H (-M^2)^n is symmetric and solves
M^T G + G M = 0, and Cayley-Hamilton leaves n = 0 .. d-1 independent:
invariant_forms builds these d forms, G0 = H the Hamiltonian (T, W, U) =
(I, Wm, V), G1 the hand-derived second invariant C2_3D, and G2 =
H (-M^2)^2 the third. In mode coordinates C_n = sum_k omega_k^(2n) E_k.
The hand-derived forms (build_invariant) and a blind solve of the defining
equations (invariance_nullspace, completed_third_invariant) stay as
independent routes to check them against.
"""

from typing import NamedTuple, Tuple

import numpy as np

from .errors import InInstabilityRegion, NumericError, WrongDimension
from .modes import select_positive_signature_modes, symplectic_form

__all__ = [
    "InvarianceResiduals",
    "AmplitudeDecomposition",
    "build_invariant",
    "invariant_forms",
    "invariance_residuals",
    "evaluate_invariant",
    "trajectory_drift",
    "amplitude_energies",
    "invariance_nullspace",
    "completed_third_invariant",
]


def _triple_form(t, u, w):
    """The form G = [[U, W], [W^T, T]] of a hand-built triple.

    T and U must be symmetric (within 1e-12 relative to their scale), and
    enter G symmetrized; W is unconstrained.
    """
    for name, mat in (("T", t), ("U", u)):
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
            raise ValueError(f"{name} matrix asymmetry {asym:.3e} too large")
    return np.block([[0.5 * (u + u.T), w], [w.T, 0.5 * (t + t.T)]])


def _blocks(g):
    """The pp, rr and rp blocks (T, U, W) of a form G."""
    d = len(g) // 2
    return g[d:, d:], g[:d, :d], g[:d, d:]


def _planar_axis_index(cfg):
    # rotation about a principal axis with V decoupled along it
    axis = getattr(cfg, "axis", None)
    if axis is None:
        return None
    i = int(np.argmax(np.abs(axis)))
    rest = np.delete(axis, i)
    if abs(abs(axis[i]) - 1.0) > 1e-12 or np.max(np.abs(rest)) > 1e-12:
        return None
    v = cfg.v
    scale = max(1.0, float(np.max(np.abs(v))))
    off = [abs(v[i, j]) for j in range(3) if j != i]
    if max(off) > 1e-12 * scale:
        return None
    return i


def build_invariant(label, cfg):
    """Closed-form invariant of a config, as its form G.

    C1 has (T, W, U) = (I, Wm, V) in any dimension. C2_2D applies to the
    planar problem (a 2D config, or a 3D one rotating about a principal
    axis that V leaves decoupled); anything else raises WrongDimension. C2_3D is the
    3D closed form. These hand-derived forms are the oracle for
    invariant_forms: C1 = G0, C2_3D = G1 and C2_2D = G1 - 3 Omega^2 G0.
    """
    v = cfg.v
    wm = cfg.omega_matrix
    dim = v.shape[0]
    if label == "C1":
        return _triple_form(np.eye(dim), v, wm)
    if label == "C2_2D":
        if dim != 2 and (dim != 3 or _planar_axis_index(cfg) is None):
            raise WrongDimension(
                "C2_2D needs a planar config or principal-axis rotation "
                "with a decoupled axis"
            )
        w3 = wm @ wm @ wm
        t = v
        w = wm @ v + 2.0 * v @ wm + 2.0 * w3
        u = v @ v + v @ wm @ wm - wm @ v @ wm
        return _triple_form(t, u, w)
    if dim != 3:
        raise WrongDimension(f"{label} is defined for 3D configs")
    o2 = wm @ wm
    if label == "C2_3D":
        t = v - 3.0 * o2
        w = wm @ v + 2.0 * v @ wm - wm @ o2
        u = v @ v - v @ o2 - o2 @ v - wm @ v @ wm
        return _triple_form(t, u, w)
    raise ValueError(f"unknown invariant label {label!r}")


def invariant_forms(cfg):
    """The d independent invariants G_n = H (-M^2)^n, as the list G0 .. G{d-1}.

    H = -J M is the symmetric Hamiltonian matrix of cfg.dynamics_matrix,
    so this serves 1D, 2D and 3D traps alike. Each G_n is symmetrised
    exactly; G0 is C1 exactly.
    """
    m = cfg.dynamics_matrix
    d = m.shape[0] // 2
    neg_m2 = -(m @ m)
    g = np.vstack([-m[d:], m[:d]])
    forms = []
    for _ in range(d):
        forms.append(0.5 * (g + g.T))
        g = g @ neg_m2
    return forms


class InvarianceResiduals(NamedTuple):
    """Max-norms of the three defining equations, in their listed order."""

    eq_t: float
    eq_u: float
    eq_w: float

    @property
    def worst(self):
        return max(self)


def _defining_equations(t, u, w, cfg):
    """The three defining equations' left-hand sides at the triple (T, U, W)."""
    v = cfg.v
    wm = cfg.omega_matrix
    return (
        wm @ t - t @ wm + w + w.T,
        wm @ u - u @ wm - w @ v - v @ w.T,
        wm @ w - w @ wm + u - v @ t,
    )


def invariance_residuals(g, cfg):
    """How far a form's triple is from solving the defining equations."""
    eqs = _defining_equations(*_blocks(g), cfg)
    return InvarianceResiduals(*(float(np.max(np.abs(e))) for e in eqs))


def evaluate_invariant(g, x):
    """C(X) = p.T p / 2 + r.W p + r.U r / 2 for X = (r, p), read off G's blocks."""
    x = np.asarray(x)
    d = len(g) // 2
    t, u, w = _blocks(g)
    r = np.real(x[:d])
    p = np.real(x[d:])
    return float(0.5 * p @ t @ p + r @ w @ p + 0.5 * r @ u @ r)


def trajectory_drift(g, traj):
    """max_t |C(t) - C(0)| / (1 + |C(0)|) along a homogeneous trajectory.

    C(t) = X.G X / 2 for all steps at once; evaluate_invariant is the
    per-point reference.
    """
    x = np.real(traj.states)
    vals = 0.5 * np.einsum("ti,ti->t", x @ g, x)
    return float(np.max(np.abs(vals - vals[0])) / (1.0 + abs(vals[0])))


class AmplitudeDecomposition(NamedTuple):
    """Per-mode energies omega_k |a_k|^2 of a phase-space point."""

    energies: Tuple[float, ...]
    omegas: Tuple[float, ...]
    amplitudes: Tuple[complex, ...]


def amplitude_energies(modes, x):
    """Split the energy of X over normal modes.

    Takes the modes with real frequency and positive symplectic sign,
    J-orthonormalises them with the Cholesky factor L of their Krein Gram
    matrix G = -i Xbar^dag J Xbar, and projects a = -i L^{-1} Xbar^dag J X.
    G is block-diagonal over frequency clusters, so L mixes modes only where
    they share a frequency (a same-sign crossing, where the split between
    them is not unique); elsewhere it only rescales each mode. The signed
    frequencies omega_k then weight |a_k|^2 so the sum reproduces the
    Hamiltonian; negative omega_k terms appear above the first stability
    region. Only meaningful for stable configs (InInstabilityRegion
    otherwise).
    """
    x = np.asarray(x, dtype=float)
    om, xb = select_positive_signature_modes(modes)
    jm = symplectic_form(len(xb) // 2)
    try:
        chol = np.linalg.cholesky(-1j * (xb.conj().T @ jm @ xb))
    except np.linalg.LinAlgError as exc:
        raise InInstabilityRegion(f"Krein Gram matrix of the selected modes: {exc}") from exc
    amps = tuple(np.linalg.solve(chol, -1j * (xb.conj().T @ (jm @ x))).tolist())
    omegas = tuple(om.real.tolist())
    energies = tuple(om * abs(a) ** 2 for om, a in zip(omegas, amps))
    return AmplitudeDecomposition(energies, omegas, amps)


# -- defining equations as a linear system -----------------------------------

def _vec_triple(t, u, w):
    return np.concatenate([t.ravel(), u.ravel(), w.ravel()])


def _unvec_triple(vec, d):
    n = d * d
    return (
        vec[:n].reshape(d, d),
        vec[n: 2 * n].reshape(d, d),
        vec[2 * n:].reshape(d, d),
    )


_NULL_REL_THRESHOLD = 1e-10


def invariance_nullspace(cfg):
    """Null space of the defining equations, solved blind.

    Unknowns are the 3 d^2 entries of (T, U, W); rows are the three matrix
    equations (3 d^2 of them) plus elementwise symmetry constraints on T
    and U (2 d^2 rows). Returns (dimension, basis rows, singular values)
    with the null decided by singular values below _NULL_REL_THRESHOLD
    times the largest. For generic 3D configs the dimension is exactly 3,
    independent of any closed-form expression.
    """
    d = cfg.v.shape[0]
    n = d * d
    # column k is the equations at the k-th unit triple, in _vec_triple order
    cols = []
    for unit in np.eye(3 * n):
        eqs = _defining_equations(*_unvec_triple(unit, d), cfg)
        cols.append(np.concatenate([e.ravel() for e in eqs]))
    a_evol = np.array(cols).T
    sym = np.zeros((2 * n, 3 * n))
    for k in range(n):
        i, j = k // d, k % d
        sym[k, d * i + j] += 1.0
        sym[k, d * j + i] -= 1.0
        sym[n + k, n + d * i + j] += 1.0
        sym[n + k, n + d * j + i] -= 1.0
    a_full = np.vstack([a_evol, sym])
    _, sv, vt = np.linalg.svd(a_full)
    null_dim = int(np.sum(sv < _NULL_REL_THRESHOLD * sv[0]))
    basis = vt[len(sv) - null_dim:] if null_dim else None
    return null_dim, basis, sv


_GAP_REL_THRESHOLD = 5e-4


def completed_third_invariant(cfg):
    """Third 3D invariant, completed blind from the null space, as its form G.

    The independent route to G2 of invariant_forms: take the null space of
    the defining equations and extract its component orthogonal to the
    span of C1 and C2_3D. The result lies in span{G0, G1, G2} and is
    normalized to unit (T, U, W) vector length with a deterministic sign.

    Raises NumericError unless the null dimension is 3, and unless the
    fourth-smallest singular value sv[-4] is at least _GAP_REL_THRESHOLD =
    5e-4 of the largest. The threshold comes from the sin-theta bound of
    Davis-Kahan and Wedin: the computed null space is the exact one turned
    by an angle of at most |E| / sv[-4], with E the backward error of
    forming and decomposing the 45 x 27 system. On sampled near-degenerate
    traps (diagonal V, tilt under 1e-4) the completion's distance from the
    span times sv[-4] / sv[0] reached 3.8e-14, so |E| <~ 200 eps sv[0], and
    an angle under the 1e-10 to which the completion must lie in the span
    asks sv[-4] >= 200 eps sv[0] / 1e-10 = 4.4e-4 sv[0]. A smaller gap means
    a fourth near-invariant: an axis tilted close to a principal axis of an
    axis-degenerate V, or a rate close to a mode crossing. Generic random
    traps and fig1, fig3 .. fig6 sit at 2e-3 or more; fig2's trap dips
    below 5e-4 within about 1 % of its two crossings (Omega = 0.4775 and
    2.9618).
    """
    null_dim, basis, sv = invariance_nullspace(cfg)
    if null_dim != 3:
        raise NumericError(
            f"invariance equations have null dimension {null_dim}, expected 3 "
            "(degenerate config?)"
        )
    gap = sv[-4] / sv[0]
    if gap < _GAP_REL_THRESHOLD:
        raise NumericError(
            f"invariance equations have a fourth near-null direction "
            f"(sv[-4]/sv[0] = {gap:.3e} < {_GAP_REL_THRESHOLD:.0e}): "
            "the null space is not resolved"
        )
    known = np.column_stack(
        [_vec_triple(*_blocks(build_invariant(label, cfg))) for label in ("C1", "C2_3D")]
    )
    q, _ = np.linalg.qr(known)
    proj = basis - (basis @ q) @ q.T
    _, _, vt = np.linalg.svd(proj)
    vec = vt[0]
    imax = int(np.argmax(np.abs(vec)))
    if vec[imax] < 0:
        vec = -vec
    t, u, w = _unvec_triple(vec, 3)
    return _triple_form(0.5 * (t + t.T), 0.5 * (u + u.T), w)
