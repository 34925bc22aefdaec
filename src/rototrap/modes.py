"""Normal modes of the corotating-frame flow.

Modes are solutions X(t) = Xbar exp(i omega t), so M Xbar = i omega Xbar:
eigenvalues of M are reported as frequencies omega = lambda / i. M is real,
so omega and -conj(omega) are both frequencies, and omega^2 reproduces the
chi roots of the stability cubic. A set of modes is plain arrays, a ModeSet
(omegas, vectors) whose vectors hold one mode per column, so the consumers
(the stationary state, the energy split) take position and momentum blocks
of one matrix. eigenmodes reads the modes off the 6x6 eig of M;
cubic_modes builds them, for a 3-D config, from the stability cubic's
roots and the adjugate of a 3x3 matrix, a second route that shares no
eigensolver with the first and is kept for cross-validation.

The symplectic form selects modes: on a stable trap exactly d of the 2d
modes have real frequency and positive Krein sign -i Xbar^dag J Xbar, the
selection that quantum state construction and the per-mode energy split
rely on. Two modes of equal Krein sign may share a frequency (a same-sign
crossing, where M stays semisimple): the sign is definite on their joint
eigenspace, so any basis of it that eig returns is selected alike.
"""

from typing import NamedTuple

import numpy as np

from .errors import DefectiveMatrix, DegenerateModeVector, InInstabilityRegion
from .numerics import eig_general
from .stability import solve_cubic
from .trap import char_poly_coeffs

__all__ = [
    "ModeSet",
    "eigenmodes",
    "cubic_modes",
    "symplectic_form",
    "krein_sign",
    "select_positive_signature_modes",
]


def symplectic_form(dim=3):
    """J = [[0, I], [-I, 0]] acting on (r, p) ordered phase vectors."""
    j = np.zeros((2 * dim, 2 * dim))
    j[:dim, dim:] = np.eye(dim)
    j[dim:, :dim] = -np.eye(dim)
    return j


class ModeSet(NamedTuple):
    """Frequencies of a set of normal modes and their phase-space vectors.

    Column k of vectors, a (2d, n) complex array, is the mode of frequency
    omegas[k]. Being a tuple, a ModeSet iterates over these two fields, not
    over its modes.
    """

    omegas: np.ndarray
    vectors: np.ndarray

    def to_json_obj(self):
        return [
            {
                "omega_re": om.real,
                "omega_im": om.imag,
                "xbar": [{"re": z.real, "im": z.imag} for z in col],
            }
            for om, col in zip(self.omegas.tolist(), self.vectors.T.tolist())
        ]


def eigenmodes(m):
    """Full mode decomposition of a dynamics matrix.

    Returns the 2d modes sorted by (|omega|, descending real part),
    each column scaled so its largest-magnitude entry is exactly 1 (zero
    phase), which fixes the free normalization deterministically.

    Raises DefectiveMatrix when the eigenvector matrix has condition number
    at or above 1e12, which happens exactly at window boundaries where M
    acquires nontrivial Jordan blocks; secular solutions there are out of
    scope and surfacing the degeneracy beats guessing.
    """
    m = np.asarray(m, dtype=float)
    lam, vec = eig_general(m)
    cond = np.linalg.cond(vec)
    if not np.isfinite(cond) or cond >= 1e12:
        raise DefectiveMatrix(
            f"eigenvector matrix condition {cond:.3e} >= 1e12 (degenerate spectrum)"
        )
    return _mode_set(lam / 1j, vec)


def _mode_set(omegas, vec):
    """The modes sorted by (|omega|, descending real part), each column
    divided by its largest-magnitude entry."""
    cols = np.arange(len(omegas))
    vec = vec / vec[np.argmax(np.abs(vec), axis=0), cols]
    order = np.lexsort((-omegas.imag, -omegas.real, np.abs(omegas)))
    return ModeSet(omegas[order], np.ascontiguousarray(vec[:, order]))


# the least root separation g that cubic_modes resolves (its docstring)
_RESOLVED = 8.0 * np.sqrt(np.finfo(float).eps)


def cubic_modes(cfg):
    """The 2d modes of a 3-D config from the cubic's roots, with no 6x6 eig.

    With X = (r, p) e^{i omega t}, p = A r for A = W + i omega, and Q r = 0
    for Q = V + A^2, Hermitian for real omega; omega = +-sqrt(chi) over
    solve_cubic's roots. At a simple root every column of adj Q,
    (q1 x q2, q2 x q0, q0 x q1) over Q's rows, is a multiple of r, and the
    largest is taken. The modes are ordered as eigenmodes orders its own,
    each scaled so its largest-magnitude entry is exactly 1.

    Near a multiple root adj Q loses digits, about eps / g relative, with
    g = min_i prod_{j != i} |chi_i - chi_j| / s^2 and s = max |chi|; K
    inherits that. Rounding splits an exact double root into a pair with g
    up to 2 sqrt(8 eps), from a backward error of 8 eps s^3 in the cubic
    over the distance to the third root; 4,000 static traps with a repeated
    eigenvalue and the same-sign crossings of 300 diagonal traps reached
    3.5 sqrt(eps). So g < 8 sqrt(eps) = 1.2e-7 raises DegenerateModeVector,
    as no single vector exists at a double root. A triple cluster, with g
    near eps^(2/3), is refused alike.

    A test route: Q cancels at large rates, and on fig1's trap K drifts
    from the eig route's by 4e-10 at Omega = 1e4 and fails its symmetry
    check from 1e5.
    """
    chi = solve_cubic(char_poly_coeffs(cfg))
    gaps = np.abs(chi[:, None] - chi) / np.max(np.abs(chi)) + np.eye(3)
    g = float(np.min(np.prod(gaps, axis=1)))
    if g < _RESOLVED:
        raise DegenerateModeVector(
            f"chi roots {chi.tolist()} cluster (g = {g:.3e} < {_RESOLVED:.3e}): "
            "no single mode vector at a multiple root"
        )
    root = np.sqrt(chi)
    omegas = np.concatenate([root, -root])
    a = cfg.omega_matrix + 1j * omegas[:, None, None] * np.eye(3)
    q = cfg.v + a @ a
    q0, q1, q2 = q[:, 0], q[:, 1], q[:, 2]
    adj = np.stack([np.cross(q1, q2), np.cross(q2, q0), np.cross(q0, q1)], axis=2)
    r = adj[np.arange(len(omegas)), :, np.argmax(np.linalg.norm(adj, axis=1), axis=1)]
    p = (a @ r[:, :, None])[:, :, 0]
    ms = _mode_set(omegas, np.concatenate([r, p], axis=1).T)
    # a complex z / z can round: the largest entries are set to exactly 1
    ms.vectors[np.argmax(np.abs(ms.vectors), axis=0), np.arange(len(omegas))] = 1.0
    return ms


def krein_sign(xbar):
    """Real part of -i Xbar^dag J Xbar, one value per column of a (2d, k) block.

    A single (2d,) vector gives a single value. For a mode with real
    frequency this quantity is real and nonzero, and the modes at omega and
    -omega carry opposite signs; it degenerates to zero for growing/decaying
    modes.
    """
    xbar = np.asarray(xbar, dtype=complex)
    j = symplectic_form(len(xbar) // 2)
    return np.real(-1j * np.sum(np.conj(xbar) * (j @ xbar), axis=0))


def select_positive_signature_modes(modes):
    """The modes with real frequency and positive Krein sign, as a ModeSet.

    Returns them ordered by |omega| ascending, their vectors one
    C-contiguous (2d, d) block. A stable d-dimensional trap has exactly d
    such modes, also where two of them share a frequency. Any other count
    raises InInstabilityRegion, which happens exactly inside the instability
    windows, where frequencies leave the real axis and their Krein signs
    vanish.
    """
    om, vec = modes
    real = np.abs(om.imag) <= 1e-9 * (1.0 + np.abs(om))
    sel = np.flatnonzero(real & (krein_sign(vec) > 0))
    dim = len(vec) // 2
    if len(sel) != dim:
        raise InInstabilityRegion(
            f"{len(sel)} modes have real frequency and positive symplectic sign, "
            f"a stable trap has {dim}: unstable config"
        )
    sel = sel[np.argsort(np.abs(om[sel]), kind="stable")]
    return ModeSet(om[sel], np.ascontiguousarray(vec[:, sel]))
