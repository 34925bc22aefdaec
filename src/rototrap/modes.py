"""Normal modes of the corotating-frame flow.

Modes are solutions X(t) = Xbar exp(i omega t), so M Xbar = i omega Xbar:
eigenvalues of M are reported as frequencies omega = lambda / i. M is real,
so omega and -conj(omega) are both frequencies, and omega^2 reproduces the
chi roots of the stability cubic. A set of modes is plain arrays, a ModeSet
(omegas, vectors) whose vectors hold one mode per column, so the consumers
(the stationary state, the energy split) take position and momentum blocks
of one matrix. The planar closed forms (rotation about a principal axis)
are kept as an independent route for cross-validation.

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

__all__ = [
    "ModeSet",
    "PlanarFrequencies",
    "eigenmodes",
    "planar_frequencies",
    "planar_mode_vector",
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
    omegas = lam / 1j
    cols = np.arange(len(omegas))
    vec = vec / vec[np.argmax(np.abs(vec), axis=0), cols]
    order = np.lexsort((-omegas.imag, -omegas.real, np.abs(omegas)))
    return ModeSet(omegas[order], np.ascontiguousarray(vec[:, order]))


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


class PlanarFrequencies(NamedTuple):
    omega_plus_sq: float
    omega_minus_sq: float


def planar_frequencies(vx, vy, omega):
    """Squared in-plane frequencies for rotation about the z principal axis.

    omega_+-^2 = (Vx + Vy + 2 Omega^2 +- sqrt((Vx-Vy)^2 + 8 Omega^2 (Vx+Vy))) / 2.
    """
    if vx <= 0 or vy <= 0:
        raise ValueError("vx and vy must be positive")
    s = np.sqrt((vx - vy) ** 2 + 8.0 * omega * omega * (vx + vy))
    base = vx + vy + 2.0 * omega * omega
    return PlanarFrequencies(0.5 * (base + s), 0.5 * (base - s))


def planar_mode_vector(omega_char, vx, omega):
    """In-plane mode vector (x, y, px, py) at characteristic frequency omega_char.

    Scaled, as eigenmodes scales its columns, so that its largest-magnitude
    component is exactly 1. Components are, up to that normalization,

        (2 i w W, Vx - w^2 - W^2, W (W^2 - w^2 - Vx), i w (W^2 - w^2 + Vx))

    with w = omega_char and W the rotation rate. All four vanish
    simultaneously only for W = 0 with w^2 = Vx, where the two linear
    polarizations degenerate and no single closed-form vector exists; that
    case raises DegenerateModeVector.
    """
    w = complex(omega_char)
    big_w = float(omega)
    w2 = w * w
    raw = np.array(
        [
            2j * w * big_w,
            vx - w2 - big_w * big_w,
            big_w * (big_w * big_w - w2 - vx),
            1j * w * (big_w * big_w - w2 + vx),
        ],
        dtype=complex,
    )
    scale = 1.0 + abs(vx) + abs(w2) + big_w * big_w
    if np.max(np.abs(raw)) < 1e-12 * scale:
        raise DegenerateModeVector(
            "planar mode vector vanishes (static trap at its own principal frequency)"
        )
    return raw / raw[np.argmax(np.abs(raw))]
