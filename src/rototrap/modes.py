"""Normal modes of the corotating-frame flow.

Modes are solutions X(t) = Xbar exp(i omega t), so M Xbar = i omega Xbar:
eigenvalues of M are reported as frequencies omega = lambda / i. M is real,
so omega and -conj(omega) are both frequencies, and omega^2 reproduces the
chi roots of the stability cubic. The planar closed forms (rotation about a
principal axis) are kept as an independent route for cross-validation.

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
    "ModeVector",
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


def _normalize_largest(x):
    i = int(np.argmax(np.abs(x)))
    if x[i] == 0:
        raise DegenerateModeVector("mode vector is identically zero")
    return x / x[i]


class ModeVector:
    """Frequency and phase-space eigenvector of one normal mode.

    By default the vector is scaled so its largest-magnitude component is
    exactly 1 (zero phase), which fixes the free normalization
    deterministically; pass normalize=False to keep a caller's scaling.
    """

    def __init__(self, omega, xbar, normalize=True):
        self.omega = complex(omega)
        xbar = np.asarray(xbar, dtype=complex)
        self.xbar = _normalize_largest(xbar) if normalize else xbar
        self.xbar.setflags(write=False)

    @property
    def dim(self):
        return len(self.xbar) // 2

    def __repr__(self):
        return f"ModeVector(omega={self.omega:.6g}, dim={self.dim})"


class ModeSet:
    """The 2d modes of a d-dimensional trap, sorted by (|omega|, descending real part)."""

    def __init__(self, modes):
        self.modes = list(modes)

    @property
    def omegas(self):
        return np.array([m.omega for m in self.modes])

    def __len__(self):
        return len(self.modes)

    def __getitem__(self, i):
        return self.modes[i]

    def to_json_obj(self):
        out = []
        for m in self.modes:
            out.append(
                {
                    "omega_re": m.omega.real,
                    "omega_im": m.omega.imag,
                    "xbar": [{"re": z.real, "im": z.imag} for z in m.xbar],
                }
            )
        return out


def eigenmodes(m):
    """Full mode decomposition of a dynamics matrix.

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
    order = sorted(
        range(len(omegas)),
        key=lambda i: (abs(omegas[i]), -omegas[i].real, -omegas[i].imag),
    )
    return ModeSet(ModeVector(omegas[i], vec[:, i]) for i in order)


def krein_sign(mode_or_xbar):
    """Real part of -i Xbar^dag J Xbar.

    For a mode with real frequency this quantity is real and nonzero, and
    the modes at omega and -omega carry opposite signs; it degenerates to
    zero for growing/decaying modes.
    """
    xbar = mode_or_xbar.xbar if isinstance(mode_or_xbar, ModeVector) else mode_or_xbar
    xbar = np.asarray(xbar, dtype=complex)
    j = symplectic_form(len(xbar) // 2)
    return float(np.real(-1j * (np.conj(xbar) @ (j @ xbar))))


def select_positive_signature_modes(modes):
    """The modes with real frequency and positive Krein sign.

    Returns them ordered by |omega| ascending. A stable d-dimensional trap
    has exactly d such modes, also where two of them share a frequency. Any
    other count raises InInstabilityRegion, which happens exactly inside the
    instability windows, where frequencies leave the real axis and their
    Krein signs vanish.
    """
    sel = [
        mv
        for mv in modes
        if abs(mv.omega.imag) <= 1e-9 * (1.0 + abs(mv.omega)) and krein_sign(mv) > 0
    ]
    dim = modes[0].dim
    if len(sel) != dim:
        raise InInstabilityRegion(
            f"{len(sel)} modes have real frequency and positive symplectic sign, "
            f"a stable trap has {dim}: unstable config"
        )
    sel.sort(key=lambda mv: abs(mv.omega))
    return sel


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

    Components are, up to normalization,

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
    return ModeVector(w, raw)
