"""Trap configuration and the linear dynamics it generates.

Units have m = 1 and hbar = 1 throughout; an overall frequency scale
omega_unit is carried only as a reporting label. A scenario is a symmetric
positive-definite matrix V of squared trap frequencies together with a
rotation rate Omega >= 0 about a unit axis n. In the corotating frame the
motion is linear, dX/dt = M X, for phase-space points ordered
(x, y, z, px, py, pz).

With W the cross-product matrix of the angular velocity (W u = Omega n x u),

    M = [[-W, I], [-V, -W]],

whose characteristic polynomial det(lambda I - M) contains only even powers
and, after lambda = i omega, reads P(omega) = omega^6 + A omega^4
+ B omega^2 + C with rotationally invariant coefficients A, B, C.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidConfig,
    NegativeOmega,
    NonPositivePotential,
    NonSymmetricPotential,
    NumericError,
    OddPowersPresent,
    ZeroAxis,
)

__all__ = [
    "ValidatedConfig",
    "CharPolyCoeffs",
    "TrapInvariants",
    "LinearTrap",
    "cross_matrix",
    "make_config",
    "planar_trap",
    "line_trap",
    "config_from_dict",
    "config_errors",
    "validate_config",
    "build_dynamics_matrix",
    "trap_invariants",
    "char_poly_coeffs",
    "char_poly_from_matrix",
]


def cross_matrix(w):
    """Antisymmetric matrix W with W @ u = w x u."""
    wx, wy, wz = np.asarray(w, dtype=float)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


# -- validation helpers ------------------------------------------------------
# Each returns (exception class, message) pairs so the same checks feed both
# the raise-on-first ValidatedConfig constructor and the collect-everything
# config_errors(). A field that is not numeric at all is an InvalidConfig.
# Text and booleans are not numbers even though float() takes them.

_NOT_NUMBERS = (str, bytes, bool, np.bool_)
_FLOAT_TYPES = (float, np.float64)


def _as_floats(x):
    """x as a float array, or None when it does not hold numbers only."""
    try:
        entries = np.asarray(x, dtype=object)
        if any(isinstance(e, _NOT_NUMBERS) for e in entries.flat):
            return None
        return entries.astype(float)
    except (TypeError, ValueError):
        return None


def _as_float(x):
    """x as a float, or None when it is not a number."""
    if isinstance(x, _NOT_NUMBERS):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _potential_issues(v):
    v = _as_floats(v)
    if v is None:
        return [(InvalidConfig, "potential matrix must hold numbers")]
    if v.shape != (3, 3):
        return [(InvalidConfig, f"potential matrix must be 3x3, got {v.shape}")]
    if not np.all(np.isfinite(v)):
        return [(InvalidConfig, "potential matrix has non-finite entries")]
    issues = []
    asym = float(np.max(np.abs(v - v.T)))
    if asym > 1e-14:
        issues.append(
            (NonSymmetricPotential, f"potential asymmetry {asym:.3e} exceeds 1e-14")
        )
    min_eig = float(np.linalg.eigvalsh(0.5 * (v + v.T))[0])
    if min_eig <= 0.0:
        issues.append(
            (NonPositivePotential, f"smallest potential eigenvalue {min_eig:.6g} <= 0")
        )
    return issues


def _axis_issues(axis):
    axis = _as_floats(axis)
    if axis is None:
        return [(InvalidConfig, "axis must hold numbers")]
    if axis.shape != (3,):
        return [(InvalidConfig, f"axis must be a 3-vector, got shape {axis.shape}")]
    if not np.all(np.isfinite(axis)):
        return [(InvalidConfig, "axis has non-finite entries")]
    nrm = float(np.linalg.norm(axis))
    if nrm < 1e-8:
        return [(ZeroAxis, "rotation axis has (near) zero length")]
    if abs(nrm - 1.0) > 1e-6:
        return [(InvalidConfig, f"axis norm {nrm:.9g} differs from 1 by more than 1e-6")]
    return []


def _omega_issues(omega):
    value = _as_float(omega)
    if value is None:
        return [(InvalidConfig, f"omega must be a number, got {omega!r}")]
    if not math.isfinite(value):
        return [(InvalidConfig, "omega must be finite")]
    if value < 0.0:
        return [(NegativeOmega, f"omega must be >= 0, got {value}")]
    return []


def _checked_rate(omega):
    """omega as a float; raises the first of its _omega_issues instead."""
    # fast path for the sweeps, which pass a finite float rate >= 0 each time
    if type(omega) in _FLOAT_TYPES and 0.0 <= omega < math.inf:
        return float(omega)
    _raise_first(_omega_issues(omega))
    return float(omega)


def _unit_issues(omega_unit):
    omega_unit = _as_float(omega_unit)
    if omega_unit is None:
        return [(InvalidConfig, "omega_unit must be a number")]
    if not (math.isfinite(omega_unit) and omega_unit > 0):
        return [(InvalidConfig, f"omega_unit must be positive, got {omega_unit}")]
    return []


def _raise_first(issues):
    if issues:
        cls, msg = issues[0]
        if cls is InvalidConfig:
            raise InvalidConfig(msg, errors=[m for _, m in issues])
        raise cls(msg)


class ValidatedConfig:
    """One validated scenario, with the derived matrices cached.

    The constructor checks every field and raises the first problem:
    ``v`` must be a symmetric positive-definite 3x3 matrix, ``axis`` a
    3-vector whose length is within 1e-6 of one (it is renormalized; a
    (near) zero axis is a ZeroAxis error even at omega = 0, so a config
    always has a well-defined rotation plane), ``omega`` a finite rate
    >= 0 and ``omega_unit`` a positive reporting scale. ``v`` and ``axis``
    are read-only.

    Exposes the duck interface shared with the planar/line reductions:
    ``v``, ``omega``, ``omega_matrix``, ``dynamics_matrix``, ``dim``.
    """

    dim = 3

    def __init__(self, v, axis, omega, omega_unit=1.0):
        _raise_first(
            _potential_issues(v) + _axis_issues(axis)
            + _omega_issues(omega) + _unit_issues(omega_unit)
        )
        v = np.asarray(v, dtype=float)
        axis = np.asarray(axis, dtype=float)
        self.v = 0.5 * (v + v.T)
        self.v.setflags(write=False)
        self.axis = axis / np.linalg.norm(axis)
        self.axis.setflags(write=False)
        self.omega = float(omega)
        self.omega_unit = float(omega_unit)
        self._w = None
        self._m = None
        self._inv = None

    @property
    def omega_vec(self):
        return self.omega * self.axis

    @property
    def omega_matrix(self):
        if self._w is None:
            self._w = cross_matrix(self.omega_vec)
            self._w.setflags(write=False)
        return self._w

    @property
    def dynamics_matrix(self):
        if self._m is None:
            self._m = build_dynamics_matrix(self)
            self._m.setflags(write=False)
        return self._m

    @property
    def invariants(self):
        if self._inv is None:
            self._inv = trap_invariants(self)
        return self._inv

    def with_omega(self, omega):
        """The same scenario at another rate; only the rate is checked.

        V, the axis, omega_unit and the invariants record are this config's
        own objects, shared by reference; W and M are rebuilt on demand.
        This is the one way to get a config at a new rate. A sweep that
        needs only A, B and C at each rate calls char_poly_coeffs(cfg, om)
        instead, which runs the same check and builds no config. A float
        rate takes a fast path through the check, and the copy is one dict
        copy with four entries set: about 0.6 us a call (numpy 2.4, a
        2-core x86-64 host).
        """
        omega = _checked_rate(omega)
        state = self.__dict__.copy()
        state["omega"] = omega
        state["_w"] = state["_m"] = None
        state["_inv"] = self.invariants
        other = object.__new__(type(self))
        other.__dict__ = state
        return other

    def __repr__(self):
        return (
            f"ValidatedConfig(omega={self.omega}, axis={self.axis.tolist()}, "
            f"v=diag?{bool(np.allclose(self.v, np.diag(np.diag(self.v))))})"
        )


def make_config(v, axis, omega, omega_unit=1.0):
    """Build a ValidatedConfig from raw pieces.

    ``v`` is either a length-3 sequence of principal values or a full 3x3
    symmetric matrix.
    """
    if np.ndim(v) == 1:
        v = np.diag(v)
    return ValidatedConfig(v, axis, omega, omega_unit)


class LinearTrap:
    """Minimal d-dimensional trap: V, the Omega block, and M = [[-W, I], [-V, -W]].

    Used for the planar and one-dimensional reductions, which share all the
    Riccati and invariant machinery with the 3D case. W must be
    antisymmetric and of V's shape, as both Riccati routes assume.
    """

    def __init__(self, v, omega_matrix, omega=0.0):
        self.v = np.asarray(v, dtype=float)
        self.omega_matrix = np.asarray(omega_matrix, dtype=float)
        w = self.omega_matrix
        if w.shape != self.v.shape or not np.array_equal(w, -w.T):
            raise ValueError(
                f"omega_matrix must be antisymmetric of V's shape, got {w.tolist()}"
            )
        self.omega = float(omega)
        self.dim = self.v.shape[0]

    @property
    def dynamics_matrix(self):
        return build_dynamics_matrix(self)


def planar_trap(vx, vy, omega):
    """In-plane reduction for rotation about a principal axis."""
    w = np.array([[0.0, -omega], [omega, 0.0]])
    return LinearTrap(np.diag([float(vx), float(vy)]), w, omega)


def line_trap(v):
    """One-dimensional static trap with squared frequency v."""
    return LinearTrap(np.array([[float(v)]]), np.zeros((1, 1)), 0.0)


# -- JSON-shaped configuration -----------------------------------------------

_TOP_KEYS = {"potential", "axis", "omega", "omega_unit"}
_POT_KEYS = {"diag", "matrix"}


def _dict_structure_issues(d):
    issues = []
    if not isinstance(d, dict):
        return [(InvalidConfig, "config document must be a JSON object")]
    unknown = sorted(set(d) - _TOP_KEYS)
    if unknown:
        issues.append((InvalidConfig, f"unknown config fields: {unknown}"))
    for key in ("potential", "axis", "omega"):
        if key not in d:
            issues.append((InvalidConfig, f"missing required field '{key}'"))
    pot = d.get("potential")
    if pot is not None:
        if not isinstance(pot, dict):
            issues.append((InvalidConfig, "'potential' must be an object"))
        else:
            unknown = sorted(set(pot) - _POT_KEYS)
            if unknown:
                issues.append((InvalidConfig, f"unknown potential fields: {unknown}"))
            given = [k for k in _POT_KEYS if k in pot]
            if len(given) != 1:
                issues.append(
                    (InvalidConfig, "potential needs exactly one of 'diag'/'matrix'")
                )
    return issues


def _dict_potential_matrix(pot):
    if "diag" in pot:
        diag = _as_floats(pot["diag"])
        if diag is None or diag.shape != (3,):
            raise InvalidConfig("'potential.diag' must be a length-3 array of numbers")
        return np.diag(diag)
    mat = _as_floats(pot["matrix"])
    if mat is None or mat.shape != (3, 3):
        raise InvalidConfig("'potential.matrix' must be a 3x3 array of numbers")
    return mat


def config_from_dict(d):
    """ValidatedConfig from a JSON-shaped dict.

    Schema: {"potential": {"diag": [Vx,Vy,Vz]} or {"matrix": [[..]]},
    "axis": [nx,ny,nz], "omega": rate, "omega_unit": scale (optional)}.
    Unknown fields are rejected.
    """
    _raise_first(_dict_structure_issues(d))
    v = _dict_potential_matrix(d["potential"])
    return ValidatedConfig(v, d["axis"], d["omega"], d.get("omega_unit", 1.0))


def config_errors(d):
    """Every validation problem of a JSON-shaped dict, as strings.

    Returns [] when the document is valid. Unlike validate_config, which
    raises on the first problem, this collects all of them.
    """
    issues = _dict_structure_issues(d)
    if not issues:
        try:
            issues += _potential_issues(_dict_potential_matrix(d["potential"]))
        except InvalidConfig as exc:
            issues.append((InvalidConfig, str(exc)))
        issues += (
            _axis_issues(d["axis"]) + _omega_issues(d["omega"])
            + _unit_issues(d.get("omega_unit", 1.0))
        )
    return [f"{cls.__name__}: {msg}" for cls, msg in issues]


def validate_config(cfg):
    """A ValidatedConfig as it is, or one built from a JSON-shaped dict."""
    if isinstance(cfg, ValidatedConfig):
        return cfg
    if isinstance(cfg, dict):
        return config_from_dict(cfg)
    raise TypeError(
        f"validate_config takes a ValidatedConfig or a dict, got {type(cfg).__name__}"
    )


# -- dynamics matrix and characteristic polynomial ---------------------------

def build_dynamics_matrix(cfg):
    """The 2d x 2d generator M of the corotating-frame flow dX/dt = M X."""
    d = cfg.dim
    w = cfg.omega_matrix
    m = np.zeros((2 * d, 2 * d))
    m[:d, :d] = -w
    m[:d, d:] = np.eye(d)
    m[d:, :d] = -cfg.v
    m[d:, d:] = -w
    return m


class CharPolyCoeffs(NamedTuple):
    """Coefficients of P(omega) = omega^6 + a omega^4 + b omega^2 + c."""

    a: float
    b: float
    c: float


class TrapInvariants(NamedTuple):
    """Tr V, Tr V^2, Det V, n.V.n, n.V^2.n: all the polynomials in Omega^2 need."""

    tr: float
    tr_v2: float
    det: float
    nvn: float
    nv2n: float


def trap_invariants(cfg):
    """TrapInvariants of cfg.v and cfg.axis; the rotation rate plays no part."""
    v, n = cfg.v, cfg.axis
    v2 = v @ v
    return TrapInvariants(
        float(np.trace(v)), float(np.trace(v2)), float(np.linalg.det(v)),
        float(n @ v @ n), float(n @ v2 @ n),
    )


def char_poly_coeffs(cfg, omega=None):
    """Invariant coefficients A, B, C from the closed scalar forms.

    A = -2 Omega^2 - Tr V
    B = Omega^4 + Omega^2 (3 n.V.n - Tr V) + ((Tr V)^2 - Tr V^2) / 2
    C = Omega^2 (Tr V - Omega^2)(n.V.n) - Omega^2 (n.V^2.n) - Det V

    All three depend on V and n only through cfg.invariants, which the
    dual route char_poly_from_matrix cross-checks. Omega is the config's
    own rate, or ``omega`` when given: the Omega sweeps pass each rate
    here rather than build a config per rate. A given rate passes
    with_omega's check and is made a float before it is squared, so the
    result equals char_poly_coeffs(cfg.with_omega(omega)) bit for bit. The
    sweeps make one call per rate, a shape the benchmark's trace pins:
    about 0.85 us a call with a float rate, against 1.5 us through
    with_omega (numpy 2.4, a 2-core x86-64 host). A rate whose square
    overflows a float raises NumericError.
    """
    omega = cfg.omega if omega is None else _checked_rate(omega)
    tr, tr_v2, det, nvn, nv2n = cfg.invariants
    try:
        om2 = omega ** 2
    except OverflowError as exc:
        raise NumericError(f"Omega^2 overflows at Omega = {omega:.6g}") from exc
    a = -2.0 * om2 - tr
    b = om2 * om2 + om2 * (3.0 * nvn - tr) + 0.5 * (tr * tr - tr_v2)
    c = om2 * (tr - om2) * nvn - om2 * nv2n - det
    return CharPolyCoeffs(a, b, c)


def char_poly_from_matrix(m):
    """Coefficients A, B, C extracted from the matrix route.

    Runs Faddeev-LeVerrier on M to get det(lambda I - M) = sum c_k
    lambda^(6-k), demands the odd coefficients vanish (they must, by the
    block structure), and maps lambda = i omega, giving A = -c2, B = c4,
    C = -c6. Kept deliberately independent of char_poly_coeffs.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ValueError("char_poly_from_matrix expects the 6x6 dynamics matrix")
    c = np.zeros(7)
    c[0] = 1.0
    nk = np.zeros_like(m)
    for k in range(1, 7):
        nk = m @ nk + c[k - 1] * m
        c[k] = -np.trace(nk) / k
    scale = max(1.0, abs(c[2]), abs(c[4]), abs(c[6]))
    odd = max(abs(c[1]), abs(c[3]), abs(c[5]))
    if odd > 1e-10 * scale:
        raise OddPowersPresent(
            f"odd-power coefficients as large as {odd:.3e} (scale {scale:.3g})"
        )
    return CharPolyCoeffs(-c[2], c[4], -c[6])
