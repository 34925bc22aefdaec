"""Configuration handling, the dynamics matrix, and the characteristic polynomial."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings

import rototrap
from rototrap import (
    CharPolyCoeffs,
    InvalidConfig,
    LinearTrap,
    NegativeOmega,
    NonPositivePotential,
    NonSymmetricPotential,
    NumericError,
    OddPowersPresent,
    OmegaRange,
    ZeroAxis,
    char_poly_coeffs,
    char_poly_from_matrix,
    config_errors,
    config_from_dict,
    cross_matrix,
    line_trap,
    make_config,
    planar_trap,
    region_map,
    resonance_coefficients,
    trap_invariants,
    validate_config,
    window_coeffs,
)
from rototrap import stability

from conftest import (
    V123,
    diagonal_axis,
    fig1_config,
    hard_configs,
    random_config,
    random_rotation,
)


# -- cross product matrix ----------------------------------------------------

def test_cross_matrix_action_equals_cross_product(rng):
    for _ in range(20):
        w = rng.standard_normal(3)
        u = rng.standard_normal(3)
        assert np.allclose(cross_matrix(w) @ u, np.cross(w, u), atol=1e-14)


def test_cross_matrix_antisymmetric():
    m = cross_matrix([0.3, -1.2, 0.7])
    assert np.allclose(m, -m.T)
    assert np.allclose(np.diag(m), 0.0)


def test_cross_matrix_z_axis_layout():
    m = cross_matrix([0.0, 0.0, 0.5])
    assert np.allclose(m, [[0.0, -0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])


# -- dynamics matrix ---------------------------------------------------------

def test_dynamics_matrix_first_row_z_axis():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.5)
    row = cfg.dynamics_matrix[0]
    assert np.allclose(row, [0.0, 0.5, 0.0, 1.0, 0.0, 0.0])


def test_dynamics_matrix_first_row_generic_axis():
    cfg = make_config(V123, [0.36, 0.48, 0.8], 1.0)
    # row 1 of -cross_matrix(omega_vec) is (0, omega_z, -omega_y)
    assert np.allclose(cfg.dynamics_matrix[0], [0.0, 0.8, -0.48, 1.0, 0.0, 0.0])


def test_dynamics_matrix_block_structure(rng):
    cfg = random_config(rng)
    m = cfg.dynamics_matrix
    assert m.shape == (6, 6)
    assert abs(np.trace(m)) < 1e-14
    assert np.allclose(m[:3, 3:], np.eye(3))
    assert np.allclose(m[3:, :3], -cfg.v)
    assert np.allclose(m[:3, :3], m[3:, 3:])
    assert np.allclose(m[:3, :3], -cfg.omega_matrix)


def test_derived_matrices_cached_read_only():
    cfg = fig1_config(0.7)
    for name in ("omega_matrix", "dynamics_matrix"):
        mat = getattr(cfg, name)
        assert getattr(cfg, name) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
    assert np.array_equal(cfg.omega_matrix, cross_matrix(cfg.omega_vec))


def test_reduced_trap_matrices():
    p = planar_trap(1.0, 2.0, 0.5)
    m = p.dynamics_matrix
    assert m.shape == (4, 4)
    assert np.allclose(m[:2, :2], [[0.0, 0.5], [-0.5, 0.0]])
    assert np.allclose(m[2:, :2], -np.diag([1.0, 2.0]))
    line = line_trap(2.0)
    assert np.allclose(line.dynamics_matrix, [[0.0, 1.0], [-2.0, 0.0]])


@pytest.mark.parametrize(
    "w",
    [[[0.0, 0.5], [0.0, 0.0]], [[0.0, -0.5], [0.5, 0.1]], np.zeros((3, 3))],
    ids=["not_antisymmetric", "nonzero_diagonal", "wrong_shape"],
)
def test_linear_trap_checks_omega_matrix(w):
    with pytest.raises(ValueError, match="antisymmetric"):
        LinearTrap(np.diag([1.0, 2.0]), w, 0.5)


# -- characteristic polynomial -----------------------------------------------

def test_char_poly_static_diagonal():
    cfg = make_config(V123, diagonal_axis(), 0.0)
    assert char_poly_coeffs(cfg) == pytest.approx((-6.0, 11.0, -6.0))


def test_char_poly_benchmark_tilted():
    cfg = fig1_config(1.0)
    a, b, c = char_poly_coeffs(cfg)
    assert (a, b) == pytest.approx((-8.0, 12.0))
    assert c == pytest.approx(-2.0 / 3.0)


def test_char_poly_routes_agree(rng):
    for _ in range(50):
        cfg = random_config(rng)
        c1 = np.array(char_poly_coeffs(cfg))
        c2 = np.array(char_poly_from_matrix(cfg.dynamics_matrix))
        scale = max(1.0, np.max(np.abs(c1)))
        assert np.allclose(c1, c2, atol=1e-10 * scale)


def test_char_poly_rotation_invariant(rng):
    # coefficients depend on V and the axis only through scalar invariants
    cfg = random_config(rng)
    base = np.array(char_poly_coeffs(cfg))
    for _ in range(5):
        r = random_rotation(rng)
        rotated = make_config(r @ cfg.v @ r.T, r @ cfg.axis, cfg.omega)
        assert np.allclose(np.array(char_poly_coeffs(rotated)), base, atol=1e-9)


def test_char_poly_matrix_route_guards():
    with pytest.raises(ValueError):
        char_poly_from_matrix(np.eye(4))
    m = fig1_config(1.0).dynamics_matrix.copy()
    m[0, 0] += 1e-3  # breaks the trace-free block structure
    with pytest.raises(OddPowersPresent):
        char_poly_from_matrix(m)


@settings(max_examples=60)
@given(cfg=hard_configs())
def test_trap_invariants_have_one_owner(cfg):
    # cfg comes from with_omega, so its invariants were passed on, not rebuilt
    inv = np.array(cfg.invariants)
    fresh = np.array(trap_invariants(cfg))
    assert np.all(np.abs(inv - fresh) <= 1e-14 * np.abs(fresh))

    cp = char_poly_coeffs(cfg)
    oracle = char_poly_from_matrix(cfg.dynamics_matrix)
    scale = max(1.0, *np.abs(cp))
    assert np.all(np.abs(np.array(cp) - np.array(oracle)) <= 1e-10 * scale)

    # window_coeffs is C(Omega) read as a quadratic in Omega^2
    x = cfg.omega ** 2
    a, b, c = window_coeffs(cfg)
    terms = [a * x * x, b * x, c, cp.c]
    assert abs(-a * x * x + b * x - c - cp.c) <= 1e-12 * max(1.0, *np.abs(terms))

    # resonance_coefficients is P(omega) on the section omega = Omega
    d, e, f = resonance_coefficients(cfg)
    terms = [x ** 3, cp.a * x * x, cp.b * x, cp.c, d * x * x, e * x, f]
    gap = (x ** 3 + cp.a * x * x + cp.b * x + cp.c) - (d * x * x + e * x + f)
    assert abs(gap) <= 1e-12 * max(1.0, *np.abs(terms))


def test_char_poly_coeffs_is_named_tuple():
    c = CharPolyCoeffs(1.0, 2.0, 3.0)
    assert (c.a, c.b, c.c) == (1.0, 2.0, 3.0)


# -- validation --------------------------------------------------------------

def test_rejects_nonsymmetric_potential():
    v = np.array([[1.0, 0.2, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(NonSymmetricPotential):
        make_config(v, diagonal_axis(), 0.5)


def test_rejects_nonpositive_potential():
    with pytest.raises(NonPositivePotential):
        make_config([1.0, -0.5, 3.0], diagonal_axis(), 0.5)
    with pytest.raises(NonPositivePotential):
        make_config([1.0, 0.0, 3.0], diagonal_axis(), 0.5)


def test_rejects_zero_axis():
    with pytest.raises(ZeroAxis):
        make_config(V123, [0.0, 0.0, 0.0], 0.5)


def test_rejects_non_unit_axis():
    with pytest.raises(InvalidConfig):
        make_config(V123, [0.0, 0.0, 2.0], 0.5)


def test_axis_renormalized_within_tolerance():
    cfg = make_config(V123, [0.0, 0.0, 1.0 + 5e-7], 0.5)
    assert np.linalg.norm(cfg.axis) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "v, axis",
    [
        (np.array([True, True, True]), [0.0, 0.0, 1.0]),
        (V123, np.array([False, False, True])),
    ],
    ids=["diag_bool_array", "axis_bool_array"],
)
def test_rejects_text_and_booleans_as_numbers(v, axis):
    with pytest.raises(InvalidConfig):
        make_config(v, axis, 0.5)


def test_rejects_negative_omega():
    with pytest.raises(NegativeOmega):
        make_config(V123, diagonal_axis(), -0.1)


def test_with_omega_preserves_potential_and_axis():
    cfg = fig1_config(1.0)
    other = cfg.with_omega(2.5)
    assert other.omega == 2.5
    # V, the axis, the unit and the invariants record are the parent's own
    assert other.v is cfg.v
    assert other.axis is cfg.axis
    assert other.invariants is cfg.invariants
    assert other.omega_unit == cfg.omega_unit

    # W and M are rebuilt at the new rate, and read-only
    assert np.array_equal(other.omega_matrix, cross_matrix(2.5 * cfg.axis))
    ref = make_config(cfg.v, cfg.axis, 2.5)
    assert np.array_equal(other.dynamics_matrix, ref.dynamics_matrix)
    for mat in (other.omega_matrix, other.dynamics_matrix):
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
    assert cfg.omega == 1.0
    assert np.array_equal(cfg.omega_matrix, cross_matrix(cfg.axis))

    # a chain of rates keeps the axis bits
    chained = cfg
    for om in (0.3, 2.0, 0.0, 1e-7, 3.5):
        chained = chained.with_omega(om)
    assert chained.axis.tobytes() == cfg.axis.tobytes()


@pytest.mark.parametrize(
    "omega, error",
    [
        (-0.1, NegativeOmega),
        (-np.inf, InvalidConfig),
        (np.nan, InvalidConfig),
        (np.inf, InvalidConfig),
        ("abc", InvalidConfig),
        (None, InvalidConfig),
        ([1.0, 2.0], InvalidConfig),
        ("0.5", InvalidConfig),
        (True, InvalidConfig),
        (np.bool_(True), InvalidConfig),
        # float rates take a fast path; it must refuse what the full check does
        pytest.param(np.float64(np.nan), InvalidConfig, id="float64-nan"),
        pytest.param(np.float64(np.inf), InvalidConfig, id="float64-inf"),
        pytest.param(np.float64(-np.inf), InvalidConfig, id="float64-minus-inf"),
        pytest.param(-1e-300, NegativeOmega, id="float-minus-1e-300"),
        pytest.param(np.float64(-1e-300), NegativeOmega, id="float64-minus-1e-300"),
        pytest.param(np.bool_(False), InvalidConfig, id="bool_-False"),
        pytest.param(False, InvalidConfig, id="False"),
    ],
)
def test_with_omega_checks_the_rate(omega, error):
    cfg = fig1_config(1.0)
    with pytest.raises(error) as via_config:
        cfg.with_omega(omega)
    if omega is None:
        # the second route reads None as "the config's own rate"
        assert char_poly_coeffs(cfg, omega) == char_poly_coeffs(cfg)
        return
    # the sweeps' route runs the same check, with the same message
    with pytest.raises(error) as via_coeffs:
        char_poly_coeffs(cfg, omega)
    assert type(via_coeffs.value) is type(via_config.value)
    assert str(via_coeffs.value) == str(via_config.value)
    assert getattr(via_coeffs.value, "errors", None) == getattr(via_config.value, "errors", None)


@pytest.mark.parametrize(
    "omega",
    [0.0, -0.0, 5e-324, 0.5, np.float64(0.5), 1e300, np.float32(0.5), 2, np.int64(3)],
    ids=["0", "minus-0", "5e-324", "0.5", "float64", "1e300", "float32", "int", "int64"],
)
def test_with_omega_accepts_what_the_constructor_accepts(omega):
    base = fig1_config(1.0)
    cfg = base.with_omega(omega)
    assert type(cfg.omega) is float
    assert cfg.omega == make_config(V123, cfg.axis, omega).omega == float(omega)
    # the sweeps' route accepts the same rates; at 1e300 both raise the
    # same NumericError, since Omega^2 overflows
    via_coeffs = _outcome(lambda: char_poly_coeffs(base, omega))
    assert via_coeffs == _outcome(lambda: char_poly_coeffs(cfg))
    assert all(type(x) is float for x in via_coeffs) or via_coeffs[0] is NumericError


def _outcome(call):
    """call()'s result, or the class and message of the error it raised."""
    try:
        return call()
    except NumericError as exc:
        return type(exc), str(exc)


def _same_bits(x, y):
    return np.array(x).tobytes() == np.array(y).tobytes()


def test_char_poly_coeffs_at_a_rate_equals_the_with_omega_route_bit_for_bit(
    rng, monkeypatch
):
    # the rates region_map passes: its bracket's grid as floats and its
    # bisection midpoints as np.float64
    swept = []

    def record(cfg, omega=None):
        swept.append(omega)
        return char_poly_coeffs(cfg, omega)

    monkeypatch.setattr(stability, "char_poly_coeffs", record)
    region_map(fig1_config(1.0))
    monkeypatch.undo()
    # the scan's grid values, and log-uniform rates of both types
    logs = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 2000))
    rates = swept + list(OmegaRange(0.0, 4.0, 2000).values()) + logs.tolist() + list(logs)
    assert {type(om) for om in swept} == {float, np.float64}
    for cfg in (fig1_config(1.0), random_config(rng)):
        for om in rates:
            assert _same_bits(char_poly_coeffs(cfg, om), char_poly_coeffs(cfg.with_omega(om)))

    # past Omega ~ 1.3e154 the square overflows: one error, naming the rate
    for om in (1e200, np.float64(1e200)):
        via_coeffs = _outcome(lambda: char_poly_coeffs(fig1_config(1.0), om))
        assert via_coeffs == _outcome(lambda: char_poly_coeffs(fig1_config(1.0).with_omega(om)))
        assert via_coeffs == (NumericError, "Omega^2 overflows at Omega = 1e+200")


def test_validate_config_idempotent():
    cfg = fig1_config(1.0)
    assert validate_config(cfg) is cfg
    with pytest.raises(TypeError):
        validate_config([V123.tolist(), [0.0, 0.0, 1.0], 0.5])


def test_every_exported_name_resolves():
    # no name stays in an __all__ after its definition is gone
    modules = [rototrap] + [
        importlib.import_module(f"rototrap.{info.name}")
        for info in pkgutil.iter_modules(rototrap.__path__)
        if info.name != "__main__"
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


# -- JSON-shaped configuration -----------------------------------------------

GOOD_DOC = {
    "potential": {"diag": [1.0, 2.0, 3.0]},
    "axis": [0.0, 0.0, 1.0],
    "omega": 0.5,
}


def test_config_from_dict_matches_make_config():
    cfg = config_from_dict(GOOD_DOC)
    ref = make_config(V123, [0.0, 0.0, 1.0], 0.5)
    assert np.allclose(cfg.v, ref.v)
    assert np.allclose(cfg.axis, ref.axis)
    assert cfg.omega == ref.omega
    assert config_errors(GOOD_DOC) == []


def test_config_dict_full_matrix_form():
    doc = dict(GOOD_DOC, potential={"matrix": V123.tolist()})
    cfg = validate_config(doc)
    assert np.allclose(cfg.v, V123)


def test_config_dict_rejects_unknown_fields():
    with pytest.raises(InvalidConfig):
        config_from_dict(dict(GOOD_DOC, extra=1))


def test_config_dict_rejects_missing_fields():
    doc = {"potential": {"diag": [1.0, 2.0, 3.0]}}
    with pytest.raises(InvalidConfig):
        config_from_dict(doc)


def test_config_dict_rejects_both_potential_forms():
    doc = dict(GOOD_DOC, potential={"diag": [1, 2, 3], "matrix": np.eye(3).tolist()})
    with pytest.raises(InvalidConfig):
        config_from_dict(doc)


def test_config_errors_collects_everything():
    doc = {
        "potential": {"diag": [1.0, -2.0, 3.0]},
        "axis": [0.0, 0.0, 0.0],
        "omega": -1.0,
        "omega_unit": 0.0,
    }
    errs = config_errors(doc)
    joined = "\n".join(errs)
    assert len(errs) >= 4
    assert "NonPositivePotential" in joined
    assert "ZeroAxis" in joined
    assert "NegativeOmega" in joined
    assert "omega_unit" in joined
