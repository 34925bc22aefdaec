"""Eigenmode extraction, Krein-sign selection, and the cubic route to the modes."""

import numpy as np
import pytest
from hypothesis import given, settings

from rototrap import (
    DefectiveMatrix,
    DegenerateModeVector,
    InInstabilityRegion,
    char_poly_coeffs,
    cubic_modes,
    eigenmodes,
    krein_sign,
    make_config,
    planar_trap,
    region_map,
    select_positive_signature_modes,
    solve_cubic,
    stationary_K_from_modes,
    symplectic_form,
)

from conftest import (
    CROSSING_DELTAS,
    V123,
    fig1_config,
    fig2_config,
    hard_configs,
    omega_inside,
    random_config,
    random_potential,
    same_sign_crossing_rates,
)


# -- eigenmodes --------------------------------------------------------------

def test_static_trap_spectrum_and_vectors():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    ms = eigenmodes(cfg.dynamics_matrix)
    expected = sorted([1.0, -1.0, np.sqrt(2), -np.sqrt(2), np.sqrt(3), -np.sqrt(3)])
    assert np.allclose(sorted(ms.omegas.real), expected, atol=1e-9)
    assert np.allclose(ms.omegas.imag, 0.0, atol=1e-9)
    # uncoupled oscillators: each eigenvector lives on one axis and its momentum
    for col in ms.vectors.T:
        support = np.flatnonzero(np.abs(col) > 1e-9)
        assert len(support) == 2
        assert support[1] - support[0] == 3


def test_eigenmodes_residual_and_normalization(rng):
    cfg = random_config(rng)
    m = cfg.dynamics_matrix
    om, vec = eigenmodes(m)
    assert vec.shape == (6, 6) and vec.flags.c_contiguous
    for w, xbar in zip(om, vec.T):
        res = np.linalg.norm(m @ xbar - 1j * w * xbar)
        assert res < 1e-9 * np.linalg.norm(xbar) * max(1.0, np.linalg.norm(m))
        assert xbar[np.argmax(np.abs(xbar))] == 1.0


def test_frequencies_pair_and_sum_to_zero(rng):
    for _ in range(20):
        cfg = random_config(rng)
        try:
            ms = eigenmodes(cfg.dynamics_matrix)
        except DefectiveMatrix:
            continue
        assert abs(np.sum(ms.omegas)) < 1e-9
        key = lambda z: (round(z.real, 7), round(z.imag, 7))
        plus = np.array(sorted(ms.omegas, key=key))
        minus = np.array(sorted(-ms.omegas, key=key))
        assert np.all(np.abs(plus - minus) < 1e-8 * (1.0 + np.abs(plus)))


def test_omega_squared_matches_chi_roots(rng):
    for _ in range(20):
        cfg = random_config(rng)
        coeffs = char_poly_coeffs(cfg)
        chi = solve_cubic(coeffs)
        try:
            ms = eigenmodes(cfg.dynamics_matrix)
        except DefectiveMatrix:
            continue
        # omega and -omega share omega^2, so each chi root appears twice
        sq = ms.omegas ** 2
        scale = 1.0 + np.max(np.abs(chi))
        chi_s = np.array(sorted(np.repeat(chi, 2), key=lambda z: (round(z.real, 7), z.imag)))
        sq_s = np.array(sorted(sq, key=lambda z: (round(z.real, 7), z.imag)))
        assert np.allclose(chi_s, sq_s, atol=1e-8 * scale)


def test_defective_matrix_raises():
    # free particle: double zero eigenvalue with a single eigenvector
    with pytest.raises(DefectiveMatrix):
        eigenmodes(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_mode_set_json_layout():
    ms = eigenmodes(fig1_config(1.0).dynamics_matrix)
    obj = ms.to_json_obj()
    assert len(obj) == 6
    for entry in obj:
        assert set(entry) == {"omega_re", "omega_im", "xbar"}
        assert len(entry["xbar"]) == 6
        assert set(entry["xbar"][0]) == {"re", "im"}


# -- symplectic sign selection -----------------------------------------------

def test_krein_signs_split_pairs():
    om, vec = eigenmodes(fig1_config(1.0).dynamics_matrix)
    signs = krein_sign(vec)
    assert np.sum(signs > 0) == 3
    for k in np.flatnonzero(signs > 0):
        partner = np.argmin(np.abs(om + om[k]))
        assert signs[partner] < 0


@pytest.mark.parametrize("make", [fig1_config, fig2_config])
def test_krein_sign_of_a_block_is_per_column(make):
    # one sign per column, each the single-vector value
    _, vec = eigenmodes(make().dynamics_matrix)
    block = krein_sign(vec)
    assert block.shape == (6,)
    single = np.array([krein_sign(col) for col in vec.T])
    assert np.all(np.sign(block) == np.sign(single))
    assert np.allclose(block, single, rtol=1e-14, atol=1e-15)


def test_select_positive_signature_modes_stable():
    ms = eigenmodes(fig1_config(1.0).dynamics_matrix)
    om, vec = select_positive_signature_modes(ms)
    assert om.shape == (3,) and vec.shape == (6, 3)
    assert vec.flags.c_contiguous
    mags = np.abs(om)
    assert np.all(np.diff(mags) >= 0)
    assert np.all(krein_sign(vec) > 0)
    # the selected columns are columns of the full set, frequency and all
    for w, col in zip(om, vec.T):
        (k,) = np.flatnonzero(np.all(ms.vectors == col[:, None], axis=0))
        assert ms.omegas[k] == w


def test_select_positive_signature_modes_at_a_same_sign_crossing():
    # fig2's trap at its lower crossing: the axis mode and an in-plane mode
    # share omega = sqrt 3 and Krein sign +1, so M stays semisimple
    (om_c,) = same_sign_crossing_rates([1.0, 2.0, 3.0], 2)
    ms = eigenmodes(fig2_config(om_c).dynamics_matrix)
    om, vec = select_positive_signature_modes(ms)
    assert np.all(krein_sign(vec) > 0)
    assert np.abs(om[1:]) == pytest.approx([np.sqrt(3.0)] * 2, rel=1e-12)


def test_select_positive_signature_modes_unstable():
    # inside the exponential window a pair loses its sign split
    ms = eigenmodes(fig2_config(1.2).dynamics_matrix)
    with pytest.raises(InInstabilityRegion):
        select_positive_signature_modes(ms)


def test_symplectic_form_layout():
    j = symplectic_form(2)
    assert np.allclose(j, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert np.allclose(symplectic_form(3) @ symplectic_form(3), -np.eye(6))


# -- the cubic route: modes from the adjugate of Q(omega) --------------------

EPS = np.finfo(float).eps

# the in-plane components (x, y, px, py) of a mode of a trap rotating about z
IN_PLANE = [0, 1, 3, 4]


def root_separation(cfg):
    """g = min_i prod_{j != i} |chi_i - chi_j| / s^2, s = max |chi|."""
    chi = solve_cubic(char_poly_coeffs(cfg))
    gaps = np.abs(chi[:, None] - chi) / np.max(np.abs(chi)) + np.eye(3)
    return float(np.min(np.prod(gaps, axis=1)))


def assert_cubic_route_K(cfg):
    """K from cubic_modes is the eig route's to 100 eps / g, or g < 8 sqrt(eps) refuses it.

    Returns whether the route resolved the roots. An accepted mode set's
    adjugate has relative error about eps / g (cubic_modes' docstring);
    the measured factor is at most 4.2 over 900 stable random rates.
    """
    ref = stationary_K_from_modes(cfg).k
    g = root_separation(cfg)
    if g < 8.0 * np.sqrt(EPS):
        with pytest.raises(DegenerateModeVector):
            cubic_modes(cfg)
        return False
    k = stationary_K_from_modes(cfg, cubic_modes(cfg)).k
    assert np.max(np.abs(k - ref)) <= 100.0 * EPS / g * np.max(np.abs(ref))
    return True


def test_planar_frequencies_static_limit():
    om = cubic_modes(fig2_config(0.0)).omegas
    root = np.sqrt([1.0, 2.0, 3.0])
    assert om == pytest.approx(np.ravel(np.column_stack([root, -root])), abs=1e-12)


def test_planar_frequencies_benchmark():
    # fig2's trap rotates about z: its in-plane pair is the paper's planar case
    om = cubic_modes(fig2_config(0.5)).omegas
    assert np.all(om.imag == 0.0)
    minus_sq, axis_sq, plus_sq = om[::2].real ** 2
    s = np.sqrt(7.0)
    assert plus_sq == pytest.approx((3.5 + s) / 2.0, abs=1e-12)
    assert minus_sq == pytest.approx((3.5 - s) / 2.0, abs=1e-12)
    assert plus_sq == pytest.approx(3.072876, abs=1e-6)
    assert minus_sq == pytest.approx(0.427124, abs=1e-6)
    assert axis_sq == pytest.approx(3.0, abs=1e-12)


def test_planar_frequencies_match_planar_eigenmodes(rng):
    # about a principal axis the 3-D route's in-plane modes are the 2-D
    # trap's eig modes, frequency and vector
    checked = 0
    for _ in range(300):
        vx, vy, vz = rng.uniform(0.1, 5.0, size=3)
        om = rng.uniform(0.0, 3.0)
        try:
            ms = cubic_modes(make_config([vx, vy, vz], [0.0, 0.0, 1.0], om))
            ref = eigenmodes(planar_trap(vx, vy, om).dynamics_matrix)
        except (DegenerateModeVector, DefectiveMatrix):
            continue
        plane = np.flatnonzero(np.all(ms.vectors[[2, 5]] == 0.0, axis=0))
        assert len(plane) == 4
        for w, col in zip(ms.omegas[plane], ms.vectors[IN_PLANE][:, plane].T):
            k = np.argmin(np.abs(ref.omegas - w))
            assert abs(ref.omegas[k] - w) < 1e-9 * (1.0 + abs(w))
            overlap = abs(np.vdot(ref.vectors[:, k], col))
            assert overlap == pytest.approx(
                np.linalg.norm(ref.vectors[:, k]) * np.linalg.norm(col), rel=1e-8
            )
        checked += 1
    assert checked > 250


def test_planar_mode_vector_benchmark():
    om, vec = cubic_modes(fig2_config(0.5))
    w = om[0]
    assert w == pytest.approx(np.sqrt((3.5 - np.sqrt(7.0)) / 2.0), abs=1e-12)
    assert vec[np.argmax(np.abs(vec[:, 0])), 0] == 1.0
    xbar = vec[IN_PLANE, 0]
    raw = np.array([0.653546j, 0.322876, -0.588562, 0.537784j])
    # parallel up to the deterministic normalization
    ratio = xbar / raw
    assert np.allclose(ratio, ratio[0], atol=1e-5)
    # first equation of motion: i w x = Omega y + p_x
    x, y, px, _ = raw
    assert 1j * w * x == pytest.approx(0.5 * y + px, abs=1e-5)
    assert (0.5 * y + px).real == pytest.approx(-0.427124, abs=1e-5)


def test_planar_mode_vector_parity():
    om, vec = cubic_modes(fig2_config(0.5))
    assert om[1] == -om[0]
    plus, minus = vec[IN_PLANE, 0], vec[IN_PLANE, 1]
    # x and p_y flip sign under w -> -w, y and p_x do not; compare the
    # normalization-free component ratios
    flipped = plus * np.array([-1.0, 1.0, 1.0, -1.0])
    ratio = minus / flipped
    assert np.allclose(ratio, ratio[0], atol=1e-10)


def test_cubic_modes_satisfy_eigenproblem(rng):
    resolved = 0
    for _ in range(50):
        cfg = random_config(rng)
        m = cfg.dynamics_matrix
        try:
            om, vec = cubic_modes(cfg)
        except DegenerateModeVector:
            continue
        assert vec.shape == (6, 6) and vec.flags.c_contiguous
        res = np.linalg.norm(m @ vec - 1j * vec * om, axis=0)
        assert np.all(res < 1e-9 * np.linalg.norm(vec, axis=0) * max(1.0, np.linalg.norm(m)))
        assert np.all(vec[np.argmax(np.abs(vec), axis=0), np.arange(6)] == 1.0)
        # the eig route's frequencies; a complex quadruplet shares |omega|,
        # so rounding may order it differently
        ref = eigenmodes(m).omegas
        assert np.all(np.min(np.abs(om[:, None] - ref), axis=1) < 1e-9 * (1.0 + np.abs(om)))
        resolved += 1
    assert resolved > 45


def test_planar_mode_vector_degenerate():
    # a static trap with a repeated eigenvalue: solve_cubic splits the
    # double root by rounding, and the route refuses it
    with pytest.raises(DegenerateModeVector):
        cubic_modes(make_config([1.0, 1.0, 2.0], [0.0, 0.0, 1.0], 0.0))


def test_cubic_modes_K_matches_eig_route_on_random_traps():
    # one rate inside each stable region of 200 seeded random traps
    rng = np.random.default_rng(2025)
    rates = 0
    for _ in range(200):
        base = random_config(rng, omega=0.0)
        for lab in region_map(base).labels():
            if lab.label.startswith("S"):
                cfg = base.with_omega(omega_inside(lab, rng.uniform(0.05, 0.95)))
                ref = stationary_K_from_modes(cfg).k
                k = stationary_K_from_modes(cfg, cubic_modes(cfg)).k
                assert np.max(np.abs(k - ref)) <= 1e-12 * np.max(np.abs(ref))
                rates += 1
            else:
                cfg = base.with_omega(omega_inside(lab, rng.uniform(0.05, 0.95)))
                with pytest.raises(InInstabilityRegion):
                    select_positive_signature_modes(cubic_modes(cfg))
    assert rates >= 600


@settings(max_examples=60)
@given(cfg=hard_configs())
def test_cubic_modes_K_on_hard_configs(cfg):
    lab = region_map(cfg).locate(cfg.omega)
    if lab.label.startswith("S") and not lab.boundary:
        assert_cubic_route_K(cfg)


@pytest.mark.parametrize("delta", CROSSING_DELTAS)
def test_cubic_modes_at_same_sign_crossings(delta):
    # near a crossing the roots cluster: the route refuses or agrees, and
    # never misreads a stable trap (SingularModeMatrix, NotSymmetric or
    # InInstabilityRegion would propagate from here)
    rng = np.random.default_rng(21)
    traps = [([1.0, 2.0, 3.0], 2)] + [
        (np.diag(random_potential(rng, rotated=False)), n)
        for _ in range(30)
        for n in range(3)
    ]
    outcomes = []
    for vals, n in traps:
        for om_c in same_sign_crossing_rates(vals, n):
            cfg = make_config(np.diag(vals), np.eye(3)[n], om_c * (1.0 + delta))
            outcomes.append(assert_cubic_route_K(cfg))
    assert len(outcomes) > 40
    if abs(delta) <= 1e-8:
        assert not any(outcomes)


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8])
def test_cubic_modes_refuse_fig2_crossing(delta):
    (om_c,) = same_sign_crossing_rates([1.0, 2.0, 3.0], 2)
    with pytest.raises(DegenerateModeVector):
        cubic_modes(fig2_config(om_c * (1.0 + delta)))
