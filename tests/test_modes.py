"""Eigenmode extraction, Krein-sign selection, and the planar closed forms."""

import numpy as np
import pytest

from rototrap import (
    DefectiveMatrix,
    DegenerateModeVector,
    InInstabilityRegion,
    char_poly_coeffs,
    eigenmodes,
    krein_sign,
    make_config,
    planar_frequencies,
    planar_mode_vector,
    planar_trap,
    select_positive_signature_modes,
    solve_cubic,
    symplectic_form,
)

from conftest import V123, fig1_config, fig2_config, random_config, same_sign_crossing_rates


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


# -- planar closed forms -----------------------------------------------------

def test_planar_frequencies_static_limit():
    pf = planar_frequencies(1.0, 2.0, 0.0)
    assert pf.omega_plus_sq == pytest.approx(2.0, abs=1e-12)
    assert pf.omega_minus_sq == pytest.approx(1.0, abs=1e-12)


def test_planar_frequencies_benchmark():
    pf = planar_frequencies(1.0, 2.0, 0.5)
    s = np.sqrt(7.0)
    assert pf.omega_plus_sq == pytest.approx((3.5 + s) / 2.0, abs=1e-12)
    assert pf.omega_minus_sq == pytest.approx((3.5 - s) / 2.0, abs=1e-12)
    assert pf.omega_plus_sq == pytest.approx(3.072876, abs=1e-6)
    assert pf.omega_minus_sq == pytest.approx(0.427124, abs=1e-6)


def test_planar_frequencies_match_planar_eigenmodes(rng):
    for _ in range(500):
        vx, vy = rng.uniform(0.1, 5.0, size=2)
        om = rng.uniform(0.0, 3.0)
        pf = planar_frequencies(vx, vy, om)
        try:
            ms = eigenmodes(planar_trap(vx, vy, om).dynamics_matrix)
        except DefectiveMatrix:
            continue
        sq = sorted(np.real(ms.omegas ** 2))
        scale = 1.0 + abs(pf.omega_plus_sq)
        assert abs(sq[0] - pf.omega_minus_sq) < 1e-9 * scale
        assert abs(sq[-1] - pf.omega_plus_sq) < 1e-9 * scale


def test_planar_frequencies_reject_bad_potential():
    with pytest.raises(ValueError):
        planar_frequencies(-1.0, 2.0, 0.5)


def test_planar_mode_vector_benchmark():
    w = np.sqrt(planar_frequencies(1.0, 2.0, 0.5).omega_minus_sq)
    xbar = planar_mode_vector(w, 1.0, 0.5)
    assert xbar[np.argmax(np.abs(xbar))] == 1.0
    raw = np.array([0.653546j, 0.322876, -0.588562, 0.537784j])
    # parallel up to the deterministic normalization
    ratio = xbar / raw
    assert np.allclose(ratio, ratio[0], atol=1e-5)
    # first equation of motion: i w x = Omega y + p_x
    x, y, px, _ = raw
    assert 1j * w * x == pytest.approx(0.5 * y + px, abs=1e-5)
    assert (0.5 * y + px).real == pytest.approx(-0.427124, abs=1e-5)


def test_planar_mode_vector_parity():
    w = np.sqrt(planar_frequencies(1.0, 2.0, 0.5).omega_minus_sq)
    plus = planar_mode_vector(w, 1.0, 0.5)
    minus = planar_mode_vector(-w, 1.0, 0.5)
    # x and p_y flip sign under w -> -w, y and p_x do not; compare the
    # normalization-free component ratios
    flipped = plus * np.array([-1.0, 1.0, 1.0, -1.0])
    ratio = minus / flipped
    assert np.allclose(ratio, ratio[0], atol=1e-10)


def test_planar_mode_vector_satisfies_eigenproblem(rng):
    for _ in range(50):
        vx, vy = rng.uniform(0.1, 5.0, size=2)
        om = rng.uniform(0.05, 3.0)
        m4 = planar_trap(vx, vy, om).dynamics_matrix
        pf = planar_frequencies(vx, vy, om)
        for sq in pf:
            w = np.sqrt(complex(sq))
            xbar = planar_mode_vector(w, vx, om)
            res = np.linalg.norm(m4 @ xbar - 1j * w * xbar)
            assert res < 1e-9 * np.linalg.norm(xbar) * max(1.0, np.linalg.norm(m4))


def test_planar_mode_vector_degenerate():
    with pytest.raises(DegenerateModeVector):
        planar_mode_vector(1.0, 1.0, 0.0)
