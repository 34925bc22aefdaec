"""Quadratic constants of motion: construction, residuals, drift, energy split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rototrap import (
    InInstabilityRegion,
    LinearTrap,
    ModeSet,
    NumericError,
    WrongDimension,
    amplitude_energies,
    build_invariant,
    completed_third_invariant,
    eigenmodes,
    evaluate_invariant,
    forced_evolve,
    invariance_nullspace,
    invariance_residuals,
    invariant_forms,
    krein_sign,
    line_trap,
    linear_flow,
    make_config,
    planar_trap,
    region_map,
    solve_cubic,
    char_poly_coeffs,
    trajectory_drift,
    verify_config,
)
from rototrap.invariants import _blocks, _triple_form, _vec_triple
from rototrap.numerics import Trajectory, rk4_integrate

from conftest import (
    FIGURE_CONFIGS,
    FIGURE_IDS,
    V123,
    displayed_c3,
    fig1_config,
    fig2_config,
    fig3_config,
    hard_configs,
    random_config,
    tilted_axis,
)


# -- construction ------------------------------------------------------------

def test_c1_matrices():
    cfg = fig1_config(1.0)
    g = build_invariant("C1", cfg)
    assert g.shape == (6, 6)
    assert np.array_equal(g, g.T)
    t, u, w = _blocks(g)
    assert np.allclose(t, np.eye(3))
    assert np.allclose(w, cfg.omega_matrix)
    assert np.allclose(u, cfg.v)


def test_c2_3d_static_limit():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    t, u, w = _blocks(build_invariant("C2_3D", cfg))
    assert np.allclose(t, V123)
    assert np.allclose(w, 0.0)
    assert np.allclose(u, V123 @ V123)


def test_c2_3d_t_matrix_tilted():
    cfg = fig1_config(1.0)
    w = cfg.omega_matrix
    t, _, _ = _blocks(build_invariant("C2_3D", cfg))
    assert np.allclose(t, cfg.v - 3.0 * w @ w, atol=1e-12)


def test_c2_2d_planar_embedding_and_rejection():
    # allowed for rotation about a decoupled principal axis, not otherwise
    build_invariant("C2_2D", fig2_config(0.5))
    with pytest.raises(WrongDimension):
        build_invariant("C2_2D", fig1_config(1.0))


def test_build_invariant_unknown_label():
    with pytest.raises(ValueError):
        build_invariant("C9", fig1_config(1.0))


@pytest.mark.parametrize("bad", ["T", "U"])
def test_triple_form_rejects_asymmetric(bad):
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    t, u = (skew, np.eye(2)) if bad == "T" else (np.eye(2), skew)
    with pytest.raises(ValueError, match=f"{bad} matrix asymmetry"):
        _triple_form(t, u, np.zeros((2, 2)))


def test_triple_form_layout():
    # G = [[U, W], [W^T, T]], so C(X) = X.G X / 2 = p.T p / 2 + r.W p + r.U r / 2
    t, u, w = np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.array([[0.0, 5.0], [6.0, 0.0]])
    g = _triple_form(t, u, w)
    assert np.array_equal(g, [[3, 0, 0, 5], [0, 4, 6, 0], [0, 6, 1, 0], [5, 0, 0, 2]])
    for a, b in zip(_blocks(g), (t, u, w)):
        assert np.array_equal(a, b)


# -- defining-equation residuals ---------------------------------------------

def test_c1_residuals_vanish(rng):
    for _ in range(100):
        cfg = random_config(rng)
        res = invariance_residuals(build_invariant("C1", cfg), cfg)
        assert res.worst < 1e-12 * max(1.0, np.max(np.abs(cfg.v)) ** 2)


def test_c2_3d_residuals_vanish(rng):
    for _ in range(100):
        cfg = random_config(rng)
        res = invariance_residuals(build_invariant("C2_3D", cfg), cfg)
        scale = max(1.0, float(np.max(np.abs(cfg.v))) + cfg.omega ** 2) ** 2
        assert res.worst < 1e-10 * scale


def test_c2_2d_residuals_vanish(rng):
    for _ in range(50):
        vx, vy = rng.uniform(0.2, 4.0, size=2)
        om = rng.uniform(0.0, 3.0)
        trap = planar_trap(vx, vy, om)
        res = invariance_residuals(build_invariant("C2_2D", trap), trap)
        scale = max(1.0, vx, vy, om * om) ** 2
        assert res.worst < 1e-10 * scale


def test_random_matrices_are_not_invariant(rng):
    cfg = fig1_config(1.0)
    t = rng.standard_normal((3, 3))
    u = rng.standard_normal((3, 3))
    g = _triple_form(t + t.T, u + u.T, rng.standard_normal((3, 3)))
    assert invariance_residuals(g, cfg).worst > 0.1


def _span_gap(forms, other):
    """Relative part of other's (T, U, W) vector outside span(forms)."""
    a = np.column_stack([_vec_triple(*_blocks(g)) for g in forms])
    vec = _vec_triple(*_blocks(other))
    coef, *_ = np.linalg.lstsq(a, vec, rcond=None)
    return np.linalg.norm(vec - a @ coef) / np.linalg.norm(vec)


def test_printed_third_form_fails_its_equations():
    # the long displayed combination does not solve the defining equations,
    # and most of it lies outside span{G0, G1, G2}: it is no typo to repair
    for cfg in (fig1_config(1.0), fig3_config(0.5)):
        g = displayed_c3(cfg)
        res = invariance_residuals(g, cfg)
        assert res.worst > 1.0
        assert _span_gap(invariant_forms(cfg), g) >= 0.5


# -- the closed-form invariants H (-M^2)^n -----------------------------------

def _vscale(cfg):
    w = cfg.omega_matrix
    return max(1.0, float(np.max(np.abs(cfg.v))), float(np.max(np.abs(w))) ** 2)


def _check_forms(cfg):
    """Properties every trap's forms share; returns (forms, vscale)."""
    forms = invariant_forms(cfg)
    m = cfg.dynamics_matrix
    d = m.shape[0] // 2
    vscale = _vscale(cfg)
    j = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    assert len(forms) == d
    for n, g in enumerate(forms):
        raw = -j @ m @ np.linalg.matrix_power(-(m @ m), n)
        tol = 1e-12 * vscale ** (n + 1)
        assert np.max(np.abs(raw - raw.T)) <= tol
        assert g.shape == (2 * d, 2 * d)
        assert np.array_equal(g, g.T)
        assert np.max(np.abs(g - raw)) <= tol
        assert invariance_residuals(g, cfg).worst <= tol
    assert np.array_equal(build_invariant("C1", cfg), forms[0])
    return forms, vscale


@settings(max_examples=40)
@given(cfg=hard_configs())
def test_forms_on_hard_configs(cfg):
    forms, vscale = _check_forms(cfg)
    c2 = build_invariant("C2_3D", cfg)
    assert np.max(np.abs(c2 - forms[1])) <= 1e-12 * vscale ** 2
    # the blind completion refuses a null space it cannot resolve; whatever
    # it returns lies in the span
    try:
        g = completed_third_invariant(cfg)
    except NumericError:
        return
    assert _span_gap(forms, g) <= 1e-10


def test_forms_on_planar_traps(rng):
    # C2_2D = G1 - 3 Omega^2 G0
    for _ in range(20):
        vx, vy = rng.uniform(0.2, 4.0, size=2)
        om = float(rng.uniform(0.0, 3.0))
        trap = planar_trap(vx, vy, om)
        forms, vscale = _check_forms(trap)
        assert len(forms) == 2
        c22 = build_invariant("C2_2D", trap)
        g0, g1 = forms
        assert np.max(np.abs(c22 - (g1 - 3.0 * om * om * g0))) <= 1e-12 * vscale ** 2


def test_forms_on_line_trap():
    (g0,), _ = _check_forms(line_trap(2.0))
    assert np.array_equal(g0, np.diag([2.0, 1.0]))


def test_forms_on_a_general_linear_trap(rng):
    a = rng.standard_normal((2, 2))
    trap = LinearTrap(a @ a.T + np.eye(2), np.array([[0.0, -0.7], [0.7, 0.0]]), 0.7)
    forms, _ = _check_forms(trap)
    assert len(forms) == 2


# -- evaluation --------------------------------------------------------------

def test_evaluate_c1_examples():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 2.0)
    g = build_invariant("C1", cfg)
    assert evaluate_invariant(g, [1, 0, 0, 0, 0, 0]) == pytest.approx(0.5)
    assert evaluate_invariant(g, [0, 0, 0, 1, 0, 0]) == pytest.approx(0.5)


def test_evaluate_c1_is_hamiltonian(rng):
    cfg = random_config(rng)
    g = build_invariant("C1", cfg)
    for _ in range(10):
        x = rng.standard_normal(6)
        r, p = x[:3], x[3:]
        h = 0.5 * p @ p + r @ (cfg.omega_matrix @ p) + 0.5 * r @ (cfg.v @ r)
        assert evaluate_invariant(g, x) == pytest.approx(h, abs=1e-12)


def test_evaluate_matches_quadratic_form(rng):
    cfg = fig1_config(1.0)
    # the block formula against X.G X / 2
    for label in ("C1", "C2_3D"):
        g = build_invariant(label, cfg)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert evaluate_invariant(g, x) == pytest.approx(
                0.5 * x @ (g @ x), abs=1e-10
            )


def test_invariant_constant_along_exact_mode(rng):
    # real mode solutions X(t) = Re(Xbar e^{i w t}) keep every invariant fixed
    cfg = fig3_config(0.5)
    om, vec = eigenmodes(cfg.dynamics_matrix)
    inv1 = build_invariant("C1", cfg)
    inv2 = build_invariant("C2_3D", cfg)
    vals1 = []
    vals2 = []
    for t in np.linspace(0.0, 7.0, 40):
        x = np.real(vec[:, 0] * np.exp(1j * om[0] * t))
        vals1.append(evaluate_invariant(inv1, x))
        vals2.append(evaluate_invariant(inv2, x))
    assert np.ptp(vals1) < 1e-9 * (1.0 + np.max(np.abs(vals1)))
    assert np.ptp(vals2) < 1e-9 * (1.0 + np.max(np.abs(vals2)))


# -- drift along integrated trajectories -------------------------------------

def test_drift_small_on_stable_trajectory():
    cfg = fig3_config(0.5)
    chi = max(abs(r.real) for r in solve_cubic(char_poly_coeffs(cfg)))
    t_fast = 2.0 * np.pi / np.sqrt(chi)
    x0 = np.array([1.0, 0.5, -0.3, 0.2, 1.1, -0.7])
    m = cfg.dynamics_matrix
    traj = rk4_integrate(lambda t, y: m @ y, x0, 20.0 * t_fast, t_fast / 400.0)
    assert trajectory_drift(build_invariant("C1", cfg), traj) < 1e-8
    assert trajectory_drift(build_invariant("C2_3D", cfg), traj) < 1e-7


@settings(max_examples=40)
@given(
    cfg=hard_configs(),
    label=st.sampled_from(["C1", "C2_3D", "G1", "G2"]),
    seed=st.integers(0, 2**32 - 1),
    flowed=st.booleans(),
)
def test_drift_matches_evaluate_invariant_loop(cfg, label, seed, flowed):
    # the vectorised drift against the per-point evaluate_invariant route,
    # on a flowed trajectory or on arbitrary states; the tolerance scales
    # with the absolute-value form, the size of the rounding in C
    rng = np.random.default_rng(seed)
    if label.startswith("G"):
        g = invariant_forms(cfg)[int(label[1])]
    else:
        g = build_invariant(label, cfg)
    if flowed:
        m = cfg.dynamics_matrix
        traj = linear_flow(m, rng.standard_normal(6), 10.0, 0.05 / np.linalg.norm(m, 1))
    else:
        traj = Trajectory(np.arange(50.0), 10.0 * rng.standard_normal((50, 6)))
    vals = np.array([evaluate_invariant(g, x) for x in traj.states])
    ref = np.max(np.abs(vals - vals[0])) / (1.0 + abs(vals[0]))
    x = np.abs(traj.states)
    scale = np.max(np.einsum("ti,ij,tj->t", x, np.abs(g), x)) / (1.0 + abs(vals[0]))
    assert abs(trajectory_drift(g, traj) - ref) <= 1e-13 * scale


def test_drift_zero_on_zero_trajectory():
    cfg = fig2_config(0.5)
    traj = forced_evolve(cfg, [0.0, 0.0, 0.0], 2.0)
    assert trajectory_drift(build_invariant("C1", cfg), traj) == 0.0


# -- amplitude energies ------------------------------------------------------

def test_amplitude_energies_single_axis():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    ms = eigenmodes(cfg.dynamics_matrix)
    dec = amplitude_energies(ms, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    nonzero = [e for e in dec.energies if abs(e) > 1e-12]
    assert len(nonzero) == 1
    assert nonzero[0] > 0
    assert nonzero[0] == pytest.approx(0.5, abs=1e-10)


def test_amplitude_energies_sum_in_s1(rng):
    cfg = fig3_config(0.5)
    ms = eigenmodes(cfg.dynamics_matrix)
    g = build_invariant("C1", cfg)
    for _ in range(10):
        x = rng.standard_normal(6)
        dec = amplitude_energies(ms, x)
        assert all(e >= -1e-12 for e in dec.energies)
        assert sum(dec.energies) == pytest.approx(
            evaluate_invariant(g, x), abs=1e-8 * (1.0 + abs(sum(dec.energies)))
        )


def test_amplitude_energies_negative_term_in_s2(rng):
    cfg = fig2_config(2.0)
    ms = eigenmodes(cfg.dynamics_matrix)
    g = build_invariant("C1", cfg)
    x = rng.standard_normal(6)
    dec = amplitude_energies(ms, x)
    assert dec.omegas[0] < 0
    assert dec.energies[0] < 0
    assert sum(dec.energies) == pytest.approx(
        evaluate_invariant(g, x), abs=1e-8 * (1.0 + abs(sum(dec.energies)))
    )


def test_amplitude_energies_unstable_raises():
    cfg = fig2_config(1.2)
    ms = eigenmodes(cfg.dynamics_matrix)
    with pytest.raises(InInstabilityRegion):
        amplitude_energies(ms, np.ones(6))


def test_amplitude_energies_refuse_an_indefinite_krein_gram():
    # u +- w/2, with u of Krein sign +1 and w of -1, each have sign 3/4 but
    # their Gram matrix [[3/4, 5/4], [5/4, 3/4]] is indefinite: no
    # J-orthonormal basis exists, as no stable trap's modes would allow
    om, vec = eigenmodes(fig1_config(1.0).dynamics_matrix)
    signs = krein_sign(vec)
    pos, neg = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
    u = vec[:, pos[0]] / np.sqrt(signs[pos[0]])
    w = vec[:, neg[-1]] / np.sqrt(-signs[neg[-1]])
    cols = np.column_stack([u + w / 2, u - w / 2, vec[:, pos[2:]], vec[:, neg]])
    oms = np.concatenate([[om[pos[0]]] * 2, om[pos[2:]], om[neg]])
    with pytest.raises(InInstabilityRegion):
        amplitude_energies(ModeSet(oms, cols), np.ones(6))


def _energy_check(cfg):
    return next(c for c in verify_config(cfg).checks if c.name == "amplitude_energy_sum")


def _fig1_past_window(rel):
    # rel > 0 is above the oscillatory window, rel < 0 below it
    cfg = fig1_config(1.0)
    lo, hi = region_map(cfg).oscillatory
    return cfg.with_omega((hi if rel > 0 else lo) * (1.0 + rel))


@pytest.mark.parametrize("rel", [1e-6, 1e-7, 1e-8, -1e-8])
def test_verify_energy_sum_just_past_oscillatory_window(rel):
    # two colliding modes carry large energies of opposite sign; their sums
    # cancel down to C_n, so roundoff scales with the terms, not with C_n
    cfg = _fig1_past_window(rel)
    dec = amplitude_energies(eigenmodes(cfg.dynamics_matrix), [1.0, 0.5, -0.3, 0.2, 1.1, -0.7])
    assert sum(abs(e) for e in dec.energies) > 500.0
    check = _energy_check(cfg)
    assert check.ok, check.detail


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("damage", ["drop", "flip"])
def test_verify_energy_sum_catches_a_wrong_split(monkeypatch, damage, k):
    real = amplitude_energies

    def broken(modes, x):
        dec = real(modes, x)
        e = list(dec.energies)
        if damage == "drop":
            del e[k]
        else:
            e[k] = -e[k]  # omega_k with the wrong sign
        return dec._replace(energies=tuple(e))

    monkeypatch.setattr("rototrap.verify.amplitude_energies", broken)
    assert not _energy_check(_fig1_past_window(1e-6)).ok


def test_verify_energy_sum_catches_energies_on_the_wrong_modes(monkeypatch):
    # a rotation of the E_k keeps sum E_k = H, so only C_n with n >= 1,
    # which weight E_k by omega_k^(2n), can see it
    real = amplitude_energies

    def rotated(modes, x):
        dec = real(modes, x)
        return dec._replace(energies=dec.energies[1:] + dec.energies[:1])

    monkeypatch.setattr("rototrap.verify.amplitude_energies", rotated)
    check = _energy_check(fig3_config(0.5))
    assert not check.ok, check.detail


# -- blind null-space solution -----------------------------------------------

def test_nullspace_dimension_three(rng):
    for cfg in (fig1_config(1.0), fig3_config(0.5), random_config(rng)):
        null_dim, basis, sv = invariance_nullspace(cfg)
        assert null_dim == 3
        assert basis.shape == (3, 27)
        # clean rank gap between the null block and the rest
        assert sv[-3] < 1e-10 * sv[0]
        assert sv[-4] > 1e-6 * sv[0]


def test_completed_third_invariant_properties():
    cfg = fig1_config(1.0)
    g = completed_third_invariant(cfg)
    assert np.array_equal(g, g.T)
    assert np.linalg.norm(_vec_triple(*_blocks(g))) == pytest.approx(1.0, rel=1e-12)
    res = invariance_residuals(g, cfg)
    assert res.worst < 1e-10
    # genuinely new: not representable in span{C1, C2_3D}
    known = [build_invariant(label, cfg) for label in ("C1", "C2_3D")]
    assert _span_gap(known, g) > 0.5


def test_completed_third_invariant_deterministic():
    cfg = fig3_config(0.5)
    a = completed_third_invariant(cfg)
    b = completed_third_invariant(cfg)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("make", FIGURE_CONFIGS, ids=FIGURE_IDS)
def test_completed_third_invariant_lies_in_the_span(make):
    cfg = make()
    assert _span_gap(invariant_forms(cfg), completed_third_invariant(cfg)) <= 1e-10


def test_completed_third_invariant_on_random_traps(rng):
    for _ in range(30):
        cfg = random_config(rng)
        assert _span_gap(invariant_forms(cfg), completed_third_invariant(cfg)) <= 1e-10


# near-degenerate traps whose fourth-smallest singular value sits just above
# the null cut: completed anyway, the form would lie far outside the span
_UNRESOLVED = {
    # axis-degenerate V tilted 3e-5 from z, in the collapsed exponential
    # window: sv[-4] / sv[0] = 2.7e-10, a form 1.3e-4 outside the span
    "axis_degenerate": ([3.0, 3.0, 0.5], 3e-5, 1.732050805620),
    # nearly axis-degenerate V in I1: sv[-4] / sv[0] = 1.3e-4, a form
    # 1.8e-10 outside the span
    "nearly_degenerate": (
        [2.393249813151944, 2.397210109487138, 0.43356102458477574],
        3.113603735724759e-05,
        1.5475029805043639,
    ),
}


@pytest.mark.parametrize("case", sorted(_UNRESOLVED))
def test_completed_third_invariant_refuses_an_unresolved_null_space(case):
    vals, tilt, omega = _UNRESOLVED[case]
    cfg = make_config(np.diag(vals), tilted_axis(tilt), omega)
    null_dim, _, sv = invariance_nullspace(cfg)
    assert null_dim == 3 and sv[-4] < 2e-4 * sv[0]
    with pytest.raises(NumericError, match="fourth near-null direction"):
        completed_third_invariant(cfg)
