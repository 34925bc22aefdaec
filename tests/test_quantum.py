"""Riccati evolution, stationary Gaussian states, and Wigner diagnostics."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rototrap import (
    ComplexKappa,
    GaussianState,
    InInstabilityRegion,
    ModeSet,
    ModeVector,
    NearSingular,
    NoValidRoot,
    NonFiniteState,
    NotNormalizable,
    NotSymmetric,
    NumericError,
    RiccatiTrajectory,
    SingularD,
    StepTooLarge,
    amplitude_energies,
    cinv3,
    eigenmodes,
    evaluate_invariant,
    evolve_riccati,
    invariant_forms,
    line_trap,
    linear_flow,
    make_config,
    normalization_constant,
    planar_stationary_K,
    planar_trap,
    region_map,
    riccati_rhs,
    rk4_integrate,
    select_positive_signature_modes,
    stationary_K_from_modes,
    wigner_decompose_into_invariants,
    wigner_form,
)

from conftest import (
    CROSSING_DELTAS,
    FIGURE_CONFIGS,
    FIGURE_IDS,
    V123,
    fig2_config,
    fig3_config,
    hard_configs,
    planar_wigner_weights,
    random_config,
    random_potential,
    same_sign_crossing_rates,
    sample_region_omegas,
)


SQRT_V = np.diag([1.0, np.sqrt(2.0), np.sqrt(3.0)])


# -- Riccati right side ------------------------------------------------------

def test_rhs_zero_for_static_ground_state():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    assert np.max(np.abs(riccati_rhs(SQRT_V, cfg))) < 1e-12


def test_rhs_of_diagonal_ansatz_is_commutator():
    # under rotation the static ground state fails exactly by -[W, K]
    cfg = fig2_config(0.7)
    w = cfg.omega_matrix
    expected = -(w @ SQRT_V - SQRT_V @ w)
    assert np.allclose(riccati_rhs(SQRT_V, cfg), expected, atol=1e-12)


def test_rhs_zero_for_planar_embedding():
    cfg = fig2_config(0.5)
    k = planar_stationary_K(1.0, 2.0, 3.0, 0.5).matrix3()
    assert np.max(np.abs(riccati_rhs(k, cfg))) < 1e-10


@pytest.mark.parametrize(
    "trap, k",
    [
        (fig2_config(0.5), np.eye(2, dtype=complex)),
        (planar_trap(1.0, 2.0, 0.5), np.eye(3, dtype=complex)),
    ],
    ids=["2x2_on_3d", "3x3_on_2d"],
)
def test_rhs_wrong_size_k_names_both_shapes(trap, k):
    d = trap.dim
    msg = re.escape(f"K has shape {k.shape}, the config needs {(d, d)}")
    with pytest.raises(ValueError, match=msg):
        riccati_rhs(k, trap)


def test_rhs_rejects_asymmetric_k():
    cfg = fig2_config(0.5)
    k = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(NotSymmetric):
        riccati_rhs(k, cfg)


# -- evolution ---------------------------------------------------------------

def test_isotropic_ground_state_is_stationary():
    cfg = make_config(np.eye(3), [0.0, 0.0, 1.0], 0.0)
    traj = evolve_riccati(np.eye(3, dtype=complex), cfg, 5.0, 1e-2)
    assert np.max(np.abs(traj.ks - np.eye(3))) < 1e-10


def test_breathing_mode_matches_scalar_solution():
    # 1D, V=1: k(t) = (k0 cos t + i sin t) / (cos t + i k0 sin t)
    trap = line_trap(1.0)
    k0 = 2.0
    traj = evolve_riccati(np.array([[k0 + 0j]]), trap, np.pi, 1e-3)
    t = traj.times
    exact = (k0 * np.cos(t) + 1j * np.sin(t)) / (np.cos(t) + 1j * k0 * np.sin(t))
    assert np.max(np.abs(traj.ks[:, 0, 0] - exact)) < 1e-8
    # breathing at twice the trap frequency: period pi
    assert abs(traj.final_k[0, 0] - k0) < 1e-8


def test_direct_and_linearized_agree(rng):
    for _ in range(3):
        cfg = random_config(rng, omega=0.3)
        k0 = stationary_K_from_modes(cfg).k + 0.1 * np.eye(3)
        a = evolve_riccati(k0, cfg, 20.0, 4e-3, method="direct")
        b = evolve_riccati(k0, cfg, 20.0, 4e-3, method="linearized")
        assert np.max(np.abs(a.ks - b.ks)) < 1e-7


def test_evolution_preserves_symmetry(rng):
    cfg = random_config(rng, omega=0.4)
    k0 = stationary_K_from_modes(cfg).k + 0.05j * np.eye(3)
    for method in ("direct", "linearized"):
        traj = evolve_riccati(k0, cfg, 10.0, 5e-3, method=method)
        asym = np.max(np.abs(traj.ks - np.transpose(traj.ks, (0, 2, 1))))
        assert asym < 1e-9


def test_stationary_state_stays_put():
    cfg = fig3_config(0.5)
    k0 = stationary_K_from_modes(cfg).k
    traj = evolve_riccati(k0, cfg, 20.0, 5e-3)
    assert np.max(np.abs(traj.ks - k0)) < 1e-6


def test_evolve_riccati_guards():
    cfg = fig2_config(0.5)
    with pytest.raises(StepTooLarge):
        evolve_riccati(np.eye(3, dtype=complex), cfg, 1.0, 1.0)
    with pytest.raises(ValueError):
        evolve_riccati(np.eye(3, dtype=complex), cfg, 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve_riccati(np.eye(3, dtype=complex), cfg, 1.0, 1e-2, method="magic")


def test_linearized_caustic_raises():
    # K0 = 0 is a classical (non-normalizable) start: D(t) = diag(cos t, cos 2t)
    # passes through zero and the reconstruction must refuse
    trap = planar_trap(1.0, 4.0, 0.0)
    with pytest.raises(SingularD):
        evolve_riccati(
            np.zeros((2, 2), dtype=complex),
            trap,
            np.pi / 2.0 * 1.01,
            (np.pi / 2.0) / 1000.0,
            method="linearized",
        )


def _symmetric_k0(rng, d):
    """An exactly symmetric complex K0 near the identity."""
    re = rng.uniform(-0.3, 0.3, (d, d))
    im = rng.uniform(-0.3, 0.3, (d, d))
    return np.eye(d) + 0.5 * (re + re.T) + 0.5j * (im + im.T)


def _cinv3_reconstruction(k0, trap, t_end, dt):
    """Per-step K = -i N cinv3(D) along the (D; N) flow: the batched route's reference."""
    d = k0.shape[0]
    flow = linear_flow(
        trap.dynamics_matrix, np.vstack([np.eye(d, dtype=complex), 1j * k0]), t_end, dt
    )
    ks = []
    for t, y in zip(flow.times, flow.states):
        try:
            ks.append(-1j * (y[d:] @ cinv3(y[:d])))
        except NearSingular:
            return flow.times, np.array(ks), t
    return flow.times, np.array(ks), None


@settings(max_examples=40)
@given(
    cfg=hard_configs(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 150),
    ragged=st.floats(0.05, 0.95),
)
def test_linearized_matches_per_step_cinv3(cfg, seed, steps, ragged):
    k0 = _symmetric_k0(np.random.default_rng(seed), 3)
    dt = 0.05 / np.linalg.norm(cfg.dynamics_matrix, 1)
    t_end = (steps + ragged) * dt
    times, ks_ref, t_bad = _cinv3_reconstruction(k0, cfg, t_end, dt)
    if t_bad is not None:
        with pytest.raises(SingularD, match=f"t = {t_bad:.6g}:"):
            evolve_riccati(k0, cfg, t_end, dt, method="linearized")
        return
    traj = evolve_riccati(k0, cfg, t_end, dt, method="linearized")
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.ks - ks_ref)) <= 1e-12 * np.max(np.abs(ks_ref))


def test_linearized_caustic_names_first_singular_step():
    # the batched guards must stop where the per-step cinv3 loop stops
    trap = planar_trap(1.0, 4.0, 0.0)
    k0 = np.zeros((2, 2), dtype=complex)
    t_end, dt = np.pi / 2.0 * 1.01, (np.pi / 2.0) / 1000.0
    _, ks_ref, t_bad = _cinv3_reconstruction(k0, trap, t_end, dt)
    assert t_bad is not None and len(ks_ref) > 0
    with pytest.raises(SingularD, match=f"t = {t_bad:.6g}:"):
        evolve_riccati(k0, trap, t_end, dt, method="linearized")


# -- the direct route against its oracle, rk4_integrate on riccati_rhs ------

def _rk4_on_riccati_rhs(k0, trap, t_end, dt):
    return rk4_integrate(lambda t, y: riccati_rhs(y, trap), k0, t_end, dt)


def _assert_direct_matches_oracle(k0, trap, steps, ragged):
    # steps full steps and a ragged last one of ragged * dt
    dt = 0.05 / np.linalg.norm(trap.dynamics_matrix, 1)
    t_end = (steps + ragged) * dt
    ref = _rk4_on_riccati_rhs(k0, trap, t_end, dt)
    traj = evolve_riccati(k0, trap, t_end, dt, method="direct")
    assert len(ref) == steps + 2
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.ks - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


@settings(max_examples=40)
@given(
    cfg=hard_configs(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 150),
    ragged=st.floats(0.05, 0.95),
)
def test_direct_matches_rk4_on_riccati_rhs(cfg, seed, steps, ragged):
    k0 = _symmetric_k0(np.random.default_rng(seed), 3)
    _assert_direct_matches_oracle(k0, cfg, steps, ragged)


@pytest.mark.parametrize(
    "trap", [line_trap(1.7), planar_trap(1.0, 2.5, 0.6)], ids=["1d", "2d"]
)
def test_direct_matches_rk4_on_riccati_rhs_below_3d(trap, rng):
    k0 = _symmetric_k0(rng, trap.dim)
    _assert_direct_matches_oracle(k0, trap, 237, 0.4)


def test_direct_pads_lower_dimensions_exactly():
    # an axis-aligned 3-D trap with a block-diagonal K0 is the planar and
    # the line trap side by side; the off-block entries stay exactly 0
    vx, vy, vz, omega = 1.0, 2.5, 1.7, 0.6
    cfg = make_config(np.diag([vx, vy, vz]), [0.0, 0.0, 1.0], omega)
    rng = np.random.default_rng(7)
    kxy, kz = _symmetric_k0(rng, 2), _symmetric_k0(rng, 1)
    k0 = np.zeros((3, 3), dtype=complex)
    k0[:2, :2], k0[2:, 2:] = kxy, kz
    t_end, dt = 3.3, 1e-2
    full = evolve_riccati(k0, cfg, t_end, dt, method="direct")
    xy = evolve_riccati(kxy, planar_trap(vx, vy, omega), t_end, dt, method="direct")
    z = evolve_riccati(kz, line_trap(vz), t_end, dt, method="direct")
    assert np.array_equal(full.times, xy.times) and np.array_equal(full.times, z.times)
    for block, part in ((full.ks[:, :2, :2], xy.ks), (full.ks[:, 2:, 2:], z.ks)):
        assert np.max(np.abs(block - part)) <= 1e-14 * np.max(np.abs(part))
    assert not full.ks[:, :2, 2].any() and not full.ks[:, 2, :2].any()


@pytest.mark.parametrize("method", ["direct", "linearized"])
@pytest.mark.parametrize(
    "trap, k0",
    [
        (fig2_config(0.5), np.eye(2, dtype=complex)),
        (planar_trap(1.0, 2.5, 0.6), np.eye(3, dtype=complex)),
    ],
    ids=["2x2_on_3d", "3x3_on_2d"],
)
def test_wrong_size_k0_names_both_shapes(trap, k0, method):
    d = trap.dim
    with pytest.raises(ValueError, match=rf"{k0.shape}.*\({d}, {d}\)"):
        evolve_riccati(k0, trap, 1.0, 1e-2, method=method)


@pytest.mark.parametrize("method", ["direct", "linearized"])
def test_evolve_rejects_asymmetric_k0(method):
    cfg = fig2_config(0.5)
    k0 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(NotSymmetric):
        evolve_riccati(k0, cfg, 1.0, 1e-2, method=method)


@pytest.mark.parametrize("method", ["direct", "linearized"])
def test_evolve_symmetrizes_k0_within_tolerance(method):
    # an asymmetry below GaussianState's 1e-9 relative bound is accepted
    # and removed before the run, on both routes alike
    cfg = fig2_config(0.5)
    k0 = np.eye(3, dtype=complex)
    k0[0, 1] = 1e-11
    traj = evolve_riccati(k0, cfg, 0.1, 1e-2, method=method)
    sym = evolve_riccati(GaussianState(k0), cfg, 0.1, 1e-2, method=method)
    assert np.array_equal(traj.ks[0], 0.5 * (k0 + k0.T))
    assert np.array_equal(traj.ks, sym.ks)


@pytest.mark.parametrize("scale", [1e160, 1e3], ids=["first_step", "third_step"])
def test_direct_overflow_reports_oracle_prefix(scale):
    # RK4 with h |K| >> 1 blows up: 1e160 overflows in the first stage,
    # 1e3 after two finite steps
    cfg = fig2_config(0.5)
    k0 = scale * np.eye(3, dtype=complex) + 0.1j * np.ones((3, 3))
    with pytest.raises(NonFiniteState) as ref_info, np.errstate(over="ignore", invalid="ignore"):
        _rk4_on_riccati_rhs(k0, cfg, 1.0, 1e-2)
    with pytest.raises(NonFiniteState) as info:
        evolve_riccati(k0, cfg, 1.0, 1e-2, method="direct")
    ref, traj = ref_info.value.trajectory, info.value.trajectory
    assert str(info.value) == str(ref_info.value)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states[0], k0)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


@settings(max_examples=20)
@given(cfg=hard_configs(), seed=st.integers(0, 2**32 - 1))
def test_direct_and_linearized_agree_on_hard_configs(cfg, seed):
    # from a small symmetric perturbation of the stationary state, which
    # keeps Re K positive definite, on draws where that state exists
    try:
        k_star = stationary_K_from_modes(cfg)
    except NumericError:
        assume(False)
    rng = np.random.default_rng(seed)
    re = rng.uniform(-0.05, 0.05, (3, 3)) * k_star.re_min_eig()
    im = rng.uniform(-0.05, 0.05, (3, 3))
    k0 = k_star.k + 0.5 * (re + re.T) + 0.5j * (im + im.T)
    dt = 0.02 / np.linalg.norm(cfg.dynamics_matrix, 1)
    a = evolve_riccati(k0, cfg, 5.0, dt, method="direct")
    b = evolve_riccati(k0, cfg, 5.0, dt, method="linearized")
    assert np.max(np.abs(a.ks - b.ks)) < 1e-7


def test_riccati_trajectory_csv_layout():
    cfg = fig2_config(0.5)
    traj = evolve_riccati(SQRT_V.astype(complex), cfg, 0.05, 1e-2)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == (
        "t,k11_re,k11_im,k12_re,k12_im,k13_re,k13_im,"
        "k22_re,k22_im,k23_re,k23_im,k33_re,k33_im"
    )
    assert len(lines) == len(traj) + 1
    assert len(lines[1].split(",")) == 13


# -- stationary states from modes --------------------------------------------

def test_stationary_static_trap():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    state = stationary_K_from_modes(cfg)
    assert np.allclose(state.k, SQRT_V, atol=1e-10)


def test_stationary_matches_planar_closed_form_s1():
    cfg = fig2_config(0.5)
    state = stationary_K_from_modes(cfg)
    assert np.max(np.abs(state.k - planar_stationary_K(1.0, 2.0, 3.0, 0.5).matrix3())) < 1e-10


def test_stationary_matches_planar_closed_form_s2():
    cfg = fig2_config(2.0)
    state = stationary_K_from_modes(cfg)
    assert np.max(np.abs(state.k - planar_stationary_K(1.0, 2.0, 3.0, 2.0).matrix3())) < 1e-10


@pytest.mark.parametrize("vx, vy", [(1.0, 2.0), (2.0, 0.5), (1.0, 1.1)])
def test_planar_closed_form_matches_modes_at_fast_rates(vx, vy):
    # S2 up to Omega = 1e3: |b| ~ 4 Omega^3 dwarfs a c in the gamma
    # quadratic, and W^2 ~ 1e6 sits next to V in alpha^2 and beta^2
    worst = 0.0
    for om in np.geomspace(2.0, 1e3, 400):
        closed = planar_stationary_K(vx, vy, 1.0, om).matrix3()
        modes = stationary_K_from_modes(make_config([vx, vy, 1.0], [0.0, 0.0, 1.0], om)).k
        worst = max(worst, float(np.max(np.abs(closed - modes))))
    assert worst <= 1e-10


def test_stationary_riccati_residual_in_all_stable_regions(rng):
    cfg = fig3_config(0.5)
    for region in ("S1", "S2", "S3"):
        for om in sample_region_omegas(cfg, region, 2, rng):
            c = cfg.with_omega(om)
            state = stationary_K_from_modes(c)
            res = np.max(np.abs(riccati_rhs(state.k, c)))
            assert res < 1e-9 * max(1.0, np.max(np.abs(state.k)))
            assert state.re_min_eig() > 0


def test_stationary_rejects_instability_region():
    with pytest.raises(InInstabilityRegion):
        stationary_K_from_modes(fig2_config(1.2))


def test_stationary_invariant_under_mode_rescaling(rng):
    cfg = fig3_config(0.5)
    base = stationary_K_from_modes(cfg)
    ms = eigenmodes(cfg.dynamics_matrix)
    scales = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    doctored = ModeSet(
        [
            ModeVector(mv.omega, mv.xbar * (s if abs(s) > 0.1 else 1.0), normalize=False)
            for mv, s in zip(ms.modes, scales)
        ]
    )
    other = stationary_K_from_modes(cfg, modes=doctored)
    assert np.max(np.abs(other.k - base.k)) < 1e-10


def test_same_sign_crossings_keep_the_planar_K_and_the_energy_split():
    # where two modes of equal Krein sign share a frequency M stays
    # semisimple: K does not depend on the basis eig picks inside the
    # cluster, and the energy still splits over an orthonormal basis of it
    rng = np.random.default_rng(21)
    x0 = np.array([1.0, 0.5, -0.3, 0.2, 1.1, -0.7])
    n_rates = 0
    for _ in range(30):
        vals = np.diag(random_potential(rng, rotated=False))
        for n in range(3):
            # the closed form rotates about z: relabel cyclically, keeping W
            idx = [(n + 1) % 3, (n + 2) % 3, n]
            for om_c in same_sign_crossing_rates(vals, n):
                n_rates += 1
                for delta in CROSSING_DELTAS:
                    cfg = make_config(np.diag(vals), np.eye(3)[n], om_c * (1.0 + delta))
                    ms = eigenmodes(cfg.dynamics_matrix)
                    k = stationary_K_from_modes(cfg, ms).k[np.ix_(idx, idx)]
                    closed = planar_stationary_K(*vals[idx], cfg.omega).matrix3()
                    assert np.max(np.abs(k - closed)) <= 1e-12 * np.max(np.abs(closed))
                    energies = amplitude_energies(ms, x0).energies
                    h = evaluate_invariant(invariant_forms(cfg)[0], x0)
                    assert abs(sum(energies) - h) <= 1e-12 * sum(abs(e) for e in energies)
    assert n_rates > 40


def test_stability_correspondence_across_regions():
    # quantum construction succeeds exactly on the classically stable set
    cfg = fig3_config(0.5)
    rmap = region_map(cfg)
    for om in np.linspace(0.05, 3.4, 28):
        lab = rmap.locate(om)
        if lab.boundary:
            continue
        if lab.label.startswith("S"):
            state = stationary_K_from_modes(cfg.with_omega(om))
            assert state.re_min_eig() > 0
        else:
            with pytest.raises(InInstabilityRegion):
                stationary_K_from_modes(cfg.with_omega(om))


def test_wrong_pair_selection_degenerates():
    # assembling from a mode and its own sign partner leaves Re K with a
    # zero eigenvalue, which is why that choice is rejected
    cfg = fig3_config(0.5)
    ms = eigenmodes(cfg.dynamics_matrix)
    sel = select_positive_signature_modes(ms)
    partner = ModeVector(-sel[0].omega, np.conj(sel[0].xbar), normalize=False)
    cols = [sel[0], partner, sel[1]]
    dmat = np.column_stack([mv.xbar[:3] for mv in cols])
    nmat = np.column_stack([mv.xbar[3:] for mv in cols])
    k = -1j * (nmat @ np.linalg.inv(dmat))
    eigs = np.linalg.eigvalsh(0.5 * np.real(k + k.T))
    assert np.min(np.abs(eigs)) < 1e-8
    assert np.max(np.abs(eigs)) > 0.1


# -- planar closed form ------------------------------------------------------

def test_planar_static_limit():
    psk = planar_stationary_K(1.0, 2.0, 3.0, 0.0)
    assert psk.alpha == pytest.approx(1.0, abs=1e-12)
    assert psk.beta == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert psk.gamma == 0.0
    assert psk.vz == 3.0


def test_planar_benchmark_s1():
    psk = planar_stationary_K(1.0, 2.0, 3.0, 0.5)
    assert psk.gamma == pytest.approx(-0.104356076261, abs=1e-9)
    assert psk.alpha == pytest.approx(0.952120850728, abs=1e-9)
    assert psk.beta == pytest.approx(1.454388623069, abs=1e-9)
    assert psk.kappa == pytest.approx(-0.654653670708, abs=1e-9)
    # unsquared constraint holds with both sides equal
    lhs = psk.alpha * (0.5 - psk.gamma)
    rhs = psk.beta * (0.5 + psk.gamma)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert lhs == pytest.approx(0.575420, abs=1e-5)


def test_planar_benchmark_s2():
    psk = planar_stationary_K(1.0, 2.0, 3.0, 2.0)
    assert psk.gamma == pytest.approx(0.202041029, abs=1e-8)
    assert psk.alpha == pytest.approx(1.359773765, abs=1e-8)
    assert psk.beta == pytest.approx(1.110250630, abs=1e-8)
    assert psk.kappa == pytest.approx(-np.sqrt(1.5), abs=1e-8)


def test_planar_matrix_embedding():
    psk = planar_stationary_K(1.0, 2.0, 3.0, 0.5)
    k2 = psk.matrix2()
    assert k2[0, 1] == k2[1, 0] == 1j * psk.gamma
    k3 = psk.matrix3()
    assert k3[2, 2] == pytest.approx(np.sqrt(3.0))
    assert np.max(np.abs(k3[2, :2])) == 0.0


def test_planar_inside_window_complex_kappa():
    with pytest.raises(ComplexKappa):
        planar_stationary_K(1.0, 2.0, 3.0, 1.2)


def test_planar_degenerate_no_valid_root():
    # symmetric trap exactly at its collapsed window edge
    with pytest.raises(NoValidRoot):
        planar_stationary_K(1.0, 1.0, 1.0, 1.0)


def test_planar_rejects_bad_inputs():
    with pytest.raises(ValueError):
        planar_stationary_K(-1.0, 2.0, 3.0, 0.5)
    with pytest.raises(ValueError):
        planar_stationary_K(1.0, 2.0, 3.0, -0.5)


# -- normalization and Wigner form -------------------------------------------

def test_normalization_examples():
    assert normalization_constant(np.eye(3, dtype=complex)) == pytest.approx(
        np.pi ** -0.75, abs=1e-12
    )
    expect = np.sqrt(np.sqrt(6.0) / np.pi ** 1.5)
    assert normalization_constant(SQRT_V.astype(complex)) == pytest.approx(
        expect, abs=1e-12
    )
    with pytest.raises(NotNormalizable):
        normalization_constant(np.diag([1.0, -1.0, 1.0]).astype(complex))


def test_wigner_form_isotropic():
    wf = wigner_form(np.eye(2, dtype=complex))
    assert np.allclose(wf.w, 2.0 * np.eye(4), atol=1e-12)
    assert wf.norm_const == pytest.approx(np.pi ** -2)


def test_wigner_form_diagonal():
    wf = wigner_form(np.diag([1.0, np.sqrt(2.0)]).astype(complex))
    assert np.allclose(wf.w[2:, 2:], 2.0 * np.diag([1.0, 1.0 / np.sqrt(2.0)]), atol=1e-12)
    assert np.allclose(wf.w[:2, :2], 2.0 * np.diag([1.0, np.sqrt(2.0)]), atol=1e-12)
    assert np.allclose(wf.w[:2, 2:], 0.0, atol=1e-12)


def test_wigner_det_counts_phase_space_cells(rng):
    for _ in range(10):
        cfg = random_config(rng, omega=0.3)
        k = stationary_K_from_modes(cfg).k
        wf = wigner_form(k)
        d = k.shape[0]
        assert np.linalg.det(wf.w) == pytest.approx(2.0 ** (2 * d), rel=1e-9)
        assert np.min(np.linalg.eigvalsh(wf.w)) > 0


def test_wigner_form_rejects_unnormalizable():
    with pytest.raises(NotNormalizable):
        wigner_form(np.diag([1.0, -0.3]).astype(complex))


# -- Wigner decomposition ----------------------------------------------------

def _decompose(trap, k):
    return wigner_decompose_into_invariants(wigner_form(k), invariant_forms(trap))


def test_wigner_decompose_planar_static():
    dec = _decompose(planar_trap(1.0, 2.0, 0.0), np.diag([1.0, np.sqrt(2.0)]).astype(complex))
    assert dec.residual < 1e-10
    assert dec.coefficients[0] == pytest.approx(4.0 - np.sqrt(2.0), abs=1e-9)
    assert dec.coefficients[1] == pytest.approx(np.sqrt(2.0) - 2.0, abs=1e-9)
    assert abs(dec.coefficients[0]) == pytest.approx(2.585786, abs=1e-6)
    assert abs(dec.coefficients[1]) == pytest.approx(0.585786, abs=1e-6)
    # the closed forms agree with the least-squares route, including signs
    assert dec.coefficients == pytest.approx(planar_wigner_weights(1.0, 2.0, 0.0), rel=1e-10)


def test_wigner_decompose_planar_rotating():
    # a planar trap has one window, between sqrt(min V) and sqrt(max V): S1
    # below it and S2 above (no axial mode, so no S3); rates cover both
    worst = 0.0
    for vx, vy in [(1.0, 2.0), (2.0, 0.5), (0.3, 2.7), (1.0, 1.1)]:
        lo, hi = np.sqrt(min(vx, vy)), np.sqrt(max(vx, vy))
        for om in (0.0, 0.4 * lo, 0.9 * lo, 1.1 * hi, 2.0 * hi, 3.0 * hi, 10.0 * hi, 30.0 * hi):
            k = planar_stationary_K(vx, vy, 1.0, om).matrix2()
            dec = _decompose(planar_trap(vx, vy, om), k)
            assert dec.residual < 1e-10
            oracle = planar_wigner_weights(vx, vy, om)
            worst = max(worst, float(np.max(np.abs(dec.coefficients - oracle) / np.abs(oracle))))
    assert worst <= 1e-10


def test_wigner_decompose_isotropic_planar_trap():
    # G1 = 1.5 G0 on the static isotropic trap, so only k0 + 1.5 k1 is fixed
    dec = _decompose(planar_trap(1.5, 1.5, 0.0), np.sqrt(1.5) * np.eye(2, dtype=complex))
    assert dec.residual < 1e-8
    k0, k1 = dec.coefficients
    assert k0 + 1.5 * k1 == pytest.approx(2.0 / np.sqrt(1.5), rel=1e-12)


def test_wigner_decompose_3d_span():
    cfg = fig3_config(0.5)
    dec = _decompose(cfg, stationary_K_from_modes(cfg).k)
    assert dec.residual < 1e-6
    assert len(dec.coefficients) == 3


def test_wigner_decompose_line_trap():
    # the static 1D ground state K = sqrt(v) has w = sqrt(2) G0
    dec = _decompose(line_trap(2.0), np.array([[np.sqrt(2.0)]], dtype=complex))
    assert len(dec.coefficients) == 1
    assert dec.coefficients[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert dec.residual <= 1e-12


@pytest.mark.parametrize("make", FIGURE_CONFIGS, ids=FIGURE_IDS)
def test_wigner_decompose_at_large_rates(make):
    # G_n grows as Omega^(2n): unscaled, lstsq's cutoff drops G1 and G2 and
    # the residual reads 0.51 to 1.0
    for om in (1e3, 1e4, 1e5, 1e6):
        cfg = make(om)
        dec = _decompose(cfg, stationary_K_from_modes(cfg).k)
        assert dec.residual <= 1e-8, om


# -- GaussianState container -------------------------------------------------

def test_gaussian_state_json_roundtrip():
    cfg = fig2_config(0.5)
    state = stationary_K_from_modes(cfg)
    obj = state.to_json_obj()
    back = GaussianState.from_json_obj(obj)
    assert np.allclose(back.k, state.k, atol=1e-15)
    assert back.dim == 3


def test_gaussian_state_requires_symmetry():
    with pytest.raises(NotSymmetric):
        GaussianState(np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex))
