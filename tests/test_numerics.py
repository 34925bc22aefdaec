import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rototrap import (
    ConvergenceFailure,
    NearSingular,
    NonFiniteState,
    NotSymmetric,
    OmegaRange,
    RiccatiTrajectory,
    Trajectory,
    cinv3,
    eig_general,
    evolve_riccati,
    fmt17,
    forced_evolve,
    linear_flow,
    planar_stationary_K,
    posdef_min_eig,
    region_of,
    rk4_integrate,
    solve_cubic,
    char_poly_coeffs,
    trajectory_to_csv,
)

from rototrap import numerics
from rototrap.numerics import cinv3_stack

from conftest import fig1_config, fig2_config, hard_configs


def test_fmt17_roundtrips():
    for x in [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.0]:
        assert float(fmt17(x)) == x


def test_csv_writers_match_per_value_fmt17(rng):
    # the per-value fmt17 loops the writers replaced are the reference; 9000
    # rows span three blocks of the row formatter
    n = 9000
    times = np.cumsum(rng.uniform(1e-3, 1e-2, n))
    states = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-300, 300, (n, 6))
    states[0] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    ref = "t,x,y,z,px,py,pz\n" + "".join(
        ",".join(fmt17(v) for v in (t, *x)) + "\n" for t, x in zip(times, states)
    )
    assert trajectory_to_csv(Trajectory(times, states)) == ref

    for d in (1, 3):
        parts = rng.standard_normal((2, n, d, d)) * 10.0 ** rng.integers(-300, 300, (2, n, d, d))
        ks = parts[0] + 1j * parts[1]
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        ref = ",".join(["t"] + [f"k{i + 1}{j + 1}_{p}" for i, j in pairs for p in ("re", "im")])
        ref += "\n" + "".join(
            ",".join([fmt17(t)] + [fmt17(f(k[i, j])) for i, j in pairs for f in (np.real, np.imag)])
            + "\n"
            for t, k in zip(times, ks)
        )
        assert RiccatiTrajectory(times, ks, "direct").to_csv() == ref


def test_omega_range_invariants():
    r = OmegaRange(0.0, 2.0, 5)
    vals = r.values()
    assert np.allclose(vals, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        OmegaRange(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        OmegaRange(0.0, 1.0, 1)
    for start, stop in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite endpoints"):
            OmegaRange(start, stop, 5)


def test_trajectory_invariants():
    t = Trajectory([0.0, 0.1, 0.2], np.zeros((3, 6)))
    assert t.final_state.shape == (6,)
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0, 0.1], np.zeros((3, 6)))
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.1], np.zeros((3, 6)))


def test_rk4_exponential_decay():
    traj = rk4_integrate(lambda t, y: -y, np.array([1.0]), 1.0, 1e-3)
    assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-9
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_rk4_zero_field_is_constant():
    y0 = np.array([1.0, -2.0, 3.0])
    traj = rk4_integrate(lambda t, y: np.zeros_like(y), y0, 5.0, 0.1)
    assert np.all(traj.states == y0)


def test_rk4_final_time_with_ragged_step():
    traj = rk4_integrate(lambda t, y: -y, np.array([1.0]), 1.05, 0.1)
    # last step is shortened, never overshoots
    assert abs(traj.times[-1] - 1.05) < 1e-12
    assert np.all(np.diff(traj.times) > 0)


def test_rk4_order_four_scaling():
    # halving dt reduces endpoint error at least 12x on a linear benchmark
    m = fig1_config(0.9).dynamics_matrix
    y0 = np.array([1.0, 0.0, 0.5, 0.0, -0.3, 0.2])
    t_end = 4.0
    lam, vec = np.linalg.eig(m)
    exact = (vec @ np.diag(np.exp(lam * t_end)) @ np.linalg.inv(vec) @ y0).real

    def endpoint_error(dt):
        traj = rk4_integrate(lambda t, y: m @ y, y0, t_end, dt)
        return np.linalg.norm(traj.final_state - exact)

    e1 = endpoint_error(0.02)
    e2 = endpoint_error(0.01)
    assert e1 / e2 >= 12.0


def test_rk4_nonfinite_carries_partial_trajectory():
    with pytest.raises(NonFiniteState) as exc_info, np.errstate(over="ignore", invalid="ignore"):
        rk4_integrate(lambda t, y: y * y, np.array([1.0]), 10.0, 0.05)
    traj = exc_info.value.trajectory
    assert traj is not None and len(traj.times) >= 1
    assert np.all(np.isfinite(traj.states))


# -- linear_flow against the generic stepper ---------------------------------

def _harmonic_drive(rng, n):
    """(w, F) of the drive f(t) = c + a cos(w t) + b sin(w t), F = [c, a, b] random."""
    return float(rng.uniform(0.1, 3.0)), rng.standard_normal((3, n))


def _rk4_rhs(m, drive):
    def rhs(t, y):
        out = m @ y
        if drive is None:
            return out
        w, f = drive
        return out + f[0] + f[1] * np.cos(w * t) + f[2] * np.sin(w * t)

    return rhs


@settings(max_examples=40)
@given(
    cfg=hard_configs(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["block", "vector", "forced"]),
    steps=st.integers(1, 120),
    ragged=st.floats(0.05, 0.95),
    courant=st.floats(0.01, 0.1),
)
def test_linear_flow_matches_rk4(cfg, seed, kind, steps, ragged, courant):
    # homogeneous (6,) real or (6,3) complex, or a forced (6,) real vector,
    # stable or unstable, always with a ragged last step: same times bit for
    # bit, states equal up to the rounding of the one-step map
    rng = np.random.default_rng(seed)
    m = cfg.dynamics_matrix
    dt = courant / np.linalg.norm(m, 1)
    t_end = (steps + ragged) * dt
    if kind == "block":
        y0 = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    else:
        y0 = rng.standard_normal(6)
    drive = _harmonic_drive(rng, 6) if kind == "forced" else None
    ref = rk4_integrate(_rk4_rhs(m, drive), y0, t_end, dt)
    traj = linear_flow(m, y0, t_end, dt, drive=drive)
    assert len(ref) == steps + 2
    assert np.array_equal(traj.times, ref.times)
    assert traj.states.shape == ref.states.shape
    assert traj.states.dtype == ref.states.dtype
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


_B = numerics._BLOCK


@pytest.mark.parametrize("steps", [_B - 1, _B, _B + 1, 1000])
@pytest.mark.parametrize("omega, region", [(0.5, "S1"), (1.2, "I1")], ids=["stable", "unstable"])
@pytest.mark.parametrize("forced", [True, False], ids=["forced_vector", "homogeneous_block"])
def test_linear_flow_across_block_edges_matches_rk4(steps, omega, region, forced):
    # step counts on both sides of the first block edge and past many edges,
    # each with a ragged last step
    cfg = fig2_config(omega)
    assert region_of(cfg, omega).label == region
    m = cfg.dynamics_matrix
    rng = np.random.default_rng(steps)
    dt = 0.05 / np.linalg.norm(m, 1)
    t_end = (steps + 0.4) * dt
    if forced:
        y0 = rng.standard_normal(6)
        drive = _harmonic_drive(rng, 6)
    else:
        y0 = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        drive = None
    ref = rk4_integrate(_rk4_rhs(m, drive), y0, t_end, dt)
    traj = linear_flow(m, y0, t_end, dt, drive=drive)
    assert len(ref) == steps + 2
    assert np.array_equal(traj.times, ref.times)
    assert traj.states.shape == ref.states.shape
    assert traj.states.dtype == ref.states.dtype
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


def test_linear_flow_cut_short_repeats_forced_states_bit_for_bit():
    # across the first block edges and past 16 of them
    m = fig1_config(0.9).dynamics_matrix
    rng = np.random.default_rng(7)
    y0 = rng.standard_normal(6)
    drive = _harmonic_drive(rng, 6)
    dt = 0.01
    full = linear_flow(m, y0, 18 * _B * dt, dt, drive=drive)
    for steps in (1, _B - 1, _B, _B + 1, 1000, 16 * _B - 1, 16 * _B, 16 * _B + 1):
        short = linear_flow(m, y0, (steps + 0.5) * dt, dt, drive=drive)
        assert len(short) == steps + 2
        assert np.array_equal(short.times[:-1], full.times[: steps + 1])
        assert np.array_equal(short.states[:-1], full.states[: steps + 1])


def test_linear_flow_step_list_matches_rk4():
    m = fig1_config(0.9).dynamics_matrix
    y0 = np.ones(6)
    for t_end, dt in ((1.0, 0.1), (1.05, 0.1), (0.3, 0.1), (0.0, 0.1), (2.0 + 1e-14, 0.5)):
        ref = rk4_integrate(lambda t, y: m @ y, y0, t_end, dt)
        assert np.array_equal(linear_flow(m, y0, t_end, dt).times, ref.times)


def test_linear_flow_guards():
    m = fig1_config(0.9).dynamics_matrix
    y0 = np.ones(6)
    with pytest.raises(ValueError):
        linear_flow(m, y0, 1.0, 0.0)
    with pytest.raises(ValueError):
        linear_flow(m, y0, 1.0, -0.1)
    with pytest.raises(ValueError):
        linear_flow(m, y0, -1.0, 0.1)
    with pytest.raises(ValueError):
        linear_flow(m, np.ones(5), 1.0, 0.1)
    # a drive needs a finite w and a finite real F of shape (3, n), and a
    # real vector state
    f = np.ones((3, 6))
    bad_drives = [
        (y0, (np.nan, f)),
        (y0, (np.inf, f)),
        (y0, (1.0, np.where(np.eye(3, 6) > 0, np.nan, 1.0))),
        (y0, (1.0, np.ones((6, 3)))),
        (y0, (1.0, np.ones((3, 5)))),
        (y0, (1.0, np.ones(6))),
        (y0, (1.0, f + 1j)),
        (y0 + 0j, (1.0, f)),
        (np.ones((6, 2)), (1.0, f)),
    ]
    for y, drive in bad_drives:
        with pytest.raises(ValueError):
            linear_flow(m, y, 1.0, 0.1, drive=drive)


# every fixed-step entry point, called as (t_end, dt) on fig1 at Omega = 0.9
_FIXED_STEP_RUNS = {
    "linear_flow": lambda t_end, dt: linear_flow(
        fig1_config(0.9).dynamics_matrix, np.ones(6), t_end, dt
    ),
    "rk4_integrate": lambda t_end, dt: rk4_integrate(lambda t, y: -y, np.ones(6), t_end, dt),
    "forced_evolve": lambda t_end, dt: forced_evolve(fig1_config(0.9), [0.0, 0.0, -1.0], t_end, dt),
    "riccati_direct": lambda t_end, dt: evolve_riccati(
        np.eye(3, dtype=complex), fig1_config(0.9), t_end, dt, method="direct"
    ),
    "riccati_linearized": lambda t_end, dt: evolve_riccati(
        np.eye(3, dtype=complex), fig1_config(0.9), t_end, dt, method="linearized"
    ),
}


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        (np.inf, 1e-2, "t_end must be finite, got inf"),
        (np.nan, 1e-2, "t_end must be finite, got nan"),
        (1.0, np.nan, "dt must be finite and positive, got nan"),
        # more steps than the cap, refused before the run allocates its record
        (1e16, 1e-3, "1e\\+19 steps, above the cap of 10000000 steps"),
        (1e-2, 1e-300, "1e\\+298 steps, above the cap of 10000000 steps"),
    ],
    ids=["t_end_inf", "t_end_nan", "dt_nan", "steps_1e19", "dt_1e-300"],
)
@pytest.mark.parametrize("entry", sorted(_FIXED_STEP_RUNS))
def test_non_finite_time_span_is_value_error(entry, t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        _FIXED_STEP_RUNS[entry](t_end, dt)


def test_step_cap_counts_the_ragged_step():
    cap = numerics._MAX_STEPS
    assert numerics._step_count(1.0, float(cap)) == (cap, None)
    assert numerics._step_count(1.0, cap - 0.5) == (cap - 1, 0.5)
    for t_end in (cap + 0.5, cap + 1.0):
        with pytest.raises(ValueError, match="above the cap"):
            numerics._step_count(1.0, t_end)


def test_linear_flow_overflow_carries_finite_prefix():
    m = 50.0 * np.eye(6)
    for drive in (None, (2.0, np.ones((3, 6)))):
        with pytest.raises(NonFiniteState) as info:
            linear_flow(m, np.ones(6), 100.0, 1e-3, drive=drive)
        traj = info.value.trajectory
        assert len(traj) > 1 and np.all(np.isfinite(traj.states))
        assert traj.states[-1, 0] > 1e300
        # its full steps are exactly those of a run stopped before the overflow
        again = linear_flow(m, np.ones(6), traj.times[-1] - 0.5e-3, 1e-3, drive=drive)
        assert len(again) == len(traj)
        assert np.array_equal(again.times[:-1], traj.times[:-1])
        assert np.array_equal(again.states[:-1], traj.states[:-1])


def test_eig_diag_and_rotation_generator():
    lam, vec = eig_general(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(lam.real), [1, 2, 3])
    assert np.allclose(lam.imag, 0)
    lam2, _ = eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(lam2.imag), [-1, 1])
    assert np.allclose(lam2.real, 0)


def test_eig_conjugation_closure_and_residual(rng):
    for _ in range(50):
        m = rng.standard_normal((6, 6))
        lam, vec = eig_general(m)
        lam_sorted = np.sort_complex(lam)
        conj_sorted = np.sort_complex(np.conj(lam))
        assert np.allclose(lam_sorted, conj_sorted, atol=1e-8)
        for k in range(6):
            r = np.linalg.norm(m @ vec[:, k] - lam[k] * vec[:, k])
            assert r < 1e-9 * max(1.0, np.linalg.norm(m)) * np.linalg.norm(vec[:, k])


def test_eig_reports_a_failed_decomposition(monkeypatch):
    def fails(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fails)
    with pytest.raises(ConvergenceFailure, match="eigendecomposition failed"):
        eig_general(fig1_config(1.0).dynamics_matrix)


@pytest.mark.parametrize("bad", [(0,), (5,), (4, 2)])
def test_eig_names_the_first_pair_off_its_residual(monkeypatch, bad):
    real = np.linalg.eig

    def doctored(m):
        lam, vec = real(m)
        lam = lam.copy()
        lam[list(bad)] += 1e-3
        return lam, vec

    monkeypatch.setattr(np.linalg, "eig", doctored)
    with pytest.raises(ConvergenceFailure, match=rf"^eigenpair {min(bad)} residual"):
        eig_general(fig1_config(1.0).dynamics_matrix)


def test_eig_matches_cubic_roots_on_benchmark():
    cfg = fig1_config(1.0)
    lam, _ = eig_general(cfg.dynamics_matrix)
    chi = sorted(r.real for r in solve_cubic(char_poly_coeffs(cfg)))
    expected = []
    for c in chi:
        expected += [-1j * np.sqrt(c), 1j * np.sqrt(c)]
    # sort by imaginary part: real parts are zero up to roundoff here
    lam = np.array(sorted(lam, key=lambda z: z.imag))
    expected = np.array(sorted(expected, key=lambda z: z.imag))
    assert np.allclose(lam, expected, atol=1e-9)


def test_posdef_min_eig_examples():
    assert posdef_min_eig(np.eye(3)) == pytest.approx(1.0)
    assert posdef_min_eig(np.diag([1.0, -0.5])) == pytest.approx(-0.5)
    k = planar_stationary_K(1.0, 2.0, 3.0, 0.5)
    min_eig = posdef_min_eig(np.real(k.matrix2()))
    assert min_eig == pytest.approx(0.952120, abs=1e-6)


def test_posdef_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        posdef_min_eig(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cinv3_examples(rng):
    assert np.allclose(cinv3(np.eye(3)), np.eye(3))
    m = np.diag([1j, 2.0, 1.0 + 1j])
    assert np.allclose(cinv3(m), np.diag([-1j, 0.5, (1.0 - 1j) / 2.0]))
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a += 3.0 * np.eye(3)
        inv = cinv3(a)
        assert np.max(np.abs(a @ inv - np.eye(3))) < 1e-10


def test_cinv3_near_singular():
    m = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(NearSingular):
        cinv3(m)
    # an exactly singular matrix fails the batched inverse; the stack names it
    ms = np.array([np.eye(3), np.eye(3), np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))])
    with pytest.raises(NearSingular, match="condition number inf >= 1e12") as info:
        cinv3_stack(ms)
    assert info.value.index == 2


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    d=st.integers(1, 3),
    log_cond=st.floats(0.0, 14.0),
    poison=st.sampled_from([None, "rank", "nan"]),
)
def test_cinv3_stack_matches_cinv3(seed, n, d, log_cond, poison):
    # condition numbers from about 1e6 trip the residual guard, a rank-deficient
    # matrix the condition guard and a NaN the failed estimate; the stack must
    # stop at the first matrix cinv3 refuses, with cinv3's message, and agree
    # with it on every matrix before that
    rng = np.random.default_rng(seed)
    ms = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _, vh = np.linalg.svd(g)
        sv = 10.0 ** -rng.uniform(0.0, log_cond, d)
        ms.append((u * sv) @ vh)
    ms = np.array(ms)
    if poison == "rank":
        ms[rng.integers(n)] = np.outer(ms[0, :, 0], ms[0, 0, :])
    elif poison == "nan":
        ms[rng.integers(n), 0, 0] = np.nan
    ref = []
    for m in ms:
        try:
            ref.append(cinv3(m))
        except NearSingular as exc:
            with pytest.raises(NearSingular) as info:
                cinv3_stack(ms)
            assert info.value.index == len(ref)
            assert str(info.value) == str(exc)
            return
    inv = cinv3_stack(ms)
    assert inv.shape == ms.shape
    assert np.max(np.abs(inv - np.array(ref))) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    d=st.integers(1, 3),
    log_cond=st.floats(0.0, 16.0),
    poison=st.sampled_from([None, "rank1", "nan", "tiny"]),
)
def test_cinv3_refuses_every_matrix_its_svd_oracle_refuses(seed, n, d, log_cond, poison):
    # the guard reads d kappa_1 off the inverse; np.linalg.cond's kappa_2 is
    # its oracle, and a matrix with kappa_2 >= 1e12, or a non-finite one,
    # must be refused by cinv3 and by the stack at its own position
    rng = np.random.default_rng(seed)
    ms = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _, vh = np.linalg.svd(g)
        sv = 10.0 ** -np.sort(rng.uniform(0.0, log_cond, d))
        sv[0], sv[-1] = 1.0, 10.0 ** -log_cond
        ms.append((u * sv) @ vh)
    ms = np.array(ms)
    if poison == "rank1":
        ms[rng.integers(n)] = np.outer(ms[0, :, 0], ms[0, 0, :])
    elif poison == "nan":
        ms[rng.integers(n), rng.integers(d), rng.integers(d)] = np.nan
    elif poison == "tiny":
        ms[rng.integers(n)] = np.diag([1.0] * (d - 1) + [1e-15])
    accepted = []
    for m in ms:
        try:
            cinv3(m)
            accepted.append(m)
        except NearSingular as exc:
            assert exc.index is None
    for m in ms:
        if np.isfinite(m).all() and np.linalg.cond(m) < 1e12:
            continue
        with pytest.raises(NearSingular) as info:
            cinv3(m)
        assert info.value.index is None
        with pytest.raises(NearSingular) as info:
            cinv3_stack(np.array(accepted + [m]))
        assert info.value.index == len(accepted)


def test_cinv3_refuses_below_the_svd_limit_when_d_kappa1_reaches_it():
    # kappa_2 = kappa_1 = 5e11 < 1e12, but 3 kappa_1 = 1.5e12 is refused: the
    # kappa_1 limit is never looser than kappa_2 >= 1e12, and here stricter
    m = np.diag([1.0, 1.0, 2e-12])
    assert np.linalg.cond(m) < 1e12
    with pytest.raises(NearSingular, match=r"condition number 1\.500e\+12 >= 1e12"):
        cinv3(m)
    with pytest.raises(NearSingular) as info:
        cinv3_stack(np.array([np.eye(3), m]))
    assert info.value.index == 1


def test_cinv3_stack_guards():
    with pytest.raises(ValueError):
        cinv3_stack(np.eye(3))
    with pytest.raises(ValueError):
        cinv3_stack(np.ones((2, 4, 4)))
    with pytest.raises(ValueError):
        cinv3_stack(np.ones((2, 2, 3)))
