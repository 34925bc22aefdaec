"""Rotating-frame gravity, resonance locations, and forced-growth diagnostics."""

import numpy as np
import pytest

from rototrap import gravity
from rototrap import (
    InsufficientSpan,
    StepTooLarge,
    Trajectory,
    char_poly_coeffs,
    classify_resonances,
    decompose_gravity,
    default_forced_dt,
    forced_evolve,
    gravity_in_rotating_frame,
    growth_classification,
    make_config,
    resonance_coefficients,
    resonant_frequencies,
    rk4_integrate,
    trajectory_to_csv,
)

from conftest import (
    V123,
    fig2_config,
    fig4_config,
    fig5_config,
    fig6_config,
    random_axis,
    random_config,
    random_potential,
    tilted_axis,
)


# -- decomposition and the rotating-frame drive ------------------------------

def test_decompose_example():
    dg = decompose_gravity([3.0, 0.0, 4.0], [0.0, 0.0, 1.0])
    assert np.allclose(dg.g_par, [0.0, 0.0, 4.0])
    assert np.allclose(dg.g_perp, [3.0, 0.0, 0.0])


def test_decompose_parallel_and_orthogonal_limits():
    n = np.array([0.0, 1.0, 0.0])
    dg = decompose_gravity(2.0 * n, n)
    assert np.allclose(dg.g_perp, 0.0)
    dg = decompose_gravity([1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert np.allclose(dg.g_par, 0.0)


def test_decompose_invariants(rng):
    for _ in range(30):
        g = rng.standard_normal(3)
        n = random_axis(rng)
        dg = decompose_gravity(g, n)
        assert np.allclose(dg.g_par + dg.g_perp, g, atol=1e-12)
        assert abs(dg.g_perp @ n) < 1e-12
        assert np.linalg.norm(np.cross(dg.g_par, n)) < 1e-12


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose_gravity([1.0, np.inf, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        decompose_gravity([1.0, 0.0, 0.0], [0.0, 0.0, 2.0])


def test_rotating_frame_drive_example():
    dg = decompose_gravity([3.0, 0.0, 4.0], [0.0, 0.0, 1.0])
    om = 0.7
    for t in (0.0, 0.3, 1.9):
        expect = [3.0 * np.cos(om * t), -3.0 * np.sin(om * t), 4.0]
        assert np.allclose(gravity_in_rotating_frame(dg, om, t), expect, atol=1e-12)


def test_rotating_frame_drive_invariants(rng):
    for _ in range(20):
        g = rng.standard_normal(3)
        n = random_axis(rng)
        dg = decompose_gravity(g, n)
        for t in rng.uniform(0.0, 20.0, size=5):
            gt = gravity_in_rotating_frame(dg, 1.3, t)
            assert abs(np.linalg.norm(gt) - np.linalg.norm(g)) < 1e-12
            assert abs(gt @ n - g @ n) < 1e-12


# -- resonance equation ------------------------------------------------------

def test_resonance_coefficients_z_axis():
    cfg = fig2_config(0.5)
    assert resonance_coefficients(cfg) == pytest.approx((-6.0, 20.0, -6.0))


def test_resonance_coefficients_isotropic():
    v = 2.0
    cfg = make_config([v, v, v], tilted_axis(0.4), 0.5)
    d, _, f = resonance_coefficients(cfg)
    assert d == pytest.approx(-4.0 * v, abs=1e-12)
    assert f == pytest.approx(-v ** 3, abs=1e-12)


def test_resonance_equation_is_char_poly_section(rng):
    # setting omega = Omega in P kills the degree-6 term and leaves the
    # biquadratic
    for _ in range(50):
        cfg = random_config(rng)
        d, e, f = resonance_coefficients(cfg)
        om = rng.uniform(0.0, 3.0)
        a, b, c = char_poly_coeffs(cfg.with_omega(om))
        x = om * om
        lhs = d * x * x + e * x + f
        rhs = x ** 3 + a * x * x + b * x + c
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_resonant_frequencies_z_axis_closed_form():
    rep = resonant_frequencies(fig2_config(0.5))
    assert rep.omega1_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.omega2_sq == pytest.approx(3.0, abs=1e-12)
    assert rep.omega1 == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)


def test_lower_resonance_always_in_s1_for_axis_rotation(rng):
    for _ in range(20):
        vx, vy = np.sort(rng.uniform(0.2, 4.0, size=2))
        vz = rng.uniform(0.2, 4.0)
        cfg = make_config([vx, vy, vz], [0.0, 0.0, 1.0], 0.5)
        rep = resonant_frequencies(cfg)
        assert rep.omega1_sq == pytest.approx(vx * vy / (2.0 * (vx + vy)), rel=1e-12)
        assert rep.omega1_sq < vx
        assert rep.region1 == "S1"


def test_higher_resonance_inside_window():
    # Vz between Vx and Vy puts the upper resonance in the window
    cfg = make_config([1.0, 3.0, 2.0], [0.0, 0.0, 1.0], 0.5)
    rep = resonant_frequencies(cfg)
    assert rep.omega2_sq == pytest.approx(2.0, abs=1e-12)
    assert rep.region2 == "I1"


def test_resonance_roots_always_real(rng):
    for _ in range(10_000):
        vals = rng.uniform(0.1, 5.0, size=3)
        n = random_axis(rng)
        v = np.diag(vals)
        tr = vals.sum()
        nvn = n @ v @ n
        d = -2.0 * (tr - nvn)
        e = 0.5 * (tr * tr - np.sum(vals ** 2)) + tr * nvn - n @ v @ v @ n
        f = -np.prod(vals)
        assert e * e - 4.0 * d * f >= 0.0


def test_classify_resonances_figure_configs():
    rep4 = classify_resonances(fig4_config(0.5))
    assert rep4.omega1 == pytest.approx(0.730156751, abs=1e-7)
    assert rep4.omega2 == pytest.approx(1.081723753, abs=1e-7)
    assert (rep4.region1, rep4.region2) == ("S1", "S1")

    rep5 = classify_resonances(fig5_config(0.5))
    assert rep5.omega2 == pytest.approx(1.357597264, abs=1e-7)
    assert rep5.region1 == "S1"
    assert rep5.region2 == "I1"

    rep6 = classify_resonances(fig6_config(0.5))
    assert rep6.omega1 == pytest.approx(0.577614106, abs=1e-7)
    assert rep6.omega2 == pytest.approx(1.729681151, abs=1e-7)
    assert (rep6.region1, rep6.region2) == ("S1", "S2")


def test_resonance_roots_scale_with_the_potential(rng):
    # V -> s^2 V scales D, E, F by s^2, s^4, s^6 and the roots by s^2; at
    # s^2 = 1e-13 |D| is far below any absolute threshold, yet D < 0
    s2 = 1e-13
    cases = [(V123, [0.6, 0.0, 0.8])] + [
        (random_potential(rng), random_axis(rng)) for _ in range(20)
    ]
    for v, axis in cases:
        ref = resonant_frequencies(make_config(v, axis, 1.0))
        small = resonant_frequencies(make_config(s2 * np.asarray(v), axis, 1e-6))
        assert small.omega1_sq == pytest.approx(s2 * ref.omega1_sq, rel=1e-12)
        assert small.omega2_sq == pytest.approx(s2 * ref.omega2_sq, rel=1e-12)


def test_resonance_report_json():
    obj = resonant_frequencies(fig2_config(0.5)).to_json_obj()
    assert set(obj) == {
        "omega1_sq",
        "omega2_sq",
        "omega1",
        "omega2",
        "region1",
        "region2",
    }
    assert obj["omega1_sq"] <= obj["omega2_sq"]


# -- forced evolution --------------------------------------------------------

def test_default_forced_dt_formula():
    cfg = fig2_config(0.5)
    om_max = np.sqrt((3.5 + np.sqrt(7.0)) / 2.0)
    assert default_forced_dt(cfg) == pytest.approx(2.0 * np.pi / om_max / 200.0)


def test_forced_zero_gravity_stays_at_rest():
    traj = forced_evolve(fig2_config(0.5), [0.0, 0.0, 0.0], 5.0)
    assert np.max(np.abs(traj.states)) == 0.0


def test_forcing_enters_momentum_slots():
    cfg = fig2_config(0.5)
    dt = 1e-3
    g = np.array([3.0, 0.0, 4.0])
    traj = forced_evolve(cfg, g, 5 * dt, dt=dt)
    first = traj.states[1]
    # leading order: p gains g(0) dt, positions only g(0) dt^2 / 2
    assert np.allclose(first[3:], g * dt, atol=2.0 * np.max(g) * dt * dt)
    assert np.max(np.abs(first[:3])) < 1.1 * np.max(g) * dt * dt


def test_forced_step_guard():
    with pytest.raises(StepTooLarge):
        forced_evolve(fig2_config(0.5), [0.0, 0.0, 1.0], 1.0, dt=1.0)


def test_axial_gravity_stays_bounded():
    cfg = fig2_config(0.5)
    period = 2.0 * np.pi / cfg.omega
    traj = forced_evolve(cfg, [0.0, 0.0, -1.0], 25.0 * period)
    rep = growth_classification(traj, period)
    assert rep.label == "Bounded"


@pytest.mark.parametrize(
    "x0, periods",
    [(None, 3), ([0.1, 0.0, -0.2, 0.3, 0.0, 0.05], 3), (None, 14)],
    ids=["rest", "moving", "long"],
)
def test_forced_evolve_matches_public_drive_route(x0, periods):
    # forced_evolve must step what RK4 gives on a right-hand side built from
    # the public gravity_in_rotating_frame: the same times bit for bit, and
    # states equal up to the rounding of the one-step map (measured 7.3e-14
    # relative over the 5,008 steps of the long case); a misplaced midpoint,
    # a flipped whirl or a drive phase left to drift over the long case
    # (1.3e-12) misses by more
    base = make_config(V123, tilted_axis(0.35), 0.5)
    cfg = base.with_omega(resonant_frequencies(base).omega2)
    g = np.array([np.cos(0.35), 0.0, -np.sin(0.35)])
    t_end = periods * 2.0 * np.pi / cfg.omega
    dt = default_forced_dt(cfg)
    m = cfg.dynamics_matrix
    dg = decompose_gravity(g, cfg.axis)

    def rhs(t, y):
        out = m @ y
        out[3:] += gravity_in_rotating_frame(dg, cfg.omega, t)
        return out

    y0 = np.zeros(6) if x0 is None else np.asarray(x0, dtype=float)
    ref = rk4_integrate(rhs, y0, t_end, dt)
    traj = forced_evolve(cfg, g, t_end, dt=dt, x0=x0)
    assert len(ref) > (5000 if periods > 3 else 1000)
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * np.max(np.abs(ref.states))


def test_forced_evolve_rejects_bad_x0():
    cfg = fig2_config(0.5)
    for bad in ([0.0] * 5, np.zeros((6, 1))):
        with pytest.raises(ValueError, match="shape"):
            forced_evolve(cfg, [1.0, 0.0, 0.0], 0.1, dt=0.01, x0=bad)
    with pytest.raises(ValueError, match="non-finite"):
        forced_evolve(cfg, [1.0, 0.0, 0.0], 0.1, dt=0.01, x0=[0.0, 0.0, np.nan, 0.0, 0.0, 0.0])


def test_resonant_drive_grows_linearly():
    base = make_config(V123, tilted_axis(0.35), 0.5)
    rep = resonant_frequencies(base)
    cfg = base.with_omega(rep.omega2)
    g = np.array([np.cos(0.35), 0.0, -np.sin(0.35)])
    period = 2.0 * np.pi / cfg.omega
    traj = forced_evolve(cfg, g, 50.0 * period)
    fit = growth_classification(traj, period)
    assert fit.label == "LinearGrowth"
    assert fit.r2_linear > 0.99
    assert fit.slope > 5.0 * fit.slope_se


# -- growth classification on synthetic envelopes ----------------------------

def _synthetic(f, n_periods=30, period=2.0 * np.pi / 5.0, per_period=200):
    t = np.linspace(0.0, n_periods * period, n_periods * per_period)
    x = f(t)
    states = np.stack([x, np.zeros_like(t)], axis=1)
    return Trajectory(t, states), period


def test_growth_linear_envelope():
    traj, period = _synthetic(lambda t: t * np.sin(5.0 * t))
    rep = growth_classification(traj, period)
    assert rep.label == "LinearGrowth"
    assert rep.r2_linear > 0.99


def test_growth_bounded_envelope():
    traj, period = _synthetic(lambda t: np.sin(5.0 * t))
    rep = growth_classification(traj, period)
    assert rep.label == "Bounded"


def test_growth_exponential_envelope():
    traj, period = _synthetic(lambda t: np.exp(0.1 * t) * np.sin(5.0 * t))
    rep = growth_classification(traj, period)
    assert rep.label == "ExponentialGrowth"
    assert rep.r2_log > 0.99


def _loop_window_peaks(t, amp, period, n_win):
    # the per-window mask loop, kept as the oracle of the one-pass windows
    centers, peaks = [], []
    for k in range(n_win):
        lo = t[0] + k * period
        sel = (t >= lo) & (t < lo + period)
        if sel.any():
            centers.append(lo + 0.5 * period)
            peaks.append(float(amp[sel].max()))
    return np.array(centers), np.array(peaks)


@pytest.mark.parametrize(
    "times, period",
    [
        # edges t0 + k fall exactly on samples; 23.25 periods, not a whole number
        (np.arange(0.0, 23.3, 0.25), 1.0),
        # a gap of three periods leaves windows without samples
        (np.concatenate([np.arange(0.0, 10.0, 0.125), np.arange(13.0, 31.1, 0.5)]), 1.0),
        (np.sort(np.random.default_rng(7).uniform(0.5, 40.0, 3000)), 1.7),
    ],
    ids=["edges_on_samples", "empty_windows", "random_times"],
)
def test_growth_windows_match_the_per_window_loop(times, period):
    rng = np.random.default_rng(11)
    states = np.zeros((len(times), 6))
    states[:, :3] = rng.standard_normal((len(times), 3)) * (1.0 + times[:, None])
    # the last sample lies past the last whole window, which must not see it
    states[-1, 0] = 1e3
    amp = np.linalg.norm(states[:, :3], axis=1)
    n_win = int(np.floor((times[-1] - times[0]) / period))
    centers, peaks = gravity._window_peaks(times, amp, period, n_win)
    ref_centers, ref_peaks = _loop_window_peaks(times, amp, period, n_win)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(peaks, ref_peaks)

    rep = growth_classification(Trajectory(times, states), period)
    assert rep.n_windows == len(ref_peaks)
    assert rep.slope == pytest.approx(np.polyfit(ref_centers, ref_peaks, 1)[0], rel=1e-10)


def test_growth_requires_span():
    traj, period = _synthetic(lambda t: np.sin(5.0 * t), n_periods=10)
    with pytest.raises(InsufficientSpan):
        growth_classification(traj, period)
    with pytest.raises(ValueError):
        growth_classification(traj, 0.0)


def test_trajectory_csv_layout():
    traj = forced_evolve(fig2_config(0.5), [1.0, 0.0, 0.0], 0.1, dt=0.02)
    lines = trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,x,y,z,px,py,pz"
    assert len(lines) == len(traj) + 1
    assert len(lines[1].split(",")) == 7
