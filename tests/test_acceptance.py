"""End-to-end acceptance gate: twelve release criteria, one test each.

Each test prints a single PASS or FAIL line (visible with ``pytest -s``)
and pins either a closed-form anchor, a property suite, or a calibrated
numerical gate. Tolerances sit inline next to the assertions they govern.
Criteria with runtime budgets time the measured section after a warm-up
call so import and allocation costs stay out of the clock.
"""

import functools
import time

import numpy as np
import pytest

from rototrap import (
    AmbiguousClassification,
    InInstabilityRegion,
    OSCILLATORY,
    OmegaRange,
    char_poly_coeffs,
    char_poly_from_matrix,
    classify_chi_roots,
    classify_resonances,
    completed_third_invariant,
    build_invariant,
    default_classify_tol,
    evolve_riccati,
    forced_evolve,
    growth_classification,
    invariance_nullspace,
    invariance_residuals,
    invariant_forms,
    line_trap,
    make_config,
    planar_stationary_K,
    planar_trap,
    region_map,
    riccati_rhs,
    rk4_integrate,
    solve_cubic,
    stability_scan,
    stationary_K_from_modes,
    trajectory_drift,
    wigner_decompose_into_invariants,
    wigner_form,
)

from conftest import (
    V123,
    displayed_c3,
    fig1_config,
    fig2_config,
    fig3_config,
    fig4_config,
    fig5_config,
    fig6_config,
    omega_inside,
    planar_wigner_weights,
    random_config,
    random_rotation,
    tilted_axis,
)


def _criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL  {title}")
                raise
            line = f"criterion {num:2d} PASS  {title}"
            if detail:
                line += f"  [{detail}]"
            print(line)
        return wrapper
    return deco


@_criterion(1, "static-trap limit: cubic roots are the potential eigenvalues")
def test_criterion_01_static_limit():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.0)
    solve_cubic(char_poly_coeffs(cfg))  # warm-up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        roots = solve_cubic(char_poly_coeffs(cfg))
        best = min(best, time.perf_counter() - t0)
    roots = np.asarray(roots, dtype=complex)
    assert np.max(np.abs(roots.imag)) < 1e-12
    assert np.max(np.abs(np.sort(roots.real) - np.array([1.0, 2.0, 3.0]))) < 1e-12
    assert best < 1e-3
    return f"runtime {best * 1e6:.0f} us"


@_criterion(2, "exponential window edges match the closed forms")
def test_criterion_02_window_edges():
    rmap = region_map(fig1_config(1.0))
    assert abs(rmap.om_minus - np.sqrt((22.0 - np.sqrt(52.0)) / 12.0)) < 1e-9
    assert abs(rmap.om_plus - np.sqrt((22.0 + np.sqrt(52.0)) / 12.0)) < 1e-9
    # independent route: the constant coefficient vanishes at both edges
    for om in (rmap.om_minus, rmap.om_plus):
        coeffs = char_poly_from_matrix(fig1_config(om).dynamics_matrix)
        assert abs(coeffs.c) < 1e-8
    return f"edges ({rmap.om_minus:.9f}, {rmap.om_plus:.9f})"


@_criterion(3, "axis-aligned rotation never classifies as oscillatory")
def test_criterion_03_axis_aligned_no_oscillatory():
    rng = np.random.default_rng(3)
    warm = char_poly_coeffs(fig2_config(0.5))
    classify_chi_roots(solve_cubic(warm), default_classify_tol(warm))
    t0 = time.perf_counter()
    for _ in range(1000):
        vals = np.diag(rng.uniform(0.2, 3.0, size=3))
        axis = np.eye(3)[rng.integers(0, 3)]
        cfg = make_config(vals, axis, float(rng.uniform(0.0, 3.0)))
        coeffs = char_poly_coeffs(cfg)
        try:
            cls = classify_chi_roots(solve_cubic(coeffs), default_classify_tol(coeffs))
        except AmbiguousClassification as exc:
            assert exc.side != "oscillatory"
            continue
        assert cls.label != OSCILLATORY
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"1000 configs in {elapsed:.2f} s"


@_criterion(4, "scans reproduce the region sequences")
def test_criterion_04_region_sequences():
    def collapse(regions):
        out = []
        for r in regions:
            r = r.rstrip("*")
            if not out or out[-1] != r:
                out.append(r)
        return out

    stability_scan(fig2_config(0.5), OmegaRange(0.0, 1.0, 50))  # warm-up
    t0 = time.perf_counter()
    generic = stability_scan(fig1_config(1.0), OmegaRange(0.0, 4.0, 2000))
    axial = stability_scan(fig2_config(0.5), OmegaRange(0.0, 4.0, 2000))
    elapsed = time.perf_counter() - t0
    assert collapse(generic.regions) == ["S1", "I1", "S2", "I2", "S3"]
    assert collapse(axial.regions) == ["S1", "I1", "S2"]
    assert elapsed < 2.0
    return f"2x2000 points in {elapsed:.2f} s"


@_criterion(5, "resonance closed forms and figure classifications")
def test_criterion_05_resonance_closed_forms():
    rep = classify_resonances(fig2_config(0.5))
    assert abs(rep.omega1_sq - 1.0 / 3.0) < 1e-12
    assert abs(rep.omega2_sq - 3.0) < 1e-12
    rep4 = classify_resonances(fig4_config(0.5))
    assert (rep4.region1, rep4.region2) == ("S1", "S1")
    rep5 = classify_resonances(fig5_config(0.5))
    assert rep5.region2 == "I1"
    rep6 = classify_resonances(fig6_config(0.5))
    assert rep6.region1 == "S1"
    assert rep6.region2 in ("S2", "S3")
    return "z-axis roots exact; figure 4/5/6 regions as captioned"


@_criterion(6, "forced evolution grows linearly on resonance, stays bounded off it")
def test_criterion_06_resonant_growth():
    base = make_config(V123, tilted_axis(0.35), 0.5)
    rep = classify_resonances(base)
    assert rep.region2.startswith("S")  # resonance must sit in a stable region
    cfg = base.with_omega(rep.omega2)
    g = np.array([np.cos(0.35), 0.0, -np.sin(0.35)])  # transverse to the axis
    period = 2.0 * np.pi / cfg.omega
    forced_evolve(cfg, g, period)  # warm-up
    t0 = time.perf_counter()
    fit = growth_classification(forced_evolve(cfg, g, 50.0 * period), period)
    detuned = base.with_omega(1.1 * rep.omega2)
    period_d = 2.0 * np.pi / detuned.omega
    fit_d = growth_classification(
        forced_evolve(detuned, g, 50.0 * period_d), period_d
    )
    elapsed = time.perf_counter() - t0
    assert fit.label == "LinearGrowth"
    assert fit.r2_linear > 0.99
    assert fit.slope > 0
    assert fit_d.label == "Bounded"
    assert elapsed < 5.0
    return f"on-resonance R^2 {fit.r2_linear:.4f}, runtime {elapsed:.2f} s"


@_criterion(7, "stationary states exist exactly where the classical motion is stable")
def test_criterion_07_correspondence():
    rng = np.random.default_rng(7)
    counts = {"S1": 0, "S2": 0, "S3": 0, "I1": 0, "I2": 0}
    target = 50
    attempts = 0
    while min(counts.values()) < target:
        attempts += 1
        assert attempts < 400, f"region sampling stalled at {counts}"
        cfg0 = random_config(rng)
        rmap = region_map(cfg0)
        for lab in rmap.labels():
            region = lab.label
            if region not in counts or counts[region] >= target:
                continue
            cfg = cfg0.with_omega(omega_inside(lab, float(rng.uniform(0.1, 0.9))))
            if region.startswith("S"):
                state = stationary_K_from_modes(cfg)
                assert np.max(np.abs(riccati_rhs(state.k, cfg))) < 1e-9
                assert state.re_min_eig() > 0
            else:
                with pytest.raises(InInstabilityRegion):
                    stationary_K_from_modes(cfg)
            counts[region] += 1
    return f"50 per region over {attempts} random configs"


@_criterion(8, "mode-built K matches the closed planar form across S1 and S2")
def test_criterion_08_planar_cross_validation():
    omegas = np.concatenate(
        [np.linspace(0.05, 0.95, 10), np.linspace(1.46, 2.9, 10)]
    )
    worst = 0.0
    for om in omegas:
        om = float(om)
        k_modes = stationary_K_from_modes(fig2_config(om)).k
        k_closed = planar_stationary_K(1.0, 2.0, 3.0, om).matrix3()
        worst = max(worst, float(np.max(np.abs(k_modes - k_closed))))
    assert worst < 1e-10
    psk = planar_stationary_K(1.0, 2.0, 3.0, 0.5)
    # reference digits chosen to keep the 1e-6 gate attainable: a six-digit
    # truncation of beta sits 2.6e-6 from the derived value
    assert abs(psk.alpha - 0.952120) < 1e-6
    assert abs(psk.beta - 1.4543886) < 1e-6
    assert abs(psk.gamma - (-0.104356)) < 1e-6
    return f"worst entrywise gap {worst:.2e} over 20 rates"


@_criterion(9, "Riccati evolution: routes agree, stationary states hold, breathing closes")
def test_criterion_09_evolution_consistency():
    rng = np.random.default_rng(9)
    configs = [fig2_config(0.5), fig2_config(2.0), fig3_config(0.5), fig1_config(0.9)]
    worst = 0.0
    for i in range(20):
        cfg = configs[i % len(configs)]
        base = stationary_K_from_modes(cfg).k
        re = rng.uniform(-0.1, 0.1, (3, 3))
        im = rng.uniform(-0.05, 0.05, (3, 3))
        k0 = base + (re + re.T) / 2.0 + 0.5j * (im + im.T)
        assert np.min(np.linalg.eigvalsh(k0.real)) > 0  # normalizable start
        a = evolve_riccati(k0, cfg, 20.0, 4e-3, method="direct")
        b = evolve_riccati(k0, cfg, 20.0, 4e-3, method="linearized")
        worst = max(worst, float(np.max(np.abs(a.ks - b.ks))))
    assert worst < 1e-7

    cfg = fig2_config(0.5)
    k_star = stationary_K_from_modes(cfg).k
    traj = evolve_riccati(k_star, cfg, 20.0, 4e-3)
    drift = float(np.max(np.abs(traj.ks - k_star)))
    assert drift < 1e-6

    breathing = evolve_riccati(np.array([[2.0 + 0j]]), line_trap(1.0), np.pi, 1e-3)
    assert abs(breathing.final_k[0, 0] - 2.0) < 1e-8
    return f"worst route gap {worst:.2e}, stationary drift {drift:.2e}"


@_criterion(10, "constants of motion: residuals, drift, null-space rank, third-invariant report")
def test_criterion_10_constants_of_motion():
    rng = np.random.default_rng(10)
    worst_generic = 0.0
    for _ in range(100):
        cfg = random_config(rng)
        for label in ("C1", "C2_3D"):
            res = invariance_residuals(build_invariant(label, cfg), cfg)
            worst_generic = max(worst_generic, res.worst)
    worst_planar = 0.0
    for _ in range(100):
        cfg = make_config(
            np.diag(rng.uniform(0.2, 3.0, size=3)),
            [0.0, 0.0, 1.0],
            float(rng.uniform(0.0, 3.0)),
        )
        res = invariance_residuals(build_invariant("C2_2D", cfg), cfg)
        worst_planar = max(worst_planar, res.worst)
    assert worst_generic < 1e-10
    assert worst_planar < 1e-10

    cfg = fig2_config(0.5)
    roots = solve_cubic(char_poly_coeffs(cfg))
    omegas = np.sqrt(roots.real)
    t_fast = 2.0 * np.pi / np.max(omegas)
    t_slow = 2.0 * np.pi / np.min(omegas)
    m = cfg.dynamics_matrix
    traj = rk4_integrate(
        lambda t, y: m @ y,
        np.array([1.0, 0.5, -0.3, 0.2, 1.1, -0.7]),
        20.0 * t_slow,
        t_fast / 400.0,
    )
    drift = max(
        trajectory_drift(build_invariant("C1", cfg), traj),
        trajectory_drift(build_invariant("C2_3D", cfg), traj),
    )
    assert drift < 1e-7

    for _ in range(10):
        dim, _, _ = invariance_nullspace(random_config(rng))
        assert dim == 3

    # the displayed third closed form does not solve the equations; its
    # residual is reported next to that of the blind completed triple
    c3_worst = max(
        invariance_residuals(displayed_c3(c), c).worst
        for c in (fig1_config(1.0), fig3_config(0.5))
    )
    fixed = completed_third_invariant(fig3_config(0.5))
    fixed_res = invariance_residuals(fixed, fig3_config(0.5)).worst
    assert fixed_res < 1e-10
    return (
        f"drift {drift:.2e}; C3 closed-form residual {c3_worst:.3g} "
        f"(documented defect; completed residual {fixed_res:.1e})"
    )


@_criterion(11, "stationary Wigner functions decompose onto the planar invariants")
def test_criterion_11_wigner_decomposition():
    for om in (0.0, 0.3, 0.5, 2.0, 2.5):
        trap = planar_trap(1.0, 2.0, om)
        k2 = planar_stationary_K(1.0, 2.0, 1.0, om).matrix2()
        dec = wigner_decompose_into_invariants(wigner_form(k2), invariant_forms(trap))
        assert dec.residual < 1e-8
        assert dec.coefficients == pytest.approx(planar_wigner_weights(1.0, 2.0, om), rel=1e-10)
    static = wigner_decompose_into_invariants(
        wigner_form(np.diag([1.0, np.sqrt(2.0)]).astype(complex)),
        invariant_forms(planar_trap(1.0, 2.0, 0.0)),
    )
    c1, c2 = static.coefficients
    assert abs(abs(c1) - (4.0 - np.sqrt(2.0))) < 1e-8
    assert abs(abs(c2) - (2.0 - np.sqrt(2.0))) < 1e-8
    # magnitudes match the quoted weights; the signs come out (+, -)
    return f"static weights signed ({c1:+.6f}, {c2:+.6f})"


@_criterion(12, "characteristic polynomial: dual routes agree, rotation invariant")
def test_criterion_12_char_poly_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        a = char_poly_coeffs(cfg)
        b = char_poly_from_matrix(cfg.dynamics_matrix)
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    assert worst < 1e-9
    worst_rot = 0.0
    for _ in range(100):
        cfg = random_config(rng)
        q = random_rotation(rng)
        rot = make_config(q @ cfg.v @ q.T, q @ cfg.axis, cfg.omega)
        other = char_poly_coeffs(rot)
        base = char_poly_coeffs(cfg)
        worst_rot = max(worst_rot, max(abs(x - y) for x, y in zip(base, other)))
    assert worst_rot < 1e-10
    return f"route gap {worst:.2e}, rotation shift {worst_rot:.2e}"
