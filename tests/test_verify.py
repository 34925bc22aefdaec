"""The cross-route consistency suite: near-edge runs and shared work."""

import sys

import numpy as np
import pytest

from rototrap import (
    ModeSet,
    classify_resonances,
    eigenmodes,
    exponential_window,
    make_config,
    region_map,
    resonant_frequencies,
    verify_config,
)
from rototrap import invariants, verify

from conftest import (
    CROSSING_DELTAS,
    FIGURE_CONFIGS,
    FIGURE_IDS,
    fig1_config,
    fig2_config,
    fig5_config,
    random_config,
    same_sign_crossing_rates,
)

# V = diag(1, 2, 3) tilted off every principal axis: both exponential edges
# are finite, and the slowest mode freezes at each of them
_EDGE_TRAP = make_config([1.0, 2.0, 3.0], [0.0, 0.6, 0.8], 0.5)


def _next_to_edge(side, rel):
    om_minus, om_plus = exponential_window(_EDGE_TRAP)
    om = om_minus * (1.0 - rel) if side == "below" else om_plus * (1.0 + rel)
    return _EDGE_TRAP.with_omega(om)


def _drift_check(report):
    return next(c for c in report.checks if c.name == "trajectory_invariant_drift")


@pytest.mark.parametrize("side", ["below", "above"])
def test_verify_passes_next_to_an_exponential_edge(side):
    # 10 slow periods here would be over 1e6 steps, whose drift fails 1e-7
    report = verify_config(_next_to_edge(side, 1e-4))
    assert report.ok, [c for c in report.checks if not c.ok]
    assert "span capped at 128 fast periods" in _drift_check(report).detail


def test_verify_passes_on_an_axisymmetric_trap_at_its_collapsed_window():
    # V = I rotated about (1, 1, 1): b^2 - 4ac is 0, and its rounding residue
    # must not open an exponential window (2.6e-8 wide) around Omega = 1
    cfg = make_config([1.0, 1.0, 1.0], [3.0 ** -0.5] * 3, 1.0)
    report = verify_config(cfg)
    assert report.ok, [c for c in report.checks if not c.ok]


@pytest.mark.parametrize("side", ["below", "above"])
def test_verify_drift_run_stays_bounded_at_the_edge(side):
    # uncapped, 1e-8 from the edge the run would be about 1.3e8 steps
    check = _drift_check(verify_config(_next_to_edge(side, 1e-8)))
    assert check.ok, check.detail
    assert "span capped" in check.detail


def test_verify_drift_span_uncapped_away_from_edges():
    # fig1's slow-to-fast period ratio is about 10, so 10 slow periods is
    # under the cap and the report reads as it always has
    check = _drift_check(verify_config(fig1_config(1.0)))
    assert check.ok
    assert "capped" not in check.detail


def test_verify_drift_scales_with_the_mode_terms():
    # deep in S3 the terms omega_k^2 E_k of C_1 nearly cancel, so a drift
    # relative to 1 + |C_1(x0)| read 2.3e-7 on a valid trap
    check = _drift_check(verify_config(fig5_config(7.0)))
    assert check.ok, check.detail


def _count_calls(monkeypatch, owner, name):
    """Calls to owner.name from every rototrap module that binds it."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rototrap" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


_ONCE_PER_CALL = {
    "solve_cubic": 1,
    "eigenmodes": 1,
    "stationary_K_from_modes": 1,
    "amplitude_energies": 1,
    "evaluate_invariant": 3,  # C_n(x0) for n = 0, 1, 2
    "invariance_nullspace": 1,
    "region_map": 1,
}


@pytest.mark.parametrize("make", FIGURE_CONFIGS, ids=FIGURE_IDS)
def test_stable_verify_builds_each_intermediate_once(monkeypatch, make):
    # one ModeSet serves eigen_cubic_crosscheck and every stable-branch check
    cfg = make()
    calls = {name: _count_calls(monkeypatch, verify, name) for name in _ONCE_PER_CALL}
    report = verify_config(cfg)
    assert report.ok, report.failed
    assert "wigner_invariant_span" in [c.name for c in report.checks]
    assert {name: len(c) for name, c in calls.items()} == _ONCE_PER_CALL


@pytest.mark.parametrize("make", FIGURE_CONFIGS, ids=FIGURE_IDS)
def test_stable_verify_builds_the_invariant_forms_once(monkeypatch, make):
    # the Wigner span check expands over verify's own forms
    calls = _count_calls(monkeypatch, invariants, "invariant_forms")
    report = verify_config(make())
    assert report.ok, report.failed
    assert "wigner_invariant_span" in [c.name for c in report.checks]
    assert len(calls) == 1


def _mid_window(window):
    rmap = region_map(fig1_config())
    lo, hi = (rmap.om_minus, rmap.om_plus) if window == "I1" else rmap.oscillatory
    return fig1_config(0.5 * (lo + hi))


@pytest.mark.parametrize("window", ["I1", "I2"])
def test_unstable_verify_detects_the_quantum_instability(monkeypatch, window):
    cfg = _mid_window(window)
    assert region_map(cfg).locate(cfg.omega).label == window
    eig = _count_calls(monkeypatch, verify, "eigenmodes")
    cubic = _count_calls(monkeypatch, verify, "solve_cubic")
    report = verify_config(cfg)
    assert report.ok, report.failed
    check = next(c for c in report.checks if c.name == "quantum_instability_detected")
    assert check.ok and check.detail.startswith("InInstabilityRegion raised")
    assert (len(eig), len(cubic)) == (1, 1)


def test_verify_reports_a_rate_whose_square_overflows():
    # Omega^2 overflows a float: the checks that read the char-poly
    # coefficients report NumericError, and verify still returns its report
    with np.errstate(all="ignore"):
        report = verify_config(fig1_config(1e200))
    assert not report.ok
    details = {c.name: c.detail for c in report.failed}
    assert details["char_poly_consistency"].startswith("NumericError: ")
    assert details["eigen_cubic_crosscheck"].startswith("NumericError: ")


def test_classify_resonances_is_resonant_frequencies():
    assert classify_resonances is resonant_frequencies


def test_stable_verify_solves_the_null_space_once(monkeypatch):
    # the Wigner span check expands over H (-M^2)^n and needs no second SVD
    calls = []
    real = invariants.invariance_nullspace

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(verify, "invariance_nullspace", counted)
    monkeypatch.setattr(invariants, "invariance_nullspace", counted)
    report = verify_config(fig1_config(1.0))
    assert report.ok
    assert "wigner_invariant_span" in [c.name for c in report.checks]
    assert len(calls) == 1


def test_verify_drift_checks_all_three_invariants(monkeypatch):
    seen = []
    real = verify.trajectory_drift

    def recorded(g, traj):
        seen.append(g)
        return real(g, traj)

    monkeypatch.setattr(verify, "trajectory_drift", recorded)
    cfg = fig1_config(1.0)
    assert _drift_check(verify_config(cfg)).ok
    forms = invariants.invariant_forms(cfg)
    assert len(seen) == len(forms) == 3
    for g, ref in zip(seen, forms):
        assert np.array_equal(g, ref)


# fig2's trap at its lower crossing, where the axis mode and an in-plane mode
# share omega = sqrt 3 and Krein sign +1
(_FIG2_CROSSING,) = same_sign_crossing_rates([1.0, 2.0, 3.0], 2)


@pytest.mark.parametrize("delta", CROSSING_DELTAS)
def test_verify_accepts_a_same_sign_crossing(delta):
    report = verify_config(fig2_config(_FIG2_CROSSING * (1.0 + delta)))
    assert {c.name for c in report.failed} <= {"region_consistency"}, report.failed


@pytest.mark.xfail(
    strict=True,
    reason="companion eigenvalues split the double root chi = 3 into a complex "
    "pair, so region_consistency fails; the discriminant-sign rule of ROADMAP "
    "item 2 labels it",
)
def test_verify_passes_next_to_a_same_sign_crossing():
    report = verify_config(fig2_config(_FIG2_CROSSING * (1.0 + 1e-9)))
    assert report.ok, report.failed


def test_eigen_cubic_crosscheck_catches_a_frequency_off_by_1e9(monkeypatch):
    # omega^2 put back into the cubic: a root moved by 2e-9 relative leaves
    # a backward error far above the 1e-12 bound
    def skewed(m):
        om, vec = eigenmodes(m)
        return ModeSet(om * np.array([1.0 + 1e-9, 1, 1, 1, 1, 1]), vec)

    monkeypatch.setattr(verify, "eigenmodes", skewed)
    report = verify_config(fig1_config(1.0))
    assert "eigen_cubic_crosscheck" in {c.name for c in report.failed}


# the figure traps and ten seeded random ones, for the resonance-rate runs
_RESONANCE_TRAPS = [make() for make in FIGURE_CONFIGS] + [
    random_config(np.random.default_rng(seed)) for seed in range(2200, 2210)
]


@pytest.mark.parametrize(
    "cfg", _RESONANCE_TRAPS, ids=list(FIGURE_IDS) + [f"seed{s}" for s in range(2200, 2210)]
)
def test_verify_passes_at_the_stable_gravity_resonances(cfg):
    # at a resonance Omega^2 is a chi root, so Omega is a mode frequency
    rep = resonant_frequencies(cfg)
    for x, label in ((rep.omega1_sq, rep.region1), (rep.omega2_sq, rep.region2)):
        if label is None or not label.startswith("S"):
            continue
        for scale in (1.0, 1.0 - 1e-9, 1.0 + 1e-9):
            report = verify_config(cfg.with_omega(np.sqrt(x) * scale))
            assert report.ok, (label, scale, report.failed)
