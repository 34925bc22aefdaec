"""Consistency suite for a single trap configuration.

Every check pits two independent routes against each other: the two
characteristic-polynomial constructions, the 6x6 spectrum against the
cubic, the invariants G_n against their defining equations, an
integrated orbit and the mode energies, stationary states against the
Riccati right-hand side, resonance roots against the full polynomial. A
config passes only when all applicable checks agree, so a green verify is
evidence the implementation routes are consistent with each other, not
just self-consistent.
"""

from functools import cache
from typing import List, NamedTuple

import numpy as np

from .errors import InInstabilityRegion, RototrapError
from .gravity import resonance_coefficients, resonant_frequencies
from .invariants import (
    amplitude_energies,
    evaluate_invariant,
    invariance_nullspace,
    invariant_forms,
    invariance_residuals,
    trajectory_drift,
)
from .modes import eigenmodes
from .numerics import linear_flow
from .quantum import riccati_rhs, stationary_K_from_modes, wigner_decompose_into_invariants, wigner_form
from .stability import (
    EXPONENTIAL,
    OSCILLATORY,
    STABLE,
    classify_chi_roots,
    default_classify_tol,
    region_map,
    solve_cubic,
)
from .trap import char_poly_coeffs, char_poly_from_matrix, make_config

__all__ = ["CheckResult", "VerificationReport", "verify_config"]

_SEED = 20240817
_DRIFT_FAST_PERIODS = 128


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class VerificationReport:
    """Outcome of verify_config: named checks with pass/fail and detail."""

    def __init__(self, checks: List[CheckResult]):
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def failed(self):
        return [c for c in self.checks if not c.ok]

    def to_json_obj(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }


def _run(name, fn, checks):
    # fn returns (ok, detail), or None when its check does not apply
    try:
        result = fn()
    except RototrapError as exc:
        result = False, f"{exc.code}: {exc}"
    except Exception as exc:  # verify reports, it must not crash
        result = False, f"{type(exc).__name__}: {exc}"
    if result is not None:
        checks.append(CheckResult(name, bool(result[0]), result[1]))


def _rotation_matrix(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def verify_config(cfg):
    """Run the cross-route consistency suite on one validated config.

    Each intermediate a check reads is built once, on first use inside a
    check, so a failure to build it is reported by every check that reads
    it and never escapes. Only the region lookup, which picks the checks,
    comes before them.
    """
    checks: List[CheckResult] = []
    x0 = np.array([1.0, 0.5, -0.3, 0.2, 1.1, -0.7])
    coeffs = cache(lambda: char_poly_coeffs(cfg))
    scale = cache(lambda: max(1.0, *(abs(x) for x in coeffs())))
    chi_roots = cache(lambda: solve_cubic(coeffs()))
    modes = cache(lambda: eigenmodes(cfg.dynamics_matrix))
    forms = cache(lambda: invariant_forms(cfg))
    null_dim = cache(lambda: invariance_nullspace(cfg)[0])
    stationary = cache(lambda: stationary_K_from_modes(cfg, modes()))
    c_at_x0 = cache(lambda: [evaluate_invariant(g, x0) for g in forms()])

    @cache
    def mode_terms():
        # C_n(x0) = sum_k omega_k^(2n) E_k, term by term; with modes of both
        # energy signs (past S1, or near a mode collision) the terms cancel,
        # so rounding and step error scale with the terms, not with C_n
        dec = amplitude_energies(modes(), x0)
        return [
            [om ** (2 * n) * e for om, e in zip(dec.omegas, dec.energies)]
            for n in range(len(forms()))
        ]

    def chk_char_poly():
        other = char_poly_from_matrix(cfg.dynamics_matrix)
        err = max(abs(x - y) for x, y in zip(coeffs(), other))
        return err <= 1e-9 * scale(), f"max coefficient gap {err:.3e}"

    _run("char_poly_consistency", chk_char_poly, checks)

    def chk_eigen_cubic():
        # lambda = i omega, lambda^2 = -chi, so each omega^2 is a chi root.
        # Read from the coefficients a double root is only sqrt(eps)-accurate,
        # so each omega^2 goes into the cubic: a backward error, not a gap.
        cf = coeffs()
        w2 = modes().omegas ** 2
        q = ((w2 + cf.a) * w2 + cf.b) * w2 + cf.c
        err = float(np.max(np.abs(q) / (scale() * (1.0 + np.abs(w2)) ** 3)))
        return err <= 1e-12, f"max backward error of omega^2 in the cubic {err:.3e}"

    _run("eigen_cubic_crosscheck", chk_eigen_cubic, checks)

    def chk_rotation_invariance():
        rng = np.random.default_rng(_SEED)
        worst = 0.0
        for _ in range(2):
            q = _rotation_matrix(rng)
            rot = make_config(
                q @ cfg.v @ q.T, q @ cfg.axis, cfg.omega, cfg.omega_unit
            )
            other = char_poly_coeffs(rot)
            worst = max(
                worst, max(abs(x - y) for x, y in zip(coeffs(), other))
            )
        return worst <= 1e-10 * scale(), f"max coefficient shift {worst:.3e}"

    _run("rotation_invariance", chk_rotation_invariance, checks)

    rmap = region_map(cfg)
    here = rmap.locate(cfg.omega)

    def chk_region():
        if here.boundary:
            return True, f"on boundary of {here.label}, classification skipped"
        cls = classify_chi_roots(chi_roots(), default_classify_tol(coeffs()))
        expect = {
            STABLE: ("S1", "S2", "S3"),
            EXPONENTIAL: ("I1",),
            OSCILLATORY: ("I2",),
        }[cls.label]
        ok = here.label in expect
        return ok, f"roots say {cls.label}, map says {here.label}"

    _run("region_consistency", chk_region, checks)

    def chk_resonance():
        rc = resonance_coefficients(cfg)
        rep = resonant_frequencies(cfg, rmap)
        worst = 0.0
        for x in (rep.omega1_sq, rep.omega2_sq):
            if x <= 0:
                continue
            om = float(np.sqrt(x))
            biq = rc.d * om ** 4 + rc.e * om ** 2 + rc.f
            cf = char_poly_coeffs(cfg, om)
            full = x ** 3 + cf.a * x ** 2 + cf.b * x + cf.c
            s = max(1.0, abs(rc.d) * om ** 4, abs(rc.e) * om ** 2, abs(rc.f))
            worst = max(worst, abs(biq) / s, abs(full) / s)
        return worst <= 1e-8, f"worst scaled root residual {worst:.3e}"

    _run("resonance_roots", chk_resonance, checks)

    def chk_nullspace():
        ok = null_dim() >= 3
        note = "" if null_dim() == 3 else " (degenerate config)"
        return ok, f"null dimension {null_dim()}{note}"

    _run("invariance_nullspace_rank", chk_nullspace, checks)

    def chk_invariant_residuals():
        # G_n scales as vscale^(n+1)
        vscale = max(1.0, float(np.max(np.abs(cfg.v))), cfg.omega ** 2)
        worst = max(
            invariance_residuals(g, cfg).worst / vscale ** (n + 1)
            for n, g in enumerate(forms())
        )
        return worst <= 1e-9, f"worst scaled residual {worst:.3e}"

    _run("invariant_residuals", chk_invariant_residuals, checks)

    if here.boundary:
        return VerificationReport(checks)
    if not here.label.startswith("S"):
        def chk_quantum_instability():
            try:
                stationary()
            except InInstabilityRegion as exc:
                return True, f"InInstabilityRegion raised: {exc}"
            return False, "stationary state built inside an instability region"

        _run("quantum_instability_detected", chk_quantum_instability, checks)
        return VerificationReport(checks)

    def chk_stationary():
        state = stationary()
        rhs = riccati_rhs(state.k, cfg)
        resid = float(np.max(np.abs(rhs)))
        kscale = max(1.0, float(np.max(np.abs(state.k))))
        min_eig = state.re_min_eig()
        ok = resid <= 1e-9 * kscale and min_eig > 0
        return ok, f"Riccati residual {resid:.3e}, min eig Re K {min_eig:.3e}"

    _run("stationary_riccati_residual", chk_stationary, checks)

    def chk_drift():
        omegas = np.abs(modes().omegas)
        t_fast = 2.0 * np.pi / omegas.max()
        t_slow = 2.0 * np.pi / max(omegas.min(), 1e-6)
        # capped, as the slowest mode freezes next to an exponential edge
        span = min(10.0 * t_slow, _DRIFT_FAST_PERIODS * t_fast)
        traj = linear_flow(cfg.dynamics_matrix, x0, span, t_fast / 400.0)
        worst = 0.0
        for g, terms, c_n in zip(forms(), mode_terms(), c_at_x0()):
            # trajectory_drift divides by 1 + |C_n(x0)|; rescale to the terms
            rescale = (1.0 + abs(c_n)) / (1.0 + sum(abs(t) for t in terms))
            worst = max(worst, trajectory_drift(g, traj) * rescale)
        capped = span < 10.0 * t_slow
        note = f", span capped at {_DRIFT_FAST_PERIODS} fast periods" if capped else ""
        return worst <= 1e-7, f"max scaled drift {worst:.3e}{note}"

    _run("trajectory_invariant_drift", chk_drift, checks)

    def chk_energy_split():
        worst = 0.0
        for terms, c_n in zip(mode_terms(), c_at_x0()):
            gap = abs(c_n - sum(terms))
            worst = max(worst, gap / max(1.0, sum(abs(t) for t in terms)))
        return worst <= 1e-9, f"worst scaled |C_n - sum omega_k^2n E_k| = {worst:.3e}"

    _run("amplitude_energy_sum", chk_energy_split, checks)

    def chk_wigner_span():
        if null_dim() != 3:
            return None  # G0..G2 span the invariants only when there are 3
        dec = wigner_decompose_into_invariants(wigner_form(stationary().k), forms())
        return dec.residual <= 1e-8, f"span residual {dec.residual:.3e}"

    _run("wigner_invariant_span", chk_wigner_span, checks)
    return VerificationReport(checks)
