"""Seeded input generation for the benchmark workloads.

Everything here uses numpy only, never rototrap: the inputs a workload
feeds the library, and the reference quantities its checks need that must
not come from the code under test, are computed from the closed forms
below. The same seed gives the same inputs on every commit, and
``digest`` fingerprints them so two runs can show they used identical
inputs.

In x = Omega^2 the characteristic cubic chi^3 + A chi^2 + B chi + C has

    A = -2 x - TrV
    B = x^2 + x (3 n.V.n - TrV) + ((TrV)^2 - TrV^2) / 2
    C = -n.V.n x^2 + (TrV n.V.n - n.V^2.n) x - DetV

so the exponential window is the pair of roots of C(x) and the oscillatory
window the stretch above it where the cubic discriminant, a degree-5
polynomial in x, is negative.
"""

import hashlib
import json

import numpy as np
from numpy.polynomial import Polynomial as P

V123 = np.diag([1.0, 2.0, 3.0])

# criterion-6 geometry: axis tilted 0.35 rad from z in the xz-plane
FORCED_TILT = 0.35
# criterion-9 route-pair configs: (axis tilt from z, or "diag"; Omega)
RICCATI_CONFIGS = (("fig2", 0.0, 0.5), ("fig3", 0.1, 0.5), ("fig1", "diag", 0.9))
RICCATI_T_END = 10.0
RICCATI_DT = 4e-3
FORCED_PERIODS = 50.0

# chart: tilt sweep of V = diag(1, 2, 3), log-spaced below 0.1 rad; the
# narrow oscillatory windows at the smallest tilts are thinner than a
# region_map grid step
CHART_TILTS = (
    [0.0]
    + [float(t) for t in np.logspace(-5.0, -1.0, 7)]
    + [float(t) for t in np.linspace(0.1, np.pi / 2.0, 5)[1:]]
)
CHART_RANDOM = 6
CHART_GRID = (0.0, 4.0, 200)
ZOOM_POINTS = 101

# survey: configs per category; each config gets seven CLI calls
SURVEY_MIX = (
    ("stable", 5),
    ("unstable", 4),
    ("exp_edge", 1),
    ("osc_edge", 2),
    ("narrow_window", 2),
    ("small_tilt", 1),
)
# verify's drift check runs 4000 * omega_max / omega_min RK4 steps on
# every config that region_map calls stable, so those rates are drawn with
# that ratio inside this band to keep the per-pass cost the same from seed
# to seed; stable rates next to an exponential edge, where omega_min -> 0,
# are left out for the same reason
SURVEY_RATIO_BAND = (1.5, 2.5)
# axis tilts of the narrow-window cases: their windows are 30x or more
# thinner than region_map's grid step
NARROW_TILTS = (1e-5, 5e-5)
SURVEY_OMEGA_MAX = 2.0
EDGE_OFFSET = 1e-6


def tilted_axis(theta):
    """Unit axis in the xz-plane at angle theta from z."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_potential(rng, lo=0.3, hi=3.0, min_gap=0.15):
    """Rotated positive-definite V with well separated eigenvalues."""
    while True:
        vals = np.sort(rng.uniform(lo, hi, size=3))
        if np.min(np.diff(vals)) >= min_gap:
            break
    q = random_rotation(rng)
    v = q @ np.diag(vals) @ q.T
    return 0.5 * (v + v.T)


def random_axis(rng):
    n = rng.standard_normal(3)
    return n / np.linalg.norm(n)


def cubic_polys(v, n):
    """A, B, C of the characteristic cubic as polynomials in x = Omega^2."""
    tr = float(np.trace(v))
    tr2 = float(np.trace(v @ v))
    nvn = float(n @ v @ n)
    nv2n = float(n @ v @ v @ n)
    det = float(np.linalg.det(v))
    a = P([-tr, -2.0])
    b = P([0.5 * (tr * tr - tr2), 3.0 * nvn - tr, 1.0])
    c = P([-det, tr * nvn - nv2n, -nvn])
    return a, b, c


def _disc_terms(a, b, c):
    return (18.0 * a * b * c, -4.0 * a ** 3 * c, a * a * b * b, -4.0 * b ** 3, -27.0 * c * c)


def _disc_negative(a, b, c, x):
    # the sign test oscillatory_window uses: negative beyond 1e-12 of the
    # largest term
    terms = _disc_terms(float(a(x)), float(b(x)), float(c(x)))
    scale = max([1.0] + [abs(t) for t in terms])
    return sum(terms) < -1e-12 * scale


def windows(v, n):
    """Exponential edges (Omega-, Omega+) and the oscillatory window or None.

    The oscillatory edges are the real roots of the degree-5 discriminant
    above Omega+^2, each polished by bisection on the term-wise
    discriminant to 1e-14 relative.
    """
    a, b, c = cubic_polys(v, n)
    xr = np.sort(np.real(c.roots()))
    om_minus, om_plus = float(np.sqrt(max(xr[0], 0.0))), float(np.sqrt(xr[1]))
    disc = sum(_disc_terms(a, b, c), P([0.0]))  # degree 5: the x^6 terms cancel
    roots = disc.roots()
    xs = sorted(
        float(r.real)
        for r in roots
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > om_plus ** 2 * (1.0 + 1e-12)
    )
    osc = None
    for lo, hi in zip(xs, xs[1:]):
        if _disc_negative(a, b, c, 0.5 * (lo + hi)):
            edges = [_polish(a, b, c, lo), _polish(a, b, c, hi)]
            osc = (float(np.sqrt(edges[0])), float(np.sqrt(edges[1])))
            break
    return om_minus, om_plus, osc


def _polish(a, b, c, x):
    # bracket the sign change of the discriminant around x and bisect
    step = 1e-9 * max(1.0, x)
    lo, hi = x - step, x + step
    for _ in range(60):
        if _disc_negative(a, b, c, lo) != _disc_negative(a, b, c, hi):
            break
        lo, hi = x - 2.0 * (x - lo), x + 2.0 * (hi - x)
    neg_hi = _disc_negative(a, b, c, hi)
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _disc_negative(a, b, c, mid) == neg_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _abs_chi(v, n, omega):
    a, b, c = cubic_polys(v, n)
    x = omega * omega
    return np.abs(np.roots([1.0, a(x), b(x), c(x)]))


def mode_frequency_ratio(v, n, omega):
    """max |omega| / min |omega| over the modes, from |chi| = |omega|^2."""
    chi = _abs_chi(v, n, omega)
    return float(np.sqrt(np.max(chi) / np.min(chi)))


def max_mode_frequency(v, n, omega):
    return float(np.sqrt(np.max(_abs_chi(v, n, omega))))


def config_doc(v, n, omega):
    """JSON-shaped config as the CLI reads it."""
    return {
        "potential": {"matrix": [[float(x) for x in row] for row in v]},
        "axis": [float(x) for x in n],
        "omega": float(omega),
    }


def _interior(lo, hi, frac):
    return lo + frac * (hi - lo)


def chart_inputs(seed):
    """Tilt sweep of diag(1, 2, 3) plus seeded random traps.

    Each entry carries the closed-form windows its checks and zoom scan
    rely on; the zoom grid spans the oscillatory window with half its
    width of margin on either side.
    """
    rng = np.random.default_rng([seed, 1])
    cases = [("tilt_%.3g" % t, V123, tilted_axis(t)) for t in CHART_TILTS]
    for i in range(CHART_RANDOM):
        cases.append((f"random_{i}", random_potential(rng), random_axis(rng)))
    out = []
    for name, v, n in cases:
        om_minus, om_plus, osc = windows(v, n)
        zoom = None
        if osc is not None:
            w = osc[1] - osc[0]
            zoom = (osc[0] - 0.5 * w, osc[1] + 0.5 * w, ZOOM_POINTS)
        out.append(
            {
                "name": name,
                "config": config_doc(v, n, 1.0),
                "edges": [om_minus, om_plus],
                "oscillatory": None if osc is None else list(osc),
                "zoom": None if zoom is None else list(zoom),
            }
        )
    return {"grid": list(CHART_GRID), "cases": out}


def evolve_inputs(seed):
    """Criterion-6 forced runs and criterion-9 Riccati route pairs.

    The seed picks the direction of the transverse gravity and the
    perturbations of the stationary K; step counts do not depend on it.
    """
    rng = np.random.default_rng([seed, 2])
    n = tilted_axis(FORCED_TILT)
    e1 = np.array([np.cos(FORCED_TILT), 0.0, -np.sin(FORCED_TILT)])
    e2 = np.cross(n, e1)
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    g = np.cos(phi) * e1 + np.sin(phi) * e2
    riccati = []
    for name, tilt, omega in RICCATI_CONFIGS:
        axis = np.ones(3) / np.sqrt(3.0) if tilt == "diag" else tilted_axis(tilt)
        re = rng.uniform(-0.1, 0.1, (3, 3))
        im = rng.uniform(-0.05, 0.05, (3, 3))
        riccati.append(
            {
                "name": name,
                "config": config_doc(V123, axis, omega),
                "dk_re": ((re + re.T) / 2.0).tolist(),
                "dk_im": (0.5 * (im + im.T)).tolist(),
            }
        )
    return {
        "forced": {
            "config": config_doc(V123, n, 0.5),
            "gravity": g.tolist(),
            "periods": FORCED_PERIODS,
            "detune": 1.1,
        },
        "riccati": riccati,
        "t_end": RICCATI_T_END,
        "dt": RICCATI_DT,
    }


def _survey_case(rng, kind, index):
    while True:
        if kind in ("narrow_window", "small_tilt"):
            vals = np.sort(rng.uniform(0.3, 3.0, size=3))
            if np.min(np.diff(vals)) < 0.15:
                continue
            v = np.diag(vals)
            lo, hi = NARROW_TILTS if kind == "narrow_window" else (1e-5, 1e-3)
            tilt = float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))
            phi = float(rng.uniform(0.0, 2.0 * np.pi))
            n = np.array([np.sin(tilt) * np.cos(phi), np.sin(tilt) * np.sin(phi), np.cos(tilt)])
        else:
            v, n = random_potential(rng), random_axis(rng)
        om_minus, om_plus, osc = windows(v, n)
        frac = float(rng.uniform(0.15, 0.85))
        if kind == "stable":
            regions = [(0.0, om_minus), (om_plus, om_plus + 2.0)]
            if osc is not None:
                regions = [(0.0, om_minus), (om_plus, osc[0]), (osc[1], osc[1] + 2.0)]
            lo, hi = regions[int(rng.integers(len(regions)))]
            omega = _interior(lo, hi, frac)
        elif kind == "unstable":
            if osc is None or rng.uniform() < 0.5:
                omega = _interior(om_minus, om_plus, frac)
            else:
                omega = _interior(osc[0], osc[1], frac)
        elif kind == "exp_edge":
            edge = om_minus if rng.uniform() < 0.5 else om_plus
            omega = edge * (1.0 + EDGE_OFFSET if edge == om_minus else 1.0 - EDGE_OFFSET)
        elif kind == "osc_edge":
            # the first case sits on the stable side of its edge, the second
            # inside the window
            if osc is None:
                continue
            k = int(rng.integers(2))
            inward = 1.0 if k == 0 else -1.0
            side = -inward if index == 0 else inward
            omega = osc[k] * (1.0 + EDGE_OFFSET * side)
        elif kind == "narrow_window":
            if osc is None:
                continue
            omega = _interior(osc[0], osc[1], frac)
        else:  # small_tilt at a generic stable rate
            omega = _interior(0.0, om_minus, frac)
        may_look_stable = kind in ("stable", "small_tilt", "narrow_window") or (
            kind == "osc_edge" and not osc[0] < omega < osc[1]
        )
        if may_look_stable:
            ratio = mode_frequency_ratio(v, n, omega)
            if not SURVEY_RATIO_BAND[0] <= ratio <= SURVEY_RATIO_BAND[1]:
                continue
        # rescale time so the fastest mode has |omega| = SURVEY_OMEGA_MAX:
        # the CLI's default step, and so each call's step count, then no
        # longer depends on the seed
        scale = SURVEY_OMEGA_MAX / max_mode_frequency(v, n, omega)
        return scale * scale * v, n, scale * omega


def survey_inputs(seed):
    """Seeded random traps for the CLI survey, with deliberately hard cases.

    exp_edge sits 1e-6 inside the exponential window, osc_edge 1e-6 from
    an oscillatory edge (once outside the window, once inside), narrow_window inside the window of
    an axis tilted 1e-5 .. 5e-5 rad off a principal axis, small_tilt at a
    stable rate of an axis tilted 1e-5 .. 1e-3 rad.
    """
    rng = np.random.default_rng([seed, 3])
    cases = []
    for kind, count in SURVEY_MIX:
        for i in range(count):
            v, n, omega = _survey_case(rng, kind, i)
            cases.append({"name": f"{kind}_{i}", "config": config_doc(v, n, omega)})
    return {"cases": cases}


GENERATORS = {"chart": chart_inputs, "evolve": evolve_inputs, "survey": survey_inputs}


def generate(workload, seed):
    return GENERATORS[workload](int(seed))


def digest(inputs):
    """SHA-256 of the canonical JSON of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resonance_biquadratic(v, n):
    """D, E, F of D x^2 + E x + F, the omega = Omega section of the cubic."""
    tr = float(np.trace(v))
    nvn = float(n @ v @ n)
    nv2n = float(n @ v @ v @ n)
    d = -2.0 * (tr - nvn)
    e = 0.5 * (tr * tr - float(np.trace(v @ v))) + tr * nvn - nv2n
    return d, e, -float(np.linalg.det(v))
