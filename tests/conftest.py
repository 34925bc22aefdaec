"""Shared builders for the test suite.

The figure configs (all with V = diag(1,2,3)) and seeded random-config
generators used by several test modules. Tolerances live in the tests
themselves, next to the assertions they govern.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

from rototrap import (
    eigenmodes,
    exponential_window,
    krein_sign,
    make_config,
    planar_stationary_K,
    region_map,
)
from rototrap.invariants import _triple_form

# property tests draw the same examples on every run and keep no database.
# Drawing a config builds its region map (about 50 ms), so the slow-draw
# health check would trip on a slow host, and shrinking a failure would take
# minutes: a failure reports the example as drawn.
settings.register_profile(
    "rototrap",
    derandomize=True,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("rototrap")

V123 = np.diag([1.0, 2.0, 3.0])


def tilted_axis(theta):
    """Unit axis in the xz-plane at angle theta from z."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def diagonal_axis():
    return np.ones(3) / np.sqrt(3.0)


def fig1_config(omega=1.0):
    return make_config(V123, diagonal_axis(), omega)


def fig2_config(omega=0.5):
    return make_config(V123, [0.0, 0.0, 1.0], omega)


def fig3_config(omega=0.5):
    return make_config(V123, tilted_axis(0.1), omega)


def fig4_config(omega=0.5):
    return make_config(V123, tilted_axis(2.0 * np.pi / 5.0), omega)


def fig5_config(omega=0.5):
    return make_config(V123, tilted_axis(np.pi / 4.0), omega)


def fig6_config(omega=0.5):
    return make_config(V123, tilted_axis(np.pi / 60.0), omega)


FIGURE_CONFIGS = (fig1_config, fig2_config, fig3_config, fig4_config, fig5_config, fig6_config)
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_potential(rng, lo=0.2, hi=3.0, min_gap=0.0, rotated=True):
    """Positive-definite V with eigenvalues in [lo, hi]."""
    while True:
        vals = np.sort(rng.uniform(lo, hi, size=3))
        if np.min(np.diff(vals)) >= min_gap:
            break
    if not rotated:
        return np.diag(vals)
    q = random_rotation(rng)
    return q @ np.diag(vals) @ q.T


def random_axis(rng):
    while True:
        n = rng.standard_normal(3)
        norm = np.linalg.norm(n)
        if norm > 1e-3:
            return n / norm


def random_config(rng, omega=None, min_gap=0.0):
    if omega is None:
        omega = float(rng.uniform(0.0, 3.0))
    return make_config(
        random_potential(rng, min_gap=min_gap), random_axis(rng), omega
    )


def omega_inside(lab, frac, span_cap=3.0):
    """A rotation rate at relative position frac inside a region interval."""
    lo, hi = lab.lo, lab.hi
    if not np.isfinite(hi):
        hi = lo + span_cap
    return lo + frac * (hi - lo)


def sample_region_omegas(cfg, region, count, rng, margin=0.05):
    """Rotation rates strictly inside one region of cfg's partition."""
    rmap = region_map(cfg)
    lab = next((l for l in rmap.labels() if l.label == region), None)
    if lab is None:
        return []
    fracs = rng.uniform(margin, 1.0 - margin, size=count)
    return [omega_inside(lab, f) for f in fracs]


def same_sign_crossing_rates(vals, n):
    """Rates where two modes of equal Krein sign cross, rotating about axis n.

    V = diag(vals) rotates about its n-th principal axis, whose mode keeps
    omega^2 = v_n; an in-plane mode reaches it where x = Omega^2 solves
    x^2 - (va + vb + 2 v_n) x + (v_n - va)(v_n - vb) = 0. A root is kept
    when it lies outside the exponential window and the two colliding
    omega > 0 modes share a Krein sign at Omega_c (1 + 1e-3).
    """
    vn, va, vb = vals[n], vals[(n + 1) % 3], vals[(n + 2) % 3]
    big = 0.5 * (va + vb + 2.0 * vn + np.sqrt((va - vb) ** 2 + 8.0 * vn * (va + vb)))
    rates = []
    for x in (big, (vn - va) * (vn - vb) / big):
        if x <= 0.0:
            continue
        cfg = make_config(np.diag(vals), np.eye(3)[n], float(np.sqrt(x)))
        lo, hi = exponential_window(cfg)
        if lo <= cfg.omega <= hi:
            continue
        om, vec = eigenmodes(cfg.with_omega(cfg.omega * (1.0 + 1e-3)).dynamics_matrix)
        pos = np.flatnonzero(om.real > 0)
        near = pos[np.argsort(np.abs(om[pos] - np.sqrt(vn)), kind="stable")[:2]]
        if np.prod(krein_sign(vec[:, near])) > 0:
            rates.append(cfg.omega)
    return rates


# the relative offsets from a crossing rate that the crossing tests visit
CROSSING_DELTAS = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 1e-7, -1e-7, 1e-6, -1e-6)


def planar_wigner_weights(vx, vy, omega):
    """Closed-form weights of the planar stationary Wigner exponent on (G0, G1).

    With alpha, beta from planar_stationary_K, the exponent is
    w = k1 C1 + k2 C2_2D for

        k1 = 2 (beta Vy - alpha Vx) / (alpha beta (Vy - Vx)),
        k2 = 2 (alpha - beta) / (alpha beta (Vy - Vx)),

    and C1 = G0, C2_2D = G1 - 3 Omega^2 G0 make that (k1 - 3 Omega^2 k2) G0
    + k2 G1. The forms degenerate to 0/0 on a symmetric trap (Vx = Vy).
    """
    psk = planar_stationary_K(vx, vy, 1.0, omega)
    al, be = psk.alpha, psk.beta
    k1 = 2.0 * (be * vy - al * vx) / (al * be * (vy - vx))
    k2 = 2.0 * (al - be) / (al * be * (vy - vx))
    return np.array([k1 - 3.0 * omega * omega * k2, k2])


def displayed_c3(cfg):
    """The form G of the third invariant's closed form, exactly as displayed (3D).

    It does not solve the defining equations; the tests keep that on record.
    """
    v = cfg.v
    wm = cfg.omega_matrix
    o2 = wm @ wm
    om2 = cfg.omega ** 2
    trv = float(np.trace(v))
    t = (
        3.0 * v @ v
        + 4.0 * o2 @ v
        + 4.0 * v @ o2
        + wm @ v @ wm
        + 8.0 * om2 * v
        - 13.0 * trv * (om2 * np.eye(3) - o2)
    )
    u = (
        3.0 * v @ v @ v
        - 2.0 * v @ o2 @ o2
        - 2.0 * o2 @ o2 @ v
        + 3.0 * o2 @ v @ o2
        - om2 * wm @ v @ wm
        - 3.0 * v @ v @ o2
        - 3.0 * o2 @ v @ v
        - 3.0 * wm @ v @ v @ wm
        - 9.0 * v @ o2 @ v
        - 6.0 * v @ wm @ v @ wm
        - 6.0 * wm @ v @ wm @ v
        - 5.0 * om2 * v @ v
        + 13.0 * float(np.trace(v @ o2)) * v
    )
    w = (
        -2.0 * wm @ o2 @ o2
        - 2.0 * v @ wm @ o2
        + 2.0 * wm @ o2 @ v
        + 7.0 * o2 @ v @ wm
        + 4.0 * wm @ v @ o2
        + 3.0 * wm @ v @ v
        + 6.0 * v @ wm @ v
        + 6.0 * v @ v @ wm
    )
    return _triple_form(t, u, w)


@st.composite
def hard_configs(draw):
    """A config biased toward hard cases, at a rate inside a drawn region.

    V may be isotropic or axis-degenerate and the tilt may sit below 1e-4;
    the region is any of the config's partition, stable or unstable.
    """
    vals = draw(st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3))
    shape = draw(st.sampled_from(["generic", "axis_degenerate", "isotropic"]))
    if shape == "axis_degenerate":
        vals[1] = vals[0]
    elif shape == "isotropic":
        vals = [vals[0]] * 3
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        axis = tilted_axis(draw(st.floats(0.0, 1e-4)))
        v = np.diag(vals)
    else:
        axis = random_axis(rng)
        q = random_rotation(rng)
        v = q @ np.diag(vals) @ q.T
    cfg = make_config(v, axis, 0.0)
    labels = region_map(cfg).labels()
    lab = labels[draw(st.integers(0, len(labels) - 1))]
    return cfg.with_omega(omega_inside(lab, draw(st.floats(0.05, 0.95))))


@pytest.fixture
def rng():
    return np.random.default_rng(987123)
