"""Stability analysis of the rotating trap.

The squared mode frequencies chi = omega^2 are roots of the cubic
Q(chi) = chi^3 + A chi^2 + B chi + C. Stability is read off the root
pattern: three positive real roots mean bounded motion, a negative real
root means exponential runaway, a complex pair means oscillatory
instability. Exponential windows follow from the zeros of C(Omega), the
oscillatory window from the sign of the cubic discriminant; together they
cut the Omega axis into the regions S1, I1, S2, I2, S3.
"""

import math
from itertools import chain, permutations
from typing import NamedTuple, Optional

import numpy as np

from .errors import AmbiguousClassification, BracketTooSmall, NumericError
from .numerics import OmegaRange
from .trap import char_poly_coeffs

__all__ = [
    "STABLE",
    "EXPONENTIAL",
    "OSCILLATORY",
    "StabilityClass",
    "WindowCoeffs",
    "RegionLabel",
    "RegionMap",
    "ScanTable",
    "solve_cubic",
    "classify_chi_roots",
    "default_classify_tol",
    "window_coeffs",
    "exponential_window",
    "cubic_discriminant",
    "oscillatory_window",
    "region_map",
    "region_of",
    "stability_scan",
]

STABLE = "Stable"
EXPONENTIAL = "ExponentialInstability"
OSCILLATORY = "OscillatoryInstability"

REGION_ORDER = ("S1", "I1", "S2", "I2", "S3")


class StabilityClass(NamedTuple):
    """Classification label plus the offending root index when unstable."""

    label: str
    root_index: Optional[int] = None


class WindowCoeffs(NamedTuple):
    """Coefficients of C(Omega) = -a Omega^4 + b Omega^2 - c."""

    a: float
    b: float
    c: float


class RegionLabel(NamedTuple):
    """Region name with the Omega interval it occupies.

    ``boundary`` marks a query that sat within tolerance of a window edge;
    such points report the instability side.
    """

    label: str
    lo: float
    hi: float
    boundary: bool = False

    def __str__(self):
        return self.label + ("*" if self.boundary else "")


def solve_cubic(coeffs):
    """Roots of chi^3 + A chi^2 + B chi + C, as a read-only (3,) complex array.

    Companion-matrix eigenvalues followed by one guarded Newton step per
    root: the companion route is robust near double roots where the closed
    formulas cancel catastrophically, and the polish restores the last
    digits. Conjugate closure of the output is enforced exactly. The roots
    are sorted by (real part, imaginary part). A non-finite coefficient,
    as when Omega^4 overflows a float past Omega ~ 1.2e77, raises
    NumericError.
    """
    a, b, c = float(coeffs[0]), float(coeffs[1]), float(coeffs[2])
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise NumericError(f"cubic coefficients not finite: A={a}, B={b}, C={c}")

    def q(x):
        return ((x + a) * x + b) * x + c

    def dq(x):
        return (3.0 * x + 2.0 * a) * x + b

    comp = np.array([[0.0, 0.0, -c], [1.0, 0.0, -b], [0.0, 1.0, -a]])
    raw = np.linalg.eigvals(comp).tolist()

    def polish(x):
        d = dq(x)
        if d != 0:
            x2 = x - q(x) / d
            if abs(q(x2)) < abs(q(x)):
                return x2
        return x

    # real roots are polished in Python floats, which round as numpy's do;
    # a complex root keeps numpy's complex arithmetic, whose division does not
    real = [r.real for r in raw if r.imag == 0.0]
    cplx = [np.complex128(r) for r in raw if r.imag > 0.0]
    out = [complex(polish(r)) for r in real]
    for r in cplx:
        z = polish(r)
        out += [z, z.conjugate()]
    out.sort(key=_real_imag)  # stable: equal roots keep their order
    out = np.array(out)
    out.setflags(write=False)
    return out


def _real_imag(z):
    return z.real, z.imag


def default_classify_tol(coeffs):
    """Scale-aware classification tolerance 1e-9 max(1, |A|, |B|, |C|)."""
    return 1e-9 * max(1.0, abs(coeffs[0]), abs(coeffs[1]), abs(coeffs[2]))


def classify_chi_roots(roots, tol):
    """Stability class from the chi root pattern.

    A root counts as real when |Im chi| < max(tol, 1e-9 (1 + |chi|)). Roots
    within tol of zero, or with an imaginary part too close to that
    threshold to call (within 1e4x of it), raise AmbiguousClassification:
    the point sits on a region boundary and the caller must refine or
    accept boundary status.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rts = np.asarray(roots).tolist()
    real_idx = []
    for i, r in enumerate(rts):
        im_tol = max(tol, 1e-9 * (1.0 + abs(r)))
        if abs(r.imag) < im_tol:
            real_idx.append(i)
        elif abs(r.imag) < 1e4 * im_tol:
            raise AmbiguousClassification(
                f"root {r:.6g} too close to the real axis to classify",
                side="oscillatory",
                root_index=i,
            )
    if len(real_idx) < 3:
        idx = next(i for i in range(3) if i not in real_idx)
        return StabilityClass(OSCILLATORY, idx)
    for i in real_idx:
        if abs(rts[i].real) <= tol:
            raise AmbiguousClassification(
                f"root {rts[i].real:.6g} within tolerance of zero",
                side="exponential",
                root_index=i,
            )
    neg = [i for i in real_idx if rts[i].real < -tol]
    if neg:
        return StabilityClass(EXPONENTIAL, neg[0])
    return StabilityClass(STABLE)


def _real_quadratic_roots(a, b, c):
    """Sorted roots of a x^2 + b x + c, a != 0, for x = Omega^2.

    For callers whose roots are real in exact arithmetic: b^2 - 4ac within
    its rounding, 16 eps max(b^2, |4ac|), counts as 0, so an exact double
    root stays double and roots closer than 1.2e-7 relative merge.
    """
    disc = b * b - 4.0 * a * c
    if disc < 16.0 * np.finfo(float).eps * max(b * b, abs(4.0 * a * c)):
        disc = 0.0
    s = np.sqrt(disc)
    return sorted([(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)])


def window_coeffs(cfg):
    """a = n.V.n, b = TrV (n.V.n) - n.V^2.n, c = Det V; all positive."""
    inv = cfg.invariants
    return WindowCoeffs(inv.nvn, inv.tr * inv.nvn - inv.nv2n, inv.det)


def exponential_window(cfg):
    """Edges (Omega-, Omega+) of the exponential instability window.

    Omega+-^2 = (b -+ sqrt(b^2 - 4ac)) / (2a); the discriminant is
    nonnegative for positive-definite V, so the edges are always real. For
    V axisymmetric about the axis it is 0 and the window is the point
    sqrt(v_perp); a window under about 6e-8 relative collapses likewise.
    """
    a, b, c = window_coeffs(cfg)
    om_minus_sq, om_plus_sq = _real_quadratic_roots(a, -b, c)
    return float(np.sqrt(max(om_minus_sq, 0.0))), float(np.sqrt(om_plus_sq))


def cubic_discriminant(a, b, c):
    """Discriminant of chi^3 + a chi^2 + b chi + c (negative iff complex pair)."""
    return _disc_terms(a, b, c)[0]


def _disc_terms(a, b, c):
    """The cubic discriminant and the sizes of its five terms.

    Elementwise on arrays and plain on floats, with one sequence of float
    operations for both: products only, no powers, because numpy's power
    loop and libm's pow round differently. So a grid flag and a bisection
    step at the same rate agree bit for bit.
    """
    abc = 18.0 * a * b * c
    a3c = 4.0 * (a * a * a) * c
    b3 = 4.0 * (b * b * b)
    cc = 27.0 * c * c
    ab = a * b
    disc = abc - a3c + a * a * b * b - b3 - cc
    return disc, abs(abc), abs(a3c), ab * ab, abs(b3), cc


def _disc_at(cfg, om):
    """(discriminant, term scale) at one rate, for bisection."""
    disc, *terms = _disc_terms(*char_poly_coeffs(cfg.with_omega(om)))
    return disc, max(1.0, *terms)


def _default_bracket(cfg, om_plus):
    stop = om_plus + 2.0 * float(np.sqrt(np.trace(cfg.v))) + 1.0
    return OmegaRange(0.0, stop, 2001)


def oscillatory_window(cfg):
    """Interval above Omega+ where Q has a complex pair, or None.

    Located from the sign of the cubic discriminant: a coarse scan over the
    trap's one bracket (2001 points up to Omega+ + 2 sqrt(TrV) + 1) finds
    the negative stretch, bisection then sharpens both edges to 1e-10
    relative; a window narrower than the bracket's step is missed. The
    discriminant counts as negative only below a term-scale-relative
    threshold, so double-root boundaries do not flicker. Raises
    BracketTooSmall when the discriminant is still negative at the
    bracket end, since then the window is not closed.

    Cost: one char_poly_coeffs call per grid rate above Omega+ (about
    1,660 on a typical trap) and one per bisection step, a shape the
    benchmark's trace pins. Each rate's work in Python is that call and
    its with_omega; the grid's discriminants, scales and flags are one
    array expression over the collected coefficients. About 3.5 ms a call
    (numpy 2.4, a 2-core x86-64 host).
    """
    _, om_plus = exponential_window(cfg)
    grid = _default_bracket(cfg, om_plus).values()
    grid = grid[grid > om_plus * (1.0 + 1e-12)]
    if len(grid) == 0:
        return None

    coeffs = np.fromiter(
        chain.from_iterable(char_poly_coeffs(cfg.with_omega(om)) for om in grid.tolist()),
        float,
        3 * len(grid),
    ).reshape(-1, 3)
    d, *terms = _disc_terms(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2])
    flags = d < -1e-12 * np.maximum(1.0, np.maximum.reduce(terms))
    if not flags.any():
        return None
    if flags[-1]:
        raise BracketTooSmall(
            f"discriminant still negative at Omega = {grid[-1]:.6g}; widen bracket"
        )
    first = int(np.argmax(flags))
    last = first
    while last + 1 < len(flags) and flags[last + 1]:
        last += 1

    def is_neg(om):
        d, scale = _disc_at(cfg, om)
        return d < -1e-12 * scale

    def bisect(lo, hi, want_neg_hi):
        # invariant: exactly one edge of [lo, hi] is inside the window
        while hi - lo > 1e-10 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if is_neg(mid) == want_neg_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    lo_out = om_plus if first == 0 else grid[first - 1]
    om_a = bisect(lo_out, grid[first], want_neg_hi=True)
    om_b = bisect(grid[last], grid[last + 1], want_neg_hi=False)
    return float(om_a), float(om_b)


class RegionMap:
    """The partition of the Omega axis into S1, I1, S2, I2, S3.

    Window edges belong to the instability side and queries within
    tolerance of an edge come back flagged as boundary points, keeping
    scan output deterministic.
    """

    def __init__(self, om_minus, om_plus, oscillatory=None):
        self.om_minus = float(om_minus)
        self.om_plus = float(om_plus)
        self.oscillatory = (
            None if oscillatory is None else (float(oscillatory[0]), float(oscillatory[1]))
        )
        cuts = [0.0, self.om_minus, self.om_plus, *(self.oscillatory or ()), np.inf]
        self._labels = [
            RegionLabel(name, lo, hi) for name, lo, hi in zip(REGION_ORDER, cuts, cuts[1:])
        ]
        # (edge, boundary label of the window it bounds), in check order
        self._edges = [
            (edge, lab._replace(boundary=True))
            for lab in self._labels
            if lab.label in ("I1", "I2")
            for edge in (lab.lo, lab.hi)
        ]

    def labels(self):
        """Ordered list of RegionLabel intervals covering [0, inf)."""
        return list(self._labels)

    def locate(self, omega):
        omega = float(omega)
        if not omega >= 0:  # NaN too
            raise ValueError("omega must be >= 0")
        for edge, lab in self._edges:
            if abs(omega - edge) <= 1e-9 * (1.0 + edge):
                return lab
        for lab in self._labels:
            if lab.lo <= omega < lab.hi:
                return lab
        return self._labels[-1]


def region_map(cfg):
    """The trap's one region partition, computed once for repeated lookups.

    boundaries, resonance, verify and stability_scan all read this map. It
    depends on V and the axis alone, at a resolution fixed by
    oscillatory_window's bracket and not by any scan grid, so a window
    narrower than that bracket's step is missed alike everywhere.
    """
    om_minus, om_plus = exponential_window(cfg)
    return RegionMap(om_minus, om_plus, oscillatory_window(cfg))


def region_of(cfg, omega):
    """Region label at a single rotation rate."""
    return region_map(cfg).locate(omega)


# every branch order, in permutations() order: a tie goes to the first
_PERMS = tuple(permutations(range(3)))


class ScanTable:
    """One row per grid Omega: matched chi roots, class, and region.

    ``chis[i]`` keeps branch identity along the grid (nearest match to a
    secant prediction from the previous rows), so columns are continuous
    curves. ``warnings`` records region orderings that break the expected
    S1 < I1 < S2 < I2 < S3 sequence.
    """

    CSV_HEADER = "omega,chi1_re,chi1_im,chi2_re,chi2_im,chi3_re,chi3_im,class,region"

    def __init__(self, omegas, chis, classes, regions, warnings=()):
        self.omegas = np.asarray(omegas, dtype=float)
        self.chis = np.asarray(chis, dtype=complex)
        self.classes = list(classes)
        self.regions = list(regions)
        self.warnings = list(warnings)

    def __len__(self):
        return len(self.omegas)

    def rows(self):
        """One CSV line per grid point (no newline), numbers as fmt17 writes them."""
        chis = np.stack([self.chis.real, self.chis.imag], axis=-1).reshape(-1, 6)
        row = ",".join(["{:.17g}"] * 7) + ",{},{}"
        nums = np.column_stack([self.omegas, chis]).tolist()
        return [row.format(*v, c, r) for v, c, r in zip(nums, self.classes, self.regions)]

    def to_csv(self):
        return "\n".join([self.CSV_HEADER] + self.rows()) + "\n"


def _closest_order(roots, pred):
    """The order of roots nearest pred in summed squared distance.

    dist[j][k] = |roots[j] - pred[k]|^2; an order's cost sums its three
    entries left to right, and a strict < keeps the first of equal costs.
    """
    dist = (np.abs(roots[:, None] - pred) ** 2).tolist()
    best, best_cost = None, None
    for order in _PERMS:
        j, k, m = order
        cost = dist[j][0] + dist[k][1] + dist[m][2]
        if best is None or cost < best_cost:
            best, best_cost = order, cost
    return list(best)


def stability_scan(cfg, omega_grid):
    """Scan chi branches, classes, and regions over a grid of Omega.

    One pass over the grid: at each point the cubic is solved and
    classified, and its roots are assigned to branches by minimizing the
    distance to a secant extrapolation of the previous two rows. Regions
    come from region_map(cfg), whose resolution does not depend on the grid.

    Cost: one region_map, then per grid point one char_poly_coeffs and one
    solve_cubic call, a shape the benchmark's trace pins. The solve's 3x3
    eigvals takes most of a point's time; the branch match reads a 3x3
    table of squared root-to-prediction distances and tries the 6 orders
    in Python. About 12 ms for 200 points, 3.5 ms of it the region map
    (numpy 2.4, a 2-core x86-64 host).
    """
    if isinstance(omega_grid, OmegaRange):
        grid = omega_grid.values()
    else:
        grid = np.asarray(omega_grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
            raise ValueError("omega grid must be strictly increasing, length >= 2")

    rmap = region_map(cfg)
    n = len(grid)
    chis = np.empty((n, 3), dtype=complex)
    classes = []
    regions = []
    for i, om in enumerate(grid):
        coeffs = char_poly_coeffs(cfg.with_omega(om))
        roots = solve_cubic(coeffs)
        try:
            label = classify_chi_roots(roots, default_classify_tol(coeffs)).label
        except AmbiguousClassification as amb:
            label = (EXPONENTIAL if amb.side == "exponential" else OSCILLATORY) + "*"
        if i == 0:
            chis[0] = roots
        else:
            pred = chis[i - 1] if i == 1 else 2.0 * chis[i - 1] - chis[i - 2]
            chis[i] = roots[_closest_order(roots, pred)]
        classes.append(label)
        regions.append(str(rmap.locate(om)))

    warnings = []
    seen = [r.rstrip("*") for r in regions]
    order = {lab: k for k, lab in enumerate(REGION_ORDER)}
    for i in range(1, n):
        if order[seen[i]] < order[seen[i - 1]]:
            warnings.append(
                f"region order violation at omega={grid[i]:.6g}: "
                f"{seen[i - 1]} -> {seen[i]}"
            )
    return ScanTable(grid, chis, classes, regions, warnings)
