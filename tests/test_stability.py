"""Cubic roots, stability classification, region windows, and grid scans."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings

from rototrap import (
    EXPONENTIAL,
    OSCILLATORY,
    STABLE,
    AmbiguousClassification,
    BracketTooSmall,
    OmegaRange,
    ScanTable,
    char_poly_coeffs,
    classify_chi_roots,
    cubic_discriminant,
    default_classify_tol,
    exponential_window,
    fmt17,
    make_config,
    oscillatory_window,
    region_map,
    region_of,
    solve_cubic,
    stability_scan,
    window_coeffs,
)
from rototrap import stability

from conftest import (
    FIGURE_CONFIGS,
    FIGURE_IDS,
    V123,
    fig1_config,
    fig2_config,
    fig3_config,
    hard_configs,
    random_axis,
    random_config,
    sample_region_omegas,
    tilted_axis,
)


# -- cubic solver ------------------------------------------------------------

def test_solve_cubic_static_diagonal():
    roots = solve_cubic((-6.0, 11.0, -6.0))
    assert np.allclose(sorted(r.real for r in roots), [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose([r.imag for r in roots], 0.0, atol=1e-12)


def test_solve_cubic_z_axis_fast_rotation():
    # axial branch stays at Vz; the in-plane pair solves chi^2 - 11 chi + 6
    cfg = make_config(V123, [0.0, 0.0, 1.0], 2.0)
    roots = sorted(r.real for r in solve_cubic(char_poly_coeffs(cfg)))
    s = np.sqrt(97.0)
    assert roots == pytest.approx([(11.0 - s) / 2.0, 3.0, (11.0 + s) / 2.0], abs=1e-10)


def test_solve_cubic_vieta_property(rng):
    for _ in range(50):
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        roots = solve_cubic((a, b, c))
        scale = max(1.0, abs(a), abs(b), abs(c))
        assert abs(np.sum(roots) + a) < 1e-8 * scale
        assert abs(np.prod(roots) + c) < 1e-8 * scale
        pair = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        assert abs(pair - b) < 1e-8 * scale


def test_solve_cubic_residual_small(rng):
    for _ in range(50):
        a, b, c = rng.uniform(-10.0, 10.0, size=3)
        for r in solve_cubic((a, b, c)):
            res = r ** 3 + a * r ** 2 + b * r + c
            assert abs(res) < 1e-8 * max(1.0, abs(r) ** 3)


def test_solve_cubic_returns_sorted_read_only_array(rng):
    window = char_poly_coeffs(fig1_config(3.0))  # inside fig1's oscillatory window
    draws = [(-6.0, 11.0, -6.0), (-2.0, 1.0, 0.0), tuple(window)]
    draws += [tuple(rng.uniform(-5.0, 5.0, size=3)) for _ in range(200)]
    n_pairs = 0
    for coeffs in draws:
        roots = solve_cubic(coeffs)
        assert type(roots) is np.ndarray
        assert roots.shape == (3,) and roots.dtype == np.complex128
        assert not roots.flags.writeable
        with pytest.raises(ValueError):
            roots[0] = 0.0
        # sorted by (real, imag), and every complex root has its exact conjugate
        assert np.array_equal(roots, np.sort_complex(roots))
        assert np.array_equal(roots, np.sort_complex(roots.conj()))
        n_pairs += bool(np.any(roots.imag != 0.0))
    assert n_pairs > 10


# -- classification ----------------------------------------------------------

def test_classify_three_positive_real():
    cls = classify_chi_roots([1.0 + 0j, 2.0 + 0j, 3.0 + 0j], 1e-9)
    assert cls.label == STABLE and cls.root_index is None


def test_classify_negative_root():
    cls = classify_chi_roots([-1.0 + 0j, 2.0 + 0j, 3.0 + 0j], 1e-9)
    assert cls.label == EXPONENTIAL
    assert cls.root_index == 0


def test_classify_complex_pair():
    cls = classify_chi_roots([1.0 + 0.5j, 1.0 - 0.5j, 3.0 + 0j], 1e-9)
    assert cls.label == OSCILLATORY
    assert cls.root_index in (0, 1)


def test_classify_ambiguous_near_zero():
    with pytest.raises(AmbiguousClassification) as exc_info:
        classify_chi_roots([1e-12 + 0j, 2.0 + 0j, 3.0 + 0j], 1e-9)
    assert exc_info.value.side == "exponential"


def test_classify_ambiguous_near_real_axis():
    with pytest.raises(AmbiguousClassification) as exc_info:
        classify_chi_roots([2.0 + 1e-6j, 2.0 - 1e-6j, 3.0 + 0j], 1e-9)
    assert exc_info.value.side == "oscillatory"


def test_classify_z_axis_inside_window():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 1.3)
    coeffs = char_poly_coeffs(cfg)
    roots = solve_cubic(coeffs)
    cls = classify_chi_roots(roots, default_classify_tol(coeffs))
    assert cls.label == EXPONENTIAL
    # the two in-plane roots multiply to a negative number inside the window
    planar = [r.real for r in roots if abs(r.real - 3.0) > 1e-6]
    assert np.prod(planar) == pytest.approx(-0.2139, abs=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason="companion eigenvalues split the exact double root chi = 1 into "
    "1 +- 2.2e-8 i; the discriminant-sign rule of ROADMAP item 2 labels it",
)
def test_static_axisymmetric_double_root_is_stable():
    cfg = make_config(np.diag([1.0, 1.0, 2.0]), [0.0, 0.0, 1.0], 0.0)
    coeffs = char_poly_coeffs(cfg)
    roots = solve_cubic(coeffs)
    assert classify_chi_roots(roots, default_classify_tol(coeffs)).label == STABLE
    table = stability_scan(cfg, OmegaRange(0.0, 1.0, 11))
    assert (table.classes[0], table.regions[0]) == (STABLE, "S1")


def test_default_classify_tol_scale():
    assert default_classify_tol((-6.0, 11.0, -6.0)) == pytest.approx(1.1e-8)
    assert default_classify_tol((0.1, 0.2, 0.3)) == pytest.approx(1e-9)


# -- exponential window ------------------------------------------------------

def test_window_coeffs_positive(rng):
    for _ in range(30):
        cfg = random_config(rng)
        a, b, c = window_coeffs(cfg)
        assert a > 0 and b > 0 and c > 0


def test_exponential_window_z_axis():
    cfg = make_config(V123, [0.0, 0.0, 1.0], 0.5)
    lo, hi = exponential_window(cfg)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_exponential_window_tilted_benchmark():
    lo, hi = exponential_window(fig1_config(1.0))
    assert lo == pytest.approx(np.sqrt((22.0 - np.sqrt(52.0)) / 12.0), abs=1e-12)
    assert hi == pytest.approx(np.sqrt((22.0 + np.sqrt(52.0)) / 12.0), abs=1e-12)
    assert lo == pytest.approx(1.110138784457, abs=1e-9)
    assert hi == pytest.approx(1.560211058100, abs=1e-9)


def test_exponential_window_isotropic_collapses():
    # b^2 - 4ac is 0 here; its rounding residue must not open a window
    cfg = make_config([2.0, 2.0, 2.0], [0.0, 0.0, 1.0], 0.5)
    lo, hi = exponential_window(cfg)
    assert lo == hi
    assert lo == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_axisymmetric_window_collapses_to_a_boundary(rng):
    # V axisymmetric about the axis n, V = I among them: the window is the
    # point sqrt(v_perp), where the map reports a boundary, not I1
    traps = [(np.eye(3), np.ones(3) / np.sqrt(3.0), 1.0)]
    for _ in range(40):
        n = random_axis(rng)
        v_par, v_perp = rng.uniform(0.2, 5.0, 2)
        traps.append((v_perp * np.eye(3) + (v_par - v_perp) * np.outer(n, n), n, v_perp))
    for v, n, v_perp in traps:
        cfg = make_config(v, n, 1.0)
        lo, hi = exponential_window(cfg)
        assert lo == hi
        assert lo == pytest.approx(np.sqrt(v_perp), rel=1e-14)
        assert region_map(cfg).locate(lo).boundary


# -- oscillatory window ------------------------------------------------------

def test_oscillatory_window_absent_for_axis_rotation():
    assert oscillatory_window(fig2_config(0.5)) is None


def test_oscillatory_window_tilted_benchmark():
    a, b = oscillatory_window(fig1_config(1.0))
    assert a == pytest.approx(2.4099760643, abs=1e-7)
    assert b == pytest.approx(3.2206713753, abs=1e-7)


def test_oscillatory_window_small_tilt():
    a, b = oscillatory_window(fig3_config(0.5))
    assert a == pytest.approx(2.8651272542, abs=1e-7)
    assert b == pytest.approx(3.0524497035, abs=1e-7)


def test_oscillatory_window_bracket_too_small(monkeypatch):
    # fig1's window runs to 3.22, past this bracket's end
    monkeypatch.setattr(
        stability, "_default_bracket", lambda cfg, om_plus: OmegaRange(0.0, 3.0, 200)
    )
    with pytest.raises(BracketTooSmall):
        oscillatory_window(fig1_config(1.0))


def test_cubic_discriminant_signs():
    # three distinct real roots vs a complex pair
    assert cubic_discriminant(-6.0, 11.0, -6.0) > 0
    assert cubic_discriminant(-3.0, 4.0, -2.0) < 0


# -- the window sweep against its per-rate oracle ----------------------------
# oscillatory_window flags the whole bracket in one array expression; the
# oracle is a per-rate loop, _disc_at at each grid rate, with the same
# bisection. Both must give the same edges bit for bit.

def _reference_window(cfg):
    _, om_plus = exponential_window(cfg)
    grid = stability._default_bracket(cfg, om_plus).values()
    grid = grid[grid > om_plus * (1.0 + 1e-12)]

    def is_neg(om):
        d, scale = stability._disc_at(cfg, om)
        return d < -1e-12 * scale

    flags = [is_neg(om) for om in grid]
    if not any(flags):
        return None
    if flags[-1]:
        raise BracketTooSmall("discriminant still negative at the bracket end")
    first = flags.index(True)
    last = first
    while flags[last + 1]:
        last += 1

    def bisect(lo, hi, want_neg_hi):
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


def _assert_sweep_matches_reference(cfg):
    rmap = region_map(cfg)
    assert (rmap.om_minus, rmap.om_plus) == exponential_window(cfg)
    assert rmap.oscillatory == _reference_window(cfg)


def test_disc_terms_on_arrays_match_the_scalar_form(rng):
    coeffs = rng.standard_normal((500, 3)) * np.exp(rng.uniform(-8.0, 8.0, (500, 3)))
    arrays = stability._disc_terms(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2])
    for i, (a, b, c) in enumerate(coeffs.tolist()):
        scalars = stability._disc_terms(a, b, c)
        assert [float(t[i]) for t in arrays] == list(scalars)
    assert np.array_equal(cubic_discriminant(*coeffs.T), arrays[0])


# the benchmark chart's tilt sweep: 7 log-spaced tilts from 1e-5 to 0.1 rad,
# then 4 more up to pi/2
CHART_TILTS = list(np.logspace(-5.0, -1.0, 7)) + list(np.linspace(0.1, np.pi / 2.0, 5)[1:])


@pytest.mark.parametrize("tilt", CHART_TILTS, ids=[f"{t:.3g}" for t in CHART_TILTS])
def test_region_map_matches_per_rate_sweep_on_chart_tilts(tilt):
    s, c = np.sin(tilt), np.cos(tilt)
    for axis in ([s, 0.0, c], [0.0, s, c]):  # tilted toward x and toward y
        _assert_sweep_matches_reference(make_config(V123, axis, 0.0))


def test_region_map_matches_per_rate_sweep_on_axisymmetric_collapse(rng):
    # V axisymmetric about n: the exponential window is a single point
    traps = [(np.eye(3), np.ones(3) / np.sqrt(3.0)), (np.diag([1.0, 1.0, 2.0]), [0, 0, 1])]
    for _ in range(8):
        n = random_axis(rng)
        v_par, v_perp = rng.uniform(0.2, 5.0, 2)
        traps.append((v_perp * np.eye(3) + (v_par - v_perp) * np.outer(n, n), n))
    for v, n in traps:
        _assert_sweep_matches_reference(make_config(v, n, 0.0))


@settings(max_examples=40)
@given(cfg=hard_configs())
def test_region_map_matches_per_rate_sweep_on_hard_configs(cfg):
    _assert_sweep_matches_reference(cfg)


# -- regions -----------------------------------------------------------------

def test_region_of_z_axis_examples():
    cfg = fig2_config(0.5)
    assert region_of(cfg, 0.5).label == "S1"
    assert region_of(cfg, 1.2).label == "I1"
    assert region_of(cfg, 2.0).label == "S2"


@pytest.mark.parametrize("omega", [-0.5, float("nan")], ids=["negative", "nan"])
def test_locate_and_region_of_refuse_a_bad_rate(omega):
    cfg = make_config([1, 2, 3], [0, 0, 1], 0.5)
    with pytest.raises(ValueError, match="omega must be >= 0"):
        region_map(cfg).locate(omega)
    with pytest.raises(ValueError, match="omega must be >= 0"):
        region_of(cfg, omega)


def test_region_boundary_flag():
    cfg = fig2_config(0.5)
    lab = region_of(cfg, 1.0)
    assert lab.boundary and lab.label == "I1"
    assert str(lab) == "I1*"
    # each oscillatory edge reports the I2 window it bounds
    rmap = region_map(fig1_config(1.0))
    a, b = rmap.oscillatory
    for edge in (a, b):
        assert rmap.locate(edge) == ("I2", a, b, True)


def test_region_map_labels_ordered():
    rmap = region_map(fig3_config(0.5))
    labels = [l.label for l in rmap.labels()]
    assert labels == ["S1", "I1", "S2", "I2", "S3"]
    edges = [l.lo for l in rmap.labels()] + [rmap.labels()[-1].hi]
    assert all(edges[i] < edges[i + 1] for i in range(len(edges) - 1))


def test_region_map_without_oscillatory_window():
    rmap = region_map(fig2_config(0.5))
    labels = [l.label for l in rmap.labels()]
    assert labels == ["S1", "I1", "S2"]
    assert np.isinf(rmap.labels()[-1].hi)


def _match_by_min(roots, pred):
    # the branch match as a min() over permutation arrays: the scan's oracle
    perms = [np.array(p) for p in permutations(range(3))]
    return roots[min(perms, key=lambda p: np.sum(np.abs(roots[p] - pred) ** 2))]


def test_scan_branch_match_equals_min_over_permutations(rng, monkeypatch):
    n = 150
    sequences = [
        rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)),
        np.cumsum(0.05 * rng.standard_normal((n, 3)), axis=0) + np.array([1.0, 2.0, 3.0]),
        # small integers: many candidate orders cost exactly the same
        rng.integers(-2, 3, size=(n, 3)) + 1j * rng.integers(-1, 2, size=(n, 3)),
    ]
    cfg = fig1_config(1.0)
    grid = np.linspace(0.0, 4.0, n)
    for seq in sequences:
        seq = seq.astype(complex)
        feed = iter(seq)
        monkeypatch.setattr("rototrap.stability.solve_cubic", lambda coeffs: next(feed))
        chis = stability_scan(cfg, grid).chis
        expect = [seq[0]]
        for i in range(1, n):
            pred = expect[-1] if i == 1 else 2.0 * expect[-1] - expect[-2]
            expect.append(_match_by_min(seq[i], pred))
        assert np.array_equal(chis, np.array(expect))


def test_region_root_patterns(rng):
    # S regions carry three positive real chi, I1 one negative, I2 a complex pair
    cfg = fig3_config(0.5)
    patterns = {
        "S1": (3, 0),
        "I1": (2, 1),
        "S2": (3, 0),
        "I2": (1, 0),
        "S3": (3, 0),
    }
    for region, (n_pos, n_neg) in patterns.items():
        for om in sample_region_omegas(cfg, region, 3, rng):
            coeffs = char_poly_coeffs(cfg.with_omega(om))
            roots = solve_cubic(coeffs)
            tol = default_classify_tol(coeffs)
            real = roots[np.abs(roots.imag) < 1e-7]
            assert int(np.sum(real.real > tol)) == n_pos
            assert int(np.sum(real.real < -tol)) == n_neg
            if region == "I2":
                assert np.sum(np.abs(roots.imag) > 1e-7) == 2


def test_axis_aligned_never_oscillatory(rng):
    # rotation about a principal axis cannot produce a complex chi pair
    axes = np.eye(3)
    for _ in range(1000):
        vals = rng.uniform(0.1, 10.0, size=3)
        axis = axes[rng.integers(3)]
        om = rng.uniform(0.0, 5.0)
        cfg = make_config(vals, axis, om)
        coeffs = char_poly_coeffs(cfg)
        try:
            cls = classify_chi_roots(solve_cubic(coeffs), default_classify_tol(coeffs))
        except AmbiguousClassification as amb:
            assert amb.side != "oscillatory"
            continue
        assert cls.label != OSCILLATORY


def test_window_edges_are_zeros_of_c(rng):
    for _ in range(30):
        cfg = random_config(rng)
        for om in exponential_window(cfg):
            c = char_poly_coeffs(cfg.with_omega(om)).c
            assert abs(c) < 1e-8 * (1.0 + abs(c))


# -- scans -------------------------------------------------------------------

def test_scan_axis_rotation_constant_branch():
    table = stability_scan(fig2_config(0.5), OmegaRange(0.0, 3.0, 600))
    # the axial branch stays pinned at Vz across the whole grid
    axial = np.min(np.abs(table.chis - 3.0), axis=1)
    assert np.max(axial) < 1e-12
    assert table.warnings == []


def test_scan_starts_at_potential_eigenvalues():
    table = stability_scan(fig1_config(1.0), OmegaRange(0.0, 2.0, 100))
    assert table.omegas[0] == 0.0
    assert np.allclose(sorted(table.chis[0].real), [1.0, 2.0, 3.0], atol=1e-10)
    assert np.allclose(table.chis[0].imag, 0.0, atol=1e-12)


def test_scan_classes_follow_regions():
    table = stability_scan(fig1_config(1.0), OmegaRange(0.9, 1.3, 200))
    for region, label in zip(table.regions, table.classes):
        if region == "S1":
            assert label == STABLE
        elif region == "I1":
            assert label.rstrip("*") == EXPONENTIAL


def test_scan_branches_continuous():
    # on a step <= 1e-3 grid each matched root moves by at most 10x the
    # previous step's move, so no branch swaps slip through
    table = stability_scan(fig1_config(1.0), OmegaRange(0.0, 3.5, 3501))
    jumps = np.abs(np.diff(table.chis, axis=0))
    ratio = jumps[1:] / np.maximum(jumps[:-1], 1e-12)
    assert np.max(ratio) <= 10.0


def test_scan_csv_layout():
    table = stability_scan(fig2_config(0.5), OmegaRange(0.0, 1.0, 5))
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ScanTable.CSV_HEADER
    assert (
        lines[0]
        == "omega,chi1_re,chi1_im,chi2_re,chi2_im,chi3_re,chi3_im,class,region"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert len(first) == 9
    assert float(first[0]) == 0.0


def test_scan_rows_are_fmt17_cells_and_feed_to_csv():
    # negative zeros and imaginary parts must come out as fmt17 writes them
    table = ScanTable(
        [0.0, 0.1, 1.0 / 3.0],
        [[-0.0, 1e-300 - 2.5j, 3.0 + 2.5j], [1.0, 2.0, 3.0], [np.pi, -np.e + 1j / 3, 7.0]],
        ["Stable", "Oscillatory*", "Exponential"],
        ["S1", "I2", "I1"],
    )
    rows = table.rows()
    for i, row in enumerate(rows):
        cells = [fmt17(table.omegas[i])]
        for z in table.chis[i]:
            cells += [fmt17(z.real), fmt17(z.imag)]
        assert row == ",".join(cells + [table.classes[i], table.regions[i]])
    assert table.to_csv() == "\n".join([ScanTable.CSV_HEADER] + rows) + "\n"


def test_scan_repeated_call_is_byte_identical():
    cfg = fig3_config(0.5)
    grid = OmegaRange(0.0, 3.2, 160)
    assert stability_scan(cfg, grid).to_csv() == stability_scan(cfg, grid).to_csv()


def test_scan_rejects_bad_grid():
    cfg = fig2_config(0.5)
    with pytest.raises(ValueError):
        stability_scan(cfg, np.array([0.5]))
    with pytest.raises(ValueError):
        stability_scan(cfg, np.array([1.0, 0.5]))


# -- the scan against its per-point oracle -----------------------------------
# stability_scan sorts the roots in Python and matches branches over a 3x3
# distance table; the oracle is a per-point loop with numpy scalars and
# lexsort in the root solve and an argmin over the (6, 3) candidate array.
# Both must write the same CSV byte for byte.

_PERM_ROWS = np.array(list(permutations(range(3))))


def _reference_solve_cubic(coeffs):
    a, b, c = (float(x) for x in coeffs)

    def q(x):
        return ((x + a) * x + b) * x + c

    def dq(x):
        return (3.0 * x + 2.0 * a) * x + b

    def polish(x):
        d = dq(x)
        if d != 0:
            x2 = x - q(x) / d
            if abs(q(x2)) < abs(q(x)):
                return x2
        return x

    raw = np.linalg.eigvals(np.array([[0.0, 0.0, -c], [1.0, 0.0, -b], [0.0, 1.0, -a]]))
    out = [complex(polish(r.real)) for r in raw if r.imag == 0.0]
    for r in raw:
        if r.imag > 0.0:
            z = polish(r)
            out += [z, z.conjugate()]
    out = np.array(out)
    return out[np.lexsort((out.imag, out.real))]


def _reference_scan_csv(cfg, grid):
    grid = grid.values()
    rmap = region_map(cfg)
    chis = np.empty((len(grid), 3), dtype=complex)
    classes, regions = [], []
    for i, om in enumerate(grid):
        coeffs = char_poly_coeffs(cfg.with_omega(om))
        roots = _reference_solve_cubic(coeffs)
        try:
            label = classify_chi_roots(roots, default_classify_tol(coeffs)).label
        except AmbiguousClassification as amb:
            label = (EXPONENTIAL if amb.side == "exponential" else OSCILLATORY) + "*"
        if i == 0:
            chis[0] = roots
        else:
            pred = chis[i - 1] if i == 1 else 2.0 * chis[i - 1] - chis[i - 2]
            cand = roots[_PERM_ROWS]
            chis[i] = cand[np.argmin(np.sum(np.abs(cand - pred) ** 2, axis=1))]
        classes.append(label)
        regions.append(str(rmap.locate(om)))
    return ScanTable(grid, chis, classes, regions).to_csv()


def test_solve_cubic_matches_its_per_root_reference_bit_for_bit(rng):
    draws = [(-6.0, 11.0, -6.0), (-4.0, 5.0, -2.0), (-3.0, 3.0, -1.0), (0.0, 0.0, 0.0)]
    draws += [tuple(rng.uniform(-5.0, 5.0, size=3)) for _ in range(300)]
    draws += [tuple(rng.integers(-3, 4, size=3).astype(float)) for _ in range(100)]
    for make in FIGURE_CONFIGS:
        draws += [tuple(char_poly_coeffs(make(om))) for om in np.linspace(0.0, 4.0, 41)]
    for coeffs in draws:
        assert solve_cubic(coeffs).tobytes() == _reference_solve_cubic(coeffs).tobytes()


@pytest.mark.parametrize("make", FIGURE_CONFIGS, ids=FIGURE_IDS)
def test_scan_matches_per_point_reference_on_figures(make):
    cfg = make()
    grid = OmegaRange(0.0, 4.0, 2000)
    assert stability_scan(cfg, grid).to_csv() == _reference_scan_csv(cfg, grid)


def test_scan_matches_per_point_reference_across_a_narrow_window():
    # the tilt-1e-5 window, about [2.9617480, 2.9617651], with half its
    # width on either side: every point sits near a double root
    cfg = make_config(V123, tilted_axis(1e-5), 0.0)
    grid = OmegaRange(2.961739397892593, 2.961773705903661, 101)
    csv = stability_scan(cfg, grid).to_csv()
    assert csv == _reference_scan_csv(cfg, grid)
    assert "OscillatoryInstability" in csv
