"""Cubic roots, stability classification, region windows, and grid scans."""

from itertools import permutations

import numpy as np
import pytest

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
    planar_discriminant,
    region_map,
    region_of,
    solve_cubic,
    stability_scan,
    window_coeffs,
)
from rototrap import stability

from conftest import (
    V123,
    fig1_config,
    fig2_config,
    fig3_config,
    random_axis,
    random_config,
    sample_region_omegas,
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


def test_planar_discriminant_nonnegative(rng):
    for _ in range(200):
        vx, vy = rng.uniform(0.01, 5.0, size=2)
        om = rng.uniform(0.0, 5.0)
        assert planar_discriminant(vx, vy, om) >= 0.0


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
