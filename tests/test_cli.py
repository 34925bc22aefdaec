"""Command-line front end: subcommands, fixtures, error codes, CSV layout."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import rototrap
from rototrap import (
    GaussianState,
    InvalidConfig,
    NonPositivePotential,
    OmegaRange,
    ScanTable,
    classify_resonances,
    config_errors,
    config_from_dict,
    fmt17,
    stability_scan,
    stationary_K_from_modes,
)
from rototrap import cli
from rototrap.cli import FIXTURES, emit_plot_data, fixture_path, main

from conftest import fig2_config, fig5_config, same_sign_crossing_rates


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_error_json(err):
    return json.loads(err.strip().splitlines()[-1])


def parse_csv(text):
    rows = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def load_fixture_doc(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- fixtures ----------------------------------------------------------------

def test_fixture_path_resolves_all_figures():
    for name in FIXTURES:
        doc = load_fixture_doc(name)
        assert set(doc) == {"potential", "axis", "omega", "omega_unit"}
    with pytest.raises(ValueError):
        fixture_path("fig9")


def test_fixture_contents_match_captions():
    # all six share V = diag(1,2,3); axes and rates as in the figure captions
    for name in FIXTURES:
        doc = load_fixture_doc(name)
        assert doc["potential"]["diag"] == [1.0, 2.0, 3.0]
        assert np.linalg.norm(doc["axis"]) == pytest.approx(1.0, abs=1e-12)
    assert load_fixture_doc("fig1")["omega"] == 1.0
    np.testing.assert_allclose(
        load_fixture_doc("fig1")["axis"], np.ones(3) / np.sqrt(3.0), atol=1e-15
    )
    assert load_fixture_doc("fig2")["axis"] == [0.0, 0.0, 1.0]
    for name in FIXTURES[1:]:
        assert load_fixture_doc(name)["omega"] == 0.5


# -- boundaries --------------------------------------------------------------

def test_boundaries_fig1_matches_closed_forms(capsys):
    code, out, err = run_cli(capsys, "boundaries", "fig1")
    assert code == 0
    assert err == ""
    obj = json.loads(out)
    assert obj["omega_minus"] == pytest.approx(np.sqrt((22 - np.sqrt(52)) / 12), abs=1e-9)
    assert obj["omega_plus"] == pytest.approx(np.sqrt((22 + np.sqrt(52)) / 12), abs=1e-9)
    assert obj["oscillatory"] is not None
    lo, hi = obj["oscillatory"]
    assert lo == pytest.approx(2.4099760643, abs=1e-6)
    assert hi == pytest.approx(3.2206713753, abs=1e-6)


def test_boundaries_fig2_no_oscillatory_window(capsys):
    code, out, _ = run_cli(capsys, "boundaries", "fig2")
    assert code == 0
    obj = json.loads(out)
    assert obj["oscillatory"] is None
    assert obj["omega_minus"] == pytest.approx(1.0, abs=1e-9)
    assert obj["omega_plus"] == pytest.approx(np.sqrt(2.0), abs=1e-9)


# -- scan --------------------------------------------------------------------

def test_scan_fig2_constant_branch(capsys):
    code, out, err = run_cli(capsys, "scan", "fig2", "--omega-max", "3")
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == [
        "omega", "chi1_re", "chi1_im", "chi2_re", "chi2_im",
        "chi3_re", "chi3_im", "class", "region",
    ]
    assert len(rows) == 600
    # rotation about z leaves the axial branch pinned at Vz = 3
    j = int(np.argmin([abs(float(rows[0][1 + 2 * k]) - 3.0) for k in range(3)]))
    for row in rows:
        assert abs(float(row[1 + 2 * j]) - 3.0) <= 1e-12
        assert abs(float(row[2 + 2 * j])) <= 1e-12


def test_scan_repeated_call_is_byte_identical(capsys):
    _, one, _ = run_cli(capsys, "scan", "fig1", "--omega-max", "3", "--steps", "200")
    _, again, _ = run_cli(capsys, "scan", "fig1", "--omega-max", "3", "--steps", "200")
    assert one == again


def test_scan_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", "fig2", "--omega-max", "2", "--steps", "50")
    assert code == 0
    target = tmp_path / "scan.csv"
    code2, out2, _ = run_cli(
        capsys, "scan", "fig2", "--omega-max", "2", "--steps", "50", "-o", str(target)
    )
    assert code2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


def test_scan_parabola_column(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "fig5", "--omega-max", "2", "--steps", "100", "--parabola"
    )
    assert code == 0
    assert not out.startswith("#")
    header, rows = parse_csv(out)
    assert header[-1] == "chi_parabola"
    for row in rows:
        om = float(row[0])
        assert row[-1] == fmt17(om * om)


def test_scan_regions_agree_with_boundaries_on_a_fine_grid(capsys, tmp_path):
    # V = diag(1, 2, 3) with the axis tilted 1e-4 rad from z: a narrow
    # oscillatory window that a 3000-point scan samples more finely than
    # the region map's bracket; the scan must still label it from the same
    # map that boundaries reports
    doc = {
        "potential": {"diag": [1.0, 2.0, 3.0]},
        "axis": [9.999999983333334e-05, 0.0, 0.999999995],
        "omega": 1.0,
    }
    path = tmp_path / "tilt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "boundaries", str(path))
    assert code == 0
    lo, hi = json.loads(out)["oscillatory"]
    code, out, _ = run_cli(
        capsys, "scan", str(path), "--omega-min", "2.9", "--omega-max", "3.0",
        "--steps", "3000",
    )
    assert code == 0
    _, rows = parse_csv(out)
    inside = [row[-1] for row in rows if lo <= float(row[0]) <= hi]
    assert len(inside) >= 3
    assert all(region.rstrip("*") == "I2" for region in inside)


def test_scan_bad_grid_is_config_error(capsys):
    code, out, err = run_cli(capsys, "scan", "fig1", "--omega-max", "0.0")
    assert code == 1
    assert out == ""
    assert last_error_json(err)["error"] == "InvalidConfig"

    code, _, err = run_cli(capsys, "scan", "fig1", "--omega-max", "2", "--steps", "1")
    assert code == 1
    assert last_error_json(err)["error"] == "InvalidConfig"


def test_scan_infinite_grid_end_is_one_config_error():
    # a fresh process, so a numpy warning would show on stderr
    proc = _fresh_run("scan", "fig1", "--omega-max", "inf", "--steps", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    obj = json.loads(lines[0])
    assert obj["error"] == "InvalidConfig"
    assert "finite endpoints" in obj["message"]


def test_scan_from_a_negative_rate_is_one_negative_omega_error():
    # the grid's first rate is refused by the per-rate check in the scan
    proc = _fresh_run("scan", "fig1", "--omega-min", "-1", "--omega-max", "1", "--steps", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {
        "error": "NegativeOmega", "message": "omega must be >= 0, got -1.0"
    }


@pytest.mark.parametrize(
    "grid",
    [
        # Omega^2 overflows a float at the grid's second rate
        ("--omega-max", "1e300", "--steps", "3"),
        # Omega^2 is finite but Omega^4 is not, so B and C are infinite
        ("--omega-min", "1e119", "--omega-max", "1e120", "--steps", "2"),
    ],
    ids=["square-overflows", "coefficients-infinite"],
)
def test_scan_at_an_overflowing_rate_is_one_numeric_error(grid):
    proc = _fresh_run("scan", "fig1", *grid)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "NumericError"


def test_scan_missing_required_flag(capsys):
    code, out, err = run_cli(capsys, "scan", "fig1")
    assert code == 1
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InvalidConfig"
    assert "omega-max" in obj["message"]


def test_scan_warnings_go_to_stderr(capsys, monkeypatch):
    table = ScanTable(
        [0.0, 1.0],
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
        ["Stable", "Stable"],
        ["S1", "S1"],
        warnings=["synthetic check"],
    )
    monkeypatch.setattr("rototrap.cli.stability_scan", lambda cfg, grid: table)
    code, out, err = run_cli(capsys, "scan", "fig1", "--omega-max", "1")
    assert code == 0
    assert "# warning: synthetic check" in err
    assert out == table.to_csv()


# -- plot-data emission (library level) --------------------------------------

def test_emit_plot_data_resonance_comments():
    cfg = fig5_config(0.5)
    table = stability_scan(cfg, OmegaRange(0.0, 2.0, 201))
    rep = classify_resonances(cfg)
    text = emit_plot_data(table, rep)
    lines = text.splitlines()
    assert lines[0] == f"# resonance_omega1={fmt17(rep.omega1)},region={rep.region1}"
    assert lines[1] == f"# resonance_omega2={fmt17(rep.omega2)},region={rep.region2}"
    assert lines[2] == ScanTable.CSV_HEADER + ",chi_parabola"
    assert len(lines) == 3 + 201


def test_parabola_branch_intersections_locate_resonances():
    # crossings of chi_parabola with the real chi branches are the resonant
    # rates: detected bracket midpoints must land on the report's roots
    cfg = fig5_config(0.5)
    grid = OmegaRange(0.0, 2.0, 2001)
    table = stability_scan(cfg, grid)
    rep = classify_resonances(cfg)
    step = table.omegas[1] - table.omegas[0]

    crossings = []
    f = table.chis.real - table.omegas[:, None] ** 2
    real_branch = np.abs(table.chis.imag) <= 1e-9
    for j in range(3):
        for i in range(len(table.omegas) - 1):
            if not (real_branch[i, j] and real_branch[i + 1, j]):
                continue
            if f[i, j] == 0.0 or f[i, j] * f[i + 1, j] < 0.0:
                frac = f[i, j] / (f[i, j] - f[i + 1, j])
                crossings.append(table.omegas[i] + frac * step)

    assert crossings
    expected = (rep.omega1, rep.omega2)
    for target in expected:
        assert min(abs(c - target) for c in crossings) <= step
    for c in crossings:
        assert min(abs(c - target) for target in expected) <= step


# -- modes -------------------------------------------------------------------

def test_modes_fig2_json(capsys):
    code, out, _ = run_cli(capsys, "modes", "fig2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj) == 6
    omegas = [m["omega_re"] + 1j * m["omega_im"] for m in obj]
    # fig2 at its caption rate sits in S1: all frequencies real, in +/- pairs
    assert all(abs(om.imag) < 1e-9 for om in omegas)
    total = sum(omegas)
    assert abs(total) < 1e-9
    for m in obj:
        assert len(m["xbar"]) == 6
        assert max(abs(c["re"] + 1j * c["im"]) for c in m["xbar"]) == pytest.approx(
            1.0, abs=1e-12
        )


# -- resonance ---------------------------------------------------------------

def test_resonance_fig4_values(capsys):
    code, out, _ = run_cli(capsys, "resonance", "fig4")
    assert code == 0
    obj = json.loads(out)
    assert obj["omega1"] == pytest.approx(0.730156751, abs=1e-7)
    assert obj["omega2"] == pytest.approx(1.081723753, abs=1e-7)
    assert obj["region1"] == "S1"
    assert obj["region2"] == "S1"


def test_resonance_matches_library_route(capsys):
    for name in ("fig4", "fig5", "fig6"):
        code, out, _ = run_cli(capsys, "resonance", name)
        assert code == 0
        doc = load_fixture_doc(name)
        cfg = fig5_config(doc["omega"]) if name == "fig5" else None
        if cfg is None:
            from rototrap import make_config

            cfg = make_config(
                np.diag(doc["potential"]["diag"]), doc["axis"], doc["omega"]
            )
        assert json.loads(out) == classify_resonances(cfg).to_json_obj()


# -- ground-state ------------------------------------------------------------

def test_ground_state_fig2(capsys):
    code, out, _ = run_cli(capsys, "ground-state", "fig2")
    assert code == 0
    obj = json.loads(out)
    assert obj["riccati_residual"] < 1e-9
    k = np.array([[c["re"] + 1j * c["im"] for c in row] for row in obj["k"]])
    expected = stationary_K_from_modes(fig2_config(0.5)).k
    np.testing.assert_allclose(k, expected, atol=1e-12)


def test_ground_state_and_verify_at_a_same_sign_crossing(capsys, tmp_path):
    # fig2's trap where its axis mode and an in-plane mode share omega = sqrt 3
    doc = load_fixture_doc("fig2")
    (doc["omega"],) = same_sign_crossing_rates([1.0, 2.0, 3.0], 2)
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "ground-state", str(path))
    assert code == 0
    assert json.loads(out)["riccati_residual"] < 1e-9
    assert run_cli(capsys, "verify", str(path))[0] == 0


def test_ground_state_in_instability_region_exits_2(capsys, tmp_path):
    doc = load_fixture_doc("fig2")
    doc["omega"] = 1.2  # inside the exponential window (1, sqrt 2)
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "ground-state", str(path))
    assert code == 2
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InInstabilityRegion"
    assert "message" in obj


# -- evolve ------------------------------------------------------------------

def test_evolve_classical_csv(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "fig2",
        "--x0", "1,0,0,0,0,0", "--gravity", "0,0,-1",
        "--t-end", "2.0", "--dt", "0.02",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "y", "z", "px", "py", "pz"]
    first = [float(v) for v in rows[0]]
    assert first == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert float(rows[-1][0]) == pytest.approx(2.0, abs=1e-9)
    # axial gravity moves z; the x excitation precesses into y
    assert abs(float(rows[-1][3])) > 1e-4
    assert max(abs(float(r[2])) for r in rows) > 1e-3


def test_evolve_default_start_is_origin(capsys):
    code, out, _ = run_cli(capsys, "evolve", "fig2", "--t-end", "0.5", "--dt", "0.02")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(v) == 0.0 for row in rows for v in row[1:])


def test_evolve_step_too_large_exits_2(capsys):
    code, out, err = run_cli(capsys, "evolve", "fig2", "--dt", "0.05", "--t-end", "1")
    assert code == 2
    assert out == ""
    assert last_error_json(err)["error"] == "StepTooLarge"


def test_evolve_riccati_starts_from_stationary_state(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "fig2", "--riccati", "--t-end", "0.2", "--dt", "0.004"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "t",
        "k11_re", "k11_im", "k12_re", "k12_im", "k13_re", "k13_im",
        "k22_re", "k22_im", "k23_re", "k23_im", "k33_re", "k33_im",
    ]
    k = stationary_K_from_modes(fig2_config(0.5)).k
    expected = []
    for i in range(3):
        for j in range(i, 3):
            expected += [k[i, j].real, k[i, j].imag]
    first = [float(v) for v in rows[0][1:]]
    np.testing.assert_array_equal(first, expected)
    # a stationary start must not move
    drift = max(
        abs(float(a) - float(b)) for a, b in zip(rows[0][1:], rows[-1][1:])
    )
    assert drift < 1e-8


def test_evolve_riccati_k0_file_and_methods_agree(capsys, tmp_path):
    k0 = stationary_K_from_modes(fig2_config(0.5)).k + 0.1 * np.eye(3)
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(GaussianState(k0).to_json_obj()), encoding="utf-8")

    outs = {}
    for method in ("direct", "linearized"):
        code, out, _ = run_cli(
            capsys, "evolve", "fig2", "--riccati", "--k0", str(path),
            "--t-end", "0.5", "--dt", "0.004", "--method", method,
        )
        assert code == 0
        _, rows = parse_csv(out)
        outs[method] = rows

    first = [float(v) for v in outs["direct"][0][1:]]
    assert first[0] == k0[0, 0].real
    gap = max(
        abs(float(a) - float(b))
        for a, b in zip(outs["direct"][-1], outs["linearized"][-1])
    )
    assert gap < 1e-7


def test_evolve_bad_gravity_arity(capsys):
    code, _, err = run_cli(capsys, "evolve", "fig2", "--gravity", "1,2")
    assert code == 1
    assert last_error_json(err)["error"] == "InvalidConfig"


K0_FILES = {
    "not_json": "not json at all",
    "k_not_rows": json.dumps({"k": 5}),
    "k_2x2": json.dumps(GaussianState(np.eye(2)).to_json_obj()),
    "k_asym": json.dumps(
        {"k": [[{"re": x, "im": 0.0} for x in row] for row in [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]]}
    ),
}


@pytest.mark.parametrize(
    "args",
    [
        ["--riccati", "--k0", "missing"],
        ["--riccati", "--k0", "not_json"],
        ["--riccati", "--k0", "k_not_rows"],
        ["--riccati", "--k0", "k_2x2"],
        ["--riccati", "--k0", "k_asym"],
        ["--gravity", "nan,0,0"],
        ["--x0", "nan,0,0,0,0,0"],
        ["--dt", "0"],
        ["--dt", "-1"],
        ["--riccati", "--dt", "0"],
        ["--riccati", "--dt", "-1"],
        ["--t-end", "-1"],
        ["--t-end", "inf"],
        ["--t-end", "1e300"],
        ["--riccati", "--dt", "1e-300"],
    ],
    ids=lambda a: " ".join(a),
)
def test_evolve_bad_input_is_config_error(capsys, tmp_path, args):
    for name, text in K0_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = [str(tmp_path / a) if a in K0_FILES or a == "missing" else a for a in args]
    code, out, err = run_cli(capsys, "evolve", "fig2", "--t-end", "0.1", *args)
    assert code == 1
    assert out == ""
    assert last_error_json(err)["error"] == "InvalidConfig"


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--gravity", ["--riccati", "--gravity", "0,0,-1"]),
        ("--x0", ["--riccati", "--x0", "1,0,0,0,0,0"]),
        ("--method", ["--method", "direct"]),
        ("--method", ["--method", "linearized", "--gravity", "0,0,-1"]),
        ("--k0", ["--k0", "missing", "--gravity", "0,0,-1"]),
    ],
    ids=["riccati-gravity", "riccati-x0", "method", "method-gravity", "k0-gravity"],
)
def test_evolve_flag_of_the_other_run_kind_is_usage_error(capsys, tmp_path, flag, args):
    # each flag belongs to one run kind; given to the other, it used to be
    # dropped unread (the missing K0 file was never opened)
    args = [str(tmp_path / a) if a == "missing" else a for a in args]
    code, out, err = run_cli(capsys, "evolve", "fig2", "--t-end", "0.1", *args)
    assert code == 1
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InvalidConfig"
    assert obj["message"].startswith(flag + " does not apply")


# -- verify ------------------------------------------------------------------

def test_verify_passes_on_all_fixtures(capsys):
    for name in FIXTURES:
        code, out, err = run_cli(capsys, "verify", name)
        assert code == 0, f"{name}: {err}"
        obj = json.loads(out)
        assert obj["ok"] is True
        assert all(c["ok"] for c in obj["checks"]), name


def _failing_report(monkeypatch):
    fake = SimpleNamespace(
        ok=False,
        failed=[SimpleNamespace(name="synthetic_check")],
        to_json_obj=lambda: {"ok": False, "checks": []},
    )
    monkeypatch.setattr("rototrap.cli.verify_config", lambda cfg: fake)


def test_verify_failure_exits_3(capsys, monkeypatch, tmp_path):
    _failing_report(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "fig1")
    assert code == 3
    assert json.loads(out)["ok"] is False
    obj = last_error_json(err)
    assert obj["error"] == "VerificationError"
    assert "synthetic_check" in obj["message"]

    # with -o the report still lands in the file
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "fig1", "-o", str(target))
    assert code == 3
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["ok"] is False


@pytest.mark.parametrize("command", ["resonance", "failing-verify"])
def test_output_into_a_missing_directory_is_config_error(
    capsys, monkeypatch, tmp_path, command
):
    # a failing verify writes its report through the same path before exit 3
    if command == "failing-verify":
        _failing_report(monkeypatch)
        command = "verify"
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, command, "fig1", "-o", str(target))
    assert code == 1
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InvalidConfig"
    assert obj["message"].startswith("cannot write output: ")
    assert not target.parent.exists()


# -- config and usage errors -------------------------------------------------

def test_missing_config_file(capsys):
    code, out, err = run_cli(capsys, "boundaries", "/no/such/config.json")
    assert code == 1
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InvalidConfig"
    assert "cannot read config" in obj["message"]


def test_unparseable_config_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all", encoding="utf-8")
    code, _, err = run_cli(capsys, "boundaries", str(path))
    assert code == 1
    assert "not valid JSON" in last_error_json(err)["message"]


_GOOD_DOC = {"potential": {"diag": [1.0, 2.0, 3.0]}, "axis": [0.0, 0.0, 1.0], "omega": 0.5}


@pytest.mark.parametrize(
    "doc, n_errors, first",
    [
        (
            {
                "potential": {"diag": [1.0, 2.0, -3.0]},
                "axis": [0.0, 0.0, 0.0],
                "omega": -1.0,
                "omega_unit": 0.0,
            },
            3,
            NonPositivePotential,
        ),
        (dict(_GOOD_DOC, omega="abc"), 1, InvalidConfig),
        (dict(_GOOD_DOC, omega=None), 1, InvalidConfig),
        (dict(_GOOD_DOC, axis=["a", 0, 1]), 1, InvalidConfig),
        (dict(_GOOD_DOC, potential={"diag": ["x", 2, 3]}), 1, InvalidConfig),
        (dict(_GOOD_DOC, omega_unit="fast"), 1, InvalidConfig),
        (
            {"potential": {"diag": ["1", "2", "3"]}, "axis": ["0", "0", "1"], "omega": "0.5"},
            3,
            InvalidConfig,
        ),
        (dict(_GOOD_DOC, omega=True), 1, InvalidConfig),
        (dict(_GOOD_DOC, potential={"diag": [1.0, True, 3.0]}), 1, InvalidConfig),
        (
            dict(_GOOD_DOC, potential={"matrix": [[1, 0, 0], [0, "2", 0], [0, 0, 3]]}),
            1,
            InvalidConfig,
        ),
        (dict(_GOOD_DOC, axis=[False, False, True]), 1, InvalidConfig),
        (dict(_GOOD_DOC, omega_unit=True), 1, InvalidConfig),
    ],
    ids=[
        "several", "omega_text", "omega_null", "axis_text", "diag_text", "unit_text",
        "numeric_text", "omega_bool", "diag_bool", "matrix_text", "axis_bool", "unit_bool",
    ],
)
def test_schema_errors_are_listed(capsys, tmp_path, doc, n_errors, first):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "modes", str(path))
    assert code == 1
    assert out == ""
    obj = last_error_json(err)
    assert obj["error"] == "InvalidConfig"
    assert len(obj["errors"]) >= n_errors
    # the library reports the same problems without the CLI's pre-check
    assert len(config_errors(doc)) == len(obj["errors"])
    with pytest.raises(first):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "doc, errors",
    [
        ([1, 2], ["InvalidConfig: config document must be a JSON object"]),
        ("text", ["InvalidConfig: config document must be a JSON object"]),
        (
            {
                "potential": {"diag": [1.0, -2.0, 3.0]},
                "axis": [0.0, 0.0, 2.0],
                "omega": -1.0,
                "omega_unit": 0.0,
            },
            [
                "NonPositivePotential: smallest potential eigenvalue -2 <= 0",
                "InvalidConfig: axis norm 2 differs from 1 by more than 1e-6",
                "NegativeOmega: omega must be >= 0, got -1.0",
                "InvalidConfig: omega_unit must be positive, got 0.0",
            ],
        ),
    ],
    ids=["array", "string", "four_bad_fields"],
)
def test_rejected_document_lists_exactly_its_errors(capsys, tmp_path, doc, errors):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "boundaries", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "InvalidConfig",
        "message": "config rejected: " + "; ".join(errors),
        "errors": errors,
    }


def test_unknown_subcommand(capsys):
    code, out, err = run_cli(capsys, "bogus", "fig1")
    assert code == 1
    assert out == ""
    assert last_error_json(err)["error"] == "InvalidConfig"


def test_unknown_fixture_name_is_treated_as_path(capsys):
    code, _, err = run_cli(capsys, "boundaries", "fig9")
    assert code == 1
    assert last_error_json(err)["error"] == "InvalidConfig"


def test_main_reuses_one_parser(capsys, monkeypatch):
    _, expected, _ = run_cli(capsys, "boundaries", "fig1")

    def fail():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", fail)
    code, out, _ = run_cli(capsys, "boundaries", "fig1")
    assert code == 0
    assert out == expected


# -- console script ----------------------------------------------------------

def _fresh_run(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rototrap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "rototrap", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_python_m_rototrap_matches_in_process_main(capsys):
    proc = _fresh_run("boundaries", "fig1")
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "boundaries", "fig1")
    assert code == 0
    assert proc.stdout == out


def test_calls_in_one_process_match_fresh_runs(capsys):
    # the parser is shared by every call, a failed parse included
    calls = [
        ["scan", "fig1"],
        ["verify", "fig1"],
        ["scan", "fig5", "--omega-max", "2", "--parabola"],
    ]
    codes = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        proc = _fresh_run(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        codes.append(code)
    assert codes == [1, 0, 0]


@pytest.mark.parametrize("command, code", [("verify", 3), ("ground-state", 2)])
def test_failure_at_an_extreme_rate_leaves_one_json_line(tmp_path, command, code):
    # at Omega = 1e200 numpy overflows inside the command; its warnings must
    # not reach stderr ahead of the error object
    doc = load_fixture_doc("fig1")
    doc["omega"] = 1e200
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _fresh_run(command, str(path))
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert set(json.loads(lines[0])) >= {"error", "message"}


def test_console_script_entry_point():
    proc = subprocess.run(
        ["rototrap", "boundaries", "fig1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["omega_minus"] == pytest.approx(1.110138784457, abs=1e-9)
