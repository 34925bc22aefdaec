"""Self-tests of the benchmark: input generation, tracing and self-time arithmetic.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the
repository root.
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import rototrap  # noqa: E402
from rototrap import quantum  # noqa: E402

from perfbench import inputs, tracing  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_deterministic(workload):
    a = inputs.generate(workload, 5)
    b = inputs.generate(workload, 5)
    assert a == b
    assert inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(a) != inputs.digest(inputs.generate(workload, 6))


def test_chart_sweep_is_fixed_and_random_part_is_seeded():
    a, b = inputs.chart_inputs(1), inputs.chart_inputs(2)
    sweep = len(inputs.CHART_TILTS)
    assert a["cases"][:sweep] == b["cases"][:sweep]
    assert a["cases"][sweep:] != b["cases"][sweep:]
    tilts = inputs.CHART_TILTS
    assert min(t for t in tilts if t > 0) == pytest.approx(1e-5)
    assert max(tilts) == pytest.approx(np.pi / 2.0)


def test_closed_form_windows_match_region_map_on_fixtures():
    # fig1 and fig3 windows from the polynomial route agree with the
    # library's grid-and-bisection route to its 1e-10 bisection tolerance
    for axis in (np.ones(3) / np.sqrt(3.0), inputs.tilted_axis(0.1)):
        om_minus, om_plus, osc = inputs.windows(inputs.V123, axis)
        rmap = rototrap.region_map(rototrap.make_config(inputs.V123, axis, 1.0))
        assert abs(om_minus - rmap.om_minus) < 1e-9
        assert abs(om_plus - rmap.om_plus) < 1e-9
        assert max(abs(a - b) for a, b in zip(osc, rmap.oscillatory)) < 1e-9
    assert inputs.windows(inputs.V123, np.array([0.0, 0.0, 1.0]))[2] is None


def _span(sid, t0, t1, parent, name="x"):
    return (sid, name, t0, t1, parent, "op", None)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0, 0),
        _span(2, 1.0, 4.0, 1),   # pool thread A
        _span(3, 2.0, 6.0, 1),   # pool thread B, overlaps A
        _span(4, 8.0, 9.0, 1),
        _span(5, 2.0, 3.0, 2),   # grandchild, not subtracted from span 1
        _span(6, 9.5, 11.0, 1),  # runs past the parent's end: clipped
    ]
    got = tracing.self_times(spans)
    assert got[1] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(4.0)
    assert got[5] == pytest.approx(1.0)
    assert got[6] == pytest.approx(1.5)


def _namespaces():
    mods = {n: m for n, m in sys.modules.items() if n == "rototrap" or n.startswith("rototrap.")}
    snap = {n: dict(vars(m)) for n, m in mods.items()}
    snap["RiccatiTrajectory"] = dict(vars(quantum.RiccatiTrajectory))
    return snap


def _same(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].keys() == b[name].keys(), name
        for attr in a[name]:
            assert a[name][attr] is b[name][attr], f"{name}.{attr}"


def test_install_wraps_every_import_and_uninstall_restores():
    from rototrap import cli, gravity, stability, verify

    before = _namespaces()
    original = stability.region_map
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in (rototrap, stability, gravity, verify, cli):
            assert ns.region_map is not original
            assert ns.region_map.__perfbench_wrapped__ is original
        cpc = before["rototrap.trap"]["char_poly_coeffs"]
        assert stability.char_poly_coeffs.__perfbench_wrapped__ is cpc
        assert cli.validate_config.__perfbench_wrapped__ is before["rototrap.trap"]["validate_config"]
        assert "__perfbench_wrapped__" in vars(vars(quantum.RiccatiTrajectory)["to_csv"])
    finally:
        tracer.uninstall()
    _same(before, _namespaces())


def test_traced_scan_is_identical_and_pool_spans_hang_off_the_scan():
    cfg = rototrap.make_config(inputs.V123, inputs.tilted_axis(0.35), 1.0)
    grid = rototrap.OmegaRange(0.0, 4.0, 80)
    plain = rototrap.stability_scan(cfg, grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        traced = rototrap.stability_scan(cfg, grid)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert traced.to_csv() == plain.to_csv()
    spans = tracer.take()
    names = {s[0]: s[1] for s in spans}
    scans = [s[0] for s in spans if s[1] == "stability.stability_scan"]
    assert len(scans) == 1
    solves = [s for s in spans if s[1] == "stability.solve_cubic"]
    assert len(solves) == 80
    assert all(names[s[4]] == "stability.stability_scan" for s in solves)
    m = tracing.layer_metrics(spans)
    assert m["stability.stability_scan.points"] == 80
    assert m["stability.region_map.calls"] == 1
    assert m["stability.region_map.char_poly_per_call"] > 1000
    assert all(v >= -1e-9 for k, v in m.items() if k.endswith("self_s"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert {m["name"] for m in spec["per_layer"]} == set(
        tracing.layer_metrics([]).keys()
    ) | {"trace.overhead_s"}


def test_end_to_end_names_match_benchmark_json():
    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
