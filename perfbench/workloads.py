"""The three workloads: operations per pass, and the checks on their outputs.

A workload is built once from its generated inputs (the constructor) and
then runs passes. A pass calls its operations in a fixed order from one thread
and returns every output; ``check`` then judges each output against an
independent route, outside the timed pass. Tolerances are the ones the
acceptance tests use (tests/test_acceptance.py), quoted where applied.

Each operation has a name ``<workload>/<case>/<op>``. An operation fails
when it raises, returns an unexpected exit code, or fails its check; a
later operation that needs a failed one's output fails too.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import numpy as np

import rototrap
from rototrap import cli

from . import inputs as gen

# stability_scan classes and the region labels they must sit in
_REGIONS_OF = {
    rototrap.STABLE: ("S1", "S2", "S3"),
    rototrap.EXPONENTIAL: ("I1",),
    rototrap.OSCILLATORY: ("I2",),
}


def _fingerprint(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode("utf-8"))
        h.update(b"|")
    return h.hexdigest()


class Op:
    """One timed call: ``run(outputs)`` may read earlier outputs of the pass."""

    def __init__(self, name, run, check, fingerprint):
        # check(output, outputs) -> None when correct, else a one-line reason
        self.name = name
        self.run = run
        self.check = check
        self.fingerprint = fingerprint


class Workload:
    """Base: a list of Ops, run in order, checked after the pass."""

    def __init__(self, inputs, workdir):
        self.inputs = inputs
        self.workdir = workdir
        self.ops = []

    def warm_up(self):
        """One call per entry point, so lazy set-up is not timed."""

    def run_pass(self, on_op=None):
        """Run every op once; returns {name: (output or exception, seconds)}."""
        outputs = {}
        results = {}
        for op in self.ops:
            if on_op is not None:
                on_op(op.name)
            t0 = time.perf_counter()
            try:
                out = op.run(outputs)
            except Exception as exc:  # counted as a failed operation
                out = exc
            dt = time.perf_counter() - t0
            outputs[op.name] = out
            results[op.name] = (out, dt)
        return results

    def check(self, results):
        """{name: None if correct, else a one-line reason} and fingerprints."""
        verdicts = {}
        prints = {}
        outputs = {name: out for name, (out, _) in results.items()}
        for op in self.ops:
            out = results[op.name][0]
            if isinstance(out, Exception):
                verdicts[op.name] = f"raised {type(out).__name__}: {out}"
                prints[op.name] = _fingerprint(type(out).__name__, str(out))
                continue
            try:
                verdicts[op.name] = op.check(out, outputs)
            except Exception as exc:  # a check that cannot run is a failure
                verdicts[op.name] = f"check raised {type(exc).__name__}: {exc}"
            prints[op.name] = op.fingerprint(out)
        return verdicts, prints


# -- chart ---------------------------------------------------------------------

# warm-up config, the same for every seed: V = diag(1, 2, 3) tilted
# 0.35 rad at a rate inside its exponential window, where verify is short
WARM_CONFIG = gen.config_doc(gen.V123, gen.tilted_axis(0.35), 1.2)


def _scan_print(table):
    return _fingerprint(table.omegas, table.chis, table.classes, table.regions, table.warnings)


def _check_scan(table, outs=None):
    bad = []
    for om, cls, reg in zip(table.omegas, table.classes, table.regions):
        if cls.endswith("*") or reg.endswith("*"):
            continue
        if reg not in _REGIONS_OF[cls]:
            bad.append(f"{om:.9g}: {cls} in {reg}")
    if bad:
        return f"{len(bad)} points where class and region disagree, first {bad[0]}"
    if table.warnings:
        return f"{len(table.warnings)} region-order warnings, first {table.warnings[0]}"
    return None


class Chart(Workload):
    """Tilt x Omega stability and resonance chart.

    Per config: region_map, classify_resonances (no rmap, as the CLI calls
    it) and stability_scan over a fixed grid; configs whose closed-form
    oscillatory window exists also get a zoom scan across that window.
    """

    def __init__(self, inputs, workdir):
        super().__init__(inputs, workdir)
        self.grid = rototrap.OmegaRange(*inputs["grid"])
        for case in inputs["cases"]:
            self._add_case(case)

    def _add_case(self, case):
        cfg = rototrap.validate_config(case["config"])
        v = np.asarray(case["config"]["potential"]["matrix"])
        n = np.asarray(case["config"]["axis"])
        base = f"chart/{case['name']}"

        def check_rmap(rm, outs):
            # criterion 2: edges within 1e-9 of the closed forms, and the
            # matrix-route constant coefficient below 1e-8 at both edges
            ref_minus, ref_plus = case["edges"]
            gap = max(abs(rm.om_minus - ref_minus), abs(rm.om_plus - ref_plus))
            if gap >= 1e-9:
                return f"exponential edges off the closed form by {gap:.3e}"
            for om in (rm.om_minus, rm.om_plus):
                c = rototrap.char_poly_from_matrix(cfg.with_omega(om).dynamics_matrix).c
                if abs(c) >= 1e-8:
                    return f"|C| = {abs(c):.3e} at edge {om:.12g}"
            ref = case["oscillatory"]
            if (rm.oscillatory is None) != (ref is None):
                return f"oscillatory window {rm.oscillatory} but closed form gives {ref}"
            if ref is not None:
                gap = max(abs(a - b) for a, b in zip(rm.oscillatory, ref))
                if gap >= 1e-9:
                    return f"oscillatory edges off the closed form by {gap:.3e}"
            return None

        def check_resonance(rep, outs):
            # verify's resonance_roots rule: both routes to 1e-8 after scaling
            d, e, f = gen.resonance_biquadratic(v, n)
            worst = 0.0
            for x in (rep.omega1_sq, rep.omega2_sq):
                if x <= 0:
                    continue
                om = float(np.sqrt(x))
                full = rototrap.char_poly_from_matrix(cfg.with_omega(om).dynamics_matrix)
                s = max(1.0, abs(d) * x * x, abs(e) * x, abs(f))
                biq = d * x * x + e * x + f
                cub = x ** 3 + full.a * x * x + full.b * x + full.c
                worst = max(worst, abs(biq) / s, abs(cub) / s)
            if worst > 1e-8:
                return f"scaled root residual {worst:.3e} > 1e-8"
            return None

        self.ops.append(
            Op(
                base + "/region_map",
                lambda outs: rototrap.region_map(cfg),
                check_rmap,
                lambda rm: _fingerprint(rm.om_minus, rm.om_plus, rm.oscillatory),
            )
        )
        self.ops.append(
            Op(
                base + "/resonance",
                lambda outs: rototrap.classify_resonances(cfg),
                check_resonance,
                lambda rep: _fingerprint(rep.to_json_obj()),
            )
        )
        self.ops.append(
            Op(
                base + "/scan",
                lambda outs: rototrap.stability_scan(cfg, self.grid),
                _check_scan,
                _scan_print,
            )
        )
        if case["zoom"] is not None:
            zoom = rototrap.OmegaRange(*case["zoom"])
            self.ops.append(
                Op(
                    base + "/zoom",
                    lambda outs: rototrap.stability_scan(cfg, zoom),
                    _check_scan,
                    _scan_print,
                )
            )

    def warm_up(self):
        cfg = rototrap.validate_config(WARM_CONFIG)
        rototrap.region_map(cfg)
        rototrap.classify_resonances(cfg)
        rototrap.stability_scan(cfg, rototrap.OmegaRange(0.0, 1.0, 64))


# -- evolve --------------------------------------------------------------------

def _need(outs, name):
    """An earlier output of the pass; fails clearly when that op failed."""
    out = outs[name]
    if isinstance(out, Exception):
        raise RuntimeError(f"needs {name}, which failed")
    return out


def _no_check(out, outs):
    # checked through the operations that consume this output
    return None


def _csv_matches(text, times, states):
    """The CSV parses back to exactly the trajectory it was written from."""
    rows = list(csv.reader(io.StringIO(text)))
    body = np.array([[float(x) for x in r] for r in rows[1:]])
    if body.shape[0] != len(times):
        return f"{body.shape[0]} CSV rows for {len(times)} samples"
    if not np.array_equal(body[:, 0], times) or not np.array_equal(body[:, 1:], states):
        return "CSV values do not round-trip to the trajectory"
    return None


def _riccati_columns(ks):
    d = ks.shape[1]
    cols = []
    for i in range(d):
        for j in range(i, d):
            cols += [ks[:, i, j].real, ks[:, i, j].imag]
    return np.column_stack(cols)


class Evolve(Workload):
    """Long fixed-step integrations.

    Criterion-6 forced runs on resonance and 10 % detuned for 50 rotation
    periods, each classified; both Riccati routes from a perturbed
    stationary K on the criterion-9 configs; the stationary K itself
    evolved; one trajectory of each kind written as CSV.
    """

    def __init__(self, inputs, workdir):
        super().__init__(inputs, workdir)
        forced = inputs["forced"]
        base = rototrap.validate_config(forced["config"])
        g = np.asarray(forced["gravity"])
        periods = forced["periods"]
        detune = forced["detune"]
        t_end, dt = inputs["t_end"], inputs["dt"]
        self.cfgs = {}
        add = self._add

        add("forced/resonance", lambda o: rototrap.classify_resonances(base),
            lambda rep, o: None if rep.region2.startswith("S")
            else f"resonance sits in {rep.region2}, not a stable region",
            lambda rep: _fingerprint(rep.to_json_obj()))

        def forced_run(factor):
            def run(o):
                rep = _need(o, "evolve/forced/resonance")
                cfg = base.with_omega(factor * rep.omega2)
                period = 2.0 * np.pi / cfg.omega
                return rototrap.forced_evolve(cfg, g, periods * period), period
            return run

        def traj_print(out):
            return _fingerprint(out[0].times, out[0].states)

        def growth(key):
            def run(o):
                traj, period = _need(o, key)
                return rototrap.growth_classification(traj, period)
            return run

        def expect_linear(fit, o):
            # criterion 6: LinearGrowth with R^2 > 0.99 and a positive slope
            if fit.label != "LinearGrowth" or not fit.r2_linear > 0.99 or not fit.slope > 0:
                return f"on resonance: {fit.label}, R^2 {fit.r2_linear:.4f}, slope {fit.slope:.3g}"
            return None

        def expect_bounded(fit, o):
            return None if fit.label == "Bounded" else f"detuned run is {fit.label}"

        add("forced/on_resonance", forced_run(1.0), _no_check, traj_print)
        add("forced/on_resonance/growth", growth("evolve/forced/on_resonance"),
            expect_linear, lambda fit: _fingerprint(tuple(fit)))
        add("forced/detuned", forced_run(detune), _no_check, traj_print)
        add("forced/detuned/growth", growth("evolve/forced/detuned"),
            expect_bounded, lambda fit: _fingerprint(tuple(fit)))

        for case in inputs["riccati"]:
            self._add_riccati(case, t_end, dt)

        def drift_run(o):
            cfg = self.cfgs["fig2"]
            return rototrap.evolve_riccati(_need(o, "evolve/fig2/stationary").k, cfg, t_end, dt)

        def drift_check(traj, o):
            # criterion 9: the stationary K drifts by less than 1e-6
            k_star = _need(o, "evolve/fig2/stationary").k
            drift = float(np.max(np.abs(traj.ks - k_star)))
            return None if drift < 1e-6 else f"stationary K drifts by {drift:.3e}"

        add("fig2/stationary_drift", drift_run, drift_check,
            lambda t: _fingerprint(t.times, t.ks))

        def forced_csv(o):
            return rototrap.trajectory_to_csv(_need(o, "evolve/forced/on_resonance")[0])

        def forced_csv_check(text, o):
            traj = _need(o, "evolve/forced/on_resonance")[0]
            return _csv_matches(text, traj.times, np.real(traj.states))

        def riccati_csv_check(text, o):
            traj = _need(o, "evolve/fig2/direct")
            return _csv_matches(text, traj.times, _riccati_columns(traj.ks))

        add("forced/on_resonance/csv", forced_csv, forced_csv_check, _fingerprint)
        add("fig2/direct/csv", lambda o: _need(o, "evolve/fig2/direct").to_csv(),
            riccati_csv_check, _fingerprint)

    def _add(self, name, run, check, fingerprint):
        self.ops.append(Op("evolve/" + name, run, check, fingerprint))

    def _add_riccati(self, case, t_end, dt):
        name = case["name"]
        cfg = rototrap.validate_config(case["config"])
        self.cfgs[name] = cfg
        dk = np.asarray(case["dk_re"]) + 1j * np.asarray(case["dk_im"])

        def k0(o):
            k = _need(o, f"evolve/{name}/stationary").k + dk
            if not np.min(np.linalg.eigvalsh(k.real)) > 0:
                raise ValueError("perturbed K is not normalizable")
            return k

        def stationary_check(state, o):
            # criterion 7: Riccati residual below 1e-9 and Re K positive
            resid = float(np.max(np.abs(rototrap.riccati_rhs(state.k, cfg))))
            if not resid < 1e-9 or not state.re_min_eig() > 0:
                return f"stationary residual {resid:.3e}, min eig Re K {state.re_min_eig():.3e}"
            return None

        def route_check(traj, o):
            # criterion 9: the direct and linearized routes agree within 1e-7
            other = _need(o, f"evolve/{name}/direct")
            gap = float(np.max(np.abs(traj.ks - other.ks)))
            return None if gap < 1e-7 else f"routes differ by {gap:.3e}"

        def riccati_print(t):
            return _fingerprint(t.method, t.times, t.ks)

        self._add(f"{name}/stationary", lambda o: rototrap.stationary_K_from_modes(cfg),
                  stationary_check, lambda s: _fingerprint(s.k))
        for method in ("direct", "linearized"):
            self._add(
                f"{name}/{method}",
                lambda o, method=method: rototrap.evolve_riccati(k0(o), cfg, t_end, dt, method=method),
                _no_check if method == "direct" else route_check,
                riccati_print,
            )

    def warm_up(self):
        forced = self.inputs["forced"]
        cfg = rototrap.validate_config(forced["config"])
        rototrap.forced_evolve(cfg, np.asarray(forced["gravity"]), 2.0 * np.pi / cfg.omega)
        cfg = self.cfgs["fig2"]
        k = rototrap.stationary_K_from_modes(cfg).k
        for method in ("direct", "linearized"):
            rototrap.evolve_riccati(k, cfg, 0.1, self.inputs["dt"], method=method).to_csv()


# -- survey --------------------------------------------------------------------

# (op name, CLI arguments; the config path goes after the subcommand)
SURVEY_CALLS = (
    ("boundaries", ["boundaries"]),
    ("modes", ["modes"]),
    ("resonance", ["resonance"]),
    ("ground-state", ["ground-state"]),
    ("verify", ["verify"]),
    ("evolve", ["evolve", "--t-end", "2", "--gravity", "0,0,-1"]),
    ("evolve-riccati", ["evolve", "--t-end", "2", "--riccati", "--method", "linearized"]),
)
# calls that must exit 2 exactly where classify_chi_roots says unstable
_NEEDS_STABLE = ("ground-state", "evolve-riccati")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    vals = np.array([[float(x) for x in r] for r in rows[1:]])
    if len(rows) < 2 or not np.all(np.isfinite(vals)):
        raise ValueError("CSV has no finite rows")
    return vals


def stability_of(cfg):
    """'stable', 'unstable' or 'ambiguous', as classify_chi_roots says."""
    coeffs = rototrap.char_poly_coeffs(cfg)
    roots = rototrap.solve_cubic(coeffs)
    try:
        cls = rototrap.classify_chi_roots(roots, rototrap.default_classify_tol(coeffs))
    except rototrap.AmbiguousClassification:
        return "ambiguous"
    return "stable" if cls.label == rototrap.STABLE else "unstable"


class Survey(Workload):
    """Seven short in-process CLI calls per seeded config.

    The config files are written during set-up; each call parses its
    arguments, loads the file and writes its output to an in-memory
    stdout, as a user's shell invocation would minus process start.
    """

    def __init__(self, inputs, workdir):
        super().__init__(inputs, workdir)
        self.expect = {}
        for case in inputs["cases"]:
            path = os.path.join(workdir, case["name"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case["config"], fh)
            self.expect[case["name"]] = stability_of(rototrap.validate_config(case["config"]))
            for call, args in SURVEY_CALLS:
                argv = [args[0], path] + args[1:]
                self.ops.append(
                    Op(
                        f"survey/{case['name']}/{call}",
                        lambda o, argv=argv: _cli(argv),
                        self._checker(case["name"], call),
                        _fingerprint,
                    )
                )
        self.warm_path = os.path.join(workdir, "warm_up.json")
        with open(self.warm_path, "w", encoding="utf-8") as fh:
            json.dump(WARM_CONFIG, fh)

    def _checker(self, case, call):
        def check(out, outs):
            rc, stdout, stderr = out
            allowed = {0}
            if call in _NEEDS_STABLE:
                allowed = {"stable": {0}, "unstable": {2}, "ambiguous": {0, 2}}[self.expect[case]]
            if rc not in allowed:
                first = stderr.strip().splitlines()[:1]
                return f"exit {rc}, expected {sorted(allowed)} ({self.expect[case]}): {first}"
            if rc != 0:
                json.loads(stderr.strip().splitlines()[-1])
                return None
            if call.startswith("evolve"):
                _parse_csv(stdout)
                return None
            doc = json.loads(stdout)
            if call == "verify" and doc["ok"] is not True:
                bad = [c["name"] for c in doc["checks"] if not c["ok"]]
                return f"verify report not ok: {bad}"
            return None

        return check

    def warm_up(self):
        for _, args in SURVEY_CALLS:
            _cli([args[0], self.warm_path] + args[1:])


WORKLOADS = {"chart": Chart, "evolve": Evolve, "survey": Survey}
