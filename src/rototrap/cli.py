"""Command-line front end.

Every subcommand reads one JSON config (a path, or a shipped fixture name
fig1 .. fig6), runs the matching library operation, and writes CSV or JSON
to stdout or --output. Numbers in CSV carry 17 significant digits so
identical inputs give byte-identical files. Errors leave a JSON object on
stderr and exit with 1 (bad config), 2 (numerical failure), or 3
(verification failure).
"""

import argparse
import json
import sys
from importlib.resources import files

import numpy as np

from .errors import ConfigError, InvalidConfig, NotSymmetric, RototrapError, VerificationError
from .gravity import (
    default_forced_dt,
    forced_evolve,
    resonant_frequencies,
    trajectory_to_csv,
)
from .modes import eigenmodes
from .numerics import OmegaRange, _step_count, fmt17
from .quantum import GaussianState, evolve_riccati, riccati_rhs, stationary_K_from_modes
from .stability import region_map, stability_scan
from .trap import config_errors, validate_config
from .verify import verify_config

__all__ = ["main", "emit_plot_data", "fixture_path"]

FIXTURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def fixture_path(name):
    """Filesystem path of a shipped figure config."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}, expected one of {FIXTURES}")
    return str(files("rototrap") / "configs" / f"{name}.json")


def emit_plot_data(table, resonance=None):
    """Scan CSV with a chi_parabola = omega^2 column appended.

    Overlaying that column on the chi branches reproduces the resonance
    construction graphically: resonances sit where the parabola crosses a
    branch. When a resonance report is supplied its roots are recorded as
    comment lines ahead of the header.
    """
    lines = []
    if resonance is not None:
        lines.append(f"# resonance_omega1={fmt17(resonance.omega1)},region={resonance.region1}")
        lines.append(f"# resonance_omega2={fmt17(resonance.omega2)},region={resonance.region2}")
    lines.append(table.CSV_HEADER + ",chi_parabola")
    for row, om in zip(table.rows(), table.omegas):
        lines.append(row + "," + fmt17(om * om))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # usage mistakes are config errors: exit 1 with JSON on stderr
    def error(self, message):
        _print_error_json("InvalidConfig", message)
        raise SystemExit(1)


def _print_error_json(code, message, **extra):
    obj = {"error": code, "message": message}
    obj.update(extra)
    sys.stderr.write(json.dumps(obj) + "\n")


def _floats(count):
    def parse(text):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers")
        try:
            vals = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not np.all(np.isfinite(vals)):
            raise argparse.ArgumentTypeError(f"non-finite value in {text!r}")
        return vals

    return parse


def _build_parser():
    parser = _Parser(
        prog="rototrap",
        description="Rotating anisotropic trap: stability, modes, resonances, "
        "Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "config",
            help="path to a JSON config, or a fixture name (fig1 .. fig6)",
        )
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        return p

    p = add("scan", "chi branches and region labels over an Omega grid (CSV)")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument(
        "--parabola",
        action="store_true",
        help="append the chi_parabola = omega^2 overlay column",
    )

    add("boundaries", "instability window edges (JSON)")
    add("modes", "complex normal modes at the config rotation rate (JSON)")
    add("resonance", "gravity-induced resonant rotation rates (JSON)")
    add("ground-state", "stationary squeezed state K matrix (JSON)")

    p = add("evolve", "time evolution (CSV trajectory)")
    p.add_argument("--gravity", type=_floats(3), default=None, metavar="GX,GY,GZ")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument(
        "--riccati",
        action="store_true",
        help="evolve the width matrix K instead of a phase-space point",
    )
    p.add_argument(
        "--method",
        choices=("direct", "linearized"),
        default=None,
        help="Riccati integration route (with --riccati; default direct)",
    )
    p.add_argument("--x0", type=_floats(6), default=None, metavar="X,Y,Z,PX,PY,PZ")
    p.add_argument(
        "--k0",
        default=None,
        help="JSON file with an initial K (default: stationary state)",
    )

    add("verify", "cross-route consistency suite (JSON report)")
    return parser


# built once per process: building the tree costs far more than a parse, and
# parse_args leaves the parser as it found it
_PARSER = _build_parser()


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{what} is not valid JSON: {exc}") from exc


def _load_config(path_or_name):
    if path_or_name in FIXTURES:
        path_or_name = fixture_path(path_or_name)
    raw = _read_json(path_or_name, "config")
    if isinstance(raw, dict):
        try:
            return validate_config(raw)
        except ConfigError:
            pass  # config_errors lists every problem, not only the first
    errs = config_errors(raw)
    raise InvalidConfig("config rejected: " + "; ".join(errs), errors=errs)


def _load_k0(path):
    raw = _read_json(path, "K0 file")
    try:
        k0 = GaussianState.from_json_obj(raw)
    except (KeyError, TypeError, ValueError, NotSymmetric) as exc:
        raise InvalidConfig(f"K0 file is malformed: {exc!r}") from exc
    if k0.k.shape != (3, 3) or not np.all(np.isfinite(k0.k)):
        raise InvalidConfig(f"K0 must be a finite 3x3 matrix, got shape {k0.k.shape}")
    return k0


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _cmd_scan(cfg, args):
    try:
        grid = OmegaRange(args.omega_min, args.omega_max, args.steps)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc
    table = stability_scan(cfg, grid)
    for w in table.warnings:
        sys.stderr.write(f"# warning: {w}\n")
    if args.parabola:
        return emit_plot_data(table)
    return table.to_csv()


def _cmd_boundaries(cfg, args):
    rmap = region_map(cfg)
    osc = None if rmap.oscillatory is None else list(rmap.oscillatory)
    return _json_text(
        {
            "omega_minus": rmap.om_minus,
            "omega_plus": rmap.om_plus,
            "oscillatory": osc,
        }
    )


def _cmd_modes(cfg, args):
    return _json_text(eigenmodes(cfg.dynamics_matrix).to_json_obj())


def _cmd_resonance(cfg, args):
    return _json_text(resonant_frequencies(cfg).to_json_obj())


def _cmd_ground_state(cfg, args):
    state = stationary_K_from_modes(cfg)
    obj = state.to_json_obj()
    obj["riccati_residual"] = float(np.max(np.abs(riccati_rhs(state.k, cfg))))
    return _json_text(obj)


def _cmd_evolve(cfg, args):
    # a flag of the other run kind would be dropped unread
    other = ("--gravity", "--x0") if args.riccati else ("--method", "--k0")
    for flag in other:
        if getattr(args, flag[2:]) is not None:
            kind = "--riccati" if args.riccati else "a classical run (no --riccati)"
            raise InvalidConfig(f"{flag} does not apply to {kind}")
    dt = args.dt if args.dt is not None else default_forced_dt(cfg)
    try:
        _step_count(dt, args.t_end)
    except ValueError as exc:
        raise InvalidConfig(f"--t-end and --dt give no run: {exc}") from exc
    if args.riccati:
        if args.k0 is not None:
            k0 = _load_k0(args.k0)
        else:
            k0 = stationary_K_from_modes(cfg)
        traj = evolve_riccati(k0, cfg, args.t_end, dt, method=args.method or "direct")
        return traj.to_csv()
    g = args.gravity if args.gravity is not None else np.zeros(3)
    traj = forced_evolve(cfg, g, args.t_end, dt=dt, x0=args.x0)
    return trajectory_to_csv(traj)


def _cmd_verify(cfg, args):
    report = verify_config(cfg)
    text = _json_text(report.to_json_obj())
    if not report.ok:
        _write_output(text, args.output)
        names = ", ".join(c.name for c in report.failed)
        raise VerificationError(f"verification failed: {names}")
    return text


_DISPATCH = {
    "scan": _cmd_scan,
    "boundaries": _cmd_boundaries,
    "modes": _cmd_modes,
    "resonance": _cmd_resonance,
    "ground-state": _cmd_ground_state,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
}


def _write_output(text, output):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidConfig(f"cannot write output: {exc}") from exc


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow and invalid values at extreme rates surface as the
        # library's own errors; numpy's warnings would precede the JSON
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = _load_config(args.config)
            _write_output(_DISPATCH[args.command](cfg, args), args.output)
    except RototrapError as exc:
        extra = {}
        if isinstance(exc, InvalidConfig) and exc.errors:
            extra["errors"] = exc.errors
        _print_error_json(exc.code, str(exc), **extra)
        return exc.exit_code
    return 0

