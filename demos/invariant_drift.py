"""Quadratic constants of motion along an integrated orbit.

Besides the rotating-frame Hamiltonian H the trap admits two further
quadratic invariants; solved blind, the defining equations have a null space
of dimension exactly three. With M = J H the dynamics matrix, the three are
G0 = H, G1 = H (-M^2) and the third invariant G2 = H (-M^2)^2. They solve
the defining equations to rounding and stay constant along an integrated
orbit to integrator accuracy.
"""

import sys
from pathlib import Path

import numpy as np

from rototrap import (
    char_poly_coeffs,
    evaluate_invariant,
    invariance_nullspace,
    invariance_residuals,
    invariant_forms,
    linear_flow,
    make_config,
    solve_cubic,
    trajectory_drift,
)

V = np.diag([1.0, 2.0, 3.0])
THETA = 0.1


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    out.mkdir(parents=True, exist_ok=True)

    axis = np.array([np.sin(THETA), 0.0, np.cos(THETA)])
    cfg = make_config(V, axis, 0.5)
    dim, _, _ = invariance_nullspace(cfg)
    print(f"null space of the defining equations: dimension {dim}")

    forms = invariant_forms(cfg)
    labels = [f"G{n}" for n in range(len(forms))]
    for label, g in zip(labels, forms):
        res = invariance_residuals(g, cfg).worst
        print(f"  {label:12s} residual {res:.2e}")

    chi = max(abs(r.real) for r in solve_cubic(char_poly_coeffs(cfg)))
    t_fast = 2.0 * np.pi / np.sqrt(chi)
    x0 = np.array([1.0, 0.5, -0.3, 0.2, 1.1, -0.7])
    traj = linear_flow(cfg.dynamics_matrix, x0, 20.0 * t_fast, t_fast / 400.0)

    lines = ["t," + ",".join(labels)]
    for i, t in enumerate(traj.times):
        vals = [evaluate_invariant(g, traj.states[i].real) for g in forms]
        lines.append(",".join([f"{t:.6f}"] + [f"{v:.12e}" for v in vals]))
    path = out / "invariant_drift.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    for label, g in zip(labels, forms):
        v0 = evaluate_invariant(g, x0)
        drift = trajectory_drift(g, traj)
        print(f"  {label:12s} value {v0:+.6f}, relative drift {drift:.2e} "
              f"over 20 fast periods")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
