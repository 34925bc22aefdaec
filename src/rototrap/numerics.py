"""Shared numerical kernels.

Generic fixed-step RK4, which tests keep as the oracle of the fused
steppers, the step grid and finite-prefix rule those steppers share, RK4's
exact one-step map for linear systems (a constant-plus-harmonic drive
carried in the state, so every such run is homogeneous), dense nonsymmetric
eigendecomposition, positive-definiteness tests, one guarded inverse for
stacks of small complex matrices and CSV number formatting. Fixed-step
integration is deliberate: every system here is small and smooth, and
reproducible CSV output matters more than adaptive speed.
"""

import numpy as np

from .errors import (
    ConvergenceFailure,
    NearSingular,
    NonFiniteState,
    NotSymmetric,
    StepTooLarge,
)

__all__ = [
    "OmegaRange",
    "Trajectory",
    "rk4_integrate",
    "linear_flow",
    "eig_general",
    "posdef_min_eig",
    "cinv3",
    "cinv3_stack",
    "fmt17",
]


def fmt17(x):
    """Format a real number with 17 significant digits, locale-free."""
    return format(float(x), ".17g")


def _csv_text(header, table):
    """CSV of a real 2-D table under a header row, every value as fmt17 writes it."""
    row = ",".join(["{:.17g}"] * len(header))
    table = np.asarray(table, dtype=float)
    lines = [",".join(header)]
    # a block of rows at a time, so only one block's Python floats are alive
    for lo in range(0, len(table), 4096):
        lines += [row.format(*vals) for vals in table[lo: lo + 4096].tolist()]
    lines.append("")  # the trailing newline, without copying the joined text
    return "\n".join(lines)


class OmegaRange:
    """A uniform grid of rotation rates.

    Parameters
    ----------
    start, stop : float
        Finite endpoints, start < stop.
    steps : int
        Number of grid points, at least 2. Endpoints are included.
    """

    def __init__(self, start, stop, steps):
        start = float(start)
        stop = float(stop)
        steps = int(steps)
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValueError(f"OmegaRange requires finite endpoints, got [{start}, {stop}]")
        if not start < stop:
            raise ValueError(f"OmegaRange requires start < stop, got [{start}, {stop}]")
        if steps < 2:
            raise ValueError(f"OmegaRange requires steps >= 2, got {steps}")
        self.start = start
        self.stop = stop
        self.steps = steps

    def values(self):
        return np.linspace(self.start, self.stop, self.steps)

    def __repr__(self):
        return f"OmegaRange({self.start}, {self.stop}, steps={self.steps})"


class Trajectory:
    """Time series of states sampled on a strictly increasing time grid.

    ``states[i]`` is the state at ``times[i]``; states may be real or complex
    vectors (flattened K matrices for Riccati runs).
    """

    def __init__(self, times, states):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states)
        if times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states must be matching 1D sequences")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.states = states

    def __len__(self):
        return len(self.times)

    @property
    def final_state(self):
        return self.states[-1]


# the most steps a fixed-step run takes
_MAX_STEPS = 10**7


def _step_count(dt, t_end):
    """Number of full steps of dt from t = 0 to t_end, and the ragged last step.

    The ragged step is None when the full steps land on t_end within
    roundoff; the 1e-12 slack avoids a spurious tiny final step. A run of
    more than 10^7 steps raises ValueError before anything is allocated:
    at the cap the largest record a run keeps, the linearized Riccati
    route's 6x3 complex block of 288 bytes a step, takes 2.9 GB.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0:
        raise ValueError(f"t_end = {t_end} lies before the start time 0")
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(
            f"t_end / dt = {t_end / dt:.3g} steps, above the cap of {_MAX_STEPS} steps"
        )
    n_full = int(np.floor(t_end / dt + 1e-12))
    rem = t_end - n_full * dt
    return n_full, (rem if rem > 1e-12 * max(1.0, abs(t_end)) else None)


def rk4_integrate(rhs, y0, t_end, dt):
    """Integrate dy/dt = rhs(t, y) with classical fixed-step RK4.

    The last step is shortened so the trajectory lands exactly on ``t_end``.
    Every accepted step is recorded. On overflow raises NonFiniteState
    carrying the finite part of the trajectory, so scans over unstable
    configs can report the failure without dying.
    """
    y = np.asarray(y0).copy()
    if y.dtype.kind not in "fc":
        y = y.astype(float)
    t = 0.0
    t_end = float(t_end)
    times = [t]
    states = [y.copy()]
    n_full, ragged = _step_count(dt, t_end)
    steps = [dt] * n_full
    if ragged is not None:
        steps.append(ragged)
    for h in steps:
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(
                f"state became non-finite at t={t:.6g}",
                trajectory=Trajectory(times, states),
            )
        times.append(t)
        states.append(y.copy())
    return Trajectory(times, states)


def _check_step_bound(dt, m):
    """StepTooLarge when dt ||M||_1 > 0.1, the bound of every fixed-step run on M.

    The bound holds long before RK4 becomes inaccurate on M.
    """
    norm = np.linalg.norm(m, 1)
    if dt * norm > 0.1:
        raise StepTooLarge(f"dt = {dt:.3g} too large for ||M||_1 = {norm:.3g}")


def _step_runs(dt, t_end):
    """The steps of a fixed-step run from t = 0 to t_end, as rk4_integrate takes them.

    Returns the runs (lo, hi, h) of equal steps (steps lo..hi-1 have size
    h) and the n + 1 times, accumulated as t = t + h so they are
    bit-identical to rk4_integrate's.
    """
    n_full, ragged = _step_count(dt, float(t_end))
    runs = [(0, n_full, float(dt))]
    if ragged is not None:
        runs.append((n_full, n_full + 1, ragged))
    hs = np.concatenate([np.full(hi - lo, h) for lo, hi, h in runs])
    return runs, np.add.accumulate(np.concatenate([[0.0], hs]))


def _rotation(phi):
    """E with (1, cos(w t + phi), sin(w t + phi)) = E (1, cos w t, sin w t)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rk4_step_map(m, h, drive=None):
    """The matrix of one RK4 step of size h on y' = M y, or on the driven state.

    Undriven, it is R(hM). With drive = (w, F), the step acts on (y, u),
    u(t) = (1, cos w t, sin w t), as [[R, Q], [0, E(h)]] with
    Q = B0 F^T + B_half F^T E(h/2) + B1 F^T E(h).
    """
    a = h * m
    eye = np.eye(len(m))
    a2 = a @ a
    a3 = a2 @ a
    r = eye + a + a2 / 2.0 + a3 / 6.0 + a3 @ a / 24.0
    if drive is None:
        return r
    omega, f = drive
    c = h / 6.0
    ft = f.T
    e_half = _rotation(0.5 * omega * h)
    e = _rotation(omega * h)
    q = c * (eye + a + a2 / 2.0 + a3 / 4.0) @ ft
    q += c * (4.0 * eye + 2.0 * a + a2 / 2.0) @ ft @ e_half
    q += c * ft @ e
    return np.block([[r, q], [np.zeros((3, len(m))), e]])


# steps that linear_flow writes per numpy call; fixed, so a state's bits
# depend on its step index alone
_BLOCK = 64


def linear_flow(m, y0, t_end, dt, drive=None):
    """Integrate dy/dt = M y + f(t) with RK4 taken as its exact one-step map.

    On a linear system one classical RK4 step of size h is the affine map

        y <- R(hM) y + B0 f(t) + B_half f(t + h/2) + B1 f(t + h),

    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4 stability function
    and, for A = hM, B0 = h/6 (I + A + A^2/2 + A^3/4),
    B_half = h/6 (4I + 2A + A^2/2) and B1 = h/6 I. The steps are taken a
    block of B = 64 at a time: a block's states are S^j z_start for
    j = 1..B, one stacked product with the powers S^1..S^B, which are built
    once per step size.

    Undriven, f = 0, S = R(hM) and z_start is the block's first state.
    ``drive = (w, F)``, with F a real (3, n) array, is the drive
    f(t) = F^T u(t), u(t) = (1, cos w t, sin w t). Since u(t + s) =
    E(s) u(t) for a rotation E, the driven run is homogeneous in (y, u):
    S = [[R, Q], [0, E(h)]] with Q = B0 F^T + B_half F^T E(h/2) +
    B1 F^T E(h), and z_start is the block's first state with u set to its
    exact value at the block's start time, so the drive's phase does not
    drift over a long run. Blocks start at fixed step indices and every
    product has the same shape in every run, so a run cut short repeats
    the longer run's states bit for bit.

    The run starts at t = 0. Steps, times (accumulated as t = t + h), the
    ValueError guards and the NonFiniteState prefix are those of
    rk4_integrate; the states differ from it by rounding only. ``y0`` is a
    length-n vector or an (n, k) block of columns, real or complex; a
    driven run takes a real vector only.
    """
    m = np.asarray(m)
    y = np.asarray(y0)
    if y.dtype.kind not in "fc":
        y = y.astype(float)
    if y.ndim not in (1, 2) or m.shape != (len(y), len(y)):
        raise ValueError(
            f"linear_flow needs an (n, n) matrix and a state of n rows, "
            f"got {m.shape} and {y.shape}"
        )
    dtype = np.result_type(y, m)
    d = len(y)
    if drive is not None:
        omega, f = float(drive[0]), np.asarray(drive[1])
        if y.ndim != 1 or dtype.kind == "c" or f.dtype.kind == "c":
            raise ValueError("a driven linear_flow needs a real vector state, matrix and F")
        if f.shape != (3, d):
            raise ValueError(f"drive F must have shape {(3, d)}, got {f.shape}")
        f = f.astype(float)
        if not (np.isfinite(omega) and np.isfinite(f).all()):
            raise ValueError("drive frequency and F must be finite")
        drive = (omega, f)
    runs, times = _step_runs(dt, t_end)
    n = len(times) - 1
    # one block of slack rows: every block is computed whole, so a state's
    # bits never depend on where the run ends
    states = np.empty((n + 1 + _BLOCK,) + y.shape, dtype=dtype)
    states[0] = y
    # each state as a (d, w) block of columns; a real R acts on the real and
    # imaginary parts alike, so complex states are stepped as their real view
    cols = states.reshape(len(states), d, -1)
    if dtype.kind == "c" and m.dtype.kind != "c":
        cols = cols.view(np.finfo(dtype).dtype)
    w = cols.shape[2]
    # an overflowing run is reported below as NonFiniteState, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, h in runs:
            step = _rk4_step_map(m, h, drive)
            # the state rows of S^1..S^B stacked as a (B d, len(S)) matrix,
            # by doubling
            pows = step[None]
            while len(pows) < _BLOCK:
                pows = np.concatenate([pows, pows @ pows[-1]])
            pows = pows[:_BLOCK, :d].reshape(-1, len(step))
            for s in range(lo, hi, _BLOCK):
                start = cols[s]
                if drive is not None:
                    wt = drive[0] * times[s]
                    start = np.concatenate([start, [[1.0], [np.cos(wt)], [np.sin(wt)]]])
                block = cols[s + 1: s + 1 + _BLOCK]
                np.matmul(pows, start, out=block.reshape(-1, w))
    return _finite_trajectory(times, states[: n + 1])


def _finite_trajectory(times, states):
    """Trajectory(times, states), or NonFiniteState with rk4_integrate's prefix.

    A stepper that fills ``states`` without checking each step hands them
    here; the prefix ends before the first non-finite state, as it would
    had the run stopped there.
    """
    finite = np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteState(
            f"state became non-finite at t={times[k]:.6g}",
            trajectory=Trajectory(times[:k], states[:k]),
        )
    return Trajectory(times, states)


def eig_general(m):
    """Eigendecomposition of a small (at most 6x6) general real/complex matrix.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns.
    Each pair satisfies ||M v - lam v|| < 1e-9 ||v|| relative to the matrix
    scale; failure of the underlying solver or of that residual raises
    ConvergenceFailure.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eig_general expects a square matrix")
    if m.shape[0] > 6:
        raise ValueError("eig_general is limited to matrices up to 6x6")
    try:
        lam, vec = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(m)))
    res = np.linalg.norm(m @ vec - vec * lam, axis=0)
    bad = np.flatnonzero(res > 1e-9 * scale * np.linalg.norm(vec, axis=0))
    if bad.size:
        i = int(bad[0])
        raise ConvergenceFailure(
            f"eigenpair {i} residual {res[i]:.3e} exceeds tolerance"
        )
    return lam, vec


def posdef_min_eig(s):
    """Smallest eigenvalue of a symmetric real matrix.

    The input must be symmetric within 1e-10 (absolute, relative to its own
    scale); otherwise NotSymmetric is raised.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("posdef_min_eig expects a square matrix")
    asym = np.max(np.abs(s - s.T))
    if asym > 1e-10 * max(1.0, float(np.max(np.abs(s)))):
        raise NotSymmetric(f"matrix asymmetry {asym:.3e} exceeds 1e-10")
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


# the inversion guard: a usable matrix has d kappa_1 below _COND_LIMIT and an
# identity residual ||M M^-1 - I||_F of at most _INV_RESIDUAL
_COND_LIMIT = 1e12
_INV_RESIDUAL = 1e-10


def cinv3(m):
    """Inverse of a 3x3 (or smaller) complex matrix: cinv3_stack on one matrix.

    NearSingular carries cinv3_stack's message, with ``index`` None.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] > 3:
        raise ValueError("cinv3 expects a square matrix up to 3x3")
    try:
        return cinv3_stack(m[None])[0]
    except NearSingular as exc:
        raise NearSingular(str(exc)) from None


def cinv3_stack(ms):
    """Inverses of an (n, d, d) stack, d <= 3, under the one inversion guard.

    A matrix is refused when d kappa_1 reaches 1e12, kappa_1 =
    ||M||_1 ||M^-1||_1 read off the inverse (kappa_2 <= d kappa_1, so no
    matrix with an SVD condition number of 1e12 passes), or when
    ||M M^-1 - I||_F exceeds 1e-10; a NaN fails both. The first matrix
    refused raises NearSingular with its position as ``index``.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or ms.shape[1] > 3:
        raise ValueError("cinv3_stack expects a stack of square matrices up to 3x3")
    d = ms.shape[1]
    try:
        inv = np.linalg.inv(ms)
    except np.linalg.LinAlgError:
        # an exactly singular matrix, unnamed by the batched call: from it
        # on, the inverse is infinite, which the condition test refuses
        inv = np.full_like(ms, np.inf)
        for i, m in enumerate(ms):
            try:
                inv[i] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                break
    with np.errstate(over="ignore", invalid="ignore"):
        cond = d * np.linalg.norm(ms, 1, axis=(1, 2))
        cond *= np.linalg.norm(inv, 1, axis=(1, 2))
        eye_gap = ms @ inv
        eye_gap -= np.eye(d)
        res = np.linalg.norm(eye_gap, axis=(1, 2))
    bad_cond = ~(cond < _COND_LIMIT)
    bad = bad_cond | ~(res <= _INV_RESIDUAL)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_cond[i]:
            raise NearSingular(f"condition number {cond[i]:.3e} >= 1e12", index=i)
        raise NearSingular(f"inverse residual {res[i]:.3e} exceeds 1e-10", index=i)
    return inv
