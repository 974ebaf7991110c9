"""Noise-averaged single-time and two-time correlation dynamics.

The two-time state is the six-component complex vector

    Y = ( <sz sz>, <a sz sz>, <s+ s->, <a s+ s->, <s- s+>, <a s- s+> )

propagated in t1 at fixed anchor t2 by dY/dt1 = A(t1, t2) Y + b(t1, t2).
"with-corrections" (qrt+) keeps the two-time kernel families 3 and 4; "qrt"
zeroes them, which is the quantum-regression propagation of the same
single-time generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable

MODES = ("qrt", "qrt+", "both")

RTOL = 1e-8
ATOL = 1e-10

#: choose_t2 settles when |g1 - g1(end)| stays below this share of its range
ANCHOR_FRAC = 0.01
#: and caps the anchor at this share of the horizon
ANCHOR_CAP_FRAC = 0.6


class IntegratorError(RuntimeError):
    """Adaptive integration failed or produced an unphysical state."""


@dataclass(frozen=True)
class SystemSpec:
    """Two-level system parameters.

    epsilon0    static bias (energy)
    v           bare tunneling element (energy); only scales kernel magnitudes
    initial_sz  <sigma_z(0)>, in [-1, 1]

    The polaron-dressed tunneling element is identically zero for the
    structured bath used here (spectral-density exponent below two), so it is
    not a parameter.
    """

    epsilon0: float
    v: float = 1.0
    initial_sz: float = 1.0

    def __post_init__(self):
        if abs(self.initial_sz) > 1.0:
            raise ValueError(f"|initial_sz| must be <= 1, got {self.initial_sz}")


@dataclass
class CorrelationSeries:
    """Propagated correlators at anchor t2 plus the single-time background."""

    ts: np.ndarray          # full grid
    g1: np.ndarray          # <sigma_z(t)> on ts
    g2: np.ndarray          # <alpha(t) sigma_z(t)> on ts
    t2: float
    t1: np.ndarray          # output grid, t1 >= t2
    qrt: np.ndarray | None        # (len(t1), 6) complex
    qrt_plus: np.ndarray | None


def equal_time_initials(g1_at_t2, g2_at_t2) -> np.ndarray:
    """Y(t2) from the operator identities sz sz = I, s+- s-+ = (I +- sz)/2."""
    g1 = complex(g1_at_t2)
    g2 = complex(g2_at_t2)
    if abs(g1) > 1.0 + 1e-6:
        raise ValueError(f"|g1(t2)| = {abs(g1)} exceeds 1")
    return np.array(
        [1.0, 0.0, (1.0 + g1) / 2.0, g2 / 2.0, (1.0 - g1) / 2.0, -g2 / 2.0],
        dtype=complex,
    )


# Dormand–Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19
# (1980)) with Shampine's quartic dense output (Math. Comp. 46, 135 (1986)),
# written with the literals of scipy's RK45 so each product rounds alike.
# np.dot casts a float operand to complex before its BLAS call, so the
# complex copies made here once give the same products.
_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
#: stage s's coefficients a_{s,0..s-1}, for s = 1..5
_A = [np.array(row, dtype=complex) for row in (
    [1/5],
    [3/40, 9/40],
    [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
)]
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84], dtype=complex)
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40],
              dtype=complex)
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
], dtype=complex)
#: error exponent -1/(q + 1) of the embedded order-4 estimate
_ERROR_EXPONENT = -1 / 5
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x):
    """RMS of a complex vector as a Python float, summed as
    numpy.linalg.norm sums it: sqrt(re . re + im . im)."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step size (Hairer, Nørsett & Wanner, Solving ODEs I, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _propagate(rhs, y0, t_out, rtol, atol, what, size, bound, breach):
    """Dormand–Prince RK45 from t_out[0] to t_out[-1], sampled on t_out.

    The adaptive stepper repeats scipy's RK45 operation for operation (its
    tableau literals, initial-step rule, step-size factors 0.9/0.2/10 and
    numpy calls in the same order), and each accepted step's dense output
    K.T @ P is evaluated on the output nodes the step covers, as
    solve_ivp(..., t_eval=t_out) does.  A solve that passes therefore
    returns solve_ivp's samples bit for bit, laid out as its
    (len(y0), len(t_out)) array.  After every step the new samples are
    checked: the first node where size(block) exceeds bound stops the run
    with IntegratorError(breach(t, size)), so a run that leaves the
    physical range does not integrate on to t_out[-1].  A step size below
    ten ulps of t raises IntegratorError naming `what`.

    The bookkeeping runs on Python floats: t, h, h_abs and the error norm
    round as numpy's float64 scalars do, and math.nextafter, math.sqrt and
    ** are the same IEEE operations as their numpy counterparts.  What the
    bit-for-bit contract needs unchanged is every call that forms solution
    values: the stage sums np.dot(K[:s].T, a) * h, the update
    y + h * np.dot(K[:-1].T, B), the error estimate np.dot(K.T, E), the
    norm's sum sqrt(re . re + im . im) (_rms), and the dense output
    h * np.dot(K.T.dot(P), x^1..4) + y_old, all on the same operands in the
    same layout.  The stage views of K are built once per solve.
    """

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=complex)

    t, t_bound = float(t_out[0]), float(t_out[-1])
    y = y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    K = np.empty((len(_C) + 1, y.size), dtype=complex)
    stages = [(K[s], K[:s].T, a, c)
              for s, (a, c) in enumerate(zip(_A, _C[1:]), start=1)]
    k_body, k_all = K[:-1].T, K.T
    blocks = []
    i = 0
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegratorError(f"{what} failed: {TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for k_s, k_prev, a, c in stages:
                dy = np.dot(k_prev, a) * h
                k_s[:] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(k_body, _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(k_all, _E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        j = np.searchsorted(t_out, t, side="right")
        if j > i:
            x = (t_out[i:j] - t_old) / h
            p = np.empty((_P.shape[1], x.size))
            p[0] = x
            for k in range(1, len(p)):  # x, x^2, x^3, x^4
                np.multiply(p[k - 1], x, out=p[k])
            block = h * np.dot(k_all.dot(_P), p)
            block += y_old[:, None]
            sizes = size(block)
            if sizes.max() > bound:
                k = int(np.argmax(sizes > bound))
                raise IntegratorError(breach(t_out[i + k], sizes[k]))
            blocks.append(block)
            i = j
    return np.hstack(blocks)


def evolve_single_time(table: KernelTable, initial_sz: float, rtol=RTOL, atol=ATOL):
    """(g1, g2) on the table grid from g1(0) = initial_sz, g2(0) = 0.

    Raises IntegratorError if a step fails, or at the first grid node where
    |Re g1| exceeds 1 + 1e-6 (the integration stops there).
    """

    def rhs(t, y):
        g11, g12, g21, g22, *_ = table.single_time_at(t)
        g1, g2 = y
        return [
            -g11 * g1 + g12 * g2 - g21,
            -(table.nu + g11) * g2 + g12 * g1 - g22,
        ]

    def breach(t, size):
        return (f"single-time solution violates |<sigma_z>| <= 1: "
                f"|Re g1| = {size:.9f} at t = {t:.6f}")

    g1, g2 = _propagate(
        rhs, np.array([initial_sz, 0.0], dtype=complex), table.ts, rtol, atol,
        "single-time integration", lambda block: np.abs(block[0].real),
        1.0 + 1e-6, breach,
    )
    return g1, g2


def choose_t2(ts, g1):
    """Quasi-stationary anchor: earliest grid time from which |g1 - g1(end)|
    stays below ANCHOR_FRAC * |g1(0) - g1(end)|.

    The suffix maximum makes the criterion persistent (a transient crossing
    during an oscillation does not qualify).  Falls back to
    ANCHOR_CAP_FRAC * horizon when g1 has not settled, and to t2 = 0 for a
    constant g1.
    """
    g = np.asarray(g1).real
    scale = abs(g[0] - g[-1])
    if scale < 1e-14:
        return float(ts[0])
    tail = np.abs(g - g[-1])
    suffix = np.maximum.accumulate(tail[::-1])[::-1]
    ok = suffix < ANCHOR_FRAC * scale
    cap = ANCHOR_CAP_FRAC * ts[-1]
    if not ok.any():
        return float(ts[np.searchsorted(ts, cap)])
    t = float(ts[int(np.argmax(ok))])
    return t if t <= cap else float(ts[np.searchsorted(ts, cap)])


def assemble_generator(
    t1: float,
    t2: float,
    table: KernelTable,
    g1_t2: complex,
    g2_t2: complex,
    mode: str,
):
    """(A, b) of the six-component system at (t1, t2).

    mode="qrt" zeroes every two-time kernel entry.
    """
    if t1 < t2:
        raise ValueError(f"assemble_generator requires t1 >= t2 (got {t1} < {t2})")
    if mode not in ("qrt", "qrt+"):
        raise ValueError(f"mode must be 'qrt' or 'qrt+', got {mode!r}")
    g11, g12, g21, g22, g51, g52, g61, g62 = table.single_time_at(t1)
    if mode == "qrt+":
        g31, g32, g41, g42 = table.two_time_pair(t1, t2)
    else:
        g31 = g32 = g41 = g42 = 0j
    nu = table.nu
    ie = 1j * table.epsilon0
    io = 1j * table.omega_n
    A = np.array([
        -g11, g12, -4 * g31, -4 * g32, 4 * g41, 4 * g42,
        g12, -(nu + g11), 4 * g32, 4 * g31, -4 * g42, 4 * g41,
        g41, -g42, ie - g51, io + g52, 0, 0,
        -g42, g41, io + g52, -(nu - ie + g51), 0, 0,
        g31, g32, 0, 0, -(ie + g61), -(io + g62),
        g32, g31, 0, 0, -(io + g62), -(nu + ie + g61),
    ], dtype=complex).reshape(6, 6)
    decay = float(np.exp(-nu * (t1 - t2)))
    b = np.array([-g21 * g1_t2 - decay * g22 * g2_t2,
                  -g22 * g1_t2 - decay * g21 * g2_t2, 0, 0, 0, 0], dtype=complex)
    return A, b


def evolve_two_time(
    table: KernelTable,
    g1: np.ndarray,
    g2: np.ndarray,
    t2: float,
    mode: str = "both",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> CorrelationSeries:
    """Y(t1) per mode from the anchor t2, given the single-time background.

    g1, g2 are the evolve_single_time solution on the table grid; t2 must be
    a grid node before the last (choose_t2 picks one from g1).  Both
    requested modes start from the identical equal-time initial data at t2.
    Physicality is enforced on the output nodes as the integration reaches
    them: the first node where |Y_1| exceeds 1 + 1e-3 stops that mode's run
    with an IntegratorError naming the node's t1 and |Y_1|.
    """

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    ts = table.ts
    i2 = table.node_index(t2)
    if i2 == len(ts) - 1:
        raise ValueError(f"t2 = {t2} is the last grid node: no step to propagate")
    t2 = float(ts[i2])
    y0 = equal_time_initials(g1[i2], g2[i2])
    t_out = ts[i2:]
    g1_t2, g2_t2 = complex(g1[i2]), complex(g2[i2])

    def run(m):
        def rhs(t1, y):
            A, b = assemble_generator(t1, t2, table, g1_t2, g2_t2, m)
            return A @ y + b

        def breach(t1, size):
            return (f"physicality breach in mode {m}: |Y_1| = {size:.6f} "
                    f"at t1 = {t1:.6f} (t2 = {t2:.6f})")

        return _propagate(
            rhs, y0, t_out, rtol, atol, f"two-time integration ({m})",
            lambda block: np.abs(block[0]), 1.0 + 1e-3, breach,
        ).T

    y_qrt = run("qrt") if mode in ("qrt", "both") else None
    y_plus = run("qrt+") if mode in ("qrt+", "both") else None
    return CorrelationSeries(
        ts=ts, g1=g1, g2=g2, t2=t2, t1=t_out, qrt=y_qrt, qrt_plus=y_plus
    )

