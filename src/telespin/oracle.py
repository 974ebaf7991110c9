"""Ground-truth Monte Carlo over telegraph-noise realizations.

For each sampled path the four coupled per-realization equations are
integrated along t1 and the results averaged.  The per-path memory kernels
carry the oriented fluctuating phase

    f(t, tau) = e0 (t - tau) + Omega \\int_tau^t alpha(z) dz,

entering as cos f / sin f in the sigma_z-sector kernels, as the full
backward phase e^{-i f} in the coherence-damping kernel, and with the
anchor-window phase f(t2, tau) in the two-time correction kernels.  These
orientations are fixed by requiring the dichotomous-noise average to
reproduce the noise-averaged generator, which the validation suite checks
against closed-form propagator moments and the averaged dynamics.

Per-path kernel series are convolutions of the path-static sequence
exp(-i Omega W[j]) (W = cumulative noise integral) against fixed kernel
sequences, so a whole block of paths is processed with batched FFTs in
O(N log N) per path.  All trapezoid sums live on the same grid as the
noise-averaged kernel tables, so discretization bias is common mode in
oracle-versus-averaged comparisons.

Time stepping is RK4 with step 2 dt and stages on the grid nodes.  The
per-path equations are linear, so one step of a scalar equation
dy/dt = a y + b is an affine map y -> A y + B; the maps of all steps and
paths are tabulated with the RK4 stage formulas (MAP_CHUNK steps at a
time) and applied by a one-multiply-add recurrence.  sigma_z is scalar on
the whole grid, and zz, pm, mp are three decoupled scalar equations except
inside the correction window: the first ceil(width / 2) steps after the
anchor, where the two-time kernels G3/G4 are nonzero in qrt+ mode.  Only
those steps run the coupled system one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .bath import Q2_SUPPORT_CUT, exponent_fn, xi_coefficient
from .kernels import resolution_bound
from .noise import NoisePath, NoiseSpec, sample_path

#: paths per reduction block; fixed so results never depend on scheduling
BLOCK = 64

#: RK4 step maps built at a time; bounds the memory the maps take
MAP_CHUNK = 512


@dataclass(frozen=True)
class MCEstimate:
    """Ensemble mean and standard errors (real/imag parts separately)."""

    mean: np.ndarray
    se_re: np.ndarray
    se_im: np.ndarray
    n_paths: int


@dataclass
class TrajectoryRun:
    """Per-path correlator series on the output grid."""

    path: NoisePath
    t_full: np.ndarray   # full output grid (single-time sigma_z)
    t1: np.ndarray       # two-time output grid, t1 >= t2
    sz: np.ndarray       # <sigma_z(t)> along the path
    zz: np.ndarray       # <sigma_z(t1) sigma_z(t2)>
    pm: np.ndarray       # <sigma_+(t1) sigma_-(t2)>
    mp: np.ndarray       # <sigma_-(t1) sigma_+(t2)>
    sz_at_t2: float


def _kernel_sequences(ts, exponents, epsilon0):
    """Fixed sequences K_c e^{i e0 u}, K_s e^{i e0 u}, E_f+- on the grid,
    truncated where e^{-Q2} is numerically dead."""
    q1, q2 = exponents(ts)
    alive = q2 < Q2_SUPPORT_CUT
    m_cut = int(np.argmin(alive)) if not alive.all() else len(ts) - 1
    m_cut = max(m_cut, 1)
    env = np.exp(-np.minimum(q2, 700.0))
    rot = np.exp(1j * epsilon0 * ts)
    a_c = np.where(alive, env * np.cos(q1), 0.0) * rot
    a_s = np.where(alive, env * np.sin(q1), 0.0) * rot
    d_p = np.where(alive, env, 0.0) * np.exp(1j * q1) * rot
    d_m = np.where(alive, env, 0.0) * np.exp(1j * q1) * np.conj(rot)
    return a_c, a_s, d_p, d_m, m_cut


def _path_node_arrays(paths, ts):
    """Signs and exact cumulative noise integrals at the grid nodes."""
    b = len(paths)
    n = len(ts)
    signs = np.empty((b, n))
    cum = np.empty((b, n))
    for i, p in enumerate(paths):
        signs[i], cum[i] = p.signs_and_cumulative(ts)
    return signs, cum


def _single_time_kernels(ts, cum, a_c, a_s, omega_n, fft_len):
    """Z_c, Z_s with trapezoid weights; the per-path kernels follow as
    G1 = 4 V^2 Re Z_c, G2 = 4 V^2 Im Z_s, G5 = 2 V^2 conj(Z_c)."""
    h = ts[1] - ts[0]
    q = np.exp(-1j * omega_n * cum)
    fq = np.fft.fft(q, n=fft_len, axis=1)
    n = len(ts)

    def z_of(a):
        fa = np.fft.fft(a, n=fft_len)
        conv = np.fft.ifft(fq * fa[None, :], axis=1)[:, :n]
        corr = 0.5 * (a[0] * q + a[None, :n] * q[:, :1])
        return np.exp(1j * omega_n * cum) * h * (conv - corr)

    return z_of(a_c), z_of(a_s)


def _two_time_kernels(ts, cum, d_p, d_m, epsilon0, omega_n, v2, i2, m_cut):
    """G3, G4 on node indices [i2, min(n-1, i2+m_cut)] for each path."""
    n = len(ts)
    i_hi = min(n - 1, i2 + m_cut)
    i_idx = np.arange(i2, i_hi + 1)
    j_lo = max(0, i2 - m_cut)
    j_idx = np.arange(j_lo, i2 + 1)
    h = ts[1] - ts[0]
    if i2 == 0:
        width = i_hi - i2 + 1
        zeros = np.zeros((cum.shape[0], width), dtype=complex)
        return zeros, zeros, i_idx
    w = np.full(len(j_idx), h)
    if j_lo == 0:
        w[0] = 0.5 * h
    w[-1] = 0.5 * h
    m = i_idx[None, :] - j_idx[:, None]
    valid = m <= m_cut  # m >= 0 holds by construction
    dmat_p = np.where(valid, d_p[np.minimum(m, m_cut)], 0.0)
    dmat_m = np.where(valid, d_m[np.minimum(m, m_cut)], 0.0)
    r = np.exp(-1j * epsilon0 * ts[j_idx])[None, :] * np.exp(
        -1j * omega_n * cum[:, j_idx]
    )
    phase2 = np.exp(1j * (epsilon0 * ts[i2] + omega_n * cum[:, i2]))
    g3 = v2 * phase2[:, None] * ((w * r) @ dmat_p)
    g4 = v2 * np.conj(phase2)[:, None] * ((w * np.conj(r)) @ dmat_m)
    return g3, g4, i_idx


def _rk4_step(f, y, h):
    """One RK4 step of dy/dt = f; ``f(j, y)`` evaluates the right-hand side
    at the step's start (j = 0), midpoint (1) and end node (2)."""
    k1 = f(0, y)
    k2 = f(1, y + 0.5 * h * k1)
    k3 = f(1, y + 0.5 * h * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_maps(a, b, h):
    """Affine maps y -> A y + B of the RK4 steps of dy/dt = a y + b.

    ``a`` and ``b`` (None: b = 0) hold the coefficients on 2L + 1
    consecutive grid nodes along the last axis; step m has its stages on
    nodes 2m, 2m+1, 2m+1, 2m+2.  A is the step taken from y = 1 with b = 0,
    B the step taken from y = 0."""
    nodes = (slice(0, -2, 2), slice(1, None, 2), slice(2, None, 2))
    a = [a[..., s] for s in nodes]
    step_of_one = _rk4_step(lambda j, y: a[j] * y, 1.0, h)
    if b is None:
        return step_of_one, None
    b = [b[..., s] for s in nodes]
    return step_of_one, _rk4_step(lambda j, y: a[j] * y + b[j], 0.0, h)


def _apply_maps(y, out, maps):
    """Carry y through consecutive step maps, storing step m's result in
    out[m] (time runs along the first axis of ``out``).  ``maps(lo, hi)``
    returns (A, B) for the steps whose nodes run from lo to hi, counted
    from the first step's start node, with steps along the last axis; they
    are built MAP_CHUNK steps at a time to bound their memory."""
    n_steps = len(out)
    for m0 in range(0, n_steps, MAP_CHUNK):
        m1 = min(n_steps, m0 + MAP_CHUNK)
        a_map, b_map = (np.ascontiguousarray(np.moveaxis(c, -1, 0))
                        for c in maps(2 * m0, 2 * m1))
        for a_m, b_m, dst in zip(a_map, b_map, out[m0:m1]):
            np.multiply(a_m, y, out=dst)
            dst += b_m
            y = dst
    return y


def _run_sigma_z(ts, gam1, gam2, sz0):
    """g(t) on coarse nodes by RK4 with kernel stages at every grid node."""
    n = len(ts)
    step = 2.0 * (ts[1] - ts[0])
    out = np.empty(((n - 1) // 2 + 1, gam1.shape[0]))
    out[0] = sz0

    def maps(lo, hi):
        return _rk4_maps(-gam1[:, lo:hi + 1], -gam2[:, lo:hi + 1], step)

    _apply_maps(out[0], out[1:], maps)
    return out.T


def _run_two_time(ts, i2, signs, gam1, gam2, gam5, g3, g4, epsilon0,
                  omega_n, sz_t2):
    """RK4 for (zz, pm, mp) from the equal-time initial data at node i2.

    The correction kernels g3/g4 (None in qrt mode) couple the three
    correlators only on their first nodes after the anchor; those steps run
    the coupled system one step at a time.  Every later step (every step in
    qrt mode) is a decoupled scalar equation per correlator, applied as a
    tabulated step map."""
    n = len(ts)
    step = 2.0 * (ts[1] - ts[0])
    n_steps = (n - 1 - i2) // 2
    b = signs.shape[0]
    out = np.empty((n_steps + 1, 3, b), dtype=complex)  # zz, pm, mp
    out[0, 0] = 1.0
    out[0, 1] = (1.0 + sz_t2) / 2.0
    out[0, 2] = (1.0 - sz_t2) / 2.0
    width = 0 if g3 is None else g3.shape[1]
    # step m reads the kernels on nodes i2 + 2m .. i2 + 2m + 2
    n_coupled = min(n_steps, (width + 1) // 2)
    zero = np.zeros(b, dtype=complex)

    def deriv(i, y):
        a_zz, a_pm, a_mp = y
        off = i - i2
        if off < width:
            c3, c4 = g3[:, off], g4[:, off]
        else:
            c3, c4 = zero, zero
        phase = 1j * (epsilon0 + omega_n * signs[:, i])
        g5 = gam5[:, i]
        d_zz = -gam1[:, i] * a_zz - gam2[:, i] * sz_t2 - 4.0 * c3 * a_pm + 4.0 * c4 * a_mp
        d_pm = (phase - g5) * a_pm + c4 * a_zz
        d_mp = (-phase - np.conj(g5)) * a_mp + c3 * a_zz
        return np.array([d_zz, d_pm, d_mp])

    for m in range(n_coupled):
        i = i2 + 2 * m
        out[m + 1] = _rk4_step(lambda j, y: deriv(i + j, y), out[m], step)

    i0 = i2 + 2 * n_coupled

    def maps(lo, hi):
        nodes = slice(i0 + lo, i0 + hi + 1)
        a_zz, b_zz = _rk4_maps(
            -gam1[:, nodes], -gam2[:, nodes] * sz_t2[:, None], step
        )
        # the mp coefficient is the conjugate of the pm one, and so is its map
        a_pm, _ = _rk4_maps(
            1j * (epsilon0 + omega_n * signs[:, nodes]) - gam5[:, nodes],
            None, step,
        )
        b_map = np.zeros((3,) + b_zz.shape, dtype=complex)
        b_map[0] = b_zz
        return np.stack([a_zz, a_pm, np.conj(a_pm)]), b_map

    _apply_maps(out[n_coupled], out[n_coupled + 1:], maps)
    return out[:, 0].T, out[:, 1].T, out[:, 2].T


def _evolve_block(paths, ts, i2, seqs, system, noise, mode):
    a_c, a_s, d_p, d_m, m_cut = seqs
    v2 = system.v * system.v
    fft_len = next_fast_len(len(ts) + m_cut + 1)
    signs, cum = _path_node_arrays(paths, ts)
    z_c, z_s = _single_time_kernels(ts, cum, a_c, a_s, noise.omega_n, fft_len)
    gam1 = 4.0 * v2 * z_c.real
    gam2 = 4.0 * v2 * z_s.imag
    gam5 = 2.0 * v2 * np.conj(z_c)
    del z_c, z_s
    g_series = _run_sigma_z(ts, gam1, gam2, system.initial_sz)
    sz_t2 = g_series[:, i2 // 2]
    g3 = g4 = None
    if mode == "qrt+":
        g3, g4, _ = _two_time_kernels(
            ts, cum, d_p, d_m, system.epsilon0, noise.omega_n, v2, i2, m_cut
        )
    del cum
    zz, pm, mp = _run_two_time(
        ts, i2, signs, gam1, gam2, gam5, g3, g4, system.epsilon0,
        noise.omega_n, sz_t2,
    )
    return g_series, sz_t2, zz, pm, mp


def evolve_trajectory(path, ts, t2, system, bath, noise, mode="qrt+",
                      exponents=None) -> TrajectoryRun:
    """Integrate the per-realization equations along one path."""
    ts = np.asarray(ts, dtype=float)
    if path.horizon < ts[-1] - 1e-12:
        raise ValueError("path horizon shorter than the requested evolution")
    i2 = _anchor_index(ts, t2)
    if exponents is None:
        exponents = exponent_fn(bath, "short-time")
    seqs = _kernel_sequences(ts, exponents, system.epsilon0)
    g_series, sz_t2, zz, pm, mp = _evolve_block(
        [path], ts, i2, seqs, system, noise, mode
    )
    return TrajectoryRun(
        path=path,
        t_full=ts[::2],
        t1=ts[i2::2],
        sz=g_series[0],
        zz=zz[0],
        pm=pm[0],
        mp=mp[0],
        sz_at_t2=float(sz_t2[0]),
    )


def _anchor_index(ts, t2):
    dt = ts[1] - ts[0]
    i2 = int(round(t2 / dt))
    if abs(i2 * dt - t2) > 1e-9 * max(1.0, t2):
        raise ValueError("t2 must coincide with a grid node")
    if i2 % 2:
        raise ValueError("t2 must fall on a coarse output node")
    return i2


def _estimate(sums, m2_re, m2_im, n):
    """Mean and standard errors from the sum over n paths and the sums of
    squared deviations of the real and imaginary parts from the mean."""
    return MCEstimate(
        mean=sums / n,
        se_re=np.sqrt(m2_re / max(n - 1, 1) / n),
        se_im=np.sqrt(m2_im / max(n - 1, 1) / n),
        n_paths=n,
    )


def _block_sums(paths, ts, i2, seqs, system, noise, mode):
    """For sz, zz, pm and mp in turn: the sum over one block's paths and the
    sums of squared deviations of the real and imaginary parts from the
    block mean.  The per-path series are freed on return."""
    g_series, _, zz, pm, mp = _evolve_block(
        paths, ts, i2, seqs, system, noise, mode
    )
    n = len(paths)
    sums = []
    for arr in (g_series.astype(complex), zz, pm, mp):
        total = arr.sum(axis=0)
        sums.append(total)
        for part, mean in ((arr.real, total.real / n), (arr.imag, total.imag / n)):
            dev = part - mean
            np.square(dev, out=dev)
            sums.append(dev.sum(axis=0))
    return sums


def _merge(acc, n_acc, blk, n_blk):
    """Pairwise update of (sum, M2_re, M2_im) triples: the sums add, and
    M2 = M2a + M2b + d^2 na nb / (na + nb) with d the difference of means."""
    w = n_acc * n_blk / (n_acc + n_blk)
    out = []
    for k in range(0, len(acc), 3):
        s_a, s_b = acc[k], blk[k]
        d = s_b / n_blk - s_a / n_acc
        out += [s_a + s_b,
                acc[k + 1] + blk[k + 1] + d.real**2 * w,
                acc[k + 2] + blk[k + 2] + d.imag**2 * w]
    return out


def monte_carlo(ts, t2, system, bath, noise, n_paths, mode="qrt+",
                exponents=None, block=BLOCK):
    """Ensemble means and standard errors of the four correlators.

    Results are bit-identical for a fixed (seed, n_paths) regardless of how
    the work is scheduled: path p always uses stream index p, blocks have a
    fixed size, and each block's sums over its paths are added to running
    totals in block-index order.  Variances are merged from per-block sums
    of squared deviations about the block mean, so they do not cancel where
    the spread is small against the mean.
    """
    if n_paths < 100:
        raise ValueError("monte_carlo requires n_paths >= 100")
    ts = np.asarray(ts, dtype=float)
    i2 = _anchor_index(ts, t2)
    if exponents is None:
        exponents = exponent_fn(bath, "short-time")
    seqs = _kernel_sequences(ts, exponents, system.epsilon0)
    horizon = float(ts[-1])

    totals = None
    for start in range(0, n_paths, block):
        stop = min(n_paths, start + block)
        paths = [sample_path(noise, horizon, s) for s in range(start, stop)]
        sums = _block_sums(paths, ts, i2, seqs, system, noise, mode)
        totals = sums if totals is None else _merge(
            totals, start, sums, stop - start
        )

    out = {
        key: _estimate(*totals[3 * k:3 * k + 3], n_paths)
        for k, key in enumerate(("sz", "zz", "pm", "mp"))
    }
    out["t_full"] = ts[::2]
    out["t1"] = ts[i2::2]
    return out


def standardized_deviation(estimate: MCEstimate, exact, se_floor=1e-7):
    """Pointwise |MC - exact| / SE on the real part.

    The floor on SE covers zero-variance points (equal-time anchors,
    degenerate ensembles), where the two pipelines still differ by their
    integration schemes at the ~1e-8 level."""
    exact = np.asarray(exact)
    se = np.maximum(estimate.se_re, se_floor)
    return np.abs(estimate.mean.real - exact.real) / se


def gamma_along_path(i, times, path, bath, system, noise, dt=None,
                     exponents=None):
    """Reference (slow, explicit) per-path kernel evaluation.

    i in 1..5 selects the kernel family; ``times`` is t for the single-time
    families and (t1, t2) for i in {3, 4}.  Used to validate the vectorized
    block engine.
    """
    if exponents is None:
        exponents = exponent_fn(bath, "short-time")
    if dt is None:
        dt = resolution_bound(
            xi_coefficient(bath), system.epsilon0, noise.omega_n, noise.nu
        )
    v2 = system.v * system.v
    e0 = system.epsilon0
    om = noise.omega_n
    if i in (1, 2, 5):
        t = float(times)
        if t == 0.0:
            return 0j
        n = max(2, int(round(t / dt)))
        taus = np.linspace(0.0, t, n + 1)
        u = t - taus
        q1, q2 = exponents(u)
        w = path.cumulative(t) - path.cumulative(taus)
        f = e0 * u + om * w
        env = np.exp(-q2)
        if i == 1:
            return complex(4.0 * v2 * np.trapezoid(env * np.cos(q1) * np.cos(f), taus))
        if i == 2:
            return complex(4.0 * v2 * np.trapezoid(env * np.sin(q1) * np.sin(f), taus))
        return complex(2.0 * v2 * np.trapezoid(env * np.cos(q1) * np.exp(-1j * f), taus))
    if i in (3, 4):
        t1, t2 = (float(times[0]), float(times[1]))
        if t1 < t2:
            raise ValueError("two-time kernel requires t1 >= t2")
        if t2 == 0.0:
            return 0j
        n = max(2, int(round(t2 / dt)))
        taus = np.linspace(0.0, t2, n + 1)
        q1, q2 = exponents(t1 - taus)
        w = path.cumulative(t2) - path.cumulative(taus)
        f2 = e0 * (t2 - taus) + om * w
        sign = 1.0 if i == 3 else -1.0
        # deterministic e0 phase on (t1 - tau), oriented fluctuating phase
        # f2 = f(t2, tau) on the anchor window; Q1 phase is never conjugated
        core = (np.exp(-q2 + 1j * q1)
                * np.exp(1j * sign * e0 * (t1 - taus))
                * np.exp(1j * sign * f2))
        return complex(v2 * np.trapezoid(core, taus))
    raise ValueError("kernel family index must be in 1..5")
