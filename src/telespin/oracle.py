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

The oracle reads the run's kernel table: its grid, its bath lag sequences
and its support cut m_cut, so oracle and averaged solver share one set of
bath kernels.

Per-path single-time kernel series are lag sums of fixed kernel sequences
against e^{i Omega (W[i] - W[i-m])} (W = cumulative noise integral) over the
kernel support of m_cut nodes.  A telegraph path is piecewise constant, so
W is linear between flips and the lags inside one segment sum to a prefix
sum of the kernel sequence, tabulated once per block: a node's own segment
is one lookup, and every flip within m_cut nodes before it adds a
correction.  A block of b paths costs O(b (N + flips m_cut)), with the
corrections accumulated per node.  All trapezoid sums live on the same grid
as the noise-averaged kernel tables, so discretization bias is common mode
in oracle-versus-averaged comparisons.

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

from .noise import sample_path

#: paths per reduction block; fixed so results never depend on scheduling
BLOCK = 64

#: RK4 step maps built at a time; bounds the memory the maps take
MAP_CHUNK = 512

#: fewest paths an ensemble may hold
MIN_PATHS = 100


@dataclass(frozen=True)
class MCEstimate:
    """Ensemble mean and standard error of its real part."""

    mean: np.ndarray
    se_re: np.ndarray
    n_paths: int


def _path_node_arrays(paths, ts):
    """Signs and exact cumulative noise integrals at the grid nodes."""
    b = len(paths)
    n = len(ts)
    signs = np.empty((b, n))
    cum = np.empty((b, n))
    for i, p in enumerate(paths):
        signs[i], cum[i] = p.signs_and_cumulative(ts)
    return signs, cum


def _block_flips(paths, ts):
    """Flips of a block on the grid, in path order: path index, first node
    at or after the flip, flip time, W there and the sign after it."""
    cols = [(np.full(p.flip_times.size, k), p.flip_times,
             p.cumulative(p.flip_times),
             -p.initial_sign * (-1.0) ** np.arange(p.flip_times.size))
            for k, p in enumerate(paths)]
    path, tau, w_tau, s_new = (np.concatenate(c) for c in zip(*cols))
    first = np.searchsorted(ts, tau, side="left")
    keep = first < len(ts)
    return path[keep], first[keep], tau[keep], w_tau[keep], s_new[keep]


def _single_time_kernels(ts, paths, signs, cum, a_c, a_s, omega_n, m_cut):
    """Z_c, Z_s with trapezoid weights; the per-path kernels follow as
    G1 = 4 V^2 Re Z_c, G2 = 4 V^2 Im Z_s, G5 = 2 V^2 conj(Z_c).

    Z_i = h sum_{m <= M_i} a[m] e^{i Omega (W_i - W_{i-m})} less the
    trapezoid end terms, M_i = min(i, m_cut).  With the prefix sums
    P_s[m] = h sum_{m' <= m} a[m'] e^{i Omega s t_m'}, the lags in the
    segment of node i (sign s) sum to P_s[M_i].  A flip whose first node at
    or after it lies l <= m_cut - 1 nodes before node i adds
    e^{i Omega (W_i - W_{i-m} - s t_m)} (P_s[M_i] - P_s[l]) for the segment
    before it and subtracts the same for the segment after it; the terms
    telescope into the sum over the segments in the window."""
    b, n = cum.shape
    h = ts[1] - ts[0]
    width = m_cut + 1
    window = np.minimum(np.arange(n), m_cut)
    path, first, tau, w_tau, s_new = _block_flips(paths, ts)
    nodes = first[:, None] + np.arange(m_cut)
    past_end = nodes >= n
    nodes[past_end] = n - 1
    rel_w = cum[path[:, None], nodes] - w_tau[:, None]
    rel_t = (ts[nodes] - tau[:, None]) * s_new[:, None]
    phase_old = np.exp(1j * omega_n * (rel_w + rel_t))
    phase_new = np.exp(1j * omega_n * (rel_w - rel_t))
    phase_old[past_end] = phase_new[past_end] = 0.0
    flat = (path[:, None] * n + nodes).ravel()
    # row 0 of the prefix-sum table is s = +1, row 1 is s = -1
    row_new = (s_new < 0).astype(np.intp)
    row_old = 1 - row_new
    lag_cap = window[nodes]
    at_new = row_new[:, None] * width + lag_cap
    at_old = row_old[:, None] * width + lag_cap
    rot = np.exp(1j * omega_n * np.outer([1.0, -1.0], ts[:width]))
    own = (signs < 0) * n + np.arange(n)
    end = np.exp(1j * omega_n * cum[:, :width])

    def z_of(a):
        pre = h * np.cumsum(a[:width] * rot, axis=1)
        span_old = pre.take(at_old) - pre[row_old, :m_cut]
        span_new = pre.take(at_new) - pre[row_new, :m_cut]
        z = (pre[:, window] - 0.5 * h * a[0]).take(own)
        z[:, :width] -= 0.5 * h * a[:width] * end
        np.add.at(z.reshape(-1), flat,
                  (phase_old * span_old - phase_new * span_new).ravel())
        return z

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


def _evolve_block(paths, table, i2, system, noise, mode):
    """sigma_z on the coarse nodes, its value at the anchor node i2, and the
    two-time zz, pm, mp from i2 on, per path of the block."""
    ts, m_cut, v2 = table.ts, table.m_cut, table.v2
    signs, cum = _path_node_arrays(paths, ts)
    z_c, z_s = _single_time_kernels(
        ts, paths, signs, cum, table.a_c, table.a_s, noise.omega_n, m_cut
    )
    gam1 = 4.0 * v2 * z_c.real
    gam2 = 4.0 * v2 * z_s.imag
    gam5 = 2.0 * v2 * np.conj(z_c)
    del z_c, z_s
    g_series = _run_sigma_z(ts, gam1, gam2, system.initial_sz)
    sz_t2 = g_series[:, i2 // 2]
    g3 = g4 = None
    if mode == "qrt+":
        g3, g4, _ = _two_time_kernels(
            ts, cum, table.d_p, table.d_m, table.epsilon0, noise.omega_n, v2,
            i2, m_cut,
        )
    del cum
    zz, pm, mp = _run_two_time(
        ts, i2, signs, gam1, gam2, gam5, g3, g4, table.epsilon0,
        noise.omega_n, sz_t2,
    )
    return g_series, sz_t2, zz, pm, mp


def _estimate(sums, m2_re, n):
    """Mean and standard error from the sum over n paths and the sum of
    squared deviations of the real part from the mean."""
    return MCEstimate(
        mean=sums / n,
        se_re=np.sqrt(m2_re / max(n - 1, 1) / n),
        n_paths=n,
    )


def _block_sums(paths, table, i2, system, noise, mode):
    """For sz, zz, pm and mp in turn: the sum over one block's paths and the
    sum of squared deviations of the real part from the block mean.  The
    per-path series are freed on return."""
    g_series, _, zz, pm, mp = _evolve_block(
        paths, table, i2, system, noise, mode
    )
    n = len(paths)
    sums = []
    for arr in (g_series.astype(complex), zz, pm, mp):
        total = arr.sum(axis=0)
        dev = arr.real - total.real / n
        np.square(dev, out=dev)
        sums += [total, dev.sum(axis=0)]
    return sums


def _merge(acc, n_acc, blk, n_blk):
    """Pairwise update of (sum, M2_re) pairs: the sums add, and
    M2 = M2a + M2b + d^2 na nb / (na + nb) with d the difference of means."""
    w = n_acc * n_blk / (n_acc + n_blk)
    out = []
    for k in range(0, len(acc), 2):
        s_a, s_b = acc[k], blk[k]
        d = s_b / n_blk - s_a / n_acc
        out += [s_a + s_b, acc[k + 1] + blk[k + 1] + d.real**2 * w]
    return out


def monte_carlo(table, t2, system, noise, n_paths, mode="qrt+", block=BLOCK):
    """Ensemble means and standard errors of the four correlators on the
    grid and bath kernels of ``table``, from the anchor t2, an even node.

    Results are bit-identical for a fixed (seed, n_paths) regardless of how
    the work is scheduled: path p always uses stream index p, blocks have a
    fixed size, and each block's sums over its paths are added to running
    totals in block-index order.  Variances are merged from per-block sums
    of squared deviations about the block mean, so they do not cancel where
    the spread is small against the mean.
    """
    if n_paths < MIN_PATHS:
        raise ValueError(f"monte_carlo requires n_paths >= {MIN_PATHS}")
    ts = table.ts
    i2 = table.node_index(t2)
    if i2 % 2:
        raise ValueError("t2 must fall on a coarse output node")
    horizon = float(ts[-1])

    totals = None
    for start in range(0, n_paths, block):
        stop = min(n_paths, start + block)
        paths = [sample_path(noise, horizon, s) for s in range(start, stop)]
        sums = _block_sums(paths, table, i2, system, noise, mode)
        totals = sums if totals is None else _merge(
            totals, start, sums, stop - start
        )

    out = {
        key: _estimate(*totals[2 * k:2 * k + 2], n_paths)
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
