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
in oracle-versus-averaged comparisons.  The block's signs at the nodes come
from one search of all its flips into the grid and an integer prefix sum;
W itself is evaluated only where it is read (the flip windows, the first
m_cut nodes and the anchor window of the two-time kernels).

Time stepping is RK4 with step 2 dt and stages on the grid nodes.  The
per-path equations are linear, so one step of a scalar equation
dy/dt = a y + b is an affine map y -> A y + B; the maps are tabulated with
the RK4 stage formulas MAP_CHUNK steps at a time, and the recurrence
y[m+1] = A[m] y[m] + B[m] is solved per chunk as a prefix scan: with
P = cumprod(A), y = P (y0 + cumsum(B / P)), chunks chained through their
last value.  sigma_z is scalar on the whole grid, and zz, pm, mp are three
decoupled scalar equations except inside the correction window: the first
ceil(width / 2) steps after the anchor, where the two-time kernels G3/G4
are nonzero in qrt+ mode.  Only those steps run the coupled system one step
at a time.  After them zz obeys the sigma_z equation with its source scaled
by sz(t2), so it follows from the sigma_z run and its maps A, and mp's maps
are the conjugates of pm's, so pm and mp share one running product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import sample_path

#: paths per reduction block; fixed so results never depend on scheduling
BLOCK = 64

#: RK4 step maps built and scanned at a time; bounds the memory they take
MAP_CHUNK = 512

#: range a row's running product of step maps must keep inside one scan
_P_RANGE = (np.exp(-300.0), np.exp(300.0))

#: fewest paths an ensemble may hold
MIN_PATHS = 100


@dataclass(frozen=True)
class MCEstimate:
    """Ensemble mean and standard error of its real part."""

    mean: np.ndarray
    se_re: np.ndarray
    n_paths: int


@dataclass(frozen=True)
class _BlockNodes:
    """A block's paths at the grid nodes.

    ``signs[k, i]`` is alpha of path k at ts[i], and ``last[k, i]`` indexes
    its latest flip at or before ts[i] in ``tau`` (flip times) and ``w``
    (the noise integral W there).  ``tau`` and ``w`` hold the paths' flips
    path after path, each path's after a (0, 0) entry that stands for t = 0.
    ``flips`` lists the flips on the grid: path, first node at or after the
    flip, index into ``tau``/``w`` and the sign after it."""

    ts: np.ndarray
    signs: np.ndarray
    last: np.ndarray
    tau: np.ndarray
    w: np.ndarray
    flips: tuple

    def cum(self, rows, cols):
        """W at ts[cols] of paths ``rows`` (broadcast together), by the
        expression of ``NoisePath.signs_and_cumulative``."""
        j = self.last[rows, cols]
        return self.w[j] + self.signs[rows, cols] * (self.ts[cols] - self.tau[j])


def _path_node_arrays(paths, ts):
    """Signs and flip lookups of a block at the grid nodes: one search of
    all the block's flips into ts, then an integer prefix sum per path."""
    b, n = len(paths), len(ts)
    sizes = np.array([p.flip_times.size for p in paths])
    origin = np.concatenate(([0], np.cumsum(sizes + 1)[:-1]))
    at = np.delete(np.arange(origin[-1] + sizes[-1] + 1), origin)
    tau = np.zeros(at.size + b)
    w = np.zeros_like(tau)
    tau[at] = np.concatenate([p.flip_times for p in paths])
    w[at] = np.concatenate([p.flip_cum for p in paths])
    path = np.repeat(np.arange(b), sizes)
    index = at - origin[path] - 1  # flip index within its path
    first = np.searchsorted(ts, tau[at], side="left")
    # each flip advances the latest-flip index from its first node on
    hits = np.bincount(path * (n + 1) + first, minlength=b * (n + 1))
    hits = hits.reshape(b, n + 1)[:, :n]
    hits[:, 0] = origin  # flips lie after t = 0, so no flip lands on node 0
    last = np.cumsum(hits, axis=1)
    initial = np.array([p.initial_sign for p in paths])
    count = last - origin[:, None]
    signs = initial[:, None] * np.where(count & 1, -1.0, 1.0)
    s_new = -initial[path] * (-1.0) ** index
    keep = first < n
    flips = (path[keep], first[keep], at[keep], s_new[keep])
    return _BlockNodes(ts, signs, last, tau, w, flips)


def _single_time_kernels(nodes, a_c, a_s, omega_n, m_cut):
    """Z_c and Im Z_s with trapezoid weights; the per-path kernels follow
    as G1 = 4 V^2 Re Z_c, G2 = 4 V^2 Im Z_s, G5 = 2 V^2 conj(Z_c).

    Z_i = h sum_{m <= M_i} a[m] e^{i Omega (W_i - W_{i-m})} less the
    trapezoid end terms, M_i = min(i, m_cut).  With the prefix sums
    P_s[m] = h sum_{m' <= m} a[m'] e^{i Omega s t_m'}, the lags in the
    segment of node i (sign s) sum to P_s[M_i].  A flip whose first node at
    or after it lies l <= m_cut - 1 nodes before node i adds
    e^{i Omega (W_i - W_{i-m} - s t_m)} (P_s[M_i] - P_s[l]) for the segment
    before it and subtracts the same for the segment after it; the terms
    telescope into the sum over the segments in the window.  W is looked up
    only in the flip windows and on the first m_cut + 1 nodes."""
    ts, signs = nodes.ts, nodes.signs
    b, n = signs.shape
    h = ts[1] - ts[0]
    width = m_cut + 1
    window = np.minimum(np.arange(n), m_cut)
    path, first, at, s_new = nodes.flips
    tau, w_tau = nodes.tau[at], nodes.w[at]
    win = first[:, None] + np.arange(m_cut)
    past_end = win >= n
    win[past_end] = n - 1
    rel_w = nodes.cum(path[:, None], win) - w_tau[:, None]
    rel_t = (ts[win] - tau[:, None]) * s_new[:, None]
    phase_old = np.exp(1j * omega_n * (rel_w + rel_t))
    phase_new = np.exp(1j * omega_n * (rel_w - rel_t))
    phase_old[past_end] = phase_new[past_end] = 0.0
    flat = (path[:, None] * n + win).ravel()
    # row 0 of the prefix-sum table is s = +1, row 1 is s = -1
    row_new = (s_new < 0).astype(np.intp)
    row_old = 1 - row_new
    lag_cap = window[win]
    at_new = row_new[:, None] * width + lag_cap
    at_old = row_old[:, None] * width + lag_cap
    rot = np.exp(1j * omega_n * np.outer([1.0, -1.0], ts[:width]))
    own = (signs < 0) * n + np.arange(n)
    end = np.exp(1j * omega_n * nodes.cum(np.arange(b)[:, None],
                                          np.arange(width)))

    def z_of(a, part):
        pre = h * np.cumsum(a[:width] * rot, axis=1)
        span_old = pre.take(at_old) - pre[row_old, :m_cut]
        span_new = pre.take(at_new) - pre[row_new, :m_cut]
        z = part(pre[:, window] - 0.5 * h * a[0]).take(own)
        z[:, :width] -= part(0.5 * h * a[:width] * end)
        np.add.at(z.reshape(-1), flat,
                  part(phase_old * span_old - phase_new * span_new).ravel())
        return z

    return z_of(a_c, np.asarray), z_of(a_s, np.imag)


def _two_time_kernels(nodes, d_p, d_m, epsilon0, omega_n, v2, i2, m_cut):
    """G3, G4 on node indices [i2, min(n-1, i2+m_cut)] for each path."""
    ts = nodes.ts
    b, n = nodes.signs.shape
    i_hi = min(n - 1, i2 + m_cut)
    i_idx = np.arange(i2, i_hi + 1)
    j_lo = max(0, i2 - m_cut)
    j_idx = np.arange(j_lo, i2 + 1)
    h = ts[1] - ts[0]
    if i2 == 0:
        zeros = np.zeros((b, len(i_idx)), dtype=complex)
        return zeros, zeros
    w = np.full(len(j_idx), h)
    if j_lo == 0:
        w[0] = 0.5 * h
    w[-1] = 0.5 * h
    m = i_idx[None, :] - j_idx[:, None]
    valid = m <= m_cut  # m >= 0 holds by construction
    dmat_p = np.where(valid, d_p[np.minimum(m, m_cut)], 0.0)
    dmat_m = np.where(valid, d_m[np.minimum(m, m_cut)], 0.0)
    rows = np.arange(b)[:, None]
    r = np.exp(-1j * epsilon0 * ts[j_idx])[None, :] * np.exp(
        -1j * omega_n * nodes.cum(rows, j_idx)
    )
    phase2 = np.exp(1j * (epsilon0 * ts[i2] + omega_n * nodes.cum(rows, i2)))
    g3 = v2 * phase2 * ((w * r) @ dmat_p)
    g4 = v2 * np.conj(phase2) * ((w * np.conj(r)) @ dmat_m)
    return g3, g4


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


def _scan_chunk(y0, a, b, out):
    """out[:, m] = y[m+1] of y[m+1] = a[m] y[m] + b[m] (b None: 0) along
    the last axis, from y[0] = y0, one row per path.

    With P[m] = a[0] ... a[m], y[m+1] = P[m] (y0 + sum_{j<=m} b[j] / P[j]):
    a cumulative product and a cumulative sum.  A row whose P leaves
    [e^-300, e^300] is split into halves, recursively, on its own data only
    (down to single steps, which are the recurrence itself); then every
    P and b/P is a normal number.  To first order in the unit roundoff u,
    y[m+1] is off by at most (3L + 5) u times |P[m] y0| + sum_j |b[j] P[m] /
    P[j]|, the magnitudes of the terms it sums, for a piece of L steps."""
    # rows outside the range may overflow here; they are redone below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.cumprod(a, axis=-1)
        if b is None:
            np.multiply(p, y0[:, None], out=out)
        else:
            s = np.divide(b, p)
            np.cumsum(s, axis=-1, out=s)
            s += y0[:, None]
            np.multiply(p, s, out=out)
        mag = np.abs(p)
    lo, hi = _P_RANGE
    bad = np.flatnonzero(~((mag.min(axis=-1) >= lo) & (mag.max(axis=-1) <= hi)))
    if not bad.size:
        return
    a, y0 = a[bad], y0[bad]
    b = None if b is None else b[bad]
    sub = np.empty(a.shape, dtype=out.dtype)
    if a.shape[-1] == 1:
        sub[:] = a * y0[:, None] if b is None else a * y0[:, None] + b
    else:
        half = a.shape[-1] // 2
        _scan_chunk(y0, a[:, :half], None if b is None else b[:, :half],
                    sub[:, :half])
        _scan_chunk(sub[:, half - 1], a[:, half:],
                    None if b is None else b[:, half:], sub[:, half:])
    out[bad] = sub


def _scan(y, out, maps):
    """Carry y through consecutive step maps, storing step m's result in
    out[:, m].  ``maps(lo, hi)`` returns (A, B) for the steps whose nodes
    run from lo to hi, counted from the first step's start node, with steps
    along the last axis; they are built and scanned MAP_CHUNK steps at a
    time to bound their memory."""
    n_steps = out.shape[-1]
    for m0 in range(0, n_steps, MAP_CHUNK):
        m1 = min(n_steps, m0 + MAP_CHUNK)
        a_map, b_map = maps(2 * m0, 2 * m1)
        _scan_chunk(y, a_map, b_map, out[:, m0:m1])
        y = out[:, m1 - 1]


def _run_sigma_z(ts, gam1, gam2, sz0):
    """g(t) on coarse nodes by RK4 with kernel stages at every grid node,
    and the A of its step maps (the B = 0 part, step m from node 2m)."""
    b, n = gam1.shape
    step = 2.0 * (ts[1] - ts[0])
    out = np.empty((b, (n - 1) // 2 + 1))
    a_steps = np.empty((b, out.shape[1] - 1))
    out[:, 0] = sz0

    def maps(lo, hi):
        a_map, b_map = _rk4_maps(-gam1[:, lo:hi + 1], -gam2[:, lo:hi + 1],
                                 step)
        a_steps[:, lo // 2:hi // 2] = a_map
        return a_map, b_map

    _scan(out[:, 0], out[:, 1:], maps)
    return out, a_steps


def _run_two_time(ts, i2, signs, gam1, gam2, gam5, g3, g4, epsilon0,
                  omega_n, g_series, a_steps):
    """RK4 for (zz, pm, mp) from the equal-time initial data at node i2;
    ``gam5`` holds its kernel from node i2 on, and ``g_series``/``a_steps``
    are the sigma_z run and the A of its step maps.

    The correction kernels g3/g4 (None in qrt mode) couple the three
    correlators only on their first nodes after the anchor; those steps run
    the coupled system one step at a time.  After them each path's zz obeys
    the sigma_z equation with the source scaled by sz(t2), on the same
    steps, so zz = sz(t2) sz + (zz - sz(t2) sz)|_start prod A_sz.  pm is
    y -> A y with the tabulated step maps, and the mp maps are their
    conjugates, so both follow from one running product."""
    b, n = gam1.shape
    step = 2.0 * (ts[1] - ts[0])
    n_steps = (n - 1 - i2) // 2
    sz_t2 = g_series[:, i2 // 2]
    zz, pm, mp = (np.empty((b, n_steps + 1), dtype=complex) for _ in range(3))
    y = np.array([np.ones(b), (1.0 + sz_t2) / 2.0, (1.0 - sz_t2) / 2.0],
                 dtype=complex)
    zz[:, 0], pm[:, 0], mp[:, 0] = y
    width = 0 if g3 is None else g3.shape[1]
    # step m reads the kernels on nodes i2 + 2m .. i2 + 2m + 2
    n_coupled = min(n_steps, (width + 1) // 2)
    if n_coupled:
        win = slice(i2, i2 + 2 * n_coupled + 1)
        a_zz = np.ascontiguousarray(-gam1[:, win].T)
        s_zz = np.ascontiguousarray((gam2[:, win] * sz_t2[:, None]).T)
        a_pm = np.ascontiguousarray((1j * (epsilon0 + omega_n * signs[:, win])
                                     - gam5[:, :2 * n_coupled + 1]).T)
        a_mp = np.conj(a_pm)
        # g3/g4 are zero past their window; at odd width the last step's
        # end node lies past it
        c3, c4 = (np.zeros((2 * n_coupled + 1, b), dtype=complex)
                  for _ in range(2))
        k = min(width, 2 * n_coupled + 1)
        c3[:k], c4[:k] = g3[:, :k].T, g4[:, :k].T
        c3_4, c4_4 = 4.0 * c3, 4.0 * c4

        def deriv(j, y):
            y_zz, y_pm, y_mp = y
            return np.array([
                a_zz[j] * y_zz - s_zz[j] - c3_4[j] * y_pm + c4_4[j] * y_mp,
                a_pm[j] * y_pm + c4[j] * y_zz,
                a_mp[j] * y_mp + c3[j] * y_zz,
            ])

        for m in range(n_coupled):
            y = _rk4_step(lambda j, y: deriv(2 * m + j, y), y, step)
            zz[:, m + 1], pm[:, m + 1], mp[:, m + 1] = y

    k0 = i2 // 2 + n_coupled  # the sigma_z step that starts the tail
    i0 = 2 * k0
    tail = slice(n_coupled + 1, None)
    _scan(y[0] - sz_t2 * g_series[:, k0], zz[:, tail],
          lambda lo, hi: (a_steps[:, k0 + lo // 2:k0 + hi // 2], None))
    zz[:, tail] += sz_t2[:, None] * g_series[:, k0 + 1:]

    def maps(lo, hi):
        coef = (1j * (epsilon0 + omega_n * signs[:, i0 + lo:i0 + hi + 1])
                - gam5[:, i0 - i2 + lo:i0 - i2 + hi + 1])
        return _rk4_maps(coef, None, step)

    _scan(np.ones(b, dtype=complex), pm[:, tail], maps)
    np.multiply(np.conj(pm[:, tail]), y[2][:, None], out=mp[:, tail])
    pm[:, tail] *= y[1][:, None]
    return zz, pm, mp


def _evolve_block(paths, table, i2, system, noise, mode):
    """sigma_z on the coarse nodes and the two-time zz, pm, mp from the
    anchor node i2 on, per path of the block."""
    ts, m_cut, v2 = table.ts, table.m_cut, table.v2
    nodes = _path_node_arrays(paths, ts)
    z_c, z_s = _single_time_kernels(
        nodes, table.a_c, table.a_s, noise.omega_n, m_cut
    )
    gam1 = 4.0 * v2 * z_c.real
    gam2 = 4.0 * v2 * z_s
    gam5 = 2.0 * v2 * np.conj(z_c[:, i2:])
    del z_c, z_s
    g_series, a_steps = _run_sigma_z(ts, gam1, gam2, system.initial_sz)
    g3 = g4 = None
    if mode == "qrt+":
        g3, g4 = _two_time_kernels(
            nodes, table.d_p, table.d_m, table.epsilon0, noise.omega_n, v2,
            i2, m_cut,
        )
    signs = nodes.signs
    del nodes
    zz, pm, mp = _run_two_time(
        ts, i2, signs, gam1, gam2, gam5, g3, g4, table.epsilon0,
        noise.omega_n, g_series, a_steps,
    )
    return g_series, zz, pm, mp


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
    n = len(paths)
    sums = []
    for arr in _evolve_block(paths, table, i2, system, noise, mode):
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


def monte_carlo(table, t2, system, noise, n_paths, mode="qrt+"):
    """Ensemble means and standard errors of the four correlators on the
    grid and bath kernels of ``table``, from the anchor t2, an even node.

    Results are bit-identical for a fixed (seed, n_paths) regardless of how
    the work is scheduled: path p always uses stream index p, blocks hold a
    fixed BLOCK paths (the last block the rest), and each block's sums over
    its paths are added to running totals in block-index order.  Variances
    are merged from per-block sums of squared deviations about the block
    mean, so they do not cancel where the spread is small against the mean.
    """
    if n_paths < MIN_PATHS:
        raise ValueError(f"monte_carlo requires n_paths >= {MIN_PATHS}")
    ts = table.ts
    i2 = table.node_index(t2)
    if i2 % 2:
        raise ValueError("t2 must fall on a coarse output node")
    horizon = float(ts[-1])

    totals = None
    for start in range(0, n_paths, BLOCK):
        stop = min(n_paths, start + BLOCK)
        paths = [sample_path(noise, horizon, s) for s in range(start, stop)]
        sums = _block_sums(paths, table, i2, system, noise, mode)
        totals = sums if totals is None else _merge(
            totals, start, sums, stop - start
        )

    out = {
        key: _estimate(*totals[2 * k:2 * k + 2], n_paths)
        for k, key in enumerate(("sz", "zz", "pm", "mp"))
    }
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
