"""Spectra, peak detection, rate fits and the regression-violation measure."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

DECAY_WARN_FRACTION = 0.05

PAD_FACTOR = 4

#: fewest samples power_spectrum transforms
MIN_SPECTRUM_SAMPLES = 4
#: fewest samples fit_exponential and fit_damped_cosines fit
MIN_EXP_FIT_SAMPLES = 20
MIN_DAMPED_FIT_SAMPLES = 50


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided cosine-transform power spectrum on a symmetric frequency grid.

    S(w) = Re \\int_0^inf e^{i w tau} C(tau) dtau; for complex correlators the
    spectral weight sits at the correlator's own rotation frequency, so the
    grid covers both signs of w.
    """

    freq_grid: np.ndarray
    power: np.ndarray

    @property
    def bin_width(self) -> float:
        return float(self.freq_grid[1] - self.freq_grid[0])


@dataclass(frozen=True)
class Peak:
    omega: float
    power: float
    prominence: float


@dataclass(frozen=True)
class ExpFit:
    """Fit of p + (1 - p) e^{-k t}."""

    p: float
    k: float
    rms_residual: float
    converged: bool
    degenerate: bool = False


@dataclass(frozen=True)
class DampedFit:
    """Fit of e^{-lambda t} (a1 cos(w1 t) + a2 cos(w2 t)), w1 <= w2."""

    lam: float
    a1: float
    w1: float
    a2: float
    w2: float
    rms_residual: float
    converged: bool
    degenerate: bool = False


def _transform(tau, series):
    """(omega, F) on the ascending frequency grid, F(w) the trapezoid sum of
    c(tau) e^{i w tau} dtau with PAD_FACTOR-fold zero padding.

    c is the series under the decaying half of a Hann window, which tapers
    the truncation end and leaves tau = 0 untouched (the series is
    one-sided).
    """
    tau = np.asarray(tau, dtype=float)
    series = np.asarray(series, dtype=complex)
    if len(tau) != len(series) or len(tau) < MIN_SPECTRUM_SAMPLES:
        raise ValueError("tau and series must match and hold at least "
                         f"{MIN_SPECTRUM_SAMPLES} samples")
    dt = tau[1] - tau[0]
    if not np.allclose(np.diff(tau), dt, rtol=1e-9, atol=0.0):
        raise ValueError("power_spectrum requires a uniform tau grid")
    tail = np.abs(series[-1])
    head = np.abs(series[0])
    if head > 0 and tail > DECAY_WARN_FRACTION * head:
        warnings.warn(
            f"correlator magnitude at the horizon is {tail / head:.1%} of its "
            "initial value; spectrum may show truncation artifacts",
            stacklevel=3,
        )
    n = len(series)
    c = series * np.hanning(2 * n)[n:]
    n_pad = PAD_FACTOR * n
    buf = np.zeros(n_pad, dtype=complex)
    buf[:n] = np.conj(c)
    transform = np.conj(np.fft.fft(buf)) * dt  # sum c_j e^{+i w tau_j} dt
    omega = 2.0 * np.pi * np.fft.fftfreq(n_pad, dt)
    # trapezoid endpoint corrections for the one-sided integral
    transform -= 0.5 * dt * c[0]
    transform -= 0.5 * dt * c[-1] * np.exp(1j * omega * tau[-1] - 1j * omega * tau[0])
    order = np.argsort(omega)
    return omega[order], transform[order]


def power_spectrum(tau, series) -> SpectrumResult:
    """Re F of the half-Hann-tapered, zero-padded one-sided transform; the
    estimator has no switches (README, Conventions)."""
    omega, transform = _transform(tau, series)
    return SpectrumResult(freq_grid=omega, power=transform.real.copy())


def _find_peaks(x, height, prominence):
    """Indices and prominences of the peaks of x, exactly as
    ``scipy.signal.find_peaks(x, height=height, prominence=prominence)``
    gives them.

    A run of equal samples entered by a strict rise and left by a strict
    fall is a peak at its midpoint ``(left + right) // 2``; a run that
    touches either end of x is none.  Peaks with ``height <= x[i]`` are
    kept, then those with ``prominence <= x[i] - max(left_min, right_min)``,
    each minimum taken from the peak to the nearest strictly higher sample
    on that side, or to the end of x.

    Between two kept peaks, a sample higher than one of them lies on a slope
    up to the other (a maximum in between would be a kept peak), so each gap
    enters the bases only through its minimum: one stack pass each way over
    [gap, peak, gap, ..., peak, gap] finds them, in work linear in the peaks.
    """
    x = np.asarray(x, dtype=float)
    # b[j] is the last sample of a run of equal samples and b[j] + 1 the
    # first of the next: run 0 starts at 0, run j + 1 at b[j] + 1
    b = np.flatnonzero(x[1:] != x[:-1])
    rise, fall = x[b] < x[b + 1], x[b + 1] < x[b]
    runs = np.flatnonzero(rise[:-1] & fall[1:]) + 1  # run r ends at b[r]
    peaks = (b[runs - 1] + 1 + b[runs]) // 2
    peaks = peaks[height <= x[peaks]]
    if not len(peaks):
        return peaks, x[peaks]
    seq = np.empty(2 * len(peaks) + 1)
    seq[0::2] = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    seq[1::2] = x[peaks]
    prom = x[peaks] - np.maximum(_bases(seq)[1::2], _bases(seq[::-1])[::-1][1::2])
    keep = prominence <= prom
    return peaks[keep], prom[keep]


def _bases(seq):
    """Each entry's minimum of seq from just after the nearest strictly
    higher entry on its left (or the start) up to the entry itself."""
    stack, bases = [], []  # stack: (entry, minimum since the one below it)
    for v in seq.tolist():
        low = v
        while stack and stack[-1][0] <= v:
            low = min(low, stack.pop()[1])
        stack.append((v, low))
        bases.append(low)
    return np.array(bases)


def detect_peaks(spectrum: SpectrumResult, prominence_frac: float = 0.05):
    """Local maxima with prominence >= prominence_frac * max(power).

    A peak is a sample, or the midpoint of a run of equal samples, with a
    strict rise before it and a strict fall after it; the ends of the grid
    are never peaks.  Its prominence is its height above the higher of its
    two bases, each base the lowest sample between the peak and the nearest
    strictly higher sample on that side (or that end of the grid).  This is
    ``scipy.signal.find_peaks``'s rule, kept bit for bit, twin lines
    included: of two symmetric lines split by a dip, one gets its full
    height as prominence and the other only its height above the dip, so
    near a narrowing transition the lower twin's count can flip on rounding.
    Only the peaks that pass a height cut get prominences, so truncation
    ripple near the floor costs nothing.  Positions are refined by 3-point
    parabolic interpolation; a flat or non-positive spectrum yields an
    empty list.
    """
    s = spectrum.power
    top = float(np.max(s)) if len(s) else 0.0
    if top <= 0.0:
        return []
    # a peak of prominence >= threshold stands at least that far above the
    # global minimum (half of it is cut, leaving room for rounding); the
    # prominences' stack pass runs over the peaks that pass this height cut
    # alone, so truncation-ripple maxima near the floor never enter it
    threshold = prominence_frac * top
    idx, proms = _find_peaks(s, float(np.min(s)) + 0.5 * threshold, threshold)
    peaks = []
    for i, prom in zip(idx, proms):
        omega = spectrum.freq_grid[i]
        denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
        if denom != 0.0:
            omega += 0.5 * (s[i - 1] - s[i + 1]) / denom * spectrum.bin_width
        peaks.append(Peak(omega=float(omega), power=float(s[i]), prominence=float(prom)))
    return peaks


def _exp_model(x, p, k):
    return p + (1.0 - p) * np.exp(-k * x)


def _exp_jacobian(x, p, k):
    """d/d(p, k) of _exp_model, one row per sample."""
    e = np.exp(-k * x)
    return np.column_stack([1.0 - e, -(1.0 - p) * x * e])


def fit_exponential(t, y) -> ExpFit:
    """Nonlinear fit of p + (1 - p) e^{-k t}: one least-squares solve from
    the log-linear seed.  A solve that fails or meets non-finite residuals
    raises RuntimeError."""
    from scipy.optimize import least_squares

    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < MIN_EXP_FIT_SAMPLES:
        raise ValueError(f"fit_exponential requires at least {MIN_EXP_FIT_SAMPLES} samples")
    tt = t - t[0]
    span = float(np.max(y) - np.min(y))
    if span < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        return ExpFit(p=float(np.mean(y)), k=0.0, rms_residual=0.0,
                      converged=True, degenerate=True)

    p0 = float(y[-1])
    z = (y - p0) / (y[0] - p0) if y[0] != p0 else None
    k0 = 1.0 / max(tt[-1], 1e-12)
    if z is not None:
        good = z > 1e-3
        if np.count_nonzero(good) >= 3:
            slope = np.polyfit(tt[good], np.log(z[good]), 1)[0]
            if slope < 0:
                k0 = -slope

    try:
        fit = least_squares(
            lambda params: _exp_model(tt, *params) - y, x0=[p0, k0],
            jac=lambda params: _exp_jacobian(tt, *params),
            bounds=([-np.inf, 0.0], [np.inf, np.inf]),
        )
    except ValueError as exc:
        raise RuntimeError(f"exponential fit failed: {exc}") from exc
    if not fit.success:
        raise RuntimeError(f"exponential fit failed to converge: {fit.message}")
    p, k = fit.x
    return ExpFit(p=float(p), k=float(k),
                  rms_residual=float(np.sqrt(fit.fun @ fit.fun / len(y))),
                  converged=True)


def _envelope_rate(t, y):
    """Decay-rate estimate from the log analytic-signal envelope.

    The analytic signal is formed as ``scipy.signal.hilbert`` forms it, step
    for step: the spectrum doubled on the positive bins and zeroed on the
    negative ones (the Nyquist bin of an even length kept).
    """
    from scipy.fft import fft, ifft

    n = len(y)
    xf = fft(y, n)
    xf[1:(n + 1) // 2] *= 2.0
    xf[n // 2 + 1:n] = 0.0
    env = np.abs(ifft(xf))
    lo, hi = n // 10, max(n // 10 + 3, 9 * n // 10)
    seg_t, seg_e = t[lo:hi], env[lo:hi]
    good = seg_e > 1e-12 * np.max(env)
    if np.count_nonzero(good) < 3:
        return 0.0
    slope = np.polyfit(seg_t[good], np.log(seg_e[good]), 1)[0]
    return max(-slope, 0.0)


def _damped_model(t, params):
    lam, a1, w1, a2, w2 = params
    return np.exp(-lam * t) * (a1 * np.cos(w1 * t) + a2 * np.cos(w2 * t))


def _damped_jacobian(t, params):
    """d/d(lam, a1, w1, a2, w2) of _damped_model, one row per sample."""
    lam, a1, w1, a2, w2 = params
    e = np.exp(-lam * t)
    c1, c2 = e * np.cos(w1 * t), e * np.cos(w2 * t)
    return np.column_stack([
        -t * (a1 * c1 + a2 * c2),
        c1,
        -a1 * t * e * np.sin(w1 * t),
        c2,
        -a2 * t * e * np.sin(w2 * t),
    ])


def fit_damped_cosines(t, y) -> DampedFit:
    """Fit of e^{-lam t}(a1 cos w1 t + a2 cos w2 t).

    Frequencies are seeded from the two most powerful spectrum peaks of the
    series, the rate from the log envelope, and the amplitudes from a linear
    solve; everything is then refined jointly.  The fit is reported
    degenerate when one component carries almost no amplitude (a single
    spectral line: w2 unconstrained), when a frequency collapses below one
    bin of the seeding spectrum, or when the two frequencies lie within one
    bin of each other.
    """
    from scipy.optimize import least_squares

    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < MIN_DAMPED_FIT_SAMPLES:
        raise ValueError(f"fit_damped_cosines requires at least {MIN_DAMPED_FIT_SAMPLES} samples")
    tt = t - t[0]
    omega, transform = _transform(tt, y.astype(complex))
    half = omega >= 0.0
    half_spec = SpectrumResult(freq_grid=omega[half],
                               power=np.abs(transform[half]) ** 2)
    peaks = sorted(detect_peaks(half_spec, prominence_frac=0.02),
                   key=lambda p: p.power, reverse=True)
    if not peaks:
        w_init = [0.0, 1.0 / max(tt[-1], 1e-12)]
    elif len(peaks) == 1:
        w_init = [peaks[0].omega, 1.7 * peaks[0].omega + half_spec.bin_width]
    else:
        w_init = [peaks[0].omega, peaks[1].omega]
    lam0 = _envelope_rate(tt, y)

    def amplitudes_for(lam, w1, w2):
        basis = np.column_stack([
            np.exp(-lam * tt) * np.cos(w1 * tt),
            np.exp(-lam * tt) * np.cos(w2 * tt),
        ])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return coef

    a_init = amplitudes_for(lam0, *w_init)

    def residual(params):
        return _damped_model(tt, params) - y

    fit = least_squares(
        residual,
        x0=[lam0, a_init[0], w_init[0], a_init[1], w_init[1]],
        jac=lambda params: _damped_jacobian(tt, params),
        bounds=([0.0, -np.inf, 0.0, -np.inf, 0.0], np.inf),
        max_nfev=20000,
    )
    if not fit.success:
        raise RuntimeError("damped-cosine fit failed to converge")
    lam, a1, w1, a2, w2 = fit.x
    if w2 < w1:
        a1, a2, w1, w2 = a2, a1, w2, w1
    scale = max(abs(a1), abs(a2), 1e-30)
    bin_width = half_spec.bin_width
    degenerate = bool(min(abs(a1), abs(a2)) < 0.01 * scale
                      or w1 < bin_width or w2 - w1 < bin_width)
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return DampedFit(lam=float(lam), a1=float(a1), w1=float(w1), a2=float(a2),
                     w2=float(w2), rms_residual=rms, converged=True,
                     degenerate=degenerate)


def delta_measure(t1, series_qrt, series_qrt_plus) -> float:
    """Percentage difference of |c| integrals between the two modes.

    delta = 100 |I_qrt - I_qrt+| / I_qrt with I the trapezoid integral of
    |c(t1)| over the propagated window.
    """
    t1 = np.asarray(t1, dtype=float)
    cq = np.asarray(series_qrt)
    cp = np.asarray(series_qrt_plus)
    if cq.shape != cp.shape or cq.shape != t1.shape:
        raise ValueError("delta_measure requires identically shaped series")
    i_q = float(np.trapezoid(np.abs(cq), t1))
    i_p = float(np.trapezoid(np.abs(cp), t1))
    if i_q < 1e-12:
        raise ValueError("delta undefined: reference integral below 1e-12")
    return 100.0 * abs((i_q - i_p) / i_q)
