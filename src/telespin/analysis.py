"""Spectra, peak detection, rate fits and the regression-violation measure."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit, least_squares
from scipy.signal import find_peaks, hilbert

DECAY_WARN_FRACTION = 0.05


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided cosine-transform power spectrum on a symmetric frequency grid.

    S(w) = Re \\int_0^inf e^{i w tau} C(tau) dtau; for complex correlators the
    spectral weight sits at the correlator's own rotation frequency, so the
    grid covers both signs of w.
    """

    freq_grid: np.ndarray
    power: np.ndarray
    window: str
    source: str = ""

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


@dataclass(frozen=True)
class DeltaReport:
    """Relative integral difference (percent) between two propagation modes."""

    delta: float
    correlator: str


def power_spectrum(tau, series, window: str = "hann", pad_factor: int = 4,
                   power_mode: str = "re", source: str = "") -> SpectrumResult:
    """Discrete one-sided transform with zero padding.

    window="hann" applies the decaying half of a Hann window, tapering the
    truncation end while leaving tau = 0 untouched (the series is one-sided).
    power_mode="abs2" returns |F|^2 instead of Re F.
    """
    tau = np.asarray(tau, dtype=float)
    series = np.asarray(series, dtype=complex)
    if len(tau) != len(series) or len(tau) < 4:
        raise ValueError("tau and series must match and hold at least 4 samples")
    dt = tau[1] - tau[0]
    if not np.allclose(np.diff(tau), dt, rtol=1e-9, atol=0.0):
        raise ValueError("power_spectrum requires a uniform tau grid")
    tail = np.abs(series[-1])
    head = np.abs(series[0])
    if head > 0 and tail > DECAY_WARN_FRACTION * head:
        warnings.warn(
            f"correlator magnitude at the horizon is {tail / head:.1%} of its "
            "initial value; spectrum may show truncation artifacts",
            stacklevel=2,
        )
    n = len(series)
    if window == "hann":
        taper = np.hanning(2 * n)[n:]
    elif window == "none":
        taper = np.ones(n)
    else:
        raise ValueError(f"unknown window: {window!r}")
    c = series * taper
    n_pad = pad_factor * n
    buf = np.zeros(n_pad, dtype=complex)
    buf[:n] = np.conj(c)
    transform = np.conj(np.fft.fft(buf)) * dt  # sum c_j e^{+i w tau_j} dt
    omega = 2.0 * np.pi * np.fft.fftfreq(n_pad, dt)
    # trapezoid endpoint corrections for the one-sided integral
    transform -= 0.5 * dt * c[0]
    transform -= 0.5 * dt * c[-1] * np.exp(1j * omega * tau[-1] - 1j * omega * tau[0])
    order = np.argsort(omega)
    omega = omega[order]
    transform = transform[order]
    if power_mode == "re":
        power = transform.real.copy()
    elif power_mode == "abs2":
        power = np.abs(transform) ** 2
    else:
        raise ValueError(f"unknown power_mode: {power_mode!r}")
    return SpectrumResult(freq_grid=omega, power=power, window=window, source=source)


def detect_peaks(spectrum: SpectrumResult, prominence_frac: float = 0.05):
    """Local maxima with prominence >= prominence_frac * max(power).

    Positions are refined by 3-point parabolic interpolation; a flat or
    non-positive spectrum yields an empty list.
    """
    s = spectrum.power
    top = float(np.max(s)) if len(s) else 0.0
    if top <= 0.0:
        return []
    # a peak of prominence >= threshold stands at least that far above the
    # global minimum (half of it is cut, leaving room for rounding), and
    # find_peaks applies the height cut before it computes prominences, so
    # truncation-ripple maxima near the floor cost nothing
    threshold = prominence_frac * top
    idx, props = find_peaks(s, height=float(np.min(s)) + 0.5 * threshold,
                            prominence=threshold)
    peaks = []
    dw = spectrum.bin_width
    for i, prom in zip(idx, props["prominences"]):
        omega = spectrum.freq_grid[i]
        if 0 < i < len(s) - 1:
            denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
            if denom != 0.0:
                omega = omega + 0.5 * (s[i - 1] - s[i + 1]) / denom * dw
        peaks.append(Peak(omega=float(omega), power=float(s[i]), prominence=float(prom)))
    return peaks


def fit_exponential(t, y) -> ExpFit:
    """Nonlinear fit of p + (1 - p) e^{-k t} with multi-start initialization."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 20:
        raise ValueError("fit_exponential requires at least 20 samples")
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

    def model(x, p, k):
        return p + (1.0 - p) * np.exp(-k * x)

    best = None
    for start in (0.3 * k0, k0, 3.0 * k0):
        try:
            popt, _ = curve_fit(
                model, tt, y, p0=[p0, start],
                bounds=([-np.inf, 0.0], [np.inf, np.inf]), maxfev=20000,
            )
        except (RuntimeError, ValueError):
            continue
        res = model(tt, *popt) - y
        ssr = float(res @ res)
        if best is None or ssr < best[0]:
            best = (ssr, popt)
    if best is None:
        raise RuntimeError("exponential fit failed to converge from all starts")
    ssr, (p, k) = best
    return ExpFit(p=float(p), k=float(k),
                  rms_residual=float(np.sqrt(ssr / len(y))), converged=True)


def _envelope_rate(t, y):
    """Decay-rate estimate from the log analytic-signal envelope."""
    env = np.abs(hilbert(y))
    n = len(y)
    lo, hi = n // 10, max(n // 10 + 3, 9 * n // 10)
    seg_t, seg_e = t[lo:hi], env[lo:hi]
    good = seg_e > 1e-12 * np.max(env)
    if np.count_nonzero(good) < 3:
        return 0.0
    slope = np.polyfit(seg_t[good], np.log(seg_e[good]), 1)[0]
    return max(-slope, 0.0)


def fit_damped_cosines(t, y) -> DampedFit:
    """Fit of e^{-lam t}(a1 cos w1 t + a2 cos w2 t).

    Frequencies are seeded from the two most powerful spectrum peaks of the
    series, the rate from the log envelope, and the amplitudes from a linear
    solve; everything is then refined jointly.  With a single spectral line
    the second component is reported degenerate (a2 ~ 0, w2 unconstrained).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 50:
        raise ValueError("fit_damped_cosines requires at least 50 samples")
    tt = t - t[0]
    spec = power_spectrum(tt, y.astype(complex), window="hann", power_mode="abs2")
    half = spec.freq_grid >= 0.0
    half_spec = SpectrumResult(
        freq_grid=spec.freq_grid[half], power=spec.power[half], window=spec.window
    )
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
        lam, a1, w1, a2, w2 = params
        return np.exp(-lam * tt) * (a1 * np.cos(w1 * tt) + a2 * np.cos(w2 * tt)) - y

    fit = least_squares(
        residual,
        x0=[lam0, a_init[0], w_init[0], a_init[1], w_init[1]],
        bounds=([0.0, -np.inf, 0.0, -np.inf, 0.0], np.inf),
        max_nfev=20000,
    )
    if not fit.success:
        raise RuntimeError("damped-cosine fit failed to converge")
    lam, a1, w1, a2, w2 = fit.x
    if w2 < w1:
        a1, a2, w1, w2 = a2, a1, w2, w1
    scale = max(abs(a1), abs(a2), 1e-30)
    degenerate = min(abs(a1), abs(a2)) < 0.01 * scale
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return DampedFit(lam=float(lam), a1=float(a1), w1=float(w1), a2=float(a2),
                     w2=float(w2), rms_residual=rms, converged=True,
                     degenerate=degenerate)


def delta_measure(t1, series_qrt, series_qrt_plus, correlator: str = "") -> DeltaReport:
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
    return DeltaReport(delta=100.0 * abs((i_q - i_p) / i_q), correlator=correlator)
