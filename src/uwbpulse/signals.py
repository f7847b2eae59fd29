"""Uniform-grid pulses: spectra, inner products, autocorrelation, Zak transform.

A pulse is a finite array of samples on a uniform grid with an integer
index marking t = 0, plus a declared compact support.  All quadrature is
the rectangle rule (samples are treated as exact point values), and all
shifts used by the orthogonalization machinery are integer numbers of
grid steps; there is no interpolation anywhere.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import ConfigurationError, GridAlignmentError, ResolutionError

_SUPPORT_EPS = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = (k - n0) * dt for k = 0..size-1."""

    dt: float
    n0: int
    size: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("grid step dt must be positive")
        if self.size <= 0:
            raise ConfigurationError("grid must contain at least one sample")

    def times(self) -> np.ndarray:
        return (np.arange(self.size) - self.n0) * self.dt

    def index_of(self, t: float) -> int:
        """Index of a grid time; raises if t is not on the grid."""
        k = t / self.dt + self.n0
        ki = int(round(k))
        if abs(k - ki) > 1e-6:
            raise GridAlignmentError(
                f"time {t!r} is {abs(k - ki):.2e} steps off the grid; "
                "use grid times"
            )
        return ki


@dataclass(frozen=True, eq=False)
class SampledPulse:
    """Real pulse samples on a grid with compact support [t_lo, t_hi].

    Samples outside the declared support are exactly zero.  Instances are
    treated as immutable values; do not write into ``samples``.
    """

    grid: TimeGrid
    samples: np.ndarray
    support: tuple[float, float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.size,):
            raise ConfigurationError("samples length must match the grid")
        if self.support is None:
            t = self.grid.times()
            object.__setattr__(self, "support", (float(t[0]), float(t[-1])))
        t_lo, t_hi = self.support
        if t_lo > t_hi:
            raise ConfigurationError("support interval is reversed")
        t = self.grid.times()
        outside = (t < t_lo - _SUPPORT_EPS * self.grid.dt) | (
            t > t_hi + _SUPPORT_EPS * self.grid.dt
        )
        if np.any(samples[outside] != 0.0):
            raise ConfigurationError("nonzero samples outside declared support")

    @property
    def dt(self) -> float:
        return self.grid.dt

    def times(self) -> np.ndarray:
        return self.grid.times()

    def energy(self) -> float:
        return float(np.sum(self.samples**2) * self.dt)

    def normalized(self) -> "SampledPulse":
        e = self.energy()
        if e <= 0.0:
            raise ConfigurationError("cannot normalize the zero pulse")
        return SampledPulse(self.grid, self.samples / math.sqrt(e), self.support)

    def value_at(self, t: float) -> float:
        """Sample value at a grid time (zero outside the stored range)."""
        k = self.grid.index_of(t)
        if 0 <= k < self.grid.size:
            return float(self.samples[k])
        return 0.0

    def duration(self) -> float:
        return self.support[1] - self.support[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Continuous-time Fourier transform samples on a uniform frequency grid."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.freqs.shape != self.values.shape:
            raise ConfigurationError("freqs and values must have the same shape")

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    def power(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def power_at(self, f) -> np.ndarray:
        """Interpolated |p^(f)|^2; grid must be dense enough for the caller."""
        return np.interp(f, self.freqs, self.power())


def _overlap(a: TimeGrid, b: TimeGrid) -> tuple[slice, slice]:
    """Index ranges of ``a`` and ``b`` holding their common times (empty if
    the grids are disjoint); the steps must match."""
    if abs(a.dt - b.dt) > 1e-15 * a.dt:
        raise GridAlignmentError("inner product requires identical grid steps")
    # align global indices k - n0
    lo = max(-a.n0, -b.n0)
    hi = max(lo, min(a.size - a.n0, b.size - b.n0))
    return slice(lo + a.n0, hi + a.n0), slice(lo + b.n0, hi + b.n0)


def inner(p: SampledPulse, q: SampledPulse) -> float:
    """Rectangle-rule L2 inner product of two pulses on matching grids."""
    ip, iq = _overlap(p.grid, q.grid)
    return float(np.dot(p.samples[ip], q.samples[iq]) * p.dt)


def triangle_window(t: np.ndarray, width: float) -> np.ndarray:
    """Unit triangle on [-width/2, width/2]."""
    return np.clip(1.0 - np.abs(t) / (width / 2.0), 0.0, None)


def hann_window(t: np.ndarray, width: float) -> np.ndarray:
    """Hann window on [-width/2, width/2]."""
    w = 0.5 * (1.0 + np.cos(2.0 * np.pi * t / width))
    return np.where(np.abs(t) <= width / 2.0, w, 0.0)


_WINDOWS = {"triangle": triangle_window, "hann": hann_window}


def monocycle_sigma(fc: float) -> float:
    """Width parameter placing the monocycle's spectral peak at fc.

    For t*exp(-t^2/sigma^2) the transform magnitude is proportional to
    nu*exp(-(pi*sigma*nu)^2), maximal at nu = 1/(sqrt(2)*pi*sigma).
    """
    return 1.0 / (math.sqrt(2.0) * math.pi * fc)


def gaussian_monocycle(
    fc: float,
    Tq: float,
    grid: TimeGrid | None = None,
    window: str = "triangle",
) -> SampledPulse:
    """Windowed Gaussian monocycle, unit energy, support [-Tq/2, Tq/2].

    The raw monocycle t*exp(-t^2/sigma^2) has its spectral-magnitude peak
    at fc; the window (triangle by default, "hann" as alternative) makes
    the pulse continuous and strictly time-limited.
    """
    if fc <= 0 or Tq <= 0:
        raise ConfigurationError("fc and Tq must be positive")
    if grid is None:
        half = 96  # 192 samples across Tq
        grid = TimeGrid(dt=Tq / (2 * half), n0=half, size=2 * half + 1)
    t = grid.times()
    if t[0] > -Tq / 2 + _SUPPORT_EPS * grid.dt or t[-1] < Tq / 2 - _SUPPORT_EPS * grid.dt:
        raise ConfigurationError("grid does not span [-Tq/2, Tq/2]")
    if Tq / grid.dt < 16:
        raise ResolutionError("fewer than 16 samples across the monocycle window")
    try:
        win = _WINDOWS[window]
    except KeyError:
        raise ConfigurationError(f"unknown window {window!r}") from None
    sigma = monocycle_sigma(fc)
    raw = t * np.exp(-(t**2) / sigma**2)
    samples = raw * win(t, Tq)
    pulse = SampledPulse(grid, samples, (-Tq / 2, Tq / 2))
    return pulse.normalized()


def semi_discrete_convolve(
    p: SampledPulse, taps: np.ndarray, clock: float, center: bool = True
) -> SampledPulse:
    """Filter a pulse with a tap sequence at the given clock period.

    Returns sum_k taps[k] * p(t - k*clock).  With ``center`` the output
    time origin is moved to the middle of the tap span, which keeps odd-
    order filters grid-aligned and the result centered.
    """
    taps = np.asarray(taps, dtype=float)
    step_f = clock / p.dt
    step = int(round(step_f))
    if abs(step_f - step) > 1e-9:
        raise GridAlignmentError("clock period is not a grid multiple")
    n = len(taps)
    out = _translate_sum(p.samples, taps, step)
    n0 = p.grid.n0
    if center:
        if (n - 1) * step % 2 != 0:
            raise GridAlignmentError("cannot center an even tap span on the grid")
        n0 = p.grid.n0 + (n - 1) * step // 2
    grid = TimeGrid(p.dt, n0, len(out))
    t_lo = p.support[0] - (n0 - p.grid.n0) * p.dt
    t_hi = p.support[1] + ((n - 1) * step - (n0 - p.grid.n0)) * p.dt
    return SampledPulse(grid, out, (t_lo, t_hi))


def _translate_sum(x: np.ndarray, weights: np.ndarray, step: int) -> np.ndarray:
    """Tapped-delay line sum_k weights[..., k] * x(. - k*step) in samples.

    1-D taps give one output; each row of 2-D weights gives one output
    row.  Polyphase form: x, zero-padded to nb = ceil(len(x)/step) blocks
    of ``step`` samples, is an (nb, step) matrix, and output block b is
    sum_j w[b - j] * block j.  So each row is one banded Toeplitz matrix
    band[b, j] = w[b - j] of shape (n + nb - 1, nb) times that matrix.
    Every row runs the same products on its own band, so row m of a 2-D
    call is bit-identical to the 1-D call with weights[m].
    """
    rows, n = weights.shape[:-1], weights.shape[-1]
    nb = -(-len(x) // step)
    xb = np.pad(x, (0, nb * step - len(x))).reshape(nb, step)
    padded = np.zeros(rows + (n + 2 * (nb - 1),))
    padded[..., nb - 1 : nb - 1 + n] = weights
    band = np.lib.stride_tricks.sliding_window_view(padded, nb, axis=-1)[..., ::-1]
    band = np.ascontiguousarray(band)
    size = len(x) + (n - 1) * step
    full, rest = divmod(size, step)
    out = np.empty(rows + (size,))
    # whole blocks straight into out (splitting its last axis is a view),
    # then the last, partial block
    np.matmul(band[..., :full, :], xb, out=out[..., : full * step].reshape(rows + (full, step)))
    if rest:
        out[..., full * step :] = (band[..., full:, :] @ xb[:, :rest])[..., 0, :]
    return out


def autocorrelation(p: SampledPulse) -> SampledPulse:
    """Deterministic autocorrelation r(t) = integral p(s) p(s - t) ds.

    The result is exactly even (computed once and mirrored) with support
    twice the pulse support, and r(0) equals the pulse energy.
    """
    r = np.correlate(p.samples, p.samples, mode="full") * p.dt
    r = (r + r[::-1]) / 2.0  # bitwise-even by construction
    n = p.grid.size
    grid = TimeGrid(p.dt, n - 1, 2 * n - 1)
    half = p.duration()
    return SampledPulse(grid, r, (-half, half))


def spectrum(p: SampledPulse, nfft: int) -> Spectrum:
    """Zero-padded transform samples; freqs span [-1/2dt, 1/2dt).

    Scaled by dt and phase-referenced to the pulse's t = 0 so the values
    approximate the continuous transform at each grid frequency.
    """
    if nfft < p.grid.size:
        raise ConfigurationError("nfft must be at least the pulse length")
    if nfft & (nfft - 1):
        raise ConfigurationError("nfft must be a power of two")
    vals = np.fft.fft(p.samples, nfft) * p.dt
    # exp(2i pi k n0 / nfft) with k n0 reduced mod nfft in integers: exact
    # phases, where f * n0 * dt loses ~1e-13 at n0 ~ 1e4
    vals *= np.exp(2j * np.pi * ((np.arange(nfft) * p.grid.n0) % nfft) / nfft)
    freqs = np.fft.fftfreq(nfft, p.dt)
    return Spectrum(np.fft.fftshift(freqs), np.fft.fftshift(vals))


def _dft_bins(x: np.ndarray, first: int, nfft: int, m: int) -> np.ndarray:
    """Bins 0..m-1 of the nfft-point DFT of samples x[i] at index first + i.

    That is sum_i x[i] exp(-2i pi k (first + i) / nfft), by Bluestein's
    chirp-z: k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum into one
    convolution with the chirp exp(-i pi j^2 / nfft), done with two FFTs
    of length next_fast_len(len(x) + m - 1).  The chirp's j^2 is reduced
    mod 2 nfft in integers, so every phase is exact however large j is.
    """

    def chirp(j):
        return np.exp(-1j * np.pi * ((j * j) % (2 * nfft)) / nfft)

    n = len(x)
    size = scipy.fft.next_fast_len(n + m - 1)
    j = np.arange(n, dtype=np.int64) + first
    a = scipy.fft.fft(x * chirp(j), size)
    lags = np.arange(-(n - 1), m, dtype=np.int64) - first  # every k - j
    b = scipy.fft.fft(np.conj(chirp(lags)), size)
    conv = scipy.fft.ifft(a * b)[n - 1 : n - 1 + m]
    return chirp(np.arange(m, dtype=np.int64)) * conv


def shift_samples(p: SampledPulse, shift: float) -> int:
    """Number of grid steps in one shift; raises if off-grid."""
    s_f = shift / p.dt
    s = int(round(s_f))
    if abs(s_f - s) > 1e-6:
        raise GridAlignmentError("shift is not an integer number of grid steps")
    if s <= 0:
        raise ConfigurationError("shift must be positive")
    return s


def autocorr_span(p: SampledPulse, shift: float) -> int:
    """Number of one-sided shifts with overlapping support: ceil(Tp/T)."""
    return int(math.ceil(p.duration() / shift - 1e-9))


def autocorr_samples(p: SampledPulse, shift: float, kmax: int | None = None) -> np.ndarray:
    """Autocorrelation sampled at multiples of the shift: r(0..kmax * T)."""
    s = shift_samples(p, shift)
    if kmax is None:
        kmax = autocorr_span(p, shift)
    return lag_autocorrelation(p.samples, s, kmax) * p.dt


def lag_autocorrelation(x, step: int, kmax: int) -> np.ndarray:
    """Lag products r[k] = sum_i x[i] x[i + k*step] for k = 0..kmax.

    One dot product over the overlap per lag, so only the requested lags
    are computed; lags past the overlap are zero.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros(kmax + 1)
    for k in range(min(kmax, (n - 1) // step) + 1):
        out[k] = np.dot(x[: n - k * step], x[k * step :])
    return out


def cosine_series(c, x) -> np.ndarray:
    """Even cosine series c[0] + 2 sum_n c[n] cos(2 pi n x), 1-periodic in x.

    x is reduced exactly to v = |x - round(x)|.  Reinsch's modified
    recurrence (Stoer & Bulirsch, section 2.3) then carries Clenshaw's b_k
    in u = cos(2 pi v) beside e_k = b_k - s b_(k+1), whose step multiplies
    only by the small lam = 2 (u - s): s = 1 and lam = -4 sin^2(pi v) for
    v <= 1/4, s = -1 and lam = 4 sin^2(pi (1/2 - v)) above.  Clenshaw in u
    itself amplifies the rounding of u near u = +-1.  Memory is O(len(x)).
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.abs(x - np.round(x))
    out = np.empty(v.shape)
    near = v <= 0.25
    for sel, s, lam in (
        (near, 1.0, -4.0 * np.sin(np.pi * v[near]) ** 2),
        (~near, -1.0, 4.0 * np.sin(np.pi * (0.5 - v[~near])) ** 2),
    ):
        b, e, t = np.zeros(lam.shape), np.zeros(lam.shape), np.empty(lam.shape)
        for a in 2.0 * c[:0:-1] if lam.size else ():
            np.multiply(lam, b, out=t)
            t += a
            if s > 0:  # e_k = a_k + lam b_(k+1) + s e_(k+1), b_k = e_k + s b_(k+1)
                e += t
                b += e
            else:
                np.subtract(t, e, out=e)
                np.subtract(e, b, out=b)
        out[sel] = c[0] + s * e + 0.5 * lam * b
    return out


def _power_at(p: SampledPulse, f) -> np.ndarray:
    """Exact |p^(f)|^2 = dt^2 (r_0 + 2 sum_j r_j cos(2 pi f j dt)) at any f,
    with r the pulse's lag autocorrelation."""
    r = lag_autocorrelation(p.samples, 1, p.grid.size - 1)
    return p.dt**2 * cosine_series(r, np.asarray(f, dtype=float) * p.dt)


def gram_symbol(p: SampledPulse, shift: float, nu) -> np.ndarray | float:
    """Folded power spectrum sum_n r(n*T) exp(-2i pi n nu), real by symmetry.

    ``nu`` is in cycles per shift; the function is 1-periodic and even.
    Its range over [0, 1) gives the translate family's stability bounds,
    and its samples at l/N are the circulant approximant's eigenvalues.
    """
    r = autocorr_samples(p, shift)
    vals = cosine_series(r, nu)
    if np.min(vals) < -1e-9 * max(r[0], 1e-300):
        raise ConfigurationError(
            "folded power spectrum is significantly negative; "
            "autocorrelation input looks inconsistent"
        )
    return float(vals) if np.ndim(vals) == 0 else vals


def zak_transform(p: SampledPulse, shift: float, t: float, nu: float) -> complex:
    """Zak transform sum_n p(t - n*T) exp(2i pi n nu) at a grid time t."""
    s = shift_samples(p, shift)
    k0 = p.grid.index_of(t)  # raises off-grid
    # translates with support intersecting t: p(t - nT) nonzero needs
    # 0 <= k0 - n*s < size
    n_lo = int(math.floor((k0 - (p.grid.size - 1)) / s))
    n_hi = int(math.floor(k0 / s))
    total = 0.0 + 0.0j
    for n in range(n_lo, n_hi + 1):
        idx = k0 - n * s
        if 0 <= idx < p.grid.size:
            total += p.samples[idx] * np.exp(2j * np.pi * n * nu)
    return complex(total)


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and then ``rows`` (one column per header name) with
    17 significant digits, in one write.

    The bytes are those of :class:`csv.writer` fed the ``f"{x:.17g}"``
    strings: CRLF line ends, and numbers never need quoting.
    """
    try:
        path = os.fspath(path)  # an int would open (and close) a file descriptor
    except TypeError:
        raise ConfigurationError(f"{path!r} is not a file path") from None
    cols = len(header)
    flat = np.asarray(rows, dtype=float).reshape(-1, cols).ravel().tolist()
    line = ",".join(["%.17g"] * cols) + "\r\n"
    body = (line * (len(flat) // cols)) % tuple(flat)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def save_pulse_csv(path, p: SampledPulse) -> None:
    """Write `t_seconds,amplitude` rows with 17 significant digits."""
    _write_csv(path, ["t_seconds", "amplitude"], np.column_stack([p.times(), p.samples]))


def _read_csv(path, header: list[str]) -> np.ndarray:
    """Read the leading ``header`` columns of a file written by
    :func:`_write_csv`: one contiguous float array per column.

    Blank lines are skipped.  An unreadable file, another header, or a
    row that is short or holds a field that is not a finite number raises
    :class:`ConfigurationError` naming the path (and the row's line).
    """
    n = len(header)
    flat = []
    try:
        with open(os.fspath(path), newline="") as fh:
            rows = csv.reader(fh)
            if [h.strip() for h in next(rows, [])[:n]] != header:
                raise ConfigurationError(f"{path}: expected header {','.join(header)}")
            for lineno, line in enumerate(rows, start=2):
                if not line:
                    continue
                try:
                    vals = list(map(float, line[:n]))
                except ValueError:
                    vals = []
                if len(vals) < n or not all(map(math.isfinite, vals)):
                    raise ConfigurationError(f"{path}: line {lineno} needs {n} finite numbers")
                flat += vals
    except (OSError, ValueError, TypeError, csv.Error) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    # copied, not a strided view of the row-major array: a strided column
    # would change the summation order of later dot products
    return np.array(flat, dtype=float).reshape(-1, n).T.copy()


def load_pulse_csv(path) -> SampledPulse:
    """Read a pulse written by :func:`save_pulse_csv`; spacing must be uniform.

    A missing or unreadable file, a malformed row or a non-finite value
    raises :class:`ConfigurationError`.
    """
    t, amps = _read_csv(path, ["t_seconds", "amplitude"])
    if len(t) < 2:
        raise ConfigurationError(f"{path}: fewer than two samples")
    # the end-to-end step: t[1] - t[0] alone is ~1e-11 off at n0 ~ 1e5,
    # enough to misplace t = 0 and drift the grid by ~1e-6 steps
    dt = float((t[-1] - t[0]) / (len(t) - 1))
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-6 * dt:
        raise ConfigurationError(f"{path}: non-uniform sample spacing")
    n0 = int(round(-t[0] / dt))
    if abs(-t[0] / dt - n0) > 1e-6:
        raise ConfigurationError(f"{path}: t = 0 does not fall on the grid")
    grid = TimeGrid(dt, n0, len(t))
    return SampledPulse(grid, amps)
