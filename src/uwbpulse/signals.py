"""Uniform-grid pulses: spectra, lag autocorrelation, CSV files.

A pulse is its samples on a uniform grid with an integer index marking
t = 0; it is zero off the grid, so its duration is the grid's span, and
a clip is zeros in the samples.  All quadrature is the rectangle rule
(samples are treated as exact point values), and all shifts used by the
orthogonalization machinery are integer numbers of grid steps; there is
no interpolation anywhere.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridAlignmentError, ResolutionError

_CSV_BLOCK = 4096  # pulse-CSV rows formatted per write


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = (k - n0) * dt for k = 0..size-1."""

    dt: float
    n0: int
    size: int

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"grid step dt must be positive and finite, not {self.dt!r}")
        if self.size <= 0:
            raise ConfigurationError("grid must contain at least one sample")

    def times(self) -> np.ndarray:
        return (np.arange(self.size) - self.n0) * self.dt


def _grid_steps(span: float, dt: float, what: str) -> int:
    """The whole number of grid steps in ``span`` seconds: round(span / dt),
    or :class:`GridAlignmentError` naming ``what`` if that quotient is not
    finite or is more than 1e-6 from an integer."""
    steps = span / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-6:
        raise GridAlignmentError(f"{what} is {float(steps)!r} grid steps, not a whole number")
    return round(steps)


@dataclass(frozen=True, eq=False)
class SampledPulse:
    """Real pulse samples on a grid, zero off it.

    Instances are treated as immutable values; do not write into
    ``samples``.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.size,):
            raise ConfigurationError("samples length must match the grid")

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
        return SampledPulse(self.grid, self.samples / math.sqrt(e))

    def duration(self) -> float:
        """The grid's span, from its first to its last time."""
        g = self.grid
        return (g.size - 1 - g.n0) * g.dt + g.n0 * g.dt


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Values at increasing frequencies, uniform (step ``df``) but for the
    edges :func:`pipeline.band_bins` adds.  They keep their producer's
    dtype: complex transform samples from :func:`spectrum` and band_bins,
    or a real density from the PSD models and ``design``'s achieved power.
    """

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))
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


def triangle_window(t: np.ndarray, width: float) -> np.ndarray:
    """Unit triangle on [-width/2, width/2]."""
    return np.clip(1.0 - np.abs(t) / (width / 2.0), 0.0, None)


def monocycle_sigma(fc: float) -> float:
    """Width parameter placing the monocycle's spectral peak at fc.

    For t*exp(-t^2/sigma^2) the transform magnitude is proportional to
    nu*exp(-(pi*sigma*nu)^2), maximal at nu = 1/(sqrt(2)*pi*sigma).
    """
    return 1.0 / (math.sqrt(2.0) * math.pi * fc)


def gaussian_monocycle(fc: float, Tq: float, grid: TimeGrid | None = None) -> SampledPulse:
    """Windowed Gaussian monocycle, unit energy, on a grid spanning [-Tq/2, Tq/2].

    The raw monocycle t*exp(-t^2/sigma^2) has its spectral-magnitude peak
    at fc; the triangle window makes the pulse continuous and strictly
    time-limited.  The grid must end at the window's edges to within
    1e-9 steps, so that the pulse's duration is Tq.
    """
    if fc <= 0 or Tq <= 0:
        raise ConfigurationError("fc and Tq must be positive")
    if grid is None:
        half = 96  # 192 samples across Tq
        grid = TimeGrid(dt=Tq / (2 * half), n0=half, size=2 * half + 1)
    t = grid.times()
    if max(abs(t[0] + Tq / 2), abs(t[-1] - Tq / 2)) > 1e-9 * grid.dt:
        raise ConfigurationError("grid does not span exactly [-Tq/2, Tq/2]")
    if Tq / grid.dt < 16:
        raise ResolutionError("fewer than 16 samples across the monocycle window")
    sigma = monocycle_sigma(fc)
    raw = t * np.exp(-(t**2) / sigma**2)
    samples = raw * triangle_window(t, Tq)
    return SampledPulse(grid, samples).normalized()


def semi_discrete_convolve(p: SampledPulse, taps: np.ndarray, clock: float) -> SampledPulse:
    """Filter a pulse with a tap sequence at the given clock period.

    Returns sum_k taps[k] * p(t - k*clock) on :func:`_translate_sum`'s
    grid, centred on the tap span.  The clock is a shift: a positive
    whole number of grid steps (:func:`shift_samples`).
    """
    out, grid = _translate_sum(p, np.asarray(taps, dtype=float), shift_samples(p, clock))
    return SampledPulse(grid, out)


def _translate_sum(
    p: SampledPulse, weights: np.ndarray, step: int
) -> tuple[np.ndarray, TimeGrid]:
    """Tapped-delay line sum_k weights[..., k] * p(. - k*step) in samples,
    and the grid of those samples.

    The grid puts t = 0 at the middle of the tap span, which keeps
    odd-order filters grid-aligned and the result centred; a span of an
    odd number of steps has no middle sample, and an empty tap row has no
    output, so both raise.  1-D taps give one output; each row of 2-D
    weights gives one output row.  Polyphase form: the samples x,
    zero-padded to nb = ceil(len(x)/step) blocks of ``step`` samples, are
    an (nb, step) matrix, and output block b is sum_j w[b - j] * block j.
    So each row is one banded Toeplitz matrix band[b, j] = w[b - j] of
    shape (n + nb - 1, nb) times that matrix.  Every row runs the same
    products on its own band, so row m of a 2-D call is bit-identical to
    the 1-D call with weights[m].
    """
    rows, n = weights.shape[:-1], weights.shape[-1]
    if n == 0:
        raise ConfigurationError("a tapped-delay line needs at least one tap")
    if (n - 1) * step % 2 != 0:
        raise GridAlignmentError("cannot center an even tap span on the grid")
    x = p.samples
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
    return out, TimeGrid(p.dt, p.grid.n0 + (n - 1) * step // 2, size)


def spectrum(p: SampledPulse, nfft: int) -> Spectrum:
    """Zero-padded transform samples; freqs span [-1/2dt, 1/2dt).

    Scaled by dt and phase-referenced to the pulse's t = 0 so the values
    approximate the continuous transform at each grid frequency: the
    zero-padded samples are rotated so that t = 0 is index 0 (negative
    times wrap to the end), which is exact, with no phase ramp.
    """
    if nfft < p.grid.size:
        raise ConfigurationError("nfft must be at least the pulse length")
    if nfft & (nfft - 1):
        raise ConfigurationError("nfft must be a power of two")
    x = np.roll(np.pad(p.samples, (0, nfft - p.grid.size)), -p.grid.n0)
    vals = np.fft.fft(x)
    vals *= p.dt
    freqs = np.fft.fftfreq(nfft, p.dt)
    return Spectrum(np.fft.fftshift(freqs), np.fft.fftshift(vals))


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: the complex FFT length that
    ``scipy.fft.next_fast_len`` picks, for which pocketfft is fastest."""
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < n:  # p3 times the least power of two that reaches n
                    fit = p3 << ((n - 1) // p3).bit_length()
                    if fit < best:
                        best = fit
                    p3 *= 3
                if p3 < best:
                    best = p3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _dft_bins(x: np.ndarray, first: int, nfft: int, m: int) -> np.ndarray:
    """Bins 0..m-1 of the nfft-point DFT of samples x[i] at index first + i.

    That is sum_i x[i] exp(-2i pi k (first + i) / nfft), by Bluestein's
    chirp-z: k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum into one
    convolution with the chirp exp(-i pi j^2 / nfft), done with two FFTs
    of length _fast_len(len(x) + m - 1).  The chirp's j^2 is reduced
    mod 2 nfft in integers, so every phase is exact however large j is.
    """

    def chirp(j):
        return np.exp(-1j * np.pi * ((j * j) % (2 * nfft)) / nfft)

    n = len(x)
    size = _fast_len(n + m - 1)
    j = np.arange(n, dtype=np.int64) + first
    a = np.fft.fft(x * chirp(j), size)
    lags = np.arange(-(n - 1), m, dtype=np.int64) - first  # every k - j
    b = np.fft.fft(np.conj(chirp(lags)), size)
    conv = np.fft.ifft(a * b)[n - 1 : n - 1 + m]
    return chirp(np.arange(m, dtype=np.int64)) * conv


def _dtft(p: SampledPulse, freqs) -> np.ndarray:
    """Exact p^(f) = dt sum_k x_k exp(-2i pi f t_k) at each f, by direct
    sum over blocks of b ~ sqrt(n) samples: the phasor of t_k is that of
    its block's first time times that of its offset in the block, so each
    f takes n / b + b exponentials instead of n."""
    b = math.isqrt(p.grid.size) + 1
    blocks = np.pad(p.samples, (0, -p.grid.size % b)).reshape(-1, b)
    starts = np.arange(0, blocks.size, b) - p.grid.n0
    f = np.asarray(freqs, dtype=float)
    first, offset = (np.exp(-2j * np.pi * np.outer(k * p.dt, f)) for k in (starts, np.arange(b)))
    return np.sum(first * (blocks @ offset), axis=0) * p.dt


def shift_samples(p: SampledPulse, shift: float) -> int:
    """Number of grid steps in one shift: a positive whole number
    (:func:`_grid_steps`), or it raises :class:`ConfigurationError`."""
    s = _grid_steps(shift, p.dt, "shift")
    if s <= 0:
        raise ConfigurationError(f"shift of {s} grid steps is not positive")
    return s


def autocorr_samples(p: SampledPulse, shift: float, kmax: int | None = None) -> np.ndarray:
    """Autocorrelation sampled at multiples of the shift: r(0..kmax * T),
    with kmax by default ceil(Tp/T), the number of one-sided shifts whose
    translates overlap."""
    s = shift_samples(p, shift)
    if kmax is None:
        kmax = -(-(p.grid.size - 1) // s)
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


def _cosine_extrema(c) -> tuple[float, float]:
    """Exact min and max over x of the cosine series of :func:`cosine_series`.

    In u = cos(2 pi x) the series is the Chebyshev series c[0] + sum_n
    2 c[n] T_n(u) on [-1, 1], so its extrema lie at u = +-1 or at roots of
    its derivative (Battles & Trefethen 2004).  The real part of every
    root, clipped to [-1, 1], is a candidate, so a root pair split off the
    real line by rounding still counts; each candidate is evaluated by
    :func:`cosine_series` at x = arccos(u) / (2 pi).
    """
    c = np.asarray(c, dtype=float)
    cheb = np.polynomial.chebyshev
    d = cheb.chebder(np.concatenate([c[:1], 2.0 * c[1:]]))
    # leading coefficients below the others' rounding would swamp the
    # colleague matrix's eigenvalues; dropping them changes the derivative
    # on [-1, 1] by no more than that rounding
    roots = cheb.chebroots(cheb.chebtrim(d, np.finfo(float).eps * np.max(np.abs(d))))
    u = np.clip(np.concatenate([[-1.0, 1.0], roots.real]), -1.0, 1.0)
    vals = cosine_series(c, np.arccos(u) / (2.0 * np.pi))
    return float(vals.min()), float(vals.max())


def _power_at(p: SampledPulse, f) -> np.ndarray:
    """Exact |p^(f)|^2 = dt^2 (r_0 + 2 sum_j r_j cos(2 pi f j dt)) at any f,
    with r the pulse's lag autocorrelation."""
    r = lag_autocorrelation(p.samples, 1, p.grid.size - 1)
    return p.dt**2 * cosine_series(r, np.asarray(f, dtype=float) * p.dt)


@contextlib.contextmanager
def _output(path):
    """``path`` opened to write text as is, with no newline translation.

    An int, which open() would take as a file descriptor, is refused, and
    an OSError (a directory in the way, no permission, a full disk) is a
    :class:`ConfigurationError` naming the file.
    """
    try:
        path = os.fspath(path)
    except TypeError:
        raise ConfigurationError(f"{path!r} is not a file path") from None
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and then ``rows`` (one column per header name) with
    17 significant digits, in one write.

    The bytes are those of :class:`csv.writer` fed the ``f"{x:.17g}"``
    strings: CRLF line ends, and numbers never need quoting.
    """
    cols = len(header)
    flat = np.asarray(rows, dtype=float).reshape(-1, cols).ravel().tolist()
    line = ",".join(["%.17g"] * cols) + "\r\n"
    body = (line * (len(flat) // cols)) % tuple(flat)
    with _output(path) as fh:
        fh.write(",".join(header) + "\r\n" + body)


def save_pulse_csv(path, p: SampledPulse) -> None:
    """Write `t_seconds,amplitude` rows with 17 significant digits."""
    save_family_csv([path], p.grid, p.samples[np.newaxis])


def save_family_csv(paths, grid: TimeGrid, samples) -> None:
    """Write row m of ``samples``, a pulse on ``grid``, to ``paths[m]`` as
    `t_seconds,amplitude` rows: the bytes of :func:`_write_csv`.

    The time column is formatted once: each block of up to ``_CSV_BLOCK``
    times becomes one template of ``t,%.17g`` rows that every member fills
    with its amplitudes.  Two or more members keep the templates of the
    whole grid; one member formats a block at a time.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (len(paths), grid.size):
        raise ConfigurationError("one row of grid samples per path required")
    starts = range(0, grid.size, _CSV_BLOCK)
    times = grid.times()
    templates = (
        ("%.17g,%%.17g\r\n" * len(block)) % tuple(block)
        for block in (times[i : i + _CSV_BLOCK].tolist() for i in starts)
    )
    if len(paths) > 1:
        templates = list(templates)
    for path, row in zip(paths, samples):
        with _output(path) as fh:
            fh.write("t_seconds,amplitude\r\n")
            for i, template in zip(starts, templates):
                fh.write(template % tuple(row[i : i + _CSV_BLOCK].tolist()))


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
    n0 = -_grid_steps(t[0], dt, f"{path}: the first time")
    grid = TimeGrid(dt, n0, len(t))
    return SampledPulse(grid, amps)
