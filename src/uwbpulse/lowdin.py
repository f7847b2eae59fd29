"""Orthogonalization of pulse translates.

Given a pulse p and shift T, the translates {p(. - nT)} for |n| <= M have
a banded symmetric Toeplitz Gram matrix built from autocorrelation
samples.  Applying the Gram matrix's inverse square root to the translate
family yields the unique orthonormal basis closest to it in summed L2
distortion (symmetric orthogonalization); replacing the Toeplitz matrix
by its circulant wrap makes the transform a DFT and gives time-limited
approximants; letting the family grow recovers the square-root Nyquist
pulse whose spectrum is p^ / sqrt(folded power).

Everything here takes the physical shift T and works with autocorrelation
samples at multiples of T, which is equivalent to the unit-shift
normalization of the underlying theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, GridAlignmentError, UnstableGeneratorError
from .signals import (
    SampledPulse,
    TimeGrid,
    _translate_sum,
    autocorr_samples,
    cosine_series,
    dtft_power,
    gram_symbol,
    inner,
    shift_samples,
)

RIESZ_GRID = 4096


@dataclass(frozen=True, eq=False)
class ToeplitzGram:
    """Banded symmetric Toeplitz Gram of {p(. - nT)}, |n| <= M."""

    first_row: np.ndarray  # r(0), r(T), ..., r(K T)
    size: int  # N = 2M + 1
    shift: float

    def __post_init__(self):
        object.__setattr__(self, "first_row", np.asarray(self.first_row, dtype=float))
        if self.size < 1:
            raise ConfigurationError("Gram dimension must be positive")

    @property
    def bandwidth(self) -> int:
        return len(self.first_row) - 1

    def dense(self) -> np.ndarray:
        row = np.zeros(self.size)
        upto = min(len(self.first_row), self.size)
        row[:upto] = self.first_row[:upto]
        return scipy.linalg.toeplitz(row)


@dataclass(frozen=True, eq=False)
class CirculantGram:
    """Circulant wrap of a banded Toeplitz Gram (band folded cyclically)."""

    first_row: np.ndarray
    shift: float

    def __post_init__(self):
        object.__setattr__(self, "first_row", np.asarray(self.first_row, dtype=float))

    @property
    def size(self) -> int:
        return len(self.first_row)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues by DFT of the first row (real for a symmetric band)."""
        lam = np.fft.fft(self.first_row)
        if np.max(np.abs(lam.imag)) > 1e-9 * max(np.max(np.abs(lam.real)), 1e-300):
            raise ConfigurationError("circulant row is not symmetric")
        return lam.real

    def dense(self) -> np.ndarray:
        return scipy.linalg.circulant(self.first_row).T


@dataclass(frozen=True, eq=False)
class OrthogonalFamily:
    """2M+1 pulses spanning the translate space, as one sample matrix.

    Row m of ``samples`` is member m - M.  All members share one ``grid``
    and one declared ``support``.  ``weights[m, n]`` is the coefficient of
    p(. - (n - M) T) in that member, so each member is the output of the
    tapped-delay line whose taps are its row of ``weights``.
    """

    samples: np.ndarray  # (2M+1, grid.size)
    grid: TimeGrid
    support: tuple[float, float]
    kind: str  # "lo", "alo" or "gs"
    m_half: int
    shift: float
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def pulses(self) -> tuple[SampledPulse, ...]:
        return tuple(SampledPulse(self.grid, row, self.support) for row in self.samples)

    def centered(self) -> SampledPulse:
        return SampledPulse(self.grid, self.samples[self.m_half], self.support)

    def gram(self) -> np.ndarray:
        return self.samples @ self.samples.T * self.grid.dt

    def max_offdiagonal(self) -> float:
        g = self.gram()
        return float(np.max(np.abs(g - np.diag(np.diag(g)))))


class LimitPulse(NamedTuple):
    pulse: SampledPulse
    truncation_radius: float  # seconds from center where samples were dropped
    tail_level: float  # leftover relative amplitude at the buffer edge


def nyquist_spectrum_power(p: SampledPulse, shift: float, freqs) -> np.ndarray:
    """|transform|^2 of the shift-orthonormal generator, evaluated exactly.

    The orthonormalized spectrum power is |p^(f)|^2 divided by the folded
    power spectrum at f * shift; both factors are finite sums, so this
    needs no truncation and works even when the generator decays slowly.
    """
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    folded = np.asarray(gram_symbol(p, shift, f * shift))
    if np.min(folded) <= 0.0:
        raise UnstableGeneratorError("folded spectrum not positive on the grid")
    return dtft_power(p, f) / folded


def gram(p: SampledPulse, shift: float, m_half: int) -> ToeplitzGram:
    """Gram matrix of the 2M+1 translates from autocorrelation samples."""
    if m_half < 1:
        raise ConfigurationError("need at least one shift on each side")
    return ToeplitzGram(autocorr_samples(p, shift), 2 * m_half + 1, shift)


def inverse_sqrt_spd(gm: ToeplitzGram | np.ndarray, min_eig: float = 1e-12) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix."""
    dense = gm.dense() if isinstance(gm, ToeplitzGram) else np.asarray(gm, dtype=float)
    vals, vecs = np.linalg.eigh(dense)
    if float(vals.min()) <= min_eig:
        raise UnstableGeneratorError(
            f"Gram matrix nearly singular (min eigenvalue {vals.min():.3e}); "
            "the shift is too small or the pulse is degenerate"
        )
    return (vecs * vals**-0.5) @ vecs.T


def _family(p: SampledPulse, shift: float, weights: np.ndarray, kind: str) -> OrthogonalFamily:
    """Members sum_n weights[m, n] p(. - (n - M) T) on one extended grid."""
    s = shift_samples(p, shift)
    m_half = (len(weights) - 1) // 2
    samples = _translate_sum(p.samples, weights, s)
    grid = TimeGrid(p.dt, p.grid.n0 + m_half * s, samples.shape[1])
    support = (p.support[0] - m_half * shift, p.support[1] + m_half * shift)
    return OrthogonalFamily(samples, grid, support, kind, m_half, shift, weights)


def lowdin_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Mutually orthonormal pulses closest to the translates in summed L2.

    Rows of the Gram inverse square root are the combining filter bank;
    member m is the filtered pulse sum_n weights[m, n] p(. - nT).
    """
    a, _ = riesz_bounds(p, shift)
    if a <= 1e-8:
        raise UnstableGeneratorError(
            f"stability lower bound {a:.3e} too small at shift {shift!r}"
        )
    gm = gram(p, shift, m_half)
    return _family(p, shift, inverse_sqrt_spd(gm), "lo")


def gram_schmidt_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Order-dependent comparator: sequential orthonormalization left to right.

    With Gram G = L L^T (Cholesky), the combining weights are L^{-1}, so
    member m depends only on translates up to m.
    """
    gm = gram(p, shift, m_half).dense()
    chol = np.linalg.cholesky(gm)
    weights = scipy.linalg.solve_triangular(chol, np.eye(gm.shape[0]), lower=True)
    return _family(p, shift, weights, "gs")


def strang_circulant(gm: ToeplitzGram) -> CirculantGram:
    """Circulant approximant wrapping the Toeplitz band cyclically.

    Needs the band to fit, i.e. M >= K; its eigenvalues are then exactly
    the folded power spectrum sampled at l/N.
    """
    n = gm.size
    k = gm.bandwidth
    m_half = (n - 1) // 2
    if m_half < k:
        raise ConfigurationError(
            f"band (K={k}) does not fit the circulant of dimension {n}; need M >= K"
        )
    row = np.zeros(n)
    row[: k + 1] = gm.first_row
    if k > 0:
        row[n - k :] = gm.first_row[1:][::-1]
    return CirculantGram(row, gm.shift)


def approx_lowdin_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Time-limited approximants from the circulant inverse square root.

    The combining weights diagonalize by DFT, so member m is a cyclic
    filter of the translates; samples beyond |t| = (M - K/2) T, where the
    cyclic wrap-around stops matching the straight transform, are zeroed,
    making the support claim exact.
    """
    gm = gram(p, shift, m_half)
    circ = strang_circulant(gm)
    lam = circ.eigenvalues()
    if np.any(lam <= 0.0):
        bad = int(np.argmin(lam))
        raise UnstableGeneratorError(
            f"circulant eigenvalue {lam[bad]:.3e} at sample {bad}/{circ.size} "
            "is not positive; translates are unstable at this shift"
        )
    fam = _family(p, shift, scipy.linalg.circulant(np.fft.ifft(lam**-0.5).real).T, "alo")
    cutoff = (m_half - gm.bandwidth / 2.0) * shift
    fam.samples[:, np.abs(fam.grid.times()) > cutoff + 1e-9 * p.dt] = 0.0
    return replace(fam, support=(-cutoff, cutoff))


def riesz_bounds(p: SampledPulse, shift: float) -> tuple[float, float]:
    """Extrema of the folded power spectrum over one period.

    Scanned on a RIESZ_GRID-point grid over [0, 1/2] (the function is
    even) with one local bisection refinement around each extremum.  A
    non-positive lower bound means the translates are not a stable basis.
    """
    r = autocorr_samples(p, shift)
    nu = np.linspace(0.0, 0.5, RIESZ_GRID)
    vals = cosine_series(r, nu)

    def refine(idx: int, sign: float) -> float:
        cand = nu[idx] + np.array([-0.5, 0.5]) * (nu[1] - nu[0])
        cand = cand[(cand >= 0.0) & (cand <= 0.5)]
        return sign * float(np.max(sign * np.append(vals[idx], cosine_series(r, cand))))

    a = refine(int(np.argmin(vals)), -1.0)
    b = refine(int(np.argmax(vals)), 1.0)
    if a <= 0.0:
        raise UnstableGeneratorError(
            f"lower stability bound {a:.3e} is not positive at shift {shift!r}"
        )
    return a, b


def _padded_grid(p: SampledPulse, shift: float, margin: int):
    """``p`` zero-padded by ``margin`` shifts on each side to a power-of-two
    length, with the pad width, the rfft frequencies and the folded power
    spectrum at those frequencies."""
    pad = margin * shift_samples(p, shift)
    nfft = 1 << int(math.ceil(math.log2(max(p.grid.size + 2 * pad, 2))))
    buf = np.zeros(nfft)
    buf[pad : pad + p.grid.size] = p.samples
    freqs = np.fft.rfftfreq(nfft, p.dt)
    return buf, pad, freqs, cosine_series(autocorr_samples(p, shift), freqs * shift)


def orthonormal_generator(
    p: SampledPulse,
    shift: float,
    trunc_level: float = 1e-12,
    max_margin_shifts: int = 2048,
) -> LimitPulse:
    """Shift-orthonormal pulse with spectrum p^ / sqrt(folded power).

    Computed on a zero-padded FFT grid and truncated where the amplitude
    falls below ``trunc_level`` times the peak; the pulse has no compact
    support, so the truncation radius is reported alongside.  The margin
    doubles until the wrap-around tail is below the truncation level (or
    the shift cap is reached; the reported tail level then tells how far
    from converged the tails are -- near-degenerate stability bounds can
    make the generator decay over astronomically many shifts).
    """
    riesz_bounds(p, shift)  # raises if unstable
    margin = 128
    while True:
        buf, pad, _, folded = _padded_grid(p, shift, margin)
        out = np.fft.irfft(np.fft.rfft(buf) / np.sqrt(folded), len(buf))
        peak = float(np.max(np.abs(out)))
        tail = max(abs(out[0]), abs(out[-1]), abs(out[pad // 2]))
        if tail <= trunc_level * peak or margin >= max_margin_shifts:
            break
        margin *= 2

    keep = np.nonzero(np.abs(out) > trunc_level * peak)[0]
    lo, hi = int(keep.min()), int(keep.max())
    n0 = pad + p.grid.n0
    samples = out[lo : hi + 1].copy()
    grid = TimeGrid(p.dt, n0 - lo, len(samples))
    radius = max(n0 - lo, hi - n0) * p.dt
    pulse = SampledPulse(grid, samples)
    return LimitPulse(pulse.normalized(), radius, tail / peak)


def summed_distortion(family: OrthogonalFamily, p: SampledPulse) -> float:
    """Sum over members of the squared L2 distance to the matching translate.

    ``p`` must be the pulse the family was built from, on the same grid.
    """
    s = shift_samples(p, family.shift)
    diff = _translate_sum(p.samples, np.eye(family.size), s)
    if TimeGrid(p.dt, p.grid.n0 + family.m_half * s, diff.shape[1]) != family.grid:
        raise GridAlignmentError("pulse grid does not match the family's translates")
    diff -= family.samples
    return float(np.vdot(diff, diff) * p.dt)


def lowdin_optimality_probe(
    p: SampledPulse, shift: float, trials: int, seed: int = 0, pieces: int = 8
) -> dict:
    """Check the symmetric construction against random-phase alternatives.

    Every orthonormal generator of the translate space has spectrum
    phase(nu) * p^ / sqrt(folded power) with a unit-modulus periodic
    phase; the phase-free choice minimizes ||p - generator||.  The probe
    draws piecewise-constant random phases, builds each alternative on
    the FFT grid, and reports the distances plus the closed-form check
    ||p - p_on||^2 = 2 (1 - <p, p_on>).
    """
    base = orthonormal_generator(p, shift).pulse
    # distances via quadrature
    d_base = p.energy() + base.energy() - 2.0 * inner(p, base)
    closed = 2.0 * (1.0 - inner(p, base))

    buf, _, freqs, folded = _padded_grid(p, shift, 256)
    base_spec = np.fft.rfft(buf) / np.sqrt(folded)

    # piecewise-constant phase on [0, 1/2), mirrored for a real pulse
    frac = np.mod(freqs * shift, 1.0)
    idx = np.minimum((np.minimum(frac, 1.0 - frac) * 2 * pieces).astype(int), pieces - 1)
    rng = np.random.default_rng(seed)
    worst_gap = math.inf
    results = []
    for _ in range(trials):
        angles = rng.uniform(0.0, 2.0 * np.pi, pieces)
        alpha = angles[idx]
        phase = np.where(frac <= 0.5, np.exp(1j * alpha), np.exp(-1j * alpha))
        alt_t = np.fft.irfft(base_spec * phase, len(buf))
        # distance in time domain; both live on the padded grid
        d_alt = float(np.sum((buf - alt_t) ** 2) * p.dt)
        results.append(d_alt)
        worst_gap = min(worst_gap, d_alt - d_base)
    return {
        "lowdin_distance_sq": d_base,
        "closed_form_distance_sq": closed,
        "alternative_distances_sq": results,
        "min_gap": worst_gap,
        "trials": trials,
    }
