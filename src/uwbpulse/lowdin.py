"""Orthogonalization of pulse translates.

Given a pulse p and shift T, the translates {p(. - nT)} for |n| <= M have
a banded symmetric Toeplitz Gram matrix, held as its lag row r(nT) by one
:class:`Translates` (made by :func:`translates`) with the Riesz bounds
that decide stability.  Applying the Gram's inverse square root to the
family yields the orthonormal basis closest to it in summed L2 distortion
(symmetric orthogonalization).  Wrapping the band cyclically into a
circulant, whose eigenvalues are the folded power spectrum at l/N, makes
the transform a DFT and gives time-limited approximants; letting the
family grow recovers the square-root Nyquist pulse whose spectrum is
p^ / sqrt(folded power).

Everything here takes the physical shift T and works with autocorrelation
samples at multiples of T, which is equivalent to the unit-shift
normalization of the underlying theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, UnstableGeneratorError
from .signals import (
    SampledPulse,
    TimeGrid,
    _cosine_extrema,
    _translate_sum,
    autocorr_samples,
    shift_samples,
)

LIMIT_LEVEL = 1e-12  # limit taps at or below this share of the centre tap are dropped
LIMIT_MAX_M_HALF = 2048  # the limit generator's one circulant: taps at most this far out


@dataclass(frozen=True, eq=False)
class Translates:
    """The translates p(. - nT) of a pulse at shift T, and what they share.

    ``r`` is their lag row r(0..K T), zero past K, and [``a``, ``b``] are
    their Riesz bounds, the extrema of the folded power spectrum.  Made
    only by :func:`translates`, which applies the stability rule, so every
    instance is stable.
    """

    pulse: SampledPulse
    shift: float
    steps: int  # the shift in grid steps
    r: np.ndarray
    a: float
    b: float

    def gram(self, m_half: int) -> np.ndarray:
        """Gram matrix of the 2M+1 translates: the Toeplitz matrix of r(0..2M T)."""
        if m_half < 1:
            raise ConfigurationError("need at least one shift on each side")
        row = np.zeros(2 * m_half + 1)
        row[: len(self.r)] = self.r[: len(row)]
        return _toeplitz(row)


def translates(p: SampledPulse, shift: float) -> Translates:
    """The translates of ``p`` at ``shift``, with their lag row and Riesz bounds.

    The folded spectrum is a cosine series in the lags r(kT), so its
    extrema are taken at the roots of its derivative in u = cos(2 pi nu)
    or at nu = 0, 1/2 (:func:`signals._cosine_extrema`); no grid is
    scanned.  The stability rule of every transform here: a lower bound
    A <= 1e-8 r(0), the spectrum's mean, raises :class:`UnstableGeneratorError`.
    """
    r = autocorr_samples(p, shift)
    a, b = _cosine_extrema(r)
    if not a > 1e-8 * r[0]:
        raise UnstableGeneratorError(f"stability bound A = {a:.3e} <= 1e-8 r(0) at shift {shift!r}")
    return Translates(p, shift, shift_samples(p, shift), r, a, b)


@dataclass(frozen=True, eq=False)
class OrthogonalFamily:
    """2M+1 pulses spanning the translate space, as one sample matrix.

    Row m of ``samples`` is member m - M.  All members share one ``grid``,
    the span of the 2M+1 translates.  ``weights[m, n]`` is the coefficient
    of p(. - (n - M) T) in that member, so each member is the output of
    the tapped-delay line whose taps are its row of ``weights`` (for the
    ALO family, clipped: zero past the cutoff).
    """

    samples: np.ndarray  # (2M+1, grid.size)
    grid: TimeGrid
    m_half: int
    translates: Translates
    weights: np.ndarray

    @property
    def shift(self) -> float:
        return self.translates.shift

    @property
    def size(self) -> int:
        return len(self.samples)

    def centered(self) -> SampledPulse:
        return SampledPulse(self.grid, self.samples[self.m_half])

    def gram(self) -> np.ndarray:
        return self.samples @ self.samples.T * self.grid.dt

    def max_offdiagonal(self) -> float:
        return _max_offdiagonal(self.gram())


def _max_offdiagonal(g: np.ndarray) -> float:
    return float(np.max(np.abs(g - np.diag(np.diag(g)))))


class LimitPulse(NamedTuple):
    pulse: SampledPulse
    truncation_radius: float  # seconds from centre to the far end of the grid
    tail_level: float  # tap at the cap over centre tap; <= LIMIT_LEVEL once converged
    m_half: int  # tap radius m, in shifts: the last tap above LIMIT_LEVEL
    taps: np.ndarray  # weights of p(. - nT), n = -m..m
    translates: Translates  # of the input pulse


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row ``row``: entry (i, j) is
    row[|i - j|]."""
    i = np.arange(len(row))
    return row[np.abs(i - i[:, None])]


def inverse_sqrt_spd(gm: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix; raises
    unless its least eigenvalue is above 1e-12 of its largest."""
    vals, vecs = np.linalg.eigh(gm)
    if not vals.min() > 1e-12 * vals.max():
        raise UnstableGeneratorError(
            f"Gram matrix nearly singular (eigenvalues {vals.min():.3e} to {vals.max():.3e}); "
            "the shift is too small or the pulse is degenerate"
        )
    return (vecs * vals**-0.5) @ vecs.T


def _family(t: Translates, weights: np.ndarray) -> OrthogonalFamily:
    """Members sum_n weights[m, n] p(. - (n - M) T) on one extended grid."""
    samples, grid = _translate_sum(t.pulse, weights, t.steps)
    return OrthogonalFamily(samples, grid, (len(weights) - 1) // 2, t, weights)


def lowdin_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Mutually orthonormal pulses closest to the translates in summed L2.

    Rows of the Gram inverse square root are the combining filter bank;
    member m is the filtered pulse sum_n weights[m, n] p(. - nT).  Raises
    unless the translates are stable (:func:`translates`).
    """
    t = translates(p, shift)
    return _family(t, inverse_sqrt_spd(t.gram(m_half)))


def _inverse_sqrt_taps(r: np.ndarray, m_half: int) -> np.ndarray:
    """Row 0 of the ALO weights: the N-aliased Fourier coefficients of the
    folded power spectrum to the -1/2, N = 2M + 1, for r = r(0..K T).  The
    circulant is the band wrapped without overlap, which needs M >= K."""
    n, k = 2 * m_half + 1, len(r) - 1
    if m_half < k:
        raise ConfigurationError(f"band (K={k}) does not fit the {n}-point circulant; need M >= K")
    # the folded spectrum at l/n: the DFT of the lags -K..K wrapped onto n
    # points, i.e. the eigenvalues of the circulant with that first row:
    # each is at least the Riesz bound A > 1e-8 r(0) that callers checked,
    # far above the FFT's rounding (~1e-13 r(0))
    lags = np.arange(1 - len(r), len(r)) % n
    lam = np.fft.fft(np.bincount(lags, np.concatenate([r[:0:-1], r]), n)).real
    return np.fft.ifft(lam**-0.5).real


def approx_lowdin_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Time-limited approximants from the circulant inverse square root.

    The combining weights diagonalize by DFT, so member m is a cyclic
    filter of the translates.  Samples beyond |t| = (M - K/2) T, where the
    cyclic wrap-around stops matching the straight transform, are zeroed:
    the members stay on the translates' grid, and are time-limited to
    the cutoff by those zeros.  Raises unless the translates are stable
    (:func:`translates`), which N circulant eigenvalues cannot show.
    """
    t = translates(p, shift)
    row = _inverse_sqrt_taps(t.r, m_half)
    i = np.arange(len(row))
    # the circulant W[m, n] = row[(n - m) mod N]: a negative index wraps
    fam = _family(t, row[i - i[:, None]])
    # the cutoff (M - K/2) T in grid steps, rounded down at a half step
    cutoff = (2 * m_half - (len(t.r) - 1)) * t.steps // 2
    n0 = fam.grid.n0
    fam.samples[:, : max(n0 - cutoff, 0)] = 0.0
    fam.samples[:, max(n0 + cutoff + 1, 0) :] = 0.0
    return fam


def orthonormal_generator(p: SampledPulse, shift: float) -> LimitPulse:
    """Shift-orthonormal pulse with spectrum p^ / sqrt(folded power).

    It is the N -> infinity limit of the centred ALO member, computed as
    that member without the clip: sum_n c_n p(. - nT), with c the centre
    row of ALO_M at the cap M = LIMIT_MAX_M_HALF (or the band, if wider),
    trimmed to the taps out to the last one above LIMIT_LEVEL of the
    centre tap.  The taps decay geometrically, so the cap holds all of
    them unless the stability bound is nearly degenerate; ``tail_level``,
    the tap at the cap over the centre tap, then tells how far from
    converged they are.  No sample of the sum is dropped.  Raises unless
    the translates are stable (:func:`translates`).
    """
    t = translates(p, shift)
    cap = max(LIMIT_MAX_M_HALF, len(t.r) - 1)  # the band must fit the circulant
    row = _inverse_sqrt_taps(t.r, cap)
    tail = float(np.max(np.abs(row[cap : cap + 2])) / row[0])  # taps at +-cap
    taps = np.roll(row, cap)
    kept = np.nonzero(np.abs(taps) > LIMIT_LEVEL * row[0])[0]
    m_half = int(np.max(np.abs(kept - cap)))
    taps = taps[cap - m_half : cap + m_half + 1]
    out, grid = _translate_sum(p, taps, t.steps)
    radius = max(grid.n0, grid.size - 1 - grid.n0) * p.dt
    return LimitPulse(SampledPulse(grid, out).normalized(), radius, tail, m_half, taps, t)
