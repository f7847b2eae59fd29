"""Orthogonalization of pulse translates.

Given a pulse p and shift T, the translates {p(. - nT)} for |n| <= M have
a banded symmetric Toeplitz Gram matrix, held as its lag row r(nT) =
autocorr_samples(p, T).  Applying its inverse square root to the family
yields the orthonormal basis closest to it in summed L2 distortion
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, GridAlignmentError, UnstableGeneratorError
from .signals import (
    SampledPulse,
    TimeGrid,
    _cosine_extrema,
    _power_at,
    _translate_sum,
    autocorr_samples,
    cosine_series,
    inner,
    shift_samples,
)

LIMIT_LEVEL = 1e-12  # limit taps at or below this share of the centre tap are dropped
LIMIT_MAX_M_HALF = 2048  # the limit generator's one circulant: taps at most this far out
_PROBE_NODES = 256  # Gauss-Legendre nodes per probe piece: sqrt(Phi) to 1e-13 even at K = 15


@dataclass(frozen=True, eq=False)
class OrthogonalFamily:
    """2M+1 pulses spanning the translate space, as one sample matrix.

    Row m of ``samples`` is member m - M.  All members share one ``grid``,
    the span of the 2M+1 translates.  ``weights[m, n]`` is the coefficient
    of p(. - (n - M) T) in that member, so each member is the output of
    the tapped-delay line whose taps are its row of ``weights`` (for
    "alo", clipped: zero past the cutoff).
    """

    samples: np.ndarray  # (2M+1, grid.size)
    grid: TimeGrid
    kind: str  # "lo", "alo" or "gs"
    m_half: int
    shift: float
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def pulses(self) -> tuple[SampledPulse, ...]:
        return tuple(SampledPulse(self.grid, row) for row in self.samples)

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


def nyquist_spectrum_power(p: SampledPulse, shift: float, freqs) -> np.ndarray:
    """|transform|^2 of the shift-orthonormal generator, evaluated exactly.

    The orthonormalized spectrum power is |p^(f)|^2 divided by the folded
    power spectrum at f * shift; both are finite cosine series over the
    pulse's autocorrelation, so this needs no truncation and works even
    when the generator decays slowly.  Raises unless the translates are
    stable (:func:`riesz_bounds`, the minimum over every frequency, not
    only ``freqs``).
    """
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    r = autocorr_samples(p, shift)
    _riesz_bounds(r, shift)
    return _power_at(p, f) / cosine_series(r, f * shift)


def gram(p: SampledPulse, shift: float, m_half: int) -> np.ndarray:
    """Gram matrix of the 2M+1 translates: the Toeplitz matrix of r(0..2M T)."""
    return _gram(autocorr_samples(p, shift), m_half)


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first row ``row``: entry (i, j) is
    row[|i - j|]."""
    i = np.arange(len(row))
    return row[np.abs(i - i[:, None])]


def _gram(r: np.ndarray, m_half: int) -> np.ndarray:
    """:func:`gram` from the lag row r = r(0..K T), zero past K."""
    if m_half < 1:
        raise ConfigurationError("need at least one shift on each side")
    row = np.zeros(2 * m_half + 1)
    row[: len(r)] = r[: len(row)]
    return _toeplitz(row)


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


def _family(p: SampledPulse, shift: float, weights: np.ndarray, kind: str) -> OrthogonalFamily:
    """Members sum_n weights[m, n] p(. - (n - M) T) on one extended grid."""
    s = shift_samples(p, shift)
    m_half = (len(weights) - 1) // 2
    samples = _translate_sum(p.samples, weights, s)
    grid = TimeGrid(p.dt, p.grid.n0 + m_half * s, samples.shape[1])
    return OrthogonalFamily(samples, grid, kind, m_half, shift, weights)


def lowdin_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Mutually orthonormal pulses closest to the translates in summed L2.

    Rows of the Gram inverse square root are the combining filter bank;
    member m is the filtered pulse sum_n weights[m, n] p(. - nT).  Raises
    unless the translates are stable (:func:`riesz_bounds`).
    """
    riesz_bounds(p, shift)  # raises if unstable
    return _family(p, shift, inverse_sqrt_spd(gram(p, shift, m_half)), "lo")


def gram_schmidt_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Order-dependent comparator: sequential orthonormalization left to right.

    With Gram G = L L^T (Cholesky), the combining weights are L^{-1}, so
    member m depends only on translates up to m.  Raises unless the
    translates are stable (:func:`riesz_bounds`).
    """
    riesz_bounds(p, shift)  # raises if unstable
    chol = np.linalg.cholesky(gram(p, shift, m_half))
    # L^{-1} is lower triangular; tril drops the rounding that the
    # inverse's row pivoting can leave above the diagonal
    return _family(p, shift, np.tril(np.linalg.inv(chol)), "gs")


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
    (:func:`riesz_bounds`), which N circulant eigenvalues cannot show.
    """
    riesz_bounds(p, shift)  # raises if unstable
    return _approx_lowdin_family(p, shift, m_half, autocorr_samples(p, shift))


def _approx_lowdin_family(
    p: SampledPulse, shift: float, m_half: int, r: np.ndarray
) -> OrthogonalFamily:
    """:func:`approx_lowdin_family` from the lag row ``r`` at ``shift``, once
    :func:`riesz_bounds` has passed."""
    row = _inverse_sqrt_taps(r, m_half)
    i = np.arange(len(row))
    # the circulant W[m, n] = row[(n - m) mod N]: a negative index wraps
    fam = _family(p, shift, row[i - i[:, None]], "alo")
    # the cutoff (M - K/2) T in grid steps, rounded down at a half step
    cutoff = (2 * m_half - (len(r) - 1)) * shift_samples(p, shift) // 2
    n0 = fam.grid.n0
    fam.samples[:, : max(n0 - cutoff, 0)] = 0.0
    fam.samples[:, max(n0 + cutoff + 1, 0) :] = 0.0
    return fam


def riesz_bounds(p: SampledPulse, shift: float) -> tuple[float, float]:
    """Exact extrema of the folded power spectrum over one period.

    The folded spectrum is a cosine series in the lags r(kT), so its
    extrema are taken at the roots of its derivative in u = cos(2 pi nu)
    or at nu = 0, 1/2 (:func:`signals._cosine_extrema`); no grid is
    scanned.  The stability rule of every transform here: a lower bound
    A <= 1e-8 r(0), the spectrum's mean, raises :class:`UnstableGeneratorError`.
    """
    return _riesz_bounds(autocorr_samples(p, shift), shift)


def _riesz_bounds(r: np.ndarray, shift: float) -> tuple[float, float]:
    """:func:`riesz_bounds` from the lag row r = r(0..K T)."""
    a, b = _cosine_extrema(r)
    if not a > 1e-8 * r[0]:
        raise UnstableGeneratorError(f"stability bound A = {a:.3e} <= 1e-8 r(0) at shift {shift!r}")
    return a, b


def orthonormal_generator(p: SampledPulse, shift: float) -> LimitPulse:
    """Shift-orthonormal pulse with spectrum p^ / sqrt(folded power).

    It is the N -> infinity limit of the centred ALO member, computed as
    that member without the clip: sum_n c_n p(. - nT), with c the centre
    row of ALO_M at the cap M = LIMIT_MAX_M_HALF (or the band, if wider),
    trimmed to the taps out to the last one above LIMIT_LEVEL of the
    centre tap.  The taps decay geometrically, so the cap holds all of
    them unless the stability bound is nearly degenerate; ``tail_level``,
    the tap at the cap over the centre tap, then tells how far from
    converged they are.  No sample of the sum is dropped.
    """
    riesz_bounds(p, shift)  # raises if unstable
    return _orthonormal_generator(p, shift, autocorr_samples(p, shift))


def _orthonormal_generator(p: SampledPulse, shift: float, r: np.ndarray) -> LimitPulse:
    """:func:`orthonormal_generator` from the lag row ``r`` at ``shift``,
    once :func:`riesz_bounds` has passed."""
    cap = max(LIMIT_MAX_M_HALF, len(r) - 1)  # the band must fit the circulant
    row = _inverse_sqrt_taps(r, cap)
    tail = float(np.max(np.abs(row[cap : cap + 2])) / row[0])  # taps at +-cap
    taps = np.roll(row, cap)
    kept = np.nonzero(np.abs(taps) > LIMIT_LEVEL * row[0])[0]
    m_half = int(np.max(np.abs(kept - cap)))
    taps = taps[cap - m_half : cap + m_half + 1]
    s = shift_samples(p, shift)
    out = _translate_sum(p.samples, taps, s)
    grid = TimeGrid(p.dt, p.grid.n0 + m_half * s, len(out))
    radius = max(grid.n0, grid.size - 1 - grid.n0) * p.dt
    return LimitPulse(SampledPulse(grid, out).normalized(), radius, tail, m_half, taps)


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
    exp(i alpha(nu)) p^ / sqrt(Phi), Phi the folded power spectrum, and
    ||p - generator||^2 = r(0) + 1 - 2 int_0^1 sqrt(Phi) cos(alpha) dnu, so
    the phase-free choice is closest.  The probe draws phases constant on
    ``pieces`` bins of [0, 1/2), mirrored for a real pulse, so a distance
    is one dot product with the per-bin integrals of sqrt(Phi) (Gauss-
    Legendre).  It adds the time-domain closed form 2 (1 - <p, p_on>) of
    the unit-energy ``p``'s generator p_on as a check.
    """
    base = orthonormal_generator(p, shift).pulse
    closed = 2.0 * (1.0 - inner(p, base))

    r = autocorr_samples(p, shift)
    x, w = np.polynomial.legendre.leggauss(_PROBE_NODES)
    nu = (np.arange(pieces)[:, None] + (x + 1.0) / 2.0) / (2 * pieces)
    # integral of sqrt(Phi) over each bin plus its mirror image in (1/2, 1]
    bins = np.sqrt(cosine_series(r, nu)) @ w / (2 * pieces)
    d_base = float(r[0] + 1.0 - 2.0 * np.sum(bins))

    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, (trials, pieces))
    results = r[0] + 1.0 - 2.0 * (np.cos(angles) @ bins)
    return {
        "lowdin_distance_sq": d_base,
        "closed_form_distance_sq": closed,
        "alternative_distances_sq": [float(d) for d in results],
        "min_gap": float(np.min(results - d_base, initial=math.inf)),
        "trials": trials,
    }
