"""Link configuration, Monte Carlo error rates and analytic bounds.

Two modulations are supported: shape keying (each message selects one
member of an orthonormal family) and position keying (the message shifts
a single near-orthogonal template).  The receiver decides on the
magnitudes of its correlator / sampled matched-filter outputs, because
transmitted amplitudes carry a random sign flip.  ``simulate_ser`` draws
those outputs from their exact Gaussian law.  All randomness is seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import ConfigurationError, SingularGramError
from .lowdin import OrthogonalFamily, _toeplitz
from .signals import SampledPulse, _grid_steps, autocorr_samples

SCHEMES = ("PSM", "OPPM_LO", "OPPM_ALO")


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters for one modulation scheme.

    n_symbols messages per slot; position keying uses offsets d * shift
    inside a slot of length symbol_period (requires n_symbols * shift <=
    symbol_period); energy is the per-symbol energy and noise_density the
    one-sided AWGN level N0.
    """

    n_symbols: int
    shift: float
    symbol_period: float
    energy: float
    noise_density: float
    scheme: str = "PSM"
    antipodal: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")
        if self.n_symbols < 1:
            raise ConfigurationError("need at least one symbol")
        if not (0 < self.shift < math.inf and 0 < self.symbol_period < math.inf):
            raise ConfigurationError("shift and symbol period must be positive and finite")
        if not (0 < self.energy < math.inf and 0 <= self.noise_density < math.inf):
            raise ConfigurationError("energy must be positive, noise nonnegative, both finite")
        if self.scheme != "PSM" and self.n_symbols * self.shift > self.symbol_period * (1 + 1e-12):
            raise ConfigurationError(
                "position keying requires n_symbols * shift <= symbol_period"
            )


@dataclass(frozen=True)
class SerResult:
    """Symbol error rate estimate with its Wald 95% radius ``ci95``, which
    collapses at zero errors, and the Wilson 95% limits, which do not."""

    trials: int
    errors: int
    ser: float
    ci95: float
    bound: float
    wilson_lo: float
    wilson_hi: float


def _wilson95(errors: int, trials: int) -> tuple[float, float]:
    """Wilson (1927) score interval for a binomial rate at 95% confidence."""
    z2 = 1.96**2 / trials
    ser = errors / trials
    center = (ser + z2 / 2.0) / (1.0 + z2)
    half = math.sqrt(z2 * (ser * (1.0 - ser) + z2 / 4.0)) / (1.0 + z2)
    return max(0.0, center - half), min(1.0, center + half)


def _slot_step(cfg: LinkConfig, dt: float) -> int:
    return _grid_steps(cfg.symbol_period, dt, "symbol period")


def _check_source(cfg: LinkConfig, waveform_source) -> None:
    """The source type (and family size) that the scheme keys."""
    if cfg.scheme == "PSM":
        if not isinstance(waveform_source, OrthogonalFamily):
            raise ConfigurationError("shape keying needs an orthogonal family")
        if waveform_source.size != cfg.n_symbols:
            raise ConfigurationError("family size must equal n_symbols")
    elif not isinstance(waveform_source, SampledPulse):
        raise ConfigurationError("position keying needs a single template pulse")


def _erfc_sqrt(num, den: float) -> np.ndarray:
    """erfc(sqrt(num / den)) elementwise; at den = 0 its limit, 0 where
    num > 0 and 1 where num = 0."""
    if den == 0.0:
        return np.where(num > 0.0, 0.0, 1.0)
    arg = np.sqrt(num / den)
    return np.reshape([math.erfc(v) for v in np.ravel(arg)], np.shape(arg))


def _check_levels(energy: float, noise_density: float) -> None:
    """Refuse a non-finite or negative energy or noise level; a bound
    reads noise_density = 0 as a link without noise."""
    if not (0.0 <= energy < math.inf and 0.0 <= noise_density < math.inf):
        raise ConfigurationError("energy and noise density must be finite and nonnegative")


def union_bound_orthogonal(n_symbols: int, energy: float, noise_density: float) -> float:
    """(N-1) erfc(sqrt(E/N0)), clamped to one; 0 without noise."""
    if n_symbols < 2:
        raise ConfigurationError("need at least two symbols for an error bound")
    _check_levels(energy, noise_density)
    return min(1.0, (n_symbols - 1) * float(_erfc_sqrt(energy, noise_density)))


def union_bound_correlated(rho, energy: float, noise_density: float) -> float:
    """Pairwise union bound 1/2 sum_j erfc(sqrt(E (1 - rho_j) / 2 N0)).

    ``rho`` holds the normalized correlations between the reference
    symbol and each other symbol (N-1 values).
    """
    _check_levels(energy, noise_density)
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.abs(rho) <= 1.0 + 1e-12):
        raise ConfigurationError("correlations must lie in [-1, 1]; normalize first")
    rho = np.clip(rho, -1.0, 1.0)
    return float(0.5 * np.sum(_erfc_sqrt(energy * (1.0 - rho), 2.0 * noise_density)))


def bit_rate(k_overlap: int, clock: float = defaults.CLOCK_T0) -> float:
    """Uncoded bit rate log2(4K + 1) / (150 T0) of the reference link.

    K controls the overlap (shift T = Tp / K); the slot holds 4K + 1
    mutually orthogonal waveforms in 150 clock periods.
    """
    return uncoded_bit_rate(4 * k_overlap + 1, defaults.SYMBOL_CLOCKS * clock)


def uncoded_bit_rate(n_symbols: int, symbol_period: float) -> float:
    """General uncoded rate log2(N) / Ts."""
    if n_symbols < 1 or symbol_period <= 0:
        raise ConfigurationError("need n_symbols >= 1 and a positive period")
    return math.log2(n_symbols) / symbol_period


def _correlator_gram(cfg: LinkConfig, waveform_source) -> np.ndarray:
    """Gram G of the receiver's N correlator outputs.

    Message d sent with sign a gives the statistics sqrt(E) a G[d] without
    noise; white noise of per-sample variance N0 / (2 dt) adds a zero-mean
    Gaussian vector with covariance (N0/2) G.  A source the scheme cannot
    key, or a symbol period off the grid, raises.
    """
    _check_source(cfg, waveform_source)
    _slot_step(cfg, waveform_source.grid.dt)
    if cfg.scheme == "PSM":
        return waveform_source.gram()
    return _toeplitz(autocorr_samples(waveform_source, cfg.shift, cfg.n_symbols - 1))


_CHUNK_BYTES = 8 << 20  # size of one batch's standard-normal block


def simulate_ser(
    cfg: LinkConfig,
    waveform_source: OrthogonalFamily | SampledPulse,
    trials: int,
    seed: int = 0,
) -> SerResult:
    """Monte Carlo symbol error rate over single-slot transmissions.

    The receiver sees a trial only through its N correlator outputs, and
    for white noise those are exactly Gaussian (see
    ``_correlator_gram``).  So a trial draws message d, sign a and a
    standard normal N-vector w, and decides the index of the largest
    |sqrt(E) a G[d] + sqrt(N0/2) L w|, with G = L L^T; ties go to the
    lowest index.  Messages, signs and noise come
    from three generators spawned from ``seed``, drawn in batches; trial
    i reads element (row) i of each, so results depend only on
    (seed, i), not on the trial count or the batch size.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    gram = _correlator_gram(cfg, waveform_source)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError("correlator Gram is not positive definite") from exc
    if cfg.scheme == "PSM":
        bound = union_bound_orthogonal(cfg.n_symbols, cfg.energy, cfg.noise_density)
    else:
        rho = gram[0, 1:] / gram[0, 0]
        bound = union_bound_correlated(rho, cfg.energy, cfg.noise_density)
    msg_rng, sign_rng, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    n = cfg.n_symbols
    amp = math.sqrt(cfg.energy)
    sigma = math.sqrt(cfg.noise_density / 2.0)
    chunk = max(1, _CHUNK_BYTES // (8 * n))
    errors = 0
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        msgs = msg_rng.integers(0, n, size)
        y = amp * gram[msgs]
        if cfg.antipodal:
            y *= sign_rng.choice([-1.0, 1.0], size)[:, None]
        if sigma:
            y += sigma * (noise_rng.standard_normal((size, n)) @ chol.T)
        errors += int(np.count_nonzero(np.argmax(np.abs(y), axis=1) != msgs))
    ser = errors / trials
    ci95 = 1.96 * math.sqrt(max(ser * (1.0 - ser), 1e-300) / trials)
    return SerResult(trials, errors, ser, ci95, bound, *_wilson95(errors, trials))
