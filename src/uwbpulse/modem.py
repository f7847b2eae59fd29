"""Link waveforms, receivers, Monte Carlo error rates and analytic bounds.

Two modulations are supported: shape keying (each message selects one
member of an orthonormal family) and position keying (the message shifts
a single near-orthogonal template).  Receivers decide on the magnitudes
of the correlator / sampled matched-filter outputs, because transmitted
amplitudes carry a random sign flip.  The waveform functions build and
receive sampled signals; ``simulate_ser`` draws the receiver's correlator
outputs from their exact Gaussian law instead.  All randomness is seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from . import defaults
from .errors import ConfigurationError, SingularGramError
from .lowdin import OrthogonalFamily, _toeplitz
from .signals import SampledPulse, TimeGrid, _grid_steps, _overlap, autocorr_samples, shift_samples

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
        if not (self.energy > 0 and 0 <= self.noise_density < math.inf):
            raise ConfigurationError("energy must be positive, noise finite and nonnegative")
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


def modulate(
    cfg: LinkConfig,
    waveform_source: OrthogonalFamily | SampledPulse,
    messages,
    seed: int | None = None,
) -> SampledPulse:
    """Concatenated waveform for a message sequence.

    Shape keying picks family member d_n per slot; position keying shifts
    the single template by d_n * shift.  Amplitude signs are drawn from
    the seeded generator when ``antipodal`` is set.
    """
    messages = list(messages)
    if any(not (0 <= m < cfg.n_symbols) for m in messages):
        raise ConfigurationError("message out of range")
    _check_source(cfg, waveform_source)
    if cfg.scheme == "PSM":
        slot_waves = waveform_source.samples
        offsets = [0] * cfg.n_symbols
    else:
        s = shift_samples(waveform_source, cfg.shift)
        slot_waves = [waveform_source.samples] * cfg.n_symbols
        offsets = [d * s for d in range(cfg.n_symbols)]

    grid = waveform_source.grid
    step = _slot_step(cfg, grid.dt)
    n_slots = len(messages)
    length = grid.size + (n_slots - 1) * step + max(offsets)
    out = np.zeros(length)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n_slots) if cfg.antipodal else np.ones(n_slots)
    amp = math.sqrt(cfg.energy)
    for n, d in enumerate(messages):
        start = n * step + offsets[d]
        out[start : start + grid.size] += amp * signs[n] * slot_waves[d]
    return SampledPulse(TimeGrid(grid.dt, grid.n0, length), out)


def add_awgn(u: SampledPulse, noise_density: float, seed: int | None = None) -> SampledPulse:
    """Add white Gaussian noise with per-sample variance N0 / (2 dt).

    That discretization makes correlations against unit-energy templates
    come out with variance N0/2, matching the continuous-time model.
    """
    if noise_density < 0:
        raise ConfigurationError("noise density must be nonnegative")
    if noise_density == 0.0:
        return u
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(noise_density / (2.0 * u.dt))
    noisy = u.samples + rng.normal(0.0, sigma, u.grid.size)
    return SampledPulse(u.grid, noisy)


def receive_psm(r: SampledPulse, family: OrthogonalFamily) -> int:
    """Largest-magnitude correlator index for a single-slot observation.

    Magnitudes absorb the sign flip; exact ties resolve to the lowest
    index (argmax keeps the first maximum), so an observation disjoint
    from the family decides 0.
    """
    ir, ifam = _overlap(r.grid, family.grid)
    return int(np.argmax(np.abs(family.samples[:, ifam] @ r.samples[ir])))


def receive_oppm(r: SampledPulse, template: SampledPulse, cfg: LinkConfig) -> list[int]:
    """Per-slot position decisions from sampled matched-filter magnitudes."""
    s = shift_samples(template, cfg.shift)
    step = _slot_step(cfg, template.dt)
    size = template.grid.size
    span = (cfg.n_symbols - 1) * s
    n_slots = max(1, int(round((r.grid.size - size - span) / step)) + 1)
    # zero-extend so that every position of the last slot has a full window
    padded = np.zeros(max(r.grid.size, (n_slots - 1) * step + span + size))
    padded[: r.grid.size] = r.samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    # einsum: overlapping windows have no BLAS layout, and @ then loops slower
    decisions = []
    for n in range(n_slots):
        positions = windows[n * step : n * step + span + 1 : s]  # (N, size)
        decisions.append(int(np.argmax(np.abs(np.einsum("ij,j->i", positions, template.samples)))))
    return decisions


def _erfc_sqrt(num, den: float) -> np.ndarray:
    """erfc(sqrt(num / den)) elementwise; at den = 0 its limit, 0 where
    num > 0 and 1 where num = 0."""
    if den == 0.0:
        return np.where(num > 0.0, 0.0, 1.0)
    return erfc(np.sqrt(num / den))


def union_bound_orthogonal(n_symbols: int, energy: float, noise_density: float) -> float:
    """(N-1) erfc(sqrt(E/N0)), clamped to one; 0 without noise."""
    if n_symbols < 2:
        raise ConfigurationError("need at least two symbols for an error bound")
    return min(1.0, (n_symbols - 1) * float(_erfc_sqrt(energy, noise_density)))


def union_bound_correlated(rho, energy: float, noise_density: float) -> float:
    """Pairwise union bound 1/2 sum_j erfc(sqrt(E (1 - rho_j) / 2 N0)).

    ``rho`` holds the normalized correlations between the reference
    symbol and each other symbol (N-1 values).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.abs(rho) > 1.0 + 1e-12):
        raise ConfigurationError("correlations must lie in [-1, 1]; normalize first")
    rho = np.clip(rho, -1.0, 1.0)
    return float(0.5 * np.sum(_erfc_sqrt(energy * (1.0 - rho), 2.0 * noise_density)))


def bit_rate(k_overlap: int, clock: float = defaults.CLOCK_T0) -> float:
    """Uncoded bit rate log2(4K + 1) / (150 T0) of the reference link.

    K controls the overlap (shift T = Tp / K); the slot holds 4K + 1
    mutually orthogonal waveforms in 150 clock periods.
    """
    if k_overlap < 0:
        raise ConfigurationError("overlap factor must be nonnegative")
    return math.log2(4 * k_overlap + 1) / (defaults.SYMBOL_CLOCKS * clock)


def uncoded_bit_rate(n_symbols: int, symbol_period: float) -> float:
    """General uncoded rate log2(N) / Ts."""
    if n_symbols < 1 or symbol_period <= 0:
        raise ConfigurationError("need n_symbols >= 1 and a positive period")
    return math.log2(n_symbols) / symbol_period


def measured_correlations(template: SampledPulse, cfg: LinkConfig) -> np.ndarray:
    """Normalized template correlations at shifts 1..N-1 times the slot shift."""
    r = autocorr_samples(template, cfg.shift, cfg.n_symbols - 1)
    return r[1:] / r[0]


def _correlator_gram(cfg: LinkConfig, waveform_source) -> np.ndarray:
    """Gram G of the receiver's N correlator outputs.

    Message d sent with sign a gives the statistics sqrt(E) a G[d] without
    noise; the white noise of ``add_awgn`` adds a zero-mean Gaussian vector
    with covariance (N0/2) G.  Raises what ``modulate`` and the receivers
    raise for the same inputs.
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
    for the white noise of ``add_awgn`` those are exactly Gaussian (see
    ``_correlator_gram``).  So a trial draws message d, sign a and a
    standard normal N-vector w, and decides the index of the largest
    |sqrt(E) a G[d] + sqrt(N0/2) L w|, with G = L L^T; ties go to the
    lowest index, as in the receivers.  Messages, signs and noise come
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
