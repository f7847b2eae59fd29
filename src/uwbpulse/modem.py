"""Waveform-level link simulation and analytic error bounds.

Two modulations are supported: shape keying (each message selects one
member of an orthonormal family) and position keying (the message shifts
a single near-orthogonal template).  Receivers decide on the magnitudes
of the correlator / sampled matched-filter outputs, because transmitted
amplitudes carry a random sign flip.  All randomness is seeded and every
trial is independently seeded, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import ConfigurationError
from .lowdin import OrthogonalFamily
from .signals import SampledPulse, TimeGrid, autocorr_samples, inner, shift_samples

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
        if self.energy <= 0 or self.noise_density < 0:
            raise ConfigurationError("energy must be positive, noise nonnegative")
        if self.scheme != "PSM" and self.n_symbols * self.shift > self.symbol_period * (1 + 1e-12):
            raise ConfigurationError(
                "position keying requires n_symbols * shift <= symbol_period"
            )


@dataclass(frozen=True)
class SerResult:
    """Symbol error rate estimate with its binomial confidence radius."""

    trials: int
    errors: int
    ser: float
    ci95: float
    bound: float


def _slot_step(cfg: LinkConfig, dt: float) -> int:
    step = cfg.symbol_period / dt
    si = int(round(step))
    if abs(step - si) > 1e-6:
        raise ConfigurationError("symbol period must be a grid multiple")
    return si


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
    if cfg.scheme == "PSM":
        if not isinstance(waveform_source, OrthogonalFamily):
            raise ConfigurationError("shape keying needs an orthogonal family")
        if waveform_source.size != cfg.n_symbols:
            raise ConfigurationError("family size must equal n_symbols")
        proto = waveform_source.pulses[0]
        slot_waves = [pl.samples for pl in waveform_source.pulses]
        offsets = [0] * cfg.n_symbols
    else:
        if not isinstance(waveform_source, SampledPulse):
            raise ConfigurationError("position keying needs a single template pulse")
        proto = waveform_source
        s = shift_samples(proto, cfg.shift)
        slot_waves = [proto.samples] * cfg.n_symbols
        offsets = [d * s for d in range(cfg.n_symbols)]

    dt = proto.dt
    step = _slot_step(cfg, dt)
    n_slots = len(messages)
    length = proto.grid.size + (n_slots - 1) * step + max(offsets)
    out = np.zeros(length)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n_slots) if cfg.antipodal else np.ones(n_slots)
    amp = math.sqrt(cfg.energy)
    for n, d in enumerate(messages):
        start = n * step + offsets[d]
        out[start : start + proto.grid.size] += amp * signs[n] * slot_waves[d]
    grid = TimeGrid(dt, proto.grid.n0, length)
    return SampledPulse(grid, out)


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
    index (argmax keeps the first maximum).
    """
    stats = np.array([abs(inner(r, member)) for member in family.pulses])
    return int(np.argmax(stats))


def receive_oppm(r: SampledPulse, template: SampledPulse, cfg: LinkConfig) -> list[int]:
    """Per-slot position decisions from sampled matched-filter magnitudes."""
    s = shift_samples(template, cfg.shift)
    step = _slot_step(cfg, template.dt)
    n_slots = max(1, int(round((r.grid.size - template.grid.size - (cfg.n_symbols - 1) * s) / step)) + 1)
    decisions = []
    for n in range(n_slots):
        stats = np.empty(cfg.n_symbols)
        for d in range(cfg.n_symbols):
            start = n * step + d * s
            seg = r.samples[start : start + template.grid.size]
            if len(seg) < template.grid.size:
                seg = np.pad(seg, (0, template.grid.size - len(seg)))
            stats[d] = abs(float(np.dot(seg, template.samples) * template.dt))
        decisions.append(int(np.argmax(stats)))
    return decisions


def union_bound_orthogonal(n_symbols: int, energy: float, noise_density: float) -> float:
    """(N-1) erfc(sqrt(E/N0)), clamped to one."""
    if n_symbols < 2:
        raise ConfigurationError("need at least two symbols for an error bound")
    return min(1.0, (n_symbols - 1) * math.erfc(math.sqrt(energy / noise_density)))


def union_bound_correlated(rho, energy: float, noise_density: float) -> float:
    """Pairwise union bound 1/2 sum_j erfc(sqrt(E (1 - rho_j) / 2 N0)).

    ``rho`` holds the normalized correlations between the reference
    symbol and each other symbol (N-1 values).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.abs(rho) > 1.0 + 1e-12):
        raise ConfigurationError("correlations must lie in [-1, 1]; normalize first")
    rho = np.clip(rho, -1.0, 1.0)
    arg = np.sqrt(energy * (1.0 - rho) / (2.0 * noise_density))
    return float(0.5 * np.sum([math.erfc(x) for x in arg]))


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


def simulate_ser(
    cfg: LinkConfig,
    waveform_source: OrthogonalFamily | SampledPulse,
    trials: int,
    seed: int = 0,
) -> SerResult:
    """Monte Carlo symbol error rate over single-slot transmissions.

    Each trial runs the full modulate / noise / receive pipeline with an
    independently derived seed (base XOR trial index), so any execution
    order gives identical results.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    errors = 0
    master = np.random.default_rng(seed)
    msg_seq = master.integers(0, cfg.n_symbols, size=trials)
    for i in range(trials):
        trial_seed = seed ^ (i + 1)
        msg = int(msg_seq[i])
        u = modulate(cfg, waveform_source, [msg], seed=trial_seed)
        r = add_awgn(u, cfg.noise_density, seed=trial_seed + 2**31)
        if cfg.scheme == "PSM":
            dec = receive_psm(r, waveform_source)
        else:
            dec = receive_oppm(r, waveform_source, cfg)[0]
        if dec != msg:
            errors += 1
    ser = errors / trials
    ci95 = 1.96 * math.sqrt(max(ser * (1.0 - ser), 1e-300) / trials)
    if cfg.scheme == "PSM":
        bound = union_bound_orthogonal(cfg.n_symbols, cfg.energy, cfg.noise_density)
    else:
        rho = measured_correlations(waveform_source, cfg)
        bound = union_bound_correlated(rho, cfg.energy, cfg.noise_density)
    return SerResult(trials=trials, errors=errors, ser=ser, ci95=ci95, bound=bound)
