"""End-to-end recipes shared by the command line and the test suite.

These functions wire the modules together for the reference
configuration: monocycle generation, mask fitting, the autocorrelation
program, tap recovery, pulse assembly, orthogonalization, and analysis
summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import ConfigurationError
from .lowdin import (
    OrthogonalFamily,
    approx_lowdin_family,
    gram,
    lowdin_family,
    orthonormal_generator,
    riesz_bounds,
)
from .optimizer import (
    AutocorrVector,
    FilterTaps,
    LpSolution,
    passband_weights,
    solve_autocorr_lp,
    spectral_factorize,
)
from .signals import (
    SampledPulse,
    Spectrum,
    TimeGrid,
    autocorr_samples,
    gaussian_monocycle,
    semi_discrete_convolve,
    spectrum,
)
from .spectral import (
    SUP_GRID_POINTS,
    CosinePoly,
    SpectralMask,
    fcc_indoor_mask,
    fit_mask_polynomials,
    max_compliant_scale,
    nesp,
    segment_bounds,
)


def band_spectrum(p: SampledPulse, mask: SpectralMask):
    """Spectrum on a grid dense enough for sup-norm work on the mask band."""
    need = SUP_GRID_POINTS / (mask.f_top * p.dt)
    nfft = 1 << int(math.ceil(math.log2(max(need, p.grid.size, 2))))
    return spectrum(p, nfft)


def compliant_spectrum(p: SampledPulse, mask: SpectralMask) -> tuple[float, Spectrum]:
    """Largest compliant scale alpha and alpha * p^ on the bins in [0, f_top].

    The passband lies inside [0, f_top], so :func:`nesp` of the returned
    spectrum equals that of the scaled full-grid spectrum.
    """
    spec = band_spectrum(p, mask)
    alpha = max_compliant_scale(spec, mask)
    sel = (spec.freqs >= 0.0) & (spec.freqs <= mask.f_top)
    return alpha, Spectrum(spec.freqs[sel], spec.values[sel] * alpha)


@dataclass(frozen=True)
class DesignResult:
    monocycle: SampledPulse
    taps: FilterTaps
    pulse: SampledPulse  # unit energy, centered
    solution: LpSolution
    gammas: list[CosinePoly]
    mask: SpectralMask
    nesp_value: float
    alpha: float  # compliant scale of ``pulse``
    spectrum: Spectrum  # alpha * pulse^ on [0, f_top]


def design_pulse(
    order: int = defaults.FIR_ORDER,
    fc: float = defaults.CENTER_FREQ,
    monocycle_clocks: int = defaults.MONOCYCLE_CLOCKS,
    samples_per_clock: int = defaults.SAMPLES_PER_CLOCK,
    mask: SpectralMask | None = None,
    grid_density: int = 512,
) -> DesignResult:
    """Mask-constrained shaping of the windowed monocycle.

    Order 1 degenerates to the identity filter: the output pulse is the
    monocycle itself.
    """
    if mask is None:
        mask = fcc_indoor_mask()
    clock = mask.clock
    half = monocycle_clocks * samples_per_clock // 2
    grid = TimeGrid(clock / samples_per_clock, half, 2 * half + 1)
    q = gaussian_monocycle(fc, monocycle_clocks * clock, grid)
    q_spec = band_spectrum(q, mask)
    gammas = fit_mask_polynomials(mask, q_spec, order, density=grid_density, pulse=q)
    weights = passband_weights(q_spec, mask.passband, order, clock, pulse=q)
    solution = solve_autocorr_lp(
        weights,
        gammas,
        grid_density=grid_density,
        segments=segment_bounds(mask),
        band_top=mask.f_top,
    )
    taps = spectral_factorize(solution.autocorr)
    pulse = semi_discrete_convolve(q, taps.taps, clock).normalized()
    alpha, scaled = compliant_spectrum(pulse, mask)
    return DesignResult(
        monocycle=q,
        taps=taps,
        pulse=pulse,
        solution=solution,
        gammas=gammas,
        mask=mask,
        nesp_value=nesp(scaled, mask),
        alpha=alpha,
        spectrum=scaled,
    )


def shift_from_ratio(pulse: SampledPulse, k_ratio: int) -> float:
    """Shift T = Tp / K, validated against the grid."""
    if k_ratio < 1:
        raise ConfigurationError("shift ratio must be a positive integer")
    duration = pulse.duration()
    shift = duration / k_ratio
    steps = shift / pulse.dt
    if abs(steps - round(steps)) > 1e-6:
        raise ConfigurationError(
            f"shift Tp/{k_ratio} is not a whole number of grid steps"
        )
    return round(steps) * pulse.dt


def build_family(
    pulse: SampledPulse, k_ratio: int, m_multiple: int = 2, kind: str = "lo"
) -> tuple[OrthogonalFamily | None, SampledPulse, dict]:
    """Family (or limit pulse) plus a stability report.

    Returns (family, centered_pulse, report); family is None for kind
    "limit".  The report carries the stability bounds, the family's worst
    off-diagonal inner product (translate correlation defect for the
    limit pulse), and the weak-norm gap between the Toeplitz Gram and its
    circulant wrap at the family dimension: the RMS eigenvalue of their
    difference, i.e. its Frobenius norm over sqrt(N), which is exactly
    sqrt(2 sum_k k r_k^2 / N) once the band fits (M >= K).  For kind
    "limit" it also carries the generator's ``tail_level`` (above the
    1e-12 truncation level when the margin cap stopped the generator
    before it converged) and ``truncation_radius``.
    """
    shift = shift_from_ratio(pulse, k_ratio)
    m_half = m_multiple * k_ratio
    a, b = riesz_bounds(pulse, shift)
    gm = gram(pulse, shift, m_half)
    if gm.bandwidth > m_half:
        raise ConfigurationError(f"band (K={gm.bandwidth}) does not fit M={m_half}")
    lags = np.arange(gm.bandwidth + 1)
    weak = math.sqrt(2.0 * np.dot(lags, gm.first_row**2) / gm.size)
    if kind == "lo":
        family = lowdin_family(pulse, shift, m_half)
        centered = family.centered()
        offdiag = family.max_offdiagonal()
    elif kind == "alo":
        family = approx_lowdin_family(pulse, shift, m_half)
        centered = family.centered()
        offdiag = family.max_offdiagonal()
    elif kind == "limit":
        family = None
        limit = orthonormal_generator(pulse, shift)
        centered = limit.pulse
        r = autocorr_samples(centered, shift)
        offdiag = float(np.max(np.abs(r[1:]))) if len(r) > 1 else 0.0
    else:
        raise ConfigurationError("kind must be lo, alo, or limit")
    report = {
        "A": a,
        "B": b,
        "offdiag_max": offdiag,
        "weak_norm_gap": weak,
        "shift_seconds": shift,
        "m_half": m_half,
    }
    if kind == "limit":
        report["tail_level"] = limit.tail_level
        report["truncation_radius"] = limit.truncation_radius
    return family, centered, report


def analyze_pulse(
    pulse: SampledPulse, mask: SpectralMask | None = None, shift: float | None = None
) -> dict:
    """Summary report: energy, duration, spectral efficiency, stability."""
    if mask is None:
        mask = fcc_indoor_mask()
    if shift is None:
        shift = pulse.duration() / 2
        steps = round(shift / pulse.dt)
        shift = steps * pulse.dt
    alpha, scaled = compliant_spectrum(pulse, mask)
    a, b = riesz_bounds(pulse, shift)
    r = autocorr_samples(pulse, shift)
    return {
        "energy": pulse.energy(),
        "Tp": pulse.duration(),
        "nesp": nesp(scaled, mask),
        "alpha_star": alpha,
        "A": a,
        "B": b,
        "shift_seconds": shift,
        "autocorr_samples": [float(x) for x in (r / r[0])],
    }
