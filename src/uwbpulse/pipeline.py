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
    LIMIT_LEVEL,
    OrthogonalFamily,
    _max_offdiagonal,
    approx_lowdin_family,
    lowdin_family,
    orthonormal_generator,
    translates,
)
from .optimizer import (
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
    _dft_bins,
    _dtft,
    _grid_steps,
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
)


def _band_nfft(p: SampledPulse, mask: SpectralMask) -> int:
    """Power-of-two grid length dense enough for sup-norm work on the band."""
    need = SUP_GRID_POINTS / (mask.f_top * p.dt)
    return 1 << int(math.ceil(math.log2(max(need, p.grid.size, 2))))


def band_spectrum(p: SampledPulse, mask: SpectralMask) -> Spectrum:
    """Two-sided spectrum on the full nfft-point grid of :func:`spectrum`.

    This is the input of the PSD models (``psd_pam_ppm``,
    ``psd_th_framed``), whose lines reach beyond the mask band.  Mask
    compliance needs only the band: see :func:`band_bins`.
    """
    return spectrum(p, _band_nfft(p, mask))


def band_bins(p: SampledPulse, mask: SpectralMask) -> Spectrum:
    """The bins of :func:`band_spectrum`'s grid in [0, f_top], by chirp-z,
    and the exact p^ at each mask edge that is not a bin.

    Same bin frequencies, and the same values to rounding, as the full
    grid restricted to [0, f_top], at the cost of two FFTs of about
    len(p) + 16k points instead of one of nfft.  The edges take a direct
    sum (:func:`signals._dtft`), O(n) each.
    """
    nfft = _band_nfft(p, mask)
    df = 1.0 / (nfft * p.dt)  # the step np.fft.fftfreq uses
    k = np.arange(min(int(mask.f_top / df) + 2, nfft // 2))
    freqs = k * df
    freqs = freqs[freqs <= mask.f_top]
    vals = _dft_bins(p.samples, -p.grid.n0, nfft, len(freqs)) * p.dt
    edges = np.unique([f for segment in mask.segments for f in segment[:2]])
    at = np.searchsorted(freqs, edges)
    new = freqs[np.minimum(at, len(freqs) - 1)] != edges  # the edges that are not bins
    at, edges = at[new], edges[new]
    return Spectrum(np.insert(freqs, at, edges), np.insert(vals, at, _dtft(p, edges)))


def compliant_spectrum(p: SampledPulse, mask: SpectralMask) -> tuple[float, Spectrum]:
    """Largest compliant scale alpha and alpha * p^ on :func:`band_bins`:
    the bins in [0, f_top] and every mask edge."""
    spec = band_bins(p, mask)
    alpha = max_compliant_scale(spec, mask)
    return alpha, Spectrum(spec.freqs, spec.values * alpha)


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
    if samples_per_clock < 1 or grid_density < 1:
        raise ConfigurationError("samples_per_clock and grid_density must be at least 1")
    if mask is None:
        mask = fcc_indoor_mask()
    clock = mask.clock
    half = monocycle_clocks * samples_per_clock // 2
    grid = TimeGrid(clock / samples_per_clock, half, 2 * half + 1)
    q = gaussian_monocycle(fc, monocycle_clocks * clock, grid)
    gammas = fit_mask_polynomials(mask, q, order, density=grid_density)
    weights = passband_weights(q, mask.passband, order, clock)
    solution = solve_autocorr_lp(weights, gammas, mask, grid_density=grid_density)
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
    """Shift T = Tp / K, which must be a whole number of grid steps."""
    if k_ratio < 1:
        raise ConfigurationError("shift ratio must be a positive integer")
    return _grid_steps(pulse.duration() / k_ratio, pulse.dt, f"shift Tp/{k_ratio}") * pulse.dt


def build_family(
    pulse: SampledPulse, k_ratio: int, m_multiple: int = 2, kind: str = "lo"
) -> tuple[OrthogonalFamily | None, SampledPulse, dict]:
    """Family (or limit pulse) plus a stability report.

    Returns (family, centered_pulse, report); family is None for kind
    "limit".  The report carries the stability bounds and ``offdiag_max``,
    the worst off-diagonal inner product of the result.  What it measures
    depends on the kind:

    - "lo": W G W^T, with W the combining weights and G the Toeplitz Gram
      they were computed from; it equals the Gram of the sampled members
      to rounding, and costs O(N^3) on the N x N weights;
    - "alo": the Gram of the sampled members, whose clip to the cutoff
      breaks the W G W^T identity;
    - "limit": max_{k >= 1} |r(kT)| of the limit pulse, the translate
      correlation defect, as its lag row c * c~ * r from the taps c and
      the input's lag row r: the one-dimensional form of W G W^T.

    The report also carries the weak-norm gap between the Toeplitz Gram
    and its circulant wrap at the family dimension: the RMS eigenvalue of
    their difference, i.e. its Frobenius norm over sqrt(N), which is
    exactly sqrt(2 sum_k k r_k^2 / N) as the band fits: M = m_multiple K >= K.  For
    kind "limit" it also carries the generator's tap radius
    ``limit_m_half`` (its last tap above LIMIT_LEVEL = 1e-12 of the centre
    tap), its ``tail_level`` (tap at the cap over centre tap, above
    LIMIT_LEVEL when the taps have not decayed within the cap),
    ``converged`` (tail_level <= LIMIT_LEVEL) and ``truncation_radius``
    (the limit pulse's half-span).  The builder makes the one
    :class:`lowdin.Translates` of the build, whose lag row r(kT) and Riesz
    bounds the report reads.
    """
    if m_multiple < 1:
        raise ConfigurationError(f"m_multiple must be at least 1, not {m_multiple}")
    shift = shift_from_ratio(pulse, k_ratio)
    m_half = m_multiple * k_ratio
    if kind == "lo":
        family = lowdin_family(pulse, shift, m_half)
        t = family.translates
        centered = family.centered()
        offdiag = _max_offdiagonal(family.weights @ t.gram(m_half) @ family.weights.T)
    elif kind == "alo":
        family = approx_lowdin_family(pulse, shift, m_half)
        t = family.translates
        centered = family.centered()
        offdiag = family.max_offdiagonal()
    elif kind == "limit":
        family = None
        limit = orthonormal_generator(pulse, shift)
        t = limit.translates
        centered = limit.pulse
        # lag row of sum_n c_n p(. - nT), c * c~ * r; lag 0 is the energy
        # that normalized the pulse
        c = limit.taps
        lags = np.convolve(np.correlate(c, c, "full"), np.concatenate([t.r[:0:-1], t.r]))
        mid = len(lags) // 2
        offdiag = float(np.max(np.abs(lags[mid + 1 :]), initial=0.0) / lags[mid])
    else:
        raise ConfigurationError("kind must be lo, alo, or limit")
    weak = math.sqrt(2.0 * np.dot(np.arange(len(t.r)), t.r**2) / (2 * m_half + 1))
    report = {
        "A": t.a,
        "B": t.b,
        "offdiag_max": offdiag,
        "weak_norm_gap": weak,
        "shift_seconds": shift,
        "m_half": m_half,
    }
    if kind == "limit":
        report["limit_m_half"] = limit.m_half
        report["tail_level"] = limit.tail_level
        report["converged"] = limit.tail_level <= LIMIT_LEVEL
        report["truncation_radius"] = limit.truncation_radius
    return family, centered, report


def analyze_pulse(
    pulse: SampledPulse, mask: SpectralMask | None = None, shift: float | None = None
) -> dict:
    """Summary report: energy, duration, spectral efficiency, stability.

    The stability bounds are taken at ``shift``, by default Tp/2 as
    :func:`shift_from_ratio` takes it, which a span of an odd number of
    grid steps does not have: such a pulse then raises."""
    if mask is None:
        mask = fcc_indoor_mask()
    if shift is None:
        shift = shift_from_ratio(pulse, 2)
    alpha, scaled = compliant_spectrum(pulse, mask)
    t = translates(pulse, shift)
    return {
        "energy": pulse.energy(),
        "Tp": pulse.duration(),
        "nesp": nesp(scaled, mask),
        "alpha_star": alpha,
        "A": t.a,
        "B": t.b,
        "shift_seconds": shift,
        "autocorr_samples": [float(x) for x in (t.r / t.r[0])],
    }
