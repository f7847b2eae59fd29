"""Pulse design and orthogonal overlapping PPM analysis for UWB impulse radio.

The package covers the full chain: mask-constrained FIR shaping of a
Gaussian monocycle, symmetric (and circulant-approximate)
orthogonalization of the shaped pulse's translates, the shift-orthonormal
limit pulse, and Monte Carlo link simulation with analytic error
bounds.  See the ``cli`` module or the ``uwbpulse`` entry point for the
batch interface.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DivisionHazardError,
    FactorizationError,
    GridAlignmentError,
    InfeasibleError,
    MaskFitError,
    ResolutionError,
    SingularGramError,
    UnstableGeneratorError,
    UwbPulseError,
)
from .signals import (
    SampledPulse,
    Spectrum,
    TimeGrid,
    gaussian_monocycle,
    load_pulse_csv,
    save_pulse_csv,
    semi_discrete_convolve,
    spectrum,
)
from .spectral import (
    CosinePoly,
    SpectralMask,
    fcc_indoor_mask,
    fit_mask_polynomials,
    load_mask_csv,
    max_compliant_scale,
    nesp,
    psd_pam_ppm,
    psd_th_framed,
)
from .optimizer import (
    AutocorrVector,
    FilterTaps,
    passband_weights,
    solve_autocorr_lp,
    spectral_factorize,
)
from .lowdin import (
    OrthogonalFamily,
    Translates,
    approx_lowdin_family,
    inverse_sqrt_spd,
    lowdin_family,
    orthonormal_generator,
    translates,
)
from .modem import (
    LinkConfig,
    SerResult,
    bit_rate,
    simulate_ser,
    uncoded_bit_rate,
    union_bound_correlated,
    union_bound_orthogonal,
)
from .pipeline import analyze_pulse, build_family, design_pulse
