"""Shared fixtures and oracles.

The reference design is expensive, so it is built once.  The oracles are
independent computations the package's own results are checked against:
the direct transform, Strang's circulant, the paper's Löwdin checks (the
Gram-Schmidt comparator ``gram_schmidt_family``, ``summed_distortion``,
``lowdin_optimality_probe`` and the Nyquist-power identity
``nyquist_spectrum_power``), the sampled-waveform link that
``simulate_ser``'s correlator law must reproduce, the full and Zak forms
of the autocorrelation, the rectangle-rule inner product ``inner``, the
folded power spectrum ``gram_symbol``, and the delta = 2 filter
diagnostics.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.errors import ConfigurationError, GridAlignmentError
from uwbpulse.lowdin import OrthogonalFamily, _family, orthonormal_generator, translates
from uwbpulse.modem import LinkConfig, _check_source, _slot_step
from uwbpulse.optimizer import FilterTaps
from uwbpulse.pipeline import band_bins, band_spectrum
from uwbpulse.signals import (
    SampledPulse,
    TimeGrid,
    _cosine_extrema,
    _grid_steps,
    _power_at,
    _translate_sum,
    _write_csv,
    autocorr_samples,
    cosine_series,
    shift_samples,
)
from uwbpulse.spectral import CosinePoly, SpectralMask


def direct_transform(p, freqs):
    """Oracle: dt * sum_k p_k exp(-2i pi f t_k), one direct phasor sum per f."""
    t = p.times()
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    return np.array([np.exp(-2j * np.pi * fi * t) @ p.samples for fi in f]) * p.dt


def direct_power(p, freqs):
    """Oracle: |p^(f)|^2 from :func:`direct_transform`."""
    return np.abs(direct_transform(p, freqs)) ** 2


def strang_circulant(g):
    """Oracle: Strang's circulant of a symmetric Toeplitz matrix of odd size
    2M + 1, its first row r(0..M) with the same lags mirrored cyclically.
    Once the band K fits (M >= K) it is the translates' wrapped-band Gram."""
    row = g[0]
    m_half = (len(row) - 1) // 2
    return scipy.linalg.circulant(np.concatenate([row[: m_half + 1], row[m_half:0:-1]]))


# ----------------------------------------------------------- Löwdin checks
# the comparator and instruments of the optimality (c9) and interplay
# (c13) claims; each forms its translates through lowdin.translates

_PROBE_NODES = 256  # Gauss-Legendre nodes per probe piece: sqrt(Phi) to 1e-13 even at K = 15
_PROBE_PIECES = 8  # bins of [0, 1/2) on which the probe's phases are constant


def gram_schmidt_family(p: SampledPulse, shift: float, m_half: int) -> OrthogonalFamily:
    """Order-dependent comparator: sequential orthonormalization left to right.

    With Gram G = L L^T (Cholesky), the combining weights are L^{-1}, so
    member m depends only on translates up to m.  Raises unless the
    translates are stable (:func:`translates`).
    """
    t = translates(p, shift)
    chol = np.linalg.cholesky(t.gram(m_half))
    # L^{-1} is lower triangular; tril drops the rounding that the
    # inverse's row pivoting can leave above the diagonal
    return _family(t, np.tril(np.linalg.inv(chol)))


def summed_distortion(family: OrthogonalFamily) -> float:
    """Sum over members of the squared L2 distance to the matching translate
    of the pulse the family was built from."""
    t = family.translates
    diff = _translate_sum(t.pulse, np.eye(family.size), t.steps)[0] - family.samples
    return float(np.vdot(diff, diff) * t.pulse.dt)


def lowdin_optimality_probe(p: SampledPulse, shift: float, trials: int, seed: int = 0) -> dict:
    """Check the symmetric construction against random-phase alternatives.

    Every orthonormal generator of the translate space has spectrum
    exp(i alpha(nu)) p^ / sqrt(Phi), Phi the folded power spectrum, and
    ||p - generator||^2 = r(0) + 1 - 2 int_0^1 sqrt(Phi) cos(alpha) dnu, so
    the phase-free choice is closest.  The probe draws phases constant on
    ``_PROBE_PIECES`` bins of [0, 1/2), mirrored for a real pulse, so a
    distance is one dot product with the per-bin integrals of sqrt(Phi)
    (Gauss-Legendre).  It adds the time-domain closed form
    2 (1 - <p, p_on>) of the unit-energy ``p``'s generator p_on as a check.
    """
    base = orthonormal_generator(p, shift)
    closed = 2.0 * (1.0 - inner(p, base.pulse))

    r = base.translates.r
    x, w = np.polynomial.legendre.leggauss(_PROBE_NODES)
    nu = (np.arange(_PROBE_PIECES)[:, None] + (x + 1.0) / 2.0) / (2 * _PROBE_PIECES)
    # integral of sqrt(Phi) over each bin plus its mirror image in (1/2, 1]
    bins = np.sqrt(cosine_series(r, nu)) @ w / (2 * _PROBE_PIECES)
    d_base = float(r[0] + 1.0 - 2.0 * np.sum(bins))

    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, (trials, _PROBE_PIECES))
    results = r[0] + 1.0 - 2.0 * (np.cos(angles) @ bins)
    return {
        "lowdin_distance_sq": d_base,
        "closed_form_distance_sq": closed,
        "alternative_distances_sq": [float(d) for d in results],
        "min_gap": float(np.min(results - d_base, initial=math.inf)),
        "trials": trials,
    }


def nyquist_spectrum_power(p: SampledPulse, shift: float, freqs) -> np.ndarray:
    """|transform|^2 of the shift-orthonormal generator, evaluated exactly.

    The orthonormalized spectrum power is |p^(f)|^2 divided by the folded
    power spectrum at f * shift; both are finite cosine series over the
    pulse's autocorrelation, so this needs no truncation and works even
    when the generator decays slowly.  Raises unless the translates are
    stable (:func:`translates`, the minimum over every frequency, not
    only ``freqs``).
    """
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    t = translates(p, shift)
    return _power_at(p, f) / cosine_series(t.r, f * shift)


# ----------------------------------------------------------- waveform link
# sampled signals and receivers: the independent side of the correlator law


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


def measured_correlations(template: SampledPulse, cfg: LinkConfig) -> np.ndarray:
    """Normalized template correlations at shifts 1..N-1 times the slot shift."""
    r = autocorr_samples(template, cfg.shift, cfg.n_symbols - 1)
    return r[1:] / r[0]


# ------------------------------------------------------------- pulse forms


def autocorrelation(p: SampledPulse) -> SampledPulse:
    """Deterministic autocorrelation r(t) = integral p(s) p(s - t) ds.

    The result is exactly even (computed once and mirrored) on a grid
    twice the pulse's span, and r(0) equals the pulse energy.
    """
    r = np.correlate(p.samples, p.samples, mode="full") * p.dt
    r = (r + r[::-1]) / 2.0  # bitwise-even by construction
    n = p.grid.size
    return SampledPulse(TimeGrid(p.dt, n - 1, 2 * n - 1), r)


def zak_transform(p: SampledPulse, shift: float, t: float, nu: float) -> complex:
    """Zak transform sum_n p(t - n*T) exp(2i pi n nu) at a grid time t."""
    s = shift_samples(p, shift)
    k0 = _grid_steps(t, p.dt, "time") + p.grid.n0  # raises off-grid
    # translates whose grid holds t: p(t - nT) nonzero needs
    # 0 <= k0 - n*s < size
    n_lo = int(math.floor((k0 - (p.grid.size - 1)) / s))
    n_hi = int(math.floor(k0 / s))
    total = 0.0 + 0.0j
    for n in range(n_lo, n_hi + 1):
        idx = k0 - n * s
        if 0 <= idx < p.grid.size:
            total += p.samples[idx] * np.exp(2j * np.pi * n * nu)
    return complex(total)


def _overlap(a: TimeGrid, b: TimeGrid) -> tuple[slice, slice]:
    """Index ranges of ``a`` and ``b`` holding their common times (empty if
    the grids are disjoint); the steps must match."""
    if abs(a.dt - b.dt) > 1e-15 * a.dt:
        raise GridAlignmentError("inner product requires identical grid steps")
    # align global indices k - n0
    lo = max(-a.n0, -b.n0)
    hi = max(lo, min(a.size - a.n0, b.size - b.n0))
    return slice(lo + a.n0, hi + a.n0), slice(lo + b.n0, hi + b.n0)


def inner(p: SampledPulse, q: SampledPulse) -> float:
    """Rectangle-rule L2 inner product of two pulses on matching grids."""
    ip, iq = _overlap(p.grid, q.grid)
    return float(np.dot(p.samples[ip], q.samples[iq]) * p.dt)


def gram_symbol(p: SampledPulse, shift: float, nu) -> np.ndarray | float:
    """Folded power spectrum sum_n r(n*T) exp(-2i pi n nu), real by symmetry.

    ``nu`` is in cycles per shift; the function is 1-periodic and even.
    Its range over [0, 1) gives the translate family's stability bounds,
    and its samples at l/N are the circulant approximant's eigenvalues.
    It is a polyphase sum of squares, so it is nonnegative up to rounding.
    """
    vals = cosine_series(autocorr_samples(p, shift), nu)
    return float(vals) if np.ndim(vals) == 0 else vals


# ------------------------------------------------------------- CSV writers


def save_mask_csv(path, mask: SpectralMask) -> None:
    _write_csv(path, ["f_lo_hz", "f_hi_hz", "level_w_per_hz"], mask.segments)


def save_lines_csv(path, lines) -> None:
    _write_csv(path, ["f_hz", "power_w"], lines)


# -------------------------------------------- delta = 2 filter diagnostics


def shift_orthogonality_defect(g: FilterTaps, delta: int) -> float:
    """max over k != 0 of |r_g(k * delta)|; zero iff the filter preserves
    delta-shift orthogonality of an already orthogonal input."""
    if delta < 1:
        raise ConfigurationError("delta must be a positive integer")
    r = g.autocorrelation()
    lags = np.arange(delta, len(r), delta)
    if len(lags) == 0:
        return 0.0
    return float(np.max(np.abs(r[lags])))


def reconciliation_filter_delta2(g: FilterTaps, q: SampledPulse) -> CosinePoly:
    """Power spectrum of the filter aligning 2-shift orthogonalization
    with the shaping filter.

    In clock-normalized frequency the value is
    1 / (1 + (2 r_g(0)/r^_g(nu) - 1) * Phi'(nu)/Phi(nu)) where Phi is the
    folded power spectrum of ``q`` at the clock shift and Phi' its
    half-period translate.  Returned as a cosine polynomial obtained from
    a dense sample of the (even, periodic) ratio.
    """
    clock = g.clock
    rg = g.autocorrelation()
    # exact minima (signals._cosine_extrema): a zero between grid nodes counts
    if _cosine_extrema(rg)[0] <= 0:
        raise ConfigurationError("filter power spectrum must be positive")
    if _cosine_extrema(autocorr_samples(q, clock))[0] <= 0:
        raise ConfigurationError("folded spectrum of q must be positive")
    n_grid = 4096
    nu = np.arange(n_grid) / (n_grid * clock)  # one full period
    rhat = np.asarray(CosinePoly(rg, clock)(nu))
    phi = gram_symbol(q, clock, nu * clock)
    phi_shift = gram_symbol(q, clock, nu * clock + 0.5)
    vals = 1.0 / (1.0 + (2.0 * rg[0] / rhat - 1.0) * phi_shift / phi)
    # cosine coefficients of the sampled even periodic function
    spec = np.fft.rfft(vals) / n_grid
    coeffs = np.concatenate([[spec[0].real], spec[1:].real])
    # keep terms above numerical noise
    keep = max(1, int(np.max(np.nonzero(np.abs(coeffs) > 1e-12 * np.abs(coeffs).max())[0])) + 1)
    return CosinePoly(coeffs[:keep], clock)


FCC_EDGES = (1.61e9, 1.99e9, 3.1e9, 10.6e9)  # the indoor mask's inner edges
# the FCC mask drifted so that segment 0's fitted ceiling at L = 10 sits
# below floor + margin: infeasible on every grid
DEEP_SEGMENT_DRIFT = ((92e6, 144e6, -154e6, 151e6), (-6.2, -8.4, 7.1, 7.2, 7.5))


def drifted_fcc_mask(edges, db):
    """The FCC indoor mask with its 4 inner edges moved by ``edges`` Hz and
    its 5 levels by ``db`` dB; the passband is the highest segment."""
    fcc = up.fcc_indoor_mask()
    bounds = (0.0, *(f + df for f, df in zip(FCC_EDGES, edges)), fcc.f_top)
    levels = [lv * 10.0 ** (d / 10.0) for (_, _, lv), d in zip(fcc.segments, db)]
    top = int(np.argmax(levels))
    return up.SpectralMask(
        tuple(zip(bounds[:-1], bounds[1:], levels)), (bounds[top], bounds[top + 1])
    )


@pytest.fixture(scope="session")
def mask():
    return up.fcc_indoor_mask()


@pytest.fixture(scope="session")
def monocycle():
    return up.gaussian_monocycle(
        defaults.CENTER_FREQ, defaults.MONOCYCLE_CLOCKS * defaults.CLOCK_T0
    )


@pytest.fixture(scope="session")
def design25():
    return up.design_pulse(order=25)


@pytest.fixture(scope="session")
def design15():
    return up.design_pulse(order=15)


@pytest.fixture(scope="session")
def design5():
    return up.design_pulse(order=5)


@pytest.fixture(scope="session")
def design1():
    return up.design_pulse(order=1)


@pytest.fixture(scope="session")
def pulse25(design25):
    return design25.pulse


@pytest.fixture(scope="session")
def family_k2(pulse25):
    """Orthonormal family at T = Tp/2, M = 2K (9 members)."""
    shift = pulse25.duration() / 2
    return up.lowdin_family(pulse25, shift, 4)


@pytest.fixture(scope="session")
def limit_k2(pulse25):
    shift = pulse25.duration() / 2
    return up.orthonormal_generator(pulse25, shift)


@pytest.fixture(scope="session")
def spec25(pulse25, mask):
    return band_spectrum(pulse25, mask)


@pytest.fixture(scope="session")
def bins25(pulse25, mask):
    """The order-25 pulse's band bins and mask-edge samples, the input of
    compliance."""
    return band_bins(pulse25, mask)
