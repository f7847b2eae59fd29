"""Mask model, polynomial ceilings, effective power, scaling, PSD models."""

import math
import tracemalloc

import numpy as np
import pytest

import uwbpulse as up
from uwbpulse import defaults, pipeline, signals, spectral
from uwbpulse.errors import (
    ConfigurationError,
    DivisionHazardError,
    GridAlignmentError,
    MaskFitError,
)
from uwbpulse.pipeline import band_bins, band_spectrum, compliant_spectrum
from uwbpulse.signals import Spectrum, _power_at
from uwbpulse.spectral import (
    SpectralMask,
    cosine_basis,
    load_mask_csv,
    psd_pam_ppm,
    psd_th_framed,
)

from conftest import direct_power, direct_transform, save_mask_csv

T0 = defaults.CLOCK_T0
GHZ = 1e9


def _mask_edges(mask):
    return np.unique([f for segment in mask.segments for f in segment[:2]])


def _with_edge_samples(spec, p, mask):
    """``spec`` plus the exact p^ (:func:`direct_transform`) at each mask
    edge that it does not sample."""
    edges = _mask_edges(mask)
    edges = edges[~np.isin(edges, spec.freqs)]
    at = np.searchsorted(spec.freqs, edges)
    vals = np.insert(spec.values, at, direct_transform(p, edges))
    return Spectrum(np.insert(spec.freqs, at, edges), vals)


def _mask_level(freqs, mask):
    """The mask at each frequency in [0, inf), from its segments: segment
    i holds [f_lo, f_hi), and the top one also its top edge and above."""
    highs = np.array([f_hi for _, f_hi, _ in mask.segments])
    levels = np.array([level for _, _, level in mask.segments])
    return levels[np.minimum(np.searchsorted(highs, freqs, side="right"), len(levels) - 1)]


def _edge_ceiling(freqs, mask):
    """The mask at each frequency; at an interior edge, the lower of the
    two levels that meet there, the ceiling of a continuous spectrum."""
    ceiling = _mask_level(freqs, mask)
    for (_, f, left), (_, _, right) in zip(mask.segments, mask.segments[1:]):
        ceiling[freqs == f] = min(left, right)
    return ceiling


# ----------------------------------------------------------------- mask


def test_default_mask_edges(mask):
    edges = [(s[0], s[1]) for s in mask.segments]
    assert edges == [
        (0.0, 1.61 * GHZ),
        (1.61 * GHZ, 1.99 * GHZ),
        (1.99 * GHZ, 3.1 * GHZ),
        (3.1 * GHZ, 10.6 * GHZ),
        (10.6 * GHZ, 14.0 * GHZ),
    ]
    assert len(mask.segments) == 5
    assert mask.f_top == 14.0 * GHZ
    assert mask.clock == pytest.approx(T0, rel=1e-12)


def test_default_mask_passband_has_highest_level(mask):
    levels = [s[2] for s in mask.segments]
    assert mask.passband == (3.1 * GHZ, 10.6 * GHZ)
    assert levels[3] == max(levels)
    # levels rise monotonically up to the passband top edge
    assert levels[0] < levels[1] < levels[2] < levels[3]


def test_mask_override_flat(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("f_lo_hz,f_hi_hz,level_w_per_hz\n0,14e9,1e-13\n")
    m = up.fcc_indoor_mask(path)
    assert len(m.segments) == 1
    f = np.linspace(0, 14e9, 100)
    assert np.all(_mask_level(f, m) == 1e-13)


def test_mask_csv_roundtrip(tmp_path, mask):
    path = tmp_path / "m.csv"
    save_mask_csv(path, mask)
    back = load_mask_csv(path)
    assert back.segments == mask.segments


def test_mask_rejects_gaps():
    with pytest.raises(ConfigurationError):
        SpectralMask(((0.0, 1e9, 1.0), (2e9, 3e9, 1.0)), (0.0, 1e9))


_LINK = {"n_symbols": 2, "shift": 1e-9, "symbol_period": 1e-8, "noise_density": 1.0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpectralMask(((0.0, math.inf, 1.0),), (0.0, 1e9)),  # clock 0
        lambda: SpectralMask(((0.0, 14e9, math.nan),), (0.0, 1e9)),
        lambda: SpectralMask(((0.0, 14e9, math.inf),), (0.0, 1e9)),
        lambda: up.FilterTaps([1.0], math.nan),
        lambda: up.FilterTaps([1.0], math.inf),
        lambda: up.AutocorrVector([1.0], math.nan),
        lambda: up.AutocorrVector([1.0], math.inf),
        lambda: up.CosinePoly([1.0], math.nan),
        lambda: up.CosinePoly([1.0], math.inf),
        lambda: up.LinkConfig(energy=math.inf, **_LINK),
        lambda: up.union_bound_correlated([math.nan], 1.0, 1.0),
        lambda: up.union_bound_orthogonal(4, math.nan, 1.0),
        lambda: up.union_bound_orthogonal(4, 1.0, math.inf),
        lambda: up.union_bound_orthogonal(4, -1.0, 1.0),
        lambda: up.union_bound_correlated([0.5], math.nan, 1.0),
        lambda: up.union_bound_correlated([0.5], 1.0, math.nan),
        lambda: up.union_bound_correlated([0.5], 1.0, -1.0),
    ],
    ids=[
        "mask-f_top-inf", "mask-level-nan", "mask-level-inf", "taps-clock-nan", "taps-clock-inf",
        "autocorr-clock-nan", "autocorr-clock-inf", "cosine-poly-clock-nan",
        "cosine-poly-clock-inf", "link-energy-inf", "union-bound-rho-nan",
        "union-bound-orthogonal-energy-nan", "union-bound-orthogonal-noise-inf",
        "union-bound-orthogonal-energy-negative", "union-bound-correlated-energy-nan",
        "union-bound-correlated-noise-nan", "union-bound-correlated-noise-negative",
    ],
)
def test_non_finite_library_input_is_refused(build):
    # a non-finite (or negative) level, band edge, clock, energy or
    # correlation would pass through to a silent NaN, zero or infinity
    # downstream; the bounds' zero-noise case stays allowed
    with pytest.raises(ConfigurationError):
        build()


def test_mask_integrate(mask):
    total = mask.integrate(0.0, 14e9)
    manual = sum(lv * (hi - lo) for lo, hi, lv in mask.segments)
    assert total == pytest.approx(manual, rel=1e-15)


# -------------------------------------------------------------- mask fits


def test_fit_order_one_flat_ratio_is_mean():
    # a one-sample pulse of height sqrt(c)/dt has |q^|^2 = c everywhere
    c = 2e-13
    m = SpectralMask(((0.0, 14e9, c),), (3.1e9, 10.6e9))
    dt = T0 / 32
    q = signals.SampledPulse(signals.TimeGrid(dt, 0, 1), np.array([math.sqrt(c) / dt]))
    polys = up.fit_mask_polynomials(m, q, 1)
    assert polys[0].order == 1
    assert polys[0](1e9) == pytest.approx(1.0, rel=1e-9)


def test_fit_division_hazard(mask, monocycle):
    silent = signals.SampledPulse(monocycle.grid, np.zeros(monocycle.grid.size))
    with pytest.raises(DivisionHazardError):
        up.fit_mask_polynomials(mask, silent, 5)


def test_fit_refuses_fewer_nodes_than_the_order(mask, monocycle):
    # density 1 gives 4 Gauss nodes per segment, too few for 25 coefficients
    with pytest.raises(MaskFitError, match="segment 1: fit order 25 needs at least 25 nodes, "
                       "the fit grid has 4"):
        up.fit_mask_polynomials(mask, monocycle, 25, density=1)


def test_fit_refinement_stability(mask, monocycle):
    g1 = up.fit_mask_polynomials(mask, monocycle, 25, density=512)
    g2 = up.fit_mask_polynomials(mask, monocycle, 25, density=1024)
    for a, b in zip(g1, g2):
        scale = np.abs(a.coeffs).max()
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-6 * scale


def test_fit_keeps_the_well_conditioned_block(mask, monocycle):
    # each ceiling carries only the coefficients its segment's fit kept
    polys = up.fit_mask_polynomials(mask, monocycle, 25)
    assert [poly.order for poly in polys] == [4, 5, 6, 25, 7]
    assert all(poly.coeffs[-1] != 0.0 for poly in polys)


def _gram_schmidt_order(a_w, tol=3e-6):
    """Reference: incremental Gram-Schmidt that stops at the first column
    numerically inside the span of the columns before it."""
    q = a_w[:, :1] / np.linalg.norm(a_w[:, 0])
    for n in range(1, a_w.shape[1]):
        v = a_w[:, n] - q @ (q.T @ a_w[:, n])
        v -= q @ (q.T @ v)
        if np.linalg.norm(v) / np.linalg.norm(a_w[:, n]) < tol:
            return n
        q = np.column_stack([q, v / np.linalg.norm(v)])
    return a_w.shape[1]


@pytest.mark.parametrize("order", [5, 25, 40])
def test_stable_order_matches_gram_schmidt(monkeypatch, mask, monocycle, order):
    # the one QR keeps the block the loop keeps, on each segment's matrix
    kept = []
    qr_order = spectral._stable_order

    def both(a_w):
        kept.append((qr_order(a_w), _gram_schmidt_order(a_w)))
        return kept[-1][0]

    monkeypatch.setattr(spectral, "_stable_order", both)
    up.fit_mask_polynomials(mask, monocycle, order, density=256)
    assert len(kept) == len(mask.segments)
    assert all(qr == loop for qr, loop in kept)


def test_fit_stays_below_true_ratio_on_dense_grid(mask, monocycle):
    # conservative clamp, checked 4x denser than the fit grid
    polys = up.fit_mask_polynomials(mask, monocycle, 25, density=512)
    for i, poly in enumerate(polys):
        f_lo, f_hi, level = mask.segments[i]
        a = 0.0 if i < len(mask.segments) - 1 else f_lo
        nu = np.linspace(a, f_hi, 4 * 512 + 1)
        if a == 0.0:
            nu = nu[1:]
        true_ratio = level / direct_power(monocycle, nu)
        assert np.all(poly(nu) <= true_ratio + 1e-15)


def test_fit_residuals_reported(mask, monocycle):
    # order-25 fits track the capped ratio; report per-segment residuals
    polys = up.fit_mask_polynomials(mask, monocycle, 25)
    for i, poly in enumerate(polys):
        f_lo, f_hi, level = mask.segments[i]
        a = 0.0 if i < len(mask.segments) - 1 else f_lo
        nu = np.linspace(max(a, 0.3e9), f_hi, 2048)
        true_ratio = level / direct_power(monocycle, nu)
        resid = np.max(np.abs(np.minimum(true_ratio, np.median(true_ratio) * 8) - poly(nu)))
        rel = resid / np.max(true_ratio[np.isfinite(true_ratio)])
        print(f"segment {i + 1}: sup residual {resid:.3e} ({rel:.1%} of scale)")
        assert np.isfinite(resid)


# ------------------------------------------------------------------- nesp


def test_nesp_saturating_spectrum_is_one(mask):
    lo, hi = mask.passband
    level = mask.segments[3][2]
    freqs = np.linspace(-14e9, 14e9, 2**16 + 1)
    vals = np.where((freqs >= lo) & (freqs <= hi), math.sqrt(level), 0.0)
    s = Spectrum(freqs, vals.astype(complex))
    assert up.nesp(s, mask) == pytest.approx(1.0, abs=2e-4)


def test_nesp_refinement(pulse25, mask):
    # full grids of 2^20 and 2^21 points, each with the exact mask-edge samples
    values = []
    for nfft in (2**20, 2**21):
        s = _with_edge_samples(up.spectrum(pulse25, nfft), pulse25, mask)
        alpha = up.max_compliant_scale(s, mask)
        values.append(up.nesp(Spectrum(s.freqs, s.values * alpha), mask))
    assert abs(values[0] - values[1]) <= 1e-4


@pytest.mark.parametrize("order", [1, 5, 25])
def test_nesp_matches_the_exact_passband_integral(order, request, mask):
    # passband_weights(p, passband, 1, clock)[0] is the closed-form
    # integral of the sampled pulse's |p^|^2 over the passband
    design = request.getfixturevalue(f"design{order}")
    exact = up.passband_weights(design.pulse, mask.passband, 1, mask.clock)[0]
    want = design.alpha**2 * exact / mask.allowed_passband_power()
    assert design.nesp_value == pytest.approx(want, rel=5e-8, abs=0)


def test_nesp_ordering_monocycle_far_below_shaped(design25, design1):
    assert design1.nesp_value < 0.05
    assert design25.nesp_value > 10 * design1.nesp_value


def test_nesp_phase_invariance(bins25, mask):
    rng = np.random.default_rng(3)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(bins25.values)))
    alpha = up.max_compliant_scale(bins25, mask)
    base = up.nesp(Spectrum(bins25.freqs, bins25.values * alpha), mask)
    twisted = up.nesp(Spectrum(bins25.freqs, bins25.values * phases * alpha), mask)
    assert twisted == pytest.approx(base, rel=1e-12)


def test_nesp_scale_invariance_after_rescaling(bins25, mask):
    for c in (0.1, 7.3):
        scaled = Spectrum(bins25.freqs, bins25.values * c)
        alpha = up.max_compliant_scale(scaled, mask)
        val = up.nesp(Spectrum(scaled.freqs, scaled.values * alpha), mask)
        alpha0 = up.max_compliant_scale(bins25, mask)
        ref = up.nesp(Spectrum(bins25.freqs, bins25.values * alpha0), mask)
        assert val == pytest.approx(ref, rel=1e-9)


# ------------------------------------------------------------- alpha star


def test_scale_of_mask_matching_spectrum(mask):
    # the mask's own ceiling, on a uniform grid plus its edges
    freqs = np.union1d(np.linspace(-14e9, 14e9, 2**16 + 1), _mask_edges(mask))
    vals = np.sqrt(_edge_ceiling(np.abs(freqs), mask))
    s = Spectrum(freqs, vals.astype(complex))
    assert up.max_compliant_scale(s, mask) == pytest.approx(1.0 - 1e-6, rel=1e-12)


def test_scale_refuses_a_spectrum_without_edge_samples(spec25, mask):
    # the full grid has no sample at 1.61, 1.99, 3.1 or 10.6 GHz
    with pytest.raises(ConfigurationError, match="no sample at the mask edges"):
        up.max_compliant_scale(spec25, mask)


def test_scale_homogeneity(bins25, mask):
    base = up.max_compliant_scale(bins25, mask)
    for c in (0.25, 4.0):
        scaled = Spectrum(bins25.freqs, bins25.values * c)
        assert up.max_compliant_scale(scaled, mask) == pytest.approx(base / c, rel=1e-12)


def test_scaled_spectrum_touches_mask(limit_k2, mask):
    # the worst sample, a bin or an edge, sits the safety factor below the mask
    _, scaled = compliant_spectrum(limit_k2.pulse, mask)
    touched = np.max(scaled.power() / _edge_ceiling(scaled.freqs, mask))
    assert touched == pytest.approx((1.0 - 1e-6) ** 2, rel=0, abs=1e-12)


def test_scale_monotone_in_mask(bins25, mask):
    base = up.max_compliant_scale(bins25, mask)
    bigger = SpectralMask(
        tuple((lo, hi, lv * 2.0) for lo, hi, lv in mask.segments), mask.passband
    )
    assert up.max_compliant_scale(bins25, bigger) >= base


# ------------------------------------------------- band bins by chirp-z


@pytest.fixture(scope="module", params=["monocycle", "order25", "limit2", "limit12"])
def band_pulse(request, monocycle, pulse25, limit_k2):
    # 193 to ~28k samples; n0 is even for the first three and odd at K = 12
    if request.param == "monocycle":
        return monocycle
    if request.param == "order25":
        return pulse25
    if request.param == "limit2":
        return limit_k2.pulse
    return up.orthonormal_generator(pulse25, pulse25.duration() / 12).pulse


def _full_grid_band(p, mask):
    full = band_spectrum(p, mask)
    sel = (full.freqs >= 0.0) & (full.freqs <= mask.f_top)
    return full, sel


def test_band_bins_are_the_full_grid_bins(band_pulse, mask):
    # the full grid's bins in [0, f_top], plus each mask edge that is not one
    full, sel = _full_grid_band(band_pulse, mask)
    got = band_bins(band_pulse, mask)
    edges = _mask_edges(mask)
    added = ~np.isin(got.freqs, full.freqs[sel])
    assert np.all(np.diff(got.freqs) > 0)
    assert np.array_equal(got.freqs[added], edges[~np.isin(edges, full.freqs[sel])])
    assert np.array_equal(got.freqs[~added], full.freqs[sel])
    peak = np.abs(full.values).max()
    assert np.abs(got.values[~added] - full.values[sel]).max() <= 1e-14 * peak


def test_band_bins_edge_samples_are_exact(band_pulse, mask):
    got = band_bins(band_pulse, mask)
    at = np.isin(got.freqs, _mask_edges(mask))
    assert np.count_nonzero(at) == len(mask.segments) + 1
    exact = _power_at(band_pulse, got.freqs[at])
    assert np.abs(got.power()[at] - exact).max() <= 1e-13 * got.power().max()


def test_band_bins_match_exact_dtft(band_pulse, mask):
    got = band_bins(band_pulse, mask)
    idx = np.random.default_rng(7).choice(len(got.freqs), 200, replace=False)
    exact = direct_transform(band_pulse, got.freqs[idx])
    peak = np.abs(got.values).max()
    assert np.abs(got.values[idx] - exact).max() <= 1e-13 * peak


def _scipy_dft_bins(x, first, nfft, m):
    """signals._dft_bins's chirp-z on scipy.fft at next_fast_len."""
    import scipy.fft

    def chirp(j):
        return np.exp(-1j * np.pi * ((j * j) % (2 * nfft)) / nfft)

    n = len(x)
    size = scipy.fft.next_fast_len(n + m - 1)
    j = np.arange(n, dtype=np.int64) + first
    a = scipy.fft.fft(x * chirp(j), size)
    lags = np.arange(-(n - 1), m, dtype=np.int64) - first
    b = scipy.fft.fft(np.conj(chirp(lags)), size)
    conv = scipy.fft.ifft(a * b)[n - 1 : n - 1 + m]
    return chirp(np.arange(m, dtype=np.int64)) * conv


def test_fast_len_is_scipys_next_fast_len():
    import scipy.fft

    sizes = range(1, 40_001)
    assert [signals._fast_len(n) for n in sizes] == [
        scipy.fft.next_fast_len(n) for n in sizes
    ]


def test_band_chirp_z_keeps_scipys_bits(monkeypatch, band_pulse, mask):
    # np.fft at _fast_len's length gives every bin the bits scipy.fft gave it
    got = band_bins(band_pulse, mask)
    monkeypatch.setattr(pipeline, "_dft_bins", _scipy_dft_bins)
    ref = band_bins(band_pulse, mask)
    assert np.array_equal(got.freqs, ref.freqs)
    assert np.array_equal(got.values, ref.values)


def test_compliant_spectrum_matches_full_grid_route(band_pulse, mask):
    # the full grid's band, with the exact edge samples of direct_transform
    full, sel = _full_grid_band(band_pulse, mask)
    full = _with_edge_samples(Spectrum(full.freqs[sel], full.values[sel]), band_pulse, mask)
    alpha_full = up.max_compliant_scale(full, mask)
    nesp_full = up.nesp(Spectrum(full.freqs, full.values * alpha_full), mask)
    alpha, scaled = compliant_spectrum(band_pulse, mask)
    assert alpha == pytest.approx(alpha_full, rel=1e-13, abs=0)
    assert up.nesp(scaled, mask) == pytest.approx(nesp_full, rel=1e-13, abs=0)


def test_compliance_chain_never_builds_the_full_grid(monkeypatch, mask):
    # compliance takes the bins by chirp-z and a direct sum at the mask
    # edges that are not bins: neither the full grid nor the O(n^2) lag
    # row of _power_at, which only the mask fits use
    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} was computed")

        return call

    monkeypatch.setattr(pipeline, "spectrum", refuse("the full-grid spectrum"))
    monkeypatch.setattr(signals, "spectrum", refuse("the full-grid spectrum"))
    design = up.design_pulse(order=5)
    for module in (signals, spectral):
        monkeypatch.setattr(module, "_power_at", refuse("_power_at"))
    seen = []
    dtft = pipeline._dtft

    def record(p, freqs):
        seen.append(np.asarray(freqs))
        return dtft(p, freqs)

    monkeypatch.setattr(pipeline, "_dtft", record)
    report = up.analyze_pulse(design.pulse, mask)
    assert report["nesp"] == pytest.approx(design.nesp_value, rel=1e-12, abs=0)
    assert len(seen) == 1
    assert seen[0].tolist() == [1.61 * GHZ, 1.99 * GHZ, 3.1 * GHZ, 10.6 * GHZ]


# ------------------------------------------------------------------- PSDs


def _phasor_mean(f, step, n):
    return abs(np.mean(np.exp(-2j * np.pi * f * np.arange(n) * step)))


def _assert_lines_match_per_line_loop(spec, lines, energy, period, gain):
    # reference: the line model evaluated one line at a time; lines left
    # out must be zero (the phasor means differ from the Dirichlet ratio
    # by ~1e-16 at its nulls)
    power = spec.power()
    n_max = int(float(np.max(np.abs(spec.freqs))) * period)
    freqs = [n / period for n in range(-n_max, n_max + 1)]
    want = np.array(
        [energy * float(np.interp(f, spec.freqs, power)) / period**2 * gain(f) ** 2 for f in freqs]
    )
    got = dict(lines)
    assert set(got) <= set(freqs)
    have = np.array([got.get(f, 0.0) for f in freqs])
    assert np.allclose(have, want, rtol=1e-9, atol=1e-12 * want.max())


def test_psd_zero_mean_unit_var_reduces_to_pulse_shape(spec25):
    e, ts = 2.5, 150 * T0
    cont, lines = psd_pam_ppm(spec25, e, ts, mean_a=0.0, var_a=1.0, shift=T0, n_positions=4)
    assert lines == []
    expected = e * spec25.power() / ts
    assert np.allclose(cont.values.real, expected, rtol=1e-12)


def test_psd_deterministic_train_is_pure_lines(spec25):
    e, ts = 1.0, 10 * T0
    cont, lines = psd_pam_ppm(spec25, e, ts, mean_a=1.0, var_a=0.0, shift=T0, n_positions=1)
    assert np.allclose(cont.values.real, 0.0, atol=1e-30)
    assert len(lines) > 0
    for f, w in lines[:50]:
        assert w == pytest.approx(e * spec25.power_at(abs(f)) / ts**2, rel=1e-9)


def test_psd_dirichlet_against_direct_average(spec25):
    # oracle: direct n-term average of the position phasor
    rng = np.random.default_rng(11)
    n = 7
    for _ in range(50):
        nu = float(rng.uniform(0.05e9, 13e9))
        direct = abs(np.mean(np.exp(-2j * np.pi * nu * np.arange(n) * T0)))
        from uwbpulse.spectral import _dirichlet_mean

        assert _dirichlet_mean(np.array([nu]), T0, n)[0] == pytest.approx(
            direct, abs=1e-12
        )


def test_psd_continuous_part_nonnegative(spec25):
    cont, lines = psd_pam_ppm(
        spec25, 1.0, 150 * T0, mean_a=0.3, var_a=0.91, shift=T0, n_positions=5
    )
    assert np.min(cont.values.real) >= -1e-30
    assert sum(w for _, w in lines) >= 0.0
    _assert_lines_match_per_line_loop(
        spec25, lines, 1.0, 150 * T0, lambda f: 0.3 * _phasor_mean(f, T0, 5)
    )


def test_psd_th_degenerate_is_pure_lines(spec25):
    cont, lines = psd_th_framed(spec25, 1.0, 20 * T0, Nc=1, Tc=5 * T0, n_positions=1, shift=T0)
    assert np.allclose(cont.values.real, 0.0, atol=1e-30)
    assert len(lines) > 0


def test_psd_th_hop_factor_bounded(spec25):
    from uwbpulse.spectral import _dirichlet_mean

    g = _dirichlet_mean(spec25.freqs, 5 * T0, 3) * _dirichlet_mean(spec25.freqs, T0, 4)
    assert np.max(g) <= 1.0 + 1e-12


def test_psd_th_spot_value_against_double_sum(spec25):
    # oracle: brute-force expectation over both uniform code draws
    nc, npos = 3, 4
    tc, shift = 5 * T0, T0
    nu = 1.0 / (2 * tc * nc)
    total = 0.0 + 0.0j
    for c in range(nc):
        for d in range(npos):
            total += np.exp(-2j * np.pi * nu * (c * tc + d * shift))
    direct = abs(total) / (nc * npos)
    from uwbpulse.spectral import _dirichlet_mean

    got = float(_dirichlet_mean(np.array([nu]), tc, nc)[0] * _dirichlet_mean(np.array([nu]), shift, npos)[0])
    assert got == pytest.approx(direct, abs=1e-12)
    tf = 15 * T0
    _, lines = psd_th_framed(spec25, 2.0, tf, Nc=nc, Tc=tc, n_positions=npos, shift=shift)
    _assert_lines_match_per_line_loop(
        spec25, lines, 2.0, tf, lambda f: _phasor_mean(f, tc, nc) * _phasor_mean(f, shift, npos)
    )


def test_psd_th_validates_collision_constraints(spec25):
    with pytest.raises(ConfigurationError, match="chip"):
        psd_th_framed(spec25, 1.0, 100 * T0, Nc=2, Tc=3 * T0, n_positions=4, shift=T0)
    with pytest.raises(ConfigurationError, match="frame"):
        psd_th_framed(spec25, 1.0, 5 * T0, Nc=4, Tc=2 * T0, n_positions=1, shift=T0)


def _full_grid_psds(spec, dt, s, n):
    """(tiled, full-grid) continua of both PSD models at a shift of s grid
    steps; the full-grid one takes ``_dirichlet_mean`` on every bin."""
    from uwbpulse.spectral import _dirichlet_mean

    shift, tc = s * dt, (n * s + 5) * dt
    psq, f = spec.power(), spec.freqs
    pam, _ = psd_pam_ppm(spec, 2.0, 9 * tc, 0.6, 0.5, shift, n)
    pam_ref = 2.0 * psq / (9 * tc) * (0.86 - (0.6 * _dirichlet_mean(f, shift, n)) ** 2)
    th, _ = psd_th_framed(spec, 1.5, 3 * tc, Nc=3, Tc=tc, n_positions=n, shift=shift)
    g = _dirichlet_mean(f, tc, 3) * _dirichlet_mean(f, shift, n)
    th_ref = 1.5 * psq / (3 * tc) * (1.0 - g**2)
    return [(pam.values, pam_ref), (th.values, th_ref)]


@pytest.fixture(scope="module")
def psd_grids(pulse25):
    """A power-of-two grid from :func:`signals.spectrum`, and a uniform
    grid of 3840 = 2^8 * 15 bins, where the bins per Dirichlet period
    are not all powers of two."""
    freqs = np.fft.fftshift(np.fft.fftfreq(3840, pulse25.dt))
    return [up.spectrum(pulse25, 2**12), Spectrum(freqs, direct_transform(pulse25, freqs))]


@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("s", [1, 3, 32, 128, 320])
def test_psd_continuum_tiles_one_period(pulse25, psd_grids, s, n):
    # the full-grid formula's own rounding grows with nu * shift; the
    # tiled period sits at the bins nearest nu = 0
    for spec in psd_grids:
        for got, want in _full_grid_psds(spec, pulse25.dt, s, n):
            assert np.isrealobj(got)
            assert np.max(np.abs(got.real - want)) <= 1e-13 * np.max(np.abs(want))


def test_psd_refuses_shifts_off_the_grid(pulse25):
    spec = up.spectrum(pulse25, 2**12)
    dt = pulse25.dt
    with pytest.raises(GridAlignmentError, match="shift is 1.5 grid steps"):
        psd_pam_ppm(spec, 1.0, 40 * dt, 1.0, 0.0, 1.5 * dt, 4)
    with pytest.raises(GridAlignmentError, match="shift is 1.5 grid steps"):
        psd_th_framed(spec, 1.0, 40 * dt, Nc=2, Tc=8 * dt, n_positions=4, shift=1.5 * dt)
    with pytest.raises(GridAlignmentError, match="chip period is 7.5 grid steps"):
        psd_th_framed(spec, 1.0, 40 * dt, Nc=2, Tc=7.5 * dt, n_positions=4, shift=dt)


@pytest.mark.parametrize("n", [0, -1])
def test_pam_ppm_psd_refuses_no_positions(pulse25, n):
    spec = up.spectrum(pulse25, 2**12)
    with pytest.raises(ConfigurationError, match=f"at the shift need n >= 1, not {n}"):
        psd_pam_ppm(spec, 1.0, 40 * pulse25.dt, 1.0, 0.0, pulse25.dt, n)


@pytest.mark.parametrize("nc, n_positions, what", [(0, 4, "chip period"), (2, 0, "shift")])
def test_th_framed_psd_refuses_no_codes_or_positions(pulse25, nc, n_positions, what):
    spec = up.spectrum(pulse25, 2**12)
    dt = pulse25.dt
    with pytest.raises(ConfigurationError, match=f"at the {what} need n >= 1, not 0"):
        psd_th_framed(spec, 1.0, 40 * dt, Nc=nc, Tc=8 * dt, n_positions=n_positions, shift=dt)


def test_psd_evaluates_one_dirichlet_period(monkeypatch, spec25):
    # a cost guard with no timing: at a shift of T0 = 32 grid steps the
    # 2^20-point grid repeats the position factor every 32,768 bins
    sizes, power_calls = [], []
    dirichlet, power = spectral._dirichlet_mean, Spectrum.power

    def counted_dirichlet(nu, shift, n):
        sizes.append(np.size(nu))
        return dirichlet(nu, shift, n)

    def counted_power(self):
        power_calls.append(1)
        return power(self)

    monkeypatch.setattr(spectral, "_dirichlet_mean", counted_dirichlet)
    monkeypatch.setattr(Spectrum, "power", counted_power)
    ts = 10 * T0
    psd_pam_ppm(spec25, 1.0, ts, 1.0, 0.0, T0, 4)
    n_lines = 2 * int(np.max(np.abs(spec25.freqs)) * ts) + 1
    assert sum(sizes) <= 32768 + n_lines
    assert len(power_calls) == 1


# both models on the benchmark link's inputs: unipolar 4-PPM at Ts = 10 T0,
# and framed time hopping at Tf = 12 T0
LINK_PSDS = [
    lambda spec: psd_pam_ppm(spec, 1.0, 10 * T0, 1.0, 0.0, T0, 4),
    lambda spec: psd_th_framed(spec, 1.0, 12 * T0, Nc=3, Tc=4 * T0, n_positions=4, shift=T0),
]


@pytest.mark.parametrize("model", LINK_PSDS, ids=["pam_ppm", "th_framed"])
def test_psd_allocates_about_one_output_buffer(spec25, model):
    # a memory guard with no timing: the continuum is |p^|^2's own buffer,
    # scaled in place by one Dirichlet period; a gain tiled over the grid
    # would be a second 8 m-byte array
    out_bytes = 8 * len(spec25.freqs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        model(spec25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out_bytes, peak / out_bytes


def test_psd_leaves_its_input_spectrum_unchanged(pulse25):
    # the continuum is built in place in power()'s buffer, which must never
    # alias the input's values, complex or real; a single-precision input
    # still gets a float64 continuum
    spec = up.spectrum(pulse25, 2**12)
    real = Spectrum(spec.freqs, np.abs(spec.values))
    single = Spectrum(spec.freqs, spec.values.astype(np.complex64))
    for given in (spec, real, single):
        before = given.values.copy()
        for model in LINK_PSDS:
            cont, _ = model(given)
            assert not np.shares_memory(cont.values, given.values)
            assert cont.values.dtype == np.float64
        assert given.values.dtype == before.dtype
        assert given.values.tobytes() == before.tobytes()


def test_psd_csv_writers(tmp_path, spec25):
    from uwbpulse.spectral import save_psd_csv

    from conftest import save_lines_csv

    cont, lines = psd_pam_ppm(spec25, 1.0, 150 * T0, 1.0, 0.0, T0, 2)
    save_psd_csv(tmp_path / "psd.csv", cont)
    save_lines_csv(tmp_path / "lines.csv", lines)
    header = (tmp_path / "psd.csv").read_text().splitlines()[0]
    assert header == "f_hz,psd_w_per_hz"
    header = (tmp_path / "lines.csv").read_text().splitlines()[0]
    assert header == "f_hz,power_w"


# ----------------------------------------------------- property checks


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=12))
def test_cosine_poly_even_and_periodic(coeffs):
    poly = up.CosinePoly(np.asarray(coeffs), T0)
    nu = np.linspace(0.1e9, 13e9, 17)
    assert np.allclose(poly(nu), poly(-nu), rtol=0, atol=1e-9 * (1 + np.abs(coeffs).sum()))
    assert np.allclose(
        poly(nu), poly(nu + 1.0 / T0), rtol=0, atol=1e-6 * (1 + np.abs(coeffs).sum())
    )


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 5.0))
def test_scale_monotone_under_mask_growth(bins25, mask, factor):
    base = up.max_compliant_scale(bins25, mask)
    grown = SpectralMask(
        tuple((lo, hi, lv * (1.0 + factor)) for lo, hi, lv in mask.segments),
        mask.passband,
    )
    assert up.max_compliant_scale(bins25, grown) >= base
