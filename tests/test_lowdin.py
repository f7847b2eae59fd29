"""Gram matrices, symmetric orthogonalization, circulant approximants,
the shift-orthonormal limit, and optimality diagnostics."""

import math

import numpy as np
import pytest

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.errors import ConfigurationError, UnstableGeneratorError
from uwbpulse.lowdin import (
    gram_schmidt_family,
    nyquist_spectrum_power,
    summed_distortion,
)
from uwbpulse.pipeline import build_family
from uwbpulse.signals import (
    SampledPulse,
    TimeGrid,
    _translate_sum,
    autocorr_samples,
    inner,
    semi_discrete_convolve,
    shift_samples,
)

from conftest import direct_power, strang_circulant

T0 = defaults.CLOCK_T0


def translate(p: SampledPulse, n_shifts: int, shift: float) -> SampledPulse:
    s = shift_samples(p, shift)
    grid = TimeGrid(p.dt, p.grid.n0 - n_shifts * s, p.grid.size)
    return SampledPulse(
        grid,
        p.samples,
        (p.support[0] + n_shifts * shift, p.support[1] + n_shifts * shift),
    )


# ------------------------------------------------------------------ gram


def test_gram_identity_for_disjoint_translates(monocycle):
    shift = monocycle.duration() + 64 * monocycle.dt
    assert np.allclose(up.gram(monocycle, shift, 3), np.eye(7), atol=1e-15)


def test_gram_matches_direct_inner_products(pulse25):
    # oracle: build the translates explicitly and take raw inner products
    shift = pulse25.duration() / 2
    m_half = 3
    gm = up.gram(pulse25, shift, m_half)
    pulses = [translate(pulse25, n, shift) for n in range(-m_half, m_half + 1)]
    for i in range(7):
        for j in range(7):
            assert gm[i, j] == pytest.approx(inner(pulses[i], pulses[j]), abs=1e-10)


def test_gram_bandwidth(pulse25):
    for k in (2, 3, 5):
        shift = pulse25.duration() / k
        assert len(autocorr_samples(pulse25, shift)) - 1 == k
        row = up.gram(pulse25, shift, 2 * k)[0]
        assert not np.any(row[k + 1 :])  # no lag past the band


# --------------------------------------------------------- inverse sqrt


def test_inverse_sqrt_identity():
    s = up.inverse_sqrt_spd(np.eye(9))
    assert np.allclose(s, np.eye(9), atol=1e-14)


def test_inverse_sqrt_two_by_two_closed_form():
    rho = 0.5
    g = np.array([[1.0, rho], [rho, 1.0]])
    s = up.inverse_sqrt_spd(g)
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    expect = v @ np.diag([(1 + rho) ** -0.5, (1 - rho) ** -0.5]) @ v.T
    assert np.allclose(s, expect, atol=1e-14)
    assert np.allclose(s @ g @ s, np.eye(2), atol=1e-14)


def test_inverse_sqrt_against_denman_beavers(pulse25):
    # oracle: coupled Newton iteration for the matrix square root
    shift = pulse25.duration() / 5
    gm = up.gram(pulse25, shift, 10)  # 21 x 21
    y = gm.copy()
    z = np.eye(len(gm))
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        y, z = y_next, z_next
    # z converges to gm^{-1/2}
    s = up.inverse_sqrt_spd(gm)
    assert np.abs(s - z).max() <= 1e-9
    assert np.abs(s @ gm @ s - np.eye(len(gm))).max() <= 1e-9


def test_inverse_sqrt_rejects_near_singular():
    g = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(UnstableGeneratorError):
        up.inverse_sqrt_spd(g)


# ------------------------------------------------------------- lo family


def test_lowdin_family_of_orthonormal_translates_is_identity(limit_k2, pulse25):
    shift = pulse25.duration() / 2
    fam = up.lowdin_family(limit_k2.pulse, shift, 2)
    assert np.abs(fam.weights - np.eye(5)).max() <= 1e-6
    center = fam.centered()
    ref = limit_k2.pulse
    # members coincide with the translates themselves
    assert inner(center, ref) == pytest.approx(1.0, abs=1e-8)


def test_lowdin_family_gram_is_identity(family_k2):
    g = family_k2.gram()
    assert np.abs(np.diag(g) - 1.0).max() <= 1e-8
    assert family_k2.max_offdiagonal() <= 1e-8


def test_lowdin_beats_gram_schmidt_distortion(pulse25):
    shift = pulse25.duration() / 3
    m_half = 4
    lo = up.lowdin_family(pulse25, shift, m_half)
    gs = gram_schmidt_family(pulse25, shift, m_half)
    d_lo = summed_distortion(lo, pulse25)
    d_gs = summed_distortion(gs, pulse25)
    assert d_lo < d_gs  # strictly, since the translates overlap
    # closed-form distortion from the weights: 2 sum (1 - [G^{1/2}]_mm)
    gm = up.gram(pulse25, shift, m_half)
    vals, vecs = np.linalg.eigh(gm)
    sqrt_g = (vecs * np.sqrt(vals)) @ vecs.T
    expect = float(2 * np.sum(1.0 - np.diag(sqrt_g)))
    assert d_lo == pytest.approx(expect, rel=1e-8, abs=1e-10)


def test_lowdin_family_filter_rows(family_k2, pulse25):
    # weights rows are the combining filters: rebuilding member m from
    # raw translates reproduces the stored pulse to rounding
    shift = pulse25.duration() / 2
    m = 1
    rebuilt = np.zeros(family_k2.pulses[m].grid.size)
    s = shift_samples(pulse25, shift)
    for n in range(family_k2.size):
        rebuilt[n * s : n * s + pulse25.grid.size] += (
            family_k2.weights[m, n] * pulse25.samples
        )
    bound = sum_bound(family_k2.weights[m], pulse25.samples)
    assert np.abs(rebuilt - family_k2.pulses[m].samples).max() <= bound


# ----------------------------------------------------- tapped-delay lines


def direct_translate_sum(x, weights, step):
    # oracle: add the translates one at a time in tap order
    n = weights.shape[-1]
    out = np.zeros(weights.shape[:-1] + (len(x) + (n - 1) * step,))
    for k in range(n):
        out[..., k * step : k * step + len(x)] += np.multiply.outer(weights[..., k], x)
    return out


def sum_bound(weights, x):
    # rounding of a sum of translates: 4 eps sum_k |w_k| max|x| per sample
    return 4 * np.finfo(float).eps * np.abs(weights).sum(axis=-1, keepdims=True) * np.abs(x).max()


@pytest.mark.parametrize("n", [1, 2, 33, 4097])
@pytest.mark.parametrize("rows", [None, 3])
def test_translate_sum_matches_direct_sum(n, rows):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(50)
    weights = rng.standard_normal(n if rows is None else (rows, n))
    for step in (1, 7, len(x) - 1, len(x), len(x) + 5):  # 50 % 7 != 0
        got = _translate_sum(x, weights, step)
        expect = direct_translate_sum(x, weights, step)
        assert got.shape == expect.shape
        assert got.flags.c_contiguous
        assert np.all(np.abs(got - expect) <= sum_bound(weights, x))


@pytest.mark.parametrize("k", [1, 2, 5, 8, 15, 20])
def test_translate_sum_rows_are_independent(pulse25, k):
    # row m of a 2-D sum is bit for bit the 1-D sum with that row's taps
    shift = pulse25.duration() / k
    m_half = 2 * k
    s = shift_samples(pulse25, shift)
    for builder in (up.lowdin_family, gram_schmidt_family, up.approx_lowdin_family):
        weights = builder(pulse25, shift, m_half).weights
        rows = _translate_sum(pulse25.samples, weights, s)
        for m in range(len(weights)):
            assert np.array_equal(rows[m], _translate_sum(pulse25.samples, weights[m], s))


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_family_gram_matches_weighted_toeplitz(pulse25, k):
    # oracle: the translate Gram from lag dot products, transformed by the
    # combining weights, against the Gram of the member matrix
    shift = pulse25.duration() / k
    m_half = 2 * k
    g = up.gram(pulse25, shift, m_half)
    for fam in (up.lowdin_family(pulse25, shift, m_half), gram_schmidt_family(pulse25, shift, m_half)):
        expect = fam.weights @ g @ fam.weights.T
        assert np.abs(fam.gram() - expect).max() <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_alo_rows_are_clipped_tapped_delay_lines(pulse25, k):
    # member m is the shaping-filter convolution with taps weights[m],
    # clipped to the cutoff, bit for bit
    shift = pulse25.duration() / k
    m_half = 2 * k
    fam = up.approx_lowdin_family(pulse25, shift, m_half)
    cutoff = (m_half - (len(autocorr_samples(pulse25, shift)) - 1) / 2.0) * shift
    for m in range(fam.size):
        row = semi_discrete_convolve(pulse25, fam.weights[m], shift)
        assert row.grid == fam.grid
        clipped = np.where(np.abs(row.times()) > cutoff + 1e-9 * pulse25.dt, 0.0, row.samples)
        assert np.array_equal(fam.samples[m], clipped)


# ------------------------------------------------------------- circulant


def test_strang_eigenvalues_match_folded_spectrum(pulse25):
    # oracle: Strang's circulant built here from the Gram's first row, its
    # eigenvalues by a dense symmetric solver
    for k in (2, 5, 15, 20):
        shift = pulse25.duration() / k
        for m_half in (k, 2 * k, 4 * k):
            lam = np.linalg.eigvalsh(strang_circulant(up.gram(pulse25, shift, m_half)))
            n = 2 * m_half + 1
            expect = np.sort(up.gram_symbol(pulse25, shift, np.arange(n) / n))
            assert np.abs(lam - expect).max() <= 1e-12


@pytest.mark.parametrize("k", [2, 5, 15, 20])
def test_alo_weights_invert_the_strang_circulant(pulse25, k):
    # the ALO weights W are C^(-1/2) for the wrapped-band Gram C: W C W = I
    shift = pulse25.duration() / k
    m_half = 2 * k
    w = up.approx_lowdin_family(pulse25, shift, m_half).weights
    c = strang_circulant(up.gram(pulse25, shift, m_half))
    assert np.abs(w @ c @ w - np.eye(2 * m_half + 1)).max() <= 1e-12


def test_strang_identity_for_disjoint_translates(monocycle):
    shift = monocycle.duration() + 32 * monocycle.dt
    c = strang_circulant(up.gram(monocycle, shift, 3))
    assert np.allclose(c, np.eye(7), atol=1e-15)
    fam = up.approx_lowdin_family(monocycle, shift, 3)
    assert np.allclose(fam.weights, np.eye(7), atol=1e-15)


def test_strang_band_overflow_rejected(pulse25):
    shift = pulse25.duration() / 4  # K = 4
    with pytest.raises(ConfigurationError):
        up.approx_lowdin_family(pulse25, shift, 3)  # M = 3 < K


def test_strang_weak_norm_decreases(pulse25):
    shift = pulse25.duration() / 2
    k = 2
    gaps = []
    for m_half in (k, 2 * k, 4 * k, 8 * k):
        gm = up.gram(pulse25, shift, m_half)
        diff = strang_circulant(gm) - gm
        gaps.append(float(np.sqrt(np.mean(np.linalg.eigvalsh(diff) ** 2))))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0]
    # the report's closed form against the eigenvalue route
    for k, m_multiple in ((2, 2), (8, 8), (20, 2)):
        shift = pulse25.duration() / k
        gm = up.gram(pulse25, shift, m_multiple * k)
        diff = strang_circulant(gm) - gm
        expect = float(np.sqrt(np.mean(np.linalg.eigvalsh(diff) ** 2)))
        report = build_family(pulse25, k, m_multiple, "alo")[2]
        assert report["weak_norm_gap"] == pytest.approx(expect, rel=1e-12, abs=0.0)


# ------------------------------------------------------------ alo family


def test_alo_on_orthonormal_translates(limit_k2, pulse25):
    # the truncated generator formally spans ~13 shifts, so the band
    # only fits from m_half = 13 up
    shift = pulse25.duration() / 2
    m_half = 16
    fam = up.approx_lowdin_family(limit_k2.pulse, shift, m_half)
    lam = np.linalg.eigvalsh(strang_circulant(up.gram(limit_k2.pulse, shift, m_half)))
    assert np.abs(lam - 1.0).max() <= 1e-8
    # inside the clipped window the members equal the translates
    k = len(autocorr_samples(limit_k2.pulse, shift)) - 1
    cutoff = (m_half - k / 2.0) * shift
    center = fam.centered()
    t = center.times()
    sel = np.abs(t) <= cutoff - shift
    ref = limit_k2.pulse
    ref_on = np.array([ref.value_at(tt) for tt in t[sel]])
    assert np.abs(center.samples[sel] - ref_on).max() <= 1e-6


def test_alo_support_clipped_exactly(pulse25):
    shift = pulse25.duration() / 2
    m_half = 4
    fam = up.approx_lowdin_family(pulse25, shift, m_half)
    k = len(autocorr_samples(pulse25, shift)) - 1
    cutoff = (m_half - k / 2.0) * shift
    for member in fam.pulses:
        t = member.times()
        assert np.all(member.samples[np.abs(t) > cutoff + 1e-9 * member.dt] == 0.0)


def test_alo_local_shift_character(pulse25):
    # member k shifted back to the center matches member 0 on the window
    # |t| <= (M - K/2 - |k|) T
    shift = pulse25.duration() / 2
    m_half = 4
    fam = up.approx_lowdin_family(pulse25, shift, m_half)
    kb = len(autocorr_samples(pulse25, shift)) - 1
    s = shift_samples(pulse25, shift)
    center = fam.centered()
    for k in range(-m_half + 1, m_half):
        member = fam.pulses[m_half + k]
        window = (m_half - kb / 2.0 - abs(k)) * shift
        t = center.times()
        sel = np.abs(t) <= window
        idx = np.nonzero(sel)[0]
        vals_center = center.samples[idx]
        vals_member = member.samples[idx + k * s]
        assert np.abs(vals_member - vals_center).max() <= 1e-12


def test_alo_vs_lo_monocycle_boundary_concentration(monocycle):
    # heavy overlap of the bare monocycle: the circulant members differ
    # from the symmetric ones mostly near the support boundary
    shift = monocycle.duration() / 6  # one clock period
    m_half = 12
    lo = up.lowdin_family(monocycle, shift, m_half)
    alo = up.approx_lowdin_family(monocycle, shift, m_half)
    c_lo = lo.centered()
    c_alo = alo.centered()
    n = min(c_lo.grid.size, c_alo.grid.size)
    diff = np.abs(c_alo.samples[:n] - c_lo.samples[:n])
    peak = np.abs(c_lo.samples).max()
    rel = diff.max() / peak
    print(f"monocycle alo-lo max difference: {rel:.3e} of peak")
    t = c_lo.times()[:n]
    inner_sel = np.abs(t) <= 0.25 * t.max()
    assert diff[inner_sel].max() < diff.max()  # boundary-dominated


def test_alo_lo_difference_shrinks_with_family_size(pulse25):
    shift = pulse25.duration() / 2  # K = 2
    diffs = []
    for m_half in (2, 4, 8):
        lo = up.lowdin_family(pulse25, shift, m_half)
        alo = up.approx_lowdin_family(pulse25, shift, m_half)
        a = alo.centered()
        b = lo.centered()
        n = min(a.grid.size, b.grid.size)
        diffs.append(np.abs(a.samples[:n] - b.samples[:n]).max() / np.abs(b.samples).max())
    assert diffs == sorted(diffs, reverse=True)


# ------------------------------------------------------------ limit pulse


def test_limit_pulse_is_shift_orthonormal(limit_k2, pulse25):
    shift = pulse25.duration() / 2
    nu = np.linspace(0.0, 0.5, 4096)
    vals = np.asarray(up.gram_symbol(limit_k2.pulse, shift, nu))
    assert np.abs(vals - 1.0).max() <= 1e-9
    assert limit_k2.tail_level <= 1e-12


def test_limit_pulse_fixed_point(limit_k2, pulse25):
    shift = pulse25.duration() / 2
    again = up.orthonormal_generator(limit_k2.pulse, shift)
    assert inner(again.pulse, limit_k2.pulse) == pytest.approx(1.0, abs=1e-8)


def test_centered_lowdin_converges_to_limit(pulse25):
    # K = 3 keeps the whole sequence above the limit pulse's own
    # truncation floor, so the decrease is strict
    k = 3
    shift = pulse25.duration() / k
    lim = up.orthonormal_generator(pulse25, shift).pulse
    devs = []
    for m_half in (k, 2 * k, 4 * k):
        fam = up.lowdin_family(pulse25, shift, m_half)
        center = fam.centered()
        window = (m_half - k) / 2.0 * shift
        t = center.times()
        sel = np.abs(t) <= window + 1e-12
        ref = np.array([lim.value_at(tt) for tt in t[sel]])
        devs.append(np.abs(center.samples[sel] - ref).max())
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 1e-3 * devs[0]


def test_limit_truncation_radius_reported(limit_k2, pulse25):
    shift = pulse25.duration() / 2
    assert limit_k2.truncation_radius > pulse25.duration() / 2
    peak = np.abs(limit_k2.pulse.samples).max()
    edge = max(abs(limit_k2.pulse.samples[0]), abs(limit_k2.pulse.samples[-1]))
    assert edge <= 2e-12 * peak


def test_limit_report_shows_generator_convergence(pulse25):
    # at K = 15 the generator stops at its 2048-shift tap-radius cap with
    # the outermost tap far above 1e-12 of the centre tap; at K = 2 its
    # taps converge at the first radius; ``converged`` says which
    _, _, capped = up.build_family(pulse25, 15, 2, "limit")
    assert capped["tail_level"] > 1e-6
    assert capped["limit_m_half"] == 2048
    assert capped["converged"] is False
    _, centered, converged = up.build_family(pulse25, 2, 2, "limit")
    assert converged["tail_level"] <= 1e-12
    assert converged["limit_m_half"] == 128
    assert converged["converged"] is True
    t = centered.times()
    assert converged["truncation_radius"] == pytest.approx(max(-t[0], t[-1]), rel=1e-12)


def test_generator_taps_are_the_alo_centre_row(monocycle):
    # the limit generator is the unclipped centre member of ALO_M
    shift = 2 * T0
    lim = up.orthonormal_generator(monocycle, shift)
    alo = up.approx_lowdin_family(monocycle, shift, lim.m_half)
    assert np.array_equal(lim.taps, alo.weights[lim.m_half])
    assert lim.tail_level == max(abs(lim.taps[0]), abs(lim.taps[-1])) / lim.taps[lim.m_half]


def _sup_distance(a: SampledPulse, b: SampledPulse) -> float:
    """Largest sample difference of two pulses on one dt, zero off each grid."""
    lo = min(-a.grid.n0, -b.grid.n0)
    hi = max(a.grid.size - a.grid.n0, b.grid.size - b.grid.n0)
    diff = np.zeros(hi - lo)
    diff[-a.grid.n0 - lo : -a.grid.n0 - lo + a.grid.size] += a.samples
    diff[-b.grid.n0 - lo : -b.grid.n0 - lo + b.grid.size] -= b.samples
    return float(np.abs(diff).max())


@pytest.mark.parametrize("k, radii", [(2, (2, 3, 4)), (5, (5, 10, 15))])
def test_centered_members_converge_geometrically_to_limit(pulse25, k, radii):
    # the convergence theorem: the centred LO_M and ALO_M members tend to
    # the limit pulse, the error shrinking by a constant factor per step
    # in M; the radii keep every error far above the limit's 1e-12
    # truncation floor
    shift = pulse25.duration() / k
    lim = up.orthonormal_generator(pulse25, shift).pulse
    peak = float(np.abs(lim.samples).max())
    for build in (up.lowdin_family, up.approx_lowdin_family):
        errs = [_sup_distance(build(pulse25, shift, m).centered(), lim) / peak for m in radii]
        assert min(errs) > 1e-10
        assert all(b <= 0.02 * a for a, b in zip(errs, errs[1:])), errs


# ------------------------------------------------------------ riesz bounds


@pytest.mark.parametrize("kind", ["lo", "alo", "limit"])
def test_build_family_scans_riesz_bounds_once(pulse25, monkeypatch, kind):
    import uwbpulse.lowdin
    import uwbpulse.pipeline

    calls = []
    scan = uwbpulse.lowdin.riesz_bounds

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(uwbpulse.lowdin, "riesz_bounds", counted)
    monkeypatch.setattr(uwbpulse.pipeline, "riesz_bounds", counted)
    build_family(pulse25, 2, 2, kind)
    assert len(calls) == 1


def test_public_builders_keep_their_stability_check(pulse25, monkeypatch):
    import uwbpulse.lowdin

    def unstable(p, shift):
        raise UnstableGeneratorError("stub: unstable")

    monkeypatch.setattr(uwbpulse.lowdin, "riesz_bounds", unstable)
    shift = pulse25.duration() / 2
    with pytest.raises(UnstableGeneratorError):
        up.lowdin_family(pulse25, shift, 4)
    with pytest.raises(UnstableGeneratorError):
        up.orthonormal_generator(pulse25, shift)


def test_riesz_bounds_orthonormal_generator(limit_k2, pulse25):
    shift = pulse25.duration() / 2
    a, b = up.riesz_bounds(limit_k2.pulse, shift)
    assert a == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_riesz_bounds_disjoint_translates(monocycle):
    shift = monocycle.duration() + 32 * monocycle.dt
    a, b = up.riesz_bounds(monocycle, shift)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_riesz_bounds_design_pulse(pulse25):
    for k in range(1, 6):
        a, b = up.riesz_bounds(pulse25, pulse25.duration() / k)
        assert 0.0 < a <= b < float("inf")
        print(f"K={k}: stability bounds [{a:.4f}, {b:.4f}]")


def test_riesz_unstable_raises():
    # two-tap comb with cancellation: translates of p - p(.-T) at shift T
    grid = TimeGrid(1e-11, 0, 65)
    samples = np.zeros(65)
    samples[0:32] = 1.0
    samples[32:64] = -1.0
    p = SampledPulse(grid, samples).normalized()
    with pytest.raises(UnstableGeneratorError):
        up.riesz_bounds(p, 32e-11)


# ----------------------------------------------------- eigenvalue bounds


def test_gram_eigenvalues_within_stability_bounds(pulse25):
    shift = pulse25.duration() / 2
    a, b = up.riesz_bounds(pulse25, shift)
    for m_half in (2, 4, 8, 16):
        vals = np.linalg.eigvalsh(up.gram(pulse25, shift, m_half))
        assert vals.min() >= a - 1e-9
        assert vals.max() <= b + 1e-9


def test_finite_frame_consistency(pulse25):
    # frame-operator route: Gram from raw translate inner products, then
    # the inverse square root applied to the same translates
    shift = pulse25.duration() / 2
    m_half = 4
    n = 2 * m_half + 1
    pulses = [translate(pulse25, k, shift) for k in range(-m_half, m_half + 1)]
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = inner(pulses[i], pulses[j])
    w = up.inverse_sqrt_spd(g)
    fam = up.lowdin_family(pulse25, shift, m_half)
    # pairwise inner products of the two families agree
    s = shift_samples(pulse25, shift)
    direct = np.zeros((n, fam.pulses[0].grid.size))
    for m in range(n):
        for k in range(n):
            direct[m, k * s : k * s + pulse25.grid.size] += w[m, k] * pulse25.samples
    got = direct @ np.vstack([member.samples for member in fam.pulses]).T * pulse25.dt
    assert np.abs(got - np.eye(n)).max() <= 1e-8


def test_centered_autocorr_decay(pulse25):
    # near-orthogonality of the centered member improves with family size
    shift = pulse25.duration() / 2
    k = 2
    tols = []
    for m_half in (k, 2 * k, 4 * k):
        fam = up.lowdin_family(pulse25, shift, m_half)
        center = fam.centered()
        r = autocorr_samples(center, shift)
        tols.append(np.abs(r[1:]).max() / r[0])
    assert tols[1] <= 1e-2  # M = 2K
    assert tols == sorted(tols, reverse=True)


# ------------------------------------------------------------- optimality


def test_optimality_probe_closed_form(pulse25):
    shift = pulse25.duration() / 2
    report = up.lowdin_optimality_probe(pulse25, shift, trials=5, seed=1)
    assert report["lowdin_distance_sq"] == pytest.approx(
        report["closed_form_distance_sq"], abs=1e-9
    )


def test_optimality_probe_random_phases_lose(pulse25):
    shift = pulse25.duration() / 2
    report = up.lowdin_optimality_probe(pulse25, shift, trials=20, seed=7)
    assert report["min_gap"] > 0.0
    assert all(
        d >= report["lowdin_distance_sq"] for d in report["alternative_distances_sq"]
    )


def test_optimality_half_period_flip_strictly_worse(pulse25, limit_k2):
    # explicit alternative: negate the spectrum on half the period
    shift = pulse25.duration() / 2
    lim = limit_k2.pulse
    pad = 512 * shift_samples(pulse25, shift)
    nfft = 1 << int(np.ceil(np.log2(pulse25.grid.size + 2 * pad)))
    buf = np.zeros(nfft)
    buf[pad : pad + pulse25.grid.size] = pulse25.samples
    spec = np.fft.fft(buf)
    freqs = np.fft.fftfreq(nfft, pulse25.dt)
    r = autocorr_samples(pulse25, shift)
    nmax = np.arange(1, len(r))
    folded = r[0] + 2.0 * np.cos(2.0 * np.pi * np.outer(freqs * shift, nmax)) @ r[1:]
    base = spec / np.sqrt(folded)
    frac = np.mod(freqs * shift, 1.0)
    sign = np.where(np.minimum(frac, 1.0 - frac) > 0.25, -1.0, 1.0)
    alt = np.real(np.fft.ifft(base * sign))
    # still a shift-orthonormal generator: circular correlations at
    # multiples of the shift vanish (the phase flip cancels in |.|^2)
    s = shift_samples(pulse25, shift)
    ring = np.fft.ifft(np.abs(np.fft.fft(alt)) ** 2).real * pulse25.dt
    assert ring[0] == pytest.approx(1.0, abs=1e-9)
    assert np.abs(ring[[j * s for j in range(1, 9)]]).max() <= 1e-9
    pp = np.zeros(nfft)
    pp[pad : pad + pulse25.grid.size] = pulse25.samples
    d_alt = np.sum((pp - alt) ** 2) * pulse25.dt
    d_base = pulse25.energy() + 1.0 - 2.0 * inner(pulse25, lim)
    assert d_alt > d_base + 1e-3


def test_nyquist_spectrum_power_matches_limit_pulse(pulse25, limit_k2):
    shift = pulse25.duration() / 2
    freqs = np.linspace(0.0, 14e9, 513)
    analytic = nyquist_spectrum_power(pulse25, shift, freqs)
    constructed = direct_power(limit_k2.pulse, freqs)
    assert np.abs(analytic - constructed).max() <= 1e-9 * np.max(analytic)
