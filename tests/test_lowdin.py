"""Gram matrices, symmetric orthogonalization, circulant approximants,
the shift-orthonormal limit, and optimality diagnostics."""

import inspect
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.errors import ConfigurationError, UnstableGeneratorError
from uwbpulse.lowdin import (
    _inverse_sqrt_taps,
    gram_schmidt_family,
    nyquist_spectrum_power,
    summed_distortion,
)
from uwbpulse.pipeline import build_family, shift_from_ratio
from uwbpulse.signals import (
    SampledPulse,
    TimeGrid,
    _translate_sum,
    autocorr_samples,
    cosine_series,
    inner,
    semi_discrete_convolve,
    shift_samples,
)

from conftest import direct_power, strang_circulant

T0 = defaults.CLOCK_T0


def translate(p: SampledPulse, n_shifts: int, shift: float) -> SampledPulse:
    s = shift_samples(p, shift)
    return SampledPulse(TimeGrid(p.dt, p.grid.n0 - n_shifts * s, p.grid.size), p.samples)


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


def test_inverse_sqrt_floor_is_relative(pulse25):
    # the singularity floor scales with the matrix: a tiny Gram is as
    # invertible as the one it is a multiple of
    g = up.gram(pulse25, pulse25.duration() / 5, 10)
    s = up.inverse_sqrt_spd(g)
    scaled = up.inverse_sqrt_spd(1e-14 * g)
    assert np.abs(scaled - 1e7 * s).max() <= 1e-12 * np.abs(1e7 * s).max()


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
    gs = gram_schmidt_family(pulse25, shift, m_half)
    for fam in (up.lowdin_family(pulse25, shift, m_half), gs):
        expect = fam.weights @ g @ fam.weights.T
        assert np.abs(fam.gram() - expect).max() <= 1e-13
    # the GS weights are L^(-1) for the Cholesky factor G = L L^T: lower
    # triangular (member m uses translates up to m only) and W L = I
    assert np.array_equal(gs.weights, np.tril(gs.weights))
    eye = np.eye(2 * m_half + 1)
    assert np.abs(gs.weights @ np.linalg.cholesky(g) - eye).max() <= 1e-14


# (pulse, shift in grid steps, M / K) for ALO families whose cutoff
# (M - K/2) T falls half a step between two samples: the monocycle spans
# 192 steps, so K = 39 at 5 steps and K = 15 at 13 steps, both with K s =
# 195 odd.  No T = Tp/K of the designed pulses does that.
HALF_STEP_CUTOFFS = [("monocycle", s, mult) for s in (5, 13) for mult in (1, 2)]


@pytest.mark.parametrize(
    "name, steps, mult",
    [pytest.param("pulse25", 960 // k, 2, id=str(k)) for k in (1, 2, 5, 8)] + HALF_STEP_CUTOFFS,
)
def test_alo_rows_are_clipped_tapped_delay_lines(request, name, steps, mult):
    # member m is the shaping-filter convolution with taps weights[m],
    # clipped to the cutoff, bit for bit (pulse25 spans 960 steps, so its
    # shifts are Tp/K with M = 2K for K = 1, 2, 5, 8)
    p = request.getfixturevalue(name)
    shift = steps * p.dt
    k = len(autocorr_samples(p, shift)) - 1
    m_half = mult * k
    fam = up.approx_lowdin_family(p, shift, m_half)
    cutoff = (m_half - k / 2.0) * shift
    for m in range(fam.size):
        row = semi_discrete_convolve(p, fam.weights[m], shift)
        assert row.grid == fam.grid
        clipped = np.where(np.abs(row.times()) > cutoff + 1e-9 * p.dt, 0.0, row.samples)
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
    # the ALO weights W are C^(-1/2) for the wrapped-band Gram C: W C W = I,
    # and W is exactly the circulant of the taps row, as scipy builds it
    shift = pulse25.duration() / k
    m_half = 2 * k
    w = up.approx_lowdin_family(pulse25, shift, m_half).weights
    row = _inverse_sqrt_taps(autocorr_samples(pulse25, shift), m_half)
    assert np.array_equal(w, scipy.linalg.circulant(row).T)
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


def test_alo_support_clipped_exactly(request):
    for name, steps, mult in [("pulse25", 480, 2)] + HALF_STEP_CUTOFFS:
        p = request.getfixturevalue(name)
        shift = steps * p.dt
        k = len(autocorr_samples(p, shift)) - 1
        m_half = mult * k
        fam = up.approx_lowdin_family(p, shift, m_half)
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
    # at K = 15 the taps at the 2048-shift cap are still far above 1e-12 of
    # the centre tap; at K = 2 they have decayed below it well inside the
    # cap; ``converged`` says which
    _, _, capped = up.build_family(pulse25, 15, 2, "limit")
    assert capped["tail_level"] > 1e-6
    assert capped["limit_m_half"] == 2048
    assert capped["converged"] is False
    _, centered, converged = up.build_family(pulse25, 2, 2, "limit")
    assert converged["tail_level"] <= 1e-12
    assert converged["converged"] is True
    t = centered.times()
    assert converged["truncation_radius"] == pytest.approx(max(-t[0], t[-1]), rel=1e-12)


def test_generator_taps_are_the_alo_centre_row(monocycle, monkeypatch):
    # the limit generator is the unclipped centre member of ALO at the cap,
    # trimmed to its last tap above LIMIT_LEVEL of the centre tap
    import uwbpulse.lowdin

    cap = 64
    monkeypatch.setattr(uwbpulse.lowdin, "LIMIT_MAX_M_HALF", cap)
    shift = 2 * T0
    lim = up.orthonormal_generator(monocycle, shift)
    row = up.approx_lowdin_family(monocycle, shift, cap).weights[cap]
    m = lim.m_half
    assert m < cap
    assert np.array_equal(lim.taps, row[cap - m : cap + m + 1])
    assert lim.tail_level == max(abs(row[0]), abs(row[-1])) / row[cap]
    level = uwbpulse.lowdin.LIMIT_LEVEL * row[cap]
    assert max(abs(row[cap - m]), abs(row[cap + m])) > level
    assert max(abs(row[cap - m - 1]), abs(row[cap + m + 1])) <= level


@pytest.mark.parametrize("k", [2, 5])
def test_generator_taps_match_mpmath_fourier_coefficients(pulse25, k):
    # oracle: c_n = 2 int_0^(1/2) Phi(nu)^(-1/2) cos(2 pi n nu) dnu by
    # mpmath quadrature, with Phi summed from r at 30 digits
    shift = shift_from_ratio(pulse25, k)
    r = autocorr_samples(pulse25, shift)
    lim = up.orthonormal_generator(pulse25, shift)
    m = lim.m_half
    with mpmath.workdps(30):
        c = [mpmath.mpf(float(x)) for x in r]
        lags = range(1, len(c))

        def phi(x):
            return c[0] + 2 * mpmath.fsum(c[j] * mpmath.cos(2 * mpmath.pi * j * x) for j in lags)

        for n in (0, 1, 3, m):
            ref = 2 * mpmath.quad(
                lambda x: mpmath.cos(2 * mpmath.pi * n * x) / mpmath.sqrt(phi(x)),
                mpmath.linspace(0, 0.5, 9),
            )
            assert abs(lim.taps[m + n] - float(ref)) <= 1e-13 * lim.taps[m], n


@pytest.mark.parametrize("k", [2, 5, 8, 12, 16, 20])
def test_alo_row_is_the_limit_taps_folded(pulse25, k):
    # the paper's ALO-to-limit relation: the ALO_M centre row at N = 2M + 1
    # is the limit's taps aliased mod N, here the row at the cap folded
    from uwbpulse.lowdin import LIMIT_MAX_M_HALF as cap
    from uwbpulse.lowdin import _inverse_sqrt_taps

    r = autocorr_samples(pulse25, shift_from_ratio(pulse25, k))
    limit = np.roll(_inverse_sqrt_taps(r, cap), cap)  # taps n = -cap..cap
    for m_half in (k, 2 * k, 4 * k):
        n = 2 * m_half + 1
        folded = np.bincount(np.arange(-cap, cap + 1) % n, limit, n)
        err = np.abs(_inverse_sqrt_taps(r, m_half) - folded).max()
        assert err <= 1e-14 * limit[cap], (m_half, err)


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
    # one lag row of the input pulse feeds one stability scan and the build
    import uwbpulse.lowdin
    import uwbpulse.pipeline
    import uwbpulse.signals

    rows, scans = [], []
    lags, scan = uwbpulse.signals.lag_autocorrelation, uwbpulse.lowdin._riesz_bounds

    def counted_lags(x, *args):
        rows.append(x)
        return lags(x, *args)

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(uwbpulse.signals, "lag_autocorrelation", counted_lags)
    monkeypatch.setattr(uwbpulse.lowdin, "_riesz_bounds", counted_scan)
    monkeypatch.setattr(uwbpulse.pipeline, "_riesz_bounds", counted_scan)
    build_family(pulse25, 2, 2, kind)
    assert len(rows) == 1 and rows[0] is pulse25.samples
    assert len(scans) == 1


def test_build_family_lo_never_samples_the_member_gram(pulse25, monkeypatch):
    calls = []
    monkeypatch.setattr(up.OrthogonalFamily, "gram", lambda self: calls.append(self))
    for k, m_multiple in ((2, 2), (8, 8)):
        build_family(pulse25, k, m_multiple, "lo")
    assert calls == []


@pytest.mark.parametrize(
    "k, m_multiple", [(1, 2), (2, 2), (4, 2), (8, 2), (15, 2), (20, 2), (4, 8), (8, 8)]
)
def test_lo_offdiag_report_matches_sampled_members(pulse25, k, m_multiple):
    # oracle: the Gram of the sampled member matrix, against the report's
    # W G W^T
    family, _, report = build_family(pulse25, k, m_multiple, "lo")
    assert abs(report["offdiag_max"] - family.max_offdiagonal()) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 15, 16, 20])
def test_limit_defect_matches_lag_dot_products(pulse25, k):
    # oracle: one dot product per lag of the sampled limit pulse
    _, centered, report = build_family(pulse25, k, 2, "limit")
    r = autocorr_samples(centered, report["shift_seconds"])
    assert abs(report["offdiag_max"] - np.max(np.abs(r[1:]))) <= 1e-14


@pytest.mark.parametrize("k", [2, 12, 15])
def test_limit_build_makes_one_circulant_and_no_long_fft(pulse25, monkeypatch, k):
    # cost guard, no timing: one circulant at the cap, one tapped-delay line
    # over the kept taps, and no FFT of the long limit pulse
    import scipy.fft

    import uwbpulse.lowdin

    circulants, tap_counts = [], []
    taps_at, translate_sum = uwbpulse.lowdin._inverse_sqrt_taps, uwbpulse.lowdin._translate_sum

    def counted_taps(*args):
        circulants.append(args)
        return taps_at(*args)

    def counted_sum(x, weights, step):
        tap_counts.append(weights.shape[-1])
        return translate_sum(x, weights, step)

    monkeypatch.setattr(uwbpulse.lowdin, "_inverse_sqrt_taps", counted_taps)
    monkeypatch.setattr(uwbpulse.lowdin, "_translate_sum", counted_sum)
    _, centered, report = build_family(pulse25, k, 2, "limit")
    m = report["limit_m_half"]
    s = shift_samples(pulse25, report["shift_seconds"])
    assert len(circulants) == 1
    assert tap_counts == [2 * m + 1]
    assert centered.grid.size == pulse25.grid.size + 2 * m * s
    assert scipy.fft not in vars(uwbpulse.lowdin).values()
    assert "scipy.fft" not in inspect.getsource(uwbpulse.lowdin)


def _riesz_shifts(p):
    """Shifts Tp/K, K = 1..20, rounded to whole grid steps."""
    steps = round(p.duration() / p.dt)
    return {k: round(steps / k) * p.dt for k in range(1, 21)}


def test_riesz_bounds_bracket_the_folded_spectrum(pulse25):
    # oracle: the folded spectrum summed as a cosine series on 2^16 + 1
    # nodes of [0, 1/2]; no node may fall below A or rise above B
    nu = np.linspace(0.0, 0.5, 2**16 + 1)
    for k, shift in _riesz_shifts(pulse25).items():
        r = autocorr_samples(pulse25, shift)
        a, b = up.riesz_bounds(pulse25, shift)
        vals = cosine_series(r, nu)
        assert vals.min() >= a - 1e-15 * r[0], k
        assert vals.max() <= b + 1e-15 * r[0], k


@pytest.mark.parametrize("k", [3, 8, 12, 15, 20])
def test_riesz_bounds_match_mpmath_extrema(pulse25, k):
    # oracle: every local extremum of a 4,097-node scan of [0, 1/2],
    # polished as a root of Phi'(nu) at 30 digits by the secant method from
    # the neighbouring nodes, with Phi summed in mpmath
    shift = _riesz_shifts(pulse25)[k]
    r = autocorr_samples(pulse25, shift)
    a, b = up.riesz_bounds(pulse25, shift)
    nu = np.linspace(0.0, 0.5, 4097)
    step = np.sign(np.diff(cosine_series(r, nu)))
    turns = np.flatnonzero(step[1:] != step[:-1]) + 1
    with mpmath.workdps(30):
        c = [mpmath.mpf(float(x)) for x in r]
        n = range(1, len(c))

        def phi(x):
            return c[0] + 2 * mpmath.fsum(c[j] * mpmath.cos(2 * mpmath.pi * j * x) for j in n)

        def dphi(x):
            return mpmath.fsum(j * c[j] * mpmath.sin(2 * mpmath.pi * j * x) for j in n)

        roots = [mpmath.findroot(dphi, (float(nu[i - 1]), float(nu[i + 1]))) for i in turns]
        extrema = [float(phi(x)) for x in roots]
    extrema += [float(phi(mpmath.mpf(0))), float(phi(mpmath.mpf(0.5)))]
    assert abs(a - min(extrema)) <= 1e-14 * r[0]
    assert abs(b - max(extrema)) <= 1e-14 * r[0]


def test_public_builders_keep_their_stability_check(pulse25, monkeypatch):
    import uwbpulse.lowdin

    def unstable(p, shift):
        raise UnstableGeneratorError("stub: unstable")

    monkeypatch.setattr(uwbpulse.lowdin, "riesz_bounds", unstable)
    shift = pulse25.duration() / 2
    with pytest.raises(UnstableGeneratorError):
        up.lowdin_family(pulse25, shift, 4)
    with pytest.raises(UnstableGeneratorError):
        up.approx_lowdin_family(pulse25, shift, 4)
    with pytest.raises(UnstableGeneratorError):
        gram_schmidt_family(pulse25, shift, 4)
    with pytest.raises(UnstableGeneratorError):
        up.orthonormal_generator(pulse25, shift)


def test_builders_refuse_a_spectral_zero_between_nodes():
    # p = [1, -2 cos th, 1] has |p^|^2 = (2 cos 2 pi nu - 2 cos th)^2, so
    # A = 0 at nu = th / (2 pi), which no circulant node l/N hits for an
    # irrational th / pi
    theta = math.pi / (math.sqrt(2.0) + 1.0)
    p = SampledPulse(TimeGrid(1.0, 0, 3), [1.0, -2.0 * math.cos(theta), 1.0])
    for build in (
        lambda: up.lowdin_family(p, 1.0, 2),
        lambda: up.approx_lowdin_family(p, 1.0, 2),
        lambda: gram_schmidt_family(p, 1.0, 2),
        lambda: up.orthonormal_generator(p, 1.0),
    ):
        with pytest.raises(UnstableGeneratorError):
            build()


def test_lowdin_family_ignores_the_pulse_scale(pulse25):
    # the stability rule is relative to r(0): a scaled pulse has the same
    # orthonormal members, however small its energy
    shift = pulse25.duration() / 2
    ref = up.lowdin_family(pulse25, shift, 4).samples
    for c in (1e-6, 1e3):
        scaled = SampledPulse(pulse25.grid, c * pulse25.samples)
        got = up.lowdin_family(scaled, shift, 4).samples
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_nyquist_spectrum_power_refuses_unstable_translates():
    # [1, -1] at a one-step shift: the folded spectrum 2 - 2 cos(2 pi nu) is
    # zero at nu = 0 only, so it is positive at every frequency asked for
    p = SampledPulse(TimeGrid(1.0, 0, 2), [1.0, -1.0])
    with pytest.raises(UnstableGeneratorError):
        nyquist_spectrum_power(p, 1.0, [0.1, 0.25, 0.4])
