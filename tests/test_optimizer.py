"""Filter program: weights, LP solve, factorization, filter diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linprog

import uwbpulse as up
from uwbpulse import defaults, optimizer
from uwbpulse.errors import (
    ConfigurationError,
    FactorizationError,
    InfeasibleError,
    UnboundedError,
)
from uwbpulse.optimizer import (
    AutocorrVector,
    FilterTaps,
    min_phase_roots,
    passband_weights,
    solve_autocorr_lp,
)
from uwbpulse.signals import SampledPulse, TimeGrid
from uwbpulse.spectral import CosinePoly, SpectralMask, segment_bounds

from conftest import direct_power

T0 = defaults.CLOCK_T0
L = defaults.FIR_ORDER


def one_segment_mask(f_hi: float) -> SpectralMask:
    return SpectralMask(((0.0, f_hi, 1.0),), (0.0, f_hi))


# --------------------------------------------------------------- weights


def test_weights_closed_form_flat_spectrum():
    # a one-sample pulse of height 1/dt has |q^|^2 = 1 everywhere, so on
    # [0, W]: c_0 = W, c_n = sin(2 pi W n T0) / (pi n T0)
    w_band = 5e9
    dt = T0 / 32
    q = SampledPulse(TimeGrid(dt, 0, 1), np.array([1.0 / dt]))
    c = passband_weights(q, (0.0, w_band), L, T0)
    assert c[0] == pytest.approx(w_band, rel=1e-12)
    for n in range(1, L):
        expect = math.sin(2 * math.pi * w_band * n * T0) / (math.pi * n * T0)
        assert c[n] == pytest.approx(expect, rel=1e-12, abs=w_band * 1e-12)


def test_weights_match_quadrature_of_exact_spectrum(monocycle, mask):
    # independent oracle: adaptive quadrature of direct_power * phi_n over
    # the passband, in GHz and relative to the peak power
    lo, hi = mask.passband
    c = passband_weights(monocycle, mask.passband, L, T0)
    peak = float(direct_power(monocycle, defaults.CENTER_FREQ)[0])
    for n in range(L):

        def integrand(x, n=n):
            phi = 1.0 if n == 0 else 2.0 * math.cos(2.0 * math.pi * x * 1e9 * n * T0)
            return float(direct_power(monocycle, x * 1e9)[0]) / peak * phi

        ref, _ = quad(integrand, lo / 1e9, hi / 1e9, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(c[n] - ref * 1e9 * peak) <= 1e-12 * np.abs(c).max(), n


def test_weights_positive_dc_term(monocycle, mask):
    c = passband_weights(monocycle, mask.passband, L, T0)
    assert c[0] > 0.0


# -------------------------------------------------------------------- LP


def test_lp_flat_ceiling_saturates_dc():
    c_level = 3.0
    gam = CosinePoly(np.concatenate([[c_level], np.zeros(L - 1)]), T0)
    weights = np.zeros(L)
    weights[0] = 1.0
    sol = solve_autocorr_lp(weights, [gam], one_segment_mask(14e9), 512)
    r = sol.autocorr.r
    # optimum is the constant spectrum pinned at the (backed-off) ceiling
    assert r[0] == pytest.approx(c_level, rel=1e-4)
    assert np.abs(r[1:]).max() <= 1e-6 * c_level


def test_lp_solution_feasible_on_dense_grid(design25):
    assert design25.solution.feasibility_margin >= 0.0
    rhat = design25.solution.autocorr.spectrum_poly()
    for i, gam in enumerate(design25.gammas):
        a, b = segment_bounds(design25.mask)[i]
        nu = np.linspace(a, b, 4 * 512 + 1)
        assert np.all(np.asarray(rhat(nu)) <= np.asarray(gam(nu)) + 1e-15)
    nu = np.linspace(0.0, 14e9, 4 * 2560 + 1)
    assert np.min(np.asarray(rhat(nu))) > 0.0


def test_lp_duality_certificate(design25):
    sol = design25.solution
    assert abs(sol.objective - sol.dual_bound) <= 1e-5 * abs(sol.objective)


def test_lp_objective_refinement(monocycle, mask):
    w = passband_weights(monocycle, mask.passband, L, T0)
    gammas = up.fit_mask_polynomials(mask, monocycle, L)
    s1 = solve_autocorr_lp(w, gammas, mask, 512)
    s2 = solve_autocorr_lp(w, gammas, mask, 1024)
    assert abs(s1.objective - s2.objective) <= 1e-5 * abs(s1.objective)


def test_lp_monotone_in_order(monocycle, mask):
    # nested feasible sets: same ceilings, leading coefficient blocks only
    gammas = up.fit_mask_polynomials(mask, monocycle, L)
    w_full = passband_weights(monocycle, mask.passband, L, T0)
    objectives = []
    for order in (5, 15, 25):
        sol = solve_autocorr_lp(w_full[:order], gammas, mask, 512)
        objectives.append(sol.objective)
    assert objectives[0] <= objectives[1] * (1 + 1e-9)
    assert objectives[1] <= objectives[2] * (1 + 1e-9)


def test_lp_is_one_grid_at_every_order(design1, design5, design15, design25, mask):
    # the LP's rows are the grid alone, whatever the order: at L = 1 the
    # constant ceilings once added ~2,000 near-active copies of one row
    sols = {d.taps.order: d.solution for d in (design1, design5, design15, design25)}
    n = 512 * optimizer.GRID_REFINE
    segments = len(segment_bounds(mask))
    for order, sol in sols.items():
        assert sol.lp_rows == n * segments + 1 + segments * (n + 1), order
        assert sol.backoff_rounds == 1, order
    assert sols[1].lp_rows_solved <= sols[25].lp_rows_solved


def _full_linprog(c, a_ub, b_ub, options):
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * len(c), method="highs", options=options
    )


@pytest.fixture(scope="module")
def design_lps():
    """The shaping LP of the designs at L = 1, 5, 15, 25, as
    (L, c, a_ub, b_ub, options), recorded from solve_autocorr_lp with
    the LP solved on all its rows."""
    lps = []
    calls = []
    solve = optimizer._linprog_rows

    def record(c, a_ub, b_ub, options):
        calls.append((c, a_ub, b_ub, options))
        res = _full_linprog(c, a_ub, b_ub, options)
        res.rows_solved, res.solves = len(b_ub), 1
        return res

    optimizer._linprog_rows = record
    try:
        for order in (1, 5, 15, 25):
            up.design_pulse(order=order)
            lps += [(order, *call) for call in calls]
            calls.clear()
    finally:
        optimizer._linprog_rows = solve
    return lps


def test_row_generation_finds_the_full_lp_optimum(design_lps):
    assert sorted({lp[0] for lp in design_lps}) == [1, 5, 15, 25]
    for order, c, a_ub, b_ub, options in design_lps:
        res = optimizer._linprog_rows(c, a_ub, b_ub, options)
        ref = _full_linprog(c, a_ub, b_ub, options)
        assert res.status == 0 and ref.status == 0
        scale = np.abs(ref.x).max()
        assert np.abs(res.x - ref.x).max() <= 1e-9 * scale, order
        assert abs(res.fun - ref.fun) <= 1e-12 * abs(ref.fun), order
        # the scattered marginals certify the full LP: y . b_ub = c . x
        y = np.asarray(res.ineqlin.marginals)
        assert y.shape == b_ub.shape
        assert abs(y @ b_ub - res.fun) <= 1e-9 * abs(res.fun), order
        assert np.max(a_ub @ res.x - b_ub) <= 1e-10, order
        # and it got there from a fraction of the rows
        assert res.rows_solved <= len(b_ub) // 2, (order, res.rows_solved, len(b_ub))


def test_row_generation_falls_back_when_the_working_set_is_unbounded():
    # a random polygon bounds (x0, x1) from every 64th row on; x2 is
    # bounded only by row 5, which is outside the first working set
    rng = np.random.default_rng(8)
    n = 400
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    a_ub = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    b_ub = rng.uniform(1.0, 2.0, n)
    a_ub[5] = [0.0, 0.0, 1.0]
    c = np.array([-1.0, -0.5, -1.0])
    options = {"presolve": True}
    res = optimizer._linprog_rows(c, a_ub, b_ub, options)
    ref = _full_linprog(c, a_ub, b_ub, options)
    assert res.status == 0 and ref.status == 0
    assert res.solves == 2 and res.rows_solved == n  # one working set, then all rows
    assert np.abs(res.x - ref.x).max() <= 1e-9 * np.abs(ref.x).max()
    assert res.fun == pytest.approx(ref.fun, rel=1e-12)
    assert np.asarray(res.ineqlin.marginals) @ b_ub == pytest.approx(res.fun, rel=1e-9)


def test_lp_infeasible_signals():
    gam = CosinePoly(np.concatenate([[-1.0], np.zeros(L - 1)]), T0)
    weights = np.zeros(L)
    weights[0] = 1.0
    with pytest.raises(InfeasibleError):
        solve_autocorr_lp(weights, [gam], one_segment_mask(14e9), 128)


def test_lp_needs_one_ceiling_per_segment(mask):
    gam = CosinePoly(np.concatenate([[1.0], np.zeros(L - 1)]), T0)
    with pytest.raises(ConfigurationError):
        solve_autocorr_lp(np.ones(L), [gam], mask, 128)


def test_lp_unbounded_signals():
    # ceiling only over a sliver of the band leaves the rest uncontrolled
    gam = CosinePoly(np.concatenate([[1.0], np.zeros(L - 1)]), T0)
    weights = np.ones(L)
    with pytest.raises(UnboundedError):
        solve_autocorr_lp(weights, [gam], one_segment_mask(0.5e9), 128)


# ---------------------------------------------------------- factorization


def test_factorize_identity():
    r = AutocorrVector(np.concatenate([[1.0], np.zeros(L - 1)]), T0)
    g = up.spectral_factorize(r)
    assert g.taps[0] == pytest.approx(1.0, rel=1e-12)
    assert np.abs(g.taps[1:]).max() <= 1e-12


def test_factorize_two_taps():
    taps = np.array([1.0, 0.5])
    r = AutocorrVector(np.correlate(taps, taps, "full")[1:], T0)
    g = up.spectral_factorize(r)
    assert np.allclose(g.autocorrelation(), r.r, atol=1e-12)
    assert g.taps[1] / g.taps[0] == pytest.approx(0.5, rel=1e-9)


def test_factorize_design_roundtrip(design25):
    r = design25.solution.autocorr
    g = design25.taps
    assert np.abs(g.autocorrelation() - r.r).max() <= 1e-7
    assert g.factorization_error == np.abs(g.autocorrelation() - r.r).max()
    assert g.taps[0] > 0.0


@pytest.mark.parametrize(
    "order, ref",
    [
        (1, 0.0028062563455705917),
        (5, 0.41021269545898464),
        (15, 0.77613673700165065),
        (25, 0.87226893141506745),
    ],
)
def test_design_nesp_matches_reference(order, ref, request):
    # nesp while |q^|^2 came from a direct phasor sum; the cosine-series
    # form may move it only by rounding
    assert request.getfixturevalue(f"design{order}").nesp_value == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("empty_grid", ["samples_per_clock", "grid_density"])
def test_design_rejects_an_empty_grid(empty_grid):
    # zero steps per clock divided by zero, zero fit nodes took max() of nothing
    with pytest.raises(ConfigurationError, match=empty_grid):
        up.design_pulse(order=1, **{empty_grid: 0})


def test_factorize_random_roundtrip():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        order = int(rng.integers(2, 26))
        taps = rng.normal(size=order)
        r = np.correlate(taps, taps, "full")[order - 1 :]
        r[0] += 0.05 * r[0]  # keep the spectrum strictly positive
        vec = AutocorrVector(r / r[0], T0)
        g = up.spectral_factorize(vec)
        assert np.abs(g.autocorrelation() - vec.r).max() <= 1e-7
        roots = min_phase_roots(g)
        if len(roots):
            assert np.max(np.abs(roots)) <= 1.0 + 1e-9


def test_factorize_design_roots_inside(design25):
    roots = min_phase_roots(design25.taps)
    assert np.max(np.abs(roots)) <= 1.0 + 1e-9


def test_factorize_rejects_vanishing_spectrum():
    # r^ of (1 - cos) touches zero at nu = 0
    r = np.zeros(3)
    r[0], r[1] = 1.0, -0.5
    with pytest.raises(FactorizationError):
        up.spectral_factorize(AutocorrVector(r, T0))


def test_factorize_rejects_a_double_zero_between_grid_nodes():
    # r^ = (cos(2 pi nu T0) - u0)^2 vanishes to second order at
    # nu T0 = 1/(2 (sqrt(2) + 1)), an irrational point no uniform grid holds
    u0 = math.cos(math.pi / (math.sqrt(2) + 1))
    r = AutocorrVector(np.array([0.5 + u0**2, -u0, 0.25]), T0)
    with pytest.raises(FactorizationError, match="touches zero"):
        up.spectral_factorize(r)


def test_factorize_rejects_a_bad_round_trip(monkeypatch):
    # root finding is the only path: taps that miss r are not repaired
    monkeypatch.setattr(optimizer, "_factor_by_roots", lambda r: np.sqrt(r[:1]))
    r = AutocorrVector(np.array([1.0, 0.4]), T0)
    with pytest.raises(FactorizationError, match="round-trip"):
        up.spectral_factorize(r)


@pytest.mark.parametrize("move", ["one out", "one in"])
def test_factorize_refuses_a_wrong_inside_root_count(monkeypatch, move):
    # the reciprocal 1/conj(z) of a root z is a root too, so Newton's polish
    # keeps a moved root: L - 2 or L roots then count as inside the circle,
    # and only the round trip can tell
    taps = np.array([1.0, -0.6, 0.3, 0.1])
    r = AutocorrVector(np.correlate(taps, taps, "full")[3:], T0)
    roots_of = np.roots

    def misplaced(coeffs):
        z = roots_of(coeffs)
        inside = np.abs(z) < 1.0
        i = np.flatnonzero(inside if move == "one out" else ~inside)[0]
        z[i] = 1.0 / np.conj(z[i])
        return z

    monkeypatch.setattr(np, "roots", misplaced)
    with pytest.raises(FactorizationError, match="round-trip"):
        up.spectral_factorize(r)


# -------------------------------------------------- filter diagnostics


def test_orthogonality_defect_impulse():
    g = FilterTaps(np.concatenate([[1.0], np.zeros(9)]), T0)
    for delta in range(1, 6):
        assert up.shift_orthogonality_defect(g, delta) == 0.0


def test_orthogonality_defect_two_taps():
    g = FilterTaps(np.array([1.0, 1.0]) / math.sqrt(2.0), T0)
    assert up.shift_orthogonality_defect(g, 1) == pytest.approx(0.5, rel=1e-12)


def test_orthogonality_defect_design_vs_family(design25):
    value = up.shift_orthogonality_defect(design25.taps, 5)
    assert 0.0 < value < design25.taps.autocorrelation()[0]
    # the family at T = 5 T0 still reaches near-orthogonality
    fam, centered, report = up.build_family(design25.pulse, 6, 2, "lo")
    from uwbpulse.signals import autocorr_samples

    r = autocorr_samples(centered, report["shift_seconds"])
    assert np.abs(r[1:]).max() / r[0] <= 1e-2
    print(f"filter defect at 5 clocks: {value:.3e}; family correlation: {np.abs(r[1:]).max() / r[0]:.3e}")


def test_reconciliation_impulse_formula(monocycle):
    from uwbpulse.signals import autocorr_samples, gram_symbol

    g = FilterTaps(np.array([1.0]), T0)
    poly = up.reconciliation_filter_delta2(g, monocycle)
    nu = np.linspace(0.0, 0.5 / T0, 257)
    phi = np.asarray(gram_symbol(monocycle, T0, nu * T0))
    phi_half = np.asarray(gram_symbol(monocycle, T0, nu * T0 + 0.5))
    expect = phi / (phi + phi_half)
    assert np.allclose(np.asarray(poly(nu)), expect, rtol=1e-9, atol=1e-12)


def test_reconciliation_orthogonal_input_is_constant(monocycle):
    # a clock-orthonormal pulse is already orthogonal at twice the clock,
    # so there is nothing left to repair: the spectrum is flat at 1/2
    q0 = up.orthonormal_generator(monocycle, T0).pulse
    g = FilterTaps(np.array([1.0]), T0)
    poly = up.reconciliation_filter_delta2(g, q0)
    nu = np.linspace(0.0, 0.5 / T0, 513)
    vals = np.asarray(poly(nu))
    assert np.abs(vals - 0.5).max() <= 1e-6


def test_reconciliation_refuses_double_zero_between_nodes(design1):
    # [1, -2 cos th, 1] has the power spectrum (2 cos(2 pi nu T0) - 2 cos th)^2,
    # a double zero at nu T0 = th / (2 pi), irrational for th = pi / (sqrt 2 + 1)
    # and so off every uniform grid; as filter taps, and as a pulse sampled
    # at the clock whose folded spectrum is that same series
    th = math.pi / (math.sqrt(2.0) + 1.0)
    taps = np.array([1.0, -2.0 * math.cos(th), 1.0])
    with pytest.raises(ConfigurationError, match="filter power spectrum"):
        up.reconciliation_filter_delta2(FilterTaps(taps, T0), design1.monocycle)
    q = SampledPulse(TimeGrid(T0, 1, 3), taps)
    with pytest.raises(ConfigurationError, match="folded spectrum of q"):
        up.reconciliation_filter_delta2(FilterTaps(np.array([1.0]), T0), q)


def test_orthogonalize_then_shape_equals_shape_then_orthogonalize(design25):
    # at the clock shift, the shaping filter drops out of the
    # orthogonalized power spectrum entirely
    from uwbpulse.lowdin import nyquist_spectrum_power

    q = design25.monocycle
    p = design25.pulse
    freqs = np.linspace(0.0, 14e9, 4001)
    pq = nyquist_spectrum_power(q, T0, freqs)
    pp = nyquist_spectrum_power(p, T0, freqs)
    assert np.abs(pq - pp).max() <= 1e-8 * np.max(pq)
