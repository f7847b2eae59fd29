"""Filter program: weights, LP solve, factorization, filter diagnostics."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linprog

import uwbpulse as up
from uwbpulse import defaults, optimizer
from uwbpulse.errors import ConfigurationError, FactorizationError, InfeasibleError
from uwbpulse.optimizer import (
    AutocorrVector,
    FilterTaps,
    passband_weights,
    solve_autocorr_lp,
)
from uwbpulse.signals import SampledPulse, TimeGrid
from uwbpulse.spectral import CosinePoly, SpectralMask, segment_bounds

from conftest import (
    DEEP_SEGMENT_DRIFT,
    direct_power,
    drifted_fcc_mask,
    gram_symbol,
    reconciliation_filter_delta2,
    shift_orthogonality_defect,
)

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
    autocorr = design25.solution.autocorr
    rhat = CosinePoly(autocorr.r, autocorr.clock)
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
    # the LP's rows are the grid and the start's floor and ceiling rows
    # at L nodes, whatever the order
    sols = {d.taps.order: d.solution for d in (design1, design5, design15, design25)}
    n = 512 * optimizer.GRID_REFINE
    segments = len(segment_bounds(mask))
    for order, sol in sols.items():
        assert sol.lp_rows == n * segments + 1 + segments * (n + 1) + 2 * order, order
        assert sol.backoff_rounds == 1, order


# HiGHS, the oracle for the package's own simplex, at the options the
# shaping LP was solved with before that simplex replaced it
_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# HiGHS's tolerances are absolute and go no lower than 1e-10, and at 1e-10
# its vertex can leave a row of the shaping LP violated by ~1e-11, 1e-9 off
# the optimum.  Every row times 1e4 is the same LP with the same x, on
# which its tolerance is 1e-14 in the LP's own units.
_ROW_SCALE = 1e4


def _full_linprog(c, a_ub, b_ub, options=_HIGHS_OPTIONS):
    return linprog(
        c,
        A_ub=_ROW_SCALE * a_ub,
        b_ub=_ROW_SCALE * b_ub,
        bounds=[(None, None)] * len(c),
        method="highs",
        options=options,
    )


def _vertex_optimum(c, a_ub, b_ub, marginals):
    """c . x at the vertex where the rows with a nonzero multiplier hold
    with equality, solved in 40 digits: the exact optimum of that basis,
    free of any solver's rounding.  None at a degenerate vertex, where
    fewer than len(c) rows carry a multiplier."""
    rows = np.flatnonzero(np.asarray(marginals) != 0.0)
    if len(rows) != len(c):
        return None
    with mpmath.workdps(40):
        a = mpmath.matrix(a_ub[rows].tolist())
        x = mpmath.lu_solve(a, mpmath.matrix(b_ub[rows].tolist()))
        return float(mpmath.fdot(c.tolist(), x))


def _assert_matches_highs(c, a_ub, b_ub, res, ref=None, label=None):
    """The simplex's optimum is HiGHS's: its reported optimum within
    1e-12 relative of the exact optimum of HiGHS's basis (of HiGHS's own
    figure at a degenerate vertex), x within 1e-9 of its scale, and no
    row violated by more than 1e-10; and its marginals certify it:
    y <= 0 (SciPy's sign) with a_ub^T y = c to 1e-12 of max |c|, and
    y . b_ub = c . x to 1e-9.

    HiGHS's own figures carry rounding of about cond(basis) * eps,
    5e-12 relative at some drawn vertices, so its basis, not its
    figure, is the reference."""
    ref = _full_linprog(c, a_ub, b_ub) if ref is None else ref
    assert res.status == 0 and ref.status == 0, (label, res.status, ref.status)
    assert np.abs(res.x - ref.x).max() <= 1e-9 * np.abs(ref.x).max(), label
    optimum = _vertex_optimum(c, a_ub, b_ub, ref.ineqlin.marginals)
    optimum = ref.fun if optimum is None else optimum
    assert abs(res.fun - optimum) <= 1e-12 * abs(optimum), (label, res.fun, optimum)
    assert np.max(a_ub @ res.x - b_ub) <= 1e-10, label
    y = np.asarray(res.ineqlin.marginals)
    assert y.shape == b_ub.shape and np.all(y <= 0.0), label
    assert np.abs(a_ub.T @ y - c).max() <= 1e-12 * np.abs(c).max(), label
    assert abs(y @ b_ub - res.fun) <= 1e-9 * abs(res.fun), label


class _RecordLinprog:
    """Within the block, each optimizer.linprog call is recorded as
    (c, A_ub, b_ub, basis, result) before it returns."""

    def __enter__(self):
        self.calls, self.solve = [], optimizer.linprog

        def record(c, *, A_ub, b_ub, basis):
            res = self.solve(c, A_ub=A_ub, b_ub=b_ub, basis=basis)
            self.calls.append((c, A_ub, b_ub, basis, res))
            return res

        optimizer.linprog = record
        return self.calls

    def __exit__(self, *exc):
        optimizer.linprog = self.solve


def test_row_generation_re_solves_on_about_the_active_rows():
    # one linprog call takes all the rows, and the simplex prices them all
    # only once per round; between rounds it prices a working set that
    # grows by one row per violated run, a few L rows of the thousands
    for order in (1, 5, 15, 25):
        with _RecordLinprog() as calls:
            sol = up.design_pulse(order=order).solution
        assert [len(b_ub) for _, _, b_ub, _, _ in calls] == [sol.lp_rows], order
        res = calls[0][4]
        assert sol.lp_rows_priced == res.rows_priced <= 8 * order, (order, res.rows_priced)
        assert sol.lp_pivots == res.nit >= order - 1, order


@pytest.mark.parametrize("density", [32, 64])
@pytest.mark.parametrize("order", [15, 25])
def test_row_generation_starts_bounded_on_a_coarse_grid(order, density):
    # the simplex starts from a basis whose multipliers are feasible, so a
    # coarse grid, whose segments hold few rows, needs no dense start and
    # no fallback: its one solve is HiGHS's optimum and prices a fraction
    # of the rows
    with _RecordLinprog() as calls:
        up.design_pulse(order=order, grid_density=density)
    ((c, a_ub, b_ub, _, res),) = calls
    _assert_matches_highs(c, a_ub, b_ub, res, label=(order, density))
    assert res.rows_priced < len(b_ub) // 4, res.rows_priced


@pytest.fixture(scope="module")
def design_lps():
    """The shaping LP of the designs at L = 1, 5, 15, 25, as
    (L, c, a_ub, b_ub, basis), recorded from solve_autocorr_lp."""
    lps = []
    for order in (1, 5, 15, 25):
        with _RecordLinprog() as calls:
            up.design_pulse(order=order)
        lps += [(order, c, a_ub, b_ub, basis) for c, a_ub, b_ub, basis, _ in calls]
    return lps


def test_row_generation_finds_the_full_lp_optimum(design_lps):
    assert sorted({lp[0] for lp in design_lps}) == [1, 5, 15, 25]
    for order, c, a_ub, b_ub, basis in design_lps:
        res = optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=basis)
        _assert_matches_highs(c, a_ub, b_ub, res, label=order)
        # and it got there pricing a fraction of the rows at each pivot
        assert res.rows_priced <= len(b_ub) // 2, (order, res.rows_priced, len(b_ub))


def test_row_generation_finds_the_one_row_that_bounds_a_variable():
    # a random polygon bounds (x0, x1); x2 is bounded only by row 5, and
    # the working set starts empty, so only pricing every row finds it
    rng = np.random.default_rng(8)
    n = 400
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    a_ub = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    b_ub = rng.uniform(1.0, 2.0, n)
    a_ub[5] = [0.0, 0.0, 1.0]
    c = np.array([-1.0, -0.5, -1.0])
    # the start: row 5 and the two polygon rows whose angles bracket -c's
    k = int(np.searchsorted(theta, math.atan2(0.5, 1.0)))
    assert k - 1 > 5
    res = optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=[k - 1, k, 5])
    _assert_matches_highs(c, a_ub, b_ub, res, _full_linprog(c, a_ub, b_ub, {"presolve": True}))
    assert res.ineqlin.marginals[5] == pytest.approx(-1.0, rel=1e-12)


def test_row_generation_terminates_on_a_degenerate_lp():
    # maximize y: every row twice, and five rows tied at the optimum (0, 1),
    # so many bases share that vertex, and pivots between them leave the
    # objective where it is
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 2.0 * np.pi, 320)
    a_ub = np.column_stack([np.cos(theta), np.sin(theta)])
    b_ub = np.full(320, 50.0)  # loose rows
    a_ub[[0, 32, 64, 96]] = [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
    b_ub[[0, 32, 64, 96]] = [1.0, 10.0, 10.0, 10.0]
    for i, sign in ((150, 1.0), (250, -1.0)):
        a_ub[i : i + 3] = [[sign, 0.0], [0.05 * sign, 1.0], [0.1 * sign, 1.0]]
        b_ub[i : i + 3] = [5.0, 1.0, 1.0]
    a_ub, b_ub = np.repeat(a_ub, 2, axis=0), np.repeat(b_ub, 2)
    c = np.array([0.0, -1.0])
    # the start: y <= 1 and x <= 10, at multipliers 1 and 0
    res = optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=[0, 64])
    _assert_matches_highs(c, a_ub, b_ub, res, _full_linprog(c, a_ub, b_ub, {"presolve": True}))


# each LP lists its start first: len(c) rows with nonnegative multipliers
@pytest.mark.parametrize(
    "a_ub, b_ub, c, status",
    [
        # -x <= -1 (x >= 1) and x <= -1
        ([[-1.0], [1.0]], [-1.0, -1.0], [1.0], 2),
        # x0 + x1 <= 1, x0 - x1 <= 0 and x0 + x1 >= 2, with c in the rows' span
        ([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]], [1.0, 0.0, -2.0], [-1.0, -1.0], 2),
    ],
)
def test_simplex_tells_infeasible_from_unbounded(a_ub, b_ub, c, status):
    # a dual-feasible start proves the LP bounded, so an LP with no
    # feasible point is the one that ends on a dual ray
    a_ub, b_ub, c = np.asarray(a_ub), np.asarray(b_ub), np.asarray(c)
    assert optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=range(len(c))).status == status
    assert _full_linprog(c, a_ub, b_ub, {"presolve": False}).status == status


def test_simplex_refuses_a_start_with_a_negative_multiplier():
    # minimize -x0 - x1 with x0 <= 1, x1 <= 1 and x0 + x1 <= 1.5: each
    # start of two of those rows, at multipliers (0, 1), (1, 1) and (0, 1),
    # reaches the optimum; on -x0 <= 0 and x1 <= 1 they are (-1, 1)
    a_ub = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
    b_ub = np.array([1.0, 1.0, 1.5, 0.0])
    c = np.array([-1.0, -1.0])
    for basis in ([0, 2], [0, 1], [1, 2]):
        assert optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=basis).fun == -1.5
    with pytest.raises(ConfigurationError, match="negative multiplier"):
        optimizer.linprog(c, A_ub=a_ub, b_ub=b_ub, basis=[3, 1])


def test_singular_basis_is_a_refused_lp(monkeypatch, monocycle, mask):
    # a basis that rounding makes singular ends the solve as a failure
    # (status 4, ConfigurationError: exit 2), not as an internal error
    def singular(self):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(optimizer._DualSimplex, "refactor", singular)
    res = optimizer.linprog(np.array([0.0, -1.0]), A_ub=np.eye(2), b_ub=np.ones(2), basis=[0, 1])
    assert res.status == 4 and "singular" in res.message
    gammas = up.fit_mask_polynomials(mask, monocycle, 5)
    weights = passband_weights(monocycle, mask.passband, 5, T0)
    with pytest.raises(ConfigurationError, match="LP solver failed"):
        solve_autocorr_lp(weights, gammas, mask)


def _farkas_bound(a_ub, b_ub):
    """min b_ub . y over y >= 0 with a_ub^T y = 0 and sum(y) = 1, by
    HiGHS: below zero iff no x has a_ub x <= b_ub (Farkas).  This LP has
    L + 1 rows, so HiGHS settles it fast even where it spends minutes
    on the infeasible shaping LP itself."""
    n, L = a_ub.shape
    eq = np.vstack([a_ub.T, np.ones((1, n))])
    res = linprog(b_ub, A_eq=eq, b_eq=np.append(np.zeros(L), 1.0), method="highs")
    assert res.status == 0
    return res.fun


@settings(max_examples=20, deadline=None)
# on unscaled rows, HiGHS's vertex left a row 7.6e-12 violated (_ROW_SCALE)
@example(
    edges=[-98761626.17079054, -142829409.81689614, 38657906.193859965, 41189233.24934718],
    db=[-5.162972182473595, 1.3404718137604927, 9.660717138914112, 7.103595440564057,
        -4.479069257223845],
    order=29,
    density=374,
)
# drift in the updated inverse prices in a row with no pivot
@example(
    edges=[-91141438.9547086, -115086906.77039203, 54214205.714298666, 136234625.36344743],
    db=[5.347902840807599, -6.984000342901058, -6.468469999228523, 0.05239048485434239,
        -9.643909508102029],
    order=30,
    density=185,
)
@given(
    edges=st.lists(st.floats(-0.15e9, 0.15e9), min_size=4, max_size=4),
    db=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
    order=st.integers(1, 30),
    density=st.integers(32, 512),
)
def test_simplex_matches_highs_on_drawn_masks(monocycle, edges, db, order, density):
    # the FCC mask with its inner edges moved by up to 0.15 GHz and its
    # levels by up to 10 dB.  The simplex's optimum is HiGHS's; an LP it
    # calls infeasible has a Farkas certificate (HiGHS on the full LP can
    # spend minutes there), and the design's error says so
    drawn = drifted_fcc_mask(edges, db)
    gammas = up.fit_mask_polynomials(drawn, monocycle, order, density)
    weights = passband_weights(monocycle, drawn.passband, order, drawn.clock)
    with _RecordLinprog() as calls:
        try:
            solve_autocorr_lp(weights, gammas, drawn, density)
            refused = False
        except InfeasibleError:
            refused = True
    ((c, a_ub, b_ub, _, res),) = calls
    assert res.status in (0, 2) and refused == (res.status == 2), res.status
    if res.status == 0:
        _assert_matches_highs(c, a_ub, b_ub, res)
    else:
        assert _farkas_bound(a_ub, b_ub) < -1e-9


def test_lp_infeasible_signals():
    gam = CosinePoly(np.concatenate([[-1.0], np.zeros(L - 1)]), T0)
    weights = np.zeros(L)
    weights[0] = 1.0
    with pytest.raises(InfeasibleError):
        solve_autocorr_lp(weights, [gam], one_segment_mask(14e9), 128)


@pytest.mark.parametrize("density", [8, 258, 512, 2048])
def test_lp_refusal_names_a_segment_without_headroom(density):
    # segment 0's fitted ceiling less the margin sits below the floor, on
    # a coarse fit (density 8) as on fine ones: the error names the segment
    # and its headroom on this fit and gives no grid advice
    with pytest.raises(InfeasibleError) as info:
        deep = drifted_fcc_mask(*DEEP_SEGMENT_DRIFT)
        up.design_pulse(order=10, mask=deep, grid_density=density)
    msg = str(info.value)
    assert "mask segment 0 (0 to 1.702e+09 Hz) has headroom -" in msg
    assert "on this fit" in msg
    assert "segment 1" not in msg and "grid" not in msg


def test_lp_needs_one_ceiling_per_segment(mask):
    gam = CosinePoly(np.concatenate([[1.0], np.zeros(L - 1)]), T0)
    with pytest.raises(ConfigurationError):
        solve_autocorr_lp(np.ones(L), [gam], mask, 128)


def test_lp_refuses_ceilings_at_another_clock():
    # a mask over a sliver of the band, and a ceiling at the full band's
    # clock: the ceiling's nodes would leave the rest of its period
    # uncontrolled, and the start's nodes would not span its basis
    gam = CosinePoly(np.concatenate([[1.0], np.zeros(L - 1)]), T0)
    with pytest.raises(ConfigurationError, match="mask's clock"):
        solve_autocorr_lp(np.ones(L), [gam], one_segment_mask(0.5e9), 128)


@pytest.mark.parametrize("order", [1, 5, 15, 25, 30])
def test_lp_starts_from_a_well_conditioned_dual_feasible_basis(order):
    # the start's rows are +-phi at the band's Chebyshev nodes: a DCT-II
    # matrix up to row signs, with condition sqrt 2 at every order, and
    # the signs make every multiplier nonnegative
    with _RecordLinprog() as calls:
        up.design_pulse(order=order)
    ((c, a_ub, b_ub, basis, res),) = calls
    start = a_ub[basis]
    assert np.linalg.cond(start) <= math.sqrt(2.0) * (1.0 + 1e-12), order
    assert np.all(np.linalg.solve(start.T, -c) >= 0.0), order
    assert res.status == 0


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
        (1, 0.002806281604127689),
        (5, 0.4102135121028515),
        (15, 0.7761383633092666),
        (25, 0.8722705556330902),
    ],
)
def test_design_nesp_matches_reference(order, ref, request):
    # nesp with the passband edges sampled, so that the trapezoid rule
    # spans the whole passband; it may move only by rounding
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
        roots = np.roots(g.taps)
        if len(roots):
            assert np.max(np.abs(roots)) <= 1.0 + 1e-9


def test_factorize_design_roots_inside(design25):
    roots = np.roots(design25.taps.taps)
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
        assert shift_orthogonality_defect(g, delta) == 0.0


def test_orthogonality_defect_two_taps():
    g = FilterTaps(np.array([1.0, 1.0]) / math.sqrt(2.0), T0)
    assert shift_orthogonality_defect(g, 1) == pytest.approx(0.5, rel=1e-12)


def test_orthogonality_defect_design_vs_family(design25):
    value = shift_orthogonality_defect(design25.taps, 5)
    assert 0.0 < value < design25.taps.autocorrelation()[0]
    # the family at T = 5 T0 still reaches near-orthogonality
    fam, centered, report = up.build_family(design25.pulse, 6, 2, "lo")
    from uwbpulse.signals import autocorr_samples

    r = autocorr_samples(centered, report["shift_seconds"])
    assert np.abs(r[1:]).max() / r[0] <= 1e-2
    print(f"filter defect at 5 clocks: {value:.3e}; family correlation: {np.abs(r[1:]).max() / r[0]:.3e}")


def test_reconciliation_impulse_formula(monocycle):
    g = FilterTaps(np.array([1.0]), T0)
    poly = reconciliation_filter_delta2(g, monocycle)
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
    poly = reconciliation_filter_delta2(g, q0)
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
        reconciliation_filter_delta2(FilterTaps(taps, T0), design1.monocycle)
    q = SampledPulse(TimeGrid(T0, 1, 3), taps)
    with pytest.raises(ConfigurationError, match="folded spectrum of q"):
        reconciliation_filter_delta2(FilterTaps(np.array([1.0]), T0), q)


def test_orthogonalize_then_shape_equals_shape_then_orthogonalize(design25):
    # at the clock shift, the shaping filter drops out of the
    # orthogonalized power spectrum entirely
    from conftest import nyquist_spectrum_power

    q = design25.monocycle
    p = design25.pulse
    freqs = np.linspace(0.0, 14e9, 4001)
    pq = nyquist_spectrum_power(q, T0, freqs)
    pp = nyquist_spectrum_power(p, T0, freqs)
    assert np.abs(pq - pp).max() <= 1e-8 * np.max(pq)
