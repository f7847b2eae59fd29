"""Mask-constrained FIR design over filter autocorrelations.

The shaping problem is linear in the filter's autocorrelation sequence:
maximize the passband power subject to the autocorrelation spectrum
sitting above a small floor and below the fitted per-segment ceilings
less a small margin.  The objective weights are exact integrals of the
sampled monocycle's power spectrum (:func:`passband_weights`).  The
semi-infinite constraints are discretized on one dense frequency grid
and solved as one LP, with floor and margins fixed; the taps are then
recovered by minimum-phase spectral factorization, from the roots of
the lag polynomial.

The LP has tens of thousands of rows but only L free variables, so at
most about L rows are active at its optimum.  :func:`_linprog_rows`
solves it by row generation (the exchange method for semi-infinite LPs,
Hettich & Kortanek 1993): solve on a subset of the rows, add the most
violated of the others, repeat.  The LP is unchanged, and so is its
optimum; only the rows handed to the solver at once are fewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    ConfigurationError,
    FactorizationError,
    InfeasibleError,
    UnboundedError,
)
from .signals import (
    SampledPulse,
    _cosine_extrema,
    autocorr_samples,
    gram_symbol,
    lag_autocorrelation,
)
from .spectral import CosinePoly, SpectralMask, cosine_basis, segment_bounds

GRID_REFINE = 4  # the LP grid is this much denser than ``grid_density``
_ROW_STRIDE = 64  # row generation starts from every 64th row
_ROW_TOL = 1e-12  # a row violated by more than this joins the working set
_FACTOR_TOL = 1e-7  # largest error of the taps' autocorrelation round trip


@dataclass(frozen=True, eq=False)
class FilterTaps:
    """Real FIR taps at a fixed clock period."""

    taps: np.ndarray
    clock: float
    factorization_error: float | None = None  # spectral_factorize's round trip

    def __post_init__(self):
        object.__setattr__(self, "taps", np.asarray(self.taps, dtype=float))
        if self.clock <= 0:
            raise ConfigurationError("clock period must be positive")

    @property
    def order(self) -> int:
        return len(self.taps)

    def autocorrelation(self) -> np.ndarray:
        """One-sided tap autocorrelation r_0..r_{L-1}."""
        return lag_autocorrelation(self.taps, 1, len(self.taps) - 1)


@dataclass(frozen=True, eq=False)
class AutocorrVector:
    """Autocorrelation coefficients r_0..r_{L-1} of an implicit filter."""

    r: np.ndarray
    clock: float

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.clock <= 0:
            raise ConfigurationError("clock period must be positive")

    def spectrum_poly(self) -> CosinePoly:
        return CosinePoly(self.r, self.clock)


@dataclass(frozen=True)
class LpSolution:
    """Solver output: the maximizer plus its certificates."""

    autocorr: AutocorrVector
    objective: float
    dual_bound: float
    feasibility_margin: float
    lower_floor: float  # the fixed floor on the autocorrelation spectrum
    backoff_rounds: int  # always 1: one LP per solve; kept for the benchmark tracer
    lp_rows: int  # rows of the LP
    lp_rows_solved: int  # of those, the rows in its final working set
    lp_solves: int  # linprog calls


def passband_weights(
    q: SampledPulse, passband: tuple[float, float], L: int, clock: float
) -> np.ndarray:
    """Objective weights c_n = integral over the passband of |q^|^2 phi_n.

    Exact for the sampled pulse: with m samples and lag autocorrelation
    r, |q^(nu)|^2 = dt^2 sum_{|j|<m} r_|j| cos(2 pi nu j dt), so each c_n
    is a finite sum of cosine integrals, int_lo^hi cos(2 pi a nu) dnu =
    hi sinc(2 a hi) - lo sinc(2 a lo).
    """
    if L < 1:
        raise ConfigurationError("filter order must be at least 1")
    lo, hi = passband
    r = lag_autocorrelation(q.samples, 1, len(q.samples) - 1)
    r2 = np.concatenate([r[:0:-1], r])  # r_|j| for j = -(m-1)..m-1
    j = np.arange(1 - len(r), len(r))
    # summed over +-j, phi_n r_|j| cos(2 pi nu j dt) integrates to
    # (2 if n else 1) r_|j| times the cosine integral at a = j dt - n clock
    a = j * q.dt - np.arange(L)[:, None] * clock
    c = q.dt**2 * ((hi * np.sinc(2.0 * a * hi) - lo * np.sinc(2.0 * a * lo)) @ r2)
    c[1:] *= 2.0
    return c


def _linprog(c, a_ub, b_ub, options):
    """Minimize c . x over free x with a_ub x <= b_ub: the one HiGHS call."""
    bounds = [(None, None)] * len(c)
    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=options)


def _linprog_rows(c, a_ub, b_ub, options):
    """Minimize c . x over free x with a_ub x <= b_ub, by row generation.

    The working set starts as every ``_ROW_STRIDE``-th row and the last
    row.  After each solve on it, every run of rows outside it that are
    violated by more than ``_ROW_TOL`` adds its most violated row; once
    none is, the point is optimal for all the rows.  Any status other
    than optimal on a working set falls back to one solve on all the
    rows, so infeasible and unbounded LPs report as a direct solve would.

    Returns the solver's result with ``ineqlin.marginals`` scattered to
    all the rows (zero outside the working set, so y . b_ub stays a dual
    bound), plus ``rows_solved`` (the final working-set size) and
    ``solves`` (the linprog calls made).
    """
    n = len(b_ub)
    work = np.zeros(n, dtype=bool)
    work[::_ROW_STRIDE] = True
    work[-1] = True
    solves = 0
    while True:
        rows = np.flatnonzero(work)
        res = _linprog(c, a_ub[rows], b_ub[rows], options)
        solves += 1
        if res.status != 0:
            res = _linprog(c, a_ub, b_ub, options)
            res.rows_solved, res.solves = n, solves + 1
            return res
        excess = a_ub @ res.x - b_ub
        violated = (excess > _ROW_TOL) & ~work
        if not violated.any():
            break
        # runs of consecutive violated rows: [start, stop) pairs
        edges = np.flatnonzero(np.diff(np.concatenate([[0], violated.view(np.int8), [0]])))
        for start, stop in edges.reshape(-1, 2):
            work[start + int(np.argmax(excess[start:stop]))] = True
    marginals = np.zeros(n)
    marginals[rows] = res.ineqlin.marginals
    res.ineqlin.marginals = marginals
    res.rows_solved, res.solves = len(rows), solves
    return res


def solve_autocorr_lp(
    weights: np.ndarray,
    gammas: list[CosinePoly],
    mask: SpectralMask,
    grid_density: int = 512,
) -> LpSolution:
    """Maximize weights . r over autocorrelations obeying the fitted ceilings.

    One LP on one grid, ``GRID_REFINE`` times denser than ``grid_density``:
    r^(nu) >= floor at ``grid_density * GRID_REFINE * len(gammas) + 1``
    nodes on [0, mask.f_top], and r^(nu) <= Gamma_i(nu) - margin at
    ``grid_density * GRID_REFINE + 1`` nodes on the bound region of mask
    segment i (:func:`~uwbpulse.spectral.segment_bounds`).  Floor and
    margins are a fixed small fraction of the ceiling scale.  The LP is
    solved once, by row generation (:func:`_linprog_rows`); its optimum
    is the one with all the rows, and ``feasibility_margin`` is the
    point's worst slack on the same grid.
    """
    weights = np.asarray(weights, dtype=float)
    L = len(weights)
    segments = segment_bounds(mask)
    if len(gammas) != len(segments):
        raise ConfigurationError("one upper-bound polynomial per mask segment required")
    clock = gammas[0].clock

    n = grid_density * GRID_REFINE
    a_low = cosine_basis(np.linspace(0.0, mask.f_top, n * len(gammas) + 1), L, clock)
    seg_nodes = [np.linspace(a, b, n + 1) for a, b in segments]
    a_seg = cosine_basis(np.concatenate(seg_nodes), L, clock)
    gvals = np.concatenate([gam(nu) for gam, nu in zip(gammas, seg_nodes)])

    scale = float(np.max(gvals))
    if scale <= 0:
        raise InfeasibleError("all ceilings are non-positive; mask and fits disagree")
    # fixed cushion: larger than typical between-grid-point excursions at
    # the default density, so the result barely depends on grid_density
    floor = margin = 3e-5 * scale
    a_ub = np.vstack([-a_low, a_seg])
    b_ub = np.concatenate([np.full(len(a_low), -floor / scale), (gvals - margin) / scale])

    options = {
        "presolve": True,
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    res = _linprog_rows(-weights / np.max(np.abs(weights)), a_ub, b_ub, options)
    solves = res.solves
    if res.status == 4:
        # solver could not tell infeasible from unbounded; a zero
        # objective settles which one it is
        probe = _linprog(np.zeros(L), a_ub, b_ub, options)
        solves += 1
        if probe.status == 0:
            raise UnboundedError("objective unbounded; an upper-bound segment is missing")
        res = probe
    if res.status == 2:
        raise InfeasibleError(
            "empty constraint intersection; mask fits are inconsistent "
            "with positivity (or floor and margins are too large)"
        )
    if res.status == 3:
        raise UnboundedError("objective unbounded; an upper-bound segment is missing")
    if res.status != 0:
        raise ConfigurationError(f"LP solver failed: {res.message}")
    r = res.x * scale

    # dual certificate (scaled problem)
    y = -np.asarray(res.ineqlin.marginals)
    dual_bound = float(y @ b_ub) * scale * np.max(np.abs(weights))
    return LpSolution(
        autocorr=AutocorrVector(r, clock),
        objective=float(weights @ r),
        dual_bound=dual_bound,
        feasibility_margin=min(float(np.min(a_low @ r)), float(np.min(gvals - a_seg @ r))),
        lower_floor=floor,
        backoff_rounds=1,
        lp_rows=len(b_ub),
        lp_rows_solved=res.rows_solved,
        lp_solves=solves,
    )


def _factor_by_roots(r: np.ndarray) -> np.ndarray:
    """Minimum-phase factor via the roots of the two-sided lag polynomial."""
    coeffs = np.concatenate([r[::-1], r[1:]]).astype(float)
    roots = np.roots(coeffs)
    poly = np.poly1d(coeffs)
    dpoly = poly.deriv()
    for _ in range(3):  # Newton polish; companion eigenvalues are only a start
        with np.errstate(divide="ignore", invalid="ignore"):
            step = poly(roots) / dpoly(roots)
        step = np.where(np.isfinite(step), step, 0.0)
        roots = roots - step
    # np.poly is monic and the scale positive, so the leading tap is positive
    g = np.atleast_1d(np.real(np.poly(roots[np.abs(roots) < 1.0])))
    return g * math.sqrt(r[0] / np.dot(g, g))


def spectral_factorize(r: AutocorrVector) -> FilterTaps:
    """Recover minimum-phase taps whose autocorrelation matches ``r``.

    The spectrum must be strictly positive: its exact minimum
    (:func:`signals._cosine_extrema`, no grid) at or below 1e-12 of its
    maximum raises :class:`FactorizationError`, so a zero between any
    grid's nodes is caught.  The taps come from the roots of the two-sided
    lag polynomial inside the unit circle (:func:`_factor_by_roots`), and
    their round trip is the one check on them: an autocorrelation more
    than 1e-7 off ``r`` (a wrong count of roots inside the circle among
    the causes) raises :class:`FactorizationError`.  The leading tap is
    positive.
    """
    rv = np.asarray(r.r, dtype=float)
    lo, hi = _cosine_extrema(rv)
    if lo <= 1e-12 * hi:
        raise FactorizationError(
            "autocorrelation spectrum touches zero; re-solve with a larger floor"
        )
    g = _factor_by_roots(rv)
    err = float(np.max(np.abs(lag_autocorrelation(g, 1, len(rv) - 1) - rv)))
    if err > _FACTOR_TOL:
        raise FactorizationError(f"round-trip error {err:.3e} exceeds {_FACTOR_TOL:.1e}")
    return FilterTaps(g, r.clock, err)


def min_phase_roots(g: FilterTaps) -> np.ndarray:
    """Zeros of the tap polynomial (all inside/on the unit circle for min phase)."""
    return np.roots(g.taps)


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
