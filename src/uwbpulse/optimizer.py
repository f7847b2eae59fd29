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

The LP has tens of thousands of rows but only L free variables, so its
dual has only L equality constraints and a basis of L rows.
:func:`linprog` solves it by a dense simplex on that dual
(:class:`_DualSimplex`), pricing rows on a working set that grows by
row generation, so most pivots see a few hundred rows, not all of them.
Every row is +-phi(nu), and at the band's Chebyshev nodes the rows
phi(nu_j) form a DCT-II matrix, so the floor or ceiling row at each
node, by the sign of its multiplier, is a dual-feasible start in closed
form: there is no phase 1, and the LP is bounded by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, FactorizationError, InfeasibleError
from .signals import (
    SampledPulse,
    _cosine_extrema,
    lag_autocorrelation,
)
from .spectral import CosinePoly, SpectralMask, cosine_basis, segment_bounds

GRID_REFINE = 4  # the LP grid is this much denser than ``grid_density``
_LP_TOL = 1e-12  # a row whose slack is below -_LP_TOL prices into the basis
_PIVOT_TOL = 1e-9  # smallest pivot: the rows of a are scaled to entries of about 1
_REFACTOR = 32  # pivots between fresh inverses of the simplex basis
_MAX_PIVOTS = 100_000  # a guard: Bland's rule ends every run long before
_FACTOR_TOL = 1e-7  # largest error of the taps' autocorrelation round trip


@dataclass(frozen=True, eq=False)
class FilterTaps:
    """Real FIR taps at a fixed clock period."""

    taps: np.ndarray
    clock: float
    factorization_error: float | None = None  # spectral_factorize's round trip

    def __post_init__(self):
        object.__setattr__(self, "taps", np.asarray(self.taps, dtype=float))
        if not 0 < self.clock < math.inf:
            raise ConfigurationError("clock period must be positive and finite")

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
        if not 0 < self.clock < math.inf:
            raise ConfigurationError("clock period must be positive and finite")


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
    lp_rows_priced: int  # of those, the simplex's pricing working set at the end
    lp_pivots: int  # simplex pivots, both phases


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


class _DualSimplex:
    """Simplex on the dual of: minimize c . x over free x with a x <= b.

    The dual is min b . y subject to a^T y = -c, y >= 0, so a basis is L
    rows of ``a``: its point x solves them with equality, its multipliers
    solve B^T y_B = -c, and a row's reduced cost is its slack b_j - a_j . x.
    It starts from a dual-feasible basis, which the caller gives (y_B >= 0
    proves the LP bounded), so there is one phase.  A pivot brings in the
    most violated row and drops the basic row that the ratio test on y_B
    picks.  B's inverse is kept by rank-one updates, and refactored every
    ``_REFACTOR`` pivots, before an optimum is declared, and before a row
    that has no pivot is taken for a dual ray.

    Rows are priced on a working set, starting empty.  When none of it
    prices in, every row is priced once, and each run of consecutive
    violated rows joins the set by its most violated row (row generation,
    Hettich & Kortanek 1993).  So one product with all of ``a`` serves
    many pivots, and the basis carries over from round to round: a new
    row is a new dual column, and the last basis stays feasible.
    """

    def __init__(self, c: np.ndarray, a: np.ndarray, basis: np.ndarray):
        self.c, self.a = c, a
        self.basis = basis
        self.basic = np.zeros(len(a), dtype=bool)
        self.basic[basis] = True
        self.work = np.zeros(0, dtype=np.intp)  # sorted row indices
        self.nit = 0

    def multipliers(self) -> np.ndarray:
        """y_B, with rounding below zero cut off."""
        return np.maximum(self.binv.T @ -self.c, 0.0)

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.a[self.basis])
        self.fresh = True  # binv was inverted, not updated, since the last pivot

    def swap(self, i: int, j: int, w: np.ndarray) -> None:
        """Row j replaces basic row i, where w = B^-T a_j."""
        self.basic[self.basis[i]] = False
        self.basis[i] = j
        self.basic[j] = True
        step = w.copy()
        step[i] -= 1.0
        self.binv -= np.outer(self.binv[:, i], step / w[i])  # Sherman-Morrison
        self.nit += 1
        self.fresh = False
        if self.nit % _REFACTOR == 0:
            self.refactor()

    def price(self, b: np.ndarray, x: np.ndarray, bland: bool) -> int:
        """The row to bring in at point x, or -1 if none prices in."""
        if not bland:
            rows = self.work[~self.basic[self.work]]
            slack = b[rows] - self.a[rows] @ x
            if len(rows) and slack.min() < -_LP_TOL:
                return int(rows[np.argmin(slack)])
        slack = b - self.a @ x
        slack[self.basic] = 0.0
        violated = slack < -_LP_TOL
        if not violated.any():
            return -1
        if bland:
            return int(np.argmax(violated))  # the first violated row
        runs = np.flatnonzero(np.diff(np.concatenate([[0], violated.view(np.int8), [0]])))
        most = [start + np.argmin(slack[start:stop]) for start, stop in runs.reshape(-1, 2)]
        self.work = np.union1d(self.work, most)
        return int(np.argmin(slack))

    def run(self, b: np.ndarray) -> int:
        """Pivot until no row prices in (0), the dual is unbounded (2), or
        for ``_MAX_PIVOTS`` pivots in all (4)."""
        stall = 0
        while self.nit < _MAX_PIVOTS:
            y = self.multipliers()
            # Dantzig's rule may cycle at a degenerate vertex; Bland's, kept
            # until the objective moves again, cannot
            bland = stall > len(self.basis)
            j = self.price(b, self.binv @ b[self.basis], bland)
            if j < 0:
                if self.fresh:
                    return 0
                self.refactor()
                continue
            w = self.binv.T @ self.a[j]
            pos = np.flatnonzero(w > _PIVOT_TOL)
            if not len(pos):
                if self.fresh:
                    return 2
                self.refactor()  # the updates' drift may have priced j in
                continue
            ratio = y[pos] / w[pos]
            theta = ratio.min()
            tied = pos[ratio <= theta]
            # of the tied rows, the largest pivot; Bland's rule: the first row
            i = int(tied[np.argmin(self.basis[tied])] if bland else tied[np.argmax(w[tied])])
            self.swap(i, j, w)
            stall = 0 if theta > 0.0 else stall + 1
        return 4


_LP_MESSAGES = {
    0: "optimal",
    2: "infeasible",
    4: "numerical failure: a basis went singular in rounding, or the pivot limit was hit",
}


def linprog(c, *, A_ub, b_ub, basis):
    """Minimize c . x over free x subject to A_ub x <= b_ub, by the dual
    simplex (:class:`_DualSimplex`) from the rows ``basis`` of A_ub.

    The start must be dual feasible: len(c) rows whose multipliers, the
    solution y_B of B^T y_B = -c, are all nonnegative; one below -1e-12
    of max |c| raises :class:`ConfigurationError`.  Returns a namespace
    with the fields of SciPy's result that this package reads: ``x``,
    ``fun``, ``status`` (0 optimal, 2 infeasible, 4 failed), ``message``,
    ``nit`` (simplex pivots) and ``ineqlin.marginals``, the multipliers
    in SciPy's sign (d fun / d b_ub, so at most zero).  Also
    ``rows_priced``: the rows of the pricing working set at the end.
    """
    c = np.asarray(c, dtype=float)
    a, b = np.asarray(A_ub, dtype=float), np.asarray(b_ub, dtype=float)
    lp = _DualSimplex(c, a, np.array(basis))
    x = y = None
    try:
        lp.refactor()
        if np.min(lp.binv.T @ -c) < -_LP_TOL * np.abs(c).max():
            raise ConfigurationError("the start basis has a negative multiplier")
        status = lp.run(b)
        if status == 0:
            rows = a[lp.basis]
            x = np.linalg.solve(rows, b[lp.basis])
            y = np.zeros(len(b))
            y[lp.basis] = np.maximum(np.linalg.solve(rows.T, -c), 0.0)
    except np.linalg.LinAlgError:  # a basis singular in rounding
        status = 4
    return SimpleNamespace(
        x=x,
        fun=float(c @ x) if status == 0 else np.nan,
        status=status,
        message=_LP_MESSAGES[status],
        nit=lp.nit,
        rows_priced=len(lp.work),
        ineqlin=SimpleNamespace(marginals=-y if status == 0 else None),
    )


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
    margins are a fixed small fraction of the ceiling scale.  The floor
    and the lowest ceiling at L more nodes, the band's Chebyshev nodes,
    give :func:`linprog` its dual-feasible start.  The LP is solved once,
    and ``feasibility_margin`` is the point's worst slack on the grid.
    Ceilings at another clock than the mask's raise
    :class:`ConfigurationError`.  An infeasible LP raises
    :class:`InfeasibleError`.  It names each segment whose fitted ceiling
    is positive on its nodes but whose headroom on this fit, the least
    Gamma_i - margin - floor there, is not; else it advises a denser grid.
    """
    weights = np.asarray(weights, dtype=float)
    L = len(weights)
    segments = segment_bounds(mask)
    if len(gammas) != len(segments):
        raise ConfigurationError("one upper-bound polynomial per mask segment required")
    clock = mask.clock
    if any(gam.clock != clock for gam in gammas):
        raise ConfigurationError("the ceilings must be fitted at the mask's clock")

    n = grid_density * GRID_REFINE
    n_low, n_seg = n * len(gammas) + 1, (n + 1) * len(gammas)
    seg_nodes = [np.linspace(a, b, n + 1) for a, b in segments]
    gvals = np.concatenate([gam(nu) for gam, nu in zip(gammas, seg_nodes)])

    scale = float(np.max(gvals))
    if scale <= 0:
        raise InfeasibleError("all ceilings are non-positive; mask and fits disagree")
    # fixed cushion: larger than typical between-grid-point excursions at
    # the default density, so the result barely depends on grid_density
    floor = margin = 3e-5 * scale
    # the start: at the Chebyshev angles theta_j = pi (j + 1/2) / L, the rows
    # phi(nu_j) at nu_j = theta_j / (2 pi clock) form a DCT-II matrix Phi
    # (orthogonal columns, condition sqrt 2).  With alpha = Phi^-T (-c), the
    # floor row -phi(nu_j) where alpha_j <= 0, and the row of the lowest
    # ceiling at nu_j where alpha_j > 0, carry the multipliers |alpha|
    nu = (np.arange(L) + 0.5) * mask.f_top / L
    # the rows -phi(floor nodes), phi(segment nodes), -phi(nu), phi(nu),
    # built once and negated in place
    low_nodes = np.linspace(0.0, mask.f_top, n_low)
    a_ub = cosine_basis(np.concatenate([low_nodes, *seg_nodes, nu, nu]), L, clock)
    a_ub[:n_low] *= -1.0
    a_ub[n_low + n_seg : n_low + n_seg + L] *= -1.0
    a_seg, phi = a_ub[n_low : n_low + n_seg], a_ub[-L:]
    held = [(a <= nu) & (nu <= b) for a, b in segments]
    ceiling = np.min([np.where(h, gam(nu), np.inf) for gam, h in zip(gammas, held)], axis=0)
    c = -weights / np.max(np.abs(weights))
    b_ub = np.concatenate(
        [np.full(n_low, -floor), gvals - margin, np.full(L, -floor), ceiling - margin]
    ) / scale
    basis = n_low + n_seg + np.arange(L) + L * (np.linalg.solve(phi.T, -c) > 0.0)

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, basis=basis)
    if res.status == 2:
        # floor and margin are fixed shares of the highest ceiling, so a
        # positive ceiling can sit too low to clear them; a fitted ceiling
        # that dips to zero is most likely a coarse grid's fit
        low = gvals.reshape(len(gammas), n + 1).min(axis=1)
        deep = [
            f"mask segment {i} ({a:.6g} to {b:.6g} Hz) has headroom "
            f"{g - margin - floor:.3e} on this fit"
            for i, ((a, b), g) in enumerate(zip(segments, low))
            if g > 0 and g - margin - floor <= 0
        ]
        if deep:
            raise InfeasibleError(
                "; ".join(deep) + ": the fitted ceiling less the margin does not clear "
                f"the floor, with floor and margin each {floor:.3e} (3e-5 of the "
                "highest ceiling)"
            )
        raise InfeasibleError(
            "empty constraint intersection; the mask fits are inconsistent with "
            "positivity on this grid: use a denser grid_density (--grid-density)"
        )
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
        feasibility_margin=min(-float(np.max(a_ub[:n_low] @ r)), float(np.min(gvals - a_seg @ r))),
        lower_floor=floor,
        backoff_rounds=1,
        lp_rows=len(b_ub),
        lp_rows_priced=res.rows_priced,
        lp_pivots=res.nit,
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
            "autocorrelation spectrum touches zero between the LP's nodes; "
            "use a denser grid_density (--grid-density)"
        )
    g = _factor_by_roots(rv)
    err = float(np.max(np.abs(lag_autocorrelation(g, 1, len(rv) - 1) - rv)))
    if err > _FACTOR_TOL:
        raise FactorizationError(f"round-trip error {err:.3e} exceeds {_FACTOR_TOL:.1e}")
    return FilterTaps(g, r.clock, err)

