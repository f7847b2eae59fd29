"""Regulatory mask model, cosine-polynomial fits, effective power, PSD models.

The mask is a piecewise-constant ceiling on PSD over [0, 14] GHz.  Fits of
the mask-to-pulse ratio live in the even cosine basis
{1, 2cos(2 pi nu T0), 2cos(2 pi nu 2 T0), ...} whose span is exactly the
set of filter-autocorrelation spectra, so fitted bounds plug directly
into the filter program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigurationError, DivisionHazardError, MaskFitError
from .signals import (
    SampledPulse,
    Spectrum,
    _grid_steps,
    _power_at,
    _read_csv,
    _write_csv,
    cosine_series,
)

SUP_GRID_POINTS = 2**14  # grid for sup-norm style evaluations on [0, band top]
SAFETY_FACTOR = 1.0 - 1e-6  # shrink applied to compliant scalings
SINGULARITY_CAP = 2.0  # fit targets are capped at this times the right-edge ratio
_STABLE_TOL = 3e-6  # a fit column whose new direction is below this share of it ends the fit


@dataclass(frozen=True)
class SpectralMask:
    """Piecewise-constant PSD ceiling: segments of (f_lo, f_hi, level).

    Segments must partition [0, f_top] contiguously, with f_top and the
    levels positive and finite.
    ``passband`` marks the band whose allowed power normalizes the
    effective-power ratio.
    """

    segments: tuple[tuple[float, float, float], ...]
    passband: tuple[float, float]

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("mask needs at least one segment")
        prev = 0.0
        for f_lo, f_hi, level in self.segments:
            if abs(f_lo - prev) > 1e-6 * max(f_hi, 1.0):
                raise ConfigurationError("mask segments must partition [0, f_top]")
            if not f_lo < f_hi < math.inf:
                raise ConfigurationError("mask segments must be non-empty and finite")
            if not 0 < level < math.inf:
                raise ConfigurationError("mask levels must be positive and finite")
            prev = f_hi
        lo, hi = self.passband
        if not (0.0 <= lo < hi <= prev):
            raise ConfigurationError("passband must lie inside the mask band")

    @property
    def f_top(self) -> float:
        return self.segments[-1][1]

    @property
    def clock(self) -> float:
        """Fastest filter clock that still controls the whole band."""
        return 1.0 / (2.0 * self.f_top)

    def integrate(self, f_lo: float, f_hi: float) -> float:
        """Exact integral of the mask over [f_lo, f_hi]."""
        total = 0.0
        for a, b, level in self.segments:
            total += level * max(0.0, min(b, f_hi) - max(a, f_lo))
        return total

    def allowed_passband_power(self) -> float:
        return self.integrate(*self.passband)


def fcc_indoor_mask(path=None) -> SpectralMask:
    """Mask with edges {1.61, 1.99, 3.1, 10.6, 14} GHz and bundled levels.

    Levels come from a CSV data file (indoor EIRP limits by default) and
    can be overridden by passing a file in the same format.
    """
    if path is None:
        ref = resources.files("uwbpulse.data").joinpath("fcc_indoor.csv")
        with resources.as_file(ref) as p:
            return load_mask_csv(p)
    return load_mask_csv(path)


def load_mask_csv(path) -> SpectralMask:
    """Read segments from `f_lo_hz,f_hi_hz,level_w_per_hz` rows.

    The passband is the first segment of the highest level.  A
    missing or unreadable file, a malformed row, a non-finite value or a
    file with no rows raises :class:`ConfigurationError`.
    """
    f_lo, f_hi, level = _read_csv(path, ["f_lo_hz", "f_hi_hz", "level_w_per_hz"])
    if len(level) == 0:
        raise ConfigurationError(f"{path}: no mask segments")
    i = int(np.argmax(level))
    passband = (float(f_lo[i]), float(f_hi[i]))
    return SpectralMask(tuple(zip(f_lo.tolist(), f_hi.tolist(), level.tolist())), passband)


@dataclass(frozen=True, eq=False)
class CosinePoly:
    """Even trigonometric polynomial sum_n c_n phi_n(nu) with clock period T0.

    phi_0 = 1 and phi_n = 2 cos(2 pi nu n T0); the value is 1/T0-periodic.
    """

    coeffs: np.ndarray
    clock: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if not 0 < self.clock < math.inf:
            raise ConfigurationError("clock period must be positive and finite")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __call__(self, nu) -> np.ndarray | float:
        vals = cosine_series(self.coeffs, np.asarray(nu, dtype=float) * self.clock)
        return float(vals) if np.ndim(vals) == 0 else vals


def cosine_basis(nu, L: int, clock: float) -> np.ndarray:
    """Design matrix of the cosine basis at the given frequencies."""
    nu_arr = np.atleast_1d(np.asarray(nu, dtype=float))
    n = np.arange(L)
    a = 2.0 * np.cos(2.0 * np.pi * np.outer(nu_arr, n) * clock)
    a[:, 0] = 1.0
    return a


def segment_bounds(mask: SpectralMask) -> list[tuple[float, float]]:
    """Bound region of each segment's ceiling: [0, f_hi], except the
    topmost segment, which is bounded on its own interval only."""
    top = len(mask.segments) - 1
    return [
        (f_lo if i == top else 0.0, f_hi) for i, (f_lo, f_hi, _) in enumerate(mask.segments)
    ]


def _gauss_nodes(a: float, b: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 4-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(a, b, cells + 1)
    midp = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (midp[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _stable_order(a_w: np.ndarray) -> int:
    """Largest leading block of basis columns that stays well conditioned.

    One QR of the weighted design matrix: the block ends at the first
    column n >= 1 whose part outside the earlier columns' span, |R[n, n]|,
    is below ``_STABLE_TOL`` of its norm.
    """
    rel = np.abs(np.diag(np.linalg.qr(a_w, mode="r"))) / np.linalg.norm(a_w, axis=0)
    return next((n for n in range(1, len(rel)) if rel[n] < _STABLE_TOL), len(rel))


def fit_mask_polynomials(
    mask: SpectralMask, q: SampledPulse, L: int, density: int = 512
) -> list[CosinePoly]:
    """Per-segment cosine-polynomial ceilings below the mask ratio.

    Each segment's ratio mask / |q^|^2 is least-squares fitted over its
    bound region (composite Gauss quadrature, order restricted to the
    well-conditioned block), then shifted down by the maximum positive
    fit error so the polynomial never exceeds the true ratio.  Each
    ceiling keeps only the coefficients of that block, so its ``order``
    is the order kept.  |q^|^2 is the exact power spectrum of the sampled
    pulse at every node (:func:`signals._power_at`, a cosine series over
    its lag autocorrelation), so the coefficients are stable under
    fit-grid refinement.

    The ratio blows up where the pulse spectrum has a null (DC for a
    monocycle); the fit target is smoothly capped at ``SINGULARITY_CAP``
    times the segment's right-edge ratio, which leaves only slack in the
    region no compliant spectrum can reach anyway.
    """
    if L < 1:
        raise ConfigurationError("fit order must be at least 1")
    clock = mask.clock
    bounds = segment_bounds(mask)
    grids = [_gauss_nodes(a, b, density) for a, b in bounds]
    # conservative clamp, verified on grids 4x denser than the fit grid;
    # each ends exactly at its segment's right edge b
    dense = [np.linspace(a, b, 4 * density + 1)[1 if a == 0.0 else 0 :] for a, b in bounds]
    # every node set in one call, so the autocorrelation is formed once
    sets = [nodes for nodes, _ in grids] + dense
    power = np.split(_power_at(q, np.concatenate(sets)), np.cumsum([len(x) for x in sets[:-1]]))
    fit_power, dense_power = power[: len(grids)], power[len(grids) :]
    peak = max(float(np.max(qsq)) for qsq in fit_power)
    polys = []
    for i, ((nodes, weights), qsq) in enumerate(zip(grids, fit_power)):
        if len(nodes) < L:
            raise MaskFitError(
                f"segment {i + 1}: fit order {L} needs at least {L} nodes, "
                f"the fit grid has {len(nodes)} (raise the grid density)"
            )
        level = mask.segments[i][2]
        if np.any(qsq <= 1e-300 * peak):
            raise DivisionHazardError("pulse spectrum vanishes on the fit grid")
        ratio = level / qsq
        cap = SINGULARITY_CAP * level / dense_power[i][-1]
        # smooth soft-minimum keeps the quadrature spectrally accurate
        target = (ratio**-32 + cap**-32) ** (-1.0 / 32.0)
        sw = np.sqrt(weights)
        a_w = cosine_basis(nodes, L, clock) * sw[:, None]
        keep = _stable_order(a_w)
        coeffs, _, rank, _ = np.linalg.lstsq(a_w[:, :keep], target * sw, rcond=None)
        if rank < keep or not np.all(np.isfinite(coeffs)):
            raise MaskFitError(
                f"segment {i + 1}: fit order {L} is too large for the segment width"
            )
        excess = np.max(cosine_series(coeffs, dense[i] * clock) - level / dense_power[i])
        # pad by an evaluation-rounding bound so the ceiling holds strictly
        pad = 64 * np.finfo(float).eps * (abs(coeffs[0]) + 2 * np.sum(np.abs(coeffs[1:])))
        coeffs[0] -= max(excess, 0.0) + pad
        polys.append(CosinePoly(coeffs, clock))
    return polys


def nesp(p: Spectrum, mask: SpectralMask) -> float:
    """Fraction of the allowed passband power the spectrum actually uses.

    The spectrum must already be at its compliant level (see
    :func:`max_compliant_scale`); the result is then in [0, 1] up to
    quadrature error.  The trapezoid rule spans the whole passband when
    its edges are samples, as on :func:`pipeline.band_bins`.
    """
    lo, hi = mask.passband
    sel = (p.freqs >= lo) & (p.freqs <= hi)
    used = float(np.trapezoid(p.power()[sel], p.freqs[sel]))
    return used / mask.allowed_passband_power()


def max_compliant_scale(p: Spectrum, mask: SpectralMask) -> float:
    """Largest alpha with alpha^2 |p^|^2 <= mask, times a safety factor.

    The sup of |p^|^2 / mask over the samples in [0, f_top], which must
    number at least SUP_GRID_POINTS.  p^ of a finite pulse is continuous,
    so at a mask edge the sup is |p^(edge)|^2 over the lower of the two
    levels that meet there: every edge must be a sample, as on
    :func:`pipeline.band_bins`, else :class:`ConfigurationError`.
    """
    sel = (p.freqs >= 0.0) & (p.freqs <= mask.f_top)
    if np.count_nonzero(sel) < SUP_GRID_POINTS:
        raise ConfigurationError(
            f"need at least {SUP_GRID_POINTS} grid points on [0, f_top] "
            "for a trustworthy sup-norm"
        )
    freqs, power = p.freqs[sel], p.power()[sel]
    if not np.any(power > 0.0):
        raise ConfigurationError("spectrum is identically zero on the band")
    edges = np.array([segment[:2] for segment in mask.segments])
    at = np.minimum(np.searchsorted(freqs, edges), len(freqs) - 1)
    if np.any(freqs[at] != edges):
        missing = ", ".join(f"{f:.6g}" for f in np.unique(edges[freqs[at] != edges]))
        raise ConfigurationError(f"spectrum has no sample at the mask edges {missing} Hz")
    # a sample is held to the lowest level of the segments whose closed
    # interval holds it: at an interior edge, the lower of the two
    ceiling = np.full(len(freqs), np.inf)
    for (i, j), (_, _, level) in zip(at, mask.segments):
        np.minimum(ceiling[i : j + 1], level, out=ceiling[i : j + 1])
    return SAFETY_FACTOR / math.sqrt(float(np.max(power / ceiling)))


def _dirichlet_mean(nu, shift: float, n: int) -> np.ndarray:
    """|E exp(-2i pi nu d T)| for d uniform on {0..n-1}: Dirichlet ratio."""
    nu = np.asarray(nu, dtype=float)
    x = np.pi * (nu * shift)
    sin_x = np.sin(x)
    far = np.abs(sin_x) > 1e-12
    # sin(pi x n) in x's buffer: on the 2^20-point grid each fresh
    # temporary is 8 MB of page faults
    out = np.sin(np.multiply(x, n, out=x), out=x)
    np.divide(out, n * sin_x, out=out, where=far)
    out[~far] = 1.0
    return np.abs(out, out=out)


def _train_psd(
    p: Spectrum, energy: float, period: float, total: float, mean: float, factors
) -> tuple[Spectrum, list[tuple[float, float]]]:
    """Continuum energy |p^|^2 (total - g^2) / period on p's grid, and the
    nonzero lines energy |p^(f)|^2 g(f)^2 / period^2 at every f = n /
    period inside the grid's range as (f, power) pairs, for the gain g(f)
    = mean times the product of :func:`_dirichlet_mean` over (shift, n,
    what) factors.  Line powers interpolate the grid's |p^|^2 as
    :meth:`Spectrum.power_at` does.

    g repeats every lcm over its factors of m / gcd(s, m) bins (see
    :func:`psd_pam_ppm`), which divides m.  It is evaluated on that
    period's bins nearest nu = 0, listed by index mod the period, where
    nu * shift is smallest and the sines' arguments carry the least
    rounding, and tiled.  Each factor's n must be at least 1, else
    :class:`ConfigurationError`.
    """
    for _, n, what in factors:
        if n < 1:
            raise ConfigurationError(f"offsets on {{0..n-1}} at the {what} need n >= 1, not {n}")

    def gain(f):
        g = np.full(np.shape(f), float(mean))
        for shift, n, _ in factors:
            g *= _dirichlet_mean(f, shift, n)
        return g

    freqs, m = p.freqs, len(p.freqs)
    dt = 1.0 / (m * p.df)
    bins = math.lcm(*(m // math.gcd(_grid_steps(s, dt, what), m) for s, _, what in factors))
    first = min(max(round(-freqs[0] / p.df) - bins // 2, 0), m - bins)
    g = np.resize(gain(freqs[first + (np.arange(bins) - first) % bins]), m)
    # all in g's buffer, which becomes the real continuum: on a 2^20-point
    # grid each fresh temporary is 8 MB of page faults
    np.square(g, out=g)
    np.subtract(total, g, out=g)
    g *= energy / period
    psq = p.power()
    g *= psq
    n_max = int(math.floor(max(abs(freqs[0]), abs(freqs[-1])) * period))
    f = np.arange(-n_max, n_max + 1) / period
    w = energy * np.interp(f, freqs, psq) / period**2 * gain(f) ** 2
    keep = w > 0.0
    return Spectrum(freqs, g), list(zip(f[keep].tolist(), w[keep].tolist()))


def psd_pam_ppm(
    p: Spectrum,
    energy: float,
    Ts: float,
    mean_a: float,
    var_a: float,
    shift: float,
    n_positions: int,
) -> tuple[Spectrum, list[tuple[float, float]]]:
    """PSD of an i.i.d. amplitude/position modulated pulse train.

    Amplitudes a_n have the given mean and variance; positions d_n are
    uniform on {0..n_positions-1} with slot offset d_n * shift.  Returns
    the continuous density on the spectrum's grid plus discrete lines at
    multiples of 1/Ts as explicit (frequency, power) pairs.

    ``p`` is a uniform grid of m bins df apart, such as
    :func:`signals.spectrum`'s, whose time step is 1/(m df).  The shift
    must be a whole number s of those steps, else
    :class:`GridAlignmentError`.  The position factor is 1/shift-periodic
    in frequency, so it repeats every m / gcd(s, m) bins: it is evaluated
    on one such period and tiled over the grid.

    Only independent symbol streams are covered; correlated-symbol
    spectra are out of scope for this model.
    """
    if Ts <= 0:
        raise ConfigurationError("symbol period must be positive")
    return _train_psd(p, energy, Ts, var_a + mean_a**2, mean_a, [(shift, n_positions, "shift")])


def psd_th_framed(
    p: Spectrum,
    energy: float,
    Tf: float,
    Nc: int,
    Tc: float,
    n_positions: int,
    shift: float,
) -> tuple[Spectrum, list[tuple[float, float]]]:
    """PSD of a framed time-hopping pulse train with uniform codes.

    Hop codes are uniform on {0..Nc-1} at chip period Tc and data offsets
    uniform on {0..n_positions-1} at the PPM shift; anti-collision needs
    n_positions*shift <= Tc and Nc*Tc <= Tf.  As in :func:`psd_pam_ppm`,
    the chip period and the shift must be whole numbers of the grid's
    time steps, and the code factor is evaluated on one period of bins.
    """
    if n_positions * shift > Tc * (1 + 1e-12):
        raise ConfigurationError(
            "PPM span exceeds the chip period (need n_positions * shift <= Tc)"
        )
    if Nc * Tc > Tf * (1 + 1e-12):
        raise ConfigurationError("hop span exceeds the frame (need Nc * Tc <= Tf)")
    factors = [(Tc, Nc, "chip period"), (shift, n_positions, "shift")]
    return _train_psd(p, energy, Tf, 1.0, 1.0, factors)


def save_psd_csv(path, psd: Spectrum) -> None:
    """Write a real power density; a complex transform is refused, not truncated."""
    if np.iscomplexobj(psd.values):
        raise ConfigurationError(f"{path}: a PSD must be real, not a complex spectrum")
    _write_csv(path, ["f_hz", "psd_w_per_hz"], np.column_stack([psd.freqs, psd.values]))

