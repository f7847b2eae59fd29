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
from .signals import SampledPulse, Spectrum, _power_at, _read_csv, _write_csv, cosine_series

SUP_GRID_POINTS = 2**14  # grid for sup-norm style evaluations on [0, band top]
SAFETY_FACTOR = 1.0 - 1e-6  # shrink applied to compliant scalings
SINGULARITY_CAP = 2.0  # fit targets are capped at this times the right-edge ratio


@dataclass(frozen=True)
class SpectralMask:
    """Piecewise-constant PSD ceiling: segments of (f_lo, f_hi, level).

    Segments must partition [0, f_top] contiguously with positive levels.
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
            if f_hi <= f_lo:
                raise ConfigurationError("empty mask segment")
            if level <= 0:
                raise ConfigurationError("mask levels must be positive")
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

    def level_at(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        out = np.full(f.shape, self.segments[-1][2])
        for f_lo, f_hi, level in reversed(self.segments):
            out = np.where(f < f_hi, np.where(f >= f_lo, level, out), out)
        out = np.where(f >= self.segments[-1][1], self.segments[-1][2], out)
        return out

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


def load_mask_csv(path, passband=None) -> SpectralMask:
    """Read segments from `f_lo_hz,f_hi_hz,level_w_per_hz` rows.

    The passband defaults to the first segment of the highest level.  A
    missing or unreadable file, a malformed row, a non-finite value or a
    file with no rows raises :class:`ConfigurationError`.
    """
    f_lo, f_hi, level = _read_csv(path, ["f_lo_hz", "f_hi_hz", "level_w_per_hz"])
    if len(level) == 0:
        raise ConfigurationError(f"{path}: no mask segments")
    if passband is None:
        i = int(np.argmax(level))
        passband = (float(f_lo[i]), float(f_hi[i]))
    return SpectralMask(tuple(zip(f_lo.tolist(), f_hi.tolist(), level.tolist())), tuple(passband))


def save_mask_csv(path, mask: SpectralMask) -> None:
    _write_csv(path, ["f_lo_hz", "f_hi_hz", "level_w_per_hz"], mask.segments)


@dataclass(frozen=True, eq=False)
class CosinePoly:
    """Even trigonometric polynomial sum_n c_n phi_n(nu) with clock period T0.

    phi_0 = 1 and phi_n = 2 cos(2 pi nu n T0); the value is 1/T0-periodic.
    """

    coeffs: np.ndarray
    clock: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.clock <= 0:
            raise ConfigurationError("clock period must be positive")

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


def _stable_order(a_w: np.ndarray, tol: float = 3e-6) -> int:
    """Largest leading block of basis columns that stays well conditioned.

    One QR of the weighted design matrix: the block ends at the first
    column n >= 1 whose part outside the earlier columns' span, |R[n, n]|,
    is below ``tol`` of its norm.
    """
    rel = np.abs(np.diag(np.linalg.qr(a_w, mode="r"))) / np.linalg.norm(a_w, axis=0)
    return next((n for n in range(1, len(rel)) if rel[n] < tol), len(rel))


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
    quadrature error.
    """
    lo, hi = mask.passband
    sel = (p.freqs >= lo) & (p.freqs <= hi)
    used = float(np.trapezoid(p.power()[sel], p.freqs[sel]))
    return used / mask.allowed_passband_power()


def max_compliant_scale(p: Spectrum, mask: SpectralMask) -> float:
    """Largest alpha with alpha^2 |p^|^2 <= mask, times a safety factor.

    Evaluated on the spectrum's grid points inside [0, f_top] plus the
    one-sided limits at every mask edge, where the sup of the ratio of a
    continuous spectrum to a piecewise-constant ceiling typically sits.
    The grid must be at least as dense as SUP_GRID_POINTS over the band.
    """
    sel = (p.freqs >= 0.0) & (p.freqs <= mask.f_top)
    if np.count_nonzero(sel) < SUP_GRID_POINTS:
        raise ConfigurationError(
            f"need at least {SUP_GRID_POINTS} grid points on [0, f_top] "
            "for a trustworthy sup-norm"
        )
    power = p.power()[sel]
    if not np.any(power > 0.0):
        raise ConfigurationError("spectrum is identically zero on the band")
    worst = float(np.max(power / mask.level_at(p.freqs[sel])))
    for f_lo, f_hi, level in mask.segments:
        inner = _one_sided_power(p, f_lo, "right")
        outer = _one_sided_power(p, f_hi, "left")
        worst = max(worst, inner / level, outer / level)
    return SAFETY_FACTOR / math.sqrt(worst)


def _one_sided_power(p: Spectrum, f_edge: float, side: str) -> float:
    """|p^(f_edge)|^2 approached from one side by quadratic extrapolation.

    Uses the three grid points strictly on the requested side, so a jump
    exactly at the edge (spectrum matching a stepped ceiling) does not
    leak across.
    """
    freqs = p.freqs
    power = p.power()
    if side == "left":
        j = int(np.searchsorted(freqs, f_edge, side="left"))
        idx = np.arange(max(j - 3, 0), j)
    else:
        j = int(np.searchsorted(freqs, f_edge, side="right"))
        idx = np.arange(j, min(j + 3, len(freqs)))
    if len(idx) == 0:
        return 0.0
    if len(idx) < 3:
        return float(power[idx[0 if side == "right" else -1]])
    x = freqs[idx] - f_edge
    y = power[idx]
    # Lagrange quadratic through three points, evaluated at x = 0
    val = 0.0
    for a in range(3):
        term = y[a]
        for b in range(3):
            if a != b:
                term *= (0.0 - x[b]) / (x[a] - x[b])
        val += term
    return max(float(val), 0.0)


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


def _lines(p: Spectrum, energy: float, period: float, gain) -> list[tuple[float, float]]:
    """Nonzero discrete lines energy |p^(f)|^2 gain(f)^2 / period^2 at
    every f = n / period inside the spectrum's range, as (f, power) pairs."""
    n_max = int(math.floor(float(np.max(np.abs(p.freqs))) * period))
    f = np.arange(-n_max, n_max + 1) / period
    w = energy * p.power_at(f) / period**2 * gain(f) ** 2
    keep = w > 0.0
    return list(zip(f[keep].tolist(), w[keep].tolist()))


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

    Only independent symbol streams are covered; correlated-symbol
    spectra are out of scope for this model.
    """
    if Ts <= 0:
        raise ConfigurationError("symbol period must be positive")
    e_a2 = var_a + mean_a**2
    psq = p.power()
    dir_mag = _dirichlet_mean(p.freqs, shift, n_positions)
    line_factor = (mean_a * dir_mag) ** 2
    cont_vals = energy * psq / Ts * (e_a2 - line_factor)
    cont = Spectrum(p.freqs, cont_vals.astype(complex))
    lines = _lines(p, energy, Ts, lambda f: mean_a * _dirichlet_mean(f, shift, n_positions))
    return cont, lines


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
    n_positions*shift <= Tc and Nc*Tc <= Tf.
    """
    if n_positions * shift > Tc * (1 + 1e-12):
        raise ConfigurationError(
            "PPM span exceeds the chip period (need n_positions * shift <= Tc)"
        )
    if Nc * Tc > Tf * (1 + 1e-12):
        raise ConfigurationError("hop span exceeds the frame (need Nc * Tc <= Tf)")
    g_mag = _dirichlet_mean(p.freqs, Tc, Nc) * _dirichlet_mean(p.freqs, shift, n_positions)
    cont_vals = energy * p.power() / Tf * (1.0 - g_mag**2)
    cont = Spectrum(p.freqs, cont_vals.astype(complex))
    lines = _lines(
        p, energy, Tf, lambda f: _dirichlet_mean(f, Tc, Nc) * _dirichlet_mean(f, shift, n_positions)
    )
    return cont, lines


def save_psd_csv(path, psd: Spectrum) -> None:
    _write_csv(path, ["f_hz", "psd_w_per_hz"], np.column_stack([psd.freqs, psd.values.real]))


def save_lines_csv(path, lines) -> None:
    _write_csv(path, ["f_hz", "power_w"], lines)
