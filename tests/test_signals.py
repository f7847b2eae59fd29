"""Pulse, spectrum, autocorrelation, folded spectrum, and Zak transform."""

import csv
import os

import numpy as np
import pytest

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.errors import (
    ConfigurationError,
    GridAlignmentError,
    ResolutionError,
)
from uwbpulse.cli import main as cli_main
from uwbpulse.pipeline import build_family
from uwbpulse.signals import (
    SampledPulse,
    TimeGrid,
    _cosine_extrema,
    _power_at,
    autocorr_samples,
    cosine_series,
    lag_autocorrelation,
    monocycle_sigma,
    save_family_csv,
    semi_discrete_convolve,
    shift_samples,
)
from uwbpulse.spectral import save_psd_csv

from conftest import (
    autocorrelation,
    direct_transform,
    gram_symbol,
    inner,
    save_lines_csv,
    save_mask_csv,
    zak_transform,
)

T0 = defaults.CLOCK_T0
TQ = defaults.MONOCYCLE_CLOCKS * T0
FC = defaults.CENTER_FREQ


# ---------------------------------------------------------------- monocycle


def test_monocycle_window_energy_capture():
    # oracle: fine quadrature of the raw monocycle inside/outside the window
    sigma = monocycle_sigma(FC)
    dt = TQ / 4096
    t_all = np.arange(-40 * 4096, 40 * 4096 + 1) * dt
    raw = t_all * np.exp(-(t_all**2) / sigma**2)
    total = np.sum(raw**2) * dt
    inside = np.sum(raw[np.abs(t_all) <= TQ / 2] ** 2) * dt
    assert inside / total >= 0.9999


def test_monocycle_zero_at_origin():
    for Tq in (TQ, 2.5 * TQ):
        q = up.gaussian_monocycle(FC, Tq)
        assert q.samples[q.grid.n0] == 0.0


def test_monocycle_peak_frequency_closed_form():
    # oracle: FFT argmax of the raw (pre-window) monocycle equals fc to
    # within one bin, validating sigma = 1/(sqrt(2) pi fc)
    sigma = monocycle_sigma(FC)
    dt = T0 / 32
    half = 40 * 32
    t = np.arange(-half, half + 1) * dt
    raw = t * np.exp(-(t**2) / sigma**2)
    nfft = 2**20
    mag = np.abs(np.fft.rfft(raw, nfft))
    freqs = np.fft.rfftfreq(nfft, dt)
    peak = freqs[np.argmax(mag)]
    assert abs(peak - FC) <= freqs[1]


def test_monocycle_unit_energy_and_support(monocycle):
    assert monocycle.energy() == pytest.approx(1.0, abs=1e-12)
    assert monocycle.duration() == TQ
    t = monocycle.times()
    assert np.all(monocycle.samples[np.abs(t) > TQ / 2 + 1e-15] == 0.0)


def test_monocycle_resolution_error():
    grid = TimeGrid(TQ / 8, 4, 9)
    with pytest.raises(ResolutionError):
        up.gaussian_monocycle(FC, TQ, grid)


@pytest.mark.parametrize("n0, size", [(97, 195), (96, 194), (97, 194), (95, 191)])
def test_monocycle_grid_must_end_at_window(n0, size):
    # the pulse's duration is its grid's span, so a grid reaching past
    # +-Tq/2 (or short of it) would misstate Tq
    with pytest.raises(ConfigurationError, match="span exactly"):
        up.gaussian_monocycle(FC, TQ, TimeGrid(TQ / 192, n0, size))


# ----------------------------------------------------------- autocorrelation


def test_autocorr_unit_energy_at_zero(monocycle):
    r = autocorrelation(monocycle)
    assert r.samples[r.grid.n0] == pytest.approx(1.0, rel=1e-12)


def test_autocorr_support(pulse25):
    r = autocorrelation(pulse25)
    tp = pulse25.duration()
    t = r.times()
    assert np.all(r.samples[np.abs(t) > tp + 1e-15] == 0.0)
    assert r.duration() == 2 * tp


def test_autocorr_exactly_even(pulse25):
    r = autocorrelation(pulse25)
    assert np.array_equal(r.samples, r.samples[::-1])


def test_autocorr_matches_direct_quadrature(pulse25):
    # oracle: direct shifted-sum quadrature of the integral definition
    shift = pulse25.duration() / 2  # T = Tp/K with K = 2
    s = shift_samples(pulse25, shift)
    got = autocorr_samples(pulse25, shift)
    x = pulse25.samples
    for m in range(len(got)):
        direct = 0.0
        for j in range(m * s, len(x)):
            direct += x[j] * x[j - m * s]
        direct *= pulse25.dt
        assert got[m] == pytest.approx(direct, rel=1e-10, abs=1e-14)


# ------------------------------------------------------------------ spectrum


def test_spectrum_dirac_like_flat():
    grid = TimeGrid(1e-11, 2, 5)
    samples = np.zeros(5)
    samples[2] = 1.0 / grid.dt
    p = SampledPulse(grid, samples)
    s = up.spectrum(p, 16)
    assert np.allclose(np.abs(s.values), 1.0, atol=1e-12)


def test_spectrum_hermitian_symmetry(monocycle):
    s = up.spectrum(monocycle, 2**10)
    # frequency grid is symmetric except the leftmost (unpaired) bin
    n = len(s.freqs)
    pos = s.values[n // 2 + 1 :]
    neg = s.values[1 : n // 2][::-1]
    assert np.allclose(neg, np.conj(pos), atol=1e-15)


def test_spectrum_parseval(monocycle, pulse25):
    for p in (monocycle, pulse25):
        s = up.spectrum(p, 2**12)
        e_freq = np.sum(np.abs(s.values) ** 2) * s.df
        assert e_freq == pytest.approx(p.energy(), rel=1e-9)


def test_spectrum_rejects_bad_nfft(monocycle):
    with pytest.raises(ConfigurationError):
        up.spectrum(monocycle, 100)  # not a power of two
    with pytest.raises(ConfigurationError):
        up.spectrum(monocycle, 64)  # shorter than the pulse


def test_spectrum_peak_matches_monocycle(monocycle):
    s = up.spectrum(monocycle, 2**16)
    sel = s.freqs > 0
    peak = s.freqs[sel][np.argmax(np.abs(s.values[sel]))]
    # the window moves the peak; it must stay in the passband
    assert 3.1e9 < peak < 10.6e9


def test_spectrum_matches_direct_transform(pulse25, spec25):
    # 64 bins of the 2^20-point grid, both edges included, against one
    # direct phasor sum per bin
    idx = np.unique(np.linspace(0, len(spec25.freqs) - 1, 64).round().astype(int))
    want = direct_transform(pulse25, spec25.freqs[idx])
    peak = float(np.max(np.abs(spec25.values)))
    assert np.max(np.abs(spec25.values[idx] - want)) <= 1e-13 * peak


def test_power_at_matches_fft_grid(monocycle):
    s = up.spectrum(monocycle, 2**12)
    probe = s.freqs[np.searchsorted(s.freqs, [2e9, 6.85e9, 13.9e9])]
    assert np.allclose(_power_at(monocycle, probe), s.power_at(probe), rtol=1e-12, atol=0)
    # the autocorrelation form's rounding scales with r_0, so at the
    # monocycle's DC null the bound is absolute, against the peak
    peak = float(np.max(s.power()))
    assert abs(float(_power_at(monocycle, 0.0))) <= 2e-15 * peak


# -------------------------------------------------------------- gram symbol


def test_gram_symbol_nonoverlapping_is_one(monocycle):
    vals = gram_symbol(monocycle, TQ + 4 * monocycle.dt, np.linspace(0, 1, 64))
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_gram_symbol_matches_riesz_extrema(pulse25):
    shift = pulse25.duration() / 2
    t = up.translates(pulse25, shift)
    a, b = t.a, t.b
    nu = np.linspace(0, 1, 8192)
    vals = np.asarray(gram_symbol(pulse25, shift, nu))
    r0 = autocorr_samples(pulse25, shift)[0]
    assert vals.min() >= a - 1e-15 * r0
    assert vals.max() <= b + 1e-15 * r0
    assert vals.min() == pytest.approx(a, rel=1e-6)
    assert vals.max() == pytest.approx(b, rel=1e-6)


def test_gram_symbol_nonnegative_and_sum(pulse25):
    shift = pulse25.duration() / 3
    r = autocorr_samples(pulse25, shift)
    val0 = gram_symbol(pulse25, shift, 0.0)
    assert val0 == pytest.approx(r[0] + 2 * np.sum(r[1:]), rel=1e-12)
    assert val0 >= 0.0
    nu = np.linspace(0, 1, 4096)
    assert np.min(np.asarray(gram_symbol(pulse25, shift, nu))) >= -1e-9


def test_gram_symbol_lipschitz_first_differences(pulse25):
    shift = pulse25.duration() / 4
    r = autocorr_samples(pulse25, shift)
    lip = 4.0 * np.pi * np.sum(np.arange(1, len(r)) * np.abs(r[1:]))
    nu = np.linspace(0.0, 1.0, 4096)
    vals = np.asarray(gram_symbol(pulse25, shift, nu))
    dnu = nu[1] - nu[0]
    assert np.max(np.abs(np.diff(vals))) <= lip * dnu * (1 + 1e-9)


# ------------------------------------------------------------------ zak


def test_zak_nu_zero_is_periodization(pulse25):
    shift = pulse25.duration() / 5
    s = shift_samples(pulse25, shift)
    t = 3 * pulse25.dt
    k0 = pulse25.grid.n0 + 3
    direct = sum(
        pulse25.samples[k0 - n * s]
        for n in range(-pulse25.grid.size // s - 1, pulse25.grid.size // s + 2)
        if 0 <= k0 - n * s < pulse25.grid.size
    )
    z = zak_transform(pulse25, shift, t, 0.0)
    assert z.imag == pytest.approx(0.0, abs=1e-15)
    assert z.real == pytest.approx(direct, rel=1e-12)


def test_zak_quasi_periodicity(pulse25):
    # shifting the pulse by k slots multiplies the transform by a phase
    shift = pulse25.duration() / 2
    s = shift_samples(pulse25, shift)
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(-3, 4))
        t = int(rng.integers(-2 * s, 2 * s)) * pulse25.dt
        nu = float(rng.uniform(0, 1))
        grid = TimeGrid(pulse25.dt, pulse25.grid.n0 - k * s, pulse25.grid.size)
        shifted = SampledPulse(grid, pulse25.samples)
        lhs = zak_transform(shifted, shift, t, nu)
        rhs = np.exp(-2j * np.pi * nu * k) * zak_transform(pulse25, shift, t, nu)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_zak_of_autocorr_matches_circulant_eigenvalues(pulse25):
    # the circulant's eigenvalues are the folded spectrum at l/N
    shift = pulse25.duration() / 2
    n = 9
    lam = gram_symbol(pulse25, shift, np.arange(n) / n)
    r = autocorrelation(pulse25)
    for l in range(n):
        z = zak_transform(r, shift, 0.0, l / n)
        assert z.imag == pytest.approx(0.0, abs=1e-12)
        assert z.real == pytest.approx(lam[l], rel=1e-12, abs=1e-12)


def test_zak_rejects_off_grid_time(pulse25):
    shift = pulse25.duration() / 2
    with pytest.raises(GridAlignmentError):
        zak_transform(pulse25, shift, 0.4999 * pulse25.dt, 0.0)


def test_degenerate_shifts_and_times_raise_typed_errors(monocycle):
    for dt in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigurationError, match="grid step"):
            TimeGrid(dt, 0, 3)
    for clock in (0.0, -4 * monocycle.dt):
        with pytest.raises(ConfigurationError, match="positive"):
            semi_discrete_convolve(monocycle, [1.0, 0.5], clock)
    with pytest.raises(GridAlignmentError, match="shift is nan"):
        up.translates(monocycle, float("nan"))


# ------------------------------------------------- quadrature and file I/O


def test_quadrature_consistency_on_refined_grid(design25):
    # the bundled pulses are analytic in their taps: rebuild both at twice
    # the resolution and compare inner products
    taps = design25.taps
    q32 = up.gaussian_monocycle(FC, TQ)
    p32 = semi_discrete_convolve(q32, taps.taps, taps.clock).normalized()
    grid64 = TimeGrid(q32.dt / 2, q32.grid.n0 * 2, (q32.grid.size - 1) * 2 + 1)
    q64 = up.gaussian_monocycle(FC, TQ, grid64)
    p64 = semi_discrete_convolve(q64, taps.taps, taps.clock).normalized()
    ref = inner(p64, q64)
    got = inner(p32, q32)
    assert got == pytest.approx(ref, rel=1e-6)
    assert inner(p32, p32) == pytest.approx(inner(p64, p64), rel=1e-6)


def test_pulse_csv_roundtrip(tmp_path, monocycle):
    path = tmp_path / "q.csv"
    up.save_pulse_csv(path, monocycle)
    back = up.load_pulse_csv(path)
    assert back.grid.dt == pytest.approx(monocycle.dt, rel=1e-12)
    assert back.grid.n0 == monocycle.grid.n0
    assert np.allclose(back.samples, monocycle.samples, rtol=0, atol=0)
    # a strided column would change the summation order of later dot products
    assert back.samples.flags.c_contiguous


def test_csv_paths_refuse_file_descriptors(tmp_path, monocycle):
    # open() takes an int for a descriptor, reads or writes it and closes
    # it; the loaders and the writer refuse one and leave it open
    path = tmp_path / "q.csv"
    up.save_pulse_csv(path, monocycle)
    before = path.read_bytes()
    fd = os.open(path, os.O_RDWR)
    try:
        for call in (
            lambda: up.load_pulse_csv(fd),
            lambda: up.load_mask_csv(fd),
            lambda: up.save_pulse_csv(fd, monocycle),
            lambda: save_family_csv([fd, fd], monocycle.grid, [monocycle.samples] * 2),
        ):
            with pytest.raises(ConfigurationError):
                call()
            os.fstat(fd)
    finally:
        os.close(fd)
    assert path.read_bytes() == before


def _csv_writer_bytes(path, header, rows) -> bytes:
    """Reference bytes: csv.writer, one writerow per row of 17-digit strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" for x in row])
    return path.read_bytes()


def test_bulk_csv_writer_matches_csv_writer(tmp_path, pulse25):
    samples = np.array([-0.0, 5e-324, 2.5e-310, -1e300, 1e300, 0.1, -1.0 / 3.0, 0.0])
    # t = 0 inside, before (n0 < 0) and past (n0 >= size) the grid, a
    # one-sample grid and one of several write blocks; one pulse and a
    # family of three on each
    for n0, size in ((3, 8), (-5, 8), (8, 8), (1_000_003, 8), (0, 1), (-2, 1), (4100, 8193)):
        grid = TimeGrid(T0 / 7, n0, size)
        row = np.resize(samples, size)
        rows = [row, -row, row[::-1]]
        paths = [tmp_path / f"m{i}.csv" for i in range(3)]
        save_family_csv(paths, grid, rows)
        up.save_pulse_csv(tmp_path / "p.csv", SampledPulse(grid, rows[0]))
        for path, member in zip([tmp_path / "p.csv", *paths], [rows[0], *rows]):
            assert path.read_bytes() == _csv_writer_bytes(
                tmp_path / "p_ref.csv", ["t_seconds", "amplitude"], zip(grid.times(), member)
            ), (n0, size, path.name)

    # every member file the CLI writes is its member's (times, samples)
    up.save_pulse_csv(tmp_path / "pulse.csv", pulse25)
    pulse = up.load_pulse_csv(tmp_path / "pulse.csv").normalized()
    for kind in ("lo", "alo"):
        for k in (2, 5):
            out = tmp_path / f"{kind}{k}"
            argv = ["orthogonalize", "--pulse-csv", str(tmp_path / "pulse.csv"),
                    "--kind", kind, "--shift-ratio", str(k), "--outdir", str(out)]
            assert cli_main(argv) == 0
            fam, _, _ = build_family(pulse, k, 2, kind)
            files = sorted(out.glob(f"pulse_{kind}_*.csv"), key=lambda p: int(p.stem[-3:]))
            assert len(files) == fam.size
            for path, member in zip(files, fam.samples):
                rows = zip(fam.grid.times(), member)
                ref = _csv_writer_bytes(tmp_path / "p_ref.csv", ["t_seconds", "amplitude"], rows)
                assert path.read_bytes() == ref, path

    psd = up.Spectrum(np.array([-1e9, 0.0, 2.5e9]), np.array([1e-300, -0.0, 7.25]))
    save_psd_csv(tmp_path / "psd.csv", psd)
    assert (tmp_path / "psd.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "psd_ref.csv", ["f_hz", "psd_w_per_hz"], zip(psd.freqs, psd.values)
    )
    # a complex transform is no PSD: refused by name, and no file written
    complex_psd = up.Spectrum(psd.freqs, psd.values + 2j)
    with pytest.raises(ConfigurationError, match="complex.csv"):
        save_psd_csv(tmp_path / "complex.csv", complex_psd)
    assert not (tmp_path / "complex.csv").exists()

    for lines in ([], [(1e8, 5e-324), (-2e8, 1e300)]):
        save_lines_csv(tmp_path / "lines.csv", lines)
        assert (tmp_path / "lines.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "lines_ref.csv", ["f_hz", "power_w"], lines
        )

    mask = up.fcc_indoor_mask()
    save_mask_csv(tmp_path / "mask.csv", mask)
    assert (tmp_path / "mask.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "mask_ref.csv", ["f_lo_hz", "f_hi_hz", "level_w_per_hz"], mask.segments
    )


def test_pulse_csv_roundtrip_long_pulse(tmp_path):
    # ~2.6e5 samples at the default grid step, like the K = 15 limit pulse:
    # t[1] - t[0] alone would misplace t = 0 by over 1e-6 steps
    n0 = 131261
    grid = TimeGrid(T0 / defaults.SAMPLES_PER_CLOCK, n0, 2 * n0 + 1)
    p = SampledPulse(grid, np.zeros(grid.size))
    up.save_pulse_csv(tmp_path / "long.csv", p)
    assert up.load_pulse_csv(tmp_path / "long.csv").grid.n0 == n0


def test_pulse_csv_long_grid_keeps_writer_dt(tmp_path):
    # the end-to-end step recovers dt to rounding; t[1] - t[0] alone is
    # ~1e-11 off on a grid this long
    dt = T0 / defaults.SAMPLES_PER_CLOCK
    grid = TimeGrid(dt, 120_011, 200_003)
    up.save_pulse_csv(tmp_path / "long.csv", SampledPulse(grid, np.zeros(grid.size)))
    back = up.load_pulse_csv(tmp_path / "long.csv").grid
    assert back.n0 == grid.n0
    assert abs(back.dt - dt) <= 1e-14 * dt


def test_pulse_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_seconds,amplitude\n0,1\n1e-10,2\n3e-10,1\n")
    with pytest.raises(ConfigurationError):
        up.load_pulse_csv(path)


def test_pulse_csv_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_seconds,amplitude\n0,1\nnot_a_number,2\n")
    with pytest.raises(ConfigurationError, match="line 3"):
        up.load_pulse_csv(path)


# ----------------------------------------------------- property checks


import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=64),
    st.integers(0, 63),
)
def test_pulse_csv_roundtrip_random(tmp_path_factory, samples, n0):
    n0 = min(n0, len(samples) - 1)
    grid = TimeGrid(7.3e-12, n0, len(samples))
    p = SampledPulse(grid, np.asarray(samples))
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    up.save_pulse_csv(path, p)
    back = up.load_pulse_csv(path)
    assert np.array_equal(back.samples, p.samples)
    assert back.grid.n0 == p.grid.n0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-15, 1e3, allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**5),
)
def test_duration_is_grid_span(dt, n0, size):
    # oracle: the first and last of the grid's own times, bit for bit
    p = SampledPulse(TimeGrid(dt, n0, size), np.zeros(size))
    t = p.times()
    assert p.duration() == t[-1] - t[0]


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.45), st.integers(1, 8))
def test_autocorr_even_and_bounded_random(nu, k):
    rng = np.random.default_rng(k)
    grid = TimeGrid(1e-11, 16, 33)
    p = SampledPulse(grid, rng.normal(size=33)).normalized()
    r = autocorrelation(p)
    assert np.array_equal(r.samples, r.samples[::-1])
    assert np.abs(r.samples).max() <= r.samples[r.grid.n0] * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=80),
    st.integers(1, 12),
    st.integers(0, 24),
)
def test_lag_autocorrelation_matches_full_correlation(x, step, kmax):
    # oracle: the full np.correlate read at multiples of the step, zero
    # once the lag passes the overlap
    x = np.asarray(x)
    n = len(x)
    full = np.correlate(x, x, "full")
    lags = np.arange(kmax + 1) * step
    want = np.array([full[n - 1 + lag] if lag < n else 0.0 for lag in lags])
    got = lag_autocorrelation(x, step, kmax)
    assert got.shape == (kmax + 1,)
    assert np.all(got[lags >= n] == 0.0)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(float(np.dot(x, x)), 1.0))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.one_of(st.floats(-1, 1), st.floats(-1e6, 1e6)), min_size=1, max_size=6),
)
# near cos(2 pi x) = 1, where Clenshaw in cos(2 pi x) missed the bound
@example(c=[0.0] * 9 + [1.0], x=[0.005859375])
# |x - round(x)| > 1/4: the recurrence mirrored about x = 1/2
@example(
    c=[(-1.0) ** n / (n + 1) for n in range(30)],
    x=[0.2500001, 0.3, 0.49, 0.5, -0.3, 0.7499999],
)
def test_cosine_series_matches_mpmath(c, x):
    # oracle: the direct sum c0 + 2 sum c_n cos(2 pi n x) at 40 digits;
    # the bound lets the float error grow with the angle 2 pi n |x|
    got = cosine_series(c, x)
    assert got.shape == (len(x),)
    weight = sum((n + 1) * abs(cn) for n, cn in enumerate(c))
    for xi, gi in zip(x, got):
        tol = 4 * np.finfo(float).eps * (1 + 2 * np.pi * abs(xi)) * weight
        assert abs(gi - _mp_cosine_series(c, xi)) <= tol


def _mp_cosine_series(c, x):
    """c0 + 2 sum c_n cos(2 pi n x) by a direct sum at 40 digits."""
    with mpmath.workdps(40):
        angle = 2 * mpmath.pi * mpmath.mpf(x)
        terms = (cn * mpmath.cos(n * angle) for n, cn in enumerate(c[1:], start=1))
        return float(c[0] + 2 * mpmath.fsum(terms))


def _mp_power(p, freqs):
    """|p^(f)|^2 at 40 digits: dt^2 |sum_k p_k z^k|^2 with z = exp(-2i pi f dt)."""
    coeffs = [mpmath.mpf(float(v)) for v in p.samples[::-1]]
    out = []
    with mpmath.workdps(40):
        dt = mpmath.mpf(p.dt)
        for f in freqs:
            z = mpmath.expj(-2 * mpmath.pi * mpmath.mpf(float(f)) * dt)
            out.append(float(abs(mpmath.polyval(coeffs, z)) ** 2 * dt**2))
    return np.array(out)


@pytest.mark.parametrize("which", ["monocycle", "design25", "limit_k2"])
def test_power_at_matches_mpmath(which, request):
    pulse = request.getfixturevalue(which)
    pulse = getattr(pulse, "pulse", pulse)
    freqs = np.linspace(0.0, 14e9, 40)
    ref = _mp_power(pulse, freqs)
    assert np.max(np.abs(_power_at(pulse, freqs) - ref)) <= 2e-15 * np.max(ref)


def test_cosine_series_reduces_large_x_exactly():
    # x - round(x) is exact, so the error does not grow with |x|
    c = np.random.default_rng(12).uniform(-1, 1, 30)
    x = np.array([2.0**40 + 0.375, -(2.0**40) - 0.125, 1e12 + 0.1, -3e9 - 0.45])
    assert np.array_equal(cosine_series(c, x), cosine_series(c, x - np.round(x)))
    weight = sum((n + 1) * abs(cn) for n, cn in enumerate(c))
    ref = np.array([_mp_cosine_series(c, xi) for xi in x])
    tol = 4 * np.finfo(float).eps * (1 + np.pi) * weight  # the bound at |x| = 1/2
    assert np.all(np.abs(cosine_series(c, x) - ref) <= tol)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30))
# a leading coefficient far below the others' rounding, which swamped the
# colleague matrix's eigenvalues until it was trimmed
@example(c=[0.0, 0.0, 0.0, 0.0, -1.0, 2.4960124432147682e-148])
# subnormal coefficients, where rounding is absolute, not relative
@example(c=[0.0, 0.0, 5e-324, 5e-324])
def test_cosine_extrema_bracket_dense_values(c):
    # oracle: the series on 4,097 nodes of [0, 1/2]; the bound is the
    # float error of cosine_series at |x| <= 1/2: relative rounding, plus
    # under gradual underflow up to 2^-1075 absolute per operation on
    # either side, which 4 len(c) 2^-1074 covers
    lo, hi = _cosine_extrema(c)
    vals = cosine_series(c, np.linspace(0.0, 0.5, 4097))
    tol = 4 * np.finfo(float).eps * (1 + np.pi) * sum((n + 1) * abs(cn) for n, cn in enumerate(c))
    tol += 4 * len(c) * 2.0**-1074
    assert lo <= vals.min() + tol
    assert vals.max() <= hi + tol
