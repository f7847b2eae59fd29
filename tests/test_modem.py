"""Waveforms, noise, receivers, analytic bounds, Monte Carlo plumbing."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, norm

import uwbpulse as up
from uwbpulse import defaults, modem
from uwbpulse.errors import ConfigurationError, SingularGramError
from uwbpulse.modem import LinkConfig
from uwbpulse.signals import SampledPulse, TimeGrid, shift_samples

from conftest import add_awgn, inner, measured_correlations, modulate, receive_oppm, receive_psm

T0 = defaults.CLOCK_T0
TS = defaults.SYMBOL_CLOCKS * T0


@pytest.fixture(scope="module")
def oppm_cfg(family_k2):
    return LinkConfig(
        n_symbols=family_k2.size,
        shift=family_k2.shift,
        symbol_period=TS,
        energy=1.0,
        noise_density=0.25,
        scheme="OPPM_LO",
        antipodal=True,
    )


@pytest.fixture(scope="module")
def psm_cfg(family_k2):
    return LinkConfig(
        n_symbols=family_k2.size,
        shift=family_k2.shift,
        symbol_period=TS,
        energy=1.0,
        noise_density=0.25,
        scheme="PSM",
        antipodal=True,
    )


# ---------------------------------------------------------------- modulate


def test_modulate_single_oppm_symbol_is_scaled_template(family_k2, oppm_cfg):
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "antipodal": False, "energy": 4.0})
    ctr = family_k2.centered()
    u = modulate(cfg, ctr, [0])
    assert np.allclose(u.samples[: ctr.grid.size], 2.0 * ctr.samples, rtol=0, atol=0)
    assert np.all(u.samples[ctr.grid.size :] == 0.0)


def test_modulate_psm_energy_per_symbol(family_k2, psm_cfg):
    for msg in range(family_k2.size):
        u = modulate(psm_cfg, family_k2, [msg], seed=5)
        assert u.energy() == pytest.approx(psm_cfg.energy, abs=1e-8)


def test_modulate_rejects_bad_message(family_k2, psm_cfg):
    with pytest.raises(ConfigurationError):
        modulate(psm_cfg, family_k2, [family_k2.size])


def test_modulate_oppm_overlapping_symbols_still_separate(family_k2, oppm_cfg):
    # adjacent positions overlap in time, yet the matched filter resolves
    # them through the near-orthogonal correlation structure
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "antipodal": False, "noise_density": 0.0})
    ctr = family_k2.centered()
    for msg in (3, 4):
        u = modulate(cfg, ctr, [msg])
        assert receive_oppm(u, ctr, cfg)[0] == msg
    u3 = modulate(cfg, ctr, [3])
    u4 = modulate(cfg, ctr, [4])
    overlap = np.minimum(np.abs(u3.samples), np.abs(u4.samples))
    assert np.max(overlap) > 0.0  # the waveforms really do overlap


def test_link_config_validates_position_span():
    with pytest.raises(ConfigurationError):
        LinkConfig(
            n_symbols=100,
            shift=TS / 10,
            symbol_period=TS,
            energy=1.0,
            noise_density=1.0,
            scheme="OPPM_LO",
        )


# -------------------------------------------------------------------- awgn


def test_awgn_zero_noise_is_identity(family_k2):
    ctr = family_k2.centered()
    r = add_awgn(ctr, 0.0, seed=1)
    assert np.array_equal(r.samples, ctr.samples)


def test_awgn_per_sample_variance(family_k2):
    ctr = family_k2.centered()
    n0 = 0.8
    rng_len = 1_000_000
    from uwbpulse.signals import SampledPulse, TimeGrid

    silent = SampledPulse(TimeGrid(ctr.dt, 0, rng_len), np.zeros(rng_len))
    r = add_awgn(silent, n0, seed=99)
    var = float(np.var(r.samples))
    assert var == pytest.approx(n0 / (2 * ctr.dt), rel=0.01)


def test_awgn_correlator_variance(family_k2):
    # correlation of pure noise against a unit-energy template has
    # variance N0/2
    ctr = family_k2.centered()
    n0 = 0.5
    stats = []
    for trial in range(10_000):
        from uwbpulse.signals import SampledPulse

        silent = SampledPulse(ctr.grid, np.zeros(ctr.grid.size))
        r = add_awgn(silent, n0, seed=trial)
        stats.append(inner(r, ctr))
    var = float(np.var(stats))
    assert var == pytest.approx(n0 / 2, rel=0.05)


def test_awgn_deterministic_under_seed(family_k2):
    ctr = family_k2.centered()
    r1 = add_awgn(ctr, 0.3, seed=7)
    r2 = add_awgn(ctr, 0.3, seed=7)
    assert np.array_equal(r1.samples, r2.samples)


# ---------------------------------------------------------------- receivers


def test_receive_psm_noiseless_all_members(family_k2, psm_cfg):
    cfg = LinkConfig(**{**psm_cfg.__dict__, "antipodal": False, "noise_density": 0.0})
    for j in range(family_k2.size):
        u = modulate(cfg, family_k2, [j])
        assert receive_psm(u, family_k2) == j


def test_receive_psm_sign_flip_invariant(family_k2, psm_cfg):
    from uwbpulse.signals import SampledPulse

    for j in (0, 4, 8):
        s = SampledPulse(family_k2.grid, family_k2.samples[j])
        neg = SampledPulse(s.grid, -s.samples)
        assert receive_psm(neg, family_k2) == j


def test_receive_psm_matches_per_member_correlators(family_k2):
    # observations on grids offset from the family's, shorter and longer
    # than the family span, against one inner product per member
    grid = family_k2.grid
    s = shift_samples(family_k2.centered(), family_k2.shift)
    members = [SampledPulse(grid, row) for row in family_k2.samples]
    rng = np.random.default_rng(11)
    for offset in (-s, 0, 3):
        for size in (grid.size // 3, grid.size, grid.size + 2 * s):
            r = SampledPulse(TimeGrid(grid.dt, grid.n0 - offset, size), rng.normal(size=size))
            expect = int(np.argmax([abs(inner(r, m)) for m in members]))
            assert receive_psm(r, family_k2) == expect
    # fully disjoint, just before or far after the family: every statistic
    # is 0 and the first index wins
    for n0 in (grid.n0 + 60, -grid.size):
        far = SampledPulse(TimeGrid(grid.dt, n0, 50), rng.normal(size=50))
        assert all(inner(far, m) == 0.0 for m in members)
        assert receive_psm(far, family_k2) == 0


def test_receive_oppm_matches_per_position_dot(family_k2, oppm_cfg):
    # noise makes some decisions wrong; the last slot (message N-1) is cut
    # short, so its late positions correlate against zero-padded windows
    tmpl = family_k2.centered()
    size = tmpl.grid.size
    s = shift_samples(tmpl, oppm_cfg.shift)
    step = int(round(oppm_cfg.symbol_period / tmpl.dt))
    rng = np.random.default_rng(5)
    msgs = [int(m) for m in rng.integers(0, oppm_cfg.n_symbols, 40)] + [oppm_cfg.n_symbols - 1]
    u = add_awgn(modulate(oppm_cfg, tmpl, msgs, seed=2), 1.0, seed=3)
    for cut in (0, s + 7, step // 2 - 100):
        r = SampledPulse(TimeGrid(u.dt, u.grid.n0, u.grid.size - cut), u.samples[: u.grid.size - cut])
        expect = []
        for n in range(len(msgs)):
            stats = []
            for d in range(oppm_cfg.n_symbols):
                seg = r.samples[n * step + d * s : n * step + d * s + size]
                stats.append(abs(np.dot(np.pad(seg, (0, size - len(seg))), tmpl.samples)))
            expect.append(int(np.argmax(stats)))
        assert receive_oppm(r, tmpl, oppm_cfg) == expect


def test_receive_oppm_noiseless_sequence(family_k2, oppm_cfg):
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "noise_density": 0.0})
    msgs = list(range(cfg.n_symbols))
    u = modulate(cfg, family_k2.centered(), msgs, seed=3)
    got = receive_oppm(u, family_k2.centered(), cfg)
    assert got == msgs


def test_oppm_loopback_error_free_when_correlations_small(family_k2, oppm_cfg):
    rho = measured_correlations(family_k2.centered(), oppm_cfg)
    assert np.abs(rho).max() < 0.5
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "noise_density": 0.0})
    rng = np.random.default_rng(17)
    msgs = [int(m) for m in rng.integers(0, cfg.n_symbols, 40)]
    u = modulate(cfg, family_k2.centered(), msgs, seed=1)
    assert receive_oppm(u, family_k2.centered(), cfg) == msgs


# ------------------------------------------------------------------- bounds


def test_orthogonal_bound_at_zero_snr():
    assert up.union_bound_orthogonal(2, 0.0, 1.0) == 1.0


def test_orthogonal_bound_monotonicity():
    vals = [up.union_bound_orthogonal(9, e, 1.0) for e in (1.0, 2.0, 4.0, 8.0)]
    assert vals == sorted(vals, reverse=True)
    fixed_e = [up.union_bound_orthogonal(n, 4.0, 1.0) for n in (2, 5, 9)]
    assert fixed_e == sorted(fixed_e)


def test_orthogonal_bound_against_erfc_oracle():
    # oracle: 50-digit evaluation of the complementary error function
    mpmath.mp.dps = 50
    expect = float(8 * mpmath.erfc(mpmath.sqrt(4.0)))
    got = up.union_bound_orthogonal(9, 4.0, 1.0)
    assert abs(got - expect) <= 1e-12


def test_correlated_bound_zero_correlation():
    n = 9
    e_n0 = 4.0
    got = up.union_bound_correlated(np.zeros(n - 1), e_n0, 1.0)
    expect = 0.5 * (n - 1) * math.erfc(math.sqrt(e_n0 / 2.0))
    assert got == pytest.approx(expect, rel=1e-12)


def test_correlated_bound_fully_correlated():
    n = 9
    got = up.union_bound_correlated(np.ones(n - 1), 4.0, 1.0)
    assert got == pytest.approx((n - 1) / 2.0, rel=1e-12)


def test_correlated_bound_rejects_unnormalized():
    with pytest.raises(ConfigurationError):
        up.union_bound_correlated(np.array([1.5]), 1.0, 1.0)


def test_orthogonal_bound_without_noise():
    assert up.union_bound_orthogonal(9, 1.0, 0.0) == 0.0


def test_correlated_bound_without_noise():
    # the N0 -> 0 limit of each erfc term: 0 for rho < 1, 1 for rho = 1
    assert up.union_bound_correlated(np.array([0.0, 0.3, -1.0]), 1.0, 0.0) == 0.0
    assert up.union_bound_correlated(np.array([0.2, 1.0]), 1.0, 0.0) == 0.5


def test_correlated_bound_with_measured_correlations(family_k2, oppm_cfg):
    rho = measured_correlations(family_k2.centered(), oppm_cfg)
    got = up.union_bound_correlated(rho, 4.0, 1.0)
    ref = up.union_bound_correlated(np.zeros(len(rho)), 4.0, 1.0)
    assert abs(got - ref) <= 0.1 * ref


# --------------------------------------------------------------------- rate


def test_bit_rate_endpoints():
    baseline = up.uncoded_bit_rate(2, TS)
    assert baseline == pytest.approx(0.1867e9, rel=5e-3)
    assert up.bit_rate(2) == pytest.approx(0.592e9, rel=5e-3)
    assert up.bit_rate(0) == 0.0
    for k, clock in ((-1, T0), (2, 0.0)):
        with pytest.raises(ConfigurationError):
            up.bit_rate(k, clock)


def test_bit_rate_matches_symbol_count():
    for k in range(1, 7):
        assert up.bit_rate(k) == pytest.approx(
            math.log2(4 * k + 1) / TS, rel=1e-12
        )


# ----------------------------------------------------------- determinism


def test_simulation_deterministic(family_k2, psm_cfg):
    r1 = up.simulate_ser(psm_cfg, family_k2, trials=200, seed=11)
    r2 = up.simulate_ser(psm_cfg, family_k2, trials=200, seed=11)
    assert r1 == r2


def test_modulate_deterministic(family_k2, psm_cfg):
    u1 = modulate(psm_cfg, family_k2, [1, 3, 5], seed=2)
    u2 = modulate(psm_cfg, family_k2, [1, 3, 5], seed=2)
    assert np.array_equal(u1.samples, u2.samples)


def test_ser_result_fields(family_k2, psm_cfg):
    res = up.simulate_ser(psm_cfg, family_k2, trials=500, seed=0)
    assert res.trials == 500
    assert 0.0 <= res.ser <= 1.0
    assert res.errors == round(res.ser * res.trials)
    assert res.ci95 == pytest.approx(
        1.96 * math.sqrt(res.ser * (1 - res.ser) / res.trials), rel=1e-9
    )
    # each Wilson limit q is a root of (ser - q)^2 = z^2 q (1 - q) / n
    assert 0.0 < res.wilson_lo < res.ser < res.wilson_hi
    for q in (res.wilson_lo, res.wilson_hi):
        assert (res.ser - q) ** 2 == pytest.approx(1.96**2 * q * (1 - q) / res.trials, rel=1e-9)


# --------------------------------------------------------- correlator law


def _link(base, scheme, **changes):
    return LinkConfig(**{**base.__dict__, "scheme": scheme, **changes})


def _exact_orthonormal_ser(n_symbols, energy, noise_density):
    """1 - P(|Y0| > |Yj| for all j) with Y0 ~ N(sqrt(E), N0/2) and N-1
    independent Yj ~ N(0, N0/2): 1 - int_0^inf f_|Y0|(x) erf(x/sqrt(N0))^(N-1) dx."""
    mu, sd = math.sqrt(energy), math.sqrt(noise_density / 2.0)

    def integrand(x):
        folded = norm.pdf(x, mu, sd) + norm.pdf(x, -mu, sd)
        return folded * math.erf(x / math.sqrt(noise_density)) ** (n_symbols - 1)

    p_correct, _ = quad(integrand, 0.0, mu + 40.0 * sd, points=[mu], epsabs=1e-13)
    return 1.0 - p_correct


@pytest.mark.parametrize("scheme", ["PSM", "OPPM_LO", "OPPM_ALO"])
def test_correlator_gram_rows_are_noiseless_statistics(family_k2, pulse25, psm_cfg, scheme):
    # row d of the Gram that simulate_ser samples around is what the
    # receiver's correlators read from the noiseless waveform of message d
    cfg = _link(psm_cfg, scheme, antipodal=False, noise_density=0.0)
    if scheme == "PSM":
        source = family_k2
    elif scheme == "OPPM_LO":
        source = family_k2.centered()
    else:
        source = up.approx_lowdin_family(pulse25, family_k2.shift, 4).centered()
    gram = modem._correlator_gram(cfg, source)
    for d in range(cfg.n_symbols):
        u = modulate(cfg, source, [d])
        if scheme == "PSM":
            stats = source.samples @ u.samples * u.dt
        else:
            s = shift_samples(source, cfg.shift)
            size = source.grid.size
            windows = [u.samples[k * s : k * s + size] for k in range(cfg.n_symbols)]
            stats = np.array([np.dot(w, source.samples) for w in windows]) * u.dt
        assert np.max(np.abs(stats - gram[d])) <= 1e-12


@pytest.mark.parametrize("scheme", ["PSM", "OPPM_LO"])
@pytest.mark.parametrize("ebn0", [1.0, 2.0, 4.0, 8.0])
def test_ser_inside_exact_oracle_interval(family_k2, psm_cfg, scheme, ebn0):
    # criterion 12's grid; both Grams are the identity to within 1e-8
    cfg = _link(psm_cfg, scheme, noise_density=1.0 / ebn0)
    source = family_k2 if scheme == "PSM" else family_k2.centered()
    trials = 200_000
    res = up.simulate_ser(cfg, source, trials=trials, seed=0)
    exact = _exact_orthonormal_ser(cfg.n_symbols, cfg.energy, cfg.noise_density)
    lo, hi = binom.interval(1.0 - 1e-6, trials, exact)
    assert lo <= res.errors <= hi


@pytest.mark.parametrize("scheme, antipodal", [("PSM", True), ("OPPM_LO", False)])
def test_simulation_independent_of_batch_size(family_k2, psm_cfg, monkeypatch, scheme, antipodal):
    cfg = _link(psm_cfg, scheme, antipodal=antipodal)
    source = family_k2 if scheme == "PSM" else family_k2.centered()
    ref = up.simulate_ser(cfg, source, trials=1000, seed=4)
    monkeypatch.setattr(modem, "_CHUNK_BYTES", 7 * 8 * cfg.n_symbols)  # 7 trials a batch
    assert up.simulate_ser(cfg, source, trials=1000, seed=4) == ref
    assert up.simulate_ser(cfg, source, trials=1000, seed=4) == ref
    # trial i depends on (seed, i) only: one more trial adds 0 or 1 error
    errors = [up.simulate_ser(cfg, source, trials=t, seed=4).errors for t in range(1, 40)]
    assert set(np.diff([0] + errors)) <= {0, 1}
    assert errors[-1] > 0


@pytest.mark.parametrize("scheme", ["PSM", "OPPM_LO"])
def test_simulation_noiseless_has_no_errors(family_k2, psm_cfg, scheme):
    cfg = _link(psm_cfg, scheme, noise_density=0.0)
    source = family_k2 if scheme == "PSM" else family_k2.centered()
    res = up.simulate_ser(cfg, source, trials=5000, seed=1)
    assert res.errors == 0
    assert res.bound == 0.0
    # Wald's ci95 collapses here; Wilson's upper limit is z^2 / (n + z^2)
    assert res.wilson_lo == 0.0
    assert res.wilson_hi > 0.0
    assert res.wilson_hi == pytest.approx(1.96**2 / (5000 + 1.96**2), rel=1e-12)


def test_simulation_rejects_negative_seed(family_k2, psm_cfg):
    with pytest.raises(ConfigurationError):
        up.simulate_ser(psm_cfg, family_k2, trials=10, seed=-1)


def test_simulation_rejects_singular_gram(family_k2, psm_cfg, oppm_cfg):
    samples = family_k2.samples.copy()
    samples[-1] = 0.0
    with pytest.raises(SingularGramError):
        up.simulate_ser(psm_cfg, dataclasses.replace(family_k2, samples=samples), trials=10)
    tmpl = family_k2.centered()
    flat = SampledPulse(tmpl.grid, np.zeros(tmpl.grid.size))
    with pytest.raises(SingularGramError):
        up.simulate_ser(oppm_cfg, flat, trials=10)


def test_simulation_checks_inputs(family_k2, psm_cfg):
    ctr = family_k2.centered()
    off_grid = TS * (1 + 1e-3)
    cases = [
        (_link(psm_cfg, "PSM", n_symbols=7), family_k2, ConfigurationError),
        (_link(psm_cfg, "PSM", symbol_period=off_grid), family_k2, ConfigurationError),
        (_link(psm_cfg, "PSM"), ctr, ConfigurationError),
        (_link(psm_cfg, "OPPM_LO", shift=family_k2.shift * 1.001), ctr, up.GridAlignmentError),
        (_link(psm_cfg, "OPPM_LO", symbol_period=off_grid), ctr, ConfigurationError),
        (_link(psm_cfg, "OPPM_LO"), family_k2, ConfigurationError),
    ]
    for cfg, source, error in cases:
        with pytest.raises(error):
            up.simulate_ser(cfg, source, trials=10)
    for changes in (
        {"symbol_period": 0.0},
        {"symbol_period": -1e-9},
        {"symbol_period": math.nan},
        {"shift": -1.0},
    ):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            up.simulate_ser(_link(psm_cfg, "PSM", **changes), family_k2, trials=10)
    with pytest.raises(ConfigurationError):
        up.simulate_ser(psm_cfg, family_k2, trials=0)
