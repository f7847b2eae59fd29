"""Waveforms, noise, receivers, analytic bounds, Monte Carlo plumbing."""

import math

import mpmath
import numpy as np
import pytest

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.errors import ConfigurationError
from uwbpulse.modem import LinkConfig, measured_correlations
from uwbpulse.signals import SampledPulse, TimeGrid, inner, shift_samples

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
    u = up.modulate(cfg, ctr, [0])
    assert np.allclose(u.samples[: ctr.grid.size], 2.0 * ctr.samples, rtol=0, atol=0)
    assert np.all(u.samples[ctr.grid.size :] == 0.0)


def test_modulate_psm_energy_per_symbol(family_k2, psm_cfg):
    for msg in range(family_k2.size):
        u = up.modulate(psm_cfg, family_k2, [msg], seed=5)
        assert u.energy() == pytest.approx(psm_cfg.energy, abs=1e-8)


def test_modulate_rejects_bad_message(family_k2, psm_cfg):
    with pytest.raises(ConfigurationError):
        up.modulate(psm_cfg, family_k2, [family_k2.size])


def test_modulate_oppm_overlapping_symbols_still_separate(family_k2, oppm_cfg):
    # adjacent positions overlap in time, yet the matched filter resolves
    # them through the near-orthogonal correlation structure
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "antipodal": False, "noise_density": 0.0})
    ctr = family_k2.centered()
    for msg in (3, 4):
        u = up.modulate(cfg, ctr, [msg])
        assert up.receive_oppm(u, ctr, cfg)[0] == msg
    u3 = up.modulate(cfg, ctr, [3])
    u4 = up.modulate(cfg, ctr, [4])
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
    r = up.add_awgn(ctr, 0.0, seed=1)
    assert np.array_equal(r.samples, ctr.samples)


def test_awgn_per_sample_variance(family_k2):
    ctr = family_k2.centered()
    n0 = 0.8
    rng_len = 1_000_000
    from uwbpulse.signals import SampledPulse, TimeGrid

    silent = SampledPulse(TimeGrid(ctr.dt, 0, rng_len), np.zeros(rng_len))
    r = up.add_awgn(silent, n0, seed=99)
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
        r = up.add_awgn(silent, n0, seed=trial)
        stats.append(inner(r, ctr))
    var = float(np.var(stats))
    assert var == pytest.approx(n0 / 2, rel=0.05)


def test_awgn_deterministic_under_seed(family_k2):
    ctr = family_k2.centered()
    r1 = up.add_awgn(ctr, 0.3, seed=7)
    r2 = up.add_awgn(ctr, 0.3, seed=7)
    assert np.array_equal(r1.samples, r2.samples)


# ---------------------------------------------------------------- receivers


def test_receive_psm_noiseless_all_members(family_k2, psm_cfg):
    cfg = LinkConfig(**{**psm_cfg.__dict__, "antipodal": False, "noise_density": 0.0})
    for j in range(family_k2.size):
        u = up.modulate(cfg, family_k2, [j])
        assert up.receive_psm(u, family_k2) == j


def test_receive_psm_sign_flip_invariant(family_k2, psm_cfg):
    from uwbpulse.signals import SampledPulse

    for j in (0, 4, 8):
        s = family_k2.pulses[j]
        neg = SampledPulse(s.grid, -s.samples, s.support)
        assert up.receive_psm(neg, family_k2) == j


def test_receive_psm_matches_per_member_correlators(family_k2):
    # observations on grids offset from the family's, shorter and longer
    # than the family span, against one inner product per member
    grid = family_k2.grid
    s = shift_samples(family_k2.centered(), family_k2.shift)
    members = family_k2.pulses
    rng = np.random.default_rng(11)
    for offset in (-s, 0, 3):
        for size in (grid.size // 3, grid.size, grid.size + 2 * s):
            r = SampledPulse(TimeGrid(grid.dt, grid.n0 - offset, size), rng.normal(size=size))
            expect = int(np.argmax([abs(inner(r, m)) for m in members]))
            assert up.receive_psm(r, family_k2) == expect
    # fully disjoint, just before or far after the family: every statistic
    # is 0 and the first index wins
    for n0 in (grid.n0 + 60, -grid.size):
        far = SampledPulse(TimeGrid(grid.dt, n0, 50), rng.normal(size=50))
        assert all(inner(far, m) == 0.0 for m in members)
        assert up.receive_psm(far, family_k2) == 0


def test_receive_oppm_matches_per_position_dot(family_k2, oppm_cfg):
    # noise makes some decisions wrong; the last slot (message N-1) is cut
    # short, so its late positions correlate against zero-padded windows
    tmpl = family_k2.centered()
    size = tmpl.grid.size
    s = shift_samples(tmpl, oppm_cfg.shift)
    step = int(round(oppm_cfg.symbol_period / tmpl.dt))
    rng = np.random.default_rng(5)
    msgs = [int(m) for m in rng.integers(0, oppm_cfg.n_symbols, 40)] + [oppm_cfg.n_symbols - 1]
    u = up.add_awgn(up.modulate(oppm_cfg, tmpl, msgs, seed=2), 1.0, seed=3)
    for cut in (0, s + 7, step // 2 - 100):
        r = SampledPulse(TimeGrid(u.dt, u.grid.n0, u.grid.size - cut), u.samples[: u.grid.size - cut])
        expect = []
        for n in range(len(msgs)):
            stats = []
            for d in range(oppm_cfg.n_symbols):
                seg = r.samples[n * step + d * s : n * step + d * s + size]
                stats.append(abs(np.dot(np.pad(seg, (0, size - len(seg))), tmpl.samples)))
            expect.append(int(np.argmax(stats)))
        assert up.receive_oppm(r, tmpl, oppm_cfg) == expect


def test_receive_oppm_noiseless_sequence(family_k2, oppm_cfg):
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "noise_density": 0.0})
    msgs = list(range(cfg.n_symbols))
    u = up.modulate(cfg, family_k2.centered(), msgs, seed=3)
    got = up.receive_oppm(u, family_k2.centered(), cfg)
    assert got == msgs


def test_oppm_loopback_error_free_when_correlations_small(family_k2, oppm_cfg):
    rho = measured_correlations(family_k2.centered(), oppm_cfg)
    assert np.abs(rho).max() < 0.5
    cfg = LinkConfig(**{**oppm_cfg.__dict__, "noise_density": 0.0})
    rng = np.random.default_rng(17)
    msgs = [int(m) for m in rng.integers(0, cfg.n_symbols, 40)]
    u = up.modulate(cfg, family_k2.centered(), msgs, seed=1)
    assert up.receive_oppm(u, family_k2.centered(), cfg) == msgs


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
    u1 = up.modulate(psm_cfg, family_k2, [1, 3, 5], seed=2)
    u2 = up.modulate(psm_cfg, family_k2, [1, 3, 5], seed=2)
    assert np.array_equal(u1.samples, u2.samples)


def test_ser_result_fields(family_k2, psm_cfg):
    res = up.simulate_ser(psm_cfg, family_k2, trials=500, seed=0)
    assert res.trials == 500
    assert 0.0 <= res.ser <= 1.0
    assert res.errors == round(res.ser * res.trials)
    assert res.ci95 == pytest.approx(
        1.96 * math.sqrt(res.ser * (1 - res.ser) / res.trials), rel=1e-9
    )
