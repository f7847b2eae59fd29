"""Shared fixtures: the reference design is expensive, so build it once."""

import numpy as np
import pytest
import scipy.linalg

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.pipeline import band_bins, band_spectrum


def direct_transform(p, freqs):
    """Oracle: dt * sum_k p_k exp(-2i pi f t_k), one direct phasor sum per f."""
    t = p.times()
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    return np.array([np.exp(-2j * np.pi * fi * t) @ p.samples for fi in f]) * p.dt


def direct_power(p, freqs):
    """Oracle: |p^(f)|^2 from :func:`direct_transform`."""
    return np.abs(direct_transform(p, freqs)) ** 2


def strang_circulant(g):
    """Oracle: Strang's circulant of a symmetric Toeplitz matrix of odd size
    2M + 1, its first row r(0..M) with the same lags mirrored cyclically.
    Once the band K fits (M >= K) it is the translates' wrapped-band Gram."""
    row = g[0]
    m_half = (len(row) - 1) // 2
    return scipy.linalg.circulant(np.concatenate([row[: m_half + 1], row[m_half:0:-1]]))


FCC_EDGES = (1.61e9, 1.99e9, 3.1e9, 10.6e9)  # the indoor mask's inner edges
# the FCC mask drifted so that segment 0's fitted ceiling at L = 10 sits
# below floor + margin: infeasible on every grid
DEEP_SEGMENT_DRIFT = ((92e6, 144e6, -154e6, 151e6), (-6.2, -8.4, 7.1, 7.2, 7.5))


def drifted_fcc_mask(edges, db):
    """The FCC indoor mask with its 4 inner edges moved by ``edges`` Hz and
    its 5 levels by ``db`` dB; the passband is the highest segment."""
    fcc = up.fcc_indoor_mask()
    bounds = (0.0, *(f + df for f, df in zip(FCC_EDGES, edges)), fcc.f_top)
    levels = [lv * 10.0 ** (d / 10.0) for (_, _, lv), d in zip(fcc.segments, db)]
    top = int(np.argmax(levels))
    return up.SpectralMask(
        tuple(zip(bounds[:-1], bounds[1:], levels)), (bounds[top], bounds[top + 1])
    )


@pytest.fixture(scope="session")
def mask():
    return up.fcc_indoor_mask()


@pytest.fixture(scope="session")
def monocycle():
    return up.gaussian_monocycle(
        defaults.CENTER_FREQ, defaults.MONOCYCLE_CLOCKS * defaults.CLOCK_T0
    )


@pytest.fixture(scope="session")
def design25():
    return up.design_pulse(order=25)


@pytest.fixture(scope="session")
def design15():
    return up.design_pulse(order=15)


@pytest.fixture(scope="session")
def design5():
    return up.design_pulse(order=5)


@pytest.fixture(scope="session")
def design1():
    return up.design_pulse(order=1)


@pytest.fixture(scope="session")
def pulse25(design25):
    return design25.pulse


@pytest.fixture(scope="session")
def family_k2(pulse25):
    """Orthonormal family at T = Tp/2, M = 2K (9 members)."""
    shift = pulse25.duration() / 2
    return up.lowdin_family(pulse25, shift, 4)


@pytest.fixture(scope="session")
def limit_k2(pulse25):
    shift = pulse25.duration() / 2
    return up.orthonormal_generator(pulse25, shift)


@pytest.fixture(scope="session")
def spec25(pulse25, mask):
    return band_spectrum(pulse25, mask)


@pytest.fixture(scope="session")
def bins25(pulse25, mask):
    """The order-25 pulse's band bins and mask-edge samples, the input of
    compliance."""
    return band_bins(pulse25, mask)
