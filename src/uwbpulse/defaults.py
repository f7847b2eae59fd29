"""Default physical constants of the reference configuration.

The mask tops out at 14 GHz, which pins the fastest usable filter clock
to 1/28 GHz; everything else is expressed in multiples of that clock.
"""

CLOCK_T0 = 1.0 / 28e9
"""Filter clock period in seconds (28 GHz clock)."""

CENTER_FREQ = 6.85e9
"""Monocycle center frequency in hertz."""

SAMPLES_PER_CLOCK = 32
"""Default grid resolution: samples per clock period."""

MONOCYCLE_CLOCKS = 6
"""Monocycle window length in clock periods (T_q = 6 T0)."""

FIR_ORDER = 25
"""Default shaping filter order L."""

SYMBOL_CLOCKS = 150
"""Symbol duration in clock periods for the reference link (T_s = 150 T0)."""
