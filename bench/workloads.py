"""The benchmark's workloads: inputs built in set-up, a fixed op list per pass.

Each workload stresses different modules (see README.md in this
directory for the rationale and the layer -> metric map).  Every op
returns the program's output, which the op's check validates outside the
timed region; a check returns ``None`` or a one-line reason for failure.

Calls go through ``self.uw.<module>.<function>`` at call time, so the
tracer's wrappers, once installed, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# nesp of design_pulse(order=L) on the bundled mask at the reference commit
REF_NESP = {
    1: 0.002806256345570588,
    5: 0.4102126954587515,
    15: 0.7761367373784367,
    25: 0.8722689314105503,
}
NESP_RTOL = 1e-4
TAP_ROUND_TRIP_TOL = 1e-7  # spectral_factorize's default tolerance
ENERGY_TOL = 1e-9
LO_OFFDIAG_MAX = 1e-8
LIMIT_DEFECT_MAX = 1e-10
GENERATOR_TRUNC_LEVEL = 1e-12  # orthonormal_generator's default: converged at or below

# SER at the reference commit for the K = 2 family of the order-25 design,
# 20,000 trials each (seed 987654321): (scheme, E/N0 dB) -> errors / trials
REF_SER = {
    ("PSM", 0): 12502 / 20000,
    ("PSM", 3): 8385 / 20000,
    ("PSM", 6): 3618 / 20000,
    ("PSM", 9): 541 / 20000,
    ("OPPM_LO", 0): 12480 / 20000,
    ("OPPM_LO", 3): 8390 / 20000,
    ("OPPM_LO", 6): 3578 / 20000,
    ("OPPM_LO", 9): 531 / 20000,
}
SER_CONFIDENCE = 1.0 - 1e-6  # two-sided binomial interval per SER point
PSD_RTOL = 1e-12


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    trials: int = 0  # Monte Carlo trials the call runs, for trials_per_s


class Workload:
    """Base: ``setup`` builds the inputs, ``ops`` is the op list of one pass.

    ``min_passes`` whole passes always run, so that ``tail_pct`` -- fixed
    per workload at the middle of one op class -- has at least ten
    samples beyond it and lands in the same op class on every run.
    """

    name = ""
    min_passes = 1
    tail_pct = 50.0

    def __init__(self, uw, seed: int, tiny: bool, workdir: Path):
        self.uw = uw
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup(self) -> None:
        self.mask = self.uw.spectral.fcc_indoor_mask()

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def before_pass(self) -> None:
        pass


def _energy_reason(pulse) -> str | None:
    e = float(np.sum(pulse.samples**2) * pulse.dt)
    if not abs(e - 1.0) <= ENERGY_TOL:
        return f"pulse energy {e!r} is not 1"
    return None


def _nesp_reason(value: float, order: int) -> str | None:
    ref = REF_NESP[order]
    if not abs(value - ref) <= NESP_RTOL * ref:
        return f"nesp {value!r} differs from {ref!r} (L={order}) by more than {NESP_RTOL:g} rel"
    return None


class Design(Workload):
    """design_pulse over orders L in {1, 5, 15, 25}."""

    name = "design"
    min_passes = 7
    tail_pct = 62.5  # middle of the third of four op classes (L = 15)

    def setup(self):
        super().setup()
        self.orders = [1, 5] if self.tiny else [1, 5, 15, 25]

    def ops(self):
        return [
            Op(
                f"design_pulse L={order}",
                lambda order=order: self.uw.pipeline.design_pulse(order=order, mask=self.mask),
                lambda res, counters, order=order: self.check(res, order),
            )
            for order in self.orders
        ]

    @staticmethod
    def check(res, order):
        margin = res.solution.feasibility_margin
        if not margin >= 0.0:
            return f"LP feasibility margin {margin!r} < 0"
        taps = res.taps.taps
        r = res.solution.autocorr.r
        err = float(np.max(np.abs(np.correlate(taps, taps, "full")[len(taps) - 1 :] - r)))
        if not err <= TAP_ROUND_TRIP_TOL:
            return f"tap round-trip error {err:.3e} > {TAP_ROUND_TRIP_TOL:g}"
        return _energy_reason(res.pulse) or _nesp_reason(res.nesp_value, order)


class Orthogonalize(Workload):
    """Löwdin / circulant families, limit pulses and one analysis of one design."""

    name = "orthogonalize"
    min_passes = 4
    tail_pct = 91.7  # middle of op rank 28 of 30

    def setup(self):
        super().setup()
        design = self.uw.pipeline.design_pulse(order=25, mask=self.mask)
        self.pulse = design.pulse
        self.shift15 = self.uw.pipeline.shift_from_ratio(self.pulse, 15)

    def ops(self):
        small = (1, 2) if self.tiny else (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
        large = () if self.tiny else (4, 8)
        limits = (2,) if self.tiny else (2, 12, 16, 20)
        ops = []
        for k in small:
            for kind in ("lo", "alo"):
                ops.append(self._family_op(k, 2, kind))
        for k in large:
            ops.append(self._family_op(k, 8, "lo"))
        for k in limits:
            ops.append(self._family_op(k, 2, "limit"))
        ops.append(
            Op(
                "orthonormal_generator K=15",
                lambda: self.uw.lowdin.orthonormal_generator(self.pulse, self.shift15),
                lambda res, counters: self.check_generator(res),
            )
        )
        ops.append(
            Op(
                "analyze_pulse",
                lambda: self.uw.pipeline.analyze_pulse(self.pulse, self.mask),
                lambda res, counters: self.check_analysis(res),
            )
        )
        return ops

    def _family_op(self, k, m_multiple, kind):
        return Op(
            f"build_family {kind} K={k} M={m_multiple * k}",
            lambda: self.uw.pipeline.build_family(self.pulse, k, m_multiple, kind),
            lambda res, counters: self.check_family(res, kind, k, m_multiple),
        )

    @staticmethod
    def check_family(res, kind, k, m_multiple):
        family, centered, report = res
        if not report["A"] > 0.0:
            return f"lower Riesz bound {report['A']!r} is not positive"
        offdiag = report["offdiag_max"]
        if kind == "lo" and not offdiag <= LO_OFFDIAG_MAX:
            return f"lo off-diagonal {offdiag:.3e} > {LO_OFFDIAG_MAX:g}"
        if kind == "alo" and not 0.0 <= offdiag < 1.0:
            return f"alo off-diagonal {offdiag!r} outside [0, 1)"
        # the limit generator converges at K = 2, 12, 16, 20 (tail <= 4.4e-13)
        if kind == "limit" and not offdiag <= LIMIT_DEFECT_MAX:
            return f"limit translate defect {offdiag:.3e} > {LIMIT_DEFECT_MAX:g}"
        if family is not None and family.size != 2 * m_multiple * k + 1:
            return f"family size {family.size} != {2 * m_multiple * k + 1}"
        # clipped circulant approximants are not unit energy
        return None if kind == "alo" else _energy_reason(centered)

    def check_generator(self, res):
        reason = _energy_reason(res.pulse)
        if reason or not res.tail_level <= GENERATOR_TRUNC_LEVEL:
            # K = 15 hits the 2048-shift cap (tail 8.7e-6): no defect check then
            return reason
        x = res.pulse.samples
        s = int(round(self.shift15 / res.pulse.dt))
        lags = range(1, min(16, (len(x) - 1) // s) + 1)
        defect = max(
            (abs(float(np.dot(x[: -n * s], x[n * s :]))) * res.pulse.dt for n in lags),
            default=0.0,
        )
        if not defect <= LIMIT_DEFECT_MAX:
            return f"limit translate defect {defect:.3e} > {LIMIT_DEFECT_MAX:g}"
        return None

    def check_analysis(self, res):
        if not res["A"] > 0.0:
            return f"lower Riesz bound {res['A']!r} is not positive"
        if not abs(res["energy"] - 1.0) <= ENERGY_TOL:
            return f"energy {res['energy']!r} is not 1"
        return _nesp_reason(res["nesp"], 25)


def _dirichlet(f: np.ndarray, step: float, n: int) -> np.ndarray:
    """|mean of exp(-2i pi f d step)| over d in 0..n-1, vectorized."""
    s = np.sin(np.pi * f * step)
    out = np.ones_like(f)
    far = np.abs(s) > 1e-12
    out[far] = np.abs(np.sin(np.pi * f[far] * step * n) / (n * s[far]))
    return out


class Link(Workload):
    """Monte Carlo SER for PSM and OPPM_LO plus two PSD line models."""

    name = "link"
    min_passes = 7
    tail_pct = 85.0  # middle of op rank 9 of 10 (psd_pam_ppm)

    def setup(self):
        super().setup()
        uw = self.uw
        design = uw.pipeline.design_pulse(order=25, mask=self.mask)
        self.family, self.centered, _ = uw.pipeline.build_family(design.pulse, 2, 2, "lo")
        self.spec = uw.pipeline.band_spectrum(design.pulse, self.mask)
        self.t0 = self.mask.clock
        # a PSM trial costs ~0.38 ms and an OPPM_LO trial ~0.52 ms: these counts
        # make all eight SER ops one cost class, so op_ms.p50 sits mid-class
        self.trials = {"PSM": 270, "OPPM_LO": 200}
        if self.tiny:
            self.trials = {"PSM": 20, "OPPM_LO": 20}

    def ops(self):
        ops = []
        for scheme in ("PSM", "OPPM_LO"):
            for db in (0, 3, 6, 9):
                ops.append(self._ser_op(scheme, db))
        t0 = self.t0
        # unipolar 4-PPM at Ts = 10 T0 (321 lines); framed TH at Tf = 12 T0 (385)
        frame = 2 if self.tiny else 10
        pam = dict(energy=1.0, Ts=frame * t0, mean_a=1.0, var_a=0.0, shift=t0, n_positions=4)
        frame = 3 if self.tiny else 12
        th = dict(
            energy=1.0, Tf=frame * t0, Nc=3, Tc=frame * t0 / 3, n_positions=4, shift=frame * t0 / 12
        )
        ops.append(
            Op(
                "psd_pam_ppm",
                lambda: self.uw.spectral.psd_pam_ppm(self.spec, **pam),
                lambda res, counters: self.check_psd(
                    res, pam["energy"], pam["Ts"],
                    lambda f: pam["mean_a"] * _dirichlet(f, pam["shift"], pam["n_positions"]),
                ),
            )
        )
        ops.append(
            Op(
                "psd_th_framed",
                lambda: self.uw.spectral.psd_th_framed(self.spec, **th),
                lambda res, counters: self.check_psd(
                    res, th["energy"], th["Tf"],
                    lambda f: _dirichlet(f, th["Tc"], th["Nc"])
                    * _dirichlet(f, th["shift"], th["n_positions"]),
                ),
            )
        )
        return ops

    def _ser_op(self, scheme, db):
        gamma = 10.0 ** (db / 10.0)
        cfg = self.uw.modem.LinkConfig(
            n_symbols=self.family.size,
            shift=self.family.shift,
            symbol_period=150 * self.t0,
            energy=1.0,
            noise_density=1.0 / gamma,
            scheme=scheme,
        )
        source = self.family if scheme == "PSM" else self.centered
        trials = self.trials[scheme]
        return Op(
            f"simulate_ser {scheme} {db} dB",
            lambda: self.uw.modem.simulate_ser(cfg, source, trials, seed=self.seed),
            lambda res, counters: self.check_ser(res, scheme, db),
            trials,
        )

    @staticmethod
    def check_ser(res, scheme, db):
        from scipy.stats import binom

        lo, hi = binom.interval(SER_CONFIDENCE, res.trials, REF_SER[(scheme, db)])
        if not lo <= res.errors <= hi:
            return (
                f"{res.errors} errors in {res.trials} trials outside [{lo:g}, {hi:g}] "
                f"around SER {REF_SER[(scheme, db)]:.4g}"
            )
        return None

    def check_psd(self, res, energy, period, gain):
        """Lines against a vectorized evaluation of the same model."""
        cont, lines = res
        vals = cont.values.real
        if not np.all(np.isfinite(vals)) or np.min(vals) < -PSD_RTOL * np.max(vals):
            return "continuous PSD is not finite and nonnegative"
        freqs = self.spec.freqs
        n_max = int(math.floor(float(np.max(np.abs(freqs))) * period))
        f = np.arange(-n_max, n_max + 1) / period
        power = np.interp(f, freqs, np.abs(self.spec.values) ** 2)
        ref = energy * power / period**2 * gain(f) ** 2
        keep = ref > 0.0
        got = np.array(lines, dtype=float).reshape(-1, 2)
        if len(got) != np.count_nonzero(keep):
            return f"{len(got)} lines, expected {np.count_nonzero(keep)}"
        if not np.array_equal(got[:, 0], f[keep]):
            return "line frequencies differ from n / period"
        err = float(np.max(np.abs(got[:, 1] - ref[keep])))
        if not err <= PSD_RTOL * float(np.max(ref)):
            return f"line powers differ from the vectorized model by {err:.3e}"
        return None


class Cli(Workload):
    """In-process CLI chain: design -> orthogonalize x3 -> analyze, sweep, simulate."""

    name = "cli"
    min_passes = 4
    tail_pct = 64.3  # middle of op rank 5 of 7

    def setup(self):
        super().setup()
        self.out = self.workdir / "cli"

    def before_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def ops(self):
        order = "5" if self.tiny else "25"
        trials = "20" if self.tiny else "200"
        limit_k = "2" if self.tiny else "12"
        pulse_csv = str(self.out / "design" / "pulse.csv")
        commands = [
            ("design", ["design", "--order", order]),
            ("orthogonalize-lo", ["orthogonalize", "--pulse-csv", pulse_csv, "--kind", "lo"]),
            ("orthogonalize-alo", ["orthogonalize", "--pulse-csv", pulse_csv, "--kind", "alo"]),
            (
                "orthogonalize-limit",
                ["orthogonalize", "--pulse-csv", pulse_csv, "--kind", "limit",
                 "--shift-ratio", limit_k],
            ),
            ("analyze", ["analyze", "--pulse-csv", pulse_csv, "--shift-clocks", "15"]),
            ("sweep", ["sweep", "--order", order, "--k-list", "1" if self.tiny else "1,2,3"]),
            (
                "simulate",
                ["simulate", "--order", order, "--trials", trials, "--ebn0-list", "0,6",
                 "--seed", str(self.seed)],
            ),
        ]
        return [self._command_op(label, argv) for label, argv in commands]

    def _command_op(self, label, argv):
        outdir = self.out / label
        argv = argv + ["--outdir", str(outdir)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.uw.cli.main(argv)

        return Op(
            f"cli {label}", call, lambda rc, counters: self.check_outdir(rc, outdir, counters)
        )

    @staticmethod
    def check_outdir(rc, outdir: Path, counters: dict):
        if rc != 0:
            return f"exit code {rc}"
        manifest = json.loads((outdir / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            data = (outdir / name).read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                return f"{name}: SHA-256 differs from the manifest"
        counters["cli.bytes_written"] += sum(p.stat().st_size for p in outdir.iterdir())
        return None


WORKLOADS = {w.name: w for w in (Design, Orthogonalize, Link, Cli)}
