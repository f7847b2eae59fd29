"""Worker side of the benchmark: set up one workload, run whole passes, report.

One process runs one workload as a closed loop with one caller: each op
starts when the previous one returns.  There is no queue or lock in any
layer, so no waiting time is reported.  With tracing on, passes
alternate untraced / traced; traced passes give the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 120.0  # no new pass starts after this much measuring

# (name, unit, kind): kind "count" repeats exactly run to run, "computed"
# is a count derived from argument sizes, "time" and "ratio" are measured
PER_LAYER = [
    ("signals.autocorrelation.calls", "count", "count"),
    ("signals.autocorrelation.mults", "count", "computed"),
    ("signals.autocorrelation.self_ms", "ms", "time"),
    ("signals.autocorr_samples.lag_frac", "ratio", "computed"),
    ("signals.spectrum.calls", "count", "count"),
    ("signals.spectrum.points", "count", "computed"),
    ("signals.spectrum.self_ms", "ms", "time"),
    ("pipeline.band_spectrum.band_frac", "ratio", "computed"),
    ("signals.dtft.calls", "count", "count"),
    ("signals.dtft.mults", "count", "computed"),
    ("signals.dtft.self_ms", "ms", "time"),
    ("signals.inner.calls", "count", "count"),
    ("signals.inner.self_ms", "ms", "time"),
    ("signals.gram_symbol.calls", "count", "count"),
    ("signals.gram_symbol.self_ms", "ms", "time"),
    ("signals.Spectrum.power_at.calls", "count", "count"),
    ("signals.Spectrum.power_at.self_ms", "ms", "time"),
    ("signals.SampledPulse.__post_init__.calls", "count", "count"),
    ("signals.SampledPulse.__post_init__.self_ms", "ms", "time"),
    ("signals.save_pulse_csv.rows", "count", "count"),
    ("signals.save_pulse_csv.self_ms", "ms", "time"),
    ("signals.load_pulse_csv.self_ms", "ms", "time"),
    ("signals.self_ms", "ms", "time"),
    ("spectral.fit_mask_polynomials.self_ms", "ms", "time"),
    ("spectral.CosinePoly.__call__.self_ms", "ms", "time"),
    ("spectral.max_compliant_scale.calls", "count", "count"),
    ("spectral.max_compliant_scale.self_ms", "ms", "time"),
    ("spectral.nesp.self_ms", "ms", "time"),
    ("spectral.psd_pam_ppm.lines", "count", "count"),
    ("spectral.psd_pam_ppm.self_ms", "ms", "time"),
    ("spectral.psd_th_framed.lines", "count", "count"),
    ("spectral.psd_th_framed.self_ms", "ms", "time"),
    ("spectral.save_psd_csv.rows", "count", "count"),
    ("spectral.self_ms", "ms", "time"),
    ("optimizer.passband_weights.self_ms", "ms", "time"),
    ("optimizer.solve_autocorr_lp.rounds", "count", "count"),
    ("optimizer.solve_autocorr_lp.self_ms", "ms", "time"),
    ("optimizer.linprog.calls", "count", "count"),
    ("optimizer.linprog.rows", "count", "count"),
    ("optimizer.linprog.self_ms", "ms", "time"),
    ("optimizer.spectral_factorize.self_ms", "ms", "time"),
    ("optimizer.self_ms", "ms", "time"),
    ("lowdin.riesz_bounds.calls", "count", "count"),
    ("lowdin.riesz_bounds.self_ms", "ms", "time"),
    ("lowdin.gram.self_ms", "ms", "time"),
    ("lowdin.lowdin_family.self_ms", "ms", "time"),
    ("lowdin.approx_lowdin_family.self_ms", "ms", "time"),
    ("lowdin.OrthogonalFamily.max_offdiagonal.self_ms", "ms", "time"),
    ("lowdin.orthonormal_generator.samples_out", "count", "count"),
    ("lowdin.orthonormal_generator.self_ms", "ms", "time"),
    ("lowdin.orthonormal_generator.tail_level_max", "ratio", "count"),
    ("lowdin.self_ms", "ms", "time"),
    ("modem.simulate_ser.trials", "count", "count"),
    ("modem.simulate_ser.self_ms", "ms", "time"),
    ("modem.trial_us", "us", "time"),
    ("modem.trials_per_s", "1/s", "time"),
    ("modem.modulate.self_ms", "ms", "time"),
    ("modem.add_awgn.self_ms", "ms", "time"),
    ("modem.receive_psm.self_ms", "ms", "time"),
    ("modem.receive_oppm.self_ms", "ms", "time"),
    ("modem.ser_over_bound", "count", "count"),
    ("modem.self_ms", "ms", "time"),
    ("pipeline.design_pulse.calls", "count", "count"),
    ("pipeline.design_pulse.ms", "ms", "time"),
    ("pipeline.band_spectrum.calls", "count", "count"),
    ("pipeline.build_family.calls", "count", "count"),
    ("pipeline.build_family.ms", "ms", "time"),
    ("pipeline.analyze_pulse.ms", "ms", "time"),
    ("pipeline.self_ms", "ms", "time"),
    ("cli.design.ms", "ms", "time"),
    ("cli.orthogonalize.ms", "ms", "time"),
    ("cli.analyze.ms", "ms", "time"),
    ("cli.sweep.ms", "ms", "time"),
    ("cli.simulate.ms", "ms", "time"),
    ("cli.main.self_ms", "ms", "time"),
    ("cli.bytes_written", "B", "count"),
    ("warnings", "count", "count"),
    ("trace.uncovered_frac", "ratio", "time"),
    ("trace.overhead_frac", "ratio", "time"),
]


def import_package() -> SimpleNamespace:
    """Import uwbpulse from the checkout's ``src/`` (never from anywhere else)."""
    src = ROOT / "src"
    if not (src / "uwbpulse" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("uwbpulse")
    if Path(package.__file__).resolve().parent != (src / "uwbpulse").resolve():
        raise ImportError(f"uwbpulse imported from {package.__file__}, not {src}")
    mods = {layer: importlib.import_module(f"uwbpulse.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


def versions() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(agg: dict) -> dict:
    """The PER_LAYER values of one traced pass from its span aggregate."""
    out = {}
    for name, _, _ in PER_LAYER:
        out[name] = float(agg.get(name, 0.0))
    used = agg.get("signals.autocorr_samples.lags_used", 0.0)
    computed = agg.get("signals.autocorr_samples.lags_computed", 0.0)
    out["signals.autocorr_samples.lag_frac"] = used / computed if computed else 0.0
    nfft = agg.get("pipeline.band_spectrum.nfft", 0.0)
    out["pipeline.band_spectrum.band_frac"] = (
        agg.get("pipeline.band_spectrum.band_bins", 0.0) / nfft if nfft else 0.0
    )
    trials = agg.get("modem.simulate_ser.trials", 0.0)
    sim_ms = agg.get("modem.simulate_ser.ms", 0.0)
    out["modem.trial_us"] = 1e3 * sim_ms / trials if trials else 0.0
    out["modem.trials_per_s"] = 1e3 * trials / sim_ms if sim_ms else 0.0
    out["cli.main.self_ms"] = float(agg.get("cli.self_ms", 0.0))
    return out


def _run_op(op, tracer, op_id):
    """Time one op (tracing it when ``op_id`` is given), then check its output.

    Returns (seconds, result, failure reason or None)."""
    t0 = time.perf_counter()
    if op_id is not None:
        tracer.begin_op(op_id)
    try:
        result = op.call()
        reason = None
    except Exception as exc:  # an op that raises is a failed op
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        if op_id is not None:
            tracer.end_op()
    dt = time.perf_counter() - t0
    if reason is None:
        try:
            reason = op.check(result, tracer.counters)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    return dt, result, reason


def run_workload(name, seed, seconds, trace, tiny=False, workdir=None, ready=None) -> dict:
    """Set up ``name``, call ``ready()``, then run passes for ``seconds``."""
    uw = import_package()
    workdir = Path(workdir or ROOT / ".bench_work" / f"{name}-{os.getpid()}")
    workload = WORKLOADS[name](uw, seed, tiny, workdir)
    workload.setup()
    ops = workload.ops()
    if ready is not None:
        ready()

    needed = 3 if trace else 1 if tiny else workload.min_passes
    tracer = Tracer()
    op_ms = []
    pass_s = {False: [], True: []}
    per_pass = []
    failures = []
    trial_s = trials = 0
    peak_rss_mb = None
    start = time.perf_counter()
    passes = 0
    try:
        while True:
            elapsed = time.perf_counter() - start
            if passes >= needed and elapsed >= seconds or passes >= 1 and elapsed >= HARD_LIMIT_S:
                break
            traced = trace and passes % 2 == 1  # pass 0 is untraced
            workload.before_pass()
            tracer.counters.clear()
            mark = tracer.mark()
            if traced:
                tracer.install(uw.package)
                gaps = tracer.coverage_gaps(uw.package)
                if gaps:
                    raise RuntimeError(f"unwrapped bindings: {gaps}")
            times = []
            with warnings.catch_warnings(record=traced) as caught:
                if traced:
                    warnings.simplefilter("always")
                for i, op in enumerate(ops):
                    op_id = passes * len(ops) + i if traced else None
                    dt, result, reason = _run_op(op, tracer, op_id)
                    times.append(dt)
                    if reason is not None:
                        failures.append(f"{op.label}: {reason}")
                    elif op.trials and not traced:
                        trial_s += dt
                        trials += op.trials
            pass_s[traced].append(sum(times))
            if traced:
                tracer.uninstall()
                agg = tracer.aggregate(mark)
                agg.update(tracer.counters)
                agg["warnings"] = len(caught)
                per_pass.append(layer_metrics(agg))
            else:
                op_ms.extend(1e3 * t for t in times)
            passes += 1
            if passes == needed:
                # peak so far: later passes only add allocator fragmentation,
                # and how many of them fit in the run varies with machine speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name,
        "seed": seed,
        "attempted": passes * len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "op_ms": op_ms,
        "pass_s": pass_s[False],
        "ops_per_pass": len(ops),
        "tail_pct": workload.tail_pct,
        "peak_rss_mb": peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if trials:
        report["trials_per_s"] = trials / trial_s
    if trace:
        report["per_layer"] = {
            key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
        }
        report["counts_varying"] = sorted(
            key
            for key, _, kind in PER_LAYER
            if kind in ("count", "computed") and len({p[key] for p in per_pass}) > 1
        )
        # pass 0 (untraced) warms lazy imports and caches; compare the rest
        untraced = pass_s[False][1:]
        report["per_layer"]["trace.overhead_frac"] = (
            statistics.median(pass_s[True]) / statistics.median(untraced) - 1.0
        )
        spans = workdir.parent / f"spans-{name}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        report["spans_file"] = str(spans)
    return report
