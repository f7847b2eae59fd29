"""Span tracer that measures each uwbpulse module from outside.

The tracer wraps the public functions of every layer module (plus a few
methods and the SciPy solver as bound in ``optimizer``) and installs each
wrapper on *every* namespace that binds the original: ``pipeline``,
``lowdin`` and ``cli`` import names with ``from .x import f``, so wrapping
only the defining module would miss their calls.  Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` restores every binding.

A span records its name, start, end, parent span and op id.  Spans stay in
memory (flat ``array`` columns) until the run ends.  Self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from types import FunctionType, ModuleType

LAYERS = ("signals", "spectral", "optimizer", "lowdin", "modem", "pipeline", "cli")

# methods that do measurable work, traced as "<layer>.<Class>.<method>"
METHODS = {
    "signals": {"Spectrum": ("power_at",), "SampledPulse": ("__post_init__",)},
    "spectral": {"CosinePoly": ("__call__",)},
    "lowdin": {"OrthogonalFamily": ("gram", "max_offdiagonal")},
}
# third-party callables traced as bound in a layer's namespace
FOREIGN = {"optimizer": ("linprog",)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _probe_autocorrelation(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "p").grid.size
    c["signals.autocorrelation.mults"] += n * n


def _probe_autocorr_samples(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "p").grid.size
    c["signals.autocorr_samples.lags_used"] += len(result)
    c["signals.autocorr_samples.lags_computed"] += 2 * n - 1


def _probe_spectrum(c, args, kwargs, result):
    c["signals.spectrum.points"] += _arg(args, kwargs, 1, "nfft")


def _probe_dtft(c, args, kwargs, result):
    c["signals.dtft.mults"] += len(result) * _arg(args, kwargs, 0, "p").grid.size


def _probe_save_pulse(c, args, kwargs, result):
    c["signals.save_pulse_csv.rows"] += _arg(args, kwargs, 1, "p").grid.size


def _probe_band_spectrum(c, args, kwargs, result):
    mask = _arg(args, kwargs, 1, "mask")
    nfft = len(result.freqs)
    df = float(result.freqs[1] - result.freqs[0])
    c["pipeline.band_spectrum.band_bins"] += min(int(mask.f_top / df) + 1, nfft // 2)
    c["pipeline.band_spectrum.nfft"] += nfft


def _probe_lines(name):
    def probe(c, args, kwargs, result):
        c[name] += len(result[1])

    return probe


def _probe_save_psd(c, args, kwargs, result):
    c["spectral.save_psd_csv.rows"] += len(_arg(args, kwargs, 1, "psd").freqs)


def _probe_linprog(c, args, kwargs, result):
    c["optimizer.linprog.rows"] += kwargs["A_ub"].shape[0] if "A_ub" in kwargs else 0


def _probe_lp(c, args, kwargs, result):
    c["optimizer.solve_autocorr_lp.rounds"] += result.backoff_rounds


def _probe_generator(c, args, kwargs, result):
    c["lowdin.orthonormal_generator.samples_out"] += result.pulse.grid.size
    key = "lowdin.orthonormal_generator.tail_level_max"
    c[key] = max(c[key], float(result.tail_level))


def _probe_simulate(c, args, kwargs, result):
    c["modem.simulate_ser.trials"] += result.trials
    c["modem.ser_over_bound"] += int(result.ser > result.bound)


PROBES = {
    "signals.autocorrelation": _probe_autocorrelation,
    "signals.autocorr_samples": _probe_autocorr_samples,
    "signals.spectrum": _probe_spectrum,
    "signals.dtft": _probe_dtft,
    "signals.save_pulse_csv": _probe_save_pulse,
    "pipeline.band_spectrum": _probe_band_spectrum,
    "spectral.psd_pam_ppm": _probe_lines("spectral.psd_pam_ppm.lines"),
    "spectral.psd_th_framed": _probe_lines("spectral.psd_th_framed.lines"),
    "spectral.save_psd_csv": _probe_save_psd,
    "optimizer.linprog": _probe_linprog,
    "optimizer.solve_autocorr_lp": _probe_lp,
    "lowdin.orthonormal_generator": _probe_generator,
    "modem.simulate_ser": _probe_simulate,
}


def span_name(layer: str, attr: str) -> str:
    """Span name of a layer function; CLI commands drop their ``cmd_`` prefix."""
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[4:]
    return f"{layer}.{attr}"


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the union of its direct children's intervals.

    Spans must be listed in start order (a child after its parent), which
    is the order the tracer records them in.
    """
    n = len(starts)
    covered = [0] * n
    reach = [None] * n  # furthest end of the children merged so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if reach[p] is not None:
            lo = max(lo, reach[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = hi if reach[p] is None else max(reach[p], hi)
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def union_length(intervals) -> int:
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is not None:
            lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
        reach = hi if reach is None else max(reach, hi)
    return total


class Tracer:
    """Records spans around calls into the package's modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_spans: list[tuple[int, int, int]] = []  # (op id, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.current_op = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        probe = PROBES.get(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.start.append(0)
            tracer.end.append(0)
            stack.append(sid)
            tracer.start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if (
                    isinstance(val, FunctionType)
                    and val.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(val)] = self._wrap(val, span_name(layer, attr))
                    self._originals[id(val)] = val
            for attr in FOREIGN.get(layer, ()):
                val = getattr(mod, attr)
                wrappers[id(val)] = self._wrap(val, f"{layer}.{attr}")
                self._originals[id(val)] = val
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._originals[id(orig)] = orig
                    self._rebind(cls, meth, self._wrap(orig, f"{layer}.{cls_name}.{meth}"))
        for mod in _package_modules(package):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._rebind(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._rebind(val, key, wrappers[id(item)])

    def _rebind(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._sites.append((container, key, container[key]))
            container[key] = value
        else:
            self._sites.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._sites):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._sites.clear()

    def coverage_gaps(self, package: ModuleType) -> list[str]:
        """Bindings that still reach an unwrapped original; empty when installed."""
        gaps = []
        for mod in _package_modules(package):
            for attr, val in vars(mod).items():
                if id(val) in self._originals and val is self._originals[id(val)]:
                    gaps.append(f"{mod.__name__}.{attr}")
                elif isinstance(val, dict):
                    for key, item in val.items():
                        if id(item) in self._originals and item is self._originals[id(item)]:
                            gaps.append(f"{mod.__name__}.{attr}[{key!r}]")
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    for meth, val in vars(cls).items():
                        if id(val) in self._originals and val is self._originals[id(val)]:
                            gaps.append(f"{mod.__name__}.{cls.__name__}.{meth}")
        return gaps

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self.active = True
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        self.op_spans.append((self.current_op, self._op_start, time.perf_counter_ns()))
        self.active = False
        self.current_op = -1

    def mark(self) -> tuple[int, int]:
        """Position in the span and op lists, to aggregate what follows."""
        return len(self.start), len(self.op_spans)

    def aggregate(self, since: tuple[int, int]) -> dict[str, float]:
        """Per-name calls, inclusive and self milliseconds, plus coverage,
        for the spans and ops recorded after ``since`` (see :meth:`mark`)."""
        s0, o0 = since
        starts = self.start[s0:]
        ends = self.end[s0:]
        parents = [p - s0 if p >= s0 else -1 for p in self.parent[s0:]]
        selfs = self_times(starts, ends, parents)
        out: dict[str, float] = defaultdict(float)
        roots = []
        for i, nid in enumerate(self.name_id[s0:]):
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (ends[i] - starts[i]) / 1e6
            out[f"{name}.self_ms"] += selfs[i] / 1e6
            out[f"{name.split('.', 1)[0]}.self_ms"] += selfs[i] / 1e6
            if parents[i] < 0:
                roots.append((starts[i], ends[i]))
        ops = self.op_spans[o0:]
        op_ns = sum(end - start for _, start, end in ops)
        covered = union_length(roots)
        out["trace.uncovered_frac"] = 1.0 - covered / op_ns if op_ns else 0.0
        return out

    def dump(self, path) -> None:
        """Write every recorded span as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.op[i]}\t{self.start[i]}\t{self.end[i]}\n"
                )


def _package_modules(package: ModuleType) -> list[ModuleType]:
    prefix = package.__name__
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]
