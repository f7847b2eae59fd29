"""Batch command line: design, orthogonalize, analyze, simulate, sweep.

Each command reads an optional JSON config (flags override single keys),
writes CSV/JSON artifacts into an output directory, and finishes with a
manifest recording the resolved config, the tool version, and content
hashes of every output.  Outputs carry no timestamps, so identical
configs reproduce byte-identical artifacts.  Every key is declared once,
in ``_COMMANDS``; flag and config values pass one type check.

Exit codes: 0 success; 2 for refused input (a mistyped or non-finite
value, an unreadable or malformed file, an unusable output directory or
an output file that cannot be written) or an infeasible or unstable
configuration; 1 internal error (a non-finite number reaching a JSON
report is one, and that report is not written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__, defaults
from .errors import ConfigurationError, UwbPulseError
from .modem import LinkConfig, bit_rate, simulate_ser
from .pipeline import analyze_pulse, build_family, compliant_spectrum, design_pulse
from .signals import Spectrum, _output, _write_csv, load_pulse_csv, save_family_csv, save_pulse_csv
from .spectral import fcc_indoor_mask, nesp, save_psd_csv

SCHEMA_VERSION = 16


class _Key(NamedTuple):
    """One config key.  ``kind`` is int, float, bool or str, a tuple of
    allowed strings, or [int] / [float] for a non-empty comma list.  A None
    ``flag`` is ``--`` plus the key with ``-`` for ``_``; "" makes the key
    config-only, as bool keys are.  A None default may stay unset."""

    default: object
    kind: object
    help: str
    flag: str | None = None


_ORDER = _Key(defaults.FIR_ORDER, int, "FIR order L")
_SHIFT_RATIO = _Key(2, int, "K with T = Tp/K")
_M_MULTIPLE = _Key(2, int, "m with M = m K")
_PULSE_CSV = _Key(None, str, "pulse CSV (t_seconds,amplitude)")
_MASK_CSV = _Key(None, str, "mask CSV (f_lo_hz,f_hi_hz,level_w_per_hz); default: bundled")

# command -> keys; the handler is cmd_<command>, and its docstring the help
_COMMANDS = {
    "design": {
        "order": _ORDER,
        "fc_hz": _Key(defaults.CENTER_FREQ, float, "monocycle centre frequency in Hz"),
        "monocycle_clocks": _Key(defaults.MONOCYCLE_CLOCKS, int, "monocycle length in clocks"),
        "samples_per_clock": _Key(defaults.SAMPLES_PER_CLOCK, int, "grid steps per clock"),
        "grid_density": _Key(512, int, "fit and LP nodes per mask segment"),
        "mask_csv": _MASK_CSV,
    },
    "orthogonalize": {
        "pulse_csv": _PULSE_CSV,
        "shift_ratio": _SHIFT_RATIO,
        "m_multiple": _M_MULTIPLE,
        "kind": _Key("lo", ("lo", "alo", "limit"), "family kind"),
    },
    "analyze": {
        "pulse_csv": _PULSE_CSV,
        "shift_clocks": _Key(None, float, "translate shift in clocks"),
        "mask_csv": _MASK_CSV,
    },
    "simulate": {
        "scheme": _Key("psm", ("psm", "oppm-lo", "oppm-alo"), "modulation scheme"),
        "order": _ORDER,
        "shift_ratio": _SHIFT_RATIO,
        "m_multiple": _M_MULTIPLE,
        "ebn0_db_list": _Key(
            [1.0, 3.0, 6.0, 9.0], [float], "comma-separated E/N0 points in dB", "--ebn0-list"
        ),
        "trials": _Key(10000, int, "trials per E/N0 point"),
        "seed": _Key(0, int, "random seed"),
        "antipodal": _Key(True, bool, "antipodal symbols", ""),
    },
    "sweep": {
        "order": _ORDER,
        "k_list": _Key([1, 2, 3, 4, 5, 6], [int], "comma-separated overlap factors K"),
        "m_multiple": _M_MULTIPLE,
    },
}


def _fits(val, kind) -> bool:
    """Whether ``val`` has the key kind ``kind`` (bools are not numbers)."""
    if isinstance(kind, list):
        return type(val) is list and len(val) > 0 and all(_fits(x, kind[0]) for x in val)
    if isinstance(kind, tuple):
        return val in kind
    if kind is float:
        return type(val) in (int, float) and abs(val) <= sys.float_info.max
    return type(val) is kind


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"a non-empty list, each {_describe(kind[0])}"
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    names = {int: "an integer", float: "a finite number", bool: "true or false"}
    return names.get(kind, "a string")


def _write_json(path: Path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _output(path) as fh:
        fh.write(text)


def _write_manifest(outdir: Path, command: str, config: dict, outputs: list[Path], errors=None):
    manifest = {
        "command": command,
        "config": config,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outputs)},
    }
    if errors:
        manifest["errors"] = errors
    _write_json(outdir / "manifest.json", manifest)


def _resolve(args) -> tuple[dict, Path]:
    """The config (defaults, then the ``--config`` file, then the flags,
    checked once) and the output directory, made if missing."""
    keys = _COMMANDS[args.command]
    config = {key: spec.default for key, spec in keys.items()}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {args.config} does not hold a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    for key, val in config.items():
        spec = keys[key]
        if not ((val is None and spec.default is None) or _fits(val, spec.kind)):
            raise ConfigurationError(f"config key {key!r}: {val!r} is not {_describe(spec.kind)}")
    out = Path(args.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot use output directory {out}: {exc}") from None
    return config, out


def cmd_design(args) -> int:
    """Optimize the shaping filter against the mask."""
    config, out = _resolve(args)
    mask = fcc_indoor_mask(config["mask_csv"])
    result = design_pulse(
        order=config["order"],
        fc=config["fc_hz"],
        monocycle_clocks=config["monocycle_clocks"],
        samples_per_clock=config["samples_per_clock"],
        mask=mask,
        grid_density=config["grid_density"],
    )
    taps_path = out / "taps.csv"
    _write_csv(taps_path, ["index", "tap"], list(enumerate(result.taps.taps)))
    pulse_path = out / "pulse.csv"
    save_pulse_csv(pulse_path, result.pulse)
    spec_path = out / "achieved_spectrum.csv"
    achieved = result.spectrum
    save_psd_csv(spec_path, Spectrum(achieved.freqs, achieved.power()))
    report_path = out / "design_report.json"
    sol = result.solution
    _write_json(
        report_path,
        {
            "objective": sol.objective,
            "nesp": result.nesp_value,
            "alpha": result.alpha,
            "feasibility_margin": sol.feasibility_margin,
            "dual_bound": sol.dual_bound,
            "lower_floor": sol.lower_floor,
            "lp_rows": sol.lp_rows,
            "lp_rows_priced": sol.lp_rows_priced,
            "lp_pivots": sol.lp_pivots,
            "fit_orders_kept": [gamma.order for gamma in result.gammas],
            "factorization_error": result.taps.factorization_error,
        },
    )
    _write_manifest(out, "design", config, [taps_path, pulse_path, spec_path, report_path])
    print(f"design: nesp={result.nesp_value:.6f} objective={result.solution.objective:.6e}")
    return 0


def cmd_orthogonalize(args) -> int:
    """Build orthogonal pulse families."""
    config, out = _resolve(args)
    if not config["pulse_csv"]:
        raise ConfigurationError("orthogonalize requires pulse_csv")
    pulse = load_pulse_csv(config["pulse_csv"]).normalized()
    family, centered, report = build_family(
        pulse, config["shift_ratio"], config["m_multiple"], config["kind"]
    )
    if family is None:
        outputs = [out / "pulse_limit.csv"]
        save_pulse_csv(outputs[0], centered)
    else:
        idx = range(-family.m_half, family.m_half + 1)
        outputs = [out / f"pulse_{config['kind']}_{i:+03d}.csv" for i in idx]
        save_family_csv(outputs, family.grid, family.samples)
    report_path = out / "gram_report.json"
    _write_json(report_path, report)
    outputs.append(report_path)
    _write_manifest(out, "orthogonalize", config, outputs)
    print(
        f"orthogonalize: kind={config['kind']} A={report['A']:.6f} "
        f"B={report['B']:.6f} offdiag_max={report['offdiag_max']:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    """Summarize a pulse file."""
    config, out = _resolve(args)
    if not config["pulse_csv"]:
        raise ConfigurationError("analyze requires pulse_csv")
    mask = fcc_indoor_mask(config["mask_csv"])
    pulse = load_pulse_csv(config["pulse_csv"])
    shift = None
    if config["shift_clocks"] is not None:
        shift = config["shift_clocks"] * mask.clock
    report = analyze_pulse(pulse, mask, shift)
    report_path = out / "analysis.json"
    _write_json(report_path, report)
    _write_manifest(out, "analyze", config, [report_path])
    print(f"analyze: energy={report['energy']:.9f} nesp={report['nesp']:.6f}")
    return 0


def _noise_density(ebn0_db: float) -> float:
    """N0 at unit symbol energy; refuses a point past the float range."""
    try:
        n0 = 1.0 / 10.0 ** (ebn0_db / 10.0)
        if n0 <= sys.float_info.max:
            return n0
    except ArithmeticError:
        pass
    raise ConfigurationError(f"ebn0_db_list: {ebn0_db!r} dB puts N0 outside the float range")


def cmd_simulate(args) -> int:
    """Monte Carlo symbol error rates."""
    config, out = _resolve(args)
    scheme = config["scheme"]
    noise = [_noise_density(ebn0_db) for ebn0_db in config["ebn0_db_list"]]
    result = design_pulse(order=config["order"])
    kind = "alo" if scheme == "oppm-alo" else "lo"
    family, centered, _ = build_family(
        result.pulse, config["shift_ratio"], config["m_multiple"], kind
    )
    source = family if scheme == "psm" else centered
    symbol_period = defaults.SYMBOL_CLOCKS * result.mask.clock
    rows = []
    for ebn0_db, noise_density in zip(config["ebn0_db_list"], noise):
        cfg = LinkConfig(
            n_symbols=family.size,
            shift=family.shift,
            symbol_period=symbol_period,
            energy=1.0,
            noise_density=noise_density,
            scheme={"psm": "PSM", "oppm-lo": "OPPM_LO", "oppm-alo": "OPPM_ALO"}[scheme],
            antipodal=config["antipodal"],
        )
        res = simulate_ser(cfg, source, config["trials"], config["seed"])
        rows.append((ebn0_db, res.ser, res.ci95, res.bound, res.wilson_lo, res.wilson_hi))
    ser_path = out / "ser.csv"
    _write_csv(ser_path, ["ebn0_db", "ser", "ci95", "bound", "wilson_lo", "wilson_hi"], rows)
    _write_manifest(out, "simulate", config, [ser_path])
    print(f"simulate: scheme={scheme} points={len(rows)}")
    return 0


def cmd_sweep(args) -> int:
    """Rate / efficiency trade table over K."""
    config, out = _resolve(args)
    result = design_pulse(order=config["order"])
    mask = result.mask
    rows = []
    errors = {}
    for k in config["k_list"]:
        try:
            family, centered, report = build_family(result.pulse, k, config["m_multiple"], "lo")
            _, scaled = compliant_spectrum(centered, mask)
            rows.append(
                (
                    k,
                    report["shift_seconds"] / mask.clock,
                    bit_rate(k, mask.clock) / 1e9,
                    nesp(scaled, mask),
                    report["offdiag_max"],
                    report["A"],
                    report["B"],
                )
            )
        except UwbPulseError as exc:  # record and continue
            errors[str(k)] = exc
    if not rows:  # every K failed: no table, and the first failure is the error
        raise next(iter(errors.values()))
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, ["K", "T_over_T0", "Rb_gbps", "nesp", "offdiag_max", "A", "B"], rows)
    errors = {k: str(exc) for k, exc in errors.items()}
    _write_manifest(out, "sweep", config, [sweep_path], errors=errors or None)
    print(f"sweep: rows={len(rows)} failures={len(errors)}")
    return 0


def _flag_type(kind) -> dict:
    if isinstance(kind, tuple):
        return {"choices": kind}
    if isinstance(kind, list):  # a comma list
        return {"type": lambda s: [kind[0](x) for x in s.split(",")]}
    return {"type": kind}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbpulse",
        description="Mask-constrained pulse design and orthogonal overlapping PPM analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, keys in _COMMANDS.items():
        # looked up now, so a wrapped or patched handler is the one bound
        func = globals()[f"cmd_{name}"]
        p = subs.add_parser(name, help=func.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--outdir", default=".", help="output directory")
        for key, spec in keys.items():
            if spec.flag != "":
                flag = spec.flag or "--" + key.replace("_", "-")
                p.add_argument(flag, dest=key, help=spec.help, **_flag_type(spec.kind))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UwbPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
