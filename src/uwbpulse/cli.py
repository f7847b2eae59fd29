"""Batch command line: design, orthogonalize, analyze, simulate, sweep.

Each command reads an optional JSON config (flags override single keys),
writes CSV/JSON artifacts into an output directory, and finishes with a
manifest recording the resolved config, the tool version, and content
hashes of every output.  Outputs carry no timestamps, so identical
configs reproduce byte-identical artifacts.

Exit codes: 0 success, 2 infeasible or unstable configuration, 1
internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, defaults
from .errors import ConfigurationError, UwbPulseError
from .modem import LinkConfig, bit_rate, simulate_ser
from .pipeline import analyze_pulse, build_family, compliant_spectrum, design_pulse
from .signals import Spectrum, _write_csv, load_pulse_csv, save_pulse_csv
from .spectral import fcc_indoor_mask, nesp, save_psd_csv

SCHEMA_VERSION = 8


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(outdir: Path, command: str, config: dict, outputs: list[Path], errors=None):
    manifest = {
        "command": command,
        "config": config,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    if errors:
        manifest["errors"] = errors
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _fits_default(val, default) -> bool:
    """Whether a config value has the type of its key's default.

    Bools take bools, numbers take numbers, lists take lists of numbers
    and strings take strings.  None marks a key left unset: it takes
    null, a string (file paths) or a number (``shift_clocks``).
    """
    if isinstance(default, bool):
        return isinstance(val, bool)
    if _is_number(default):
        return _is_number(val)
    if isinstance(default, list):
        return isinstance(val, list) and all(_is_number(x) for x in val)
    if default is None:
        return val is None or isinstance(val, str) or _is_number(val)
    return isinstance(val, str)


def _resolve_config(args, keys: dict) -> dict:
    config = dict(keys)
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(keys)
        if unknown:
            raise UwbPulseError(f"unknown config keys: {sorted(unknown)}")
        for key, val in loaded.items():
            if not _fits_default(val, keys[key]):
                raise ConfigurationError(
                    f"config key {key!r}: {val!r} does not match the type of "
                    f"its default {keys[key]!r}"
                )
        config.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    return config


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_design(args) -> int:
    config = _resolve_config(
        args,
        {
            "order": defaults.FIR_ORDER,
            "fc_hz": defaults.CENTER_FREQ,
            "monocycle_clocks": defaults.MONOCYCLE_CLOCKS,
            "samples_per_clock": defaults.SAMPLES_PER_CLOCK,
            "grid_density": 512,
            "mask_csv": None,
        },
    )
    out = _outdir(args)
    mask = fcc_indoor_mask(config["mask_csv"])
    result = design_pulse(
        order=int(config["order"]),
        fc=float(config["fc_hz"]),
        monocycle_clocks=int(config["monocycle_clocks"]),
        samples_per_clock=int(config["samples_per_clock"]),
        mask=mask,
        grid_density=int(config["grid_density"]),
    )
    taps_path = out / "taps.csv"
    _write_csv(taps_path, ["index", "tap"], list(enumerate(result.taps.taps)))
    pulse_path = out / "pulse.csv"
    save_pulse_csv(pulse_path, result.pulse)
    spec_path = out / "achieved_spectrum.csv"
    achieved = result.spectrum
    save_psd_csv(spec_path, Spectrum(achieved.freqs, achieved.power().astype(complex)))
    report_path = out / "design_report.json"
    sol = result.solution
    _write_json(
        report_path,
        {
            "objective": sol.objective,
            "nesp": result.nesp_value,
            "feasibility_margin": sol.feasibility_margin,
            "dual_bound": sol.dual_bound,
            "backoff_rounds": sol.backoff_rounds,
            "lower_floor": sol.lower_floor,
            "lp_rows": sol.lp_rows,
            "lp_rows_solved": sol.lp_rows_solved,
            "lp_solves": sol.lp_solves,
            "fit_orders_kept": [gamma.order for gamma in result.gammas],
            "factorization_error": result.taps.factorization_error,
        },
    )
    _write_manifest(out, "design", config, [taps_path, pulse_path, spec_path, report_path])
    print(f"design: nesp={result.nesp_value:.6f} objective={result.solution.objective:.6e}")
    return 0


def cmd_orthogonalize(args) -> int:
    config = _resolve_config(
        args,
        {
            "pulse_csv": None,
            "shift_ratio": 2,
            "m_multiple": 2,
            "kind": "lo",
        },
    )
    if not config["pulse_csv"]:
        raise UwbPulseError("orthogonalize requires pulse_csv")
    out = _outdir(args)
    pulse = load_pulse_csv(config["pulse_csv"]).normalized()
    family, centered, report = build_family(
        pulse, int(config["shift_ratio"]), int(config["m_multiple"]), config["kind"]
    )
    outputs = []
    if family is None:
        path = out / "pulse_limit.csv"
        save_pulse_csv(path, centered)
        outputs.append(path)
    else:
        for i, member in enumerate(family.pulses):
            idx = i - family.m_half
            path = out / f"pulse_{config['kind']}_{idx:+03d}.csv"
            save_pulse_csv(path, member)
            outputs.append(path)
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
    config = _resolve_config(
        args,
        {"pulse_csv": None, "shift_clocks": None, "mask_csv": None},
    )
    if not config["pulse_csv"]:
        raise UwbPulseError("analyze requires pulse_csv")
    out = _outdir(args)
    mask = fcc_indoor_mask(config["mask_csv"])
    pulse = load_pulse_csv(config["pulse_csv"])
    shift = None
    if config["shift_clocks"] is not None:
        shift = float(config["shift_clocks"]) * mask.clock
    report = analyze_pulse(pulse, mask, shift)
    report_path = out / "analysis.json"
    _write_json(report_path, report)
    _write_manifest(out, "analyze", config, [report_path])
    print(f"analyze: energy={report['energy']:.9f} nesp={report['nesp']:.6f}")
    return 0


def cmd_simulate(args) -> int:
    config = _resolve_config(
        args,
        {
            "scheme": "psm",
            "order": defaults.FIR_ORDER,
            "shift_ratio": 2,
            "m_multiple": 2,
            "ebn0_db_list": [1.0, 3.0, 6.0, 9.0],
            "trials": 10000,
            "seed": 0,
            "antipodal": True,
        },
    )
    out = _outdir(args)
    scheme_key = config["scheme"].lower()
    if scheme_key not in ("psm", "oppm-lo", "oppm-alo"):
        raise UwbPulseError("scheme must be psm, oppm-lo, or oppm-alo")
    result = design_pulse(order=int(config["order"]))
    kind = "lo" if scheme_key in ("psm", "oppm-lo") else "alo"
    family, centered, _ = build_family(
        result.pulse, int(config["shift_ratio"]), int(config["m_multiple"]), kind
    )
    shift = family.shift
    n_symbols = family.size
    symbol_period = defaults.SYMBOL_CLOCKS * result.mask.clock
    rows = []
    for ebn0_db in config["ebn0_db_list"]:
        gamma = 10.0 ** (float(ebn0_db) / 10.0)
        cfg = LinkConfig(
            n_symbols=n_symbols,
            shift=shift,
            symbol_period=symbol_period,
            energy=1.0,
            noise_density=1.0 / gamma,
            scheme="PSM" if scheme_key == "psm" else ("OPPM_LO" if kind == "lo" else "OPPM_ALO"),
            antipodal=bool(config["antipodal"]),
        )
        source = family if scheme_key == "psm" else centered
        res = simulate_ser(cfg, source, int(config["trials"]), int(config["seed"]))
        rows.append(
            (float(ebn0_db), res.ser, res.ci95, res.bound, res.wilson_lo, res.wilson_hi)
        )
    ser_path = out / "ser.csv"
    _write_csv(ser_path, ["ebn0_db", "ser", "ci95", "bound", "wilson_lo", "wilson_hi"], rows)
    _write_manifest(out, "simulate", config, [ser_path])
    print(f"simulate: scheme={scheme_key} points={len(rows)}")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(
        args,
        {
            "order": defaults.FIR_ORDER,
            "k_list": [1, 2, 3, 4, 5, 6],
            "m_multiple": 2,
        },
    )
    out = _outdir(args)
    result = design_pulse(order=int(config["order"]))
    mask = result.mask
    rows = []
    errors = {}
    for k in config["k_list"]:
        try:
            family, centered, report = build_family(
                result.pulse, int(k), int(config["m_multiple"]), "lo"
            )
            _, scaled = compliant_spectrum(centered, mask)
            rows.append(
                (
                    int(k),
                    report["shift_seconds"] / mask.clock,
                    bit_rate(int(k), mask.clock) / 1e9,
                    nesp(scaled, mask),
                    report["offdiag_max"],
                    report["A"],
                    report["B"],
                )
            )
        except UwbPulseError as exc:  # record and continue
            errors[str(k)] = str(exc)
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, ["K", "T_over_T0", "Rb_gbps", "nesp", "offdiag_max", "A", "B"], rows)
    _write_manifest(out, "sweep", config, [sweep_path], errors=errors or None)
    print(f"sweep: rows={len(rows)} failures={len(errors)}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--outdir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbpulse",
        description="Mask-constrained pulse design and orthogonal overlapping PPM analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("design", help="optimize the shaping filter against the mask")
    _add_common(p)
    p.add_argument("--order", type=int, help="FIR order L")
    p.add_argument("--fc-hz", dest="fc_hz", type=float)
    p.add_argument("--monocycle-clocks", dest="monocycle_clocks", type=int)
    p.add_argument("--samples-per-clock", dest="samples_per_clock", type=int)
    p.add_argument("--grid-density", dest="grid_density", type=int)
    p.add_argument("--mask-csv", dest="mask_csv")
    p.set_defaults(func=cmd_design)

    p = subs.add_parser("orthogonalize", help="build orthogonal pulse families")
    _add_common(p)
    p.add_argument("--pulse-csv", dest="pulse_csv")
    p.add_argument("--shift-ratio", dest="shift_ratio", type=int, help="K with T = Tp/K")
    p.add_argument("--m-multiple", dest="m_multiple", type=int, help="m with M = m K")
    p.add_argument("--kind", choices=["lo", "alo", "limit"])
    p.set_defaults(func=cmd_orthogonalize)

    p = subs.add_parser("analyze", help="summarize a pulse file")
    _add_common(p)
    p.add_argument("--pulse-csv", dest="pulse_csv")
    p.add_argument("--shift-clocks", dest="shift_clocks", type=float)
    p.add_argument("--mask-csv", dest="mask_csv")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("simulate", help="Monte Carlo symbol error rates")
    _add_common(p)
    p.add_argument("--scheme", choices=["psm", "oppm-lo", "oppm-alo"])
    p.add_argument("--order", type=int)
    p.add_argument("--shift-ratio", dest="shift_ratio", type=int)
    p.add_argument("--m-multiple", dest="m_multiple", type=int)
    p.add_argument(
        "--ebn0-list",
        dest="ebn0_db_list",
        type=lambda s: [float(x) for x in s.split(",")],
        help="comma-separated E/N0 points in dB",
    )
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="rate / efficiency trade table over K")
    _add_common(p)
    p.add_argument("--order", type=int)
    p.add_argument(
        "--k-list",
        dest="k_list",
        type=lambda s: [int(x) for x in s.split(",")],
        help="comma-separated overlap factors",
    )
    p.add_argument("--m-multiple", dest="m_multiple", type=int)
    p.set_defaults(func=cmd_sweep)
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
