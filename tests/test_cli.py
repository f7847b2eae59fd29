"""Command-line pipeline: artifacts, manifests, reproducibility, exit codes."""

import argparse
import ast
import csv
import json
import shlex
import types
from pathlib import Path

import numpy as np
import pytest

import uwbpulse as up
from uwbpulse import defaults
from uwbpulse.cli import build_parser, main
from uwbpulse.spectral import save_mask_csv

T0 = defaults.CLOCK_T0


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def design_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("design")
    assert run(["design", "--outdir", out]) == 0
    return out


def test_design_order_one_is_masked_monocycle(tmp_path, monocycle):
    out = tmp_path / "d1"
    assert run(["design", "--outdir", out, "--order", 1]) == 0
    pulse = up.load_pulse_csv(out / "pulse.csv")
    assert pulse.grid.size == monocycle.grid.size
    assert np.allclose(pulse.samples, monocycle.samples, atol=1e-12)


def test_design_default_duration(design_dir):
    pulse = up.load_pulse_csv(design_dir / "pulse.csv")
    assert pulse.duration() == pytest.approx(30 * T0, rel=1e-12)
    taps = read_rows(design_dir / "taps.csv")
    assert len(taps) == 25


def test_design_report_fields(design_dir):
    report = json.loads((design_dir / "design_report.json").read_text())
    assert set(report) == {
        "objective",
        "nesp",
        "feasibility_margin",
        "dual_bound",
        "backoff_rounds",
        "lower_floor",
        "lp_rows",
        "lp_rows_solved",
        "lp_solves",
        "fit_orders_kept",
        "factorization_error",
    }
    assert report["nesp"] > 0.8
    assert report["feasibility_margin"] >= 0.0
    assert abs(report["objective"] - report["dual_bound"]) <= 1e-5 * report["objective"]
    assert report["backoff_rounds"] == 1
    assert report["lower_floor"] > 0.0
    assert 0 < report["lp_rows_solved"] <= report["lp_rows"]
    assert report["lp_solves"] >= report["backoff_rounds"]
    assert len(report["fit_orders_kept"]) == 5
    assert all(1 <= k <= 25 for k in report["fit_orders_kept"])
    assert 0.0 <= report["factorization_error"] <= 1e-7


def test_design_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["design", "--order", 5, "--grid-density", 256]
    assert run(args + ["--outdir", out1]) == 0
    assert run(args + ["--outdir", out2]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_lists_outputs_with_hashes(design_dir):
    manifest = json.loads((design_dir / "manifest.json").read_text())
    assert manifest["command"] == "design"
    assert manifest["schema_version"] == 12
    for name in ("taps.csv", "pulse.csv", "achieved_spectrum.csv", "design_report.json"):
        assert name in manifest["outputs"]
        assert len(manifest["outputs"][name]) == 64
    assert "outdir" not in manifest["config"]


def test_orthogonalize_family_outputs(tmp_path, design_dir):
    out = tmp_path / "o"
    assert (
        run(
            [
                "orthogonalize",
                "--outdir",
                out,
                "--pulse-csv",
                design_dir / "pulse.csv",
                "--shift-ratio",
                2,
                "--m-multiple",
                2,
                "--kind",
                "lo",
            ]
        )
        == 0
    )
    members = sorted(out.glob("pulse_lo_*.csv"))
    assert len(members) == 9
    report = json.loads((out / "gram_report.json").read_text())
    assert report["offdiag_max"] <= 1e-8
    assert 0 < report["A"] <= report["B"]
    assert report["weak_norm_gap"] > 0


def test_orthogonalize_limit_kind(tmp_path, design_dir):
    out = tmp_path / "lim"
    assert (
        run(
            [
                "orthogonalize",
                "--outdir",
                out,
                "--pulse-csv",
                design_dir / "pulse.csv",
                "--shift-ratio",
                2,
                "--kind",
                "limit",
            ]
        )
        == 0
    )
    report = json.loads((out / "gram_report.json").read_text())
    assert report["offdiag_max"] <= 1e-9  # translate correlations vanish
    assert report["tail_level"] <= 1e-12  # the generator converged
    assert report["truncation_radius"] > 0
    assert (out / "pulse_limit.csv").exists()


def test_analyze_consistent_with_design(tmp_path, design_dir):
    out = tmp_path / "a"
    assert (
        run(
            [
                "analyze",
                "--outdir",
                out,
                "--pulse-csv",
                design_dir / "pulse.csv",
                "--shift-clocks",
                15,
            ]
        )
        == 0
    )
    report = json.loads((out / "analysis.json").read_text())
    design_report = json.loads((design_dir / "design_report.json").read_text())
    assert report["nesp"] == pytest.approx(design_report["nesp"], rel=1e-6)
    assert report["energy"] == pytest.approx(1.0, abs=1e-9)
    assert report["Tp"] == pytest.approx(30 * T0, rel=1e-12)


def test_analyze_limit_pulse_unit_bounds(tmp_path, design_dir):
    lim_dir = tmp_path / "lim"
    run(
        [
            "orthogonalize",
            "--outdir",
            lim_dir,
            "--pulse-csv",
            design_dir / "pulse.csv",
            "--shift-ratio",
            2,
            "--kind",
            "limit",
        ]
    )
    out = tmp_path / "a"
    assert (
        run(
            [
                "analyze",
                "--outdir",
                out,
                "--pulse-csv",
                lim_dir / "pulse_limit.csv",
                "--shift-clocks",
                15,
            ]
        )
        == 0
    )
    report = json.loads((out / "analysis.json").read_text())
    assert report["A"] == pytest.approx(1.0, abs=1e-6)
    assert report["B"] == pytest.approx(1.0, abs=1e-6)


def test_analyze_monocycle_energy(tmp_path, monocycle):
    src = tmp_path / "q.csv"
    up.save_pulse_csv(src, monocycle)
    out = tmp_path / "a"
    assert run(["analyze", "--outdir", out, "--pulse-csv", src, "--shift-clocks", 6]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["energy"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_odd_span_needs_a_shift(tmp_path, monocycle, capsys):
    # a span of 191 grid steps has no whole-step Tp/2, the default shift
    odd = up.SampledPulse(up.TimeGrid(monocycle.dt, 96, 192), monocycle.samples[:192])
    src = tmp_path / "odd.csv"
    up.save_pulse_csv(src, odd)
    out = tmp_path / "a"
    assert run(["analyze", "--outdir", out, "--pulse-csv", src]) == 2
    assert "Tp/2" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert run(["analyze", "--outdir", out, "--pulse-csv", src, "--shift-clocks", 3]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["shift_seconds"] == pytest.approx(96 * monocycle.dt, rel=1e-12)


def test_sweep_table(tmp_path):
    out = tmp_path / "s"
    assert run(["sweep", "--outdir", out, "--k-list", "1,2,6"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [r["K"] for r in rows] == ["1", "2", "6"]
    for row in rows:
        k = int(row["K"])
        assert float(row["Rb_gbps"]) == pytest.approx(up.bit_rate(k) / 1e9, rel=1e-12)
        assert float(row["T_over_T0"]) == pytest.approx(30.0 / k, rel=1e-9)
        assert float(row["A"]) > 0
    # K = 1: translates touch without overlap, the family equals the
    # translates, so the single-pulse efficiency carries over exactly
    nesp_k1 = float(rows[0]["nesp"])
    nesp_k2 = float(rows[1]["nesp"])
    assert float(rows[0]["offdiag_max"]) <= 1e-10
    # efficiency decreases only slightly toward the tripled rate
    assert nesp_k2 >= nesp_k1 * 0.98
    print("sweep nesp column:", [row["nesp"] for row in rows])


def test_sweep_records_failures_and_continues(tmp_path):
    out = tmp_path / "s"
    # K = 7 does not divide the pulse duration in grid steps
    assert run(["sweep", "--outdir", out, "--k-list", "2,7"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [r["K"] for r in rows] == ["2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "7" in manifest["errors"]


def test_simulate_ser_csv(tmp_path):
    out = tmp_path / "sim"
    assert (
        run(
            [
                "simulate",
                "--outdir",
                out,
                "--scheme",
                "oppm-lo",
                "--ebn0-list",
                "0,6",
                "--trials",
                200,
                "--seed",
                3,
            ]
        )
        == 0
    )
    rows = read_rows(out / "ser.csv")
    assert list(rows[0]) == ["ebn0_db", "ser", "ci95", "bound", "wilson_lo", "wilson_hi"]
    assert [r["ebn0_db"] for r in rows] == ["0", "6"]
    for row in rows:
        assert 0.0 <= float(row["ser"]) <= 1.0
        assert float(row["bound"]) > 0.0
        assert float(row["wilson_lo"]) <= float(row["ser"]) <= float(row["wilson_hi"])
    # lower noise gives fewer errors
    assert float(rows[1]["ser"]) <= float(rows[0]["ser"])


def test_exit_code_unworkable_config(tmp_path, design_dir):
    code = run(
        [
            "orthogonalize",
            "--outdir",
            tmp_path,
            "--pulse-csv",
            design_dir / "pulse.csv",
            "--shift-ratio",
            7,
        ]
    )
    assert code == 2


def test_exit_code_internal_error(monkeypatch, tmp_path):
    import uwbpulse.cli as cli

    def boom(args):
        raise RuntimeError("simulated fault")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_design", boom)
    # rebuild the parser so the patched handler is bound
    code = main(["design", "--outdir", str(tmp_path)])
    assert code == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 1, "grid_density": 256}))
    out = tmp_path / "d"
    assert run(["design", "--outdir", out, "--config", cfg, "--order", 5]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["order"] == 5
    assert manifest["config"]["grid_density"] == 256


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert run(["design", "--outdir", tmp_path, "--config", cfg]) == 2


def test_config_rejects_mistyped_values(tmp_path, capsys):
    # a mistyped key fails with exit 2, naming the key, before any design runs
    cfg = tmp_path / "cfg.json"
    for bad in (
        {"trials": "abc"},
        {"antipodal": 1},
        {"seed": True},
        {"ebn0_db_list": [0, "6"]},
        {"scheme": 3},
    ):
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "sim"
        assert run(["simulate", "--outdir", out, "--config", cfg]) == 2
        assert repr(next(iter(bad))) in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_config_accepts_numeric_shift_clocks(tmp_path, design_dir):
    # shift_clocks defaults to None but is a number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulse_csv": str(design_dir / "pulse.csv"), "shift_clocks": 15}))
    out = tmp_path / "a"
    assert run(["analyze", "--outdir", out, "--config", cfg]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["shift_seconds"] == pytest.approx(15 * T0, rel=1e-12)


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    args = ["simulate", "--outdir", tmp_path, "--order", 1, "--trials", 10, "--seed", -1]
    assert run(args) == 2
    assert "seed" in capsys.readouterr().err


# id: (argv, config file text or None, what stderr must name); "{tmp}" is
# the test's directory, which holds the input files written below
REFUSED_INPUTS = {
    "config-missing": (["design", "--config", "{tmp}/absent.json"], None, "{tmp}/absent.json"),
    "config-malformed": (["design"], "{", "{tmp}/cfg.json"),
    "config-not-object": (["design"], "[]", "{tmp}/cfg.json"),
    "config-shift-clocks-str": (
        ["analyze", "--pulse-csv", "{tmp}/pulse.csv"],
        '{"shift_clocks": "abc"}',
        "shift_clocks",
    ),
    "config-pulse-csv-int": (["analyze"], '{"pulse_csv": 7}', "pulse_csv"),
    "config-mask-csv-float": (["design"], '{"mask_csv": 3.5}', "mask_csv"),
    "config-order-float": (["design"], '{"order": 2.7}', "order"),
    "config-ebn0-list-empty": (["simulate"], '{"ebn0_db_list": []}', "ebn0_db_list"),
    "config-k-list-empty": (["sweep"], '{"k_list": []}', "k_list"),
    "flag-shift-clocks-nan": (
        ["analyze", "--pulse-csv", "{tmp}/pulse.csv", "--shift-clocks", "nan"],
        None,
        "shift_clocks",
    ),
    "flag-ebn0-list-nan": (
        ["simulate", "--order", "1", "--trials", "10", "--ebn0-list", "nan"],
        None,
        "ebn0_db_list",
    ),
    # E/N0 points whose N0 = 10^(-E/N0 / 10) overflows, underflows to 0, or
    # comes out infinite
    "flag-ebn0-list-overflow": (
        ["simulate", "--order", "1", "--trials", "10", "--ebn0-list", "4000"],
        None,
        "ebn0_db_list",
    ),
    "flag-ebn0-list-underflow": (
        ["simulate", "--order", "1", "--trials", "10", "--ebn0-list=-4000"],
        None,
        "ebn0_db_list",
    ),
    "flag-ebn0-list-infinite-n0": (
        ["simulate", "--order", "1", "--trials", "10", "--ebn0-list=0,-3100"],
        None,
        "ebn0_db_list",
    ),
    "pulse-csv-missing": (["analyze", "--pulse-csv", "{tmp}/absent.csv"], None, "{tmp}/absent.csv"),
    "pulse-csv-nan": (
        ["orthogonalize", "--pulse-csv", "{tmp}/nan_pulse.csv"],
        None,
        "{tmp}/nan_pulse.csv",
    ),
    "pulse-csv-huge-field": (
        ["analyze", "--pulse-csv", "{tmp}/huge_field.csv"],
        None,
        "{tmp}/huge_field.csv",
    ),
    "mask-csv-missing": (["design", "--mask-csv", "{tmp}/absent.csv"], None, "{tmp}/absent.csv"),
    "mask-csv-header-only": (
        ["design", "--mask-csv", "{tmp}/header_mask.csv"],
        None,
        "{tmp}/header_mask.csv",
    ),
    "mask-csv-nan": (
        ["analyze", "--pulse-csv", "{tmp}/pulse.csv", "--mask-csv", "{tmp}/nan_mask.csv"],
        None,
        "{tmp}/nan_mask.csv",
    ),
    "mask-csv-inf": (
        ["analyze", "--pulse-csv", "{tmp}/pulse.csv", "--mask-csv", "{tmp}/inf_mask.csv"],
        None,
        "{tmp}/inf_mask.csv",
    ),
    "outdir-is-file": (["design", "--outdir", "{tmp}/pulse.csv"], None, "{tmp}/pulse.csv"),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_refused_input_exits_2(case, tmp_path, monocycle, capsys):
    # outside input that is unreadable, mistyped or not finite exits 2 and
    # names the key or the file, before any manifest is written
    argv, config, named = REFUSED_INPUTS[case]
    up.save_pulse_csv(tmp_path / "pulse.csv", monocycle)
    samples = monocycle.samples.copy()
    samples[len(samples) // 2] = np.nan
    up.save_pulse_csv(tmp_path / "nan_pulse.csv", up.SampledPulse(monocycle.grid, samples))
    # longer than the csv module's field limit
    (tmp_path / "huge_field.csv").write_text("t_seconds,amplitude\n" + "1" * 200_000 + ",0\n")
    save_mask_csv(tmp_path / "mask.csv", up.fcc_indoor_mask())
    header, first, *rest = (tmp_path / "mask.csv").read_text().splitlines()
    (tmp_path / "header_mask.csv").write_text(header + "\n")
    for level in ("nan", "inf"):
        bad = ",".join(first.split(",")[:2] + [level])
        (tmp_path / f"{level}_mask.csv").write_text("\n".join([header, bad, *rest]) + "\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    if "--outdir" not in argv:
        argv += ["--outdir", str(out)]
    assert run(argv) == 2
    assert named.format(tmp=tmp_path) in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_nan_in_a_report_is_an_internal_error(monkeypatch, tmp_path, monocycle):
    # inputs are checked, so a NaN reaching a report is a fault: exit 1 and
    # no report, never a JSON file with a bare NaN in it
    import uwbpulse.cli as cli

    monkeypatch.setattr(cli, "analyze_pulse", lambda *args: {"energy": 1.0, "nesp": np.nan})
    up.save_pulse_csv(tmp_path / "q.csv", monocycle)
    out = tmp_path / "a"
    assert run(["analyze", "--outdir", out, "--pulse-csv", tmp_path / "q.csv"]) == 1
    assert not (out / "analysis.json").exists()
    assert not (out / "manifest.json").exists()


# every subcommand's option strings with their dest and choices
CLI_SURFACE = {
    "design": {
        "--order": "order",
        "--fc-hz": "fc_hz",
        "--monocycle-clocks": "monocycle_clocks",
        "--samples-per-clock": "samples_per_clock",
        "--grid-density": "grid_density",
        "--mask-csv": "mask_csv",
    },
    "orthogonalize": {
        "--pulse-csv": "pulse_csv",
        "--shift-ratio": "shift_ratio",
        "--m-multiple": "m_multiple",
        "--kind": ("kind", ["lo", "alo", "limit"]),
    },
    "analyze": {
        "--pulse-csv": "pulse_csv",
        "--shift-clocks": "shift_clocks",
        "--mask-csv": "mask_csv",
    },
    "simulate": {
        "--scheme": ("scheme", ["psm", "oppm-lo", "oppm-alo"]),
        "--order": "order",
        "--shift-ratio": "shift_ratio",
        "--m-multiple": "m_multiple",
        "--ebn0-list": "ebn0_db_list",
        "--trials": "trials",
        "--seed": "seed",
    },
    "sweep": {"--order": "order", "--k-list": "k_list", "--m-multiple": "m_multiple"},
}


def test_cli_surface_is_pinned():
    common = {"-h": "help", "--help": "help", "--config": "config", "--outdir": "outdir"}
    expected = {
        name: {
            opt: spec if isinstance(spec, tuple) else (spec, None)
            for opt, spec in {**common, **options}.items()
        }
        for name, options in CLI_SURFACE.items()
    }
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {
            opt: (a.dest, list(a.choices) if a.choices else None)
            for a in sub._actions
            for opt in a.option_strings
        }
        for name, sub in subs.choices.items()
    }
    assert got == expected
    assert [a.option_strings for a in parser._actions] == [["-h", "--help"], ["--version"], []]


# the package's public names, submodules left out: removing one is deliberate
PACKAGE_SURFACE = [
    "AutocorrVector", "ConfigurationError", "CosinePoly", "DivisionHazardError",
    "FactorizationError", "FilterTaps", "GridAlignmentError", "InfeasibleError", "LinkConfig",
    "MaskFitError", "OrthogonalFamily", "ResolutionError", "SampledPulse", "SerResult",
    "SingularGramError", "SpectralMask", "Spectrum", "TimeGrid", "UnboundedError",
    "UnstableGeneratorError", "UwbPulseError", "add_awgn", "analyze_pulse",
    "approx_lowdin_family", "autocorrelation", "bit_rate", "build_family", "design_pulse",
    "fcc_indoor_mask", "fit_mask_polynomials", "gaussian_monocycle", "gram",
    "gram_schmidt_family", "gram_symbol", "inner", "inverse_sqrt_spd", "load_mask_csv",
    "load_pulse_csv", "lowdin_family", "lowdin_optimality_probe", "max_compliant_scale",
    "modulate", "nesp", "orthonormal_generator", "passband_weights", "psd_pam_ppm",
    "psd_th_framed", "receive_oppm", "receive_psm", "reconciliation_filter_delta2",
    "riesz_bounds", "save_pulse_csv", "semi_discrete_convolve", "shift_orthogonality_defect",
    "simulate_ser", "solve_autocorr_lp", "spectral_factorize", "spectrum", "uncoded_bit_rate",
    "union_bound_correlated", "union_bound_orthogonal", "zak_transform",
]


def test_package_surface_is_pinned():
    got = sorted(
        name
        for name, obj in vars(up).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert got == PACKAGE_SURFACE


def test_scipy_only_where_numpy_has_no_equal():
    # NumPy does every Toeplitz and circulant matrix and quadrature rule;
    # SciPy supplies only what NumPy lacks (the LP, erfc, and the chirp-z's
    # next_fast_len FFTs), and optimizer calls linprog once.  Import
    # statements only: test_limit_build_makes_one_circulant_and_no_long_fft
    # also reads lowdin's source text and namespace for scipy.fft
    imports, linprog_calls = set(), 0
    for path in sorted((Path(__file__).parents[1] / "src" / "uwbpulse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports |= {(path.stem, a.name, "") for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports |= {(path.stem, node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "linprog":
                linprog_calls += 1
    assert {i for i in imports if i[1].split(".")[0] == "scipy"} == {
        ("optimizer", "scipy.optimize", "linprog"),
        ("modem", "scipy.special", "erfc"),
        ("signals", "scipy.fft", ""),
    }
    assert linprog_calls == 1


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert [argv[0] for argv in commands] == ["uwbpulse"] * 5
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
