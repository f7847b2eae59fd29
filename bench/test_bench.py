"""Self-test of the benchmark: tiny smoke runs, span arithmetic, wrapper coverage.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNCOVERED_MAX = 0.02  # op time under no layer span


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke(name, trace, tmp_path):
    report = harness.run_workload(name, 1, 0.0, trace, tiny=True, workdir=tmp_path / "work")
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= report["ops_per_pass"]
    assert not (tmp_path / "work").exists()
    if trace:
        per_layer = report["per_layer"]
        assert set(per_layer) == {name for name, _, _ in harness.PER_LAYER}
        assert per_layer["trace.uncovered_frac"] < UNCOVERED_MAX
        assert report["counts_varying"] == []
        assert (tmp_path / f"spans-{name}.tsv").is_file()


def test_defect_counters_stay_visible(tmp_path):
    link = harness.run_workload("link", 1, 0.0, True, tiny=True, workdir=tmp_path / "link")
    assert link["per_layer"]["warnings"] > 0  # _dirichlet_mean's UserWarning
    ortho = harness.run_workload("orthogonalize", 1, 0.0, True, tiny=True, workdir=tmp_path / "o")
    assert ortho["per_layer"]["lowdin.orthonormal_generator.tail_level_max"] > 1e-6  # K = 15


def test_self_times_of_nested_spans():
    # root [0, 100] with overlapping children [10, 30] and [20, 50];
    # [12, 18] is a grandchild under the first child
    starts = [0, 10, 12, 20]
    ends = [100, 30, 18, 50]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [60, 14, 6, 30]
    assert tracer.union_length([(0, 5), (3, 9), (20, 21)]) == 10


def test_aggregate_splits_layers_and_coverage():
    t = tracer.Tracer()
    for name in ("pipeline.a", "signals.b"):
        t._intern(name)
    # one op [0, 100]; pipeline.a covers [10, 90] with child signals.b [20, 40]
    t.op_spans.append((0, 0, 100))
    for nid, parent, start, end in ((0, -1, 10, 90), (1, 0, 20, 40)):
        t.name_id.append(nid)
        t.parent.append(parent)
        t.op.append(0)
        t.start.append(start)
        t.end.append(end)
    agg = t.aggregate((0, 0))
    assert agg["pipeline.a.calls"] == 1
    assert agg["pipeline.a.ms"] == pytest.approx(80e-6)
    assert agg["pipeline.a.self_ms"] == pytest.approx(60e-6)
    assert agg["signals.self_ms"] == pytest.approx(20e-6)
    assert agg["trace.uncovered_frac"] == pytest.approx(0.2)


def test_wrappers_cover_every_import_site():
    uw = harness.import_package()
    t = tracer.Tracer()
    t.install(uw.package)
    try:
        assert t.coverage_gaps(uw.package) == []
        # names imported with ``from .x import f`` reach the same wrapper
        assert uw.pipeline.spectrum is uw.signals.spectrum
        assert uw.lowdin.autocorr_samples is uw.signals.autocorr_samples
        assert uw.cli.design_pulse is uw.pipeline.design_pulse is uw.package.design_pulse
        assert hasattr(uw.optimizer.linprog, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(uw.pipeline.spectrum, "__wrapped__")
    assert t.coverage_gaps(uw.package)  # every original is back in place


def test_percentile_is_nearest_rank():
    values = list(range(1, 9))
    assert harness.percentile(values, 50) == 4
    assert harness.percentile(values, 62.5) == 5
    assert harness.percentile(values, 100) == 8


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in harness.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
