"""Print the SHA-256 of every file the benchmark's CLI chain writes.

Runs, in process and in a temporary directory, the ``cli`` workload's
command set (design at L = 25, orthogonalize lo/alo/limit, analyze,
sweep, simulate) plus ``orthogonalize`` lo/alo/limit at K = 2, 5 and 20,
with one OpenBLAS thread, and prints one ``name sha256`` line per output,
manifests included.  Paths are relative to the temporary directory, so
two checkouts that write the same bytes print the same lines:

    python3 scripts/cli_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

The package is imported from the ``src/`` next to this script.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uwbpulse.cli import main  # noqa: E402


def commands() -> list[tuple[str, list[str]]]:
    pulse = ["--pulse-csv", "design/pulse.csv"]
    runs = [
        ("design", ["design", "--order", "25"]),
        ("orthogonalize-lo", ["orthogonalize", *pulse, "--kind", "lo"]),
        ("orthogonalize-alo", ["orthogonalize", *pulse, "--kind", "alo"]),
        (
            "orthogonalize-limit",
            ["orthogonalize", *pulse, "--kind", "limit", "--shift-ratio", "12"],
        ),
        ("analyze", ["analyze", *pulse, "--shift-clocks", "15"]),
        ("sweep", ["sweep", "--order", "25", "--k-list", "1,2,3"]),
        (
            "simulate",
            ["simulate", "--order", "25", "--trials", "200", "--ebn0-list", "0,6",
             "--seed", "0"],
        ),
    ]
    for kind in ("lo", "alo", "limit"):
        for k in ("2", "5", "20"):
            argv = ["orthogonalize", *pulse, "--kind", kind, "--shift-ratio", k]
            runs.append((f"orthogonalize-{kind}-k{k}", argv))
    return runs


def digest() -> list[str]:
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, argv in commands():
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv + ["--outdir", label])
                if rc != 0:
                    raise SystemExit(f"{label}: exit code {rc}")
                for path in sorted(Path(label).iterdir()):
                    sha = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{path.as_posix()} {sha}")
        finally:
            os.chdir(home)
    return lines


if __name__ == "__main__":
    print("\n".join(digest()))
