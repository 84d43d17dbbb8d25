"""Compare the default CLI outputs of two revisions byte for byte.

Usage (from the repository root):

    python3 tools/cmp_outputs.py --base HEAD~1 --head HEAD

The committed files of each revision are extracted with `ab_bench._checkout`.
Each of the runs

    audit, audit --negative-controls, decompose, transversality, sumsets,
    scaling-law, decompose --config fine_decompose.json, audit --seed 1

executes in both checkouts, as `python3 -m hypwhitney.cli RUN --out OUT`
with the checkout's `src` on PYTHONPATH.  The first six use the default
config; the seventh decomposes at every scale from 2^-20, the finest the
pair index enumerates, to 2^-3, from a config file that the script writes
into each checkout; the last repeats the audit on a second random stream.  OUT is the same path on both sides, because the reports echo
the output directory in their config.  Every output file, the stdout and
the exit status of a run must be equal on both sides.  One line per run says
which differ and gives each side's wall time; the script exits 1 if any run
differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_bench  # noqa: E402

RUNS = (("audit",), ("audit", "--negative-controls"), ("decompose",), ("transversality",),
        ("sumsets",), ("scaling-law",), ("decompose", "--config", "fine_decompose.json"),
        ("audit", "--seed", "1"))
# The config of the fine decompose run, every scale from 2^-20 to 2^-3.
FINE_DECOMPOSE = {"delta_grid": [2.0**k for k in range(-20, -2)]}


def _outputs(checkout: Path, run: tuple, out: Path) -> dict:
    """One run in checkout, into out emptied first: the bytes of every file
    it wrote by relative path, its stdout, its exit status and its wall time
    in seconds."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hypwhitney.cli", *run, "--out", str(out)],
                          cwd=checkout, env=env, capture_output=True)
    wall_s = time.perf_counter() - start
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {"files": files, "stdout": proc.stdout, "exit status": proc.returncode, "wall_s": wall_s}


def _differences(base: dict, head: dict) -> list:
    """What differs between two `_outputs`: each file, then stdout and the
    exit status."""
    names = sorted(set(base["files"]) | set(head["files"]))
    diffs = [name for name in names if base["files"].get(name) != head["files"].get(name)]
    return diffs + [key for key in ("stdout", "exit status") if base[key] != head[key]]


def compare(base: Path, head: Path, out: Path) -> bool:
    """Every run of RUNS in both checkouts into out, with FINE_DECOMPOSE
    written into each checkout first; prints one line per run and returns
    whether all of them were identical."""
    for checkout in (base, head):
        (checkout / "fine_decompose.json").write_text(json.dumps(FINE_DECOMPOSE), encoding="utf-8")
    identical = True
    for run in RUNS:
        sides = [_outputs(checkout, run, out) for checkout in (base, head)]
        diffs = _differences(*sides)
        label = " ".join(run)
        files = len(sides[1]["files"])
        print(f"{label}: {'DIFFERENT ' + ', '.join(diffs) if diffs else 'identical'} "
              f"({files} files, exit status {sides[1]['exit status']}; "
              f"base {sides[0]['wall_s']:.2f} s, head {sides[1]['wall_s']:.2f} s)", flush=True)
        identical = identical and not diffs
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/cmp_outputs.py", description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="head revision (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cmp_outputs-") as tmp:
        checkouts = []
        for side, rev in (("base", args.base), ("head", args.head)):
            checkouts.append(Path(tmp) / side)
            ab_bench._checkout(ab_bench._git("rev-parse", "--verify", f"{rev}^{{commit}}"), checkouts[-1])
        return 0 if compare(*checkouts, Path(tmp) / "out") else 1


if __name__ == "__main__":
    sys.exit(main())
