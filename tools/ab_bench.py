"""Benchmark two revisions against each other in alternating pairs.

Usage (from the repository root):

    python3 tools/ab_bench.py --base HEAD~1 --head HEAD --out BENCH.json

The committed files of each revision are extracted with `git archive` into a
temporary directory, so uncommitted edits never reach a run.  For every
workload W of the head's BENCHMARK.json, pair k runs

    python3 perfbench/run.py --workload W --seed k --seconds T --trace 0

once in each checkout, T being that file's `run_seconds`; the base runs
first in even pairs, the head in odd ones.
The output file holds every run's end-to-end metrics and, for each workload
and end-to-end metric, each side's median and quartiles, the number of
pairs the head won (ties count for neither side) and a verdict against the
metric's relative `bound` in BENCHMARK.json:

- `unresolved`: the base's quartile spread over its median exceeds the
  bound, and not every head run beats every base run;
- `worse`: otherwise, if the head's median is worse than the base's by more
  than the bound times the base's median;
- `no worse`: in every other case.

The verdicts are also printed.  Each workload also gets each side's
attempted and failed operations summed over its runs, and the failed share;
a run that ended in an error adds to neither.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _checkout(commit: str, dest: Path) -> None:
    """The committed files of commit, extracted under dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result line, or the error that ended it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=max(600.0, 20 * seconds))
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout:g} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        result = json.loads(lines[-1])
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        return {"error": f"malformed result line ({exc!r}): {lines[-1][-400:]}"}


def _summary(values: list) -> dict:
    if len(values) < 2:
        return {"runs": len(values), "median": values[0] if values else None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3}


def _verdict(base: dict, head: dict, beats_all: bool, bound: float, lower: bool) -> str:
    """`worse`, `no worse` or `unresolved` (see the module docstring) from
    each side's `_summary` and whether every head run beats every base run."""
    if not base["runs"]:
        return "unresolved"
    median = abs(base["median"])
    spread = (base["q3"] - base["q1"]) / median if "q1" in base and median else math.inf
    if spread > bound and not beats_all:
        return "unresolved"
    worsening = head["median"] - base["median"] if lower else base["median"] - head["median"]
    return "worse" if worsening > bound * median else "no worse"


def _workload_summary(runs: list, end_to_end: list) -> dict:
    """Median, quartiles, head wins and verdict of each end-to-end metric over the pairs."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(r["base"]["metrics"][name], r["head"]["metrics"][name]) for r in runs
                 if name in r["base"].get("metrics", {}) and name in r["head"].get("metrics", {})]
        wins = sum((h < b) if lower else (h > b) for b, h in pairs)
        base_values, head_values = [b for b, _ in pairs], [h for _, h in pairs]
        base, head = _summary(base_values), _summary(head_values)
        beats_all = bool(pairs) and (max(head_values) < min(base_values) if lower
                                     else min(head_values) > max(base_values))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "base": base, "head": head,
                     "head_wins": wins, "ties": sum(b == h for b, h in pairs), "pairs": len(pairs),
                     "verdict": _verdict(base, head, beats_all, metric["bound"], lower)}
    return out


def _operations(runs: list, sides) -> dict:
    """Each side's attempted and failed operations over the runs, and the
    failed share (None when nothing was attempted)."""
    out = {}
    for side in sides:
        attempted = sum(r[side].get("attempted", 0) for r in runs)
        failed = sum(r[side].get("failed", 0) for r in runs)
        out[side] = {"attempted": attempted, "failed": failed,
                     "failed_share": failed / attempted if attempted else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_bench.py", description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="head revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("base", args.base), ("head", args.head))}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            _checkout(commit, checkouts[side])
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        report = {"base": {"rev": args.base, "commit": commits["base"]},
                  "head": {"rev": args.head, "commit": commits["head"]},
                  "command": f"python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {seconds:g} --trace 0",
                  "pairs": args.pairs, "python": sys.version.split()[0], "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in range(args.pairs):
                order = ("base", "head") if seed % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    result = run[side] = _run(checkouts[side], workload, seed, seconds)
                    shown = result["metrics"]["wall_s"] if "metrics" in result else result["error"]
                    print(f"{workload} seed {seed} {side}: wall_s {shown}", file=sys.stderr, flush=True)
                runs.append(run)
            metrics = _workload_summary(runs, spec["end_to_end"])
            report["workloads"][workload] = {
                "correct": {side: sum(r[side].get("correct") is True for r in runs)
                            for side in commits},
                "operations": _operations(runs, commits),
                "metrics": metrics,
                "runs": runs,
            }
            for name, m in metrics.items():
                print(f"{workload} {name}: {m['verdict']} (median {m['base']['median']} -> "
                      f"{m['head']['median']}, bound {m['bound']:g})", file=sys.stderr, flush=True)
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
