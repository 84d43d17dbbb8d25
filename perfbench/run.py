"""Run one benchmark workload of hypwhitney and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Workloads are defined in `workloads.py`; `BENCHMARK.json` names them and the
metrics, and `metric_map.json` says which end-to-end metric each per-layer
metric should move on which workload.

--trace 0 measures the end-to-end metrics with tracing off.  The workload
runs in passes; another pass starts only while it is expected to end within
--seconds, so a long workload makes one pass.  Timings are medians over
passes; `peak_rss_mb` is the process's peak through its first pass.
`setup_s` is the median over several fresh interpreters of the time from
process start to the end of set-up (imports, config, generated inputs).

--trace 1 runs one pass with every public package function wrapped
(`tracer.py`) and reports the per-layer metrics; like the untraced run's
pass, it is the first pass in a fresh process.  An untraced pass follows, and
`trace.overhead_ratio` is the traced wall time over its wall time.  That
second pass skips first-pass warm-up (page faults of fresh memory, about 5%
on audit), so the ratio overstates the overhead slightly.

Every pass's outputs are checked (`workloads.py`); the run context, checks
and metrics go to perfbench/.results/, spans of a traced pass to an .npz
beside them.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status 0 means the run
completed; `correct` says whether its outputs matched.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def main(argv=None) -> int:
    spec = _read_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # One BLAS thread, as the workloads run with threads = 1.  Otherwise the
    # share of extend_points' matrix-vector products that runs on the second
    # core depends on what else the host runs, and scaling-law wall time
    # swings by a third.  Set before numpy loads; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "hypwhitney" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC.name}/hypwhitney",
              file=sys.stderr)
        return 2
    metric_map = _read_json(HERE / "metric_map.json")
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(metric_map["per_layer"]) != sorted(layer_names):
        raise RuntimeError("metric_map.json and BENCHMARK.json list different per-layer metrics")

    workdir = HERE / ".out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = HERE / ".results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = _measure_setup(args.workload, args.seed, workdir) if not args.trace else None
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        inputs = workload.setup(args.seed, workdir / "main")
        context = _run_context(workload, args.seed)
        if args.trace:
            record = _traced(workload, inputs, args, spec, metric_map, results)
        else:
            record = _untraced(workload, inputs, args, spec, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["context"] = context
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    attempted, failed = record["attempted"], record["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} check={record['check_mode']}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, m in record["metrics"].items():
        label = " (computed)" if metric_map["per_layer"].get(name, {}).get("computed") else ""
        print(f"metric {name} = {m['value']!r} {m['unit']}{label}")
    print(f"check attempted={attempted} failed={failed} "
          f"op_fail_ratio={failed / attempted!r}; items_per_s counts {workload.items}")
    for note in record["check_notes"][:20]:
        print(f"check mismatch {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


# ---------------------------------------------------------------------------
# Passes


def _pass(workload, inputs, seed):
    """One timed call of the workload, then its output check (untimed)."""
    gc.collect()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outputs = workload.run(inputs)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    maxrss_mb = r1.ru_maxrss / 1024.0
    summary = workload.plain_summary(outputs)
    return {"wall_s": wall, "cpu_s": cpu, "maxrss_mb": maxrss_mb,
            "items": workload.item_count(summary), "check": workload.check(summary, seed)}


def _record(passes, metrics) -> dict:
    return {
        "passes": len(passes),
        "pass_times": [{k: p[k] for k in ("wall_s", "cpu_s", "items")} for p in passes],
        "check_mode": passes[0]["check"].mode,
        "attempted": sum(p["check"].attempted for p in passes),
        "failed": sum(p["check"].failed for p in passes),
        "check_notes": [n for p in passes for n in p["check"].notes()],
        "metrics": metrics,
    }


def _untraced(workload, inputs, args, spec, setup_s) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_pass(workload, inputs, args.seed))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        # Through the first pass only, as a user's one command in a fresh
        # process; a later pass may raise it, and the pass count varies.
        "peak_rss_mb": passes[0]["maxrss_mb"],
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
    }
    return _record(passes, _metrics(spec["end_to_end"], values))


def _traced(workload, inputs, args, spec, metric_map, results) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = _pass(workload, inputs, args.seed)
    finally:
        tracer.uninstall()
    plain = _pass(workload, inputs, args.seed)
    tracer.write_spans(results / f"{args.workload}-seed{args.seed}-spans.npz")
    values = tracer.summary()
    built, rejected = values["geometry.pairs_built"], values["geometry.pairs_rejected"]
    ext_s = values["extension.extend_points.s"]
    values.update({
        "extension.terms_per_s": values["extension.terms"] / ext_s if ext_s else 0.0,
        "geometry.accept_ratio": built / (built + rejected) if built + rejected else 0.0,
        "cli.write.s": values["cli._write_json.s"] + values["cli._write_sweep_csv.s"],
        "trace.spans": values["spans"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    })
    return _record([traced, plain], _metrics(spec["per_layer"], values))


def _metrics(declared, values) -> dict:
    """Every declared metric, in declared order, with its declared unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no measurement for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------
# Set-up time


def _measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of process start to set-up done."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
               str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Run context


def _run_context(workload, seed: int) -> dict:
    import numpy as np

    from workloads import config_hash

    return {
        "workload": workload.name,
        "seed": seed,
        "config_sha256": config_hash(workload.config(seed)),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
