"""The benchmark's workloads: inputs from a seed, the timed call, and the
output check.

Each workload runs in one process with `threads = 1`.
- `audit`: the default `hypwhitney audit` bundle, what users run.  Its time
  is the dense disjointness predicate (`whitney.audit_disjoint`) and the
  sumset cube audit; it never reaches the extension kernel.
- `scaling-law`: `hypwhitney scaling-law` with a 24^3 frequency grid; nearly
  all of it is `extension.extend_points`.  It has no randomness: the seed
  only labels the run.
- `whitney-scan`: a large pair decomposition plus scalar point location,
  overlap and chi audits; pair construction and location dominate, with no
  dense predicate and no extension kernel.

A workload's operations are its audit entries, sweep rows and fits, or
Whitney calls, each checked against a stored reference (`refs/`) when one
exists for the seed, otherwise against invariants that hold for every seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from hypwhitney import cli, geometry, whitney

REF_DIR = Path(__file__).resolve().parent / "refs"
# Floats agree when |a - b| <= RTOL * max(|a|, |b|) + ATOL.  ATOL is the
# surface-identity audit's own pass threshold: those entries report rounding
# errors near 1e-16 whose last bits move with any change of evaluation order.
RTOL = 1e-9
ATOL = 1e-12


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Comparison


def compare(got, want, path: str = "", rtol: float = RTOL, atol: float = ATOL) -> list:
    """Paths where got differs from want: structure, strings, bools and
    integers exactly, floats within rtol/atol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in sorted(want)
                for m in compare(got[k], want[k], f"{path}.{k}", rtol, atol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{path}[{i}]", rtol, atol)]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return []
        if got == want or abs(got - want) <= rtol * max(abs(got), abs(want)) + atol:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _load_ref(name: str):
    path = REF_DIR / name
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _any_ref(workload: str):
    paths = sorted((REF_DIR / workload).glob("seed-*.json"))
    return _load_ref(f"{workload}/{paths[0].name}") if paths else None


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """setup(seed, workdir) -> inputs; run(inputs) -> outputs (timed);
    summarize(outputs) -> plain data; check(summary, seed) -> Check."""

    name = ""
    items = ""  # what items_per_s counts on this workload

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def summarize(self, outputs) -> dict:
        raise NotImplementedError

    def plain_summary(self, outputs) -> dict:
        """summarize() as it reads back from JSON (tuples become lists)."""
        return json.loads(json.dumps(self.summarize(outputs)))

    def item_count(self, summary: dict) -> int:
        raise NotImplementedError

    def check(self, summary: dict, seed: int) -> "Check":
        raise NotImplementedError


@dataclasses.dataclass
class Check:
    """Outcome of the output check: one entry per operation."""

    mode: str  # "reference" or "invariants"
    ops: dict = dataclasses.field(default_factory=dict)  # op -> mismatch list

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for v in self.ops.values() if v)

    def notes(self) -> list:
        return [f"{op}: {m}" for op, ms in self.ops.items() for m in ms[:3]]


class _CliWorkload(Workload):
    """A `hypwhitney` subcommand run through `cli.main` on a config file."""

    command = ""

    def experiment(self, seed: int) -> "cli.ExperimentConfig":
        return cli.ExperimentConfig(seed=seed)

    def config(self, seed: int) -> dict:
        cfg = self.experiment(seed).to_json_dict()
        cfg.pop("output_dir")
        return {"workload": self.name, "command": self.command, "config": cfg}

    def setup(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "config.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.experiment(seed).to_json_dict(), fh)
        out = workdir / "out"
        return [self.command, "--config", str(cfg_path), "--out", str(out)], out

    def run(self, inputs):
        argv, out = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out


class Audit(_CliWorkload):
    name = "audit"
    command = "audit"
    items = "audit samples (sum of entry sample counts)"

    def summarize(self, outputs) -> dict:
        code, out = outputs
        report = _read_json(out / "report.json")
        return {
            "exit_code": code,
            "passed": report["passed"],
            "audits": [{k: e[k] for k in ("name", "pass", "samples", "negative_control",
                                          "expected_pass", "stats", "failures")}
                       for e in report["audits"]],
        }

    def item_count(self, summary: dict) -> int:
        return sum(e["samples"] for e in summary["audits"])

    def check(self, summary: dict, seed: int) -> Check:
        ref = _load_ref(f"audit/seed-{seed}.json")
        bundle = {"exit_code": summary["exit_code"], "passed": summary["passed"],
                  "entries": len(summary["audits"])}
        if ref is not None:
            check = Check("reference")
            for k, entry in enumerate(ref["audits"]):
                got = summary["audits"][k] if k < len(summary["audits"]) else None
                check.ops[entry["name"]] = compare(got, entry, entry["name"])
            check.ops["bundle"] = compare(
                bundle, {"exit_code": ref["exit_code"], "passed": ref["passed"],
                         "entries": len(ref["audits"])}, "bundle")
            return check
        # Any seed: entry names, flags and sample counts do not depend on the
        # seed, and the exit status must follow the non-control verdicts.
        check = Check("invariants")
        shape = ("name", "samples", "negative_control", "expected_pass")
        shape_ref = _any_ref("audit")["audits"]
        for k, entry in enumerate(shape_ref):
            got = summary["audits"][k] if k < len(summary["audits"]) else None
            got = {f: got.get(f) for f in shape} if got else None
            check.ops[entry["name"]] = compare(got, {f: entry[f] for f in shape},
                                               entry["name"])
        passed = all(e["pass"] for e in summary["audits"] if not e["negative_control"])
        check.ops["bundle"] = compare(bundle, {"exit_code": 0 if passed else 1,
                                               "passed": passed,
                                               "entries": len(shape_ref)}, "bundle")
        return check


class ScalingLaw(_CliWorkload):
    name = "scaling-law"
    command = "scaling-law"
    items = "frequency points evaluated (sweep rows x 2 fields x grid size)"
    freq_grid = (24, 24, 24)

    def experiment(self, seed: int) -> "cli.ExperimentConfig":
        config = cli.ExperimentConfig(seed=seed)
        config.quad = dataclasses.replace(config.quad, freq_grid=self.freq_grid)
        return config

    def summarize(self, outputs) -> dict:
        code, out = outputs
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        payload = _read_json(out / "scaling.json")
        return {
            "exit_code": code,
            "header": rows[0],
            "rows": [[float(v) for v in r] for r in rows[1:]],
            "fits": {regime: {"exponent": payload[regime]["fit"]["exponent"],
                              "within_band": payload[regime]["within_band"]}
                     for regime in ("prototype", "straight")},
        }

    def item_count(self, summary: dict) -> int:
        return len(summary["rows"]) * 2 * math.prod(self.freq_grid)

    def check(self, summary: dict, seed: int) -> Check:
        # The sweep draws no random numbers, so one reference serves every seed.
        ref = _load_ref("scaling-law/reference.json")
        check = Check("reference")
        check.ops["command"] = compare(
            {"exit_code": summary["exit_code"], "header": summary["header"]},
            {"exit_code": ref["exit_code"], "header": ref["header"]}, "command")
        for k, row in enumerate(ref["rows"]):
            got = summary["rows"][k] if k < len(summary["rows"]) else None
            check.ops[f"row{k}"] = compare(got, row, f"row{k}")
        if len(summary["rows"]) != len(ref["rows"]):
            check.ops["command"].append("sweep.csv row count differs")
        for regime, fit in ref["fits"].items():
            check.ops[f"fit:{regime}"] = compare(summary["fits"].get(regime), fit, regime)
        return check


class WhitneyScan(Workload):
    name = "whitney-scan"
    items = "query points (locate + overlap + chi samples)"
    C0 = 32.0
    rho = 2.0**-4
    strip_j = 12
    delta_range = (2.0**-8, 4.0)
    cap = 4096
    samples = {"audit_locate": 50_000, "audit_overlap": 20_000, "audit_chi": 10_000}

    def config(self, seed: int) -> dict:
        return {"workload": self.name, "C0": self.C0, "rho": self.rho,
                "strip_j": self.strip_j, "delta_range": list(self.delta_range),
                "cap": self.cap, "samples": self.samples, "seed": seed}

    def setup(self, seed: int, workdir: Path):
        strips = tuple(geometry.Strip(geometry.DyadicInterval(j, self.rho))
                       for j in (-self.strip_j, self.strip_j))
        return strips, seed

    def run(self, inputs):
        (V1, V2), seed = inputs
        out = {}

        def call(op, fn):
            try:
                out[op] = fn()
            except Exception as exc:  # a raising call is a failed operation
                out[op] = exc

        call("decompose", lambda: whitney.decompose(V1, V2, self.C0, *self.delta_range,
                                                    cap=self.cap))
        call("audit_locate", lambda: whitney.audit_locate(
            V1, V2, self.C0, self.samples["audit_locate"], [seed, 1]))
        decomp = out["decompose"]
        if not isinstance(decomp, Exception):
            call("audit_overlap", lambda: whitney.audit_overlap(
                decomp, self.samples["audit_overlap"], [seed, 2]))
            call("audit_chi", lambda: whitney.audit_chi(
                decomp, self.samples["audit_chi"], [seed, 3]))
        return out

    def summarize(self, outputs) -> dict:
        summary = {}
        for op in ("decompose", *self.samples):
            res = outputs.get(op)
            if res is None or isinstance(res, Exception):
                summary[op] = {"error": repr(res)}
            elif op == "decompose":
                summary[op] = {"decomposition": res.to_json_dict(),
                               "pairs_sha256": _pairs_digest(res)}
            else:
                summary[op] = json.loads(json.dumps(res.to_json_dict()))
        return summary

    def item_count(self, summary: dict) -> int:
        return sum(summary[op].get("samples", 0) for op in self.samples)

    def check(self, summary: dict, seed: int) -> Check:
        # The decomposition does not depend on the seed: always checked, and
        # exactly (totals, strides and the digest of every stored pair).
        check = Check("reference")
        ref_dec = _load_ref("whitney-scan/decompose.json")
        check.ops["decompose"] = compare(summary["decompose"], ref_dec, "decompose",
                                         rtol=0.0, atol=0.0)
        ref = _load_ref(f"whitney-scan/seed-{seed}.json")
        if ref is not None:
            for op in self.samples:
                check.ops[op] = compare(summary[op], ref[op], op)
            return check
        check.mode = "invariants"
        shape = _any_ref("whitney-scan")
        for op, n in self.samples.items():
            got = summary[op]
            if "error" in got:
                check.ops[op] = [f"{op}: {got['error']}"]
                continue
            want = shape[op]
            ms = compare({"name": got["name"], "samples": got["samples"],
                          "stat_keys": sorted(got["stats"])},
                         {"name": want["name"], "samples": want["samples"],
                          "stat_keys": sorted(want["stats"])}, op)
            if op == "audit_locate" and got["pass"] != (got["stats"]["successes"] == n):
                ms.append(f"{op}: verdict disagrees with the success count")
            if op == "audit_chi" and got["stats"] != want["stats"]:
                ms.append(f"{op}: interior/outside counts differ")
            check.ops[op] = ms
        return check


def _pairs_digest(decomp) -> str:
    """sha256 over every stored pair (type, delta, canonical parameters) in
    the decomposition's deterministic order."""
    h = hashlib.sha256()
    for delta in sorted(decomp.scales):
        for pairs in decomp.scales[delta]:
            rows = np.array([(p.pair_type, p.delta, p.cx1, p.cy1, p.ct2, p.cy2)
                             for p in pairs], dtype=np.float64).reshape(-1, 6)
            h.update(np.ascontiguousarray(rows).tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (Audit(), ScalingLaw(), WhitneyScan())}
