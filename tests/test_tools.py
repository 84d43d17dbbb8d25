"""The A/B benchmark driver records a run that ends badly instead of
aborting the comparison, and the output comparison flags every file, stdout
and exit status that differs."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest



def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = _tool("ab_bench")
cmp_outputs = _tool("cmp_outputs")


def stub_checkout(root: Path, last_line: str) -> Path:
    """A checkout whose perfbench/run.py prints one line and exits 0."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"print('warming up')\nprint({last_line!r})\n", encoding="utf-8")
    return root


@pytest.mark.parametrize("last_line", [
    "metrics: wall_s 1.0",
    '{"correct": true}',
    "[1, 2]",
], ids=["not-json", "missing-keys", "not-an-object"])
def test_malformed_result_line_is_an_error_entry(tmp_path, last_line):
    result = ab_bench._run(stub_checkout(tmp_path, last_line), "audit", 0, 1.0)
    assert set(result) == {"error"}
    assert result["error"].startswith("malformed result line")
    assert last_line in result["error"]


def test_well_formed_result_line_is_parsed(tmp_path):
    line = ('{"correct": true, "attempted": 3, "failed": 0, '
            '"metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}')
    result = ab_bench._run(stub_checkout(tmp_path, line), "audit", 0, 1.0)
    assert result == {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 1.5}}


def test_timeout_is_an_error_entry(tmp_path, monkeypatch):
    def expire(cmd, timeout, **kwargs):
        raise subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(ab_bench.subprocess, "run", expire)
    result = ab_bench._run(tmp_path, "audit", 0, 36.0)
    assert result == {"error": "timed out after 720 s"}


def test_operations_are_summed_per_side(tmp_path):
    def run(name, attempted, failed):
        line = json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                           "metrics": {"wall_s": {"value": 1.0}}})
        return ab_bench._run(stub_checkout(tmp_path / name, line), "audit", 0, 1.0)

    runs = [{"base": run("b0", 40, 0), "head": run("h0", 40, 2)},
            {"base": run("b1", 60, 0), "head": {"error": "exit 1: boom"}}]
    assert ab_bench._operations(runs, ("base", "head")) == {
        "base": {"attempted": 100, "failed": 0, "failed_share": 0.0},
        "head": {"attempted": 40, "failed": 2, "failed_share": 0.05},
    }
    assert ab_bench._operations(runs[1:], ("head",)) == {
        "head": {"attempted": 0, "failed": 0, "failed_share": None}}


def test_verdicts_against_bounds(tmp_path):
    # four pairs of stub runs; setup_s is the 0.175 -> 0.237 s of a refused
    # change, cpu_s has a base spread of 2/3 of its median, and peak_rss_mb
    # the same spread but a head that beats every base run
    values = {"setup_s": ([0.175, 0.176, 0.174, 0.177], [0.237, 0.236, 0.238, 0.239]),
              "wall_s": ([1.0, 1.01, 0.99, 1.0], [1.1, 1.12, 1.09, 1.1]),
              "cpu_s": ([1.0, 2.0, 1.0, 2.0], [1.5, 1.5, 1.5, 1.5]),
              "peak_rss_mb": ([50.0, 100.0, 50.0, 100.0], [40.0, 45.0, 42.0, 41.0]),
              "items_per_s": ([100.0, 101.0, 99.0, 100.0], [70.0, 71.0, 69.0, 70.0])}

    def run(side, k):
        metrics = {name: {"value": pair[side == "head"][k]} for name, pair in values.items()}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return ab_bench._run(stub_checkout(tmp_path / f"{side}{k}", line), "audit", k, 1.0)

    runs = [{side: run(side, k) for side in ("base", "head")} for k in range(4)]
    end_to_end = [{"name": name, "unit": "", "better": "higher" if name == "items_per_s" else "lower",
                   "bound": 0.1 if name == "peak_rss_mb" else 0.25} for name in values]
    summary = ab_bench._workload_summary(runs, end_to_end)
    assert {name: m["verdict"] for name, m in summary.items()} == {
        "setup_s": "worse", "wall_s": "no worse", "cpu_s": "unresolved",
        "peak_rss_mb": "no worse", "items_per_s": "worse"}
    assert summary["setup_s"]["bound"] == 0.25 and summary["setup_s"]["pairs"] == 4
    # no completed pair leaves nothing to judge
    broken = [{"base": {"error": "exit 1"}, "head": {"error": "exit 1"}}]
    assert ab_bench._workload_summary(broken, end_to_end)["wall_s"]["verdict"] == "unresolved"


def stub_cli(root: Path, decompose_text: str, exit_status: int = 0) -> Path:
    """A checkout whose `hypwhitney.cli` writes its arguments to out/run.txt,
    and decompose_text to out/pairs.jsonl on `decompose`."""
    package = root / "src" / "hypwhitney"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "args = sys.argv[1:]\n"
        "out = Path(args[args.index('--out') + 1])\n"
        "(out / 'sub').mkdir(parents=True)\n"
        "(out / 'sub' / 'run.txt').write_text(' '.join(args[:-2]))\n"
        "if args[0] == 'decompose':\n"
        f"    (out / 'pairs.jsonl').write_text({decompose_text!r})\n"
        "print('ran', args[0])\n"
        f"sys.exit({exit_status} if args[0] == 'audit' else 0)\n",
        encoding="utf-8")
    return root


def test_cmp_outputs_flags_each_difference(tmp_path, capsys):
    base = stub_cli(tmp_path / "base", "[1]\n")
    assert cmp_outputs.compare(base, stub_cli(tmp_path / "same", "[1]\n"), tmp_path / "out")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cmp_outputs.RUNS) == 8
    assert all(": identical (" in line for line in lines)
    # each side's wall time ends the line
    times = r"; base \d+\.\d\d s, head \d+\.\d\d s\)"
    assert re.fullmatch(r"decompose: identical \(2 files, exit status 0" + times, lines[2])
    assert re.fullmatch(r"decompose --config fine_decompose.json: identical "
                        r"\(2 files, exit status 0" + times, lines[6])
    assert re.fullmatch(r"audit --seed 1: identical \(1 files, exit status 0" + times, lines[7])
    assert json.loads((base / "fine_decompose.json").read_text())["delta_grid"][0] == 2.0**-20

    assert not cmp_outputs.compare(base, stub_cli(tmp_path / "head", "[2]\n", 1), tmp_path / "out")
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"audit: DIFFERENT exit status \(1 files, exit status 1" + times, lines[0])
    assert re.fullmatch(r"decompose: DIFFERENT pairs.jsonl \(2 files, exit status 0" + times, lines[2])
    assert sum("identical" in line for line in lines) == 3
    # a file on one side only, and stdout
    one = {"files": {"a": b"x"}, "stdout": b"1", "exit status": 0}
    two = {"files": {}, "stdout": b"2", "exit status": 0}
    assert cmp_outputs._differences(one, two) == ["a", "stdout"]
