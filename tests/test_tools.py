"""The A/B benchmark driver records a run that ends badly instead of
aborting the comparison."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


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
