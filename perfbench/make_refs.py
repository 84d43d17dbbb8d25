"""Write the reference outputs that the benchmark checks runs against.

Usage (from the repository root):

    python3 perfbench/make_refs.py [--workload NAME ...]

Run it only at a commit whose outputs are trusted: the references are what
later commits must reproduce (exactly, or within the float tolerance stated
in workloads.py).  References cover seeds 0-9, the seeds the benchmark ships
with, and seed 10, held out from tuning.  Other seeds are checked against
seed-independent invariants only.  scaling-law draws no random numbers, so
one reference serves every seed; the whitney-scan decomposition likewise
does not depend on the seed and is stored once.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REF_DIR, WORKLOADS  # noqa: E402

REF_SEEDS = tuple(range(11))


def _write(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workdir = HERE / ".out" / "make_refs"
    try:
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            seeds = (0,) if name == "scaling-law" else REF_SEEDS
            for seed in seeds:
                summary = workload.plain_summary(
                    workload.run(workload.setup(seed, workdir / name)))
                if name == "scaling-law":
                    _write(REF_DIR / name / "reference.json", summary)
                elif name == "whitney-scan":
                    _write(REF_DIR / name / "decompose.json", summary.pop("decompose"))
                    _write(REF_DIR / name / f"seed-{seed}.json", summary)
                else:
                    _write(REF_DIR / name / f"seed-{seed}.json", summary)
                print(f"wrote {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
