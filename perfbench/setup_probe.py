"""One set-up of a workload in a fresh interpreter, for `setup_s`.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports the package, builds the workload's config and generated inputs,
then prints "ready".  The parent times process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports hypwhitney)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[name].setup(seed, workdir)
print("ready", flush=True)
