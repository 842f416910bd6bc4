"""Set-up probe, timed by run.py from process start to exit.

A fresh interpreter imports pathcoh and pathcoh.cli and runs one warm-up
scenario of a workload:

    python3 perfbench/probe.py <workload> <seed> <work dir>
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pathcoh  # noqa: E402,F401
import pathcoh.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name]().warm_up(seed, work)
