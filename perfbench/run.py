"""pivotgauge benchmark: one workload per invocation.

    python3 perfbench/run.py --workload replay-three-lift --seed 1 --seconds 10 --trace 0

Workloads: replay-three-lift, simulate-three-lift, sweep-incipient-slip.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The package is imported from ``src/`` beside this directory, never
from an installed copy. The last line of standard output is the result
object; the exit code is 1 when an output check failed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "pivotgauge" / "__init__.py").is_file():
        sys.exit(f"error: no pivotgauge sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pivotgauge

    if Path(pivotgauge.__file__).resolve().parent != SRC / "pivotgauge":
        sys.exit(f"error: imported pivotgauge from {pivotgauge.__file__}, not {SRC}")
    from perfbench.bench import main

    sys.exit(main())
