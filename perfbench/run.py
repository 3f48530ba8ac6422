"""Run one benchmark workload: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1. The last line of standard output is the result JSON.

BLAS is pinned to one thread before numpy loads, so the rasterizer's tile
threads are the only threads doing numeric work.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dysplat" / "__init__.py").is_file():
        print(f"error: no dysplat sources under {root / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
