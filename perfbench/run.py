"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BLAS and OpenMP threads are pinned to one before numpy is imported, and
spheretrs is imported from the src/ directory of the checkout this file
sits in.  The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        import spheretrs
    except ImportError as exc:
        print(f"cannot import spheretrs from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(spheretrs.__file__).resolve().parent.parent != SRC:
        print(f"spheretrs was imported from outside {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
