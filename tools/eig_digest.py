"""Parity digest of the benchmark grids' eigensolves.

    python3 tools/eig_digest.py

Runs ``min_eigpair`` (seed 0, the default tol) on every distinct instance
of the grids in perfbench/harness.py's WORKLOADS (the gen n=500 and n=2000
grids and the two positive definite ball instances), once without b and
once from b, and prints one sha256 over the results.  It covers each
result's lambda_min bytes, iterations and basis vectors and, from b, its
Krylov state (Q, H).  Two checkouts whose digests agree ran the same
eigensolve arithmetic on these grids.

BLAS and OpenMP threads are pinned to one, as in perfbench/run.py, and
spheretrs is imported from the src/ directory of this checkout.
"""

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
from spheretrs import generate, min_eigpair  # noqa: E402


def main() -> int:
    specs = list(dict.fromkeys(s for w in harness.WORKLOADS.values() for s in w.specs))
    h = hashlib.sha256()
    for spec in specs:
        p, _ = generate(spec)
        for b in (None, p.b):
            eig = min_eigpair(p.a, b=b)
            h.update(np.float64(eig.lambda_min).tobytes())
            h.update(np.int64(eig.iterations).tobytes())
            for v in eig.basis:
                h.update(v.tobytes())
            for m in eig.krylov or ():
                h.update(np.ascontiguousarray(m).tobytes())
    print(f"eigensolves {2 * len(specs)} sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
