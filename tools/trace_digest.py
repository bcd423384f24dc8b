"""Parity digest of the benchmark grids.

    python3 tools/trace_digest.py

Runs every entry of every workload in perfbench/harness.py's WORKLOADS on
its grid, at run seeds 1-3 with all of each workload's random-start
streams (the solves of ``perfbench/run.py --seconds 0`` at those seeds),
and prints one sha256 per workload entry.  A digest covers, per solve, the
trace's q, grad_norm, res_norm and step columns and its markers, and the
result's x, mu, q, status, reason and restarts; not elapsed_s.  A
``solve_trs`` solve adds its route, x and q ahead of its boundary solve's;
an oracle solve gives its case, global mu and global x.  Two checkouts
whose digests agree ran the same arithmetic on these grids.  Exits 1 when
any solve misses the benchmark's correctness gate (each miss is printed to
standard error), 0 otherwise.

BLAS and OpenMP threads are pinned to one, as in perfbench/run.py, and
spheretrs is imported from the src/ directory of this checkout.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import harness  # noqa: E402

RUN_SEEDS = (1, 2, 3)


def _words(res):
    """The digested fields of one solve's result, in a fixed order."""
    if res is None:  # the solve raised
        yield "none"
        return
    if hasattr(res, "global_"):  # enumerate_affine_eigenvalues
        yield from (res.case, res.global_.mu, res.global_.x)
        return
    if hasattr(res, "route"):  # solve_trs
        yield from (res.route, res.x, res.q)
        res = res.boundary
        if res is None:
            return
    t = res.trace
    yield len(t.q)
    yield from (t.q, t.grad_norm, t.res_norm, t.step, repr(t.markers))
    yield from (res.x, res.mu, res.q, res.status, res.reason, res.restarts)


def _bytes(v) -> bytes:
    if isinstance(v, str):
        return v.encode() + b"\0"
    return np.asarray(v, dtype=float).tobytes()


def main() -> int:
    missed = 0
    for name, w in harness.WORKLOADS.items():
        digests = {e.name: hashlib.sha256() for e in w.entries}
        with tempfile.TemporaryDirectory() as tmp:
            instances = harness.setup(w, None, Path(tmp))
        for seed in RUN_SEEDS:
            for k in range(w.streams):
                for s in harness.run_pass(w, instances, w.streams * seed + k):
                    missed += not s.ok
                    for v in _words(s.result):
                        digests[s.entry.name].update(_bytes(v))
        for entry, h in digests.items():
            print(f"{name:20s} {entry:15s} {h.hexdigest()}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
