"""Routes, operator applications and q of the ball benchmark's solves.

    python3 tools/trs_digest.py

Runs both ``solve_trs`` strategies on every instance of perfbench/harness.py's
ball_callback_500 grid (through its problem files and opaque operator, as
the benchmark does) at rng_seed 0-3, and prints one line per solve: the
instance's gap, the strategy, the rng_seed, the route, the operator
applications, those of the full eigensolve from b (``min_eigpair`` at that
seed), whether the solve was certified, and q.  A solve that runs the full
eigensolve applies A at least once more (a fresh A y or a classification),
so it is counted certified when its applications do not exceed the full
eigensolve's.  The last line is one sha256 over the uncertified solves'
routes, applications, x and q: two checkouts whose digests agree solved
them with the same arithmetic.

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
from spheretrs import CallbackOp, min_eigpair  # noqa: E402

RNG_SEEDS = (0, 1, 2, 3)


def _full_eigensolve(inst, seed: int) -> int:
    """Operator applications of ``min_eigpair`` from b at ``seed``."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        return inst.a @ v

    min_eigpair(CallbackOp(fn, len(inst.b)), seed=seed, b=inst.b)
    return calls[0]


def main() -> int:
    w = harness.WORKLOADS["ball_callback_500"]
    with tempfile.TemporaryDirectory() as tmp:
        instances = harness.setup(w, None, Path(tmp))
    h = hashlib.sha256()
    uncertified = missed = 0
    for seed in RNG_SEEDS:
        full = {id(inst): _full_eigensolve(inst, seed) for inst in instances}
        for s in harness.run_pass(w, instances, seed):
            missed += not s.ok
            res, n_full = s.result, full[id(s.instance)]
            certified = s.matvecs <= n_full
            print(
                f"gap={s.instance.spec.gap:<5g} {s.entry.name:15s} rng_seed={seed} "
                f"{res.route:9s} matvecs={s.matvecs:4d} full={n_full:4d} "
                f"certified={'yes' if certified else 'no '} q={res.q!r}",
                flush=True,
            )
            if not certified:
                uncertified += 1
                h.update(res.route.encode() + b"\0")
                h.update(np.int64(s.matvecs).tobytes())
                h.update(res.x.tobytes())
                h.update(np.float64(res.q).tobytes())
    print(f"uncertified solves {uncertified} sha256 {h.hexdigest()}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
