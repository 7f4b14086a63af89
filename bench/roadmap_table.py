"""Per-stage reference timings: the baseline table of the roadmap.

    python3 bench/roadmap_table.py                 (from the repository root)
    python3 bench/roadmap_table.py --sizes 256 --pair 512

For each size n, one matrix with n/2 simple real eigenvalues and n/4 simple
conjugate pairs goes through decompose -> self_factorization ->
from_factorization -> verify_algebra -> witten_index; each stage is timed on
its own, best of REPEATS, with one BLAS thread, on inputs drawn from SEED.
--pair N also times one degenerate isospectral pair of size N through the
whole benchmark pipeline (checked like the benchmark checks it), which is too
slow for a workload at N = 512.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

STAGES = ("decompose", "self_factorization", "verify_algebra", "witten_index")
REPEATS = 3
SEED = 0


def stage_times(ph, inputs, n: int, rng) -> dict:
    comp = inputs.Composition(reals=(1,) * (n // 2), pairs=(1,) * (n // 4))
    h = inputs.matrix_with_spectrum(rng, inputs.draw_spectrum(rng, comp)).h
    best = dict.fromkeys(STAGES, np.inf)
    for _ in range(REPEATS):
        start = perf_counter()
        sys_ = ph.decompose(h)
        best["decompose"] = min(best["decompose"], perf_counter() - start)
        start = perf_counter()
        fact = ph.self_factorization(sys_)
        best["self_factorization"] = min(best["self_factorization"], perf_counter() - start)
        psys = ph.from_factorization(fact)
        start = perf_counter()
        ph.verify_algebra(psys)
        best["verify_algebra"] = min(best["verify_algebra"], perf_counter() - start)
        start = perf_counter()
        ph.witten_index(psys)
        best["witten_index"] = min(best["witten_index"], perf_counter() - start)
    return best


def degenerate_pair(n: int, rng, inputs):
    """The pair_degenerate make-up repeated n // 256 times (one zero cluster
    of multiplicity 3 kept), filled up to n with simple real eigenvalues."""
    k = max(1, n // inputs.PAIR_DIM)
    base = inputs.DEGENERATE
    fill = n - (k * (base.dim - base.zero) + base.zero)
    if fill < 0:
        raise ValueError(f"--pair needs n >= {inputs.PAIR_DIM}")
    comp = inputs.Composition(
        reals=base.reals * k + (1,) * fill, pairs=base.pairs * k, zero=base.zero
    )
    return inputs.isospectral_pair(rng, comp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[256, 512])
    parser.add_argument("--pair", type=int, default=None, metavar="N")
    args = parser.parse_args()
    src = Path.cwd() / "src"
    if not (src / "pseudoherm" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # this directory is sys.path[0] already
    import checks
    import inputs
    import pseudoherm
    import workloads

    rng = np.random.default_rng(SEED)
    print("| n   | " + " | ".join(STAGES) + " |")
    print("|-----|" + "|".join("-" * (len(s) + 2) for s in STAGES) + "|")
    for n in args.sizes:
        best = stage_times(pseudoherm, inputs, n, rng)
        print(f"| {n:<3} | " + " | ".join(f"{best[s]:.2f} s".ljust(len(s)) for s in STAGES) + " |")
    if args.pair:
        first, second = degenerate_pair(args.pair, rng, inputs)
        start = perf_counter()
        out = workloads.pair_pipeline(pseudoherm, first.h, second.h)
        elapsed = perf_counter() - start
        problems = checks.pair_problems(out, first, second)
        status = "checks pass" if not problems else f"FAILED: {problems[:3]}"
        print(f"one degenerate pair, n = {args.pair}: {elapsed:.1f} s ({status})")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
