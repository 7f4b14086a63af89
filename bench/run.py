"""pseudoherm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Workloads
are closed loops with one caller in one process: the next operation starts
when the previous one has returned. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from a
separate traced phase. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# One BLAS thread for the whole benchmark (set before numpy is imported).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402

# Set-ups timed per run, half before and half after the timed loop: one
# set-up swings by up to a third with the machine's speed from second to
# second, and samples spread over the run average those swings out.
SETUP_REPEATS = 16
# Run in a fresh interpreter: numpy first, untimed (the interpreter's start-up
# and numpy's import are not the program's), then the package, timed.
IMPORT_TIMER = (
    "import time, numpy; start = time.perf_counter(); import pseudoherm.cli; "
    "print(time.perf_counter() - start)"
)
# op_s_tail per workload: (percentile, operations a run needs at least), fixed
# so that runs stay comparable. The reported tail is the highest percentile
# with ten samples beyond it: p99 on cli_small, whose runs are extended to
# 1000 calls when needed. A pair_* run has fewer than 40 pairs, too few for
# any tail, so its median is reported.
TAIL = {"pair_simple": (50.0, 1), "pair_degenerate": (50.0, 1), "cli_small": (99.0, 1000)}
RUN_DIR = ".bench_run"  # temporary input files and trace dumps, under the root
SHOWN_PROBLEMS = 5


@dataclass
class Tally:
    """Operations attempted and failed, with the latencies of the good ones."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    busy: float = 0.0
    problems: list = field(default_factory=list)

    def add(self, elapsed: float, problems: list) -> None:
        self.attempted += 1
        self.busy += elapsed
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.latencies.append(elapsed)

    def merge(self, other: "Tally") -> None:
        """Add another tally's operation counts and problems (not its times)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def setup(ph, args, src: Path, workdir: Path, tally: Tally, repeats: int = 1):
    """Time `repeats` full set-ups; return their times and one round.

    One set-up = importing the package in a fresh interpreter (IMPORT_TIMER),
    generating the round's inputs (and writing its files), and one warm-up
    call per command on the smallest inputs.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, check=True, capture_output=True, text=True
        )
        start = perf_counter()
        ops = workloads.build_round(ph, args.workload, args.seed, workdir)
        warm = workloads.build_round(ph, args.workload, args.seed, workdir / "warm", small=True)
        for op in warm:
            tally.add(*workloads.timed(op))
        times.append(float(child.stdout) + perf_counter() - start)
    return times, ops


def measure(ops, seconds: float, tracer=None, samples: int = 1) -> Tally:
    """Whole rounds until the operations have been busy for `seconds` and at
    least `samples` of them have been attempted."""
    tally = Tally()
    while tally.busy < seconds or tally.attempted < samples:
        for op in ops:
            tally.add(*workloads.timed(op, tracer))
    return tally


def peak_alloc_mb(ops, tally: Tally) -> float:
    """tracemalloc peak of the largest operation of one untimed round."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                out = op.run()
            except (Exception, SystemExit) as exc:
                tally.add(0.0, [f"raised {type(exc).__name__}: {exc}"])
                continue
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            tally.add(0.0, workloads.checked(op, out))
    finally:
        tracemalloc.stop()
    return peak / 1e6


def end_to_end(ph, args, src, workdir) -> tuple[Tally, dict]:
    tally = Tally()
    half = SETUP_REPEATS // 2
    setup_times, ops = setup(ph, args, src, workdir, tally, half)
    pct, samples = TAIL[args.workload]
    timed = measure(ops, args.seconds, samples=samples)
    tally.merge(timed)
    setup_times += setup(ph, args, src, workdir, tally, SETUP_REPEATS - half)[0]
    lat = timed.latencies or [float("nan")]  # every operation failed
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p50": (float(np.median(lat)), "s"),
        "ops_per_s": (len(timed.latencies) / timed.busy, "1/s"),
        "op_s_tail": (float(np.percentile(lat, pct)), "s"),
        "peak_alloc_mb": (peak_alloc_mb(ops, tally), "MB"),
    }
    print(
        f"{args.workload}: {len(timed.latencies)} timed operations, "
        f"tail percentile p{pct:g}",
        file=sys.stderr,
    )
    return tally, metrics


def per_layer(ph, args, src, workdir, root: Path) -> tuple[Tally, dict, bool]:
    """Untraced half, then traced half; per-layer numbers from the second."""
    tally = Tally()
    _, ops = setup(ph, args, src, workdir, tally)
    plain = measure(ops, args.seconds / 2)
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        traced = measure(ops, args.seconds / 2, tracer)
    tally.merge(plain)
    tally.merge(traced)
    values, ops_traced = spans.layer_metrics(tracer)
    overhead = float(np.median(traced.latencies or [np.nan]) - np.median(plain.latencies or [np.nan]))
    values["trace.overhead_s"] = overhead
    metrics = {
        name: (value, "s" if name.endswith("_s") or name.endswith(".s") else "count")
        for name, value in values.items()
    }
    dump = root / RUN_DIR / f"trace-{args.workload}-{args.seed}.json"
    dump.write_text(json.dumps({"operations": ops_traced, "spans": tracer.spans}))
    for line in tracer.escaped[:SHOWN_PROBLEMS]:
        print(f"unwrapped binding: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {ops_traced} traced operations, spans in {dump.relative_to(root)}; "
        f"overhead {overhead:+.4f} s per operation",
        file=sys.stderr,
    )
    return tally, metrics, not tracer.escaped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pseudoherm" / "__init__.py").is_file():
        print("error: src/pseudoherm not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pseudoherm
    import pseudoherm.cli  # noqa: F401  (workloads call pseudoherm.cli.main)

    if Path(pseudoherm.__file__).resolve().parent != (src / "pseudoherm").resolve():
        print(f"error: imported pseudoherm from {pseudoherm.__file__}", file=sys.stderr)
        return 2

    (root / RUN_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / RUN_DIR))
    try:
        workdir = workdir.relative_to(root)  # report paths do not depend on the root
        if args.trace:
            tally, metrics, consistent = per_layer(pseudoherm, args, src, workdir, root)
        else:
            tally, metrics = end_to_end(pseudoherm, args, src, workdir)
            consistent = True
    finally:
        shutil.rmtree(root / workdir, ignore_errors=True)

    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print(f"failed: {problem}", file=sys.stderr)
    result = {
        "correct": consistent and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
