"""Benchmark operations: what one round of each workload runs and checks.

A round is a fixed list of operations. `pair_*` rounds push one
isospectral pair through the library pipeline; a `cli_small` round makes one
in-process `pseudoherm.cli.main(argv)` call per prepared case. Functions are
looked up on the package at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import checks
import inputs

WORKLOADS = ("pair_simple", "pair_degenerate", "cli_small")


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    check: Callable[[object], list]


class PairOutput(NamedTuple):
    sys1: object
    sys2: object
    tags: tuple
    fact: object
    witten: object


def pair_pipeline(ph, h1, h2) -> PairOutput:
    """decompose x2 -> classify -> factor -> verify -> graded system -> index."""
    sys1 = ph.decompose(h1)
    sys2 = ph.decompose(h2)
    tags = (ph.classify_spectrum(sys1).tag, ph.classify_spectrum(sys2).tag)
    fact = ph.canonical_factorization(sys1, sys2)
    ph.verify_pseudo_hermiticity(h1, fact.eta1)
    ph.verify_pseudo_hermiticity(h2, fact.eta2)
    ph.verify_intertwining(fact.matrix, h1, h2)
    psys = ph.from_factorization(fact)
    ph.verify_algebra(psys)
    witten = ph.witten_index(psys)
    return PairOutput(sys1, sys2, tags, fact, witten)


def pair_op(ph, first, second) -> Op:
    return Op(
        run=lambda: pair_pipeline(ph, first.h, second.h),
        check=lambda out: checks.pair_problems(out, first, second),
    )


def cli_op(ph, case) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ph.cli.main(list(case.argv))
        return code, out.getvalue()

    return Op(run=run, check=lambda result: checks.cli_problems(case, *result))


def build_round(ph, workload: str, seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """Generate the inputs of one round (writing CLI files into `workdir`)."""
    if workload == "cli_small":
        cases = inputs.cli_cases(seed, workdir, small=small)
        return [cli_op(ph, case) for case in cases]
    return [pair_op(ph, *inputs.pair_inputs(workload, seed, small=small))]


def timed(op: Op, tracer=None) -> tuple[float, list]:
    """Run one operation, timing only the run; returns (seconds, problems).

    With a tracer, the run is recorded as one root span.
    """
    span = tracer.op() if tracer is not None else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span:
            out = op.run()
    except (Exception, SystemExit) as exc:  # SystemExit: the CLI's argparse
        return perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - start
    return elapsed, checked(op, out)


def checked(op: Op, out) -> list:
    """Problems with one output; a check that cannot read it is one too."""
    try:
        return op.check(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
