"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py          (from the repository root)

First every workload runs one round at a tiny size, and every operation must
pass its checks. Then each check is handed a deliberately wrong answer (a
perturbed intertwiner, an off-by-one Witten index, swapped cluster
multiplicities, a metric of other signs, a tampered CLI report, ...) and must
reject it, so that no check is vacuous. Last, a tiny pair is traced twice:
fully wrapped it must report no escaped binding, and with one module's
`spectral_norm` binding put back to the unwrapped function it must report
one. Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEED = 20020301
PERTURBATION = 1e-6


def _perturbed(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return m + PERTURBATION * np.linalg.norm(m) * noise / np.linalg.norm(noise)


def _swap_multiplicities(sys_):
    """Copy of a system with two clusters of different sizes swapped in size."""
    clusters = list(sys_.clusters)
    i = next(k for k, c in enumerate(clusters) if c.multiplicity == 2)
    j = next(k for k, c in enumerate(clusters) if c.multiplicity == 3)
    clusters[i] = dataclasses.replace(clusters[i], multiplicity=3)
    clusters[j] = dataclasses.replace(clusters[j], multiplicity=2)
    return dataclasses.replace(sys_, clusters=tuple(clusters))


def pair_mutants(ph, workloads, checks, inputs, rng):
    """(description, problems) for wrong answers fed to the pair checks."""
    first, second = inputs.pair_inputs("pair_degenerate", SEED, small=True)
    out = workloads.pair_pipeline(ph, first.h, second.h)
    fact = out.fact
    wrong_l = dataclasses.replace(
        fact, intertwiner=dataclasses.replace(fact.intertwiner, matrix=_perturbed(fact.matrix, rng))
    )
    wrong_eta = dataclasses.replace(
        fact, eta1=dataclasses.replace(fact.eta1, matrix=_perturbed(fact.eta1.matrix, rng))
    )
    mutants = {
        "perturbed L": out._replace(fact=wrong_l),
        "perturbed eta1": out._replace(fact=wrong_eta),
        "off-by-one delta": out._replace(
            witten=dataclasses.replace(out.witten, delta=out.witten.delta + 1)
        ),
        "off-by-one d0_plus": out._replace(
            witten=dataclasses.replace(out.witten, d0_plus=out.witten.d0_plus - 1)
        ),
        "swapped cluster multiplicity": out._replace(sys1=_swap_multiplicities(out.sys1)),
        "wrong spectrum tag": out._replace(tags=("AllReal", out.tags[1])),
        "eigenvalues of another spectrum": out._replace(
            sys2=ph.decompose(inputs.pair_inputs("pair_degenerate", SEED + 1, small=True)[0].h)
        ),
    }
    return [(f"pair: {name}", checks.pair_problems(m, first, second)) for name, m in mutants.items()]


def _edit_matrix(payload: dict, delta: complex) -> None:
    payload["entries"][0][0][0] += delta.real
    payload["entries"][0][0][1] += delta.imag


def _tampered_reports(kind: str, report: dict):
    """Wrong variants of one correct report: (description, report)."""
    result = report["result"]
    variants = []

    def variant(name, edit):
        wrong = json.loads(json.dumps(report))
        edit(wrong["result"])
        variants.append((f"{kind}: {name}", wrong))

    if kind == "spectrum":
        variant("wrong tag", lambda r: r.update(tag="AllReal"))
        degenerate = [k for k, c in enumerate(result["clusters"]) if c["multiplicity"] > 1]
        simple = [k for k, c in enumerate(result["clusters"]) if c["multiplicity"] == 1]

        def swap(r, i=degenerate[0], j=simple[0]):
            a, b = r["clusters"][i], r["clusters"][j]
            a["multiplicity"], b["multiplicity"] = b["multiplicity"], a["multiplicity"]

        variant("swapped cluster multiplicity", swap)
    elif kind == "eta":
        variant("non-Hermitian eta", lambda r: _edit_matrix(r["eta"], 1e-3j))
    elif kind in ("factor", "intertwine"):
        variant("perturbed L", lambda r: _edit_matrix(r["l"], PERTURBATION))
        variant("perturbed eta2", lambda r: _edit_matrix(r["eta2"], PERTURBATION))
        if kind == "intertwine":
            variant("off-by-one delta", lambda r: r["witten"].update(delta=r["witten"]["delta"] + 1))
    elif kind == "psusy":
        variant("perturbed H+", lambda r: _edit_matrix(r["h_plus"], PERTURBATION))
        variant("perturbed D#", lambda r: _edit_matrix(r["d_sharp"], PERTURBATION))
    elif kind == "witten":
        variant("off-by-one delta", lambda r: r.update(delta=r["delta"] + 1))
        variant("off-by-one d0_plus", lambda r: r.update(d0_plus=r["d0_plus"] + 1))
    elif kind == "twolevel":
        variant("perturbed E", lambda r: r["e"].__setitem__(0, r["e"][0] + PERTURBATION))
    elif kind == "demo":
        key = "hamiltonian" if "hamiltonian" in result else "spin_h"
        variant("wrong eigenvalues", lambda r: _edit_matrix(r[key], PERTURBATION))
    return variants


def _eta_reports(ph, inputs, checks, case, report: dict):
    """Metrics of H that do not follow the requested signs: (description, report).

    Both stay Hermitian with eta H = H^H eta, and the report still repeats the
    requested signs, so only the inertia check can reject them.
    """
    sys_ = ph.decompose(case.expect["h"])
    signs = ph.SignAssignment.from_flat(sys_, report["result"]["signs"] or [1] * sum(
        sys_.clusters[i].multiplicity for i in sys_.real_cluster_indices()
    ))
    flipped = list(signs.flat)
    flipped[0] = -flipped[0]
    other = ph.canonical_eta(sys_, ph.SignAssignment.from_flat(sys_, flipped)).matrix
    first = sys_.real_cluster_indices()[0]
    block = sys_.phi_block(first)
    eta = checks.payload_matrix(report["result"]["eta"])
    dropped = eta - block @ np.diag(signs.signs_for(first)) @ block.conj().T
    variants = []
    for name, m in (("eta of other signs", other), ("rank-deficient eta", dropped)):
        wrong = json.loads(json.dumps(report))
        wrong["result"]["eta"] = inputs.matrix_file_payload(m)
        variants.append((f"eta: {name}", wrong))
    return variants


def cli_mutants(ph, workloads, checks, inputs, workdir: Path):
    """(description, problems) for tampered reports and exit codes."""
    results = []
    for case in inputs.cli_cases(SEED, workdir, small=True):
        code, text = workloads.cli_op(ph, case).run()
        report = json.loads(text)
        kind = case.expect["kind"]
        wrong = [(f"{kind}: exit code 1", 1, text)]
        failed = dict(report, passed=False)
        wrong.append((f"{kind}: passed false", code, json.dumps(failed)))
        wrong.append((f"{kind}: unparsable report", code, text[:-2]))
        tampered = _tampered_reports(kind, report)
        if kind == "eta":
            tampered += _eta_reports(ph, inputs, checks, case, report)
        wrong += [(name, code, json.dumps(r)) for name, r in tampered]
        for name, c, t in wrong:
            subject = Path(case.argv[1]).name if len(case.argv) > 1 else ""
            results.append((f"{name} {subject}", checks.cli_problems(case, c, t)))
    return results


def tracer_cases(ph, workloads, inputs, spans):
    """(description, escaped bindings) for a tiny traced pair, fully wrapped
    and with one binding put back to the unwrapped function."""
    first, second = inputs.pair_inputs("pair_simple", SEED, small=True)
    results = []
    for name, unwrapped in (("all bindings wrapped", None), ("unwrapped susy.spectral_norm", "susy")):
        tracer = spans.Tracer()
        with spans.Instrumented(tracer):
            namespace = vars(getattr(ph, unwrapped)) if unwrapped else {}
            wrapper = namespace.get("spectral_norm")
            if wrapper is not None:
                namespace["spectral_norm"] = wrapper.__wrapped__
            try:
                with tracer.op():
                    workloads.pair_pipeline(ph, first.h, second.h)
            finally:
                if wrapper is not None:
                    namespace["spectral_norm"] = wrapper
        results.append((f"tracer: {name}", tracer.escaped))
    return results


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "pseudoherm" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # this directory is sys.path[0] already
    import checks
    import inputs
    import pseudoherm
    import pseudoherm.cli  # noqa: F401
    import spans
    import workloads

    failures = []
    (root / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".bench_run"))
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build_round(pseudoherm, workload, SEED, workdir / workload, small=True)
            for k, op in enumerate(ops):
                _, problems = workloads.timed(op)
                if problems:
                    failures.append(f"{workload} op {k} failed: {problems}")
            print(f"{workload}: {len(ops)} tiny operations checked")
        rng = np.random.default_rng(SEED)
        mutants = pair_mutants(pseudoherm, workloads, checks, inputs, rng)
        mutants += cli_mutants(pseudoherm, workloads, checks, inputs, workdir / "mutants")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, problems in mutants:
        status = "rejected" if problems else "ACCEPTED"
        print(f"  {status}: {name}")
        if not problems:
            failures.append(f"check accepted a wrong answer: {name}")
    (clean, wrapped), (broken, escaped) = tracer_cases(pseudoherm, workloads, inputs, spans)
    print(f"  {'clean' if not wrapped else 'FLAGGED'}: {clean}")
    print(f"  {'flagged' if escaped else 'MISSED'}: {broken} ({len(escaped)} escaped SVDs)")
    if wrapped:
        failures.append(f"{clean} reported escaped bindings: {wrapped[:3]}")
    if not escaped:
        failures.append(f"{broken} was not reported")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(mutants)} wrong answers, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
