"""Command-line interface: matrix-file analysis with JSON reports.

Exit codes: 0 success, 1 mathematical/structural failure (non-diagonalizable
input, unmatched spectra, residual over threshold, ...), 2 usage errors.
Reports are byte-stable JSON by default; --pretty renders aligned tables.
The default rtol may be overridden with --tol or the PSEUDOHERM_TOL
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain

from .errors import PseudohermError, UsageError
from .intertwine import canonical_factorization, self_factorization
from .linalg import Tolerance
from .metric import EtaOperator, SignAssignment, canonical_eta, verify_pseudo_hermiticity
from .report import (
    check_payload,
    complex_pair,
    file_digest,
    matrix_payload,
    parse_matrix_file,
    vector_payload,
)
from .spectral import classify_spectrum, decompose, verify_biorthonormality
from .susy import assemble, from_factorization, verify_algebra, witten_index
from .twolevel import (
    TwoLevelParams,
    closed_form_system,
    oscillator_demo,
    spin_intertwine_demo,
    two_level_factorization,
)

ENV_TOL = "PSEUDOHERM_TOL"


def _complex_flag(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected re or re,im - got {text!r}")
    re = float(parts[0])
    im = float(parts[1]) if len(parts) == 2 else 0.0
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"expected finite numbers - got {text!r}")
    return complex(re, im)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Spectral analysis, metric construction, factorization and "
        "Witten indices for finite-dimensional non-Hermitian Hamiltonians.",
        epilog=f"Set {ENV_TOL} to override the default relative tolerance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None, help="relative tolerance")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--pretty", action="store_true", help="human-readable tables")

    p = sub.add_parser("spectrum", help="classify the spectrum of a matrix")
    p.add_argument("matrix")
    common(p)

    p = sub.add_parser("eta", help="canonical metric operator plus verification")
    p.add_argument("matrix")
    p.add_argument("--signs", default=None, help="comma-separated +1/-1 per real eigenvector")
    common(p)

    p = sub.add_parser("factor", help="self-factorization H = L# L")
    p.add_argument("matrix")
    common(p)

    p = sub.add_parser("intertwine", help="factor one matrix through another")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    common(p)

    p = sub.add_parser("psusy", help="assemble the graded system of a map D")
    p.add_argument("d_matrix")
    p.add_argument("--eta-plus", default=None, help="metric file for the plus sector")
    p.add_argument("--eta-minus", default=None, help="metric file for the minus sector")
    common(p)

    p = sub.add_parser("witten", help="Witten index report for a map D")
    p.add_argument("d_matrix")
    p.add_argument("--eta-plus", default=None)
    p.add_argument("--eta-minus", default=None)
    common(p)

    p = sub.add_parser("twolevel", help="closed forms for a traceless 2x2 system")
    p.add_argument("--a", type=_complex_flag, required=True, metavar="RE,IM")
    p.add_argument("--b", type=_complex_flag, required=True, metavar="RE,IM")
    p.add_argument("--c", type=_complex_flag, required=True, metavar="RE,IM")
    common(p)

    p = sub.add_parser("demo", help="golden oscillator / spin reports")
    p.add_argument("which", choices=["oscillator", "spin"])
    p.add_argument("--omega", type=float, default=1.0)
    common(p)

    return parser


def _resolve_tolerance(args) -> Tolerance:
    rtol = args.tol
    if rtol is None and ENV_TOL in os.environ:
        try:
            rtol = float(os.environ[ENV_TOL])
        except ValueError as exc:
            raise UsageError(f"{ENV_TOL} is not a number: {exc}") from exc
    if rtol is None:
        return Tolerance()
    try:
        return Tolerance(rtol=rtol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _tolerance_payload(tol: Tolerance) -> dict:
    return {"rtol": tol.rtol, "atol": tol.atol, "cond_max": tol.cond_max}


def _base_report(command: str, inputs: dict, tol: Tolerance) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "tolerance": _tolerance_payload(tol),
        "result": {},
        "checks": [],
    }


def _finish(report: dict) -> dict:
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def _cluster_payload(sys) -> list[dict]:
    return [
        {
            "value": complex_pair(c.value),
            "multiplicity": c.multiplicity,
            "kind": c.kind,
            "partner": c.partner,
        }
        for c in sys.clusters
    ]


def _factorization_payload(report: dict, fact) -> None:
    report["result"].update(
        {
            "l": matrix_payload(fact.matrix),
            "l_sharp": matrix_payload(fact.lsharp),
            "alpha": [complex_pair(a) for a in fact.intertwiner.alpha],
            "eta1": matrix_payload(fact.eta1.matrix),
            "eta2": matrix_payload(fact.eta2.matrix),
        }
    )
    report["checks"].extend(check_payload(c) for c in fact.checks)


def _witten_payload(wit) -> dict:
    kernel_complex, kernel_map = wit.checks
    return {
        "d0_plus": wit.d0_plus,
        "d0_minus": wit.d0_minus,
        "delta": wit.delta,
        "ker_d": wit.ker_d,
        "ker_d_dagger": wit.ker_d_dagger,
        "ker_d0": wit.ker_d0,
        "ker_d0_flat": wit.ker_d0_flat,
        "betti_plus": wit.betti_plus,
        "betti_minus": wit.betti_minus,
        "analytic_index_sigma": wit.analytic_index_sigma,
        "analytic_index_d": wit.analytic_index_d,
        "non_null_plus": wit.non_null_plus,
        "non_null_minus": wit.non_null_minus,
        "non_null_kernels": wit.non_null_kernels,
        "delta_equals_betti": wit.delta_equals_betti,
        "delta_equals_analytic_d": wit.delta_equals_analytic_d,
        "complex_residual": kernel_complex.value,
        "kernel_map_residual": kernel_map.value,
    }


def _square_matrix_file(path):
    m = parse_matrix_file(path)
    rows, cols = m.shape
    if rows != cols:
        raise UsageError(f"{path} holds a {rows}x{cols} matrix; a square one is needed")
    return m


def _load_eta(path, dim: int, tol: Tolerance) -> EtaOperator:
    if path is None:
        return EtaOperator.identity(dim)
    return EtaOperator.from_matrix(_square_matrix_file(path), tol)


def cmd_spectrum(args, tol: Tolerance) -> dict:
    report = _base_report("spectrum", {"matrix": file_digest(args.matrix)}, tol)
    sys_ = decompose(_square_matrix_file(args.matrix), tol)
    cls = classify_spectrum(sys_, tol)
    report["result"] = {
        "tag": cls.tag,
        "clusters": _cluster_payload(sys_),
        "psi": matrix_payload(sys_.psi),
        "phi": matrix_payload(sys_.phi),
    }
    report["checks"] = [check_payload(c) for c in verify_biorthonormality(sys_, tol)]
    return _finish(report)


def cmd_eta(args, tol: Tolerance) -> dict:
    report = _base_report("eta", {"matrix": file_digest(args.matrix)}, tol)
    h = _square_matrix_file(args.matrix)
    sys_ = decompose(h, tol)
    if args.signs is None:
        signs = None
    else:
        try:
            flat = [int(s) for s in args.signs.split(",")]
        except ValueError as exc:
            raise UsageError(f"--signs must be comma-separated integers: {exc}") from exc
        try:
            signs = SignAssignment.from_flat(sys_, flat)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    eta = canonical_eta(sys_, signs)
    check = verify_pseudo_hermiticity(h, eta, tol)
    report["result"] = {
        "eta": matrix_payload(eta.matrix),
        "eta_inverse": matrix_payload(eta.inverse),
        "signs": list(eta.signs.flat),
        "clusters": _cluster_payload(sys_),
    }
    report["checks"] = [check_payload(check)]
    return _finish(report)


def cmd_factor(args, tol: Tolerance) -> dict:
    report = _base_report("factor", {"matrix": file_digest(args.matrix)}, tol)
    sys_ = decompose(_square_matrix_file(args.matrix), tol)
    fact = self_factorization(sys_, tol)
    report["result"]["clusters"] = _cluster_payload(sys_)
    _factorization_payload(report, fact)
    return _finish(report)


def cmd_intertwine(args, tol: Tolerance) -> dict:
    report = _base_report(
        "intertwine",
        {
            "matrix1": file_digest(args.matrix1),
            "matrix2": file_digest(args.matrix2),
        },
        tol,
    )
    sys1 = decompose(_square_matrix_file(args.matrix1), tol)
    sys2 = decompose(_square_matrix_file(args.matrix2), tol)
    fact = canonical_factorization(sys1, sys2, tol)
    _factorization_payload(report, fact)
    psys = from_factorization(fact)
    report["checks"].extend(check_payload(c) for c in verify_algebra(psys, tol))
    wit = witten_index(psys, tol)
    report["result"]["witten"] = _witten_payload(wit)
    return _finish(report)


def _assemble_from_args(args, tol: Tolerance):
    d = parse_matrix_file(args.d_matrix)
    eta_plus = _load_eta(args.eta_plus, d.shape[1], tol)
    eta_minus = _load_eta(args.eta_minus, d.shape[0], tol)
    if eta_plus.dim != d.shape[1] or eta_minus.dim != d.shape[0]:
        raise UsageError(
            f"metric dimensions ({eta_plus.dim}, {eta_minus.dim}) do not fit "
            f"D of shape {d.shape}"
        )
    return assemble(d, eta_plus, eta_minus)


def _susy_inputs(args) -> dict:
    inputs = {"d_matrix": file_digest(args.d_matrix)}
    if args.eta_plus:
        inputs["eta_plus"] = file_digest(args.eta_plus)
    if args.eta_minus:
        inputs["eta_minus"] = file_digest(args.eta_minus)
    return inputs


def cmd_psusy(args, tol: Tolerance) -> dict:
    report = _base_report("psusy", _susy_inputs(args), tol)
    psys = _assemble_from_args(args, tol)
    report["checks"] = [check_payload(c) for c in verify_algebra(psys, tol)]
    report["result"] = {
        "h_plus": matrix_payload(psys.h_plus),
        "h_minus": matrix_payload(psys.h_minus),
        "d_sharp": matrix_payload(psys.d_sharp),
    }
    return _finish(report)


def cmd_witten(args, tol: Tolerance) -> dict:
    report = _base_report("witten", _susy_inputs(args), tol)
    psys = _assemble_from_args(args, tol)
    wit = witten_index(psys, tol)
    report["result"] = _witten_payload(wit)
    report["result"]["null_check"] = {
        "plus": wit.non_null_plus,
        "minus": wit.non_null_minus,
    }
    report["checks"] = [check_payload(c) for c in wit.checks]
    return _finish(report)


def cmd_twolevel(args, tol: Tolerance) -> dict:
    report = _base_report(
        "twolevel",
        {
            "a": complex_pair(args.a),
            "b": complex_pair(args.b),
            "c": complex_pair(args.c),
        },
        tol,
    )
    params = TwoLevelParams.from_coefficients(args.a, args.b, args.c, tol)
    sys_ = closed_form_system(params, tol)
    fact = two_level_factorization(params, tol)
    report["result"] = {
        "e": complex_pair(params.e),
        "n": complex_pair(params.n),
        "determinant": complex_pair(params.determinant()),
        "rotations": params.rotations,
        "clusters": _cluster_payload(sys_),
        "psi": matrix_payload(sys_.psi),
        "phi": matrix_payload(sys_.phi),
    }
    report["checks"] = [check_payload(c) for c in verify_biorthonormality(sys_, tol)]
    _factorization_payload(report, fact)
    return _finish(report)


def cmd_demo(args, tol: Tolerance) -> dict:
    report = _base_report("demo", {"which": args.which, "omega": args.omega}, tol)
    run = oscillator_demo if args.which == "oscillator" else spin_intertwine_demo
    try:
        demo = run(args.omega, tol)
    except ValueError as exc:  # omega outside the demo's OMEGA_RANGE
        raise UsageError(f"--omega: {exc}") from exc
    if args.which == "oscillator":
        report["result"] = {
            "hamiltonian": matrix_payload(demo.hamiltonian),
            "psi1": vector_payload(demo.psi1),
            "psi2": vector_payload(demo.psi2),
            "phi1": vector_payload(demo.phi1),
            "phi2": vector_payload(demo.phi2),
            "eta1": matrix_payload(demo.eta1),
            "eta1_inv": matrix_payload(demo.eta1_inv),
            "eta2": matrix_payload(demo.eta2),
            "l": matrix_payload(demo.intertwiner),
            "l_sharp": matrix_payload(demo.intertwiner_sharp),
        }
    else:
        report["result"] = {
            "oscillator_h": matrix_payload(demo.oscillator_h),
            "spin_h": matrix_payload(demo.spin_h),
            "l": matrix_payload(demo.intertwiner),
            "l_sharp": matrix_payload(demo.intertwiner_sharp),
        }
    report["checks"] = [check_payload(c) for c in demo.checks]
    return _finish(report)


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "eta": cmd_eta,
    "factor": cmd_factor,
    "intertwine": cmd_intertwine,
    "psusy": cmd_psusy,
    "witten": cmd_witten,
    "twolevel": cmd_twolevel,
    "demo": cmd_demo,
}


def dispatch(args, tol: Tolerance) -> dict:
    return _HANDLERS[args.command](args, tol)


def _fmt_complex(pair) -> str:
    re, im = pair
    return f"{re:.12g}{im:+.12g}j"


def _pretty_lines(key: str, value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict) and {"rows", "cols", "entries"} <= set(value):
        lines = [f"{pad}{key} ({value['rows']}x{value['cols']}):"]
        for row in value["entries"]:
            lines.append(pad + "  " + "  ".join(f"{_fmt_complex(z):>24}" for z in row))
        return lines
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k in sorted(value):
            lines.extend(_pretty_lines(k, value[k], indent + 1))
        return lines
    if isinstance(value, list):
        return [f"{pad}{key}: {json.dumps(value)}"]
    return [f"{pad}{key}: {value}"]


def _entries_json(entries, pad: str) -> str | None:
    """JSON text of a non-empty rectangular list of rows of [float, float]
    pairs with finite values, formatted one row at a time; None otherwise.

    `pad` is a newline plus the indent of the line that holds the list.
    """
    if type(entries) is not list or set(map(type, entries)) != {list}:
        return None
    width = len(entries[0])
    if set(map(len, entries)) != {width}:
        return None
    pairs = list(chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:
        return None
    row_pad, pair_pad, value_pad = pad + "  ", pad + "    ", pad + "      "
    pair = f"[{value_pad}%r,{value_pad}%r{pair_pad}]"
    row = "[" + pair_pad + ("," + pair_pad).join([pair] * width) + row_pad + "]"
    step = 2 * width
    rows = [row % tuple(flat[i : i + step]) for i in range(0, len(flat), step)]
    text = "[" + row_pad + ("," + row_pad).join(rows) + pad + "]"
    # a finite float's repr has no "n"; json spells nan and inf NaN/Infinity
    return None if "n" in text else text


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, for a value on a line
    indented by `pad` (a newline plus spaces).

    Values under an "entries" key take `_entries_json` when it accepts them;
    everything else recurses down to `json.dumps` of each leaf.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            # json coerces and orders non-string keys itself; its output
            # holds no raw newline, so re-indenting it is exact
            return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)
        inner = pad + "  "
        items = []
        for key in sorted(value):
            text = _entries_json(value[key], inner) if key == "entries" else None
            items.append(f"{json.dumps(key)}: {text or _json(value[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value)


def emit_report(report: dict, pretty: bool = False) -> str:
    """Render a report: byte-stable JSON, exactly
    `json.dumps(report, sort_keys=True, indent=2)`, or aligned tables with
    --pretty."""
    if not pretty:
        return _json(report)
    lines = [f"command: {report['command']}"]
    for k in sorted(report.get("inputs", {})):
        lines.extend(_pretty_lines(k, report["inputs"][k], indent=1))
    if "tolerance" in report:
        lines.append(f"tolerance: {json.dumps(report['tolerance'], sort_keys=True)}")
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err['type']}: {err['message']}")
    for k in sorted(report.get("result", {})):
        lines.extend(_pretty_lines(k, report["result"][k]))
    checks = report.get("checks", [])
    if checks:
        width = max(len(c["name"]) for c in checks)
        lines.append("checks:")
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"  {c['name']:<{width}}  residual {c['residual']:.6e}  "
                f"threshold {c['threshold']:.6e}  {status}"
            )
    lines.append(f"passed: {report['passed']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = _resolve_tolerance(args)
        report = dispatch(args, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudohermError as exc:
        failure = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
        }
        print(emit_report(failure, getattr(args, "pretty", False)))
        return 1
    print(emit_report(report, args.pretty))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
