"""Command-line interface: matrix-file analysis with JSON reports.

Exit codes: 0 success, 1 mathematical/structural failure (non-diagonalizable
input, unmatched spectra, residual over threshold, ...) or an output pipe the
reader closed, 2 usage errors.
Reports are byte-stable JSON by default; --pretty renders aligned tables.
The default rtol may be overridden with --tol or the PSEUDOHERM_TOL
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import PseudohermError, UsageError
from .intertwine import canonical_factorization, self_factorization
from .linalg import ResidualCheck, Tolerance
from .metric import EtaOperator, SignAssignment, canonical_eta, verify_pseudo_hermiticity
from .report import (
    check_payload,
    complex_pair,
    matrix_payload,
    parse_matrix_file,
    vector_payload,
)
from .spectral import classify_spectrum, decompose, verify_biorthonormality
from .susy import assemble, from_factorization, witten_index
from .twolevel import (
    TwoLevelParams,
    oscillator_demo,
    spin_intertwine_demo,
    two_level_factorization,
)

ENV_TOL = "PSEUDOHERM_TOL"

# what a cmd_* handler returns: the report's inputs and result, and its checks
Outcome = tuple[dict, dict, tuple[ResidualCheck, ...]]


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

    for name, text in (
        ("psusy", "assemble the graded system of a map D"),
        ("witten", "Witten index report for a map D"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("d_matrix")
        p.add_argument("--eta-plus", default=None, help="metric file for the plus sector")
        p.add_argument("--eta-minus", default=None, help="metric file for the minus sector")
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


def _factorization_payload(fact) -> dict:
    return {
        "l": fact.matrix,
        "l_sharp": fact.lsharp,
        "alpha": [complex_pair(a) for a in fact.intertwiner.alpha],
        "eta1": fact.eta1.matrix,
        "eta2": fact.eta2.matrix,
    }


def _witten_payload(wit) -> dict:
    (kernel_complex,) = wit.checks
    return {
        **{f.name: getattr(wit, f.name) for f in dataclasses.fields(wit) if f.name != "checks"},
        "non_null_kernels": wit.non_null_kernels,
        "delta_equals_analytic_d": wit.delta_equals_analytic_d,
        "complex_residual": kernel_complex.value,
    }


def _read(inputs: dict, key: str, path, square: bool = True) -> np.ndarray:
    """The matrix in the file at `path`; its digest goes to inputs[key]."""
    m, inputs[key] = parse_matrix_file(path)
    rows, cols = m.shape
    if square and rows != cols:
        raise UsageError(f"{path} holds a {rows}x{cols} matrix; a square one is needed")
    return m


def cmd_spectrum(args, tol: Tolerance) -> Outcome:
    inputs: dict = {}
    sys_ = decompose(_read(inputs, "matrix", args.matrix), tol)
    result = {
        "tag": classify_spectrum(sys_).tag,
        "clusters": _cluster_payload(sys_),
        "psi": sys_.psi,
        "phi": sys_.phi,
    }
    return inputs, result, verify_biorthonormality(sys_, tol)


def cmd_eta(args, tol: Tolerance) -> Outcome:
    inputs: dict = {}
    h = _read(inputs, "matrix", args.matrix)
    flat = None
    if args.signs is not None:
        try:
            # an empty value is the empty list, for a spectrum with no real
            # eigenvector
            flat = [int(s) for s in args.signs.split(",")] if args.signs else []
        except ValueError as exc:
            raise UsageError(f"--signs must be comma-separated integers: {exc}") from exc
    sys_ = decompose(h, tol)
    if flat is None:
        signs = SignAssignment.uniform(sys_)
    else:
        try:
            signs = SignAssignment.from_flat(sys_, flat)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    eta = canonical_eta(sys_, signs)
    result = {
        "eta": eta.matrix,
        "eta_inverse": eta.inverse,
        "signs": list(signs.flat),
        "clusters": _cluster_payload(sys_),
    }
    return inputs, result, (verify_pseudo_hermiticity(h, eta, tol),)


def cmd_factor(args, tol: Tolerance) -> Outcome:
    inputs: dict = {}
    sys_ = decompose(_read(inputs, "matrix", args.matrix), tol)
    fact = self_factorization(sys_, tol)
    result = {"clusters": _cluster_payload(sys_), **_factorization_payload(fact)}
    return inputs, result, fact.checks


def cmd_intertwine(args, tol: Tolerance) -> Outcome:
    inputs: dict = {}
    h1 = _read(inputs, "matrix1", args.matrix1)
    h2 = _read(inputs, "matrix2", args.matrix2)
    sys1, sys2 = decompose(h1, tol), decompose(h2, tol)
    fact = canonical_factorization(sys1, sys2, tol)
    wit = witten_index(from_factorization(fact), tol)
    result = {**_factorization_payload(fact), "witten": _witten_payload(wit)}
    return inputs, result, fact.checks


def _assemble_from_args(args, tol: Tolerance):
    """Read D and the metric files given, then assemble the graded system
    (a metric not given is the identity); returns (inputs, system)."""
    inputs: dict = {}
    d = _read(inputs, "d_matrix", args.d_matrix, square=False)
    dims = {"eta_plus": d.shape[1], "eta_minus": d.shape[0]}
    given = {
        key: _read(inputs, key, getattr(args, key))
        for key in dims
        if getattr(args, key) is not None
    }
    # shapes first: a metric that cannot fit D is a usage error, whatever it holds
    if any(len(m) != dims[key] for key, m in given.items()):
        found = tuple(len(given[key]) if key in given else dim for key, dim in dims.items())
        raise UsageError(f"metric dimensions {found} do not fit D of shape {d.shape}")
    eta_plus, eta_minus = (
        EtaOperator.from_matrix(given[key], tol) if key in given else EtaOperator.identity(dim)
        for key, dim in dims.items()
    )
    return inputs, assemble(d, eta_plus, eta_minus)


def cmd_psusy(args, tol: Tolerance) -> Outcome:
    inputs, psys = _assemble_from_args(args, tol)
    result = {"h_plus": psys.h_plus, "h_minus": psys.h_minus, "d_sharp": psys.d_sharp}
    return inputs, result, ()


def cmd_witten(args, tol: Tolerance) -> Outcome:
    inputs, psys = _assemble_from_args(args, tol)
    wit = witten_index(psys, tol)
    return inputs, _witten_payload(wit), wit.checks


def cmd_twolevel(args, tol: Tolerance) -> Outcome:
    inputs = {"a": complex_pair(args.a), "b": complex_pair(args.b), "c": complex_pair(args.c)}
    params = TwoLevelParams.from_coefficients(args.a, args.b, args.c, tol)
    fact = two_level_factorization(params, tol)
    sys_ = fact.intertwiner.pairing.system1  # the closed-form system
    result = {
        "e": complex_pair(params.e),
        "n": complex_pair(params.n),
        "determinant": complex_pair(params.determinant()),
        "swapped": params.swapped,
        "clusters": _cluster_payload(sys_),
        "psi": sys_.psi,
        "phi": sys_.phi,
        **_factorization_payload(fact),
    }
    return inputs, result, verify_biorthonormality(sys_, tol) + fact.checks


def cmd_demo(args, tol: Tolerance) -> Outcome:
    inputs = {"which": args.which, "omega": args.omega}
    run = oscillator_demo if args.which == "oscillator" else spin_intertwine_demo
    try:
        demo = run(args.omega, tol)
    except ValueError as exc:  # omega outside the demo's OMEGA_RANGE
        raise UsageError(f"--omega: {exc}") from exc
    if args.which == "oscillator":
        result = {
            "hamiltonian": demo.hamiltonian,
            "psi1": vector_payload(demo.psi1),
            "psi2": vector_payload(demo.psi2),
            "phi1": vector_payload(demo.phi1),
            "phi2": vector_payload(demo.phi2),
            "eta1": demo.eta1,
            "eta1_inv": demo.eta1_inv,
            "eta2": demo.eta2,
            "l": demo.intertwiner,
            "l_sharp": demo.intertwiner_sharp,
        }
    else:
        result = {
            "oscillator_h": demo.oscillator_h,
            "spin_h": demo.spin_h,
            "l": demo.intertwiner,
            "l_sharp": demo.intertwiner_sharp,
        }
    return inputs, result, demo.checks


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
    """Run the command's handler, which returns (inputs, result, checks), and
    build its report around them."""
    inputs, result, checks = _HANDLERS[args.command](args, tol)
    checks = [check_payload(c) for c in checks]
    return {
        "command": args.command,
        "inputs": inputs,
        "tolerance": {"rtol": tol.rtol, "atol": tol.atol, "cond_max": tol.cond_max},
        "result": result,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _pretty_lines(key: str, value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        value = matrix_payload(value)
    if isinstance(value, dict) and {"rows", "cols", "entries"} <= set(value):
        lines = [f"{pad}{key} ({value['rows']}x{value['cols']}):"]
        for row in value["entries"]:
            cells = (f"{re:.12g}{im:+.12g}j" for re, im in row)
            lines.append(pad + "  " + "  ".join(f"{cell:>24}" for cell in cells))
        return lines
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k in sorted(value):
            lines.extend(_pretty_lines(k, value[k], indent + 1))
        return lines
    if isinstance(value, list):
        return [f"{pad}{key}: {json.dumps(value)}"]
    return [f"{pad}{key}: {value}"]


def _matrix_chunks(m: np.ndarray, pad: str, out: list) -> None:
    """Append `matrix_payload(m)`'s JSON text, one chunk per row, for a
    non-empty C-contiguous complex matrix with finite entries."""
    rows, cols = m.shape
    inner = pad + "  "
    row_pad, pair_pad, value_pad = inner + "  ", inner + "    ", inner + "      "
    pair = f"[{value_pad}%r,{value_pad}%r{pair_pad}]"
    row = "[" + pair_pad + ("," + pair_pad).join([pair] * cols) + row_pad + "]"
    out.append(f'{{{inner}"cols": {cols},{inner}"entries": [{row_pad}')
    for i, values in enumerate(m.view(float)):
        out.append(("," + row_pad if i else "") + row % tuple(values.tolist()))
    out.append(f'{inner}],{inner}"rows": {rows}{pad}}}')


def _json_text(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2, default=matrix_payload)`.

    json writes each non-empty, finite 2-d array as a placeholder string;
    `_matrix_chunks` then writes the held array, row by row, in its place.
    If a string or key of the report matches the placeholder's text, the
    placeholders cannot be told apart, and json writes every array itself.
    """
    held: list[np.ndarray] = []

    def hold(value):
        if isinstance(value, np.ndarray):
            m = np.ascontiguousarray(value, dtype=complex)
            if m.ndim == 2 and m.size and np.isfinite(m).all():
                held.append(m)
                return "\x00"
        return matrix_payload(value)

    # json writes the placeholder "\x00" as "\u0000"
    parts = json.dumps(report, sort_keys=True, indent=2, default=hold).split('"\\u0000"')
    if len(parts) != len(held) + 1:
        return json.dumps(report, sort_keys=True, indent=2, default=matrix_payload)
    out = [parts[0]]
    for m, before, after in zip(held, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        _matrix_chunks(m, "\n" + " " * (len(line) - len(line.lstrip(" "))), out)
        out.append(after)
    return "".join(out)


def emit_report(report: dict, pretty: bool = False) -> str:
    """Render a report: byte-stable JSON, exactly
    `json.dumps(report, sort_keys=True, indent=2, default=matrix_payload)`,
    or aligned tables with --pretty."""
    if not pretty:
        return _json_text(report)
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
        report = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
        }
    try:
        print(emit_report(report, args.pretty))
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at exit does not fail again (Python's signal docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
