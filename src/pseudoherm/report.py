"""JSON payload helpers: the matrix file schema and report fragments.

Matrices travel as {"rows": n, "cols": m, "entries": [[[re, im], ...], ...]}
with row-major entries and [re, im] pairs for complex numbers. Emission uses
Python's shortest-round-trip float printing, so a matrix written into a
report re-parses to the identical double-precision value.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import UsageError
from .linalg import ResidualCheck

__all__ = [
    "complex_pair",
    "matrix_payload",
    "vector_payload",
    "matrix_from_payload",
    "parse_matrix_file",
    "check_payload",
]


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_payload(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [
            [[re, im] for re, im in zip(row_re, row_im)]
            for row_re, row_im in zip(m.real.tolist(), m.imag.tolist())
        ],
    }


def vector_payload(v: np.ndarray) -> list[list[float]]:
    v = np.asarray(v, dtype=complex).ravel()
    return [[re, im] for re, im in zip(v.real.tolist(), v.imag.tolist())]


def _all_of(items: list, kinds) -> bool:
    """isinstance(item, kinds) for every item, bool excluded (it is an int
    subclass but not a JSON number); one test per distinct type."""
    return all(
        issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, items))
    )


def matrix_from_payload(payload) -> np.ndarray:
    """Strict inverse of `matrix_payload`; raises UsageError on bad shape.

    Dimensions must be JSON integers and entries [re, im] pairs of JSON
    numbers; strings, booleans and fractional dimensions are rejected. The
    numbers are converted in one array and viewed as complex, which keeps
    every bit (signed zeros included).
    """
    if not isinstance(payload, dict):
        raise UsageError("matrix payload must be a JSON object")
    try:
        rows, cols = payload["rows"], payload["cols"]
        entries = payload["entries"]
    except KeyError as exc:
        raise UsageError(f"matrix payload missing rows/cols/entries: {exc}") from exc
    if not _all_of([rows, cols], int):
        raise UsageError("matrix dimensions must be integers")
    if rows <= 0 or cols <= 0:
        raise UsageError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows:
        raise UsageError(f"expected {rows} rows of entries")
    if not _all_of(entries, list) or set(map(len, entries)) != {cols}:
        raise UsageError(f"every row must be a list of {cols} entries")
    pairs = list(chain.from_iterable(entries))
    if not _all_of(pairs, list) or set(map(len, pairs)) != {2}:
        raise UsageError("every entry must be a [re, im] pair")
    numbers = list(chain.from_iterable(pairs))
    if not _all_of(numbers, (int, float)):
        raise UsageError("every entry must be a [re, im] pair of numbers")
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError as exc:
        raise UsageError(f"matrix entry out of double range: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise UsageError("matrix entries must be finite")
    return flat.view(complex).reshape(rows, cols)


def parse_matrix_file(path) -> tuple[np.ndarray, dict]:
    """The matrix in a JSON file and the digest of the bytes it was parsed
    from, `{"path": path, "sha256": ...}` with `path` as given.

    The file is read once, so a pipe (/dev/stdin, a shell's <(...)) works.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    digest = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_payload(payload), digest


def check_payload(check: ResidualCheck) -> dict:
    return {
        "name": check.name,
        "residual": float(check.value),
        "threshold": float(check.threshold),
        "passed": bool(check.passed),
    }
