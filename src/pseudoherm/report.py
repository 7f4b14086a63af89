"""JSON payload helpers: the matrix file schema and report fragments.

Matrices travel as {"rows": n, "cols": m, "entries": [[[re, im], ...], ...]}
with row-major entries and [re, im] pairs for complex numbers. Emission uses
Python's shortest-round-trip float printing, so a matrix written into a
report re-parses to the identical double-precision value.
"""

from __future__ import annotations

import hashlib
import json
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
    "file_digest",
]


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_payload(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[complex_pair(z) for z in row] for row in m],
    }


def vector_payload(v: np.ndarray) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(v, dtype=complex).ravel()]


def _is_number(x) -> bool:
    """JSON number test; bool is an int subclass but not a number here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_payload(payload) -> np.ndarray:
    """Strict inverse of `matrix_payload`; raises UsageError on bad shape.

    Dimensions must be JSON integers and entries [re, im] pairs of JSON
    numbers; strings, booleans and fractional dimensions are rejected.
    """
    if not isinstance(payload, dict):
        raise UsageError("matrix payload must be a JSON object")
    try:
        rows, cols = payload["rows"], payload["cols"]
        entries = payload["entries"]
    except KeyError as exc:
        raise UsageError(f"matrix payload missing rows/cols/entries: {exc}") from exc
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (rows, cols)):
        raise UsageError("matrix dimensions must be integers")
    if rows <= 0 or cols <= 0:
        raise UsageError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows:
        raise UsageError(f"expected {rows} rows of entries")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise UsageError(f"row {i} does not have {cols} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_number(x) for x in pair)
            ):
                raise UsageError(f"entry ({i},{j}) is not a [re, im] pair")
            out[i, j] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(out)):
        raise UsageError("matrix entries must be finite")
    return out


def parse_matrix_file(path) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_payload(payload)


def check_payload(check: ResidualCheck) -> dict:
    return {
        "name": check.name,
        "residual": float(check.value),
        "threshold": float(check.threshold),
        "passed": bool(check.passed),
    }


def file_digest(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
