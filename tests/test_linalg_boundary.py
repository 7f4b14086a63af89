"""numpy.linalg is reached only through `pseudoherm.linalg`: every
factorization, inverse and solve of the package runs behind one of its
functions, so a hook or count placed there sees all of them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudoherm"
MODULES = sorted(m for m in PACKAGE.glob("*.py") if m.name != "linalg.py")


def numpy_linalg_uses(tree: ast.AST) -> list[str]:
    """`line: source` for each use of numpy.linalg: an attribute `linalg` of
    the names `np` or `numpy`, or an import of numpy.linalg or from it."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found = (
                node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Import):
            found = any(a.name.startswith("numpy.linalg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = module.startswith("numpy.linalg") or (
                module == "numpy" and any(a.name == "linalg" for a in node.names)
            )
        else:
            continue
        if found:
            uses.append(f"{node.lineno}: {ast.unparse(node)}")
    return uses


def test_modules_are_found():
    assert {"metric.py", "spectral.py", "susy.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.stem)
def test_no_numpy_linalg_outside_linalg(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    assert numpy_linalg_uses(tree) == []


def test_a_numpy_linalg_use_is_found():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import inv\n"
        "x = np.linalg.inv(a)\n"
        "y = numpy.linalg.norm(a)\n"
        "z = np.linalgx + self.linalg.inv(a)\n"
    )
    assert numpy_linalg_uses(tree) == [
        "2: import numpy.linalg",
        "3: from numpy import linalg",
        "4: from numpy.linalg import inv",
        "5: np.linalg",
        "6: numpy.linalg",
    ]
