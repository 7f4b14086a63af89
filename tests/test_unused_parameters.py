"""Every parameter of every function in the package is read in its body:
an option that nothing reads promises a control the caller does not have."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudoherm"
MODULES = sorted(PACKAGE.glob("*.py"))


def unread_parameters(tree: ast.AST) -> list[str]:
    """`function.parameter` for each parameter, other than self and cls, that
    no load of its name in the function's body (nested scopes included) reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}.{p.arg}"
            for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return unread


def test_modules_are_found():
    assert {"cli.py", "metric.py", "spectral.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.stem)
def test_every_parameter_is_read(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    assert unread_parameters(tree) == []


def test_an_unread_parameter_is_found():
    tree = ast.parse(
        "def f(a, b, *args, c, **kw):\n"
        "    def g(x):\n"
        "        return b + x\n"
        "    return g(a) + len(kw)\n"
        "class C:\n"
        "    def m(self, d):\n"
        "        return self\n"
    )
    assert unread_parameters(tree) == ["f.args", "f.c", "m.d"]
