"""The README's Python examples run, and each expression that carries a
trailing comment evaluates to a value whose repr is that comment."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def trailing_comments(source: str) -> dict[int, str]:
    """Comment text (without the '#') by line number."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def test_python_blocks_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    compared = 0
    for source in blocks:
        comments = trailing_comments(source)
        namespace: dict = {}
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
                code = compile(ast.Expression(stmt.value), README.name, "eval")
                value = eval(code, namespace)
                assert repr(value) == comments[stmt.end_lineno], ast.unparse(stmt)
                compared += 1
            else:
                exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    assert compared > 0
