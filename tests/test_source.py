from __future__ import annotations

import ast
from pathlib import Path

import prodcolor


def test_no_check_depends_on_assert():
    # python -O strips assert statements, so a library check written as one
    # silently disappears; checks raise instead
    sources = sorted(Path(prodcolor.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
