import ast
import pathlib

import driftboost

PACKAGE = pathlib.Path(driftboost.__file__).parent


def test_no_assert_statements():
    """Library invariants raise exceptions: `assert` vanishes under
    python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
