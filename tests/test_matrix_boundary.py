"""numpy loads with ``geomforge.gf2``, so ``MatrixGFp`` may be named only
where a matrix is the answer: in ``gf2`` itself, in ``natrep.relation_matrix``
(the public relation matrix), in ``cover._abelian_rank`` (H1 ranks of
exponent-sum matrices) and in ``cli._cmd_bench``.  Everything else, the O3
split included, computes on Python integers."""

import ast
from pathlib import Path

import geomforge

SOURCE = Path(geomforge.__file__).parent
ALLOWED = {
    ("natrep.py", "relation_matrix"),
    ("cover.py", "_abelian_rank"),
    ("cli.py", "_cmd_bench"),
}


def _matrix_uses(tree):
    """(enclosing def or class path, line) of every expression naming
    ``MatrixGFp``; imports are not expressions and are not listed."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "MatrixGFp") or (
                isinstance(child, ast.Attribute) and child.attr == "MatrixGFp"
            ):
                found.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


def test_matrix_is_named_only_where_a_matrix_is_built():
    seen = set()
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "gf2.py":
            continue
        for scope, line in _matrix_uses(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add((path.name, scope))
            if (path.name, scope) not in ALLOWED:
                outside.append(f"{path.name}:{line} in {scope or 'module scope'}")
    assert not outside, outside
    # the walk does find the uses at the boundary
    assert seen == ALLOWED
