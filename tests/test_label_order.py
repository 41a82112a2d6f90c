"""Element labels are ordered once, where they enter the library, and
everything derived keeps its source's order: ``label_key`` may be named
only in its own definition, in the constructors that take labels from
outside, and in ``amalgam_report``, whose reported flag order is public."""

import ast
from pathlib import Path

import geomforge

SOURCE = Path(geomforge.__file__).parent
ALLOWED = {
    ("perm.py", "label_key"),
    ("geom.py", "Geometry.__init__"),
    ("geom.py", "amalgam_report"),
    ("graphs.py", "Graph.__init__"),
    ("cover.py", "TriangleComplex.__post_init__"),
}


def _label_key_uses(tree):
    """(enclosing def or class path, line) of every expression naming
    ``label_key``; imports are not expressions and are not listed."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "label_key") or (
                isinstance(child, ast.Attribute) and child.attr == "label_key"
            ):
                found.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


def test_label_key_is_named_only_where_labels_enter():
    seen = set()
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for scope, line in _label_key_uses(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add((path.name, scope))
            if (path.name, scope) not in ALLOWED:
                outside.append(f"{path.name}:{line} in {scope or 'module scope'}")
    assert not outside, outside
    # the walk does find the uses at the boundary
    assert ("geom.py", "Geometry.__init__") in seen

