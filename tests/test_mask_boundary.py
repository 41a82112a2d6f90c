"""Flag walks run on pencil bit masks over canonical indices, a format
that stays inside ``geom``: the mask list ``Geometry._masks`` and the index
walker ``Geometry._walk`` may be named only in ``geom.py``.  Other modules
walk flags through ``walk_flags`` and the public checks, which hand out
labels."""

import ast
from pathlib import Path

import geomforge

SOURCE = Path(geomforge.__file__).parent
NAMES = {"_masks", "_walk"}


def _mask_uses(tree):
    """(name, line) of every expression naming the masks or the walker;
    the definitions themselves are not expressions and are not listed."""
    return [
        (node.attr if isinstance(node, ast.Attribute) else node.id, node.lineno)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in NAMES)
        or (isinstance(node, ast.Name) and node.id in NAMES)
    ]


def test_masks_are_named_only_in_geom():
    inside = set()
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for name, line in _mask_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "geom.py":
                inside.add(name)
            else:
                outside.append(f"{path.name}:{line} names {name}")
    assert not outside, outside
    # the walk does find the uses inside geom
    assert inside == NAMES
