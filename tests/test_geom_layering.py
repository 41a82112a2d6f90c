"""``build`` constructs geometries on top of ``geom``, so ``geom`` imports
nothing from ``build``: not at module level, and not late, inside a
function, where an import would hide the cycle."""

import ast
from pathlib import Path

import geomforge

GEOM = Path(geomforge.__file__).parent / "geom.py"


def _imported_modules(tree):
    """The (module, line) pairs of the import statements at any depth, each
    module named by its first component below the package: ``from .
    import build``, ``from .build import x`` and ``import geomforge.build``
    all give ``build``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        for name in names:
            found.add((name.removeprefix("geomforge.").split(".")[0], node.lineno))
    return found


def test_geom_imports_nothing_from_build():
    imports = _imported_modules(ast.parse(GEOM.read_text(encoding="utf-8")))
    assert [line for module, line in imports if module == "build"] == []
    # the walk does find geom's imports, the late one from perm included
    assert {"graphs", "perm"} <= {module for module, _ in imports}
    assert len([line for module, line in imports if module == "perm"]) == 2
