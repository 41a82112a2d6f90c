import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# pytest puts src on its own path (pyproject's pythonpath); the CLI runs in
# subprocesses need it too when the package is not installed
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from geomforge import build


@pytest.fixture(scope="session")
def p0():
    return build.petersen_geometry()


@pytest.fixture(scope="session")
def gq22():
    return build.symplectic_polar_space(2)


@pytest.fixture(scope="session")
def sp3():
    return build.symplectic_polar_space(3)


@pytest.fixture(scope="session")
def t0():
    return build.tilde_geometry(seed=42)


@pytest.fixture(scope="session")
def fano():
    return build.projective_geometry_2(3)
