"""The package's modules form layers: each imports only earlier ones.

The scan reads every import statement of every module, those inside
functions included, so a deferred import cannot hide an upward edge.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "char2orbits"
ORDER = ("finite_field", "combinatorics", "linalg", "centralizers",
         "classical", "isometry", "form_modules", "odd_split", "oracle",
         "verify", "cli")


def package_imports(path: Path) -> set[str]:
    "Names of the package modules a source file imports, at any depth."
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            out.update(n.split(".")[1] for n in names
                       if n and n.startswith("char2orbits."))
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_point_down(module):
    below = set(ORDER[:ORDER.index(module)])
    upward = package_imports(PACKAGE / f"{module}.py") - below
    assert not upward, f"{module} imports {sorted(upward)} from its layer or above"


# numpy serves the census's key arrays and permutations, and verify's
# seeded draws; every other module runs on plain Python
NUMPY_USERS = {"oracle", "verify"}


def imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [])
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            return True
    return False


@pytest.mark.parametrize("module", ORDER)
def test_only_the_census_and_verify_import_numpy(module):
    assert imports_numpy(PACKAGE / f"{module}.py") == (module in NUMPY_USERS)
