"""The package's modules form layers: each imports only earlier ones.

The scan reads every import statement of every module, those inside
functions included, so a deferred import cannot hide an upward edge.
The same scan keeps numpy, dataclasses and the exhaustive search off the
modules that need none of them, and one subprocess per command kind
checks what a command-line process really loads.  A name scan finds
public definitions that nothing in the package uses, and a class scan
keeps the building of records in their one base.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


def absolute_imports(path: Path) -> set[str]:
    "Top-level names of the absolute imports of a source file, at any depth."
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


# numpy serves the census's key arrays and permutations, and verify's
# seeded draws; every other module runs on plain Python
NUMPY_USERS = {"oracle", "verify"}


@pytest.mark.parametrize("module", ORDER)
def test_only_the_census_and_verify_import_numpy(module):
    imports = absolute_imports(PACKAGE / f"{module}.py")
    assert ("numpy" in imports) == (module in NUMPY_USERS)


@pytest.mark.parametrize("module", ORDER)
def test_no_module_imports_dataclasses(module):
    # its import pulls in inspect, ast and dis: milliseconds per process
    assert "dataclasses" not in absolute_imports(PACKAGE / f"{module}.py")


@pytest.mark.parametrize("module", ORDER)
def test_only_verify_imports_the_exhaustive_search(module):
    imports = package_imports(PACKAGE / f"{module}.py")
    assert ("isometry" in imports) == (module == "verify")


# the records that write their own __init__: a default field, keyword
# fields and a value check; every other record takes its field values by
# position through combinatorics._Record's
OWN_INIT = {"BlockLabel", "Family", "CentralizerReport"}


def test_records_are_built_by_the_one_base():
    classes = [node for p in sorted(PACKAGE.glob("*.py"))
               for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.ClassDef)]
    bases = {c.name: {ast.unparse(b).split(".")[-1] for b in c.bases}
             for c in classes}
    records = {"_Record"}
    while more := {name for name, b in bases.items() if b & records} - records:
        records |= more
    records.remove("_Record")
    assert len(records) == 8
    own = {c.name for c in classes if c.name in records and any(
        isinstance(m, ast.FunctionDef) and m.name == "__init__"
        for m in c.body)}
    assert own == OWN_INIT


def named(root) -> Counter:
    "How often each identifier is named under an AST node, imports included."
    out = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def test_every_public_name_has_a_caller_in_the_package():
    # no public function, class or method of a public class that only
    # tests use: each is named somewhere in the package outside its own
    # definition (by name alone, so a method counts as used wherever its
    # name is)
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    used = sum((named(t) for t in trees), Counter())
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    defs += [m for c in defs if isinstance(c, ast.ClassDef) for m in c.body
             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    assert len(defs) > 100
    unused = sorted(d.name for d in defs if used[d.name] == named(d)[d.name])
    assert not unused, f"named only where defined: {unused}"


# ----------------------------------------------------------------------
# the cold path: what one command-line process loads

# runs cli.main on its arguments with stdout discarded, then writes the
# exit code and the loaded module names to stderr as one JSON line
PROBE = """import json, os, sys
from char2orbits.cli import main
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout = stdout
sys.stderr.write(json.dumps([code, sorted(sys.modules)]))
"""
COLD = {"dataclasses", "inspect", "csv", "char2orbits.isometry"}
CLASSIFIERS = {"char2orbits.form_modules", "char2orbits.odd_split"}
# numpy, which the so-even census and verify need, loads inspect itself;
# classify reads a zero grid, or malformed JSON where it must exit 2
COMMANDS = [
    (["orbits", "--type", "sp", "--n", "2"], COLD, 0),
    (["orbits", "--type", "so-odd", "--n", "2", "--q", "4", "--format", "csv"],
     COLD - {"csv"}, 0),
    (["orbits", "--type", "so-even", "--n", "1", "--q", "2"],
     COLD - {"inspect"}, 0),
    (["centralizer", "--type", "sp", "--label", "(2)^2_1:d"], COLD, 0),
    (["normal-form", "--type", "sp", "--label", "(2)^2_1:d"],
     COLD | {"char2orbits.odd_split"}, 0),
    (["normal-form", "--type", "so-odd", "--label", "m=1; (1)^2_1:d"], COLD, 0),
    (["classify", "--type", "sp", "--matrix"], COLD, 0),
    (["classify", "--type", "so-odd", "--q", "4", "--matrix"], COLD, 0),
    (["classify", "--matrix"], COLD | CLASSIFIERS, 2),
    (["verify", "--suite", "combinatorics"], {"dataclasses", "csv"}, 0),
]


@pytest.mark.parametrize("argv,absent,exit_code", COMMANDS,
                         ids=[" ".join(a[:3]) for a, *_ in COMMANDS])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, absent,
                                              exit_code):
    if argv[0] == "classify":
        d = 5 if "so-odd" in argv else 4
        grid = tmp_path / "matrix.txt"
        grid.write_text('{"kind": "sp", "n": 1,' if exit_code else
                        "\n".join(" ".join("0" * d) for _ in range(d)))
        argv = argv + [str(grid)]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", PROBE] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(done.stderr.splitlines()[-1])
    assert code == exit_code
    assert not absent & set(modules), sorted(absent & set(modules))
