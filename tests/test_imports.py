"""Import structure of the package.

Every import in ``src/frobcrit`` sits at module level, no module but
``__init__`` imports a name it never uses, the intra-package imports form
no cycle, each module imports on its own, ``import frobcrit.cli`` loads
neither ``dataclasses`` nor ``inspect``, a ``check`` call under ``-S`` loads
none of ``argparse``, ``gettext``, ``typing``, ``warnings`` and
``contextlib``, and the names the
benchmark's tracer wraps (``perfbench/tracing.py``, read here, never
imported or changed) are still bound where it looks for them.  Every
public name is either used in the package or listed in README's Library
section.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import frobcrit

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frobcrit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    nested = []
    for func in ast.walk(_tree(name)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nested += [(getattr(func, "name", "<lambda>"), node.lineno)
                       for node in ast.walk(func)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    tree = _tree(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                             for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted((line, n) for n, line in imported.items() if n not in used) == []


def test_package_imports_form_no_cycle():
    edges = {}
    for name in MODULES:
        edges[name] = set()
        for node in _tree(name).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges[name].add(node.module)
                else:  # from . import x, y
                    edges[name] |= {a.name for a in node.names}
    state = {}

    def visit(name, path):
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", f"import cycle: {' -> '.join(path + [name])}"
        state[name] = "open"
        for dep in sorted(edges.get(name, ())):
            visit(dep, path + [name])
        state[name] = "done"

    for name in MODULES:
        visit(name, [])
    assert edges["criteria"] >= {"registry"} and "criteria" not in edges["registry"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import frobcrit.{name}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    # records are collections.namedtuples: a dataclass would pull dataclasses,
    # inspect and their imports onto every `frobcrit` start
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, frobcrit.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_check_loads_neither_argparse_nor_gettext():
    # the command line is read from one table: argparse would bring gettext at import, and
    # locale, shutil, bz2 and lzma at its first parse, onto every `frobcrit` call; records
    # are collections.namedtuples: typing.NamedTuple would bring typing, and with it
    # warnings and contextlib (site imports typing on some hosts, hence -S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    check = '{"embedding": {"builder": "levi", "params": {"g": "C2", "J": [1]}}, "J": [1], "p": 3}'
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; from frobcrit import cli; "
         "code = cli.main(['check', sys.argv[1]]); "
         "print(code, sorted({'argparse', 'gettext', 'typing', 'warnings', 'contextlib'} "
         "& set(sys.modules)), file=sys.stderr)",
         check], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")
    assert '\n  "schema": "frobcrit-report/1",\n' in proc.stdout


def _tracer_targets():
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(elt.elts[0].value, elt.elts[1].value) for elt in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_tracer_targets_still_resolve():
    targets = _tracer_targets()
    assert ("registry", "lookup_donkin") in targets
    assert ("charalg", "weyl_orbit") in targets
    assert ("charalg", "DominantCharacter.weights") in targets
    for module, path in targets:
        obj = importlib.import_module(f"frobcrit.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, path)


def _used_in_package():
    """Every bare name read in ``src/frobcrit``, but not inside the function
    or class that defines a name of that spelling, nor in ``__init__``."""
    used = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    for name in MODULES:
        walk(_tree(name), frozenset())
    return used


def test_every_public_name_is_used_in_the_package_or_listed_in_the_readme():
    library = re.search(r"\n## Library\n(.*?)\n## ", (ROOT / "README.md").read_text(), re.S)[1]
    listed = set(re.findall(r"^- `(\w+)`", library, re.M))
    used = _used_in_package()
    assert [n for n in frobcrit.__all__
            if n != "__version__" and n not in used and n not in listed] == []
