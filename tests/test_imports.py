"""Every name a gordon module imports is used in that module, none is scipy,
no gordon module reads the environment, only gordon.grid names a stencil, and
every top-level name gordon defines is used by gordon or the benchmark."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gordon"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((SRC.parent.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    """scipy is a test oracle only; an import inside a function counts too."""
    tree = ast.parse(path.read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def environment_reads(source: str) -> list:
    """Lines that name environ or getenv: os.environ, os.getenv, or either imported bare."""
    names = {"environ", "getenv"}
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in names
                  or isinstance(n, ast.Name) and n.id in names
                  or isinstance(n, ast.ImportFrom) and any(a.name in names for a in n.names))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_read(path):
    """A run's verdict depends on its arguments alone, never on a variable it inherits."""
    assert environment_reads(path.read_text()) == []


def test_guard_sees_an_environment_read():
    source = "import os\nos.environ.get('A')\nos.getenv('B')\nfrom os import environ as e, getenv\n"
    assert environment_reads(source) == [2, 3, 4]


def test_gordon_loads_no_scipy():
    names = ", ".join(f"gordon.{p.stem}" for p in MODULES if p.stem != "__init__")
    code = f"import sys, {names}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


STENCILS = {"laplacian", "partial_x", "partial_y", "partials", "wirtinger"}


def stencil_lookups(source: str) -> list:
    """The stencil names a module imports or reads off `grid`: each a way around grid.SECOND_ORDER."""
    tree = ast.parse(source)
    found = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
    found += [n.attr for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "grid"]
    return sorted(name for name in found if name in STENCILS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "grid"], ids=lambda p: p.name)
def test_stencils_only_through_the_seam(path):
    """Only gordon.grid names a stencil; the check kinds take theirs from the stencil object they are given."""
    assert stencil_lookups(path.read_text()) == []


def test_guard_sees_a_stencil_lookup():
    source = "from .grid import SECOND_ORDER, laplacian as lap\nfrom . import grid\ngrid.partial_x(f)\nst.wirtinger(u)\n"
    assert stencil_lookups(source) == ["laplacian", "partial_x"]


def unused_definitions(defining: dict, using: dict) -> list:
    """The top-level names defined in `defining` that no other top-level
    statement of `defining` or `using` names; both map a label to a source.

    A bare name that is not assigned to names it, and so does an attribute
    (`families.scalar_callable`); the match is by name, not by binding.
    """
    defined, named = [], []
    for label, source in {**using, **defining}.items():
        for i, stmt in enumerate(ast.parse(source).body):
            named.append(((label, i), {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                                       and not isinstance(n.ctx, ast.Store)}
                          | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}))
            if label not in defining:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stmt.name, (label, i)))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(t.id, (label, i)) for t in targets if isinstance(t, ast.Name)]
    return sorted(name for name, where in defined
                  if not any(name in names for at, names in named if at != where))


# each name here is defined in gordon and used by no gordon module or benchmark
UNUSED_ON_PURPOSE = {
    "closed_form_w_tanh": "ROADMAP item 4 gates it in c4 or deletes it",
    "assemble_tan_family": "ROADMAP item 4 gates it in c1 or deletes it",
    "make_grid": "the tests' grid constructor",
}


def test_no_dead_definitions():
    read = lambda paths: {str(p): p.read_text() for p in paths}
    assert unused_definitions(read(MODULES), read(PERFBENCH)) == sorted(UNUSED_ON_PURPOSE)


def test_guard_sees_a_dead_definition():
    defining = {"a": "X = 1\nY: int = 2\nclass C:\n    pass\ndef f():\n    return f() + X\n"
                     "def g():\n    return C()\n",
                "b": "def h():\n    pass\n"}
    assert unused_definitions(defining, {"use": "import a\na.g(Y)\n"}) == ["f", "h"]
