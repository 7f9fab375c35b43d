"""The package namespace re-exports each module's public names, unchanged,
no module imports a name it never reads, and the benchmark's view of the
library still resolves."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import stieltjes
from stieltjes import QuadConfig

SOURCES = sorted(Path(stieltjes.__file__).parent.glob("*.py"))
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

MODULES = ("bellpoly", "core", "alteta", "quad", "specfun", "validate")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_is_exported_by_package(module_name):
    module = importlib.import_module(f"stieltjes.{module_name}")
    for name in module.__all__:
        assert name in stieltjes.__all__, name
        assert getattr(stieltjes, name) is getattr(module, name), name


def test_package_all_is_the_union_of_module_lists():
    names = {"__version__"}
    for module_name in MODULES:
        names.update(importlib.import_module(f"stieltjes.{module_name}").__all__)
    assert set(stieltjes.__all__) == names
    assert len(stieltjes.__all__) == len(set(stieltjes.__all__))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    """Every imported name is read somewhere in its module; a name listed in
    ``__all__`` counts as read.  ``from __future__`` and ``*`` re-exports are
    not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    module = "stieltjes" if path.stem == "__init__" else f"stieltjes.{path.stem}"
    read.update(importlib.import_module(module).__all__)
    assert sorted(imported - read) == []


def test_private_names_are_read():
    """Every private module-level function, class or constant is read in its
    own module or imported by another, so a helper left behind by a
    refactor fails."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    unread = []
    for stem, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for other in trees.values():
            for node in ast.walk(other):
                if isinstance(node, ast.ImportFrom) and node.level and node.module == stem:
                    read.update(a.name for a in node.names)
        private = {name for name in defined if name.startswith("_") and name[1] != "_"}
        unread += [f"{stem}.{name}" for name in sorted(private - read)]
    assert unread == []


def test_benchmark_names_and_call_forms_resolve(monkeypatch):
    """Every name the benchmark's tracer wraps exists, and the worker's call
    form of each route runs, with and without a QuadConfig.  The benchmark
    files are only read."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracer = importlib.import_module("tracer")
        worker = importlib.import_module("worker")
        for module_name, names in tracer._targets().items():
            module = importlib.import_module(module_name)
            assert [name for name in names if not callable(getattr(module, name, None))] == []
        for route in worker._FUNCTIONS:
            for cfg in (None, QuadConfig(target_tol=1e-8)):
                assert worker._call({"route": route, "n": 3, "u": 1.0}, cfg).converged, route
    finally:
        sys.modules.pop("worker", None)
        sys.modules.pop("tracer", None)
