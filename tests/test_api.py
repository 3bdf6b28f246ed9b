"""The shape of the public API: what the package exports, that every export
has a caller, and its tolerance policy (every tolerance is a constant of
``consensuslab.tolerances``, read where it is checked, so no public callable
takes one as an argument).  Nor does one take a ``method``: the chain, not
the caller, picks the route."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import consensuslab

# the command-line entry points are not library API
_NOT_LIBRARY = ("cli", "__main__")


def _public_callables():
    """(name, callable) for every exported callable and every method of an
    exported class, constructors included."""
    for name in consensuslab.__all__:
        obj = getattr(consensuslab, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj):
                if inspect.isfunction(member) or inspect.ismethod(member):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    # a report's constructor takes the route that made it as a field
    reports = {name for name in consensuslab.__all__
               if dataclasses.is_dataclass(getattr(consensuslab, name))}
    checked, offenders = set(), []
    for name, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked.add(name)
        offenders += [f"{name}({p}=)" for p in params if p == "tol" or p.endswith("_tol")]
        if name.split(".")[0] not in reports:
            offenders += [f"{name}({p}=)" for p in params if p == "method"]
    assert {"StochasticMatrix", "StochasticMatrix.stationary", "hitting_times",
            "delta_oracle", "JPropertyReport.ok", "build_formation_spec"} <= checked
    assert offenders == []


def _library_modules():
    """Every package module but the command line and ``tolerances``, whose
    constants are read through the module where they are checked."""
    for info in pkgutil.iter_modules(consensuslab.__path__):
        if info.name not in _NOT_LIBRARY + ("tolerances",):
            yield importlib.import_module(f"consensuslab.{info.name}")


def test_package_exports_every_public_name():
    # the package __all__ is __version__ and each library module's __all__,
    # each name once
    names = ["__version__"] + [n for m in _library_modules() for n in m.__all__]
    assert consensuslab.__all__[0] == "__version__"
    assert sorted(consensuslab.__all__) == sorted(names)
    assert len(set(names)) == len(names)


def test_every_exported_name_is_defined_in_its_module():
    # so a star import cannot re-export a name another module defines
    foreign = [f"{m.__name__}.{name}" for m in _library_modules() for name in m.__all__
               if getattr(m, name).__module__ != m.__name__]
    assert foreign == []


def test_covariance_recursion_lives_in_one_module():
    # the oracle and the probe read the recursion through disagreement's
    # private helpers; no other module binds them
    modules = [*_library_modules(), importlib.import_module("consensuslab.cli")]
    binders = [f"{m.__name__}.{name}" for m in modules for name in ("_compose", "_recursion_terms")
               if m.__name__ != "consensuslab.disagreement" and hasattr(m, name)]
    assert binders == []


def _references(node) -> set[str]:
    """The identifiers a piece of code reads: its ``Name`` ids and
    ``Attribute`` attrs.  Docstrings are string constants, so they add none."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def test_every_exported_name_has_a_caller(monkeypatch):
    # a public name is reached from the code of cli.py, named in README.md,
    # or wrapped by the benchmark tracer; names are followed through the
    # package's top-level functions, classes and assignments
    src = pathlib.Path(consensuslab.__file__).parent
    defined: dict[str, set[str]] = {}
    for path in src.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(stmt.name, set()).update(_references(stmt))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, set()).update(_references(stmt.value))

    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracer = importlib.import_module("tracer")
    todo = _references(ast.parse((src / "cli.py").read_text()))
    todo |= set(re.findall(r"\w+", (root / "README.md").read_text()))
    todo |= {part for _, path, _ in tracer.WRAPPED for part in path.split(".")}
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= defined.get(name, set()) - reached
    assert [name for name in consensuslab.__all__ if name not in reached] == []
