"""The shape of the public API: what the package exports, and its tolerance
policy (every tolerance is a constant of ``consensuslab.tolerances``, read
where it is checked, so no public callable takes one as an argument)."""

import importlib
import inspect
import pkgutil

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
    checked, offenders = set(), []
    for name, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked.add(name)
        offenders += [f"{name}({p}=)" for p in params if p == "tol" or p.endswith("_tol")]
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
