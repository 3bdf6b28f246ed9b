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


def test_package_exports_every_public_name():
    missing = {}
    for info in pkgutil.iter_modules(consensuslab.__path__):
        if info.name in _NOT_LIBRARY:
            continue
        module = importlib.import_module(f"consensuslab.{info.name}")
        names = set(getattr(module, "__all__", ())) - set(consensuslab.__all__)
        if names:
            missing[info.name] = sorted(names)
    assert missing == {}
