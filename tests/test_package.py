"""Package layout: submodule names and the public export lists."""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import solenoidlab


def test_entropy_submodule_is_not_shadowed():
    import solenoidlab.entropy as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.entropy_profile)


def test_every_export_resolves():
    modules = [solenoidlab] + [
        importlib.import_module(f"solenoidlab.{info.name}")
        for info in pkgutil.iter_modules(solenoidlab.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 10
    assert stale == []


def test_perfbench_traced_names_resolve():
    # the tracer rebinds each (module, attribute) of TRACED and fails on a
    # missing one; Class.method is looked up in the class's own dict
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, *_ in tracing.TRACED:
        owner = vars(importlib.import_module(f"solenoidlab.{mod_name}"))
        *cls, name = attr.split(".")
        if cls:
            owner = vars(owner[cls[0]]) if cls[0] in owner else {}
        if name not in owner:
            missing.append(f"{mod_name}.{attr}")
    assert len(tracing.TRACED) > 10
    assert missing == []
