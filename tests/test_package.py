"""Package layout: submodule names and the public export lists."""

import importlib
import pkgutil
import types

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
