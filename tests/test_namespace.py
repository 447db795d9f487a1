import importlib
import inspect
import pkgutil

import juntalab


def test_package_names_are_the_union_of_the_module_lists():
    # the package re-exports each module's __all__ and nothing else; the
    # command line front end stays a module of its own
    modules = [m.name for m in pkgutil.iter_modules(juntalab.__path__) if m.name != "cli"]
    exported = set()
    for name in modules:
        exported |= set(importlib.import_module(f"juntalab.{name}").__all__)
    public = {
        name
        for name in dir(juntalab)
        if not name.startswith("_") and not inspect.ismodule(getattr(juntalab, name))
    }
    assert public == exported
