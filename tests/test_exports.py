"""Every name each module exports through ``__all__`` resolves."""

import importlib

import pytest

import dualhash

MODULES = ["dualhash"] + [
    f"dualhash.{name}"
    for name in ("acceptance", "bounds", "cli", "cqstate", "gf2", "hashfam",
                 "simulator", "universality")
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_module_is_checked():
    import pkgutil

    found = {f"dualhash.{m.name}" for m in pkgutil.iter_modules(dualhash.__path__)}
    assert found | {"dualhash"} == set(MODULES)
