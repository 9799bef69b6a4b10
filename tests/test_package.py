"""The package namespace is the union of the library modules' `__all__`."""

from __future__ import annotations

import lcmsim
from lcmsim import adversary, core, demons, execution, properties, robograms, sampling

MODULES = (adversary, core, demons, execution, properties, robograms, sampling)


def test_package_exports_exactly_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is listed by two modules"
    assert sorted(lcmsim.__all__) == sorted(names)
    assert len(lcmsim.__all__) == len(set(lcmsim.__all__))


def test_each_exported_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lcmsim, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_brings_every_exported_name():
    namespace: dict = {}
    exec("from lcmsim import *", namespace)
    assert set(lcmsim.__all__) <= set(namespace)
