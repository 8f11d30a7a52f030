"""Every name a module of the package exports resolves, star imports included."""

import importlib
import pkgutil

import pytest

import multicolor

MODULES = sorted(m.name for m in pkgutil.iter_modules(multicolor.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"multicolor.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    exec(f"from multicolor.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from multicolor import *", namespace)
    assert {"run_one_shot", "replay_view", "verify", "to_schedule"} <= set(namespace)
