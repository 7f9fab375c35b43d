"""The package namespace re-exports each module's public names, unchanged."""

import importlib

import pytest

import stieltjes

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
