"""The exported names of the package and of every module that declares __all__."""

import importlib

import pytest

MODULES = ["morphreduce", "morphreduce.activesubspace", "morphreduce.campaign",
           "morphreduce.dmd", "morphreduce.ffd", "morphreduce.geometry",
           "morphreduce.rigidbody", "morphreduce.surrogate"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
