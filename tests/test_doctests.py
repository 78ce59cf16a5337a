"""The examples in the docstrings of every whitdim module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import whitdim

#: ``whitdim.__main__`` runs the CLI when imported, so it has no examples.
MODULES = ["whitdim"] + sorted(info.name for info in pkgutil.iter_modules(
    whitdim.__path__, "whitdim.") if info.name != "whitdim.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    # these modules have examples, so finding none means they were skipped
    if name in ("whitdim.lattice", "whitdim.cover"):
        assert result.attempted >= 1
