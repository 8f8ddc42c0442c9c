"""Run the executable examples embedded in docstrings."""

import doctest

import pytest

import repro
import repro.backend.tiers
import repro.bt.explain
import repro.stdlib


@pytest.mark.parametrize(
    "module",
    [repro, repro.backend.tiers, repro.stdlib],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, tests = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert failures == 0
    assert tests > 0
