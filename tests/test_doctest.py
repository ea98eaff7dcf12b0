from __future__ import annotations

import doctest

import hornlog


def test_package_docstring_example_runs():
    failed, attempted = doctest.testmod(hornlog)
    assert attempted > 0
    assert failed == 0
