"""Tests for the package namespace."""

import eigenclose


def test_all_names_exist_once():
    names = eigenclose.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(eigenclose, name)]
    assert not missing
