"""Tests for the package namespace."""

import eigenclose


def test_all_names_exist_once():
    names = eigenclose.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(eigenclose, name)]
    assert not missing


def test_unchecked_kernels_are_not_exported():
    # these read the lower triangle of a matrix they trust to be exactly
    # symmetric, so outside input reaches them only through TrialForms
    assert "kernel_split" not in eigenclose.__all__
    assert "sym_generalized_eigvals" not in eigenclose.__all__
    assert "cholesky_spd" in eigenclose.__all__
