"""Tests for the dense symmetric kernel routines."""

import importlib
import importlib.machinery
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenclose.dirac1d import assemble_1d, uniform_mesh
from eigenclose.errors import (
    NegativeEigenvalueError,
    NonFiniteError,
    NotPositiveDefiniteError,
)
from eigenclose import linalg as linalg_mod
from eigenclose.enclosure import zm_eigen
from eigenclose.forms import TrialForms, _on_pattern, shifted_linear, shifted_square
from eigenclose.linalg import (
    cholesky_spd,
    check_symmetric,
    count_nonpositive,
    graded_eigvals,
    kernel_split,
    sym_generalized_eigvals,
    sym_reduce,
    symmetrize,
)
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh


def test_lapack_and_blas_are_the_wrappers_scipy_exports():
    # loaded from their files, they are the objects scipy.linalg.lapack
    # and scipy.linalg.blas export, so every call is scipy's own
    for name in ("dpotrf", "dsygst", "dsyevd", "dsytrd", "dstebz", "dstein"):
        assert getattr(linalg_mod.lapack, name) is getattr(scipy.linalg.lapack, name)
    assert linalg_mod.blas.dtrsm is scipy.linalg.blas.dtrsm


def test_an_extension_not_found_as_a_file_is_imported_through_scipy(monkeypatch):
    # a scipy whose layout differs: no file has a known extension suffix
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    for name in ("_flapack", "_fblas"):
        module = linalg_mod._scipy_linalg_extension(name)
        assert module is importlib.import_module(f"scipy.linalg.{name}")


def test_symmetrize_is_bitwise_symmetric():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 7))
    s = symmetrize(a)
    # exact equality, not allclose: the docstring promises bit symmetry
    assert np.array_equal(s, s.T)
    npt.assert_allclose(s, 0.5 * (a + a.T))


def test_symmetrize_preserves_longdouble():
    a = np.eye(3, dtype=np.longdouble)
    assert symmetrize(a).dtype == np.longdouble


def test_check_symmetric_rejects_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-8, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(a, "demo")


def test_check_symmetric_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        check_symmetric(np.zeros((2, 3)))


def test_cholesky_hand_example():
    # [[4,2],[2,5]] = L L^T with L = [[2,0],[1,2]]
    m = np.array([[4.0, 2.0], [2.0, 5.0]])
    L = cholesky_spd(m)
    npt.assert_allclose(L, np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-15)


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 6))
    m = symmetrize(b @ b.T + 6 * np.eye(6))
    npt.assert_allclose(cholesky_spd(m), np.linalg.cholesky(m), atol=1e-12)


def test_cholesky_flags_indefinite_with_pivot_info():
    m = np.array([[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(m)
    assert exc.value.index == 1
    assert exc.value.pivot == -2.0


def test_cholesky_flags_semidefinite():
    # rank-1 matrix: second pivot is exactly zero
    v = np.array([[1.0], [2.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_spd(v @ v.T)


def test_cholesky_keeps_relative_pivot_test():
    # LAPACK accepts any positive pivot; the relative test must still
    # refuse one at or below tol times the largest diagonal entry
    m = np.diag([1.0, 1e-12])
    scipy.linalg.cholesky(m, lower=True)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_spd(m, tol=1e-10)
    assert exc.value.index == 1
    npt.assert_allclose(exc.value.pivot, 1e-12, rtol=1e-15)


def _loop_cholesky(a, tol):
    """Column-by-column Cholesky with the relative pivot test, in Python.

    The reference for :func:`cholesky_spd`: returns ``(L, None)`` or
    ``(None, (index, pivot))`` for the first rejected pivot.
    """
    threshold = tol * max(np.max(np.diag(a)), 0.0)
    L = np.zeros_like(a)
    for j in range(a.shape[0]):
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= threshold:
            return None, (j, pivot)
        L[j, j] = np.sqrt(pivot)
        L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L, None


def test_cholesky_matches_loop_reference():
    """Same factor, and the same rejected (index, pivot), as the loop."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal((n, n))
        kind = rng.integers(3)
        if kind == 0:  # positive definite
            m = x @ x.T + 0.5 * np.eye(n)
        elif kind == 1:  # indefinite
            q, _ = np.linalg.qr(x)
            m = q @ np.diag(rng.uniform(-2.0, 2.0, n)) @ q.T
        else:  # rank r plus a ridge far below the relative threshold
            r = int(rng.integers(1, n))
            m = x[:, :r] @ x[:, :r].T + 1e-14 * np.eye(n)
        m = symmetrize(m)
        ref, rejected = _loop_cholesky(m, 1e-10)
        if rejected is None:
            npt.assert_allclose(cholesky_spd(m), ref, rtol=1e-12, atol=1e-12)
            continue
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_spd(m)
        assert exc.value.index == rejected[0]
        npt.assert_allclose(exc.value.pivot, rejected[1], rtol=0.0,
                            atol=1e-12 * np.max(np.abs(m)))


def test_cholesky_empty():
    assert cholesky_spd(np.zeros((0, 0))).shape == (0, 0)


def test_generalized_eig_diagonal_oracle():
    a = np.diag([3.0, -1.0, 2.0])
    b = np.eye(3)
    values = sym_generalized_eigvals(symmetrize(a), cholesky_spd(b))
    npt.assert_allclose(values, [-1.0, 2.0, 3.0], atol=1e-13)


def test_generalized_eig_matches_dense_inverse_route():
    # independent oracle: eigenvalues of inv(L) a inv(L).T
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 4))
    a = symmetrize(x + x.T)
    y = rng.standard_normal((4, 4))
    b = symmetrize(y @ y.T + 4 * np.eye(4))
    L = np.linalg.cholesky(b)
    Li = np.linalg.inv(L)
    expected = np.sort(np.linalg.eigvalsh(symmetrize(Li @ a @ Li.T)))
    npt.assert_allclose(sym_generalized_eigvals(a, cholesky_spd(b)), expected, atol=1e-11)


def test_generalized_eig_rejects_indefinite_b():
    a = np.eye(2)
    b = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError):
        sym_generalized_eigvals(a, cholesky_spd(b))


@pytest.mark.parametrize("n_plus, n_minus", [(3, 3), (4, 2), (1, 5)])
def test_graded_eigvals_match_the_dense_pencil(n_plus, n_minus):
    # b = diag(A, C) and a = [[0, B], [B', 0]] in the order of J, the
    # coordinates shuffled: +-sigma(L_A^-1 B L_C^-T) and |n_+ - n_-| zeros
    rng = np.random.default_rng(n_plus * 10 + n_minus)
    n = n_plus + n_minus
    signs = np.array([1.0] * n_plus + [-1.0] * n_minus)
    b, a = np.zeros((n, n)), np.zeros((n, n))
    for half in (signs > 0, signs < 0):
        x = rng.standard_normal((half.sum(), half.sum()))
        b[np.ix_(half, half)] = x @ x.T + half.sum() * np.eye(half.sum())
    a[:n_plus, n_plus:] = rng.standard_normal((n_plus, n_minus))
    a[n_plus:, :n_plus] = a[:n_plus, n_plus:].T
    order = rng.permutation(n)
    a, b, signs = a[np.ix_(order, order)], b[np.ix_(order, order)], signs[order]
    rows, cols = np.indices((n, n)).reshape(2, -1)
    values = graded_eigvals(a[rows, cols], b[rows, cols], (rows, cols), signs)
    expected = scipy.linalg.eigh(a, b, eigvals_only=True)
    npt.assert_allclose(values, expected, atol=1e-13 * np.max(np.abs(expected)))
    assert np.array_equal(values, -values[::-1])
    assert np.count_nonzero(values == 0.0) >= abs(n_plus - n_minus)
    with pytest.raises(NonFiniteError, match="infs or NaNs"):
        graded_eigvals(np.full(n * n, np.inf), b[rows, cols], (rows, cols), signs)


def _split(a, b, threshold):
    """:func:`kernel_split` of the dense symmetric ``a`` and ``b``, given
    by their values on every entry."""
    n = b.shape[0]
    rows, cols = np.indices((n, n)).reshape(2, -1)
    return kernel_split(a[rows, cols], b[rows, cols], n, (rows, cols), threshold)


def test_definite_pencil_diagonal_oracle():
    a, b = np.diag([3.0, -1.0]), np.diag([4.0, 2.0])
    eigen, schur_min = _split(a, b, 0.1)
    assert schur_min == np.inf
    npt.assert_allclose(eigen.end_values(eigen.size), [-0.5, 0.75], atol=1e-15)
    vectors = eigen.vectors(2)
    npt.assert_allclose(np.abs(vectors), [[0.0, 0.5], [2**-0.5, 0.0]], atol=1e-15)
    # the vectors of the largest values only, largest first
    npt.assert_allclose(np.abs(eigen.vectors(1, top=True)), [[0.5], [0.0]], atol=1e-15)
    assert eigen.vectors(0).shape == (2, 0)
    with pytest.raises(NonFiniteError, match="infs or NaNs"):
        _split(a, np.diag([1.0, np.nan]), 0.1)


def test_sym_reduce_reads_a_standard_spectrum():
    rng = np.random.default_rng(5)
    a = symmetrize(rng.standard_normal((9, 9)))
    exact = scipy.linalg.eigvalsh(a)
    kept = a.copy()
    eigen = sym_reduce(a)
    # a C-ordered matrix is copied, not overwritten
    npt.assert_array_equal(a, kept)
    assert eigen.count(0.0) == np.count_nonzero(exact <= 0.0)
    for top in (False, True):
        values = eigen.end_values(3, top)
        npt.assert_allclose(values, (exact[::-1] if top else exact)[:3], atol=1e-13)
        # the vectors are the standard problem's, orthonormal
        x = eigen.vectors(3, top)
        npt.assert_allclose(x.T @ x, np.eye(3), atol=1e-13)
        npt.assert_allclose(a @ x, x * values, atol=1e-12)
    # an F-ordered one is reduced in place
    f = np.asfortranarray(kept)
    sym_reduce(f)
    assert not np.array_equal(f, kept)
    with pytest.raises(NonFiniteError, match="infs or NaNs"):
        sym_reduce(np.diag([1.0, np.inf]))


def _random_pencil(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    return symmetrize(x + x.T), symmetrize(y @ y.T + 0.5 * np.eye(n))


def test_definite_pencil_matches_the_generalized_solve():
    a, b = _random_pencil(6, 23)
    eigen, _ = _split(a, b, 0.1)
    expected = scipy.linalg.eigh(a, b, eigvals_only=True)
    npt.assert_allclose(eigen.end_values(eigen.size), expected, rtol=1e-12)
    for top in (False, True):
        vectors = eigen.vectors(6, top)
        values = eigen.end_values(eigen.size, top)
        # b-orthonormal eigenvector columns, in the order asked for
        npt.assert_allclose(vectors.T @ b @ vectors, np.eye(6), atol=1e-12)
        npt.assert_allclose(a @ vectors, b @ vectors * values, atol=1e-11)


def _pencils():
    """Pencils ``(a, b)`` of the two models' shifted forms, ``(L_t, Q_t)``
    at a shift where Q_t is definite, and two random ones."""
    out = [_random_pencil(n, seed) for n, seed in ((9, 1), (40, 2))]
    for forms, t in (
        (assemble_1d(uniform_mesh(40, jitter=0.3, seed=1), 3).forms, 0.7),
        # jitter 0: the discrete gradient kernel gives a cluster of equal tau
        (assemble_2d(structured_tri_mesh(4, 0.0, 0), 1).forms, 0.8),
    ):
        qt = _on_pattern(forms, shifted_square(forms, t))
        out.append((_on_pattern(forms, shifted_linear(forms, t)), qt))
    return out


def _pivoted_reduction(a, b):
    """``C = L^{-1} a[p, p] L^{-T}`` and the pivots p of the pivoted
    Cholesky factorization ``b[p, p] = L L'`` of a definite ``b``, by
    LAPACK out of place."""
    factor, pivots, rank, _ = scipy.linalg.lapack.dpstrf(b, tol=0.0, lower=1)
    pivots = pivots - 1
    assert rank == b.shape[0]
    c, _ = scipy.linalg.lapack.dsygst(a[np.ix_(pivots, pivots)], factor, lower=1)
    return c, pivots


def _stebz(d, e, *args):
    """LAPACK ``dstebz`` called directly: the m values it returns, ordered
    by its blocks."""
    e = e if d.size > 1 else np.zeros(1)  # the wrapper takes no empty e
    m, w, _, _, info = scipy.linalg.lapack.dstebz(d, e, *args, "B")
    assert info == 0
    return w[:m]


def _documented_values(c):
    """All eigenvalues of the symmetric ``c``, ascending, by the rule that
    :meth:`TridiagonalEigen.end_values` documents, from direct LAPACK
    calls: ``dsytrd`` in its blocked workspace, then ``dstebz`` by index
    in the chunks [0, 1), [1, 2), [2, 4), ... of each block of T split at
    an exact zero of e, a running maximum over each block's chunks, and
    the blocks merged stably; with the tridiagonal T as ``(d, e)``."""
    n = c.shape[0]
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
    _, d, e, _, info = scipy.linalg.lapack.dsytrd(c, lower=1, lwork=int(lwork))
    assert info == 0
    splits = (np.flatnonzero(e == 0.0) + 1).tolist()
    values = []
    for start, stop in zip([0] + splits, splits + [n]):
        bounds = [0, 1]
        while bounds[-1] < stop - start:
            bounds.append(min(2 * bounds[-1], stop - start))
        block = d[start:stop], e[start : stop - 1]
        chunks = [
            np.sort(_stebz(*block, 2, 0.0, 0.0, i + 1, j, 0.0))
            for i, j in zip(bounds, bounds[1:])
        ]
        values.append(np.maximum.accumulate(np.concatenate(chunks)))
    return np.sort(np.concatenate(values), kind="stable"), d, e


def _assert_documented_values(eigen, c):
    """``eigen`` holds the values of the documented rule bit for bit, and
    its counts are those of ``scipy.linalg.eigvalsh(c)`` at the midpoints
    between distinct values and beyond the ends."""
    values, d, e = _documented_values(c)
    npt.assert_array_equal(eigen.d, d)
    npt.assert_array_equal(eigen.e, e)
    npt.assert_array_equal(eigen.end_values(eigen.size), values)
    exact = scipy.linalg.eigvalsh(c)
    ends = [exact[0] - 1.0, exact[-1] + 1.0]
    distinct = np.flatnonzero(np.diff(exact) > 1e-6 * np.abs(exact).max())
    for x in ends + ((exact[distinct] + exact[distinct + 1]) / 2).tolist():
        assert eigen.count(x) == np.count_nonzero(exact <= x)


def test_on_demand_values_are_the_values_only_solve_bit_for_bit():
    for a, b in _pencils():
        # b is definite: the pivoted factor keeps every coordinate
        c, pivots = _pivoted_reduction(a, b)
        eigen, _ = _split(a, b, 0.0)
        npt.assert_array_equal(eigen.pivots, pivots)
        _assert_documented_values(eigen, c)


def test_a_vector_does_not_depend_on_the_others_asked_for():
    for a, b in _pencils():
        n = a.shape[0]
        eigen, _ = _split(a, b, 0.0)
        for top in (False, True):
            every = eigen.vectors(min(n, 32), top)
            for k in range(every.shape[1]):
                npt.assert_array_equal(eigen.vectors(k + 1, top)[:, k], every[:, k])


def test_on_demand_vectors_are_accurate_and_orthonormal():
    for a, b in _pencils():
        eigen, _ = _split(a, b, 0.0)
        for top in (False, True):
            x = eigen.vectors(min(a.shape[0], 32), top)
            values = eigen.end_values(x.shape[1], top)
            residual = np.linalg.norm(a @ x - b @ x * values, axis=0)
            scale = np.linalg.norm(a, 2) + np.abs(values) * np.linalg.norm(b, 2)
            assert np.all(residual <= 1e-13 * scale * np.linalg.norm(x, axis=0))
            npt.assert_allclose(x.T @ b @ x, np.eye(x.shape[1]), atol=1e-12)


def test_a_fortran_ordered_a_is_reduced_in_place_to_the_same_bits(monkeypatch):
    for a, b in _pencils():
        factor, kept = cholesky_spd(b), a.copy()
        values = sym_generalized_eigvals(a, factor)
        work = np.asfortranarray(a)
        npt.assert_array_equal(sym_generalized_eigvals(work, factor), values)
        assert not np.array_equal(work, a)
        npt.assert_array_equal(a, kept)  # a C-ordered a is copied
    # kernel_split factors b and reduces a in place, in the arrays it
    # writes them into, to the bits of the out-of-place reduction
    in_place = []
    for name in ("dpstrf", "dsygst"):
        real = getattr(linalg_mod.lapack, name)

        def spy(x, *args, real=real, **kwargs):
            out = real(x, *args, **kwargs)
            in_place.append(np.shares_memory(out[0], x))
            return out

        monkeypatch.setattr(linalg_mod.lapack, name, spy)
    for a, b in _pencils():
        c, _ = _pivoted_reduction(a, b)
        in_place.clear()
        eigen, _ = _split(a, b, 0.0)
        assert in_place == [True, True]
        _assert_documented_values(eigen, c)


def test_split_tridiagonal_with_equal_values():
    # diagonal: every subdiagonal entry of T is 0, and the value 2 is
    # double; each block is its own tridiagonal solve
    a, b = np.diag([2.0, 1.0, 2.0, -3.0]), np.eye(4)
    eigen, _ = _split(a, b, 0.5)
    npt.assert_array_equal(eigen.pivots, np.arange(4))
    assert not eigen.e.any()
    npt.assert_array_equal(eigen.end_values(eigen.size), [-3.0, 1.0, 2.0, 2.0])
    _assert_documented_values(eigen, a)
    for top, order in ((False, [3, 1, 0, 2]), (True, [2, 0, 1, 3])):
        npt.assert_array_equal(np.abs(eigen.vectors(4, top)), np.eye(4)[:, order])
    # two copies of one block: T splits between them
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3))
    block = symmetrize(x + x.T)
    a = scipy.linalg.block_diag(block, block)
    eigen, _ = _split(a, np.eye(6), 0.5)
    npt.assert_array_equal(eigen.pivots, np.arange(6))
    assert eigen.e[2] == 0.0 and np.all(eigen.e[[0, 1, 3, 4]] != 0.0)
    _assert_documented_values(eigen, a)
    for top in (False, True):
        v = eigen.vectors(6, top)
        npt.assert_allclose(v.T @ v, np.eye(6), atol=1e-14)
        values = eigen.end_values(eigen.size, top)
        npt.assert_allclose(a @ v, v * values, atol=1e-13)
        for k in range(6):
            npt.assert_array_equal(eigen.vectors(k + 1, top)[:, k], v[:, k])


def _tridiagonals():
    """Tridiagonal matrices ``(d, e)``: random ones of orders 0 to 40; one
    split by exact zeros of e into three blocks, two of them equal; one
    whose 24 values cluster within 1e-13 of 1, its e so small that
    ``stebz`` splits it into blocks of order 1 itself; three copies of
    Wilkinson's W21+ glued by e = 1e-15, whose largest values come in
    clusters of six that agree to 1e-14 and better, so that bisection by
    chunks returns some out of order from either end; and a diagonal one
    with a double value."""
    rng = np.random.default_rng(11)
    out = [
        (rng.standard_normal(n), rng.standard_normal(max(n - 1, 0)))
        for n in (0, 1, 2, 3, 9, 40)
    ]
    d, e = rng.standard_normal(4), rng.standard_normal(3)
    out.append((np.concatenate([d, d, [0.5]]), np.concatenate([e, [0.0], e, [0.0]])))
    out.append((np.ones(24), 1e-14 * rng.standard_normal(23)))
    glue = np.append(np.ones(20), 1e-15)
    out.append((np.tile(np.abs(np.arange(-10.0, 11.0)), 3), np.tile(glue, 3)[:-1]))
    out.append((np.array([2.0, 1.0, 2.0, -3.0]), np.zeros(3)))
    return out


def _tridiagonal_eigen(d, e):
    """The :class:`TridiagonalEigen` of the tridiagonal ``(d, e)``, solved
    as the pencil ``(T, I)``, whose reduction leaves T as it is; and T."""
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    eigen, _ = _split(t, np.eye(d.size), 0.5)
    npt.assert_array_equal(eigen.d, d)
    npt.assert_array_equal(eigen.e, e)
    return eigen, t


def test_tridiagonal_counts_and_values_match_the_dense_solve():
    eps = np.finfo(float).eps
    for d, e in _tridiagonals():
        eigen, t = _tridiagonal_eigen(d, e)
        n = d.size
        assert eigen.count(np.inf) == n and eigen.count(-np.inf) == 0
        if n == 0:
            assert eigen.count(0.0) == 0 and eigen.size == 0
            continue
        exact = scipy.linalg.eigvalsh(t)
        norm = np.abs(exact).max()
        # counts at the midpoints between distinct values and beyond the ends
        gaps = np.flatnonzero(np.diff(exact) > 1e-6 * norm)
        points = [exact[0] - 1.0, exact[-1] + 1.0]
        for x in points + ((exact[gaps] + exact[gaps + 1]) / 2).tolist():
            assert eigen.count(x) == np.count_nonzero(exact <= x)
        # every value within 16 eps ||T|| of the dense solve's, from either
        # end (the dense solve's own error reaches 6 eps ||T|| at n = 40,
        # bisection's 0.6 eps ||T||)
        for top in (False, True):
            values = eigen.end_values(n, top)
            error = np.abs(values - (exact[::-1] if top else exact))
            assert np.all(error <= 16 * eps * norm)


def test_a_tridiagonal_value_does_not_depend_on_the_others_asked_for():
    for d, e in _tridiagonals():
        n = d.size
        eigen, _ = _tridiagonal_eigen(d, e)
        for top in (False, True):
            every = eigen.end_values(n, top)
            assert np.all(np.diff(every[::-1] if top else every) >= 0.0)
            for k in sorted({1, 2, 3, 5, n}):
                # a fresh copy bisects anew, asked for k values at once ...
                fresh = replace(eigen)
                npt.assert_array_equal(fresh.end_values(k, top), every[:k])
                # ... or for 1 first and then k
                fresh = replace(eigen)
                fresh.end_values(1, top)
                npt.assert_array_equal(fresh.end_values(k, top), every[:k])


def test_a_failed_bisection_by_index_reads_all_the_values(monkeypatch):
    # stebz by index can meet Sturm counts that are not monotone at values
    # tied to roundoff (info 2); the chunk is then read from all the
    # values, bisected by range 0, so a one-block T gives them sorted
    real = linalg_mod.lapack.dstebz

    def failing(d, e, range_, *args):
        m, w, iblock, isplit, info = real(d, e, range_, *args)
        return (0, w, iblock, isplit, 2) if range_ == 2 else (m, w, iblock, isplit, info)

    monkeypatch.setattr(linalg_mod.lapack, "dstebz", failing)
    for d, e in _tridiagonals():
        if d.size == 0 or not np.all(e):
            continue
        eigen, _ = _tridiagonal_eigen(d, e)
        every = np.sort(_stebz(d, e, 0, 0.0, 0.0, 0, 0, 0.0))
        npt.assert_array_equal(eigen.end_values(d.size), every)
        npt.assert_array_equal(eigen.end_values(3, top=True), every[::-1][:3])


def test_stein_gets_its_values_ascending_within_each_block(monkeypatch):
    seen = []
    real = linalg_mod._stein

    def spy(d, e, values):
        seen.append(values.copy())
        return real(d, e, values)

    monkeypatch.setattr(linalg_mod, "_stein", spy)
    for d, e in _tridiagonals():
        n = d.size
        eigen, t = _tridiagonal_eigen(d, e)
        for top in (False, True):
            seen.clear()
            v = eigen.vectors(n, top)
            # one stein call per block of T split at an exact zero of e
            assert v.shape == (n, n)
            assert len(seen) == (np.count_nonzero(e == 0.0) + 1 if n else 0)
            assert all(np.all(np.diff(values) >= 0.0) for values in seen)
            values = eigen.end_values(n, top)
            npt.assert_allclose(v.T @ v, np.eye(n), atol=1e-13)
            scale = max(np.abs(values).max(initial=0.0), 1.0)
            npt.assert_allclose(t @ v, v * values, atol=1e-13 * scale)


@pytest.mark.parametrize("n", [0, 1])
def test_on_demand_solve_of_the_smallest_sizes(n):
    a, b = 3.0 * np.eye(n), 4.0 * np.eye(n)
    eigen, _ = _split(a, b, 1.0)
    npt.assert_array_equal(eigen.end_values(eigen.size), [0.75] * n)
    for top in (False, True):
        npt.assert_array_equal(eigen.vectors(1, top), 0.5 * np.eye(n))
        assert eigen.vectors(0, top).shape == (n, 0)


def test_kernel_basis_diagonal():
    # the pivots take the largest diagonal entry first; the zero one is
    # deflated, and the pencil is solved on the other two coordinates
    a, b = np.diag([5.0, 6.0, 7.0]), np.diag([0.0, 1.0, 2.0])
    eigen, schur_min = _split(a, b, 1e-10)
    npt.assert_array_equal(eigen.pivots, [2, 1, 0])
    assert schur_min == 0.0
    npt.assert_allclose(eigen.end_values(eigen.size), [3.5, 6.0], rtol=1e-15)
    x = eigen.vectors(2)
    npt.assert_allclose(np.abs(x), [[0.0, 0.0], [0.0, 1.0], [2**-0.5, 0.0]], rtol=1e-15)


def test_kernel_basis_full_rank():
    eigen, schur_min = _split(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), 1e-10)
    assert schur_min == np.inf and eigen.size == 2
    # a zero matrix is its own kernel: nothing is solved, no vector exists
    eigen, schur_min = _split(np.eye(3), np.zeros((3, 3)), 1e-10)
    assert schur_min == 0.0 and eigen.size == 0
    assert eigen.vectors(2).shape == (3, 0)


def test_kernel_basis_rejects_negative():
    # the leading pivot 0.25 is definite and pstrf stops at -0.75 as at
    # a kernel; only the Schur complement of the kept coordinate shows
    # the negative eigenvalue
    b = np.diag([0.25, -0.75])
    _, _, rank, _ = scipy.linalg.lapack.dpstrf(b, tol=1e-10, lower=1)
    assert rank == 1
    eigen, schur_min = _split(np.eye(2), b, 1e-10)
    assert schur_min == -0.75 and eigen.size == 1
    # zm_eigen rejects it: Q_1.5 = M2 - 3 M1 + 2.25 M0 = diag(0.25, -0.75)
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
    with pytest.raises(NegativeEigenvalueError):
        zm_eigen(forms, 1.5)
    # off the diagonal: the leading pivot 4 is definite, and its Schur
    # complement 0.999 - 2 * 2 / 4 = -1e-3 lies below the smallest
    # eigenvalue of b itself
    b = np.array([[4.0, 2.0], [2.0, 0.999]])
    eigen, schur_min = _split(np.eye(2), b, 1e-10)
    assert eigen.size == 1
    npt.assert_allclose(schur_min, -1e-3, rtol=1e-12)
    assert schur_min < scipy.linalg.eigh(b, eigvals_only=True)[0] < 0.0


def test_kernel_split_complement_is_orthonormal():
    rng = np.random.default_rng(23)
    # b PSD with a 2-dimensional kernel, which also lies in the kernel of a
    w = rng.standard_normal((5, 3))
    x = rng.standard_normal((3, 3))
    b = symmetrize(w @ w.T)
    a = symmetrize(w @ (x + x.T) @ w.T)
    eigen, schur_min = _split(a, b, 1e-10 * np.abs(b).sum(axis=1).max())
    assert abs(schur_min) < 1e-13 * np.linalg.norm(b, 2)
    kept, deflated = eigen.pivots[:3], eigen.pivots[3:]
    assert deflated.size == 2
    for top in (False, True):
        v = eigen.vectors(3, top)
        values = eigen.end_values(eigen.size, top)
        # exactly zero on the deflated coordinates, b-orthonormal, and
        # eigenvectors of the pencil
        assert not v[deflated].any() and v[kept].all()
        npt.assert_allclose(v.T @ b @ v, np.eye(3), atol=1e-12)
        npt.assert_allclose(a @ v, b @ v * values, atol=1e-11)
    # the values are those of the pencil deflated on the orthogonal
    # complement of the kernel
    c = scipy.linalg.eigh(b)[1][:, 2:]
    want = scipy.linalg.eigh(c.T @ a @ c, c.T @ b @ c, eigvals_only=True)
    npt.assert_allclose(eigen.end_values(eigen.size), want, rtol=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=8),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_cholesky_reconstructs_under_rescaling(seed, n, scale):
    """Relative pivot test: the factorization is scale invariant."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    m = symmetrize(scale * (x @ x.T + n * np.eye(n)))
    L = cholesky_spd(m)
    npt.assert_allclose(L @ L.T, m, rtol=1e-12, atol=1e-13 * scale)
    assert np.all(np.diag(L) > 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_generalized_eig_shift_identity(seed):
    """Shifting a by s*b shifts every eigenvalue by s."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4))
    a = symmetrize(x + x.T)
    y = rng.standard_normal((4, 4))
    b = symmetrize(y @ y.T + 4 * np.eye(4))
    s = float(rng.uniform(-5, 5))
    factor = cholesky_spd(b)
    base = sym_generalized_eigvals(a, factor)
    shifted = sym_generalized_eigvals(symmetrize(a + s * b), factor)
    npt.assert_allclose(shifted, base + s, rtol=1e-9, atol=1e-9)


def _count(a):
    """:func:`count_nonpositive` of a dense symmetric ``a``, given on its
    nonzero pattern."""
    rows, cols = np.nonzero(a)
    return count_nonpositive(a[rows, cols], a.shape[0], (rows, cols))


@pytest.mark.parametrize("seed", range(8))
def test_count_nonpositive_matches_the_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5, 8, 13, 40):
        x = rng.standard_normal((n, n))
        a = symmetrize(x + x.T)
        assert _count(a) == np.count_nonzero(np.linalg.eigvalsh(a) <= 0.0)
        # a prescribed inertia, every eigenvalue at least 0.1 from 0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
        a = symmetrize((q * values) @ q.T)
        assert _count(a) == np.count_nonzero(values < 0.0)


@pytest.mark.parametrize(
    "a, count",
    [
        # zero diagonals force blocks of order 2, each with one eigenvalue
        # of either sign
        ([[0.0, 1.0], [1.0, 0.0]], 1),
        ([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 3.0, 0.0]], 2),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -2.0]], 2),
        ([[1e-300, 1e300], [1e300, 1e-300]], 1),  # no overflow in the test
        # exactly singular: an exact zero pivot counts
        ([[1.0, 1.0], [1.0, 1.0]], 1),
        ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]], 2),
        (np.zeros((3, 3)), 3),
        # 1 by 1
        ([[2.0]], 0),
        ([[-2.0]], 1),
        ([[0.0]], 1),
    ],
)
def test_count_nonpositive_pivots_of_order_two_and_zero(a, count):
    # the exact inertia: eigvalsh rounds the zero eigenvalues either way
    assert _count(np.asarray(a)) == count


def test_count_nonpositive_on_the_pattern_of_forms():
    # Q_s - alpha^2 M0 on the forms' pattern: the count is that of the
    # pencil (Q_s, M0) below alpha^2.  At s = alpha = 0 it is M2, whose
    # 32-dimensional gradient kernel rounding puts on either side of 0:
    # there the count lies between the pencil values below and at 0
    forms = assemble_2d(structured_tri_mesh(4, jitter=0.25, seed=1), 2).forms
    m0 = np.asarray(forms.M0, dtype=float)
    for s, alpha in ((0.0, 0.0), (0.0, 0.7), (1.4, 0.3), (2.5, 1.0)):
        values = shifted_square(forms, s) - alpha**2 * forms._values[0]
        q = _on_pattern(forms, shifted_square(forms, s))
        mu = scipy.linalg.eigvalsh(q, m0) - alpha**2
        tie = 1e-12 * np.max(np.abs(mu))
        below, at = np.count_nonzero(mu < -tie), np.count_nonzero(mu <= tie)
        assert at - below == (32 if s == alpha == 0.0 else 0)
        assert below <= count_nonpositive(values, forms.n, forms.pattern()) <= at


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_count_nonpositive_rejects_non_finite_input(bad):
    a = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(NonFiniteError):
        _count(a)
