"""Dense symmetric linear algebra kernel.

Everything downstream (counting functions, pencil bounds, fixed-point
solves) reduces to a handful of operations on real symmetric matrices,
one function per job, each a direct LAPACK call:

* :func:`cholesky_spd`, a pivot-checked Cholesky factorization (LAPACK
  ``potrf`` plus a relative test on every pivot); it is the
  definiteness gate;
* :func:`sym_generalized_eigvals`, all eigenvalues of a
  symmetric-definite pencil, from the Cholesky factor of its right-hand
  matrix (LAPACK ``sygst``, then ``sytrd`` and ``sterf``): whole
  spectra, such as the Ritz values of ungraded forms and the local
  counting function;
* :func:`sym_norm2`, the 2-norm of a symmetric matrix given on a
  pattern, its end eigenvalue largest in size (LAPACK ``sytrd``, then
  ``stebz``);
* :func:`graded_eigvals`, the eigenvalues of a symmetric-definite pencil
  that a sign vector grades, as the singular values of one half-size
  block (LAPACK ``potrf`` of the two diagonal blocks, BLAS ``trsm``,
  then LAPACK ``gesdd``), with no n-size reduction;
* :func:`kernel_split`, the tridiagonal reduction of a symmetric pencil
  whose right-hand matrix is positive semidefinite, from one pivoted
  Cholesky factorization of it (LAPACK ``pstrf``, then ``sygst`` and
  ``sytrd``): the factorization splits off its numerical kernel;
* :func:`count_nonpositive`, the number of eigenvalues <= 0 of a
  symmetric matrix, its inertia from one Bunch-Kaufman factorization
  (LAPACK ``sytrf``), no eigenvalue: it decides the consistency gate and
  every sign of the fixed-point search;
* :class:`TridiagonalEigen`, what :func:`kernel_split` returns: on
  demand, how many eigenvalues lie at or below a point (a Sturm count)
  and the eigenvalues nearest either end of the spectrum (bisection),
  both by LAPACK ``stebz``, and the eigenvectors of those values (LAPACK
  ``stein`` and ``ormqr``, then BLAS ``trsm``).

Every spectrum is read from one tridiagonal reduction, :func:`_reduce`,
the package's one ``sytrd`` call.  Every array that LAPACK factors is
placed from the values on a pattern by :func:`placed`, in the Fortran
order in which LAPACK factors it in place; every blocked routine runs in
the workspace it asks for (:func:`_lwork`); and every input is checked
finite by :func:`_check_finite`.

All tolerances are relative to the matrix scale so the routines behave
identically under rescaling.  LAPACK works in double precision:
extended-precision input is rounded on the way in.

The LAPACK and BLAS routines are scipy's own compiled wrappers, the
extension modules ``scipy/linalg/_flapack`` and ``_fblas``, loaded from
their files.  Importing the ``scipy.linalg`` package instead would more
than double the package's start-up, because that package imports numpy
submodules (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) that nothing
here uses.
"""

import functools
import importlib
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import NonFiniteError, NotPositiveDefiniteError


def _scipy_linalg_extension(name):
    """scipy's compiled module ``scipy/linalg/<name>``, loaded from its
    file without running ``scipy/linalg/__init__.py``, or imported
    through that package where no such file is found (a scipy of another
    layout).  This function adds nothing to ``sys.modules``."""
    for root in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(
                    f"scipy.linalg.{name}", path
                )
                spec = importlib.util.spec_from_file_location(
                    loader.name, path, loader=loader
                )
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    return importlib.import_module(f"scipy.linalg.{name}")


#: scipy's f2py wrappers of LAPACK and BLAS, the objects that
#: ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` export
lapack, blas = _scipy_linalg_extension("_flapack"), _scipy_linalg_extension("_fblas")

#: default relative tolerance used for rank / definiteness decisions
DEFAULT_TOL = 1e-10


def _as_float_matrix(a):
    """Coerce to a floating square matrix, keeping extended precision."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(float)
    return a


def symmetrize(a):
    """Return the exactly symmetric part ``(a + a.T) / 2`` of a square array.

    Floating-point addition is commutative, so the result satisfies
    ``b[i, j] == b[j, i]`` bit for bit.  The dtype (double or extended)
    is preserved.
    """
    a = _as_float_matrix(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def check_symmetric(a, name="matrix"):
    """Validate that ``a`` is square, finite, and symmetric as stored."""
    a = _as_float_matrix(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} holds an inf or a NaN")
    if not np.array_equal(a, a.T):
        worst = np.max(np.abs(a - a.T))
        raise ValueError(
            f"{name} is not symmetric as stored (max asymmetry {worst:.3e}); "
            f"pass it through symmetrize() first"
        )
    return a


def cholesky_spd(m, tol=DEFAULT_TOL):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The factorization is LAPACK ``potrf`` in double precision.  Every
    pivot ``L[j, j]**2`` must also pass a relative test, which ``potrf``
    alone (it only asks for positive pivots) does not apply.

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix.
    tol : float
        A pivot is accepted only if it exceeds ``tol`` times the largest
        diagonal entry of ``m``.

    Returns
    -------
    L : (n, n) ndarray
        Lower triangular with ``L @ L.T == m`` up to roundoff.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot falls at or below the relative threshold.  The error
        carries the index and value of the first such pivot.
    """
    return _checked_potrf(check_symmetric(m, "cholesky_spd input"), tol)


def _checked_potrf(m, tol):
    """:func:`cholesky_spd` of a matrix already checked to be square and
    exactly symmetric, such as the Gram matrix of checked forms."""
    a = np.asarray(m).astype(float, copy=False)
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    threshold = tol * max(np.max(np.diag(a)), 0.0)
    L, info = lapack.dpotrf(a, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    # potrf stops at the first pivot <= 0 and leaves it on the diagonal;
    # the pivots before it were accepted and are diag(L)**2
    done = info - 1 if info > 0 else n
    pivots = np.diag(L)[:done] ** 2
    low = np.flatnonzero(pivots <= threshold)
    if low.size:
        raise NotPositiveDefiniteError(int(low[0]), float(pivots[low[0]]))
    if info > 0:
        raise NotPositiveDefiniteError(done, float(L[done, done]))
    return L


def sym_generalized_eigvals(a, factor):
    """Eigenvalues of ``a x = lam b x`` with symmetric ``a`` and SPD ``b``.

    ``b`` enters as its lower Cholesky ``factor`` from
    :func:`cholesky_spd`, so a pencil family with one ``b`` factors it
    once.  LAPACK ``sygst`` reduces the pencil to a standard matrix C,
    :func:`_reduce` reduces C to a tridiagonal T, and ``sterf`` gives all
    n eigenvalues of T ascending: the steps of LAPACK's values-only
    ``syevd``, and its bits, where ``syevd`` does not rescale C (its
    largest entry between about 1e-146 and 1e146 in size).  Beyond that
    range ``syevd`` scales C first, and the two agree to rounding.
    Forms that a sign vector grades have the half-size route
    :func:`graded_eigvals`.  Only the lower triangle of ``a`` is read, so
    ``a`` must be exactly symmetric: forms checked by ``TrialForms`` and
    the shifted combinations of them are.  A double ``a`` that is not
    C-ordered, such as one from :func:`placed`, is reduced in place and
    left overwritten.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] == 0:
        return np.zeros(0)
    _check_finite(a)
    c, _ = lapack.dsygst(a, factor, lower=1, overwrite_a=not a.flags.c_contiguous)
    eigen = _reduce(c)
    if eigen.size == 1:  # sterf's wrapper takes no empty e
        return eigen.d
    values, info = lapack.dsterf(eigen.d, eigen.e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"sterf did not converge (info={info})")
    return values


def sym_norm2(values, n, pattern):
    """``||a||_2`` of the nonempty n by n symmetric matrix holding the
    double ``values`` on ``pattern``, the ``(rows, cols)`` of a symmetric
    pattern, and +0 off it: the larger in size of its two end
    eigenvalues, bisected by ``stebz`` on the tridiagonal T of
    :func:`_reduce`.

    Raises
    ------
    NonFiniteError
        If ``values`` holds an inf or a NaN.
    """
    values = np.asarray(values, dtype=float)
    _check_finite(values)
    eigen = _reduce(placed(values, *pattern, (n, n)))
    ends = eigen.end_values(1)[0], eigen.end_values(1, top=True)[0]
    return float(max(abs(ends[0]), abs(ends[1])))


def graded_eigvals(a, b, pattern, signs):
    """Eigenvalues of ``a x = lam b x`` with symmetric ``a`` and SPD ``b``
    graded by the sign vector ``signs`` (J): ``J b J = b`` and
    ``J a J = -a`` entry by entry, as :meth:`TrialForms.grading
    <eigenclose.forms.TrialForms.grading>` finds them.

    ``a`` and ``b`` are given by their double values on ``pattern``, the
    ``(rows, cols)`` of a symmetric pattern, and +0 off it; ``signs``
    holds n entries +1.0 or -1.0.  In J's order, the coordinates of sign
    +1 first, ``b = diag(A, C)`` and ``a = [[0, B], [B', 0]]``.  Those
    three half blocks are placed straight from the pattern, with no n by
    n array.  LAPACK ``potrf`` factors ``A = L_A L_A'`` and
    ``C = L_C L_C'``, which by interlacing are definite where ``b`` is;
    two BLAS ``trsm`` form ``K = L_A^{-1} B L_C^{-T}``, and the pencil's
    eigenvalues are ``+-sigma_i(K)`` and ``|n_+ - n_-|`` zeros (Golub and
    Kahan).  One values-only LAPACK ``gesdd`` in the workspace it asks
    for gives the singular values.  Returns the n eigenvalues ascending
    and exactly symmetric, ``[-sigma, zeros, sigma]``; where a block is
    empty, ``a`` is 0 and they are n zeros, and no LAPACK routine runs.

    Raises
    ------
    NonFiniteError
        If ``a`` or ``b`` holds an inf or a NaN.
    numpy.linalg.LinAlgError
        If a diagonal block of ``b`` is not positive definite, or the
        singular values do not converge.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _check_finite(a, b)
    plus = signs > 0
    n = signs.size
    n_plus = int(np.count_nonzero(plus))
    n_minus = n - n_plus
    if n_plus == 0 or n_minus == 0:
        return np.zeros(n)
    # each coordinate's place in its half
    place = np.empty(n, dtype=np.intp)
    place[plus] = np.arange(n_plus)
    place[~plus] = np.arange(n_minus)
    rows, cols = pattern
    i, j, row_plus, col_plus = place[rows], place[cols], plus[rows], plus[cols]
    factors = []
    for half, size in ((row_plus & col_plus, n_plus), (~row_plus & ~col_plus, n_minus)):
        block = placed(b[half], i[half], j[half], (size, size))
        factor, info = lapack.dpotrf(block, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"potrf of a diagonal block failed (info={info})")
        factors.append(factor)
    # B = a[plus, minus]
    off = row_plus & ~col_plus
    k = placed(a[off], i[off], j[off], (n_plus, n_minus))
    k = blas.dtrsm(1.0, factors[0], k, lower=1, overwrite_b=1)
    k = blas.dtrsm(
        1.0, factors[1], k, side=1, lower=1, trans_a=1, overwrite_b=1
    )
    # its bidiagonal reduction runs blocked only in the workspace it asks for
    lwork = _lwork("dgesdd", n_plus, n_minus, compute_uv=0)
    _, sigma, _, info = lapack.dgesdd(k, compute_uv=0, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"gesdd did not converge (info={info})")
    # gesdd orders sigma descending
    return np.concatenate([-sigma, np.zeros(abs(n_plus - n_minus)), sigma[::-1]])


def kernel_split(a, b, n, pattern, threshold):
    """The :class:`TridiagonalEigen` of ``a x = lam b x`` with the
    numerical kernel of the positive semidefinite ``b`` split off, from
    which its eigenvalue counts, eigenvalues and eigenvectors are
    computed on demand.

    ``a`` and ``b`` are n by n symmetric matrices given by their double
    values on ``pattern``, the ``(rows, cols)`` of a symmetric pattern,
    and +0 off it; only the lower triangles enter the factorizations.
    LAPACK ``pstrf`` factors ``b[keep, keep] = L11 L11'`` with diagonal
    pivoting, in place in the one n by n array made here, and stops at
    the first pivot at or below ``threshold``; the coordinates ``rest``
    it did not factor are deflated.  Where none are, ``b`` is positive
    definite up to the backward error of the factorization.  The pencil
    on ``keep`` is written in pivot order from the values of ``a`` and
    reduced through ``L11``: ``sygst`` forms ``C = L11^{-1} a L11^{-T}``
    in place, and :func:`_reduce` reduces it to a tridiagonal T; no
    eigenvalue is computed here, and none where all of ``b`` is
    deflated.  Its vectors, ``b``-orthonormal, are zero on ``rest``.
    Where the kernel of ``b`` lies in that of ``a``, every complement of
    the kernel gives the same eigenvalues, those of the deflated pencil.
    ``pstrf`` stops at a negative pivot as at a zero one, so where
    coordinates are deflated an indefinite ``b`` is not told apart here:
    the forms' consistency gate rules it out.

    Raises
    ------
    NonFiniteError
        If ``a`` or ``b`` holds an inf or a NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _check_finite(a, b)
    rows, cols = pattern
    factor, pivots, r, info = lapack.dpstrf(
        placed(b, rows, cols, (n, n)), tol=threshold, lower=1, overwrite_a=1
    )
    if info < 0:
        raise ValueError(f"pstrf rejected argument {-info}")
    pivots = pivots.astype(np.intp) - 1
    # each coordinate's place in pivot order
    place = np.empty(n, dtype=np.intp)
    place[pivots] = np.arange(n)
    i, j = place[rows], place[cols]
    factor = factor[:r, :r]
    kept = slice(None) if r == n else (i < r) & (j < r)
    a11 = placed(a[kept], i[kept], j[kept], (r, r))
    if r:  # sygst's wrapper takes no empty matrix
        a11, _ = lapack.dsygst(a11, factor, lower=1, overwrite_a=1)
    eigen = _reduce(a11, pivots)
    # the factor's transpose fills the triangle sytrd leaves unused
    np.copyto(eigen.packed, factor.T, where=np.tri(r, dtype=bool).T)
    return eigen


def count_nonpositive(a, n, pattern):
    """The number of eigenvalues <= 0 of the n by n symmetric matrix
    holding the double values ``a`` on ``pattern``, the ``(rows, cols)``
    of a symmetric pattern, and +0 off it.

    LAPACK ``sytrf`` factors it as ``P L D L' P'`` with diagonal
    pivoting (Bunch-Kaufman) in the one n by n array made here, reading
    its lower triangle, blocked in the workspace ``sytrf`` asks for.  D
    is block diagonal with blocks of order 1 and 2, and by Sylvester's
    law of inertia it has as many eigenvalues <= 0 as the matrix.  A
    block of order 1 counts where it is <= 0, the exact zero pivot
    ``sytrf`` reports (``info > 0``) among them.  A block
    ``[[p, q], [q, r]]`` of order 2 counts once: ``sytrf`` pivots on one
    only where ``|p r| < alpha**2 q**2``, ``alpha**2`` about 0.41, so
    its determinant is negative and it has one eigenvalue of each sign.

    Raises
    ------
    NonFiniteError
        If ``a`` holds an inf or a NaN.
    """
    a = np.asarray(a, dtype=float)
    _check_finite(a)
    # without the workspace it asks for, the wrapper's default of n makes
    # LAPACK fall back to the unblocked sytf2: at n = 1800, 7 times slower
    # on one core
    ldu, ipiv, info = lapack.dsytrf(
        placed(a, *pattern, (n, n)), lower=1, lwork=_lwork("dsytrf", n, lower=1),
        overwrite_a=1,
    )
    if info < 0:
        raise ValueError(f"sytrf rejected argument {-info}")
    # a block of order 1 at k has ipiv[k] > 0, one of order 2 at (k, k + 1)
    # has ipiv[k] = ipiv[k + 1] < 0
    ones = np.count_nonzero(np.diagonal(ldu)[ipiv > 0] <= 0.0)
    return int(ones + np.count_nonzero(ipiv < 0) // 2)


def placed(values, rows, cols, shape):
    """The F-ordered double array of ``shape`` holding ``values`` at
    ``(rows, cols)`` and +0 elsewhere: the layout in which LAPACK
    factors an array in place."""
    out = np.zeros(shape, order="F")
    out[rows, cols] = values
    return out


@functools.cache
def _lwork(routine, *shape, **options):
    """The workspace that the LAPACK ``routine`` (such as ``"dsytrd"``)
    asks for on a problem of ``shape`` with ``options``: where one is
    blocked, it runs blocked only in this workspace."""
    work, info = getattr(lapack, routine + "_lwork")(*shape, **options)
    if info != 0:
        raise ValueError(f"{routine} workspace query failed with info {info}")
    return max(int(work), 1)


def _check_finite(*arrays):
    """Raise ``NonFiniteError`` if any of ``arrays`` holds an inf or a NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteError("array must not contain infs or NaNs")


def _reduce(c, pivots=None):
    """The :class:`TridiagonalEigen` of the symmetric ``c`` (its lower
    triangle, overwritten where ``c`` is a double F-ordered array) on the
    coordinates ``pivots``, None where no vector is read: LAPACK
    ``sytrd`` reduces ``c`` to a tridiagonal T, and nothing else is
    computed."""
    n = c.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return TridiagonalEigen(empty, empty, empty, np.zeros((0, 0)), pivots)
    # blocked, with level-3 BLAS, only in the workspace it asks for: at
    # n = 1775, 0.56 s against 1.02 s unblocked on one core
    packed, d, e, reflectors, info = lapack.dsytrd(
        c, lower=1, lwork=_lwork("dsytrd", n, lower=1), overwrite_a=1
    )
    if info != 0:
        raise ValueError(f"sytrd rejected argument {-info}")
    return TridiagonalEigen(d, e, reflectors, packed, pivots)


def _chunks(count, n):
    """The bounds of the fixed chunks ``[0, 1)``, ``[1, 2)``, ``[2, 4)``,
    ``[4, 8)`` and so on of n indices that hold the first ``count``, the
    last chunk cut at n."""
    bounds = [0, 1]
    while bounds[-1] < count:
        bounds.append(min(2 * bounds[-1], n))
    return bounds


def _stebz(d, e, *args):
    """LAPACK ``stebz`` on the tridiagonal ``(d, e)`` of order at least 1,
    with the arguments ``range, vl, vu, il, iu, abstol``: the eigenvalues
    it bisects, ordered by the blocks it splits T into.

    A range by index (``range`` 2) can meet Sturm counts that are not
    monotone, at eigenvalues tied to roundoff across ``il`` or ``iu``
    (``info`` 2); there LAPACK's cure is taken: all the eigenvalues
    (``range`` 0) are bisected, and those of indices ``il .. iu`` returned,
    ascending."""
    if d.size == 1:  # stebz's wrapper takes no empty e
        e = np.zeros(1)
    m, w, _, _, info = lapack.dstebz(d, e, *args, "B")
    if info == 2 and args[0] == 2:
        il, iu, abstol = args[3:]
        return np.sort(_stebz(d, e, 0, 0.0, 0.0, 0, 0, abstol))[il - 1 : iu]
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz failed (info={info})")
    return w[:m]


@dataclass(eq=False)
class TridiagonalEigen:
    """A symmetric (or definite) eigenproblem reduced to a tridiagonal T,
    from which what is read is computed on demand and nothing else:
    eigenvalue counts (:meth:`count`), the eigenvalues nearest either end
    of the spectrum (:meth:`end_values`) and their eigenvectors
    (:meth:`vectors`).

    ``d`` and ``e`` are the diagonal and subdiagonal of the tridiagonal T
    that ``sytrd`` reduced the standard matrix to, ``reflectors`` the
    scalar factors of its Householder reflectors.  ``packed`` is one n by
    n array holding those reflectors' vectors below its first
    subdiagonal and the transpose of the Cholesky factor of the pencil's
    right-hand matrix on and above its diagonal.  ``pivots`` orders the
    coordinates of the vectors, which may be more than n, and its first n
    are the ones the pencil was solved on (:func:`kernel_split`).  Where
    only values are read (:func:`sym_generalized_eigvals`,
    :func:`sym_norm2`), ``pivots`` is None, no factor is stored, and
    :meth:`vectors` is not called.
    """

    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    packed: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)
    # the values bisected so far from one end of each unreduced block of
    # T, by the block's start and that end
    _bisected: dict = field(init=False, repr=False, default_factory=dict)

    @functools.cached_property
    def _blocks(self):
        """Starts and stops, as lists, of the unreduced blocks of T, split
        where its subdiagonal is exactly 0."""
        splits = (np.flatnonzero(self.e == 0.0) + 1).tolist()
        return [0] + splits, splits + [self.d.size]

    @property
    def size(self):
        """The order n of the problem."""
        return self.d.size

    def count(self, x):
        """The number of eigenvalues at or below x: a Sturm count of T,
        by ``stebz`` over ``(-inf, x]`` with an infinite tolerance, at
        which it bisects nothing."""
        if self.d.size == 0 or x == -np.inf:
            return 0
        return _stebz(self.d, self.e, 1, -np.inf, x, 0, 0, np.inf).size

    def end_values(self, count, top=False):
        """The ``count`` smallest eigenvalues, ascending, or with ``top``
        the ``count`` largest, descending.

        LAPACK ``stebz`` bisects them by index on each unreduced block of
        T (split where its subdiagonal is exactly 0), to within about
        eps ||T||, in the fixed chunks of :meth:`vectors` counted from
        the block's end, each chunk whole (from all the block's values
        where bisection by index fails, see :func:`_stebz`).  Bisection
        to roundoff may put the values of a cluster out of order across
        chunks, and ``stein`` needs them in order: a running maximum over
        the block's values from its end (a minimum with ``top``) keeps
        them so.  A value's bits thus do not depend on how many are asked
        for.  The blocks' values are merged stably, equal values in block
        order (reversed with ``top``), and each block's are cached,
        read-only: the array returned may be a view of that cache.
        """
        return self._end_values(count, top)[0]

    def _end_values(self, count, top):
        """:meth:`end_values` and the index of the unreduced block of T
        that each belongs to."""
        count = min(count, self.d.size)
        if count <= 0:
            return np.zeros(0), np.zeros(0, dtype=int)
        starts, stops = self._blocks
        if len(starts) == 1:
            values = self._block_end_values(0, self.d.size, count, top)
            return values, np.zeros(count, dtype=int)
        parts = [
            self._block_end_values(start, stop, count, top)
            for start, stop in zip(starts, stops)
        ]
        values = np.concatenate(parts)
        blocks = np.repeat(np.arange(len(parts)), [part.size for part in parts])
        order = np.argsort(values, kind="stable")
        order = (order[::-1] if top else order)[:count]
        return values[order], blocks[order]

    def _block_end_values(self, start, stop, count, top):
        """The ``min(count, stop - start)`` eigenvalues nearest one end of
        the unreduced block ``[start, stop)`` of T, ascending (descending
        with ``top``)."""
        size = stop - start
        count = min(count, size)
        known = self._bisected.get((start, top), np.zeros(0))
        if known.size < count:
            d, e = self.d[start:stop], self.e[start : stop - 1]
            bounds = _chunks(count, size)
            parts = [known]
            for a, b in zip(bounds, bounds[1:]):
                if a >= known.size:
                    il, iu = (size - b + 1, size - a) if top else (a + 1, b)
                    part = np.sort(_stebz(d, e, 2, 0.0, 0.0, il, iu, 0.0))
                    parts.append(part[::-1] if top else part)
            running = np.minimum if top else np.maximum
            known = running.accumulate(np.concatenate(parts))
            known.flags.writeable = False
            self._bisected[start, top] = known
        return known[:count]

    def vectors(self, count, top=False):
        """Eigenvector columns of the ``count`` smallest values, ascending,
        or with ``top`` of the ``count`` largest, descending.

        LAPACK ``stein`` computes each by inverse iteration on T at its
        value from :meth:`end_values`, then ``ormqr`` applies the
        reflectors and the back-transform of :class:`TridiagonalEigen`
        follows.  A column does not depend on how many after it are
        asked for:

        * ``stein`` seeds each start vector by its position in the call
          and orthogonalizes a vector against the ones before it whose
          values are close, so each unreduced block of T computes the
          whole prefix of the order asked for in one call, and ``top``
          works on -T, where the largest values come first;
        * the BLAS kernels behind the back-transform may sum a column
          in an order that depends on the number of columns, so the
          columns are back-transformed in fixed chunks, ``[0, 1)``,
          ``[1, 2)``, ``[2, 4)``, ``[4, 8)`` and so on, each chunk
          whole: fewer than twice ``count`` vectors are computed.

        Vectors of close values are orthonormal in the metric of the
        problem (``b`` of :func:`kernel_split`).

        Raises
        ------
        numpy.linalg.LinAlgError
            If inverse iteration does not converge.
        """
        n = self.d.size
        count = min(count, n)
        if count == 0:
            return np.zeros((self.pivots.size, 0))
        bounds = _chunks(count, n)
        z = self._tridiagonal_vectors(bounds[-1], top)
        # ormqr's wrapper copies a non-contiguous reflector block whole:
        # copy it once for all chunks
        householder = np.asfortranarray(self.packed[1:, :-1]) if n > 2 else None
        chunks = [
            self._back_transform(z[:, a:b], householder)
            for a, b in zip(bounds, bounds[1:])
        ]
        return np.hstack(chunks)[:, :count]

    def _tridiagonal_vectors(self, count, top):
        """The eigenvectors of T (of -T with ``top``) of its ``count``
        smallest values, by ``stein`` on each unreduced block."""
        values, blocks = self._end_values(count, top)
        d, e = self.d, self.e
        if top:
            d, e, values = -d, -e, -values
        starts, stops = self._blocks
        z = np.zeros((d.size, count), order="F")
        for block in set(blocks.tolist()):
            start, stop = starts[block], stops[block]
            columns = np.flatnonzero(blocks == block)
            z[start:stop, columns] = _stein(
                d[start:stop], e[start : stop - 1], values[columns]
            )
        return z

    def _back_transform(self, z, householder):
        """The eigenvectors of the problem from eigenvectors ``z`` of T;
        ``householder`` is a Fortran-ordered copy of ``packed[1:, :-1]``
        (None for n <= 2)."""
        z = np.asfortranarray(z)
        if householder is not None:
            # Q = diag(1, Q'), Q' the product of the reflectors in
            # packed[1:, :-1]; with the minimal workspace ormqr applies
            # them one by one, faster than blocked for up to 8 columns
            columns = z.shape[1]
            lwork = columns if columns <= 8 else 64 * columns + 65 * 64
            z[1:], _, info = lapack.dormqr(
                "L", "N", householder, self.reflectors, z[1:], lwork
            )
            if info != 0:
                raise ValueError(f"ormqr rejected argument {-info}")
        # the BLAS trsm, not LAPACK trtrs: OpenBLAS's trtrs can take
        # milliseconds on a 2 x 2 system when it runs threaded
        x = blas.dtrsm(1.0, self.packed, z, lower=0, overwrite_b=1)
        out = np.zeros((self.pivots.size, x.shape[1]))
        out[self.pivots[: x.shape[0]]] = x
        return out


def _stein(d, e, values):
    """LAPACK ``stein``: eigenvectors of the unreduced tridiagonal
    ``(d, e)`` at its eigenvalues ``values``, ascending."""
    size = d.size
    if size == 1:  # stein's wrapper takes no empty e
        return np.ones((1, values.size), order="F")
    z, info = lapack.dstein(
        d, e, values, np.ones(size, dtype=int), np.full(size, size)
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"stein did not converge (info={info})")
    return z
