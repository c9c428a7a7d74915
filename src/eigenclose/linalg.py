"""Dense symmetric linear algebra kernel.

Everything downstream (counting functions, pencil bounds, fixed-point
solves) reduces to a handful of operations on real symmetric matrices,
one function per job, each a direct LAPACK call:

* :func:`cholesky_spd`, a pivot-checked Cholesky factorization (LAPACK
  ``potrf`` plus a relative test on every pivot); it is the
  definiteness gate;
* :func:`sym_eigh`, the standard symmetric eigenvalue problem, with or
  without vectors (LAPACK ``syevd`` called directly); its only gate is
  that the input is finite;
* :func:`sym_generalized_eigvals`, the eigenvalues of a
  symmetric-definite pencil, optionally just the smallest few, from the
  Cholesky factor of its right-hand matrix (LAPACK ``sygst``, then
  ``syevd`` or ``syevx``);
* :func:`definite_pencil_eigh`, all the eigenvalues of a symmetric
  pencil whose right-hand matrix is certified positive definite past a
  margin by a Cholesky factorization of the shifted matrix (Sylvester's
  law of inertia), or ``None`` where that certificate fails (LAPACK
  ``potrf`` twice, ``sygst``, ``sytrd`` and ``sterf``);
* :func:`projected_eigh`, all the eigenvalues of a symmetric matrix
  projected onto given columns (``sytrd`` and ``sterf``);
* :class:`TridiagonalEigen`, what those two return: the values, and the
  eigenvectors of chosen values on demand (LAPACK ``stein`` and
  ``ormqr``, then BLAS ``trsm`` or the projection's columns);
* :func:`psd_eigh`, one classified eigendecomposition of a positive
  semidefinite matrix: it yields the numerical kernel and its
  complement, the check that no eigenvalue is genuinely negative and the
  2-norm at once.  It serves the pencils :func:`definite_pencil_eigh`
  cannot certify.

All tolerances are relative to the matrix scale so the routines behave
identically under rescaling.  LAPACK works in double precision:
extended-precision input is rounded on the way in.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import NegativeEigenvalueError, NonFiniteError, NotPositiveDefiniteError

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
    """Validate that ``a`` is square and symmetric as stored."""
    a = _as_float_matrix(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
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
    L, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
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


def sym_eigh(a, vectors=True):
    """Eigenvalues, ascending, of a real symmetric matrix.

    With ``vectors`` (the default) the orthonormal eigenvector columns
    come back too, as ``(values, vectors)``.  This is LAPACK ``syevd``
    in double precision on the lower triangle, called directly: for the
    small matrices of the pencil solves the argument handling of
    ``scipy.linalg.eigh`` costs more than the decomposition itself.
    Without vectors ``syevd`` runs ``sytrd`` and ``sterf``, here with the
    workspace in which ``sytrd`` runs blocked, as :func:`_reduce` does.

    Raises
    ------
    NonFiniteError
        If the matrix holds an inf or a NaN.
    numpy.linalg.LinAlgError
        If the decomposition does not converge.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteError("array must not contain infs or NaNs")
    if vectors:
        values, vecs, info = scipy.linalg.lapack.dsyevd(a, compute_v=1, lower=1)
    else:
        # syevd hands sytrd its workspace beyond the first 2n entries
        lwork = 2 * a.shape[0] + _sytrd_lwork(a.shape[0])
        values, vecs, info = scipy.linalg.lapack.dsyevd(
            a, compute_v=0, lower=1, lwork=lwork
        )
    if info != 0:
        raise np.linalg.LinAlgError(f"syevd did not converge (info={info})")
    return (values, vecs) if vectors else values


def _sytrd_lwork(n):
    """The workspace of an n by n ``sytrd`` that runs blocked, with level-3
    BLAS: about half as long as unblocked at n = 1775, and it changes the
    last bits."""
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
    return max(int(lwork), 1)


def sym_generalized_eigvals(a, factor, count=None):
    """Eigenvalues of ``a x = lam b x`` with symmetric ``a`` and SPD ``b``.

    ``b`` enters as its lower Cholesky ``factor`` from
    :func:`cholesky_spd`, so a pencil family with one ``b`` factors it
    once.  LAPACK ``sygst`` reduces the pencil to standard form, and
    ``syevd`` with its minimal workspace (or ``syevx`` for only the
    ``count`` smallest) gives the eigenvalues ascending, bit for bit
    those of the drivers ``sygvd`` / ``sygvx``.  Only the lower triangle
    of ``a`` is read, so ``a`` must be exactly symmetric: forms checked
    by ``TrialForms`` and the shifted combinations of them are.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    if not np.isfinite(a).all():
        raise NonFiniteError("array must not contain infs or NaNs")
    c, _ = scipy.linalg.lapack.dsygst(a, factor, lower=1)
    if count is None or count >= n:
        values, _, info = scipy.linalg.lapack.dsyevd(c, compute_v=0, lower=1)
        m = n
    else:
        lwork, _ = scipy.linalg.lapack.dsyevx_lwork(n, lower=1)
        values, _, m, _, info = scipy.linalg.lapack.dsyevx(
            c, compute_v=0, range="I", lower=1, il=1, iu=count, lwork=int(lwork)
        )
    if info != 0:
        raise np.linalg.LinAlgError(f"syevd/syevx did not converge (info={info})")
    return values[:m]


def definite_pencil_eigh(a, b, sigma):
    """Eigenvalues of ``a x = lam b x`` once ``b`` is certified definite,
    its eigenvectors on demand.

    The certificate is a successful LAPACK ``potrf`` of ``b - sigma I``:
    by Sylvester's law of inertia it proves that every eigenvalue of
    ``b`` exceeds ``sigma``, up to the backward error of ``potrf``.  The
    pencil is then reduced through the Cholesky factor ``L`` of ``b``:
    ``sygst`` forms ``C = L^{-1} a L^{-T}`` and :func:`_reduce` gives its
    eigenvalues, bit for bit those of ``sym_eigh(C, vectors=False)``.  A
    vector ``y`` of C asked for later is back-transformed by BLAS
    ``trsm`` to ``L^{-T} y``: the vectors are ``b``-orthonormal.

    Returns a :class:`TridiagonalEigen`, or ``None`` when the
    certificate fails.  Only the lower triangles are read, so ``a`` and
    ``b`` must be exactly symmetric.

    Raises
    ------
    NonFiniteError
        If ``a`` or ``b`` holds an inf or a NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError("array must not contain infs or NaNs")
    n = b.shape[0]
    if n == 0:
        return _reduce(b, None)
    factor = b.copy(order="F")
    factor[np.diag_indices(n)] -= sigma
    _, info = scipy.linalg.lapack.dpotrf(factor, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    # the certificate's buffer takes the factor of b; potrf and sygst read
    # its lower triangle only
    factor[...] = b
    _, info = scipy.linalg.lapack.dpotrf(factor, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    c, _ = scipy.linalg.lapack.dsygst(a, factor, lower=1)
    eigen = _reduce(c, None)
    # the factor's transpose fills the triangle sytrd leaves unused
    np.copyto(eigen.packed, factor.T, where=np.tri(n, dtype=bool).T)
    return eigen


def projected_eigh(a, basis):
    """Eigenvalues of the symmetric ``a`` projected onto the columns of
    ``basis``, the eigenvectors of the projection on demand.

    The projection ``C = basis' a basis`` goes through :func:`_reduce`,
    and a vector ``y`` of C asked for later is returned as ``basis @ y``:
    for a basis orthonormal in the metric of some ``b``, the eigenpairs
    of the pencil ``(a, b)`` restricted to its span.
    """
    return _reduce(symmetrize(basis.T @ a @ basis), basis)


def _reduce(c, basis):
    """The :class:`TridiagonalEigen` of the symmetric ``c`` (its lower
    triangle, overwritten) and a back-transform ``basis``.

    LAPACK ``sytrd`` reduces ``c`` to a tridiagonal T and ``sterf`` gives
    the eigenvalues of each unreduced block of T (split where its
    subdiagonal is exactly 0), merged ascending with equal values in
    block order: bit for bit those of ``sym_eigh(c, vectors=False)``,
    since ``syevd`` without vectors runs the same two routines with the
    same workspace and ``sterf`` splits T there too, except that
    ``syevd`` first rescales a matrix whose largest entry lies outside
    about ``[1e-146, 1e146]``.
    """
    n = c.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return TridiagonalEigen(
            empty, np.zeros(0, dtype=int), empty, empty, empty, np.zeros((0, 0)), basis
        )
    packed, d, e, reflectors, info = scipy.linalg.lapack.dsytrd(
        c, lower=1, lwork=_sytrd_lwork(n), overwrite_a=1
    )
    if info != 0:
        raise ValueError(f"sytrd rejected argument {-info}")
    starts, stops = _blocks(e)
    values = np.concatenate(
        [_sterf(d[a:b], e[a : b - 1]) for a, b in zip(starts, stops)]
    )
    blocks = np.repeat(np.arange(len(starts)), np.subtract(stops, starts))
    order = np.argsort(values, kind="stable")
    return TridiagonalEigen(
        values[order], blocks[order], d, e, reflectors, packed, basis
    )


def _blocks(e):
    """Starts and stops, as lists, of the unreduced blocks of a
    tridiagonal matrix with subdiagonal ``e``."""
    splits = (np.flatnonzero(e == 0.0) + 1).tolist()
    return [0] + splits, splits + [e.size + 1]


def _sterf(d, e):
    """LAPACK ``sterf``: all eigenvalues of the tridiagonal ``(d, e)``."""
    if d.size == 1:  # sterf's wrapper takes no empty e
        return d.copy()
    values, info = scipy.linalg.lapack.dsterf(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(f"sterf did not converge (info={info})")
    return values


@dataclass(eq=False)
class TridiagonalEigen:
    """All eigenvalues of a symmetric (or definite) eigenproblem, and what
    its eigenvectors need, computed only on demand by :meth:`vectors`.

    ``values`` ascending, ``blocks`` the index of the unreduced block of T
    each belongs to.  ``d`` and ``e`` are the diagonal and subdiagonal of
    the tridiagonal T that ``sytrd`` reduced the standard matrix to,
    ``reflectors`` the scalar factors of its Householder reflectors.
    ``packed`` is one n by n array holding those reflectors' vectors below
    its first subdiagonal and, where ``basis`` is ``None``, the transpose
    of the Cholesky factor of the pencil's right-hand matrix on and above
    its diagonal (:func:`definite_pencil_eigh`).  Otherwise ``basis``
    holds the columns the standard problem was projected onto
    (:func:`projected_eigh`).
    """

    values: np.ndarray
    blocks: np.ndarray
    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    packed: np.ndarray = field(repr=False)
    basis: object = field(default=None, repr=False)

    def vectors(self, count, top=False):
        """Eigenvector columns of the ``count`` smallest values, ascending,
        or with ``top`` of the ``count`` largest, descending.

        LAPACK ``stein`` computes each by inverse iteration on T, then
        ``ormqr`` applies the reflectors and the back-transform of
        :class:`TridiagonalEigen` follows.  A column does not depend on
        how many after it are asked for:

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
        problem (``b`` of :func:`definite_pencil_eigh`).

        Raises
        ------
        numpy.linalg.LinAlgError
            If inverse iteration does not converge.
        """
        n = self.d.size
        count = min(count, n)
        if count == 0:
            return np.zeros((n if self.basis is None else self.basis.shape[0], 0))
        bounds = [0, 1]
        while bounds[-1] < count:
            bounds.append(min(2 * bounds[-1], n))
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
        d, e, values, blocks = self.d, self.e, self.values, self.blocks
        if top:
            d, e, values, blocks = -d, -e, -values[::-1], blocks[::-1]
        values, blocks = values[:count], blocks[:count]
        starts, stops = _blocks(e)
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
            z[1:], _, info = scipy.linalg.lapack.dormqr(
                "L", "N", householder, self.reflectors, z[1:], lwork
            )
            if info != 0:
                raise ValueError(f"ormqr rejected argument {-info}")
        if self.basis is not None:
            return self.basis @ z
        # the BLAS trsm, not LAPACK trtrs: OpenBLAS's trtrs can take
        # milliseconds on a 2 x 2 system when it runs threaded
        return scipy.linalg.blas.dtrsm(1.0, self.packed, z, lower=0, overwrite_b=1)


def _stein(d, e, values):
    """LAPACK ``stein``: eigenvectors of the unreduced tridiagonal
    ``(d, e)`` at its eigenvalues ``values``, ascending."""
    size = d.size
    if size == 1:  # stein's wrapper takes no empty e
        return np.ones((1, values.size), order="F")
    z, info = scipy.linalg.lapack.dstein(
        d, e, values, np.ones(size, dtype=int), np.full(size, size)
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"stein did not converge (info={info})")
    return z


@dataclass
class PsdEigen:
    """Classified eigendecomposition of a positive semidefinite matrix.

    ``values`` ascending with orthonormal ``vectors`` columns; the first
    ``k`` of them span the numerical kernel and the rest its orthogonal
    complement.  ``norm`` is the 2-norm, ``max |values|``.
    """

    values: np.ndarray
    vectors: np.ndarray
    k: int
    norm: float


def psd_eigh(m, tol=DEFAULT_TOL):
    """One eigendecomposition of a PSD matrix, kernel classified.

    Eigenvalues at or below ``tol * max(1, ||m||_2)`` count as zero.
    Only the lower triangle of ``m`` is read, so ``m`` must be exactly
    symmetric, as the shifted combinations of checked forms are.

    Raises
    ------
    NegativeEigenvalueError
        If the smallest eigenvalue lies below ``-tol * ||m||_2``; a PSD
        matrix cannot do that except through corrupted input.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if n == 0:
        return PsdEigen(np.zeros(0), np.zeros((0, 0)), 0, 0.0)
    values, vectors = sym_eigh(a)
    norm = float(max(abs(values[0]), abs(values[-1])))
    if values[0] < -tol * norm:
        raise NegativeEigenvalueError(values[0], tol * norm)
    k = int(np.count_nonzero(values <= tol * max(1.0, norm)))
    return PsdEigen(values, vectors, k, norm)
