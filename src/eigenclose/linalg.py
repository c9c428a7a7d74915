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
* :func:`definite_pencil_eigh`, the eigenpairs of a symmetric pencil
  whose right-hand matrix is certified positive definite past a margin
  by a Cholesky factorization of the shifted matrix (Sylvester's law of
  inertia), or ``None`` where that certificate fails (LAPACK ``potrf``
  twice, ``sygst`` and ``syevd``, then BLAS ``trsm``);
* :func:`psd_eigh`, one classified eigendecomposition of a positive
  semidefinite matrix: it yields the numerical kernel and its
  complement, the check that no eigenvalue is genuinely negative and the
  2-norm at once.  It serves the pencils :func:`definite_pencil_eigh`
  cannot certify.

All tolerances are relative to the matrix scale so the routines behave
identically under rescaling.  LAPACK works in double precision:
extended-precision input is rounded on the way in.
"""

from dataclasses import dataclass

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
    values, vecs, info = scipy.linalg.lapack.dsyevd(
        a, compute_v=int(vectors), lower=1
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"syevd did not converge (info={info})")
    return (values, vecs) if vectors else values


def sym_generalized_eigvals(a, factor, count=None):
    """Eigenvalues of ``a x = lam b x`` with symmetric ``a`` and SPD ``b``.

    ``b`` enters as its lower Cholesky ``factor`` from
    :func:`cholesky_spd`, so a pencil family with one ``b`` factors it
    once.  LAPACK ``sygst`` reduces the pencil to standard form, and
    :func:`sym_eigh` (or ``syevx`` for only the ``count`` smallest)
    gives the eigenvalues ascending, bit for bit those of the drivers
    ``sygvd`` / ``sygvx``.  Only the lower triangle of ``a`` is read, so
    ``a`` must be exactly symmetric: forms checked by ``TrialForms`` and
    the shifted combinations of them are.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    if not np.isfinite(a).all():
        raise NonFiniteError("array must not contain infs or NaNs")
    c, _ = scipy.linalg.lapack.dsygst(a, factor, lower=1)
    if count is None or count >= n:
        return sym_eigh(c, vectors=False)
    lwork, _ = scipy.linalg.lapack.dsyevx_lwork(n, lower=1)
    values, _, m, _, info = scipy.linalg.lapack.dsyevx(
        c, compute_v=0, range="I", lower=1, il=1, iu=count, lwork=int(lwork)
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"syevx did not converge (info={info})")
    return values[:m]


def definite_pencil_eigh(a, b, sigma, columns):
    """Eigenpairs of ``a x = lam b x`` once ``b`` is certified definite.

    The certificate is a successful LAPACK ``potrf`` of ``b - sigma I``:
    by Sylvester's law of inertia it proves that every eigenvalue of
    ``b`` exceeds ``sigma``, up to the backward error of ``potrf``.  The
    pencil is then solved through the Cholesky factor ``L`` of ``b``:
    ``sygst`` forms ``L^{-1} a L^{-T}``, :func:`sym_eigh` gives its
    eigenpairs ``(lam, Y)`` and BLAS ``trsm`` back-transforms
    ``X = L^{-T} Y[:, columns]``, whose columns are ``b``-orthonormal.

    Returns ``(values, vectors)``, all the values ascending and the
    vectors of the values at ``columns`` (an index array, or a slice),
    or ``None`` when the certificate fails.  Only the lower triangles are
    read, so ``a`` and ``b`` must be exactly symmetric.

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
        return np.zeros(0), np.zeros((0, 0))
    probe = b.copy()
    probe[np.diag_indices(n)] -= sigma
    _, info = scipy.linalg.lapack.dpotrf(probe, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    factor, info = scipy.linalg.lapack.dpotrf(b, lower=1, clean=1)
    if info != 0:
        return None
    c, _ = scipy.linalg.lapack.dsygst(a, factor, lower=1)
    values, y = sym_eigh(c)
    # the BLAS trsm, not LAPACK trtrs: OpenBLAS's trtrs can take
    # milliseconds on a 2 x 2 system when it runs threaded
    y = y[:, columns]
    vectors = scipy.linalg.blas.dtrsm(1.0, factor, y, lower=1, trans_a=1, overwrite_b=1)
    return values, vectors


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
