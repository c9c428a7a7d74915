"""Trial-subspace form matrices and their shifted combinations.

A trial subspace for a self-adjoint operator A is handed to this package
as three Gram-type matrices over a basis ``b_1 .. b_n`` inside the
operator domain:

* ``M0[i, j] = <b_i, b_j>`` (the Gram matrix, positive definite),
* ``M1[i, j] = <A b_i, b_j>``,
* ``M2[i, j] = <A b_i, A b_j>`` (positive semidefinite).

Everything the bound machinery needs is algebra on these three matrices.
For a real shift t the quadratic form of ``(A - t)^2`` has matrix
``Q_t = M2 - 2 t M1 + t^2 M0`` and the form of ``A - t`` has matrix
``L_t = M1 - t M0``.

The module also reads and writes the plain-text ``.forms`` exchange
format so externally assembled matrices can be certified by the same
pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .errors import FormsFormatError, InconsistentFormsError
from .linalg import (
    DEFAULT_TOL,
    _checked_potrf,
    check_symmetric,
    sym_eigh,
    sym_generalized_eigvals,
    symmetrize,
)


@dataclass(frozen=True, eq=False)
class TrialForms:
    """The three form matrices of a trial subspace and their tolerance.

    ``tol`` is the relative tolerance of every numerical-zero decision on
    these forms: M0's definiteness, the kernel of Q_t, zero tau and the
    counting function's roundoff floor.  Construction validates shapes,
    exact symmetry, ``tol`` and M0's definiteness.  The forms compute
    once what depends on no shift (M0's Cholesky factor, the Ritz values
    of (M1, M0), the consistency test, the nonzero pattern the shifted
    forms are built on) and keep their last pencil solve and the last
    F_j(t) a fixed-point root solved at its shift t, so callers reading
    one shift (the end two touching windows share, both sides of a
    fixed-point audit) solve it once.  The caches rely on the forms
    being immutable, so they are: the fields cannot be assigned and M0,
    M1, M2 are read-only copies, which writes to the caller's arrays do
    not reach.  Build new forms instead, e.g. with
    ``dataclasses.replace``.  Forms compare equal only to themselves.
    """

    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        # dtype is preserved: models may assemble in extended precision
        for name in ("M0", "M1", "M2"):
            own = check_symmetric(getattr(self, name), name).copy()
            own.flags.writeable = False
            object.__setattr__(self, name, own)
        if not (self.M0.shape == self.M1.shape == self.M2.shape):
            raise ValueError("M0, M1, M2 must share one shape")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol:g}")
        # the Gram matrix must be SPD, at tol and never below DEFAULT_TOL;
        # M0 was checked above, so the factor skips cholesky_spd's check
        factor = _checked_potrf(self.M0, max(self.tol, DEFAULT_TOL))
        factor.flags.writeable = False
        object.__setattr__(self, "_factor", factor)
        pattern = np.nonzero((self.M0 != 0) | (self.M1 != 0) | (self.M2 != 0))
        for index in pattern:
            index.flags.writeable = False
        object.__setattr__(self, "_pattern", pattern)
        # "ritz", "schur_min", the last "pencil" (t, PencilEigen) and the
        # last "counting" ((t, j), F_j(t)) of a fixed-point root
        object.__setattr__(self, "_kept", {})

    @property
    def n(self):
        return self.M0.shape[0]

    def factor(self):
        """M0's lower Cholesky factor, computed at construction; read-only."""
        return self._factor

    def pattern(self):
        """Row and column indices, row-major, of the entries nonzero in
        M0, M1 or M2: every entry a combination of the forms can make
        nonzero.  Computed at construction; read-only."""
        return self._pattern

    def ritz(self):
        """Ritz values of the pencil ``(M1, M0)``, ascending, solved once; read-only."""
        if "ritz" not in self._kept:
            ritz = sym_generalized_eigvals(self.M1, self._factor)
            ritz.flags.writeable = False
            self._kept["ritz"] = ritz
        return self._kept["ritz"]

    def validate(self):
        """Check that the forms are consistent, exactly.

        Forms built from one self-adjoint operator have a positive
        semidefinite Schur complement ``S = M2 - M1 M0^{-1} M1``: it is
        the Gram matrix of the parts of the ``A b_i`` orthogonal to the
        trial space.  Conversely ``S >= 0`` makes every shifted form
        ``Q_t = S + L_t M0^{-1} L_t`` positive semidefinite, so this one
        test covers all shifts with no sampling.  An eigenvalue of S
        below ``-max(tol, n u)`` times the largest diagonal entry of M2
        fails it; u is the double unit roundoff, n u S's roundoff floor.
        That eigenvalue is computed once.  Raises ``InconsistentFormsError``
        (a ``ValueError``) on failure and returns the forms otherwise.
        """
        if "schur_min" not in self._kept:
            m1 = np.array(self.M1, dtype=float, order="F")
            x = scipy.linalg.blas.dtrsm(1.0, self._factor, m1, lower=1, overwrite_b=1)
            s = self.M2.astype(float, copy=False) - x.T @ x
            self._kept["schur_min"] = sym_eigh(symmetrize(s), vectors=False)[0]
        schur_min = self._kept["schur_min"]
        floor = max(self.tol, self.n * np.finfo(float).eps / 2)
        if schur_min < -floor * max(float(np.max(np.diag(self.M2))), 0.0):
            raise InconsistentFormsError(
                f"forms fail the consistency gate: M2 - M1 M0^-1 M1 has negative "
                f"eigenvalue {schur_min:.3e}; the input forms look corrupted"
            )
        return self


def shifted_square(forms, t):
    """The values of ``Q_t = M2 - 2t M1 + t^2 M0`` on the forms' pattern
    (:meth:`TrialForms.pattern`), in the precision of the forms (``t^2``
    is squared in it too).  Every other entry of Q_t is +0, and as an
    entrywise combination of symmetric forms Q_t is exactly symmetric."""
    tt = forms.M0.dtype.type(t)
    m0, m1, m2 = (m[forms.pattern()] for m in (forms.M0, forms.M1, forms.M2))
    return m2 - (2.0 * tt) * m1 + (tt * tt) * m0


def shifted_linear(forms, t):
    """The values of ``L_t = M1 - t M0`` on the forms' pattern, as
    :func:`shifted_square` gives those of Q_t."""
    m0, m1 = (m[forms.pattern()] for m in (forms.M0, forms.M1))
    return m1 - forms.M0.dtype.type(t) * m0


def _on_pattern(forms, values):
    """The double n by n matrix LAPACK reads: ``values`` on the forms'
    pattern, rounded to double, +0 off it."""
    out = np.zeros((forms.n, forms.n))
    out[forms.pattern()] = values
    return out


def scatter(n, *blocks):
    """Sum element matrices into an ``n`` by ``n`` zero matrix of their dtype.

    Each block is ``(values, rows, cols)``: ``values[e]`` is the matrix
    of element ``e`` over the global rows ``rows[e]`` and columns
    ``cols[e]``; a matrix shared by all elements broadcasts.  One
    ``np.add.at`` per block on the flattened matrix adds the elements in
    order, so every entry sees the additions an element loop makes, and
    exactly symmetric element matrices sum to an exactly symmetric matrix.
    """
    out = np.zeros(n * n, dtype=np.result_type(*(block[0] for block in blocks)))
    for values, rows, cols in blocks:
        np.add.at(out, rows[:, :, None] * n + cols[:, None, :], values)
    return out.reshape(n, n)


def operator_forms(operator, basis, gram=None):
    """Build :class:`TrialForms` from an explicit symmetric operator.

    Parameters
    ----------
    operator : (N, N) array_like
        Dense symmetric matrix representing A.
    basis : (N, n) array_like
        Columns span the trial subspace.
    gram : (N, N) array_like, optional
        Inner-product matrix of the ambient space; Euclidean if omitted.

    Notes
    -----
    Useful for worked models where A is known exactly: the three form
    matrices are then consistent by construction, which makes the result
    a convenient oracle.
    """
    a = check_symmetric(operator, "operator")
    w = np.atleast_2d(np.asarray(basis, dtype=float))
    if w.shape[0] != a.shape[0]:
        raise ValueError("basis rows must match operator size")
    aw = a @ w
    if gram is None:
        m0 = w.T @ w
        m1 = w.T @ aw
        m2 = aw.T @ aw
    else:
        g = check_symmetric(gram, "gram")
        m0 = w.T @ g @ w
        m1 = w.T @ g @ aw
        m2 = aw.T @ g @ aw
    return TrialForms(symmetrize(m0), symmetrize(m1), symmetrize(m2))


# ----------------------------------------------------------------------
# .forms plain-text exchange format
#
#   line 1:   n
#   sections: %M0, %M1, %M2, each followed by "i j value" entries
#             (1-based indices, upper triangle, omitted entries are zero)
# ----------------------------------------------------------------------

_SECTIONS = ("%M0", "%M1", "%M2")


def write_forms(forms, path):
    """Write trial forms to a ``.forms`` text file.

    Values are written with :func:`repr`, the shortest decimal string
    that round-trips the IEEE double exactly, so a read-back reproduces
    the matrices bit for bit.
    """
    lines = [str(forms.n)]
    for tag, m in zip(_SECTIONS, (forms.M0, forms.M1, forms.M2)):
        lines.append(tag)
        for i in range(forms.n):
            for j in range(i, forms.n):
                if m[i, j] != 0.0:
                    # extended-precision entries round to double here;
                    # the format carries at most 17 significant digits
                    lines.append(f"{i + 1} {j + 1} {float(m[i, j])!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_forms(path):
    """Parse a ``.forms`` text file into :class:`TrialForms`.

    Raises
    ------
    FormsFormatError
        With the offending line number on any malformed content.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        raw = fh.readlines()
    for no, line in enumerate(raw, 1):
        if not line.isascii():
            raise FormsFormatError(no, "non-ASCII byte")

    lines = [
        (no + 1, line.strip()) for no, line in enumerate(raw) if line.strip()
    ]
    if not lines:
        raise FormsFormatError(1, "empty file")

    no, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise FormsFormatError(no, f"expected the dimension, got {head!r}")
    if n < 1:
        raise FormsFormatError(no, f"dimension must be positive, got {n}")
    # a positive definite M0 alone lists n entries, its diagonal
    entries = sum(not line.startswith("%") for _, line in lines[1:])

    matrices = {}
    current = None
    for no, line in lines[1:]:
        if line.startswith("%"):
            if line not in _SECTIONS:
                raise FormsFormatError(no, f"unknown section {line!r}")
            if line in matrices:
                raise FormsFormatError(no, f"duplicate section {line!r}")
            if n > entries:  # refused before allocating n^2 values
                raise FormsFormatError(
                    lines[0][0], f"dimension {n} exceeds the {entries} entries listed"
                )
            current = np.zeros((n, n))
            matrices[line] = current
            continue
        if current is None:
            raise FormsFormatError(no, "entry before any %M section")
        parts = line.split()
        if len(parts) != 3:
            raise FormsFormatError(no, f"expected 'i j value', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise FormsFormatError(no, f"malformed entry {line!r}")
        if not np.isfinite(value):
            raise FormsFormatError(no, f"non-finite value in {line!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormsFormatError(no, f"index ({i}, {j}) out of range 1..{n}")
        current[i - 1, j - 1] = value
        current[j - 1, i - 1] = value

    for tag in _SECTIONS:
        if tag not in matrices:
            raise FormsFormatError(len(raw), f"missing section {tag}")

    return TrialForms(matrices["%M0"], matrices["%M1"], matrices["%M2"])
