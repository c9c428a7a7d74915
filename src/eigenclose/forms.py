"""Trial-subspace form matrices and their shifted combinations.

A trial subspace for a self-adjoint operator A is handed to this package
as three Gram-type matrices over a basis ``b_1 .. b_n`` inside the
operator domain:

* ``M0[i, j] = <b_i, b_j>`` (the Gram matrix, positive definite),
* ``M1[i, j] = <A b_i, b_j>``,
* ``M2[i, j] = <A b_i, A b_j>`` (positive semidefinite).

Everything the bound machinery needs is algebra on these three matrices.
For real z and w the form of ``(A - z)(A - w)`` has matrix
``P(z, w) = M2 - (z + w) M1 + z w M0``, and its number of eigenvalues
<= 0, ``N(z, w)``, is a lower bound on the number of spectral points in
[z, w] (:func:`detected_count`).  For a shift t the form of ``(A - t)^2``
is ``Q_t = P(t, t)`` and that of ``A - t`` is ``L_t = M1 - t M0``.

The forms are stored on the pattern of the entries nonzero in any of
them, one vector of values per form.  Dense matrices are built on
demand: in double where LAPACK reads one, read-only as ``M0``, ``M1``,
``M2``.

The module also reads and writes the plain-text ``.forms`` exchange
format so externally assembled matrices can be certified by the same
pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormsFormatError, InconsistentFormsError, NonFiniteError
from .linalg import (
    DEFAULT_TOL,
    _checked_potrf,
    check_symmetric,
    count_nonpositive,
    graded_eigvals,
    placed,
    sym_generalized_eigvals,
    symmetrize,
)


@dataclass(frozen=True, eq=False, init=False)
class TrialForms:
    """The three form matrices of a trial subspace and their tolerance.

    ``tol`` is the relative tolerance of every numerical-zero decision on
    these forms: M0's definiteness, the kernel of Q_t, zero tau and the
    counting function's roundoff floor.  The forms store their values on
    the nonzero pattern (:meth:`pattern`), each in its own precision, and
    check ``tol``, the mirrored entries' symmetry and M0's definiteness.
    They compute once what depends on no shift (M0's Cholesky factor, the
    Ritz values of (M1, M0), the consistency test, the grading) and keep
    their last pencil solve and the count N(t, t) a fixed-point root
    read at its shift t, so callers reading one shift (the end two
    touching windows share, every root of a fixed-point audit at one
    shift) evaluate it once.  On graded forms (:meth:`grading`) the kept
    solve at t also serves a read at -t.
    The caches rely on the forms being immutable, so they are: the
    fields cannot be assigned, and M0, M1, M2 are read-only dense arrays
    built on each read.  Build new forms instead, e.g. with
    ``dataclasses.replace``.
    Forms compare equal only to themselves.
    """

    # the fields dataclasses.replace builds new forms from
    M0: np.ndarray = property(lambda self: self._dense(0))
    M1: np.ndarray = property(lambda self: self._dense(1))
    M2: np.ndarray = property(lambda self: self._dense(2))
    tol: float = DEFAULT_TOL

    def __init__(self, M0, M1, M2, tol=DEFAULT_TOL):
        # each array checked square and exactly symmetric; the dtype is
        # kept, as forms may come in extended precision
        dense = [check_symmetric(m, f"M{k}") for k, m in enumerate((M0, M1, M2))]
        if not (dense[0].shape == dense[1].shape == dense[2].shape):
            raise ValueError("M0, M1, M2 must share one shape")
        pattern = np.nonzero((dense[0] != 0) | (dense[1] != 0) | (dense[2] != 0))
        self._store(dense[0].shape[0], *pattern, [m[pattern] for m in dense], tol)

    @classmethod
    def _from_pattern(cls, n, rows, cols, *values, tol=DEFAULT_TOL):
        """Forms holding ``values``, one vector per form, on the distinct
        entries ``(rows, cols)``, in any order, and +0 off them."""
        forms = object.__new__(cls)
        forms._store(n, rows, cols, values, tol)
        return forms

    def _store(self, n, rows, cols, values, tol):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {tol:g}")
        for k, v in enumerate(values):
            if not np.isfinite(v).all():
                raise NonFiniteError(f"M{k} holds an inf or a NaN")
        # row-major, without the entries zero in all three forms; the
        # stable sort is one pass over input already row-major (scatter's)
        keep = np.flatnonzero((values[0] != 0) | (values[1] != 0) | (values[2] != 0))
        keep = keep[np.argsort(rows[keep] * n + cols[keep], kind="stable")]
        rows, cols, *values = (a[keep] for a in (rows, cols, *values))
        # symmetry in O(nnz), on the pairs of mirrored entries
        mirror = _mirror(n, rows, cols)
        pairs = [(rows, cols), (cols, rows), *zip(values, values)]
        if not all(np.array_equal(a, b[mirror]) for a, b in pairs):
            raise ValueError("the forms are not symmetric as stored")
        # frozen: the state is set in the instance dict.  "ritz",
        # "gate" (the consistency gate's count and threshold c),
        # "grading", the last "pencil" (t, PencilEigen) and the last
        # "counting" (t, N(t, t)) of a fixed-point root are _kept
        state = vars(self)
        state.update(tol=tol, n=n, _pattern=(rows, cols), _values=tuple(values), _kept={})
        # the Gram matrix must be SPD, at tol and never below DEFAULT_TOL;
        # M0 was checked above, so the factor skips cholesky_spd's check
        m0 = _on_pattern(self, values[0])
        state["_factor"] = _checked_potrf(m0, max(tol, DEFAULT_TOL))
        for a in (rows, cols, *values, self._factor):
            a.flags.writeable = False

    def _dense(self, k):
        out = _on_pattern(self, self._values[k], self._values[k].dtype)
        out.flags.writeable = False
        return out

    def factor(self):
        """M0's lower Cholesky factor, computed at construction; read-only."""
        return self._factor

    def pattern(self):
        """Row and column indices, row-major, of the entries nonzero in
        M0, M1 or M2: every entry a combination of the forms can make
        nonzero, and the entries the forms are stored on.  Read-only."""
        return self._pattern

    def ritz(self):
        """Ritz values of the pencil ``(M1, M0)``, ascending, solved once;
        read-only.

        On graded forms (:meth:`grading`) they are ``+-sigma_i`` of one
        half-size block and ``|n_+ - n_-|`` exact zeros, exactly
        symmetric, from the stored values with no n-size solve
        (:func:`~eigenclose.linalg.graded_eigvals`).  Other forms reduce
        the pencil by M0's factor
        (:func:`~eigenclose.linalg.sym_generalized_eigvals`).
        """
        if "ritz" not in self._kept:
            signs = self.grading()
            if signs is None:
                m1 = placed(self._values[1], *self._pattern, (self.n, self.n))
                ritz = sym_generalized_eigvals(m1, self._factor)
            else:
                ritz = graded_eigvals(
                    self._values[1], self._values[0], self._pattern, signs
                )
            ritz.flags.writeable = False
            self._kept["ritz"] = ritz
        return self._kept["ritz"]

    def grading(self):
        """The grading of the forms, worked out once: the sign vector J,
        ``+1.0`` or ``-1.0`` per coordinate, with ``J M0 J = M0``,
        ``J M2 J = M2`` and ``J M1 J = -M1`` entry by entry, or None
        where there is none (:func:`_grading`).  Forms of a block
        operator with zero diagonal blocks, as both models are, are
        graded, so ``Q_{-t} = J Q_t J`` and ``L_{-t} = -J L_t J`` hold bit
        for bit and the pencil at -t is that at t mirrored.  Read-only.
        """
        if "grading" not in self._kept:
            self._kept["grading"] = _grading(self.n, *self._pattern, self._values)
        return self._kept["grading"]

    def validate(self):
        """Check that the forms are consistent, exactly.

        Forms built from one self-adjoint operator have a positive
        semidefinite Schur complement ``S = M2 - M1 M0^{-1} M1``: it is
        the Gram matrix of the parts of the ``A b_i`` orthogonal to the
        trial space.  Conversely ``S >= 0`` makes every shifted form
        ``Q_t = S + L_t M0^{-1} L_t`` positive semidefinite, so this one
        test covers all shifts with no sampling.  An eigenvalue of S
        below ``-c``, c being ``max(tol, n u)`` times the largest diagonal
        entry of M2, fails it; u is the double unit roundoff, n u S's
        roundoff floor.  The test is decided once, from the forms rounded
        to double, with no eigenvalue and no S formed: M0 is definite, so
        by Haynsworth's inertia additivity the bordered matrix
        ``[[M0, M1], [M1, M2 + c I]]`` has as many eigenvalues <= 0 as
        ``S + c I``, and one LDL' inertia count of it
        (:func:`~eigenclose.linalg.count_nonpositive`) counts them.
        Raises ``InconsistentFormsError`` (a ``ValueError``) on failure
        and returns the forms otherwise.
        """
        if "gate" not in self._kept:
            floor = max(self.tol, self.n * np.finfo(float).eps / 2)
            n, (rows, cols) = self.n, self._pattern
            # M0 is definite, so the whole diagonal is on the pattern
            diagonal = rows == cols
            m0, m1, m2 = (v.astype(float) for v in self._values)
            threshold = floor * max(float(np.max(m2[diagonal])), 0.0)
            # the double above c: an eigenvalue at -c, and S = 0 where c
            # is 0, pass
            m2[diagonal] += np.nextafter(threshold, np.inf)
            bordered = (
                np.concatenate([rows, rows, rows + n, rows + n]),
                np.concatenate([cols, cols + n, cols, cols + n]),
            )
            below = count_nonpositive(np.concatenate([m0, m1, m1, m2]), 2 * n, bordered)
            self._kept["gate"] = below, threshold
        below, threshold = self._kept["gate"]
        if below:
            raise InconsistentFormsError(
                f"forms fail the consistency gate: M2 - M1 M0^-1 M1 has {below} "
                f"negative eigenvalue{'s' if below > 1 else ''} below "
                f"{-threshold:.3e}; the input forms look corrupted"
            )
        return self


def _mirror(n, rows, cols):
    """The index of each entry's transpose in a symmetric row-major n by n
    pattern: the order that sorts the pattern column-major."""
    return np.argsort(cols * n + rows, kind="stable")


def _grading(n, rows, cols, values):
    """The sign vector J of the forms holding ``values`` on the pattern
    ``(rows, cols)``, or None (see :meth:`TrialForms.grading`).

    J 2-colours the doubled graph of the pattern, whose node i is
    coordinate i at sign +1 and node n + i the same at -1: an entry
    nonzero in M0 or M2 joins equal signs, one nonzero in M1 opposite
    signs.  The components are found by hooking each one's root onto the
    least root it meets and pointer jumping, until every edge lies in one
    component; each root is its component's least node, and J is +1
    where coordinate i's +1 node has the lesser root.  Every stored
    entry is then checked against J, M1's diagonal too: an odd cycle of
    the graph (i at both signs in one component) fails the check.
    """
    m0, m1, m2 = (v != 0 for v in values)
    even = m0 | m2
    # each edge once, from the upper triangle: an even one joins i and j
    # at both signs, an odd one i at each sign and j at the other
    upper = rows < cols
    ei, ej = rows[even & upper], cols[even & upper]
    oi, oj = rows[m1 & upper], cols[m1 & upper]
    a = np.concatenate([ei, ei + n, oi, oi + n])
    b = np.concatenate([ej, ej + n, oj + n, oj])
    root = np.arange(2 * n)
    while True:
        ends = root[a], root[b]
        if np.array_equal(*ends):
            break
        np.minimum.at(root, np.maximum(*ends), np.minimum(*ends))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    signs = np.where(root[:n] < root[n:], 1.0, -1.0)
    flipped = signs[rows] != signs[cols]
    if (m1 & ~flipped).any() or (even & flipped).any():
        return None
    signs.flags.writeable = False
    return signs


def shifted_product(forms, z, w):
    """The values of ``P(z, w) = M2 - (z + w) M1 + z w M0``, the form of
    ``(A - z)(A - w)``, on the forms' pattern (:meth:`TrialForms.pattern`),
    in the precision of the forms.  P is formed as ``Q_h - d^2 M0``, h the
    midpoint of [z, w] and d its half-width, every scalar and product
    rounded in that precision: the matrix a Davies-Plum root at the shift
    s = h counts at alpha = d (:mod:`~eigenclose.fixed_point`), rounded as
    ``Q_s - alpha^2 M0`` is.  On a residual flat to rounding the count at
    a predicted bracket end turns on the last bit of an entry, and formed
    with ``z w`` P misses predictions that this form meets.  Every other
    entry of P is +0; as an entrywise combination of symmetric forms P is
    exactly symmetric, and it is symmetric in z and w bit for bit.
    ``Q_t = P(t, t)`` (h = t, d = 0) has the values of
    ``M2 - 2t M1 + t^2 M0``."""
    m0, m1, m2 = forms._values
    zz, ww = m0.dtype.type(z), m0.dtype.type(w)
    h, d = (zz + ww) / 2, (ww - zz) / 2
    return m2 - (2 * h) * m1 + (h * h) * m0 - (d * d) * m0


def detected_count(forms, z, w):
    """``N(z, w)``, the number of eigenvalues <= 0 of ``P(z, w)``
    (:func:`shifted_product`), rounded once to double and counted by one
    LDL' inertia count (:func:`~eigenclose.linalg.count_nonpositive`).

    P is the compression of ``(A - z)(A - w)`` to the trial space, so by
    min-max ``N(z, w) >= j`` shows that [z, w] holds at least j spectral
    points of the operator, whatever the trial space.  Raises
    ``NonFiniteError`` where P overflows double.
    """
    # an overflow is reported once, as count_nonpositive's typed error
    with np.errstate(over="ignore", invalid="ignore"):
        values = shifted_product(forms, z, w).astype(float, copy=False)
    return count_nonpositive(values, forms.n, forms.pattern())


def shifted_linear(forms, t):
    """The values of ``L_t = M1 - t M0`` on the forms' pattern, as
    :func:`shifted_product` gives those of P(z, w)."""
    m0, m1, _ = forms._values
    return m1 - m0.dtype.type(t) * m0


def _on_pattern(forms, values, dtype=float):
    """The n by n matrix of ``dtype`` holding ``values`` on the forms'
    pattern and +0 off it; in double, the matrix LAPACK reads."""
    out = np.zeros((forms.n, forms.n), dtype)
    out[forms.pattern()] = values
    return out


def scatter(n, *forms):
    """Sum the element matrices of n by n forms on the entries they reach.

    Each form is a sequence of blocks ``(values, rows, cols)``:
    ``values[e]`` is the matrix of element ``e`` over the global rows
    ``rows[e]`` and columns ``cols[e]``; a matrix shared by all elements
    broadcasts.  Returns ``(rows, cols)``, row-major, of every entry any
    block reaches, and each form's sums there in the dtype of its values.
    Each sum starts at +0 and one ``np.add.at`` per block adds the
    elements in order: the additions, in the order, of an element loop
    into a dense zero matrix.
    """
    keys = [[r[:, :, None] * n + c[:, None, :] for _, r, c in form] for form in forms]
    # the distinct keys, by a sort: np.unique's hashing is slower here,
    # and the default kind pages in 0.3 MB of SIMD code no other sort uses
    pattern = np.concatenate([k.ravel() for form in keys for k in form])
    pattern.sort(kind="stable")
    pattern = pattern[np.append(True, pattern[1:] != pattern[:-1])]
    sums = []
    for form, form_keys in zip(forms, keys):
        out = np.zeros(pattern.size, dtype=np.result_type(*(block[0] for block in form)))
        for (values, _, _), k in zip(form, form_keys):
            np.add.at(out, np.searchsorted(pattern, k), values)
        sums.append(out)
    return np.divmod(pattern, n), sums


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
    rows, cols = forms.pattern()
    upper = rows <= cols
    lines = [str(forms.n)]
    for tag, values in zip(_SECTIONS, forms._values):
        # the upper triangle's nonzero entries, row-major; extended
        # precision rounds to double, the format carrying 17 digits
        on = upper & (values != 0)
        entries = zip((rows[on] + 1).tolist(), (cols[on] + 1).tolist(),
                      values[on].astype(float).tolist())
        lines += [tag, *(f"{i} {j} {x!r}" for i, j, x in entries)]
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
            current = {}  # (i, j) with i <= j -> value, 0-based
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
        current[min(i, j) - 1, max(i, j) - 1] = value  # a later entry wins

    for tag in _SECTIONS:
        if tag not in matrices:
            raise FormsFormatError(len(raw), f"missing section {tag}")

    # the listed entries and their mirrors; an entry one form lists and
    # another does not is +0 in the other
    upper = list(set().union(*matrices.values()))
    i, j = np.array(upper, dtype=np.intp).reshape(-1, 2).T
    off = i != j
    values = [np.array([matrices[tag].get(key, 0.0) for key in upper]) for tag in _SECTIONS]
    rows, cols = np.append(i, j[off]), np.append(j, i[off])
    return TrialForms._from_pattern(n, rows, cols, *(np.append(v, v[off]) for v in values))
