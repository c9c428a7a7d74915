"""Certified spectral enclosures from trial-subspace forms.

The central object is the local counting function of a trial subspace:
at a shift t its j-th value ``F_j(t)`` is the square root of the j-th
smallest eigenvalue of the pencil ``(Q_t, M0)``.  Each value bounds the
distance from t to the j-th nearest spectral point from above, it is
1-Lipschitz in t, and ``t -> t + F_j(t)`` / ``t -> t - F_j(t)`` are
nondecreasing.

Certified one-sided bounds come from the Zimmermann-Mertins pencil
``tau Q_t x = L_t x``: with the negative eigenvalues ``tau^-_1 <= ...``
and the positive ones ``tau^+_1 >= ...``,

* ``t + 1/tau^-_j``  is a lower bound for the j-th spectral point
  below t (counting towards -infinity), and
* ``t + 1/tau^+_j``  is an upper bound for the j-th spectral point
  above t.

Pairing upper bounds computed at the left end of a window with lower
bounds computed at the right end yields two-sided enclosures.  Residual
bounds for the eigenvectors follow from the counting values together
with caller-supplied distances and isolation radii.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DeflationWarning,
    DegenerateShiftError,
    EmptySideError,
    GapViolationError,
    NegativeEigenvalueError,
    NonFiniteError,
)
from .forms import _on_pattern, shifted_linear, shifted_square
from .linalg import TridiagonalEigen, kernel_split, sym_generalized_eigvals, sym_reduce


#: extended precision is worth using only if it genuinely beats double
_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18

#: how many pencil eigenvalues per side get the extended-precision polish
REFINE_COUNT = 32

#: no tau
_NONE = np.zeros(0)
_NONE.flags.writeable = False


@dataclass(frozen=True)
class Signature:
    """Inertia-style census of the shifted pencil at one shift.

    ``n_inf``   dimension of the deflated kernel of Q_t (trial vectors on
                which the shifted operator vanishes identically),
    ``n_zero``  zero eigenvalues of the deflated pencil,
    ``n_minus`` negative eigenvalues (spectrum detected below t),
    ``n_plus``  positive eigenvalues (spectrum detected above t).
    """

    n_inf: int
    n_zero: int
    n_minus: int
    n_plus: int

    @property
    def total(self):
        return self.n_inf + self.n_zero + self.n_minus + self.n_plus


@dataclass(eq=False)
class PencilEigen:
    """Classified eigenvalues of the pencil ``tau Q_t x = L_t x``, read on
    demand, and its eigenvectors on demand.

    ``eigen`` (:class:`~eigenclose.linalg.TridiagonalEigen`) holds the
    solve: the tridiagonal reduction as two vectors and its reflectors,
    in one (n - n_inf) square double array that also holds the pivoted
    Cholesky factor of Q_t, and the index of the n coordinates in pivot
    order, the kept ones first.  No tau is computed until it is read, and
    :meth:`nearest` is the one way to read and polish them: it bisects
    only the k it returns, by the rule of
    :meth:`~eigenclose.linalg.TridiagonalEigen.end_values`, so a tau is
    the same whichever read computed it.  ``tau_minus`` (ascending, most
    negative first, so index j-1 bounds the j-th spectral point below t)
    and ``tau_plus`` (descending) read a whole side, every tau of it
    bisected, and polish nothing more.  Every array read is read-only.
    ``eigen.vectors(k)`` (``eigen.vectors(k, top=True)``) is the one way
    to read eigenvectors: the Q_t-orthonormal coefficient vectors, in the
    full trial basis and zero on the deflated coordinates, of the k
    nearest entries of ``tau_minus`` (``tau_plus``) in their order before
    the polish, which may re-sort near-ties.  Before any tau is read the
    pencil's arrays take 0.60 MB at n = 240 (dirac1d, order 3, 40
    elements), 0.46 MB of it that square array, and 26.4 MB at n = 1775
    (maxwell2d, order 1, nx = 24), 25.2 MB of it the array; each tau
    bisected adds 8 bytes, and 8 more for each one polished.
    ``Qt_values`` and ``Lt_values`` are the values of the shifted forms
    the pencil was solved at on ``pattern``, the forms' nonzero pattern
    (:meth:`TrialForms.pattern`), in the precision of the forms: all
    the polish reads of Q_t and L_t, which are +0 off it.
    ``polished`` counts the polished entries of each side.
    On graded forms the package reads the pencil at t from a solve at -t
    (:func:`_reflected`): its ``eigen`` is then a :class:`_ReflectedEigen`
    of that solve, with the same reads, and only ``Qt_values`` and
    ``Lt_values`` are its own.
    """

    t: float
    signature: Signature
    eigen: TridiagonalEigen = field(repr=False)
    Qt_values: np.ndarray = field(repr=False)
    Lt_values: np.ndarray = field(repr=False)
    pattern: tuple = field(repr=False)
    # each side's polished tau, nearest bound first
    _polished: dict = field(
        init=False, repr=False, default_factory=lambda: {"left": _NONE, "right": _NONE}
    )

    @property
    def polished(self):
        """The number of polished entries of each side, by side."""
        return {side: tau.size for side, tau in self._polished.items()}

    @property
    def tau_minus(self):
        """The negative tau, ascending, polished as far as read so far."""
        return self._read("left", self.signature.n_minus)

    @property
    def tau_plus(self):
        """The positive tau, descending, polished as far as read so far."""
        return self._read("right", self.signature.n_plus)

    def _read(self, side, k):
        """The k nearest tau of one side (all of it where it holds fewer),
        nearest bound first: the polished ones, then those of the solve."""
        k = min(k, self._size(side))
        tau = self._polished[side]
        if k > tau.size:
            rest = self.eigen.end_values(k, top=side == "right")[tau.size :]
            tau = np.concatenate([tau, rest])
            tau.flags.writeable = False
        return tau[:k]

    def _size(self, side):
        """The number of tau on one side."""
        sig = self.signature
        return sig.n_minus if side == "left" else sig.n_plus

    def nearest(self, side, k):
        """The nearest k eigenvalues of one side (all of it where it holds
        fewer), nearest bound first, read-only; only those k are bisected.
        ``side`` is ``"left"`` for ``tau_minus``, ``"right"`` for
        ``tau_plus``.

        The nearest ``min(k, REFINE_COUNT)`` are polished first:
        Rayleigh quotients ``x' L_t x / x' Q_t x`` of the double-precision
        eigenvectors, in longdouble on the stored shifted forms (the
        products by :func:`_pattern_products`), remove the solve roundoff
        from the tight bounds (with forms assembled in extended
        precision, well below the double representation floor of Q_t);
        where longdouble is no genuine extended precision, nothing is
        polished.  Only the vectors of the polished tau are computed
        (:meth:`~eigenclose.linalg.TridiagonalEigen.vectors`), and each
        does not depend on k.  ``polished`` records how many entries of
        each side are polished: a read asking for no more polishes
        nothing, one asking for more polishes the nearest k afresh, so
        near-ties re-sort as if all k were polished at once, among the
        polished entries only.  An unpolished entry that ties the last
        polished one to roundoff stays behind it even when an ulp nearer.
        The quotients are only as good as the eigenvectors, so two solves
        of one pencil that differ in their roundoff may polish a tau a few
        ulps apart (more inside a cluster of equal tau).

        Raises
        ------
        ValueError
            If ``side`` is neither ``"left"`` nor ``"right"``, or k < 0.
        """
        _check_side(side)
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        count = min(k, REFINE_COUNT, self._size(side))
        if _LONGDOUBLE_OK and count > self._polished[side].size:
            top = side == "right"
            x = self.eigen.vectors(count, top).astype(np.longdouble)
            nearest = self.eigen.end_values(count, top).copy()
            lx, qx = _pattern_products(self.pattern, x, self.Lt_values, self.Qt_values)
            num = np.einsum("ij,ij->j", x, lx)
            den = np.einsum("ij,ij->j", x, qx)
            good = den > 0
            nearest[good] = (num[good] / den[good]).astype(float)
            # nearest bound first is largest |tau| first; the polish may
            # nudge near-ties, which re-sort among the polished entries only
            polished = nearest[np.argsort(-np.abs(nearest), kind="stable")]
            polished.flags.writeable = False
            self._polished[side] = polished
        return self._read(side, k)


@dataclass(eq=False)
class _ReflectedEigen:
    """The eigenproblem of ``pencil``, a solve at -t on graded forms
    (:meth:`~eigenclose.forms.TrialForms.grading`, J), read as that of
    the pencil at t.  ``Q_t = J Q_{-t} J`` and ``L_t = -J L_{-t} J``, so
    its eigenvalues are those of ``pencil`` negated and its vectors those
    of ``pencil`` times J: the reads of a
    :class:`~eigenclose.linalg.TridiagonalEigen`, from ``pencil.eigen``
    with its ends swapped, and nothing solved or bisected afresh."""

    pencil: PencilEigen
    grading: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.pencil.eigen.size

    def count(self, x):
        """The number of eigenvalues at or below x."""
        eigen = self.pencil.eigen
        return eigen.size - eigen.count(np.nextafter(-x, -np.inf))

    def end_values(self, count, top=False):
        return -self.pencil.eigen.end_values(count, not top)

    def vectors(self, count, top=False):
        return self.grading[:, None] * self.pencil.eigen.vectors(count, not top)


def _pattern_products(pattern, x, *values):
    """``a @ x`` in longdouble, C-contiguous (n, k), for each ``a``
    holding one of ``values`` on ``pattern`` and +0 off it.

    Per column of x, ``x[cols]`` is gathered once, and a 1-D
    ``np.add.at`` into a contiguous row adds each product's terms in the
    pattern's row-major order: each row is summed from +0 in ascending
    column order, bit for bit the dense non-BLAS longdouble product (the
    zero terms it adds off the pattern leave a sum started at +0 as it
    is).  The result is copied to C order, the dense product's, as the
    summation order of the ``np.einsum`` reading it depends on layout.
    """
    rows, cols = pattern
    values = [np.asarray(v, dtype=np.longdouble) for v in values]
    out = np.zeros((len(values), x.shape[1], x.shape[0]), dtype=np.longdouble)
    for c in range(x.shape[1]):
        gathered = x[cols, c]
        for v, product in zip(values, out[:, c]):
            np.add.at(product, rows, v * gathered)
    return out.transpose(0, 2, 1).copy()


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass
class Enclosure:
    """A certified two-sided enclosure ``[lower, upper]``.

    ``j`` is 1-based in ascending order inside the window;
    ``t_upper_from`` / ``t_lower_from`` record which shifts produced the
    bounds.  ``inconsistent`` flags ``lower > upper`` (the counts on the
    two sides disagreed); such rows are reported, never silently fixed.
    """

    j: int
    lower: float
    upper: float
    t_lower_from: float
    t_upper_from: float
    inconsistent: bool = False

    @property
    def width(self):
        return self.upper - self.lower

    def __contains__(self, value):
        return self.lower <= value <= self.upper


@dataclass
class ResidualBounds:
    """Eigenvector residuals and graph-norm error bounds.

    ``valid`` is False whenever some ``eps[j] >= 1``; the numbers are
    still returned because partial information (the leading valid
    entries) is often useful.
    """

    eps: np.ndarray
    graph_bounds: np.ndarray
    valid: bool


def _side_bounds(pencil, side, k):
    """Bounds ``t + 1/tau`` from the nearest k tau of one side
    (:meth:`PencilEigen.nearest`), nearest first.  ``EmptySideError`` if
    the side is empty."""
    if pencil._size(side) == 0:
        raise EmptySideError(
            f"no spectrum detectable {side} of t={pencil.t:g} in this trial subspace"
        )
    return pencil.t + 1.0 / pencil.nearest(side, k)


def local_counting(forms, t, count=None):
    """Values of the local counting function at shift t, as an array.

    Solves the pencil ``Q_t x = mu^2 M0 x`` for its eigenvalues only and
    returns the array of ``F_j = sqrt(max(mu^2_j, 0))``, ascending.  With
    ``count`` given only ``F_1 .. F_count`` are computed (all n when
    ``count >= n``); a fixed-point evaluation needs nothing more.

    The solve uses the forms' Cholesky factor of M0
    (:meth:`TrialForms.factor`).  The roundoff floor
    ``-tol * ||Q_t||_2``, at the forms' ``tol``, is only computed when
    the smallest eigenvalue is negative, because only then can it decide
    anything.

    Raises
    ------
    NegativeEigenvalueError
        If the pencil has an eigenvalue below ``-tol * ||Q_t||``; Q_t
        represents a square, so that signals corrupted forms.
    NonFiniteError
        If Q_t overflows double, as for :func:`zm_eigen`.
    ValueError
        If ``count`` is given and below 1.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be positive, got {count}")
    # an overflow is reported once, as the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        qt = shifted_square(forms, t)
        qt_d = _on_pattern(forms, qt)
    try:
        # Q_t is symmetric: its transpose is Q_t in F order, reduced in place
        values = sym_generalized_eigvals(qt_d.T, forms.factor(), count)
    except NonFiniteError:
        raise _overflow(t) from None
    if values[0] < 0.0:
        floor = -forms.tol * _norm2(_on_pattern(forms, qt))
        if values[0] < floor:
            raise NegativeEigenvalueError(values[0], -floor)
    return np.sqrt(np.maximum(values, 0.0))


def zm_eigen(forms, t):
    """Solve and classify the pencil ``tau Q_t x = L_t x`` at shift t.

    One pivoted Cholesky factorization of Q_t
    (:func:`~eigenclose.linalg.kernel_split`) stops at the first pivot at
    or below ``tol * max(1, ||Q_t||_inf)``, ``tol`` the forms' tolerance;
    the coordinates it did not factor are deflated (``n_inf``).  The
    kernel of Q_t lies, in exact arithmetic, inside that of L_t too, so
    deflating it loses nothing, and the pencil on the kept coordinates,
    reduced through the pivoted factor, has the tau of every complement
    of the kernel.  All tau are eigenvalues of one tridiagonal reduction
    T of ``L^{-1} L_t L^{-T}`` on those coordinates, L the factor; the
    solve computes only that reduction and the census, from counts of T.
    Where nothing is deflated the factorization shows Q_t definite;
    where something is, Q_t, a square, must have no eigenvalue below
    ``-tol * ||Q_t||_2`` (``NegativeEigenvalueError``): the smallest
    eigenvalue of the Schur complement of the kept coordinates, at most
    that of Q_t, is checked.

    A tau counts as zero where ``|tau| <= tol * ||L_t||_2 / ||Q_t||_2``.
    The threshold is first bracketed by O(nnz) norm bounds, the largest
    column 2-norm below and the largest absolute row sum above, the
    bracket widened by a factor 2 for roundoff.  Every tau beyond the
    bracket is nonzero, so Sturm counts of T at the bracket's two ends
    (LAPACK ``stebz``) give the census where the band between them is
    empty, as it usually is; the census reads no tau.  Only when some
    ``|tau|`` of the band falls inside the bracket are the 2-norms
    computed, as largest absolute eigenvalues.

    The pencil is solved in double precision, and no tau and no
    eigenvector is computed and nothing polished.  Callers bisect and
    polish only what they read (:meth:`PencilEigen.nearest`), and only
    the vectors of the polished tau are computed, on demand: at a window
    end of :func:`zm_enclosures` the entries of one side behind the
    bounds it can emit, j entries of one side for a fixed-point seed,
    none for :func:`signature`; the whole side for
    :func:`zm_bounds_one_sided`, its nearest ``REFINE_COUNT`` polished.

    Q_t and L_t are evaluated on the forms' nonzero pattern only
    (:func:`~eigenclose.forms.shifted_square`); the one n by n array of
    the solve is the dense Q_t the factorization overwrites, and the
    pencil on the kept coordinates is written from the values of L_t.
    The pencil keeps those values and the reduction its vectors are
    computed from (see :class:`PencilEigen`).  Each call solves afresh
    and returns a new, unshared pencil; the package's own callers share
    one solve per shift through the forms' memo of their last solve.
    The solve does not warn: a deflated kernel shows in
    ``signature.n_inf``.

    Raises
    ------
    DegenerateShiftError
        If deflation removes the whole subspace.
    NegativeEigenvalueError
        If Q_t is indefinite beyond roundoff.
    NonFiniteError
        If Q_t or L_t overflows double (``|t|`` beyond about 1e154 for
        forms with entries of order one); the message names t.
    """
    # an overflow is reported once, as the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        qt, lt = shifted_square(forms, t), shifted_linear(forms, t)
        # the values LAPACK reads, rounded to double
        qt_d, lt_d = qt.astype(float, copy=False), lt.astype(float, copy=False)
        q_norm, l_norm = _norm2_bounds(forms, qt_d), _norm2_bounds(forms, lt_d)
    try:
        eigen, schur_min = kernel_split(
            lt_d, qt_d, forms.n, forms.pattern(), forms.tol * max(1.0, q_norm[1])
        )
    except NonFiniteError:
        raise _overflow(t) from None
    if schur_min < -forms.tol * q_norm[0]:
        floor = forms.tol * _norm2(_on_pattern(forms, qt_d))
        if schur_min < -floor:
            raise NegativeEigenvalueError(schur_min, floor)
    n_inf = forms.n - eigen.size
    if n_inf == forms.n:
        raise DegenerateShiftError(
            f"the shifted form vanishes on the whole trial subspace at t={t:g}"
        )
    n_minus, n_zero, n_plus = _census(forms, eigen, q_norm, l_norm, qt_d, lt_d)
    sig = Signature(n_inf=n_inf, n_zero=n_zero, n_minus=n_minus, n_plus=n_plus)
    return PencilEigen(
        t=float(t), signature=sig, eigen=eigen, Qt_values=qt, Lt_values=lt,
        pattern=forms.pattern(),
    )


def _overflow(t):
    return NonFiniteError(
        f"the shifted forms overflow double at t={t:g}; the shift is too large"
    )


def _norm2_bounds(forms, values):
    """``(lo, hi)`` with ``lo <= ||a||_2 <= hi`` for the symmetric ``a``
    holding the double ``values`` on the forms' pattern, in O(nnz): the
    largest column 2-norm and the largest absolute row sum."""
    rows, cols = forms.pattern()
    lo = np.sqrt(np.bincount(cols, values * values, forms.n).max())
    return float(lo), float(np.bincount(rows, np.abs(values), forms.n).max())


def _norm2(a):
    """``||a||_2`` of a nonempty symmetric C-ordered ``a``, overwritten:
    the larger absolute eigenvalue at either end of its spectrum."""
    eigen = sym_reduce(a.T)  # a is symmetric: a.T is a in F order
    ends = eigen.end_values(1)[0], eigen.end_values(1, top=True)[0]
    return float(max(abs(ends[0]), abs(ends[1])))


def _census(forms, eigen, q_norm, l_norm, qt, lt):
    """The numbers ``(n_minus, n_zero, n_plus)`` of negative, zero and
    positive tau in the :class:`~eigenclose.linalg.TridiagonalEigen`
    ``eigen`` of :func:`zm_eigen`, by Sturm counts of T alone, from
    ``q_norm`` and ``l_norm``, ``(lo, hi)`` bounding ``||Q_t||_2`` and
    ``||L_t||_2``.

    Every tau beyond ``edge = 2 tol l_hi / q_lo`` in size is nonzero, so
    counts at ``-edge`` and ``edge`` settle the census where the band
    ``(-edge, edge]`` is empty, as it usually is.  Where counts at ``-r``
    and ``r``, ``r = tol l_lo / (2 q_hi)``, find every tau of the band
    in ``(-r, r)``, all are zero; where not, the exact 2-norms
    (:func:`_norm2`) of Q_t and L_t, from their double values ``qt`` and
    ``lt``, give the threshold ``limit``, and counts at ``-limit`` and
    ``limit`` split the band.  The three points are kept above the
    underflow threshold, where a Sturm count cannot tell an exact zero
    from its neighbours.
    """
    q_lo, q_hi = q_norm
    l_lo, l_hi = l_norm
    floor = 4.0 * np.finfo(float).tiny
    edge = max(2.0 * forms.tol * l_hi / q_lo, floor)
    below = eigen.count(-edge)
    band = eigen.count(edge) - below
    n_minus, n_zero = below, band
    if band:
        r = max(forms.tol * l_lo / (2.0 * q_hi), floor)
        if eigen.count(np.nextafter(r, -np.inf)) - eigen.count(-r) < band:
            norm_q = q_lo if q_lo == q_hi else _norm2(_on_pattern(forms, qt))
            limit = max(forms.tol * (_norm2(_on_pattern(forms, lt)) / norm_q), floor)
            n_minus = eigen.count(np.nextafter(-limit, -np.inf))
            n_zero = eigen.count(limit) - n_minus
    return n_minus, n_zero, eigen.size - n_minus - n_zero


def _pencil(forms, t):
    """:func:`zm_eigen` at t, shared through the forms' memo of their
    last solve.  Users of the shared pencil polish it in place
    (see :meth:`PencilEigen.nearest`).  Where the memo holds the pencil
    at -t, t nonzero, and the forms are graded
    (:meth:`~eigenclose.forms.TrialForms.grading`), it is read at t
    instead (:func:`_reflected`): nothing is factored, bisected or
    polished again.  Any other miss drops the old pencil before solving,
    so two are never alive at once; a solve that raises stores nothing."""
    t = float(t)
    kept = forms._kept.pop("pencil", (None, None))
    if kept[0] == t:
        pencil = kept[1]
    elif t != 0.0 and kept[0] == -t and forms.grading() is not None:
        pencil = _reflected(forms, kept[1], t)
    else:
        kept = None  # dropped before solving: one pencil alive at a time
        pencil = zm_eigen(forms, t)
    forms._kept["pencil"] = (t, pencil)
    return pencil


def _reflected(forms, pencil, t):
    """The pencil at t read from ``pencil``, the one at -t, on graded
    forms: where ``pencil`` is itself such a reading, the solve it reads,
    and otherwise a new reading sharing ``pencil``'s arrays, its
    signature's sides swapped, through a :class:`_ReflectedEigen`, with
    the values of Q_t and L_t at t for a deeper polish.  What either has
    polished the other holds too, each side's tau negated as the other
    side's; the polish of the one is bit for bit the other's negated."""
    if isinstance(pencil.eigen, _ReflectedEigen):
        reflected = pencil.eigen.pencil
    else:
        sig = pencil.signature
        reflected = PencilEigen(
            t=t, signature=replace(sig, n_minus=sig.n_plus, n_plus=sig.n_minus),
            eigen=_ReflectedEigen(pencil, forms.grading()),
            Qt_values=shifted_square(forms, t), Lt_values=shifted_linear(forms, t),
            pattern=pencil.pattern,
        )
    for side, other in (("left", "right"), ("right", "left")):
        tau = pencil._polished[other]
        if tau.size > reflected._polished[side].size:
            tau = -tau
            tau.flags.writeable = False
            reflected._polished[side] = tau
    return reflected


def _bounds_pencil(forms, t, stacklevel):
    """:func:`_pencil` for a bounds function, with a ``DeflationWarning``
    ``stacklevel`` frames up, at that function's caller, when the census
    shows a deflated kernel, whichever reader solved the shift first."""
    pencil = _pencil(forms, t)
    n_inf = pencil.signature.n_inf
    if n_inf > 0:
        warnings.warn(
            f"deflated a {n_inf}-dimensional kernel of Q_t at t={t:g}",
            DeflationWarning,
            stacklevel=stacklevel,
        )
    return pencil


def signature(forms, t):
    """Census (n_inf, n_zero, n_minus, n_plus) of the pencil at shift t.

    The four counts always sum to the trial dimension.  Unlike
    :func:`zm_eigen` this does not fail when the shifted form vanishes
    on the whole subspace (every trial vector an exact eigenvector at
    t): that census is simply ``n_inf = n``.
    """
    try:
        return _pencil(forms, t).signature
    except DegenerateShiftError:
        return Signature(n_inf=forms.n, n_zero=0, n_minus=0, n_plus=0)


def zm_bounds_one_sided(forms, t, side):
    """Certified one-sided bounds from the pencil at shift t.

    Parameters
    ----------
    side : {"left", "right"}
        ``"left"`` returns lower bounds ``t + 1/tau^-_j`` for the
        spectral points below t, nearest first (so the array is
        decreasing, but for roundoff ties after the polished entries).
        ``"right"`` returns upper bounds ``t + 1/tau^+_j`` for the
        points above t, nearest first (increasing).

    All bounds of the side are returned, so every eigenvalue of the side
    is bisected (see :class:`PencilEigen`).  The nearest ``REFINE_COUNT``
    come from polished eigenvalues (see :meth:`PencilEigen.nearest`) and
    the rest from double-precision ones; the other side is not computed.
    Every call at a shift with a deflated kernel issues a
    ``DeflationWarning``, also when the forms' kept solve serves it.

    Raises
    ------
    EmptySideError
        If the pencil has no eigenvalues of the requested sign.
    """
    _check_side(side)
    pencil = _bounds_pencil(forms, t, 3)
    return _side_bounds(pencil, side, pencil._size(side))


def zm_enclosures(forms, window, j_max):
    """Two-sided enclosures inside a window ``(a, b)``.

    Upper bounds are computed at the left end a (for spectral points
    above a), lower bounds at the right end b (for points below b).
    Bounds falling outside the open window are dropped; the k-th
    smallest surviving lower bound is paired with the k-th smallest
    surviving upper bound.  A pair with ``lower > upper`` is returned
    flagged ``inconsistent`` rather than raised, because it conveys that
    the two shifts disagree about how much spectrum the window holds.

    This is :func:`zm_enclosures_all` on the one window, so each window
    end is solved once, and the forms keep their last solve: touching
    windows taken in ascending order solve the end they share once, on
    graded forms a window end at -t read right after one at t reads
    that solve mirrored, and each window end with a deflated kernel
    warns.  Taken together by :func:`zm_enclosures_all`, the windows
    (-b, -a), (a, b) solve two ends.  Only the pencil eigenvalues behind
    bounds that can be emitted are bisected and polished (see
    :meth:`PencilEigen.nearest`), counted before any is computed, by one
    Sturm count at ``|tau| = 1/(b - a)`` per window end
    (:meth:`~eigenclose.linalg.TridiagonalEigen.count`): at a the uppers
    below b, at most ``j_max`` of them, and at b every lower above a
    (the nearest ``REFINE_COUNT`` of them polished).  A window in a
    spectral gap bisects no eigenvalue and computes no eigenvector.  The
    bounds are those of both sides polished in full except where the
    polish or the roundoff of the count would move a bound across the
    window end it was counted against: one the count leaves outside is
    dropped, though polished it might fall inside.  The polish moves a
    bound only by the roundoff of the double-precision solve.

    Raises
    ------
    EmptySideError
        Propagated when a window end detects nothing on the required
        side.
    """
    return _enclosures(forms, [window], j_max)[0]


def zm_enclosures_all(forms, windows, j_max):
    """The enclosures of :func:`zm_enclosures` in each of ``windows``,
    one list per window, in the order the windows are given.

    Every window and ``j_max`` are checked before anything is solved.
    Each window end reads what :func:`zm_enclosures` reads there, but the
    ends of all windows are read in one schedule, grouped by ``|t|``, so
    that equal and mirrored ends are read back to back and each is
    served by the forms' kept solve: on graded forms
    (:meth:`~eigenclose.forms.TrialForms.grading`) each distinct ``|t|``
    is solved once, and on other forms each distinct t.  The group of
    the forms' kept solve is read first, that solve's own shift first;
    the others follow in ascending ``|t|``, each ascending in t.  The
    windows (-b, -a), (a, b) solve two ends, and (-2.5, -0.5),
    (0.5, 2.5) read -0.5, 0.5, -2.5 and 2.5.  One pencil is alive at a
    time.  Where window ends raise, the error raised is the one that
    reading the windows one by one in their order, a before b, meets
    first.

    Raises
    ------
    EmptySideError
        Propagated when a window end detects nothing on the required
        side.
    """
    return _enclosures(forms, windows, j_max)


def _enclosures(forms, windows, j_max):
    """:func:`zm_enclosures_all`, warning the caller of the public
    function that called it."""
    windows = [(float(a), float(b)) for a, b in windows]
    for a, b in windows:
        if not a < b:
            raise ValueError(f"window must satisfy a < b, got ({a:g}, {b:g})")
    if j_max < 1:
        raise ValueError(f"j_max must be positive, got {j_max}")

    # the window ends by rank, the order of reading the windows one by one:
    # end r is a (r even) or b (r odd) of window r // 2
    ends = [t for window in windows for t in window]
    # NaN, equal to no shift, where the forms keep no solve
    kept = forms._kept.get("pencil", (np.nan,))[0]

    def scheduled(r):
        # the kept solve's |t| first, its own t first; then by |t|, t, rank
        t = ends[r]
        return (abs(t) != abs(kept), abs(t), t != kept, t, r)

    bounds = [None] * len(ends)
    failed = None  # the rank and error of the first end to raise, by rank
    for r in sorted(range(len(ends)), key=scheduled):
        if failed is not None and r > failed[0]:
            continue  # it cannot change the error raised
        a, b = windows[r // 2]
        try:
            bounds[r] = _end_bounds(forms, ends[r], r % 2 == 1, 1.0 / (b - a), j_max)
        except (
            EmptySideError, NegativeEigenvalueError, DegenerateShiftError, NonFiniteError
        ) as exc:
            # its traceback would keep the failing end's pencil alive
            failed = (r, exc.with_traceback(None))
    if failed is not None:
        raise failed[1]

    enclosures = []
    for (a, b), uppers, lowers in zip(windows, bounds[::2], bounds[1::2]):
        uppers = np.sort(uppers[uppers < b])
        lowers = np.sort(lowers[lowers > a])
        pairs = zip(lowers[:j_max].tolist(), uppers[:j_max].tolist())
        enclosures.append([
            Enclosure(
                j=k + 1, lower=low, upper=up, t_lower_from=b, t_upper_from=a,
                inconsistent=low > up,
            )
            for k, (low, up) in enumerate(pairs)
        ])
    return enclosures


def _end_bounds(forms, t, right, reach, j_max):
    """The bounds of :func:`zm_enclosures` from a window end t, its left
    end a or ``right`` end b, whose bounds lie inside the window where
    ``|tau| > reach``; its pencil is gone on return, before the next end
    is solved."""
    pencil = _bounds_pencil(forms, t, 5)
    if right:
        # every lower inside the window, the smallest first
        return _side_bounds(pencil, "left", pencil.eigen.count(-reach))
    # the pairing reads the first j_max uppers inside the window
    inside = pencil.eigen.size - pencil.eigen.count(reach)
    return _side_bounds(pencil, "right", min(j_max, inside))


def residual_bounds(f_values, distances, isolation, atol=1e-12):
    """Eigenvector residuals from counting values and spectral geometry.

    Parameters
    ----------
    f_values : (m,) array_like
        Counting values ``F_1 <= ... <= F_m`` at the shift of interest.
    distances : (m,) array_like
        Exact distances from the shift to the 1st..m-th nearest spectral
        points.  These are inputs: the caller must know them (e.g. from
        a solvable model); nothing here estimates them.
    isolation : (m,) array_like
        Isolation radii: the distance from the shift beyond which the
        rest of the spectrum lives, for each index.  Must strictly
        exceed the matching distance.

    Returns
    -------
    ResidualBounds
        ``eps[j]`` bounds the angle-type distance from the j-th
        eigenvector to the trial subspace; ``graph_bounds[j] =
        sqrt(F_j^2 - d_j^2 + d_j^2 eps_j^2)`` bounds the graph-norm
        error of the best trial approximation.  If some ``eps_j >= 1``
        the result is flagged invalid (bounds past that index are
        vacuous and reported as ``inf``).

    Raises
    ------
    GapViolationError
        If some isolation radius does not strictly exceed its distance.
    """
    f = np.asarray(f_values, dtype=float)
    d = np.asarray(distances, dtype=float)
    delta = np.asarray(isolation, dtype=float)
    if not (f.shape == d.shape == delta.shape) or f.ndim != 1:
        raise ValueError("f_values, distances, isolation must be 1-d, equal length")
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    if np.any(delta <= d):
        bad = int(np.argmax(delta <= d))
        raise GapViolationError(
            f"isolation radius {delta[bad]:g} at index {bad + 1} does not "
            f"exceed the distance {d[bad]:g}"
        )
    guard = atol * np.maximum(1.0, d)
    if np.any(f < d - guard):
        bad = int(np.argmax(f < d - guard))
        raise ValueError(
            f"counting value F_{bad + 1}={f[bad]:g} lies below the claimed "
            f"distance {d[bad]:g}; the inputs are inconsistent"
        )

    m = f.size
    eps_sq = np.zeros(m)
    eps = np.zeros(m)
    valid = True
    for j in range(m):
        gap = delta[j] ** 2 - d[j] ** 2
        value = max(f[j] ** 2 - d[j] ** 2, 0.0) / gap
        for k in range(j):
            if eps_sq[k] >= 1.0:
                value = np.inf
                break
            value += (eps_sq[k] / (1.0 - eps_sq[k])) * (
                1.0 + (d[j] ** 2 - d[k] ** 2) / gap
            )
        eps_sq[j] = value
        eps[j] = np.sqrt(value) if np.isfinite(value) else np.inf
        if eps_sq[j] >= 1.0:
            valid = False

    graph = np.full(m, np.inf)
    finite = np.isfinite(eps)
    graph[finite] = np.sqrt(
        np.maximum(f[finite] ** 2 - d[finite] ** 2, 0.0)
        + (d[finite] * eps[finite]) ** 2
    )
    return ResidualBounds(eps=eps, graph_bounds=graph, valid=valid)
