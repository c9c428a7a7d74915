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
    """The pencil ``tau Q_t x = L_t x`` at shift t, solved, its tau and
    eigenvectors computed only as they are read.

    ``eigen`` (:class:`~eigenclose.linalg.TridiagonalEigen`) is the
    solve; ``Qt_values`` and ``Lt_values`` are Q_t and L_t on
    ``pattern``, the forms' nonzero pattern, in the forms' precision.
    :meth:`nearest` is the one way to read and polish tau; ``tau_minus``
    (ascending, so index j-1 bounds the j-th spectral point below t) and
    ``tau_plus`` (descending) read a whole side, bisected, and polish
    nothing more.  ``polished`` counts the polished tau of each side.  A
    tau has the same bits whichever read computed it, and every tau
    array read is read-only.  ``eigen.vectors(k)`` (with ``top=True``)
    reads the Q_t-orthonormal vectors, zero on the deflated coordinates,
    of the k nearest ``tau_minus`` (``tau_plus``) before the polish.
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
        k = min(k, _side_size(self.signature, side))
        tau = self._polished[side]
        if k > tau.size:
            rest = self.eigen.end_values(k, top=side == "right")[tau.size :]
            tau = np.concatenate([tau, rest])
            tau.flags.writeable = False
        return tau[:k]

    def nearest(self, side, k):
        """The nearest k tau of one side (all of it where it holds fewer),
        nearest bound first, read-only: ``side`` is ``"left"`` for
        ``tau_minus`` and ``"right"`` for ``tau_plus``.  Only those k are
        bisected.

        Where longdouble is a genuine extended precision, the nearest
        ``min(k, REFINE_COUNT)`` are polished: each becomes the Rayleigh
        quotient ``x' L_t x / x' Q_t x`` of its double eigenvector, summed
        in longdouble on the stored forms (:func:`_pattern_products`),
        and the polished entries re-sort among themselves.  A read asking
        for no more than ``polished`` polishes nothing; one asking for
        more polishes the nearest k afresh, each quotient the same bits
        whatever k.  An unpolished entry stays behind the polished ones
        even where a roundoff tie puts it an ulp nearer.  Two solves of
        one pencil may polish a tau some ulps apart.

        Raises
        ------
        ValueError
            If ``side`` is neither ``"left"`` nor ``"right"``, or k < 0.
        """
        _check_side(side)
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        count = min(k, REFINE_COUNT, _side_size(self.signature, side))
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


#: the side of the kept solve that each side of its mirror reads
_OTHER = {"left": "right", "right": "left"}


@dataclass(frozen=True, eq=False)
class _Mirror:
    """The pencil at t of graded forms, a view of ``kept``, their solve at
    -t, that owns nothing.  With J the forms' ``grading``,
    ``Q_t = J Q_{-t} J`` and ``L_t = -J L_{-t} J`` entry by entry: each
    side is the other side of ``kept`` negated bit for bit, polish
    included, and the vectors are ``kept``'s times J.  What a read
    bisects or polishes, ``kept`` holds.  It is its own ``eigen``, with
    the reads of a :class:`~eigenclose.linalg.TridiagonalEigen`, and the
    tau it returns are read-only."""

    t: float
    kept: PencilEigen
    grading: np.ndarray = field(repr=False)

    @property
    def signature(self):
        sig = self.kept.signature
        return replace(sig, n_minus=sig.n_plus, n_plus=sig.n_minus)

    @property
    def polished(self):
        return {side: self.kept.polished[other] for side, other in _OTHER.items()}

    @property
    def eigen(self):
        return self

    @property
    def size(self):
        return self.kept.eigen.size

    def nearest(self, side, k):
        _check_side(side)
        return _negated(self.kept.nearest(_OTHER[side], k))

    def count(self, x):
        """The number of eigenvalues at or below x."""
        return self.size - self.kept.eigen.count(np.nextafter(-x, -np.inf))

    def end_values(self, count, top=False):
        return _negated(self.kept.eigen.end_values(count, not top))

    def vectors(self, count, top=False):
        return self.grading[:, None] * self.kept.eigen.vectors(count, not top)


def _side_size(signature, side):
    """The number of tau on one side of a pencil of that signature."""
    return signature.n_minus if side == "left" else signature.n_plus


def _negated(tau):
    tau = -tau
    tau.flags.writeable = False
    return tau


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
    if _side_size(pencil.signature, side) == 0:
        raise EmptySideError(
            f"no spectrum detectable {side} of t={pencil.t:g} in this trial subspace"
        )
    return pencil.t + 1.0 / pencil.nearest(side, k)


def local_counting(forms, t):
    """Values of the local counting function at shift t, as an array.

    Returns all n values ``F_j = sqrt(max(mu^2_j, 0))``, ascending, from
    the eigenvalues of the pencil ``Q_t x = mu^2 M0 x``, solved for
    eigenvalues only with the forms' Cholesky factor of M0
    (:meth:`TrialForms.factor`).  The fixed-point route does not call
    it: it decides every sign by an inertia count.

    Raises
    ------
    NegativeEigenvalueError
        If the pencil has an eigenvalue below ``-tol * ||Q_t||_2``, at
        the forms' ``tol``; Q_t represents a square, so that signals
        corrupted forms.
    NonFiniteError
        As for :func:`zm_eigen`.
    """
    # an overflow is reported once, as the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        qt = shifted_square(forms, t)
        qt_d = _on_pattern(forms, qt)
    try:
        # Q_t is symmetric: its transpose is Q_t in F order, reduced in place
        values = sym_generalized_eigvals(qt_d.T, forms.factor())
    except NonFiniteError:
        raise _overflow(t) from None
    if values[0] < 0.0:
        floor = -forms.tol * _norm2(_on_pattern(forms, qt))
        if values[0] < floor:
            raise NegativeEigenvalueError(values[0], -floor)
    return np.sqrt(np.maximum(values, 0.0))


def zm_eigen(forms, t):
    """Solve and classify the pencil ``tau Q_t x = L_t x`` at shift t.

    Returns a new, unshared :class:`PencilEigen`: the solve, in double
    precision, and its census, with no tau bisected, no vector computed
    and nothing polished until it is read.  Q_t and L_t are evaluated on
    the forms' nonzero pattern.  One pivoted Cholesky factorization of
    Q_t (:func:`~eigenclose.linalg.kernel_split`) stops at the first
    pivot at or below ``tol * max(1, ||Q_t||_inf)``, ``tol`` the forms'
    tolerance, and deflates the coordinates it did not factor
    (``n_inf``); the tau are the eigenvalues of one tridiagonal
    reduction of the pencil on the kept coordinates.  A tau counts as
    zero where ``|tau| <= tol * ||L_t||_2 / ||Q_t||_2``, and the census
    is read from Sturm counts alone (:func:`_census`).  The solve does
    not warn: a deflated kernel shows in ``signature.n_inf``.

    Raises
    ------
    DegenerateShiftError
        If deflation removes the whole subspace.
    NegativeEigenvalueError
        If Q_t, a square, has an eigenvalue below ``-tol * ||Q_t||_2``
        (where nothing is deflated the factorization shows Q_t definite;
        where something is, the Schur complement of the kept coordinates
        is checked).
    NonFiniteError
        If t is not finite, or Q_t or L_t overflows double (``|t|``
        beyond about 1e154 for forms with entries of order one); the
        message names t.
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
    if eigen.size == 0:
        raise DegenerateShiftError(
            f"the shifted form vanishes on the whole trial subspace at t={t:g}"
        )
    census = _census(forms, eigen, q_norm, l_norm, qt_d, lt_d)
    return PencilEigen(
        t=float(t), signature=Signature(forms.n - eigen.size, *census), eigen=eigen,
        Qt_values=qt, Lt_values=lt, pattern=forms.pattern(),
    )


def _overflow(t):
    if not np.isfinite(t):
        return NonFiniteError(f"the shift t={t:g} is not finite")
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
    """The numbers ``(n_zero, n_minus, n_plus)`` of zero, negative and
    positive tau in ``eigen``, the solve of :func:`zm_eigen`, by Sturm
    counts alone; ``q_norm`` and ``l_norm`` are ``(lo, hi)`` bounding
    ``||Q_t||_2`` and ``||L_t||_2``.

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
    return n_zero, n_minus, eigen.size - n_minus - n_zero


def _pencil(forms, t):
    """The pencil at t for the package's readers, who polish it in
    place: the forms' kept solve where it is at t; a :class:`_Mirror` of
    it where it is at -t, t nonzero, on graded forms
    (:meth:`~eigenclose.forms.TrialForms.grading`), nothing solved,
    bisected or polished afresh; otherwise :func:`zm_eigen` at t, kept
    in place of the old solve, which is dropped first, so one solve is
    alive at a time.  The forms keep only solves, and a solve that
    raises leaves them none."""
    t = float(t)
    solved_t, kept = forms._kept.get("pencil", (None, None))
    if solved_t == t:
        return kept
    if solved_t == -t != 0.0 and forms.grading() is not None:
        return _Mirror(t, kept, forms.grading())
    forms._kept.pop("pencil", None)
    del kept  # dropped before solving: one solve alive at a time
    pencil = zm_eigen(forms, t)
    forms._kept["pencil"] = (t, pencil)
    return pencil


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
    """Certified one-sided bounds from the pencil at shift t, nearest
    first: for ``side="left"`` the lower bounds ``t + 1/tau^-_j`` of the
    spectral points below t (decreasing, but for roundoff ties after the
    polished entries), for ``"right"`` the upper bounds ``t + 1/tau^+_j``
    of those above t (increasing).

    Every tau of the side is bisected and its nearest ``REFINE_COUNT``
    polished (:meth:`PencilEigen.nearest`); the other side is not
    computed.  Every call at a shift with a deflated kernel warns
    (``DeflationWarning``), also where the forms' kept solve serves it.

    Raises
    ------
    EmptySideError
        If the pencil has no eigenvalues of the requested sign.
    ValueError
        If ``side`` is neither ``"left"`` nor ``"right"``.
    """
    _check_side(side)
    pencil = _bounds_pencil(forms, t, 3)
    return _side_bounds(pencil, side, _side_size(pencil.signature, side))


def zm_enclosures(forms, window, j_max):
    """Two-sided enclosures inside a window ``(a, b)``, ascending.

    Upper bounds ``a + 1/tau^+`` come from the pencil at a, lower bounds
    ``b + 1/tau^-`` from the pencil at b.  Bounds outside the open window
    are dropped, and the k-th smallest lower bound is paired with the
    k-th smallest upper bound, at most ``j_max`` pairs.  A pair with
    ``lower > upper`` is returned flagged ``inconsistent``, not raised:
    the two ends disagree about how much spectrum the window holds.
    Each window end with a deflated kernel warns (``DeflationWarning``).
    This is :func:`zm_enclosures_all` on the one window, so the forms'
    kept solve serves an end at its shift and, on graded forms, at
    minus it.

    Only the tau behind bounds that can be emitted are bisected and
    polished (:meth:`PencilEigen.nearest`), counted first by one Sturm
    count at ``|tau| = 1/(b - a)`` per end: at a the uppers below b, at
    most ``j_max``, and at b every lower above a.  A window in a
    spectral gap bisects no tau and computes no vector.  The bounds are
    those of both sides polished in full, except that a bound the count
    leaves outside the window is dropped even where its polish, which
    moves it only by the roundoff of the solve, would put it inside.

    Raises
    ------
    ValueError
        If not ``a < b``, or if ``j_max < 1``.
    EmptySideError
        Propagated when a window end detects nothing on the required
        side.
    """
    return _enclosures(forms, [window], j_max)[0]


def zm_enclosures_all(forms, windows, j_max):
    """The enclosures of :func:`zm_enclosures` in each of ``windows``,
    one list per window, in the order the windows are given.

    Every window and ``j_max`` are checked before anything is solved.
    The ends of all windows are read in one schedule grouped by ``|t|``:
    the group of the forms' kept solve first, that solve's own shift
    first, then the others in ascending ``|t|``, each ascending in t.
    Each distinct ``|t|`` is so solved once on graded forms
    (:meth:`~eigenclose.forms.TrialForms.grading`), and each distinct t
    on others, one solve alive at a time: (-2.5, -0.5), (0.5, 2.5) read
    -0.5, 0.5, -2.5 and 2.5 and solve two of them.  Where window ends
    raise, the error raised is the one that reading the windows one by
    one in their order, a before b, meets first.

    Raises
    ------
    ValueError, EmptySideError
        As for :func:`zm_enclosures`.
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
