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
from dataclasses import dataclass, field

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
from .linalg import (
    TridiagonalEigen,
    definite_pencil_eigh,
    projected_eigh,
    psd_eigh,
    sym_eigh,
    sym_generalized_eigvals,
)


#: extended precision is worth using only if it genuinely beats double
_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18

#: how many pencil eigenvalues per side get the extended-precision polish
REFINE_COUNT = 32


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
    """Classified eigenvalues of the pencil ``tau Q_t x = L_t x``, its
    eigenvectors on demand.

    ``tau_minus`` ascending (most negative first, so index j-1 bounds
    the j-th spectral point below t), ``tau_plus`` descending.
    ``eigen`` holds all the tau of the solve, ascending, and what their
    eigenvectors need (:class:`~eigenclose.linalg.TridiagonalEigen`): the
    tridiagonal reduction as two vectors and its reflectors, in one n by
    n double array that also holds the Cholesky factor of Q_t, plus on
    the eigendecomposition route the n by (n - n_inf) basis of the
    deflated pencil.  ``eigen.vectors(k)`` (``eigen.vectors(k, top=True)``)
    is the one way to read eigenvectors: the Q_t-orthonormal coefficient
    vectors, in the full trial basis with deflated kernel directions
    removed, of the k nearest entries of ``tau_minus`` (``tau_plus``) in
    their order before any :meth:`polish`, which may re-sort near-ties.
    The pencil's arrays take 0.57 MB at n = 240
    (dirac1d, order 3, 40 elements), 0.46 MB of it that n by n array,
    and 26.4 MB at n = 1775 (maxwell2d, order 1, nx = 24), 25.2 MB of it
    the array.  ``Qt_values`` and ``Lt_values`` are the values of the
    shifted forms the pencil was solved at on ``pattern``, the forms'
    nonzero pattern (:meth:`TrialForms.pattern`), in the precision of
    the forms: all :meth:`polish` reads of Q_t and L_t, which are +0 off
    it.  ``polished`` counts the polished entries of each side.
    """

    t: float
    tau_minus: np.ndarray
    tau_plus: np.ndarray
    signature: Signature
    eigen: TridiagonalEigen = field(repr=False)
    Qt_values: np.ndarray = field(repr=False)
    Lt_values: np.ndarray = field(repr=False)
    pattern: tuple = field(repr=False)
    polished: dict = field(
        init=False, repr=False, default_factory=lambda: {"left": 0, "right": 0}
    )

    def polish(self, side, k=REFINE_COUNT):
        """Polish the nearest ``min(k, REFINE_COUNT)`` eigenvalues of one
        side in place and return that side, the polished ones re-sorted
        nearest first and kept ahead of the rest.

        Rayleigh quotients ``x' L_t x / x' Q_t x`` of the double-precision
        eigenvectors, in longdouble on the stored shifted forms, remove
        the solve roundoff from the tight bounds (with forms assembled in
        extended precision, well below the double representation floor
        of Q_t); where longdouble is no genuine extended precision,
        nothing is polished.  Only the k vectors read are computed
        (:meth:`~eigenclose.linalg.TridiagonalEigen.vectors`), and each
        does not depend on k.  ``polished`` records how many entries of
        each side are polished: a call asking for no more returns the
        side untouched, one asking for more polishes the nearest k
        afresh, so near-ties re-sort as if all k were polished at once.
        An unpolished entry that ties the last polished one to roundoff
        stays behind it even when an ulp nearer.  The quotients are only
        as good as the eigenvectors, so the polished tau of the two solve
        routes of :func:`zm_eigen` may differ by a few ulps (more inside
        a cluster of equal tau).  ``side`` is ``"left"`` for
        ``tau_minus``, ``"right"`` for ``tau_plus``.
        """
        _check_side(side)
        name = "minus" if side == "left" else "plus"
        tau = getattr(self, "tau_" + name)
        k = min(k, REFINE_COUNT, tau.size)
        if not _LONGDOUBLE_OK or k <= self.polished[side]:
            return tau
        top = side == "right"
        x = self.eigen.vectors(k, top).astype(np.longdouble)
        nearest = (self.eigen.values[::-1] if top else self.eigen.values)[:k].copy()
        p = self.pattern
        num = np.einsum("ij,ij->j", x, _pattern_product(self.Lt_values, p, x))
        den = np.einsum("ij,ij->j", x, _pattern_product(self.Qt_values, p, x))
        good = den > 0
        nearest[good] = (num[good] / den[good]).astype(float)
        # nearest bound first is largest |tau| first; the polish may nudge
        # near-ties, which re-sort among the k polished entries only
        nearest = nearest[np.argsort(-np.abs(nearest), kind="stable")]
        tau = np.concatenate([nearest, tau[k:]])
        setattr(self, "tau_" + name, tau)
        self.polished[side] = k
        return tau


def _pattern_product(values, pattern, x):
    """``a @ x`` in longdouble, ``a`` holding ``values`` on ``pattern``, +0 off it.

    ``np.add.at`` adds the products in the pattern's row-major order, so
    each row is summed from +0 in ascending column order: bit for bit the
    dense non-BLAS longdouble product.  That one adds zero terms off the
    pattern too, but a sum started at +0 is never -0, and adding a zero
    to it changes nothing.
    """
    rows, cols = pattern
    out = np.zeros(x.shape, dtype=np.longdouble)
    terms = np.asarray(values, dtype=np.longdouble)[:, None] * x[cols]
    np.add.at(out, rows, terms)
    return out


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
    """Bounds ``t + 1/tau`` on one side, nearest first, the nearest k
    polished; ``EmptySideError`` if the side is empty."""
    tau = pencil.polish(side, k)
    if tau.size == 0:
        raise EmptySideError(
            f"no spectrum detectable {side} of t={pencil.t:g} in this trial subspace"
        )
    return pencil.t + 1.0 / tau


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
        qt = _on_pattern(forms, shifted_square(forms, t))
    try:
        values = sym_generalized_eigvals(qt, forms.factor(), count)
    except NonFiniteError:
        raise _overflow(t) from None
    if values[0] < 0.0:
        floor = -forms.tol * _norm2(qt)
        if values[0] < floor:
            raise NegativeEigenvalueError(values[0], -floor)
    return np.sqrt(np.maximum(values, 0.0))


def zm_eigen(forms, t):
    """Solve and classify the pencil ``tau Q_t x = L_t x`` at shift t.

    The pencil is solved by one of two routes, ``tol`` being the forms'
    tolerance and u the double unit roundoff.

    *Cholesky route*, taken wherever it can certify that nothing is
    deflated.  A Cholesky factorization of ``Q_t - sigma I`` with
    ``sigma = 2 max(tol, n u) max(1, ||Q_t||_inf)`` proves that Q_t has
    no eigenvalue at or below ``tol * max(1, ||Q_t||_2)``, so the
    eigendecomposition route below would deflate nothing and raise
    nothing: ``n_inf = 0``.  All tau then come from
    :func:`~eigenclose.linalg.definite_pencil_eigh`: one tridiagonal
    reduction of ``L^{-1} L_t L^{-T}``, L the Cholesky factor of Q_t, and
    its eigenvalues, no eigenvector.

    *Eigendecomposition route*, taken where that certificate fails: at
    shifts where Q_t has an eigenvalue at or below sigma, among them
    every shift that deflates a kernel.  One eigendecomposition
    ``Q_t = V W V'`` (:func:`psd_eigh`) gives three things at once:

    * the kernel of Q_t, the columns with ``W <= tol * max(1, ||Q_t||)``
      (trial directions on which the shifted operator vanishes); in
      exact arithmetic it lies inside the kernel of L_t as well, so
      deflating it loses nothing;
    * the check that Q_t, a square, has no eigenvalue below
      ``-tol * ||Q_t||`` (``NegativeEigenvalueError``);
    * ``||Q_t||_2 = max |W|``.

    On the complement ``V_c`` the deflated Q_t is ``diag(W_c)``, positive
    definite by construction, so ``C = V_c W_c^{-1/2}`` is a
    Q_t-orthonormal basis and all tau come from one tridiagonal
    reduction of the *standard* symmetric matrix ``C' L_t C``
    (:func:`~eigenclose.linalg.projected_eigh`).

    Both routes count a tau as zero by one rule,
    ``|tau| <= tol * ||L_t||_2 / ||Q_t||_2``.  The threshold is first
    bracketed by O(n^2) norm bounds, the largest column 2-norm below and
    the largest absolute row sum above (the eigendecomposition route
    knows ``||Q_t||_2``), the bracket widened by a factor 2 for
    roundoff.  Only when some ``|tau|`` falls inside the bracket are the
    2-norms computed, as largest absolute eigenvalues.

    Either way the pencil is solved in double precision, the unpolished
    tau of the two routes agreeing to roundoff, and no eigenvector is
    computed and nothing polished.  Callers polish only what they read
    (:meth:`PencilEigen.polish`), and only the vectors of the polished
    tau are computed, on demand: one side for :func:`zm_bounds_one_sided`
    and :func:`zm_enclosures`, j entries of one side for a fixed-point
    seed, none for :func:`signature`.

    Q_t and L_t are evaluated on the forms' nonzero pattern only
    (:func:`~eigenclose.forms.shifted_square`).  The pencil keeps those
    values and the reduction its vectors are computed from (see
    :class:`PencilEigen`).  Each call solves afresh and returns
    a new, unshared pencil; the package's own callers share one solve
    per shift through the forms' memo of their last solve.  The solve
    does not warn: a deflated kernel shows in ``signature.n_inf``.

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
        qt_d, lt_d = _on_pattern(forms, qt), _on_pattern(forms, lt)
    try:
        solved = _cholesky_route(forms, qt_d, lt_d)
    except NonFiniteError:
        raise _overflow(t) from None
    n_inf, eigen, q_norm = solved or _eigh_route(forms, qt_d, lt_d)
    tau = eigen.values
    if n_inf == forms.n:
        raise DegenerateShiftError(
            f"the shifted form vanishes on the whole trial subspace at t={t:g}"
        )

    zero = _zero_tau(forms, tau, q_norm, qt_d, lt_d)
    neg = (tau < 0.0) & ~zero
    pos = (tau > 0.0) & ~zero
    n_minus = int(np.count_nonzero(neg))
    n_plus = int(np.count_nonzero(pos))
    n_zero = tau.size - n_minus - n_plus
    sig = Signature(n_inf=n_inf, n_zero=n_zero, n_minus=n_minus, n_plus=n_plus)

    # tau ascending -> negatives already most-negative-first; positives
    # must be flipped so index 0 is the largest (nearest bound first)
    return PencilEigen(
        t=float(t),
        tau_minus=tau[neg],
        tau_plus=tau[pos][::-1],
        signature=sig,
        eigen=eigen,
        Qt_values=qt,
        Lt_values=lt,
        pattern=forms.pattern(),
    )


def _overflow(t):
    return NonFiniteError(
        f"the shifted forms overflow double at t={t:g}; the shift is too large"
    )


def _norm2_bounds(a):
    """``(lo, hi)`` with ``lo <= ||a||_2 <= hi`` for symmetric ``a``, in
    O(n^2): the largest column 2-norm and the largest absolute row sum."""
    lo = np.sqrt(np.einsum("ij,ij->j", a, a).max(initial=0.0))
    return float(lo), float(np.abs(a).sum(axis=1).max(initial=0.0))


def _norm2(a):
    """``||a||_2`` of a nonempty symmetric ``a``: its largest absolute eigenvalue."""
    values = sym_eigh(a, vectors=False)
    return float(max(abs(values[0]), abs(values[-1])))


def _zero_tau(forms, tau, q_norm, qt, lt):
    """The mask of the tau :func:`zm_eigen` counts as zero, from double
    ``qt`` and ``lt`` and ``q_norm = (lo, hi)`` bounding ``||Q_t||_2``
    (equal ends for a known norm).  The exact 2-norms (:func:`_norm2`)
    are computed only for a ``|tau|`` the bracket leaves open."""
    q_lo, q_hi = q_norm
    l_lo, l_hi = _norm2_bounds(lt)
    size = np.abs(tau)
    below = 2.0 * size * q_hi < forms.tol * l_lo
    if np.all(below | (size * q_lo > 2.0 * forms.tol * l_hi)):
        return below
    norm_q = q_lo if q_lo == q_hi else _norm2(qt)
    return size <= forms.tol * (_norm2(lt) / norm_q)


def _cholesky_route(forms, qt, lt):
    """:func:`zm_eigen`'s Cholesky route: ``(0, eigen, q_norm)`` with
    ``eigen`` the :class:`~eigenclose.linalg.TridiagonalEigen` of the
    pencil and ``q_norm`` the bounds on ``||Q_t||_2`` :func:`_zero_tau`
    reads, or ``None`` where the certificate fails."""
    q_norm = _norm2_bounds(qt)
    floor = max(forms.tol, forms.n * np.finfo(float).eps / 2)
    eigen = definite_pencil_eigh(lt, qt, 2.0 * floor * max(1.0, q_norm[1]))
    return None if eigen is None else (0, eigen, q_norm)


def _eigh_route(forms, qt, lt):
    """:func:`zm_eigen`'s eigendecomposition route, as
    :func:`_cholesky_route` returns it but with the kernel dimension
    of Q_t in place of 0 and its exact norm."""
    split = psd_eigh(qt, forms.tol)
    basis = split.vectors[:, split.k :] / np.sqrt(split.values[split.k :])
    return split.k, projected_eigh(lt, basis), (split.norm, split.norm)


def _pencil(forms, t):
    """:func:`zm_eigen` at t, shared through the forms' memo of their
    last solve.  Users of the shared pencil polish it in place
    (see :meth:`PencilEigen.polish`).  A miss drops the old pencil
    before solving, so two are never alive at once; a solve that raises
    stores nothing."""
    if forms._kept.get("pencil", (None,))[0] != float(t):
        forms._kept.pop("pencil", None)
        forms._kept["pencil"] = (float(t), zm_eigen(forms, t))
    return forms._kept["pencil"][1]


def _bounds_pencil(forms, t):
    """:func:`_pencil` for a bounds function, with a ``DeflationWarning``
    to that function's caller when the census shows a deflated kernel,
    whichever reader solved the shift first."""
    pencil = _pencil(forms, t)
    n_inf = pencil.signature.n_inf
    if n_inf > 0:
        warnings.warn(
            f"deflated a {n_inf}-dimensional kernel of Q_t at t={t:g}",
            DeflationWarning,
            stacklevel=3,
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

    All bounds of the side are returned.  The nearest ``REFINE_COUNT``
    come from polished eigenvalues (see :meth:`PencilEigen.polish`) and
    the rest from double-precision ones; the other side is not polished.
    Every call at a shift with a deflated kernel issues a
    ``DeflationWarning``, also when the forms' kept solve serves it.

    Raises
    ------
    EmptySideError
        If the pencil has no eigenvalues of the requested sign.
    """
    _check_side(side)
    return _side_bounds(_bounds_pencil(forms, t), side, REFINE_COUNT)


def zm_enclosures(forms, window, j_max):
    """Two-sided enclosures inside a window ``(a, b)``.

    Upper bounds are computed at the left end a (for spectral points
    above a), lower bounds at the right end b (for points below b).
    Bounds falling outside the open window are dropped; the k-th
    smallest surviving lower bound is paired with the k-th smallest
    surviving upper bound.  A pair with ``lower > upper`` is returned
    flagged ``inconsistent`` rather than raised, because it conveys that
    the two shifts disagree about how much spectrum the window holds.

    Each window end is solved once, and the forms keep their last
    solve: touching windows taken in ascending order solve the end they
    share once, and each window end with a deflated kernel warns.  Only
    the pencil eigenvalues behind bounds that can be emitted are
    polished (see :meth:`PencilEigen.polish`): the ``j_max`` nearest
    uppers at a, and at b every lower inside the window (at least
    ``j_max``, at most ``REFINE_COUNT``).  The bounds are the same as
    when both sides are polished in full.

    Raises
    ------
    EmptySideError
        Propagated when a window end detects nothing on the required
        side.
    """
    a, b = (float(window[0]), float(window[1]))
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got ({a:g}, {b:g})")
    if j_max < 1:
        raise ValueError(f"j_max must be positive, got {j_max}")

    uppers = _side_bounds(_bounds_pencil(forms, a), "right", j_max)
    pencil = _bounds_pencil(forms, b)
    # the pairing reads every lower inside the window: polish them all
    inside = int(np.count_nonzero(b + 1.0 / pencil.tau_minus > a))
    lowers = _side_bounds(pencil, "left", max(j_max, inside))
    uppers = np.sort(uppers[uppers < b])
    lowers = np.sort(lowers[lowers > a])

    count = min(uppers.size, lowers.size, j_max)
    out = []
    for k in range(count):
        low, up = float(lowers[k]), float(uppers[k])
        out.append(
            Enclosure(
                j=k + 1,
                lower=low,
                upper=up,
                t_lower_from=b,
                t_upper_from=a,
                inconsistent=low > up,
            )
        )
    return out


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
