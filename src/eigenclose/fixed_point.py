"""Certified bounds via fixed points of the local counting function.

For a shift t and index j the equation ``t - s = F_j(s)`` (looking left;
mirrored on the right) has a root exactly when the trial subspace
detects at least j spectral points on that side, and the root s_hat
turns ``s_hat -/+ F_j(s_hat)`` into a certified lower/upper bound for
the j-th spectral point on that side of t.  This is the Davies-Plum
recipe; because ``s + F_j(s)`` and ``s - F_j(s)`` are nondecreasing the
root can be bracketed and bisected with certainty.  At the root
``F_j(s) = |t - s|``, so the root's distance from t alone fixes the
bound.

The optimal root coincides with ``t + 1/(2 tau_j)`` computed from the
Zimmermann-Mertins pencil, and the certified bound with
``t + 1/tau_j``; :func:`equivalence_gap` audits that identity
numerically, which is a strong end-to-end check on both code paths.

One rule decides every sign.  The residual at s = t -/+ alpha,
``F_j(s) - alpha``, is <= 0 exactly where the pencil ``(Q_s, M0)`` has
at least j eigenvalues <= alpha**2, and by Sylvester's law of inertia
that is where ``Q_s - alpha**2 M0`` has at least j eigenvalues <= 0:
one LDL' factorization counts them
(:func:`~eigenclose.linalg.count_nonpositive`).  The count is the sign
only where every Q_s is positive semidefinite, which
:meth:`TrialForms.validate` proves; forms that fail it are refused
before any count.  F_j itself is never solved.  The search ends on a
bracket ``[lo, hi]`` whose end ``s_hat = t -/+ hi`` the count has shown
to have ``F_j(s_hat) <= hi``, so ``s_hat -/+ hi`` is a certified bound.
As the residual is > 0 at lo and F_j is 1-Lipschitz, it is looser than
``s_hat -/+ F_j(s_hat)`` by less than ``2 (hi - lo)``, at most the
fixed-point tolerance.

The residual is nonincreasing in alpha, so one count gives its sign on
a whole half-line.  Each root keeps one record of known signs, the
largest alpha counted with residual > 0 and the smallest counted with
residual <= 0; every count updates it, and the search counts only at
an alpha between the two.

The pencil fills the record first.  Its prediction
``alpha* = 1/(2 |tau_j|)`` of the root's distance from t gives the
final bracket ``[lo*, hi*]`` the search would end in if the root were
alpha*: the search's own expansion and bisection, run once with the
test ``alpha >= alpha*`` in place of a count.  Counting the signs at
lo* and hi* fills the record.  Where the residual is positive at lo*
and <= 0 at hi*, every point the search would visit lies at or below lo*
or at or above hi*, where the record answers it as the dry run did: the
search would retrace the dry run, so it is not run, and the dry run's
bracket, ending at hi*, is the root's.  A root then counts 3 shifts
(t, lo* and hi*) on the same path to the same root as without the
prediction wherever the counted signs are monotone; where rounding
makes them change more than once (a residual flat to rounding), the
two searches may end at different sign changes, each a certified root.
A bracket the residual does not confirm still narrows the search by
the signs found at its ends, for at most those two counts more than
without it.  A prediction beyond the search's reach, or a pencil that
fails or has too few values, leaves the search unseeded.  The pencil
is solved once per shift per forms (the forms keep their last solve,
so both sides of an audit and every index share it), and a call
bisects and polishes only the first j (``j_max`` for :func:`dp_bounds`)
tau of the root's side, the ones it reads.  The forms keep the last
sign at (t, j) too, so the second side of an audit at (t, j) counts 2
shifts where the first counts 3.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .enclosure import _check_side, _overflow, _pencil
from .errors import (
    EigencloseError,
    MaxIterationsError,
    NoSignChangeError,
    NonFiniteError,
)
from .forms import shifted_square
from .linalg import count_nonpositive

logger = logging.getLogger(__name__)

#: bisection stops when the bracket is this fraction of the scale
FP_TOL_FACTOR = 1e-12

_MAX_EXPANSIONS = 80
_MAX_BISECTIONS = 300


@dataclass
class FixedPointResult:
    """Root of the fixed-point equation for one (shift, index, side).

    ``s_hat`` is the certified endpoint of the final bracket (the root
    nearest t on the certified side), and ``f_at_root`` its distance
    from t (``|t - s_hat|`` up to the rounding of s_hat), which an
    inertia count has shown to be at least ``F_j(s_hat)``; it exceeds
    ``F_j(s_hat)`` by less than twice the bracket width.
    ``iterations`` counts the shifts at which the root counted the
    residual's sign: 3 for a root whose predicted bracket the residual
    confirms (at t and at both ends), 1 for a captured shift, and
    otherwise at most the unseeded search's count plus the two that
    checked the prediction, wherever the counted signs are monotone;
    one less where the sign at t came from the forms (see
    :func:`_root`), so 0 for a captured shift whose sign the forms
    kept.  ``tau`` is the pencil eigenvalue tau_j offered as the seed,
    None when none was drawn (a captured shift) or the pencil had none.
    It is kept where the predicted bracket missed and the search went on
    without it.
    """

    j: int
    side: str
    s_hat: float
    f_at_root: float
    iterations: int
    bracket_width: float
    tau: float = None

    @property
    def bound(self):
        """The certified spectral bound this root encodes."""
        if self.side == "left":
            return self.s_hat - self.f_at_root
        return self.s_hat + self.f_at_root


def _scale(theta, t):
    """Spread of the Rayleigh quotients ``theta`` (ascending), floored by
    the distance from t to either end of their range."""
    return max(theta[-1] - theta[0], t - theta[0], theta[-1] - t)


def default_fp_tol(forms, t):
    """Default bisection tolerance for the fixed-point solve at shift t.

    ``FP_TOL_FACTOR`` times a length scale of the problem: the spread of
    the trial Rayleigh quotients, floored by the distance from t to
    either end of that range so it cannot degenerate for tiny (even
    one-dimensional) trial spaces.
    """
    return FP_TOL_FACTOR * _scale(forms.ritz(), t)


def _seed_taus(forms, t, side, count):
    """The nearest ``count`` pencil eigenvalues on ``side`` of t (fewer
    where the side holds fewer), nearest bound first and polished; None
    where the solve fails.  A seed only decides where the bisection
    looks, so its failure costs nothing but the evaluations it would
    have saved."""
    try:
        return _pencil(forms, t).nearest(side, count)
    except (EigencloseError, ValueError, np.linalg.LinAlgError):
        return None


def optimal_shift(forms, t, j, side, fp_tol=None):
    """Solve the fixed-point equation for one index and side.

    The pencil's prediction of the root seeds the bisection (see the
    module docstring); the root itself is the one the unseeded
    bisection finds.

    Parameters
    ----------
    forms : TrialForms
    t : float
        Reference shift the bound is anchored at.
    j : int
        1-based index of the target spectral point, counted away from t.
    side : {"left", "right"}
    fp_tol : float, optional
        Bracket size at which bisection stops, finite and positive.
        Defaults to 1e-12 times the spread of the trial Rayleigh
        quotients around t.

    Returns
    -------
    FixedPointResult

    Raises
    ------
    NoSignChangeError
        If fewer than j Rayleigh quotients lie on the requested side of
        t -- then the fixed-point equation has no root there.
    InconsistentFormsError
        If the forms fail :meth:`TrialForms.validate`; no sign is
        counted and no pencil solved first.
    NonFiniteError
        If t is not finite; the message names t.
    MaxIterationsError
        If bracketing or bisection exhausts its budget.
    """
    return _root(
        forms, t, j, side, fp_tol, lambda: _seed_taus(forms, t, side, count=j)
    )


def _root(forms, t, j, side, fp_tol, seed):
    """:func:`optimal_shift` seeded by the pencil eigenvalues ``seed()``.

    ``seed`` is a function of no arguments returning the pencil
    eigenvalues on ``side``, nearest bound first, or None for no seed.
    It is called only after the argument, detectability and consistency
    checks, and only when the shift is not captured.  Its ``tau_j``
    predicts the root's final bracket (see the module docstring); one
    helper runs the search, for that dry run and for the real search,
    which asks the record of known signs first and counts the residual's
    sign (:func:`_at_most`) only where the record leaves it open.  Where
    the residual confirms the predicted bracket the real search is
    skipped: the record would answer each of its points as the dry run
    did, so the dry run's bracket is the search's.

    The forms are checked by :meth:`TrialForms.validate` right after the
    detectability check, and its ``InconsistentFormsError`` propagates:
    the count is the residual's sign only on forms that pass it.  The
    forms keep the sign at t for the last (t, j), and a root counts the
    shifts it evaluates.  Each root logs one debug line: its side, index,
    whether the shift was captured or the predicted bracket held, its
    shifts, and the final bracket width.
    """
    _check_side(side)
    if not 1 <= j <= forms.n:
        raise ValueError(f"index j={j} outside 1..{forms.n}")
    if fp_tol is not None and not (math.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fp_tol must be finite and positive, got {fp_tol:g}")
    t = float(t)
    if not math.isfinite(t):
        raise _overflow(t)

    theta = forms.ritz()
    detectable = int(np.sum(theta < t) if side == "left" else np.sum(theta > t))
    if detectable < j:
        raise NoSignChangeError(
            f"only {detectable} spectral points detectable {side} of "
            f"t={t:g}, cannot bound index {j}"
        )
    forms.validate()
    scale = _scale(theta, t)
    if fp_tol is None:
        fp_tol = FP_TOL_FACTOR * scale

    sign = -1.0 if side == "left" else 1.0
    counted = set()  # the shifts whose sign was counted

    # The record of known signs of the residual F_j(t + sign alpha) - alpha,
    # nonincreasing in alpha >= 0 (F_j is 1-Lipschitz): known[False] is the
    # largest alpha counted with residual > 0, known[True] the smallest
    # counted with residual <= 0.
    known = {False: -np.inf, True: np.inf}

    def certified(alpha):
        """Whether the residual at alpha is <= 0: from the record where
        alpha lies outside it, else by an inertia count that narrows it."""
        if alpha <= known[False]:
            return False
        if alpha >= known[True]:
            return True
        s = t + sign * alpha
        counted.add(s)
        result = _at_most(forms, s, alpha, j)
        known[result] = alpha
        return result

    key = (t, j)
    if forms._kept.get("counting", (None,))[0] == key:
        captured = forms._kept["counting"][1]  # the last root at (t, j) found it
        known[captured] = 0.0
    else:
        captured = certified(0.0)
        forms._kept["counting"] = (key, captured)

    def search(test):
        """Expansion, then bisection, on the sign test ``test(alpha)``,
        residual <= 0: the final bracket (lo, hi)."""
        step = scale
        expansions = 0
        while not test(step):
            expansions += 1
            if expansions > _MAX_EXPANSIONS:
                raise MaxIterationsError(
                    f"no sign change within {step:g} of t={t:g} "
                    f"(side={side}, j={j})"
                )
            step *= 2.0
        # lo has residual > 0 (towards t), hi has residual <= 0
        lo, hi = (step / 2.0 if expansions else 0.0), step
        iterations = 0
        while hi - lo > 0.5 * fp_tol:
            iterations += 1
            if iterations > _MAX_BISECTIONS:
                raise MaxIterationsError(
                    f"bisection exceeded {_MAX_BISECTIONS} iterations "
                    f"(side={side}, j={j}, bracket width {hi - lo:g})"
                )
            mid = 0.5 * (lo + hi)
            if test(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    # The prediction's dry run fills the record: where the residual
    # confirms the predicted bracket, the search would retrace the dry run
    # and is skipped; where it does not, the search starts from the signs
    # found at lo* and hi*.
    outcome, tau_j, lo, hi = "shift captured", None, 0.0, 0.0
    if not captured:
        outcome, held = "predicted bracket not drawn", False
        taus = seed()
        tau_j = float(taus[j - 1]) if taus is not None and taus.size >= j else None
        if tau_j is not None:
            alpha_star = 0.5 / abs(tau_j)
            try:
                # a root beyond the expansion's reach, or so far out that
                # the bisection cannot resolve fp_tol there, gives no
                # prediction
                low, high = search(lambda alpha: alpha >= alpha_star)
            except MaxIterationsError:
                outcome = "predicted bracket unreachable"
            else:
                # lo* = 0 is known positive and hi* is known once lo* is not
                held = [certified(low), certified(high)] == [False, True]
                outcome = "predicted bracket " + ("held" if held else "missed")
        lo, hi = (low, high) if held else search(certified)

    logger.debug(
        "root side=%s j=%d: %s; shifts %d; final bracket width %.3g",
        side, j, outcome, len(counted), hi - lo,
    )
    # the certified endpoint, nearest t with residual <= 0: F_j there is <= hi
    return FixedPointResult(
        j=j, side=side, s_hat=t + sign * hi, f_at_root=hi,
        iterations=len(counted), bracket_width=hi - lo, tau=tau_j,
    )


def _at_most(forms, s, alpha, j):
    """Whether F_j(s) <= alpha, alpha >= 0, by an inertia count: exactly
    where the pencil (Q_s, M0) has at least j eigenvalues <= alpha**2,
    which by Sylvester's law of inertia (M0 is definite) is where
    ``Q_s - alpha**2 M0`` has at least j eigenvalues <= 0.  That matrix
    is formed on the forms' pattern in their precision and counted in
    double (:func:`~eigenclose.linalg.count_nonpositive`).  A shift whose
    Q_s overflows raises ``NonFiniteError`` naming it, as a pencil solve
    there does."""
    m0 = forms._values[0]
    aa = m0.dtype.type(alpha)
    # an overflow is reported once, as the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        values = shifted_square(forms, s) - (aa * aa) * m0
        values = values.astype(float, copy=False)
    try:
        return count_nonpositive(values, forms.n, forms.pattern()) >= j
    except NonFiniteError:
        raise _overflow(s) from None


def dp_bounds(forms, t, j_max, side, fp_tol=None):
    """Certified one-sided bounds for indices 1..j_max via fixed points.

    Returns an array that may be shorter than ``j_max``: once an index
    is undetectable every larger index is too, so the output is simply
    truncated there, and it stops at the trial dimension n, beyond which
    no index is detectable.  Index 0 of the array bounds the spectral point
    nearest t; for ``side="left"`` the array decreases, for
    ``side="right"`` it increases.  The forms' kept pencil solve at t
    seeds every index, polished once for all ``j_max`` of them; the
    seed is drawn once, so a solve that fails is not retried per index.
    A t that is not finite raises ``NonFiniteError`` naming it, and forms
    that fail :meth:`TrialForms.validate` raise its
    ``InconsistentFormsError`` before any count or pencil solve.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be positive, got {j_max}")
    seed = functools.cache(lambda: _seed_taus(forms, t, side, count=j_max))
    bounds = []
    for j in range(1, min(j_max, forms.n) + 1):
        try:
            result = _root(forms, t, j, side, fp_tol, seed)
        except NoSignChangeError:
            break
        bounds.append(result.bound)
    return np.asarray(bounds)


def equivalence_gap(forms, t, j, side, fp_tol=None):
    """Distance between the fixed-point root and its pencil prediction.

    The optimal root equals ``t + 1/(2 tau_j)`` with ``tau_j`` the j-th
    negative (side="left") or positive (side="right") pencil eigenvalue.
    The return value ``|s_hat - (t + 1/(2 tau_j))|`` should sit at the
    fixed-point tolerance whenever both code paths are healthy.  The
    prediction reads the forms' kept pencil solve, the one that seeded
    the root; the root is the one an unseeded bisection finds, so this
    is a genuine audit.

    Raises
    ------
    NoSignChangeError
        If the side is undetectable at index j (either route).
    InconsistentFormsError
        As for :func:`optimal_shift`, before the pencil is solved.
    """
    result = optimal_shift(forms, t, j, side, fp_tol)
    tau = _pencil(forms, t).nearest(side, j)
    if tau.size < j:
        raise NoSignChangeError(
            f"pencil detects only {tau.size} points {side} of t={t:g}"
        )
    predicted = t + 0.5 / tau[j - 1]
    return abs(result.s_hat - predicted)
