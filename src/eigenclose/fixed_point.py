"""Certified bounds via fixed points of the local counting function.

For a shift t and index j the equation ``t - s = F_j(s)`` (looking left;
mirrored on the right) has a root exactly when the trial subspace
detects at least j spectral points on that side, and the root s_hat
turns ``s_hat -/+ F_j(s_hat)`` into a certified lower/upper bound for
the j-th spectral point on that side of t.  This is the Davies-Plum
recipe; because ``s + F_j(s)`` and ``s - F_j(s)`` are nondecreasing the
root can be bracketed and bisected with certainty.

The optimal root coincides with ``t + 1/(2 tau_j)`` computed from the
Zimmermann-Mertins pencil, and the certified bound with
``t + 1/tau_j``; :func:`equivalence_gap` audits that identity
numerically, which is a strong end-to-end check on both code paths.

The residual of the equation at distance alpha from t is
nonincreasing in alpha, so one evaluation gives its sign on a whole
half-line.  Each root keeps one record of known signs, the largest
alpha evaluated with residual > 0 and the smallest evaluated with
residual <= 0; every evaluation updates it, and the search evaluates
the counting function only at an alpha between the two.

The pencil fills that record first.  Its prediction
``alpha* = 1/(2 |tau_j|)`` of the root's distance from t gives the
final bracket ``[lo*, hi*]`` the search would end in if the root were
alpha*: the search's own expansion and bisection, run once with the
test ``alpha >= alpha*`` in place of a counting evaluation.  Checking
the residual at lo* and then at hi* fills the record.  Where the residual is
positive at lo* and <= 0 at hi*, every point the search visits lies at
or below lo* or at or above hi*: the search retraces the dry run
without a further evaluation, and the counting value at the root's
certified end hi* is the one already computed.  A root then costs 3
evaluations (the residual at t, lo* and hi*) on the same path to the
same root as without the prediction wherever the computed residual's
signs are monotone; where rounding makes it change sign more than once
(a residual flat to rounding), the two searches may end at different
sign changes, each a certified root.  A bracket the counting function
does not confirm still narrows the search by the signs found at its
ends, for at most those two evaluations more than without it.  A
prediction beyond the search's reach, a pencil that fails or has too
few values, or forms that fail the exact consistency test of
:meth:`TrialForms.validate` leave the search unseeded.  The pencil is
solved once per shift per forms (the forms keep their last solve, so
both sides of an audit and every index share it), and a call polishes
only the first j (``j_max`` for :func:`dp_bounds`) tau of the root's
side, the ones it reads.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .enclosure import _check_side, _pencil, local_counting
from .errors import (
    EigencloseError,
    MaxIterationsError,
    NoSignChangeError,
)

logger = logging.getLogger(__name__)

#: bisection stops when the bracket is this fraction of the scale
FP_TOL_FACTOR = 1e-12

_MAX_EXPANSIONS = 80
_MAX_BISECTIONS = 300


@dataclass
class FixedPointResult:
    """Root of the fixed-point equation for one (shift, index, side).

    ``s_hat`` is the certified endpoint of the final bracket (the root
    nearest t on the certified side), ``f_at_root`` the counting value
    there; ``|f_at_root - |t - s_hat||`` does not exceed the fixed-point
    tolerance used.  ``iterations`` counts the counting-function
    evaluations made, each at a distinct shift: 3 for a root whose
    predicted bracket the counting function confirms (the residual at t
    and at both ends), 1 for a captured shift, and otherwise at most
    the unseeded search's count plus the two that checked the
    prediction, wherever the computed residual's signs are monotone.
    ``tau`` is the pencil eigenvalue tau_j
    offered as the seed, None when none was drawn (a captured shift or
    inconsistent forms), the pencil had none, or the counting function
    contradicted it at the root.
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
    """Pencil eigenvalues on ``side`` of t, nearest bound first, the
    nearest ``count`` polished; None where the solve fails or the forms
    fail :meth:`TrialForms.validate`.  A seed only decides where the
    bisection looks, so its failure costs nothing but the evaluations it
    would have saved.  Inconsistent forms get the unseeded search: it
    evaluates F_j at every shift it visits, and so raises wherever one
    of them shows an indefinite Q_s."""
    try:
        forms.validate()
        return _pencil(forms, t).polish(side, count)
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
    It is called only after the argument and detectability checks, and
    only when the shift is not captured.  Its ``tau_j`` predicts the
    root's final bracket (see the module docstring); one helper runs the
    search, for that dry run and for the real search, which asks the
    record of known signs first and evaluates the counting function only
    where the record leaves the sign open.  Each root logs one debug
    line: its side, index, evaluations, whether the predicted bracket
    held and the final bracket width (a captured shift logs its own
    line).
    """
    _check_side(side)
    if not 1 <= j <= forms.n:
        raise ValueError(f"index j={j} outside 1..{forms.n}")
    if fp_tol is not None and not (math.isfinite(fp_tol) and fp_tol > 0.0):
        raise ValueError(f"fp_tol must be finite and positive, got {fp_tol:g}")
    t = float(t)

    theta = forms.ritz()
    detectable = int(np.sum(theta < t) if side == "left" else np.sum(theta > t))
    if detectable < j:
        raise NoSignChangeError(
            f"only {detectable} spectral points detectable {side} of "
            f"t={t:g}, cannot bound index {j}"
        )
    scale = _scale(theta, t)
    if fp_tol is None:
        fp_tol = FP_TOL_FACTOR * scale

    values = {}  # F_j by shift, each solved once

    def f_of(s):
        if s not in values:
            values[s] = float(local_counting(forms, s, count=j)[j - 1])
        return values[s]

    # The record of known signs of the residual F_j(t + sign alpha) - alpha,
    # nonincreasing in alpha >= 0 (F_j is 1-Lipschitz): known[False] is the
    # largest alpha evaluated with residual > 0, known[True] the smallest
    # evaluated with residual <= 0.
    sign = -1.0 if side == "left" else 1.0
    known = {False: -np.inf, True: np.inf}

    def certified(alpha):
        """Whether the residual at alpha is <= 0: from the record where
        alpha lies outside it, else by an evaluation that narrows it."""
        if alpha <= known[False]:
            return False
        if alpha >= known[True]:
            return True
        result = f_of(t + sign * alpha) - alpha <= 0.0
        known[result] = alpha
        return result

    if certified(0.0):
        # the shift itself is (numerically) captured by the subspace
        logger.debug("root side=%s j=%d: shift captured, 1 evaluation", side, j)
        return FixedPointResult(
            j=j, side=side, s_hat=t, f_at_root=f_of(t),
            iterations=1, bracket_width=0.0,
        )

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

    # The prediction's dry run only fills the record: where the residual
    # confirms the predicted bracket, the search retraces the dry run
    # without a further evaluation; where it does not, the search starts
    # from the signs found at lo* and hi*.
    predicted = "not drawn"
    taus = seed()
    tau_j = float(taus[j - 1]) if taus is not None and taus.size >= j else None
    if tau_j is not None:
        alpha_star = 0.5 / abs(tau_j)
        try:
            # a root beyond the expansion's reach, or so far out that the
            # bisection cannot resolve fp_tol there, gives no prediction
            low, high = search(lambda alpha: alpha >= alpha_star)
        except MaxIterationsError:
            predicted = "unreachable"
        else:
            # lo* = 0 is known positive and hi* is known once lo* is not
            held = [certified(low), certified(high)] == [False, True]
            predicted = "held" if held else "missed"

    lo, hi = search(certified)

    s_hat = t + sign * hi  # certified endpoint, nearest t with residual <= 0
    f_at_root = f_of(s_hat)
    if f_at_root - hi > 0.0:
        # a guard: the search ends on the record's evaluated end, so only
        # a counting function that contradicts its own signs reaches this
        return _root(forms, t, j, side, fp_tol, lambda: None)
    logger.debug(
        "root side=%s j=%d: %d evaluations, predicted bracket %s, "
        "final bracket width %.3g",
        side, j, len(values), predicted, hi - lo,
    )
    return FixedPointResult(
        j=j,
        side=side,
        s_hat=s_hat,
        f_at_root=f_at_root,
        iterations=len(values),
        bracket_width=hi - lo,
        tau=tau_j,
    )


def dp_bounds(forms, t, j_max, side, fp_tol=None):
    """Certified one-sided bounds for indices 1..j_max via fixed points.

    Returns an array that may be shorter than ``j_max``: once an index
    is undetectable every larger index is too, so the output is simply
    truncated there.  Index 0 of the array bounds the spectral point
    nearest t; for ``side="left"`` the array decreases, for
    ``side="right"`` it increases.  The forms' kept pencil solve at t
    seeds every index, polished once for all ``j_max`` of them; the
    seed is drawn once, so a solve that fails is not retried per index.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be positive, got {j_max}")
    seed = functools.cache(lambda: _seed_taus(forms, t, side, count=j_max))
    bounds = []
    for j in range(1, j_max + 1):
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
    """
    result = optimal_shift(forms, t, j, side, fp_tol)
    tau = _pencil(forms, t).polish(side, j)
    if tau.size < j:
        raise NoSignChangeError(
            f"pencil detects only {tau.size} points {side} of t={t:g}"
        )
    predicted = t + 0.5 / tau[j - 1]
    return abs(result.s_hat - predicted)
