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
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .enclosure import local_counting, zm_eigen
from .errors import (
    DeflationWarning,
    MaxIterationsError,
    NoSignChangeError,
)
from .linalg import DEFAULT_TOL, sym_generalized_eigvals

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
    tolerance used.  ``iterations`` counts every counting-function
    evaluation, bracket expansions included.
    """

    j: int
    side: str
    s_hat: float
    f_at_root: float
    iterations: int
    bracket_width: float

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


def default_fp_tol(forms, t, tol=DEFAULT_TOL):
    """Default bisection tolerance for the fixed-point solve at shift t.

    ``FP_TOL_FACTOR`` times a length scale of the problem: the spread of
    the trial Rayleigh quotients, floored by the distance from t to
    either end of that range so it cannot degenerate for tiny (even
    one-dimensional) trial spaces.
    """
    theta = sym_generalized_eigvals(forms.M1, forms.M0, tol)
    return FP_TOL_FACTOR * _scale(theta, t)


def optimal_shift(forms, t, j, side, fp_tol=None, tol=DEFAULT_TOL):
    """Solve the fixed-point equation for one index and side.

    Parameters
    ----------
    forms : TrialForms
    t : float
        Reference shift the bound is anchored at.
    j : int
        1-based index of the target spectral point, counted away from t.
    side : {"left", "right"}
    fp_tol : float, optional
        Bracket size at which bisection stops.  Defaults to 1e-12 times
        the spread of the trial Rayleigh quotients around t.

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
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not 1 <= j <= forms.n:
        raise ValueError(f"index j={j} outside 1..{forms.n}")
    t = float(t)

    theta = sym_generalized_eigvals(forms.M1, forms.M0, tol)
    detectable = int(np.sum(theta < t) if side == "left" else np.sum(theta > t))
    if detectable < j:
        raise NoSignChangeError(
            f"only {detectable} spectral points detectable {side} of "
            f"t={t:g}, cannot bound index {j}"
        )
    scale = _scale(theta, t)
    if fp_tol is None:
        fp_tol = FP_TOL_FACTOR * scale

    evals = 0

    def f_of(s):
        nonlocal evals
        evals += 1
        return float(local_counting(forms, s, tol, count=j).F[j - 1])

    sign = -1.0 if side == "left" else 1.0

    def g(alpha):
        # signed residual of the fixed-point equation; nondecreasing in
        # |alpha| on both sides, <= 0 exactly on the certified region
        return f_of(t + sign * alpha) - alpha

    g0 = g(0.0)
    if g0 <= 0.0:
        # the shift itself is (numerically) captured by the subspace
        return FixedPointResult(
            j=j, side=side, s_hat=t, f_at_root=max(g0, 0.0), iterations=evals,
            bracket_width=0.0,
        )

    # expand outward until the residual changes sign
    step = scale
    g_far = g(step)
    expansions = 0
    while g_far > 0.0:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise MaxIterationsError(
                f"no sign change within {step:g} of t={t:g} "
                f"(side={side}, j={j})"
            )
        step *= 2.0
        g_far = g(step)
    logger.debug(
        "bracketed side=%s j=%d: alpha in [0, %g] after %d expansions",
        side, j, step, expansions,
    )

    # bisection: lo has residual > 0 (towards t), hi has residual <= 0
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
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        logger.debug("bracket [%r, %r]", lo, hi)

    s_hat = t + sign * hi  # certified endpoint, nearest t with residual <= 0
    return FixedPointResult(
        j=j,
        side=side,
        s_hat=s_hat,
        f_at_root=f_of(s_hat),
        iterations=evals,
        bracket_width=hi - lo,
    )


def dp_bounds(forms, t, j_max, side, fp_tol=None, tol=DEFAULT_TOL):
    """Certified one-sided bounds for indices 1..j_max via fixed points.

    Returns an array that may be shorter than ``j_max``: once an index
    is undetectable every larger index is too, so the output is simply
    truncated there.  Index 0 of the array bounds the spectral point
    nearest t; for ``side="left"`` the array decreases, for
    ``side="right"`` it increases.
    """
    bounds = []
    for j in range(1, j_max + 1):
        try:
            result = optimal_shift(forms, t, j, side, fp_tol, tol)
        except NoSignChangeError:
            break
        bounds.append(result.bound)
    return np.asarray(bounds)


def equivalence_gap(forms, t, j, side, fp_tol=None, tol=DEFAULT_TOL):
    """Distance between the fixed-point root and its pencil prediction.

    The optimal root equals ``t + 1/(2 tau_j)`` with ``tau_j`` the j-th
    negative (side="left") or positive (side="right") pencil eigenvalue.
    The return value ``|s_hat - (t + 1/(2 tau_j))|`` should sit at the
    fixed-point tolerance whenever both code paths are healthy.

    Raises
    ------
    NoSignChangeError
        If the side is undetectable at index j (either route).
    """
    result = optimal_shift(forms, t, j, side, fp_tol, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeflationWarning)
        pencil = zm_eigen(forms, t, tol, count=j)
    tau = pencil.tau_minus if side == "left" else pencil.tau_plus
    if tau.size < j:
        raise NoSignChangeError(
            f"pencil detects only {tau.size} points {side} of t={t:g}"
        )
    predicted = t + 0.5 / tau[j - 1]
    return abs(result.s_hat - predicted)


def f_curve(forms, j, grid, tol=DEFAULT_TOL):
    """Sample the j-th counting value on a grid of shifts.

    Returns an ``(len(grid), 2)`` array of ``(s, F_j(s))`` rows.  As a
    cheap self-check the samples are tested against the 1-Lipschitz
    property; a violation signals inconsistent forms and triggers a
    warning, not an error.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.array(
        [local_counting(forms, s, tol, count=j).F[j - 1] for s in grid]
    )
    order = np.argsort(grid)
    gaps = np.abs(np.diff(values[order]))
    steps = np.diff(grid[order])
    slack = 1e-8 * max(1.0, float(np.max(np.abs(values))))
    if np.any(gaps > steps + slack):
        warnings.warn(
            "counting-function samples violate the Lipschitz bound; "
            "the form matrices look inconsistent",
            stacklevel=2,
        )
    return np.column_stack([grid, values])
