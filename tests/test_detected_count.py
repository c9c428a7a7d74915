"""Tests for the count N(z, w) of the trial space and the identities
that tie both routes to it (:func:`eigenclose.forms.detected_count`)."""

import numpy as np
import pytest

from eigenclose.dirac1d import assemble_1d, uniform_mesh
from eigenclose.enclosure import zm_bounds_one_sided, zm_eigen, zm_enclosures
from eigenclose.fixed_point import default_fp_tol, optimal_shift
from eigenclose.forms import TrialForms, detected_count, operator_forms
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def _dirac(seed):
    return assemble_1d(uniform_mesh(40, jitter=0.3, seed=seed), 3).forms


def _maxwell(seed, order=1, nx=8):
    return assemble_2d(structured_tri_mesh(nx, jitter=0.25, seed=seed), order).forms


def test_detected_count_of_the_worked_model():
    # P(z, w) = diag((1 - z)(1 - w), (2 - z)(2 - w)): N counts the points
    # 1 and 2 in [z, w], the ends included
    assert detected_count(WORKED, 0.5, 1.5) == 1
    assert detected_count(WORKED, 0.5, 2.5) == 2
    assert detected_count(WORKED, 1.0, 2.0) == 2
    assert detected_count(WORKED, 1.2, 1.8) == 0
    assert detected_count(WORKED, 2.5, 0.5) == 2  # symmetric in z and w


WINDOWS = (
    [(_dirac, seed, (a, b)) for seed in range(4)
     for a, b in ((0.5, 2.5), (-2.5, -0.5), (0.3, 3.7))]
    + [(_maxwell, seed, (a, b)) for seed in range(2)
       for a, b in ((0.8, 1.6), (1.6, 2.3), (-2.3, -0.8))]
    + [(lambda seed: _maxwell(seed, order=2, nx=4), 0, window)
       for window in ((0.5, 1.5), (1.2, 2.9))]
)


@pytest.mark.parametrize("build, seed, window", WINDOWS)
def test_window_count_is_the_number_of_bounds_inside_it(build, seed, window):
    # N(a, b) points are detected in the window from either end: as many
    # upper bounds from a and lower bounds from b lie inside it
    forms = build(seed)
    a, b = window
    uppers = zm_bounds_one_sided(forms, a, "right")
    lowers = zm_bounds_one_sided(forms, b, "left")
    inside = (np.count_nonzero(uppers < b), np.count_nonzero(lowers > a))
    assert inside == (detected_count(forms, a, b),) * 2


@pytest.mark.parametrize("build, t", [(_dirac, 0.6), (_dirac, 2.5),
                                      (_maxwell, 1.4), (_maxwell, -0.8)])
def test_the_pencil_reads_the_count(build, t):
    # L_t - sigma Q_t = -sigma P(t, t + 1/sigma), so the pencil's tau at t
    # at or above sigma > 0 are N(t, t + 1/sigma) in number; sigma is
    # drawn log-uniformly over the range of the positive tau
    forms = build(0)
    pencil = zm_eigen(forms, t)
    tau = pencil.tau_plus
    rng = np.random.default_rng(14)
    sigmas = np.exp(rng.uniform(np.log(tau[-1] / 2), np.log(2 * tau[0]), 100))
    for sigma in sigmas:
        at_or_above = pencil.eigen.size - pencil.eigen.count(np.nextafter(sigma, -np.inf))
        assert at_or_above == detected_count(forms, t, t + 1.0 / sigma), sigma


def test_mirrored_counts_are_equal_on_graded_forms():
    # J P(z, w) J = P(-w, -z) bit for bit, and an inertia count does not
    # see the signs J flips
    rng = np.random.default_rng(15)
    for forms in (_dirac(1), _maxwell(1)):
        assert forms.grading() is not None
        for z, w in np.sort(rng.uniform(-3.0, 3.0, (25, 2)), axis=1):
            assert detected_count(forms, -w, -z) == detected_count(forms, z, w)


@pytest.mark.parametrize("build", [_dirac, _maxwell])
def test_the_davies_plum_bound_is_the_pencil_bound_by_bisection(build):
    # the root counts N(t, u) on the line of the pencil's
    # u_j = t + 1/tau_j = min{u : N(t, u) >= j}: its bound has N >= j and
    # lies at most fp_tol (and a few ulps) beyond u_j; mirrored on the left
    forms = build(2)
    for t in (0.6, 1.4):
        fp_tol = default_fp_tol(forms, t)
        pencil = zm_eigen(forms, t)
        for side, sign in (("left", -1.0), ("right", 1.0)):
            tau = pencil.nearest(side, 3)
            for j in (1, 2, 3):
                bound = optimal_shift(forms, t, j, side).bound
                assert detected_count(forms, t, bound) >= j
                beyond = sign * (bound - (t + 1.0 / tau[j - 1]))
                assert -8 * np.spacing(bound) <= beyond <= fp_tol + 8 * np.spacing(bound)


def test_a_pair_need_not_hold_a_point_of_a_window_holding_more_than_detected():
    # A = diag(-2.125, 0.8125, 1.1875, 2.375) on a 3-dimensional trial
    # space: the window (0.78125, 1.21875) holds 0.8125 and 1.1875, and the
    # trial space detects one point there.  The one pair holds neither,
    # is not flagged, and each of its bounds is valid: the upper bound
    # from a lies above 0.8125, the first point above a, and the lower
    # bound from b below 1.1875, the first point below b.
    spectrum = np.array([-2.125, 0.8125, 1.1875, 2.375])
    basis = np.array([[2, -2, 2], [-3, 1, -3], [-1, -3, -1], [-2, -1, 0]], dtype=float)
    forms = operator_forms(np.diag(spectrum), basis)
    a, b = 0.78125, 1.21875
    (pair,) = zm_enclosures(forms, (a, b), 4)
    assert (pair.lower, pair.upper) == (0.9011098754604944, 1.1804115225529428)
    assert not pair.inconsistent
    inside = spectrum[(spectrum > a) & (spectrum < b)]
    assert inside.tolist() == [0.8125, 1.1875]
    assert not any(pair.lower <= x <= pair.upper for x in spectrum)
    assert pair.upper >= inside[0] and pair.lower <= inside[-1]
    assert detected_count(forms, a, b) == 1 < inside.size
