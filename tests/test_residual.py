"""Tests for eigenvector residual bounds."""

import numpy as np
import numpy.testing as npt
import pytest

from eigenclose.enclosure import local_counting, residual_bounds
from eigenclose.errors import GapViolationError
from eigenclose.forms import operator_forms


def rotation_forms(theta):
    """Trial space spanned by a rotated first eigenvector of diag(1, 3).

    The subspace angle to the true eigenvector is exactly theta, which
    makes every derived quantity computable in closed form.
    """
    a = np.diag([1.0, 3.0])
    w = np.array([[np.cos(theta)], [np.sin(theta)]])
    return operator_forms(a, w)


def test_eps_equals_sine_of_rotation_angle():
    # one trial vector at angle theta: eps recovers sin(theta) exactly
    for theta in (0.3, 0.1, 0.02):
        forms = rotation_forms(theta)
        f1 = local_counting(forms, 1.0)[0]
        rb = residual_bounds([f1], [0.0], [2.0])
        npt.assert_allclose(rb.eps[0], np.sin(theta), rtol=1e-10, atol=1e-12)
        assert rb.valid


def test_counting_value_closed_form_for_rotation():
    # F_1(1)^2 = <(A-1)w, (A-1)w> = 4 sin^2(theta)
    theta = 0.17
    f1 = local_counting(rotation_forms(theta), 1.0)[0]
    npt.assert_allclose(f1, 2.0 * np.sin(theta), rtol=1e-12)


def test_recursion_hand_example():
    # worked by hand from the recursion:
    #   eps_1^2 = (F_1^2 - d_1^2) / (delta_1^2 - d_1^2) = 0.0275/0.1875
    #   eps_2^2 = 0.11/0.75 + (eps_1^2/(1-eps_1^2)) (1 + 0.1875/0.75)
    rb = residual_bounds([0.3, 0.6], [0.25, 0.5], [0.5, 1.0])
    npt.assert_allclose(rb.eps[0] ** 2, 0.14666666666666664, rtol=1e-14)
    npt.assert_allclose(rb.eps[1] ** 2, 0.3615104166666666, rtol=1e-13)
    npt.assert_allclose(
        rb.graph_bounds, [0.1914854215512676, 0.4476355707120097], rtol=1e-13
    )
    assert rb.valid


def test_graph_bound_formula():
    rb = residual_bounds([0.3], [0.25], [0.5])
    expected = np.sqrt(0.3**2 - 0.25**2 + 0.25**2 * rb.eps[0] ** 2)
    npt.assert_allclose(rb.graph_bounds[0], expected, rtol=1e-14)


def test_zero_distance_index_gives_plain_ratio():
    # d_1 = 0 (shift on the spectral point): eps_1 = F_1 / delta_1
    rb = residual_bounds([0.2], [0.0], [0.8])
    npt.assert_allclose(rb.eps[0], 0.25, rtol=1e-14)
    npt.assert_allclose(rb.graph_bounds[0], 0.2, rtol=1e-14)


def test_gap_violation_raises():
    with pytest.raises(GapViolationError, match="index 2"):
        residual_bounds([0.1, 0.2], [0.05, 0.5], [0.5, 0.5])


def test_inconsistent_inputs_raise():
    # F below the claimed distance is impossible: bad caller data
    with pytest.raises(ValueError, match="below the claimed"):
        residual_bounds([0.1], [0.2], [0.5])


def test_tiny_undershoot_within_guard_is_tolerated():
    # F == d up to roundoff must not trip the consistency check
    rb = residual_bounds([0.25 - 1e-14], [0.25], [0.5])
    assert rb.eps[0] == 0.0


def test_invalid_flag_and_inf_propagation():
    # eps_1 >= 1: nothing downstream can be certified
    rb = residual_bounds([0.9, 1.1], [0.1, 0.2], [0.6, 0.7])
    assert not rb.valid
    assert rb.eps[0] >= 1.0
    assert np.isinf(rb.eps[1])
    assert np.isinf(rb.graph_bounds[1])
    # the first graph bound is still reported (finite eps, vacuous or not)
    assert np.isfinite(rb.graph_bounds[0])


def test_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        residual_bounds([0.1, 0.2], [0.05], [0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        residual_bounds([0.1], [-0.05], [0.5])


def test_eps_upper_bounds_true_subspace_deviation():
    """eps from the recursion dominates the true sine of the angle."""
    rng = np.random.default_rng(31)
    lam = np.array([1.0, 3.0, 5.0])
    for _ in range(25):
        # random 2-dim trial space moderately aligned with e1, e2
        w = np.eye(3)[:, :2] + 0.2 * rng.standard_normal((3, 2))
        forms = operator_forms(np.diag(lam), w)
        f = local_counting(forms, 1.0)
        m = 2
        rb = residual_bounds(f[:m], [0.0, 2.0], [2.0, 4.0])
        if not rb.valid:
            continue
        # true sine of the angle between e_j and the trial span
        q, _ = np.linalg.qr(w)
        for j, ej in enumerate(np.eye(3)[:, :m].T):
            sine = np.linalg.norm(ej - q @ (q.T @ ej))
            assert rb.eps[j] + 1e-9 >= sine
