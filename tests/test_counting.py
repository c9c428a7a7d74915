"""Tests for the local counting function and signatures."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenclose.enclosure import (
    Signature,
    local_counting,
    signature,
    zm_eigen,
)
from eigenclose.errors import (
    DeflationWarning,
    DegenerateShiftError,
    NegativeEigenvalueError,
)
from eigenclose.forms import TrialForms, operator_forms

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def random_model(seed, n_max=6):
    """Random diagonal operator with a random full-rank trial basis."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, n + 1))
    lam = np.sort(rng.uniform(-3.0, 3.0, n))
    w = rng.standard_normal((n, k))
    return lam, operator_forms(np.diag(lam), w)


def roundoff(forms, t, f):
    """Per-index bound on the roundoff in the counting values f at t.

    Forming ``Q_t = M2 - 2t M1 + t^2 M0`` cancels near the spectrum, so
    mu^2 = F^2 carries an error of about
    ``delta = n u (||M2|| + 2|t| ||M1|| + t^2 ||M0||) ||M0^-1||`` (2-norms,
    u the unit roundoff); the square root divides it by F_j, and near
    F_j = 0 leaves at most sqrt(delta).  ``2 u (|t| + F_j)`` covers the
    rounding of the sums the tests compare.
    """
    u = np.finfo(float).eps / 2
    norms = [np.linalg.norm(m, 2) for m in (forms.M2, forms.M1, forms.M0)]
    scale = norms[0] + 2.0 * abs(t) * norms[1] + t * t * norms[2]
    delta = forms.n * u * scale / np.linalg.eigvalsh(forms.M0)[0]
    with np.errstate(divide="ignore"):
        return np.minimum(delta / f, np.sqrt(delta)) + 2.0 * u * (abs(t) + f)


def test_counting_values_worked_model():
    f = local_counting(WORKED, 3.0)
    # distances from 3 to the exactly represented points 2 and 1
    assert isinstance(f, np.ndarray) and f.dtype == np.float64
    npt.assert_allclose(f, [1.0, 2.0], atol=1e-12)


def test_counting_dominates_distance_to_spectrum():
    # F_j(t) can never undercut the j-th nearest true distance
    for seed in range(40):
        lam, forms = random_model(seed)
        rng = np.random.default_rng(1000 + seed)
        for t in rng.uniform(-4.0, 4.0, 5):
            f = local_counting(forms, t)
            dist = np.sort(np.abs(lam - t))[: forms.n]
            assert np.all(f + 1e-9 >= dist[: f.size])


def test_counting_exact_at_represented_eigenvalue():
    # the full basis represents both eigenvectors, so F_1 vanishes on sigma
    assert local_counting(WORKED, 2.0)[0] < 1e-14


def test_counting_rejects_corrupt_m2():
    forms = TrialForms(np.eye(2), np.zeros((2, 2)), np.diag([-1.0, 1.0]))
    with pytest.raises(NegativeEigenvalueError):
        local_counting(forms, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-4, max_value=4),
    s=st.floats(min_value=-4, max_value=4),
)
@example(seed=17, t=-2.2109375, s=-2.0546875)  # cond(M0) = 6.7e5, F_1(s) = 0.02
def test_counting_is_lipschitz(seed, t, s):
    lam, forms = random_model(seed)
    ft = local_counting(forms, t)
    fs = local_counting(forms, s)
    slack = roundoff(forms, t, ft) + roundoff(forms, s, fs)
    assert np.all(np.abs(ft - fs) <= abs(t - s) + slack)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-4, max_value=4),
    dt=st.floats(min_value=0, max_value=3),
)
@example(seed=17, t=-2.2109375, dt=0.15625)  # cond(M0) = 6.7e5, F_1(t+dt) = 0.02
def test_counting_shifted_monotonicity(seed, t, dt):
    """t + F(t) and t - F(t) are both nondecreasing."""
    lam, forms = random_model(seed)
    ft = local_counting(forms, t)
    fu = local_counting(forms, t + dt)
    slack = roundoff(forms, t, ft) + roundoff(forms, t + dt, fu)
    assert np.all(t + dt + fu >= t + ft - slack)
    assert np.all(t + dt - fu >= t - ft - slack)


# --- signatures --------------------------------------------------------


def test_signature_worked_model_above_spectrum():
    assert signature(WORKED, 3.0) == Signature(0, 0, 2, 0)


def test_signature_worked_model_between():
    assert signature(WORKED, 1.5) == Signature(0, 0, 1, 1)


def test_signature_zero_census():
    # mean of the spectrum as seen through (e1+e2)/sqrt(2) of diag(1, 3):
    # L_2 vanishes there while Q_2 does not
    a = np.diag([1.0, 3.0])
    w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    forms = operator_forms(a, w)
    assert signature(forms, 2.0) == Signature(0, 1, 0, 0)


def test_signature_degenerate_shift_census():
    # trial space = exact eigenvector: Q_t vanishes identically at t = 1
    forms = operator_forms(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
    assert signature(forms, 1.0) == Signature(1, 0, 0, 0)


def test_zm_eigen_degenerate_shift_raises():
    forms = operator_forms(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
    with pytest.raises(DegenerateShiftError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zm_eigen(forms, 1.0)


def test_zm_eigen_deflation_census_and_warning():
    # t = 1 sits exactly on the represented point 1: one kernel direction;
    # the solve stays silent and its census reports the deflation
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeflationWarning)
        pencil = zm_eigen(WORKED, 1.0)
    assert pencil.signature == Signature(1, 0, 0, 1)
    npt.assert_allclose(pencil.tau_plus, [1.0], atol=1e-12)


def test_signature_counts_sum_to_dimension():
    for seed in range(30):
        lam, forms = random_model(seed)
        rng = np.random.default_rng(2000 + seed)
        for t in rng.uniform(-4.0, 4.0, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeflationWarning)
                sig = signature(forms, t)
            assert sig.total == forms.n


def test_signature_side_counts_match_true_census():
    """With an exactly represented spectrum the pencil census is sharp."""
    lam = np.array([-1.0, 0.5, 2.0, 3.5])
    forms = operator_forms(np.diag(lam), np.eye(4))
    sig = signature(forms, 1.0)
    assert (sig.n_minus, sig.n_plus) == (2, 2)
    sig = signature(forms, -2.0)
    assert (sig.n_minus, sig.n_plus) == (0, 4)
