"""Tests for the shifted-pencil (Zimmermann-Mertins) bound machinery."""

import functools
import re
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import eigenclose.enclosure as enclosure_mod
import eigenclose.linalg as linalg_mod
from eigenclose.dirac1d import assemble_1d, uniform_mesh
from eigenclose.enclosure import (
    REFINE_COUNT,
    Enclosure,
    PencilEigen,
    Signature,
    local_counting,
    signature,
    zm_bounds_one_sided,
    zm_eigen,
    zm_enclosures,
    zm_enclosures_all,
)
from eigenclose.errors import (
    DeflationWarning,
    DegenerateShiftError,
    EmptySideError,
    InconsistentFormsError,
    NonFiniteError,
)
from eigenclose.fixed_point import _seed_taus, dp_bounds, equivalence_gap, optimal_shift
from eigenclose.forms import (
    TrialForms,
    _on_pattern,
    operator_forms,
    shifted_linear,
    shifted_product,
)
from eigenclose.linalg import DEFAULT_TOL, TridiagonalEigen
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def test_pencil_worked_model_above():
    pencil = zm_eigen(WORKED, 3.0)
    npt.assert_allclose(pencil.tau_minus, [-1.0, -0.5], atol=1e-12)
    assert pencil.tau_plus.size == 0
    assert pencil.signature == Signature(0, 0, 2, 0)


def test_pencil_vectors_qt_orthonormal():
    rng = np.random.default_rng(13)
    lam = np.array([0.2, 1.0, 1.7, 2.9])
    w = rng.standard_normal((4, 3))
    forms = operator_forms(np.diag(lam), w)
    pencil = zm_eigen(forms, 1.4)
    vecs = _both_sides_vectors(pencil)
    qt = _on_pattern(forms, shifted_product(forms, 1.4, 1.4))
    npt.assert_allclose(vecs.T @ qt @ vecs, np.eye(3), atol=1e-9)


def _both_sides_vectors(pencil):
    """The eigenvectors of every tau of both sides, the nearest first."""
    minus = pencil.eigen.vectors(pencil.tau_minus.size)
    return np.hstack([minus, pencil.eigen.vectors(pencil.tau_plus.size, top=True)])


def test_pencil_tau_ordering():
    lam = np.array([-2.0, -1.0, 0.5, 1.5, 3.0])
    forms = operator_forms(np.diag(lam), np.eye(5))
    pencil = zm_eigen(forms, 0.0)
    # most negative first: certifies nearest-below first
    assert np.all(np.diff(pencil.tau_minus) >= 0)
    assert pencil.tau_minus[-1] < 0
    # descending positives: nearest-above first
    assert np.all(np.diff(pencil.tau_plus) <= 0)
    assert pencil.tau_plus[-1] > 0


def test_diagonal_forms_split_the_reduction():
    # README's two.forms, and forms with a double point: every
    # subdiagonal entry of the tridiagonal reduction is 0, and the tau of
    # the double point are exactly equal
    for forms, t, minus, plus in (
        (WORKED, 1.5, [-2.0], [2.0]),
        (operator_forms(np.diag([1.0, 1.0, 2.0]), np.eye(3)), 1.5, [-2.0, -2.0], [2.0]),
    ):
        pencil = zm_eigen(forms, t)
        assert not pencil.eigen.e.any()
        npt.assert_array_equal(pencil.nearest("left", forms.n), minus)
        npt.assert_array_equal(pencil.nearest("right", forms.n), plus)
        x = _both_sides_vectors(pencil)
        qt = _on_pattern(forms, shifted_product(forms, t, t))
        npt.assert_array_equal(x.T @ qt @ x, np.eye(forms.n))


def test_one_sided_bounds_worked_model():
    left = zm_bounds_one_sided(WORKED, 3.0, "left")
    npt.assert_allclose(left, [2.0, 1.0], atol=1e-12)
    with pytest.raises(EmptySideError):
        zm_bounds_one_sided(WORKED, 3.0, "right")


def test_one_sided_bounds_between():
    npt.assert_allclose(zm_bounds_one_sided(WORKED, 1.5, "left"), [1.0], atol=1e-12)
    npt.assert_allclose(zm_bounds_one_sided(WORKED, 1.5, "right"), [2.0], atol=1e-12)


def test_a_window_narrower_than_its_reach_holds_nothing(capfd):
    # b - a = 5e-324: a bound lies inside only where |tau| > 1/(b - a),
    # which overflows to inf, and the counts at +-inf are made without
    # handing LAPACK an empty interval
    forms = operator_forms(np.diag([-1.0, 1.0]), np.eye(2))
    assert zm_enclosures(forms, (0.0, 5e-324), 1) == []
    assert capfd.readouterr().out == ""


def test_one_sided_rejects_bad_side():
    with pytest.raises(ValueError, match="side"):
        zm_bounds_one_sided(WORKED, 1.5, "up")


def test_one_sided_bounds_are_certified_on_random_models():
    """Every emitted bound must be on the safe side of the true point."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = np.sort(rng.uniform(-3.0, 3.0, n))
        forms = operator_forms(np.diag(lam), rng.standard_normal((n, k)))
        t = float(rng.uniform(-3.5, 3.5))
        if np.min(np.abs(lam - t)) < 1e-3:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeflationWarning)
            pencil = zm_eigen(forms, t)
        below = np.sort(lam[lam < t])[::-1]  # nearest below first
        above = np.sort(lam[lam > t])  # nearest above first
        # the pencil can never claim more points than the spectrum has
        assert pencil.tau_minus.size <= below.size
        assert pencil.tau_plus.size <= above.size
        lows = t + 1.0 / pencil.tau_minus
        ups = t + 1.0 / pencil.tau_plus
        assert np.all(lows <= below[: lows.size] + 1e-9)
        assert np.all(ups >= above[: ups.size] - 1e-9)


def test_enclosures_worked_model_window():
    enc = zm_enclosures(WORKED, (0.5, 2.5), j_max=2)
    assert [e.j for e in enc] == [1, 2]
    npt.assert_allclose([enc[0].lower, enc[0].upper], [1.0, 1.0], atol=1e-12)
    npt.assert_allclose([enc[1].lower, enc[1].upper], [2.0, 2.0], atol=1e-12)
    assert enc[0].t_upper_from == 0.5
    assert enc[0].t_lower_from == 2.5
    assert not enc[0].inconsistent
    assert 1.0 in enc[0]
    assert 1.1 not in enc[0]


def test_enclosures_j_max_truncates():
    enc = zm_enclosures(WORKED, (0.5, 2.5), j_max=1)
    assert len(enc) == 1
    assert enc[0].j == 1


def test_enclosures_respect_window_filter():
    # only the point at 2 lies inside (1.5, 2.5)
    enc = zm_enclosures(WORKED, (1.5, 2.5), j_max=3)
    assert len(enc) == 1
    npt.assert_allclose([enc[0].lower, enc[0].upper], [2.0, 2.0], atol=1e-12)


def test_enclosures_empty_side_propagates():
    with pytest.raises(EmptySideError):
        zm_enclosures(WORKED, (3.0, 4.0), j_max=1)


def test_enclosures_validates_window():
    with pytest.raises(ValueError, match="a < b"):
        zm_enclosures(WORKED, (2.0, 1.0), j_max=1)
    with pytest.raises(ValueError, match="j_max"):
        zm_enclosures(WORKED, (0.5, 2.5), j_max=0)


def test_enclosures_contain_spectrum_random_models():
    hits = 0
    for seed in range(80):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(3, 7))
        lam = np.sort(rng.uniform(0.0, 4.0, n))
        # near-complete basis: slight random rotation of the eigenbasis
        w = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        forms = operator_forms(np.diag(lam), w)
        a, b = 1.0, 3.0
        if np.min(np.abs(lam - a)) < 0.05 or np.min(np.abs(lam - b)) < 0.05:
            continue
        inside = lam[(lam > a) & (lam < b)]
        try:
            enc = zm_enclosures(forms, (a, b), j_max=n)
        except EmptySideError:
            assert inside.size == 0 or lam[lam < b].size == 0
            continue
        for e, true in zip(enc, inside):
            assert e.lower - 1e-9 <= true <= e.upper + 1e-9
            hits += 1
    assert hits > 100  # the loop must actually exercise enclosures


def test_basis_change_leaves_bounds_invariant():
    rng = np.random.default_rng(99)
    lam = np.array([0.3, 1.1, 2.2, 3.0])
    w = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    c = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    f1 = operator_forms(np.diag(lam), w)
    f2 = operator_forms(np.diag(lam), w @ c)
    for t, side in ((0.8, "left"), (1.6, "left"), (3.4, "left"), (0.0, "right")):
        b1 = zm_bounds_one_sided(f1, t, side)
        b2 = zm_bounds_one_sided(f2, t, side)
        npt.assert_allclose(b1, b2, rtol=1e-8, atol=1e-9)


def test_form_scaling_leaves_bounds_invariant():
    c = 37.5
    scaled = TrialForms(c * WORKED.M0, c * WORKED.M1, c * WORKED.M2)
    npt.assert_allclose(
        zm_bounds_one_sided(scaled, 3.0, "left"),
        zm_bounds_one_sided(WORKED, 3.0, "left"),
        atol=1e-12,
    )


def test_zm_eigen_is_deterministic():
    rng = np.random.default_rng(5)
    forms = operator_forms(np.diag([0.5, 1.5, 2.5]), rng.standard_normal((3, 2)))
    p1 = zm_eigen(forms, 1.0)
    p2 = zm_eigen(forms, 1.0)
    npt.assert_array_equal(p1.tau_minus, p2.tau_minus)
    npt.assert_array_equal(p1.tau_plus, p2.tau_plus)


def test_captured_point_routes_through_deflation(fresh, pencil_solves):
    # shift sitting exactly on a represented eigenvalue: the pencil
    # deflates that direction and still bounds the remaining point; a
    # call served by the kept solve warns as well
    forms = fresh(WORKED)
    with pytest.warns(DeflationWarning, match="1-dimensional kernel of Q_t at t=1$"):
        enc_bounds = zm_bounds_one_sided(forms, 1.0, "right")
    npt.assert_allclose(enc_bounds, [2.0], atol=1e-12)
    with pytest.warns(DeflationWarning):
        npt.assert_array_equal(zm_bounds_one_sided(forms, 1.0, "right"), enc_bounds)
    assert pencil_solves == [1.0]


def test_a_deflating_shift_relies_on_the_consistency_gate():
    # these inconsistent forms have Q_t = diag((1 - t)^2, (t - 1)(t - 3)):
    # a shift that deflates nothing is solved ungated; one that deflates a
    # coordinate (t = 1.5 and 3) or all (t = 1) is refused by the forms'
    # gate, and a window with such an end raises it
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
    assert zm_eigen(forms, 0.0).signature == Signature(0, 0, 0, 2)
    assert "gate" not in forms._kept
    for t in (1.5, 3.0, 1.0):
        with pytest.raises(InconsistentFormsError, match="consistency gate"):
            zm_eigen(forms, t)
    with pytest.raises(InconsistentFormsError, match="consistency gate"):
        zm_enclosures(forms, (0.0, 1.5), 1)


def test_a_silent_solve_does_not_silence_the_bounds(fresh, pencil_solves):
    # signature and a fixed-point seed solve without warning; the bounds
    # functions reading their kept solve still warn
    forms = fresh(WORKED)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeflationWarning)
        assert signature(forms, 2.0) == Signature(1, 0, 1, 0)
    with pytest.warns(DeflationWarning, match="at t=2$"):
        zm_bounds_one_sided(forms, 2.0, "left")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeflationWarning)
        optimal_shift(forms, 1.0, 1, "right")
    with pytest.warns(DeflationWarning, match="at t=1$"):
        enc = zm_enclosures(forms, (1.0, 2.5), 1)
    assert len(enc) == 1
    assert pencil_solves == [2.0, 1.0, 2.5]


def test_inconsistent_pair_is_flagged_not_raised(monkeypatch):
    """Disagreeing window ends must surface as a flagged row.

    Count mismatches need a trial space that hides a window point from
    one end only; exact small models self-heal (the Temple quotient of
    the certifying direction at one end constrains the other), so the
    one-sided bounds are stubbed to produce the disagreement.
    """

    def fake_bounds(pencil, side, k):
        if side == "right":  # uppers computed at a
            return np.array([1.2, 1.9])
        return np.array([1.8])  # lone lower at b: certifies a deeper point

    monkeypatch.setattr(enclosure_mod, "_side_bounds", fake_bounds)
    with pytest.warns(DeflationWarning):  # both ends sit on eigenvalues
        enc = zm_enclosures(WORKED, (1.0, 2.0), j_max=3)
    assert len(enc) == 1
    assert enc[0].inconsistent
    assert enc[0].lower == 1.8 and enc[0].upper == 1.2
    assert enc[0].width < 0
    assert 1.5 not in enc[0]


def test_enclosure_dataclass_width_and_contains():
    e = Enclosure(j=1, lower=2.0, upper=2.5, t_lower_from=3.0, t_upper_from=1.0)
    assert e.width == 0.5
    assert 2.0 in e and 2.5 in e and 2.25 in e
    assert 1.99 not in e


def _reference_pencil(forms, t, tol=DEFAULT_TOL):
    """Classified tau from ``scipy.linalg.eigh``, without the polish.

    The eigendecomposition of the dense Q_t splits off its kernel, the
    eigenvalues at or below ``tol * max(1, ||Q_t||_2)``, and the pencil
    is solved on the orthogonal complement of the kernel: this oracle
    shares no code with either solve route of ``zm_eigen``.
    """
    m0, m1, m2 = forms.M0, forms.M1, forms.M2
    tt = m0.dtype.type(t)
    qt = np.asarray(m2 - (2.0 * tt) * m1 + (tt * tt) * m0, dtype=float)
    lt = np.asarray(m1 - tt * m0, dtype=float)
    values, vectors = scipy.linalg.eigh(qt)
    k = int(np.count_nonzero(values <= tol * max(1.0, np.abs(values).max())))
    if k == forms.n:
        return np.zeros(0), np.zeros(0), Signature(k, 0, 0, 0)
    complement = vectors[:, k:]
    tau = scipy.linalg.eigh(
        complement.T @ lt @ complement, complement.T @ qt @ complement,
        eigvals_only=True,
    )
    zero = tol * np.linalg.norm(lt, 2) / np.linalg.norm(qt, 2)
    minus, plus = tau[tau < -zero], tau[tau > zero][::-1]
    census = Signature(k, tau.size - minus.size - plus.size, minus.size, plus.size)
    return minus, plus, census


def _pencil_case(case):
    """Trial forms and shifts of one reference-route comparison."""
    if case == "deflating":  # e1 is an eigenvector, so Q_1 has a kernel
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        return operator_forms(np.diag([1.0, 2.0, 5.0, 7.0]), w), (1.0,)
    model, order = case.split("-")
    if model == "dirac1d":
        mesh = uniform_mesh(8, jitter=0.3, seed=4)
        return assemble_1d(mesh, int(order)).forms, (-1.3, 0.6, 1.4)
    mesh = structured_tri_mesh(4, jitter=0.2, seed=2)
    return assemble_2d(mesh, int(order)).forms, (0.7, 1.6)


@pytest.mark.parametrize(
    "case",
    ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2", "deflating"],
)
def test_one_eigh_pencil_matches_reference_route(case):
    forms, shifts = _pencil_case(case)
    for t in shifts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeflationWarning)
            pencil = zm_eigen(forms, t)
        minus, plus, census = _reference_pencil(forms, t)
        assert pencil.signature == census
        npt.assert_allclose(pencil.tau_minus, minus, rtol=1e-12, atol=0.0)
        npt.assert_allclose(pencil.tau_plus, plus, rtol=1e-12, atol=0.0)
    if case == "deflating":
        assert pencil.signature.n_inf == 1


@pytest.fixture
def split_route(monkeypatch):
    """One entry per pivoted Cholesky factorization of Q_t
    (:func:`~eigenclose.linalg.kernel_split`) a pencil solve ran during
    the test."""
    calls = []
    real = enclosure_mod.kernel_split

    def counted(a, b, n, pattern, threshold):
        calls.append(threshold)
        return real(a, b, n, pattern, threshold)

    monkeypatch.setattr(enclosure_mod, "kernel_split", counted)
    return calls


@pytest.mark.parametrize(
    "case",
    ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2", "deflating"],
)
def test_cholesky_route_matches_the_eigh_route(case, split_route):
    # every shift solved as zm_eigen solves it, by one pivoted Cholesky
    # factorization of Q_t, against the eigh oracle: one census and the
    # same tau, unpolished and polished
    forms, shifts = _pencil_case(case)
    for t in shifts:
        pencil = zm_eigen(forms, t)
        minus, plus, census = _reference_pencil(forms, t)
        assert pencil.signature == census
        for side, want in (("left", minus), ("right", plus)):
            tau = pencil.tau_minus if side == "left" else pencil.tau_plus
            npt.assert_allclose(tau, want, rtol=1e-12, atol=0.0)
            npt.assert_allclose(pencil.nearest(side, 3), want[:3], rtol=1e-12, atol=0.0)
    assert len(split_route) == len(shifts)


def _deflating_case(case):
    """Forms and a shift t at which Q_t has a kernel."""
    if case == "two":  # README's 2 x 2 forms: e1 is an eigenvector at 1
        return WORKED, 1.0
    if case == "whole":  # Q_1 = 0: every trial vector is an eigenvector
        return TrialForms(np.eye(2), np.eye(2), np.eye(2)), 1.0
    model, order = case.split("-")
    if model == "dirac1d":
        return assemble_1d(uniform_mesh(8, jitter=0.3, seed=4), int(order)).forms, 0.0
    # at order 2 the discrete gradients in ker M2 form a 32-dimensional kernel
    return assemble_2d(structured_tri_mesh(4, 0.3, 0), int(order)).forms, 0.0


@pytest.mark.parametrize(
    "case", ["dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2", "two", "whole"]
)
def test_split_route_matches_the_eigh_oracle_where_q_t_has_a_kernel(case, split_route):
    forms, t = _deflating_case(case)
    minus, plus, census = _reference_pencil(forms, t)
    assert census.n_inf == {"maxwell2d-2": 32, "whole": forms.n}.get(case, 1)
    assert signature(forms, t) == census
    assert len(split_route) == 1
    if census.n_inf == forms.n:
        with pytest.raises(DegenerateShiftError):
            zm_eigen(forms, t)
        return
    pencil = zm_eigen(forms, t)
    assert pencil.signature == census
    # the vectors are Q_t-orthonormal and exactly zero where deflated
    qt = _on_pattern(forms, shifted_product(forms, t, t))
    deflated = pencil.eigen.pivots[forms.n - census.n_inf :]
    for top in (False, True):
        x = pencil.eigen.vectors(8, top)
        assert not x[deflated].any()
        npt.assert_allclose(x.T @ qt @ x, np.eye(x.shape[1]), atol=1e-9)
    # the unpolished tau, but for those far below the largest
    scale = np.abs(np.concatenate([minus, plus])).max()
    for got, want in ((pencil.tau_minus, minus), (pencil.tau_plus, plus)):
        large = np.abs(want) >= 1e-8 * scale
        npt.assert_allclose(got[large], want[large], rtol=1e-11, atol=0.0)


def _diagonal_forms(m1, m2=(1.0, 1.0)):
    """Forms with M0 = I and the diagonal M1 and M2."""
    return TrialForms(np.eye(2), np.diag(m1), np.diag(m2))


def test_uncertified_shifts_take_the_split_route(split_route, monkeypatch):
    # the exact 2-norms of the zero threshold that the solve computes,
    # logged by the values of the matrix
    decomposed = []
    real = enclosure_mod.sym_norm2

    def spy(values, n, pattern):
        decomposed.append(np.array(values))
        return real(values, n, pattern)

    monkeypatch.setattr(enclosure_mod, "sym_norm2", spy)
    deflating, (t,) = _pencil_case("deflating")
    # at the default tol 1e-10 and M0 = Q_0 = I, ||L_0||_2 = 1: the zero
    # threshold of |tau| is 1e-10 and its bracket [0.5e-10, 2e-10]
    cases = [
        # Q_1 has a kernel, which is deflated; no |tau| lies near the zero
        # threshold, so L_t's norm is not computed
        (deflating, t, Signature(1, 0, 0, 2), ()),
        # at tol 1e-16, Q_t's eigenvalue 1e-14 lies above the pivot
        # threshold: nothing is deflated
        (replace(deflating, tol=1e-16), t + 1e-7, Signature(0, 0, 1, 2), ()),
        # tau = 1.5e-10 lies inside the bracket: the solve computes the
        # exact threshold, which counts it positive (Q_0's norm is its
        # bounds' common value)
        (_diagonal_forms([1.0, 1.5e-10]), 0.0, Signature(0, 0, 0, 2), ("L_t",)),
        # just outside the bracket the norm bounds settle the census
        (_diagonal_forms([1.0, 2.5e-10]), 0.0, Signature(0, 0, 0, 2), ()),
        # an exact zero tau, at the Ritz value t = 2 of diagonal forms
        # (L_2 = diag(-1, 0), Q_2 = diag(1.5, 0.5)), lies below the
        # bracket: zero without a norm
        (_diagonal_forms([1.0, 2.0], [1.5, 4.5]), 2.0, Signature(0, 1, 1, 0), ()),
        # L_1 = 0 and Q_1 = diag(0, 1): the kept tau is an exact zero, the
        # bracket collapses to the underflow floor, and still no norm
        (_diagonal_forms([1.0, 1.0], [1.0, 2.0]), 1.0, Signature(1, 1, 0, 0), ()),
        # negative tau inside the bracket: beyond the threshold it is
        # negative, within it zero
        (_diagonal_forms([1.0, -1.5e-10]), 0.0, Signature(0, 0, 1, 1), ("L_t",)),
        (_diagonal_forms([1.0, -0.8e-10]), 0.0, Signature(0, 1, 0, 1), ("L_t",)),
        # tau at the ends of the bracket: -2e-10 is beyond it, 2e-10 and
        # +-0.5e-10 inside it and decided by the exact threshold
        (_diagonal_forms([1.0, -2e-10]), 0.0, Signature(0, 0, 1, 1), ()),
        (_diagonal_forms([1.0, 2e-10]), 0.0, Signature(0, 0, 0, 2), ("L_t",)),
        (_diagonal_forms([1.0, 0.5e-10]), 0.0, Signature(0, 1, 0, 1), ("L_t",)),
        (_diagonal_forms([1.0, -0.5e-10]), 0.0, Signature(0, 1, 0, 1), ("L_t",)),
        # tau at the exact threshold -1e-10 is zero
        (_diagonal_forms([1.0, -1e-10]), 0.0, Signature(0, 1, 0, 1), ("L_t",)),
        # Q_0 = [[2, 1], [1, 2]] has the norm bounds sqrt(5) and 3, so its
        # exact norm is computed too: tau, about 2.5e-11, lies inside the
        # bracket [1.7e-11, 8.9e-11] and within the threshold 1e-10 / 3
        (TrialForms(np.eye(2), np.diag([1.0, 0.5e-10]), np.array([[2.0, 1.0], [1.0, 2.0]])),
         0.0, Signature(0, 1, 0, 1), ("Q_t", "L_t")),
    ]
    for forms, shift, census, exact in cases:
        split_route.clear()
        decomposed.clear()
        assert zm_eigen(forms, shift).signature == census, (forms, shift)
        assert len(split_route) == 1
        shifted = {"Q_t": shifted_product(forms, shift, shift), "L_t": shifted_linear(forms, shift)}
        computed = tuple(
            name for name, values in shifted.items()
            if any(np.array_equal(a, values.astype(float)) for a in decomposed)
        )
        assert computed == exact, (forms, shift)
        assert len(decomposed) == len(exact)


def test_each_shift_is_factored_once(monkeypatch):
    # one pivoted Cholesky factorization of Q_t per solve and no other,
    # on a shift that deflates a kernel and on a full-rank one
    forms, (t,) = _pencil_case("deflating")
    calls = []
    for name in ("dpstrf", "dpotrf"):
        real = getattr(linalg_mod.lapack, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg_mod.lapack, name, spy)
    for shift, n_inf in ((t, 1), (t + 0.5, 0)):
        calls.clear()
        assert zm_eigen(forms, shift).signature.n_inf == n_inf
        assert calls == ["dpstrf"]


@pytest.mark.parametrize(
    "case", ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2"]
)
def test_cholesky_route_census_matches_the_ritz_inertia(case, split_route):
    # eigenvector-free: Q_t is definite, so the pencil's inertia is that of
    # L_t = M1 - t M0, and with M0 definite that counts the Ritz values of
    # (M1, M0) on either side of t
    forms, _ = _pencil_case(case)
    ritz = forms.ritz()
    for t in np.linspace(-2.9, 2.9, 12):
        split_route.clear()
        census = zm_eigen(forms, t).signature
        assert len(split_route) == 1 and census.n_inf == census.n_zero == 0
        assert census.n_minus == np.count_nonzero(ritz < t)
        assert census.n_plus == np.count_nonzero(ritz > t)


def _polish_case(model):
    """Forms, shifts and windows of one partial-polish comparison.

    Both models have more than ``2 * REFINE_COUNT`` pencil eigenvalues,
    so the full polish leaves some of them unpolished too.  Some
    windows hold more lower bounds than the smaller ``j_max`` values:
    three in ``(0.5, 3.5)`` for dirac1d, five in ``(0.9, 2.6)`` for
    maxwell2d.  The last window of each lies in a spectral gap, where
    :func:`zm_enclosures` polishes nothing.
    """
    if model == "dirac1d":  # forms assembled in longdouble
        forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=4), 3).forms
        windows = ((0.5, 2.5), (-2.5, -0.5), (0.5, 3.5), (2.1, 2.9))
        return forms, (-1.3, 0.6, 1.4), windows
    forms = assemble_2d(structured_tri_mesh(5, jitter=0.25, seed=2), 1).forms
    return forms, (0.7, 1.6), ((0.8, 1.6), (-1.6, -0.8), (0.9, 2.6), (0.2, 0.8))


def _matrix(pattern, n, values):
    """The n by n longdouble matrix holding ``values`` on ``pattern``,
    +0 off it."""
    out = np.zeros((n, n), dtype=np.longdouble)
    out[pattern] = values
    return out


def _rayleigh_quotients(forms, t, x):
    """``x' L_t x / x' Q_t x`` per column in longdouble: what the polish
    makes of a pencil eigenvalue."""
    lt, qt = (_matrix(forms.pattern(), forms.n, values) for values in (
        shifted_linear(forms, t), shifted_product(forms, t, t)
    ))
    x = x.astype(np.longdouble)
    num = np.einsum("ij,ij->j", x, lt @ x)
    return (num / np.einsum("ij,ij->j", x, qt @ x)).astype(float)


def _nearest_first(tau):
    """``tau`` sorted by decreasing ``|tau|``, ties kept in order: how the
    polish orders the entries it polishes."""
    return tau[np.argsort(-np.abs(tau), kind="stable")]


@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_partial_polish_keeps_the_used_values_bit_equal(model):
    forms, shifts, windows = _polish_case(model)
    assert forms.n > 2 * REFINE_COUNT
    extended = np.finfo(np.longdouble).eps < 1e-18  # else nothing is polished
    for t in shifts:
        full = zm_eigen(forms, t)
        for side, name in (("left", "minus"), ("right", "plus")):
            full_tau = full.nearest(side, forms.n)
            for j in (1, 2, 3):
                part = zm_eigen(forms, t)
                tau = part.nearest(side, j)
                npt.assert_array_equal(tau, getattr(part, "tau_" + name)[:j])
                npt.assert_array_equal(tau, full_tau[:j])
                if extended:
                    vectors = part.eigen.vectors(j, top=side == "right")
                    quotients = _rayleigh_quotients(forms, t, vectors)
                    npt.assert_array_equal(tau[:j], _nearest_first(quotients))
            # polishing more after reading some: the way zm_enclosures
            # polishes the lowers it pairs
            part = zm_eigen(forms, t)
            part.nearest(side, 1)
            npt.assert_array_equal(part.nearest(side, 3), full_tau[:3])

    more_lowers_than_j_max = False
    for a, b in windows:
        uppers = zm_bounds_one_sided(forms, a, "right")
        lowers = zm_bounds_one_sided(forms, b, "left")
        uppers = np.sort(uppers[uppers < b])
        lowers = np.sort(lowers[lowers > a])
        for j_max in (1, 2, 3):
            more_lowers_than_j_max |= lowers.size > j_max
            pairs = list(zip(lowers.tolist(), uppers.tolist()))[:j_max]
            enc = zm_enclosures(forms, (a, b), j_max)
            assert [(e.lower, e.upper) for e in enc] == pairs
    assert more_lowers_than_j_max


@functools.cache
def _invariant_case(model):
    """:func:`_polish_case`'s forms and first shift, and each side of a
    fresh pencil there read whole, once per model.  A side holds more
    than ``REFINE_COUNT`` tau on both, and more than 40 on maxwell2d."""
    forms, shifts, _ = _polish_case(model)
    t = shifts[0]
    pencil = zm_eigen(forms, t)
    return forms, t, {side: pencil.nearest(side, forms.n) for side in ("left", "right")}


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(["dirac1d", "maxwell2d"]),
    reads=st.lists(
        st.tuples(
            st.sampled_from(["left", "right"]), st.sampled_from([1, 2, 5, 40, None, "side"])
        ),
        max_size=8,
    ),
)
def test_every_read_of_a_side_agrees(model, reads):
    # nearest(side, k) is the one reader of a side: after any interleaving
    # of reads (None reads the whole side, "side" reads tau_minus or
    # tau_plus), those two and the one-sided bounds are the whole side
    # read by nearest, bit for bit
    forms, t, whole = _invariant_case(model)
    assert max(tau.size for tau in whole.values()) > REFINE_COUNT
    pencil = zm_eigen(forms, t)
    for side, k in reads:
        if k == "side":
            getattr(pencil, "tau_minus" if side == "left" else "tau_plus")
        else:
            pencil.nearest(side, forms.n if k is None else k)
    for side, name in (("left", "minus"), ("right", "plus")):
        size = getattr(pencil.signature, "n_" + name)
        npt.assert_array_equal(pencil.nearest(side, size), whole[side])
        npt.assert_array_equal(getattr(pencil, "tau_" + name), whole[side])
        bounds = zm_bounds_one_sided(replace(forms), t, side)
        npt.assert_array_equal(bounds, t + 1.0 / whole[side])


def test_more_lowers_than_j_max_cost_two_pencil_solves(pencil_solves):
    # the lowers the pairing reads beyond j_max are polished from the
    # right end's one solve; the window end is not solved a second time
    forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms
    a, b = 0.5, 3.5
    uppers = zm_bounds_one_sided(forms, a, "right")
    lowers = zm_bounds_one_sided(forms, b, "left")
    uppers = np.sort(uppers[uppers < b])
    lowers = np.sort(lowers[lowers > a])
    assert lowers.size > 1

    pencil_solves.clear()
    enc = zm_enclosures(replace(forms), (a, b), 1)
    assert pencil_solves == [a, b]
    assert [(e.lower, e.upper) for e in enc] == [(lowers[0], uppers[0])]
    # the forms that keep the solve at b read b from it first, then solve a
    pencil_solves.clear()
    enc = zm_enclosures(forms, (a, b), 1)
    assert pencil_solves == [a]
    assert [(e.lower, e.upper) for e in enc] == [(lowers[0], uppers[0])]


def test_more_lowers_than_j_max_polish_each_window_end_once(monkeypatch):
    # the lowers inside the window are counted before the polish, so the
    # left side of the pencil at b is polished once, all of them at once
    forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms
    a, b = 0.5, 3.5
    lowers = zm_bounds_one_sided(replace(forms), b, "left")
    inside = int(np.count_nonzero(lowers > a))
    assert inside > 1
    expected = [(e.lower, e.upper) for e in zm_enclosures(replace(forms), (a, b), 1)]

    calls, _ = _polish_spy(monkeypatch)
    enc = zm_enclosures(forms, (a, b), 1)
    assert calls == [("right", 1), ("left", inside)]
    assert [(e.lower, e.upper) for e in enc] == expected


def _polish_spy(monkeypatch):
    """Lists of the ``(side, k)`` of every read of a side the package
    makes, through :meth:`PencilEigen.nearest`, the one way to read and
    polish one, and the ``(count, top)`` of every eigenvector request it
    makes during the test, in order."""
    polishes, requests = [], []
    nearest, vectors = PencilEigen.nearest, TridiagonalEigen.vectors

    def nearest_spy(self, side, k):
        polishes.append((side, k))
        return nearest(self, side, k)

    def vectors_spy(self, count, top=False):
        requests.append((count, top))
        return vectors(self, count, top)

    monkeypatch.setattr(PencilEigen, "nearest", nearest_spy)
    monkeypatch.setattr(TridiagonalEigen, "vectors", vectors_spy)
    return polishes, requests


def test_a_window_in_a_spectral_gap_computes_no_eigenvector(monkeypatch):
    # the pollution windows' gap: the pencils at both ends are solved, but
    # no bound of theirs falls inside, so nothing is polished
    forms = assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms
    a, b = 0.2, 0.8
    assert np.all(zm_bounds_one_sided(replace(forms), a, "right") >= b)
    assert np.all(zm_bounds_one_sided(replace(forms), b, "left") <= a)

    polishes, requests = _polish_spy(monkeypatch)
    assert zm_enclosures(forms, (a, b), 3) == []
    assert polishes == [("right", 0), ("left", 0)] and requests == []


def test_a_window_holding_fewer_points_than_j_max_polishes_those_alone(monkeypatch):
    # one point, 2, inside (1.5, 2.5) under j_max = 3: one bound per end is
    # polished, from one eigenvector each, and the enclosure is the one
    # the full polish of both sides pairs
    forms = assemble_1d(uniform_mesh(8, jitter=0.3, seed=1), 2).forms
    a, b, j_max = 1.5, 2.5, 3
    uppers = zm_bounds_one_sided(replace(forms), a, "right")
    lowers = zm_bounds_one_sided(replace(forms), b, "left")
    uppers, lowers = np.sort(uppers[uppers < b]), np.sort(lowers[lowers > a])
    assert uppers.size == lowers.size == 1

    polishes, requests = _polish_spy(monkeypatch)
    enc = zm_enclosures(forms, (a, b), j_max)
    assert [(e.lower, e.upper) for e in enc] == [(lowers[0], uppers[0])]
    assert polishes == [("right", 1), ("left", 1)]
    extended = np.finfo(np.longdouble).eps < 1e-18  # else nothing is polished
    assert requests == ([(1, True), (1, False)] if extended else [])


def test_a_window_keeps_one_pencil_alive_at_a_time(monkeypatch):
    # the pencil at a, whose uppers are read, is gone before b is solved
    forms = assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms
    pencils, alive = [], []
    real = enclosure_mod.zm_eigen

    def solve(forms, t):
        alive.append(sum(p() is not None for p in pencils))
        pencil = real(forms, t)
        pencils.append(weakref.ref(pencil))
        return pencil

    monkeypatch.setattr(enclosure_mod, "zm_eigen", solve)
    assert zm_enclosures(forms, (0.8, 1.6), 3)
    assert alive == [0, 0]
    # the mirrored window reads -1.6 from the kept solve at 1.6, which is
    # gone with its reading before -0.8 is solved
    assert zm_enclosures(forms, (-1.6, -0.8), 3)
    assert alive == [0, 0, 0]
    # one schedule of several windows reads -0.8 and 0.8 from the kept
    # solve, then solves -1.6 and -2.3, each with the one before gone
    alive.clear()
    windows = [(-2.3, -1.6), (-1.6, -0.8), (0.8, 1.6), (1.6, 2.3)]
    assert any(zm_enclosures_all(forms, windows, 3))
    assert alive == [0, 0]
    # so does one whose ends raise: 1000 and -2000 fail, -3000 is read
    alive.clear()
    with pytest.raises(EmptySideError, match="left of t=-2000 "):
        zm_enclosures_all(forms, [(-3000, -2000), (1000, 1500)], 3)
    assert alive == [0, 0, 0]


def _bisection_spy(monkeypatch):
    """A list of the number of pencil eigenvalues each LAPACK ``dstebz``
    call bisects during the test: every value it returns, but none for a
    Sturm count (an infinite tolerance), which bisects nothing."""
    bisected = []
    real = linalg_mod.lapack.dstebz

    def spy(d, e, *args):
        out = real(d, e, *args)
        bisected.append(out[0] if args[-2] < np.inf else 0)
        return out

    monkeypatch.setattr(linalg_mod.lapack, "dstebz", spy)
    return bisected


def test_a_window_bisects_only_the_values_it_can_emit(monkeypatch):
    # the benchmark's bounds windows: each end emits 2 bounds, and 2 tau
    # are bisected there; the census's band about 0 holds none
    forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms
    bisected = _bisection_spy(monkeypatch)
    windows = ((0.5, 2.5), (-2.5, -0.5))
    pairs = []
    for a, b in windows:
        want = []
        for t, side in ((a, "right"), (b, "left")):
            bounds = zm_bounds_one_sided(replace(forms), t, side)
            want.append(np.sort(bounds[(bounds > a) & (bounds < b)]))
        pairs.append(list(zip(want[1], want[0])))
        bisected.clear()
        enc = zm_enclosures(replace(forms), (a, b), 2)
        assert sum(bisected) == 4 and len(enc) == 2
        assert [(e.lower, e.upper) for e in enc] == pairs[-1]
    # on shared forms the second window's end -2.5 reads the kept solve at
    # 2.5 mirrored, whose 2 lowers were bisected for the first window:
    # only its end -0.5 bisects, 2 tau in all
    enc = zm_enclosures(forms, windows[0], 2)
    bisected.clear()
    enc += zm_enclosures(forms, windows[1], 2)
    assert sum(bisected) == 2
    assert [(e.lower, e.upper) for e in enc] == pairs[0] + pairs[1]
    # a window in a spectral gap and a census bisect nothing: 2 stebz
    # calls per census and 1 count per window end
    forms = assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms
    bisected.clear()
    assert zm_enclosures(forms, (0.2, 0.8), 3) == []
    assert signature(replace(forms), 1.2).n_plus > 0
    assert len(bisected) == 3 * 2 + 2 and sum(bisected) == 0


def test_a_fixed_point_seed_bisects_the_values_it_reads(monkeypatch):
    forms = assemble_1d(uniform_mesh(8, jitter=0.3, seed=1), 2).forms
    bisected = _bisection_spy(monkeypatch)
    # j values, rounded up to whole chunks [0, 1), [1, 2), [2, 4)
    for j, chunked in ((1, 1), (2, 2), (3, 4)):
        for side in ("left", "right"):
            bisected.clear()
            taus = _seed_taus(replace(forms), 1.4, side, j)
            assert taus.size == j and sum(bisected) == chunked
            full = zm_eigen(forms, 1.4).nearest(side, forms.n)
            npt.assert_array_equal(taus, full[:j])


def test_a_window_holding_more_lowers_than_are_polished():
    # 38 points lie in (0.5, 40): the pairs are those of the one-sided
    # bounds, and the lowers beyond the REFINE_COUNT nearest b, the 6
    # smallest, are the solve's own, unpolished
    forms = assemble_1d(uniform_mesh(30, jitter=0.3, seed=0), 3).forms
    a, b = 0.5, 40.0
    uppers = zm_bounds_one_sided(replace(forms), a, "right")
    lowers = zm_bounds_one_sided(replace(forms), b, "left")
    uppers = np.sort(uppers[uppers < b])
    lowers = np.sort(lowers[lowers > a])
    assert lowers.size == 38 > REFINE_COUNT
    pairs = list(zip(lowers.tolist(), uppers.tolist()))
    assert [(e.lower, e.upper) for e in zm_enclosures(forms, (a, b), 40)] == pairs
    raw = b + 1.0 / zm_eigen(forms, b).tau_minus[REFINE_COUNT:38]
    npt.assert_array_equal(lowers[:6], np.sort(raw))


def test_touching_windows_share_the_end_they_meet_at(fresh, pencil_solves):
    # the benchmark's pollution windows: 0.8 and 1.6 are each the right
    # end of one window and the left end of the next, so 4 solves serve
    # 6 window ends, with the bounds that fresh forms per window give
    forms = assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms
    windows = [(0.2, 0.8), (0.8, 1.6), (1.6, 2.3)]
    apart = [
        [(e.lower, e.upper) for e in zm_enclosures(fresh(forms), w, 3)]
        for w in windows
    ]
    pencil_solves.clear()
    shared = [[(e.lower, e.upper) for e in zm_enclosures(forms, w, 3)] for w in windows]
    assert pencil_solves == [0.2, 0.8, 1.6, 2.3]
    assert shared == apart and any(apart)


#: the windows of the benchmark's bounds line, on its forms
_BOUNDS_1D = (
    lambda: assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms,
    [(-2.5, -0.5), (0.5, 2.5)],
)


def test_mirrored_windows_in_one_schedule_solve_each_magnitude_once(pencil_solves):
    # -0.5 is solved and 0.5 read from it, then -2.5 solved and 2.5 read
    # from it; window by window, 0.5 is solved afresh
    build, windows = _BOUNDS_1D
    forms = build()
    apart = [zm_enclosures(replace(forms), w, 2) for w in windows]
    pencil_solves.clear()
    assert zm_enclosures_all(forms, windows, 2) == apart
    assert pencil_solves == [-0.5, -2.5]
    pencil_solves.clear()
    forms = build()
    for w in windows:
        zm_enclosures(forms, w, 2)
    assert pencil_solves == [-0.5, -2.5, 0.5]


def test_overlapping_windows_in_one_schedule_solve_each_end_once(pencil_solves):
    forms = assemble_1d(uniform_mesh(8, jitter=0.3, seed=1), 2).forms
    windows = [(0.5, 1.5), (1.5, 2.5), (0.5, 2.5)]
    apart = [zm_enclosures(replace(forms), w, 2) for w in windows]
    assert pencil_solves == [0.5, 1.5, 1.5, 2.5, 0.5, 2.5]
    pencil_solves.clear()
    assert zm_enclosures_all(forms, windows, 2) == apart
    assert pencil_solves == [0.5, 1.5, 2.5]


def test_ungraded_forms_solve_each_shift_once(pencil_solves):
    # README's 2 x 2 forms have no grading: t and -t are separate solves,
    # each once, and -1.5 and 1.5 are each read by two windows
    forms = replace(WORKED)
    windows = [(-1.5, 1.5), (-1.5, 2.5), (-2.5, 1.5)]
    apart = [zm_enclosures(replace(forms), w, 2) for w in windows]
    pencil_solves.clear()
    assert zm_enclosures_all(forms, windows, 2) == apart
    assert pencil_solves == [-1.5, 1.5, -2.5, 2.5]
    assert [len(enc) for enc in apart] == [1, 2, 1]


_MODEL_FORMS = {
    "dirac1d": lambda: assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms,
    "maxwell2d": lambda: assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms,
}


@pytest.mark.parametrize("model", sorted(_MODEL_FORMS))
@pytest.mark.parametrize(
    "windows",
    [
        [(-2.5, -0.5), (0.5, 2.5)],
        [(-1.6, -0.8), (0.8, 1.6)],
        [(0.2, 0.8), (0.8, 1.6), (1.6, 2.3)],
        [(-2.3, -1.6), (-1.6, -0.8), (0.8, 1.6), (1.6, 2.3)],
        [(0.5, 1.5), (1.5, 2.5), (0.5, 2.5)],
        [(0.8, 1.6), (-1.6, -0.8), (-2.3, -0.8), (0.8, 1.6)],
    ],
)
def test_one_schedule_gives_each_window_its_own_enclosures(model, windows, pencil_solves):
    # bit for bit the enclosures of each window on new forms, with one
    # solve per distinct |t| on the graded forms of both models
    forms = _MODEL_FORMS[model]()
    apart = [zm_enclosures(replace(forms), w, 3) for w in windows]
    pencil_solves.clear()
    assert zm_enclosures_all(forms, windows, 3) == apart and any(apart)
    assert sorted(map(abs, pencil_solves)) == sorted({abs(t) for w in windows for t in w})


def test_one_schedule_reads_the_kept_solve_first(pencil_solves):
    # the forms keep 2.5, so -2.5 is read from it before -0.5 is solved
    build, windows = _BOUNDS_1D
    forms = build()
    zm_bounds_one_sided(forms, 2.5, "left")
    pencil_solves.clear()
    zm_enclosures_all(forms, windows, 2)
    assert pencil_solves == [-0.5]


def test_one_schedule_checks_every_window_before_solving(pencil_solves):
    forms = replace(WORKED)
    with pytest.raises(ValueError, match="a < b"):
        zm_enclosures_all(forms, [(0.5, 1.5), (2.0, 2.0)], 1)
    with pytest.raises(ValueError, match="j_max"):
        zm_enclosures_all(forms, [(0.5, 1.5)], 0)
    assert pencil_solves == [] and zm_enclosures_all(forms, [], 1) == []


def test_one_schedule_raises_the_first_error_window_by_window(pencil_solves):
    # window by window, the end -2000 fails first; the schedule reads 1000
    # first, which fails too, and skips 1500, after both in either order
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=0), 1).forms
    windows = [(-3000.0, -2000.0), (1000.0, 1500.0)]
    with pytest.raises(EmptySideError, match="left of t=-2000 "):
        zm_enclosures(replace(forms), windows[0], 1)
    with pytest.raises(EmptySideError, match="right of t=1000 "):
        zm_enclosures(replace(forms), windows[1], 1)
    pencil_solves.clear()
    with pytest.raises(EmptySideError, match="left of t=-2000 "):
        zm_enclosures_all(forms, windows, 1)
    assert pencil_solves == [1000.0, -2000.0, -3000.0]


def test_deflation_warnings_name_the_callers_line(fresh):
    # each public bounds function warns at the line that calls it
    for call in (
        lambda forms: zm_enclosures(forms, (1.0, 2.5), 1),
        lambda forms: zm_enclosures_all(forms, [(1.0, 2.5), (1.0, 1.5)], 1),
        lambda forms: zm_bounds_one_sided(forms, 1.0, "right"),
    ):
        with pytest.warns(DeflationWarning) as record:
            call(fresh(WORKED))
        assert {(w.filename, w.lineno) for w in record} == {
            (__file__, call.__code__.co_firstlineno)
        }


def test_a_raising_solve_leaves_no_pencil_kept(pencil_solves):
    # t = 1 makes the trial space an exact eigenvector: the solve raises
    forms = operator_forms(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
    zm_bounds_one_sided(forms, 0.0, "right")
    assert "pencil" in forms._kept
    with pytest.raises(DegenerateShiftError), warnings.catch_warnings():
        warnings.simplefilter("ignore", DeflationWarning)
        zm_bounds_one_sided(forms, 1.0, "right")
    assert "pencil" not in forms._kept
    assert signature(forms, 1.0) == Signature(1, 0, 0, 0)
    assert "pencil" not in forms._kept
    zm_bounds_one_sided(forms, 0.0, "right")
    assert pencil_solves == [0.0, 1.0, 1.0, 0.0]


def test_polish_rejects_an_unknown_side():
    pencil = zm_eigen(WORKED, 1.5)
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'Left'"):
        pencil.nearest("Left", 1)


def test_nearest_rejects_a_negative_count():
    # a negative k is refused, not taken as a slice from the side's end,
    # before and after a polish
    pencil = zm_eigen(assemble_1d(uniform_mesh(12, 0.3, 0), 3).forms, 0.5)
    for _ in range(2):
        for k in (-1, -3):
            with pytest.raises(ValueError, match=f"k must be nonnegative, got {k}"):
                pencil.nearest("right", k)
        pencil.nearest("right", 3)
    assert pencil.nearest("right", 0).size == 0


def test_returned_tau_are_read_only():
    # a read returns the pencil's caches (the polished tau, the bisected
    # tau of T), views of them or new arrays, all read-only: a write
    # raises and leaves every later read as the first
    forms = assemble_1d(uniform_mesh(12, 0.3, 0), 3).forms
    pencil = zm_eigen(forms, 0.5)
    assert pencil.eigen.e.all()  # one block: end_values is a view of its cache
    reads = [
        lambda: pencil.nearest("right", 2),
        lambda: pencil.nearest("right", 40),
        lambda: pencil.tau_plus,
        lambda: pencil.tau_minus,
        lambda: pencil.eigen.end_values(3, top=True),
        lambda: pencil.nearest("left", 0),
    ]
    for read in reads:
        first = read().copy()
        with pytest.raises(ValueError, match="read-only"):
            read()[:1] = 99.0
        npt.assert_array_equal(read(), first)
    assert pencil.nearest("right", 2)[0] != 99.0 and pencil.tau_plus[0] != 99.0


def test_polish_remembers_its_reach(monkeypatch):
    # asking for no more than is polished computes no eigenvector and
    # returns the same values; asking for more polishes the nearest k afresh
    forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms
    extended = np.finfo(np.longdouble).eps < 1e-18  # else nothing is polished
    pencil = zm_eigen(forms, 0.5)
    _, requests = _polish_spy(monkeypatch)
    three = pencil.nearest("right", 3)
    assert requests == ([(3, True)] if extended else [])
    npt.assert_array_equal(pencil.nearest("right", 2), three[:2])
    npt.assert_array_equal(pencil.nearest("right", 3), three)
    npt.assert_array_equal(pencil.tau_plus[:3], three)
    assert requests == ([(3, True)] if extended else [])
    assert pencil.polished == {"left": 0, "right": 3 if extended else 0}
    five = pencil.nearest("right", 5)
    npt.assert_array_equal(five, zm_eigen(forms, 0.5).nearest("right", 5))
    assert pencil.polished["right"] == (5 if extended else 0)
    # the count is the pencil's own state: no constructor keyword, and a
    # copy counts its own polish
    copy = replace(pencil)
    assert copy.polished == {"left": 0, "right": 0} and "polished" not in repr(pencil)
    with pytest.raises(TypeError):
        PencilEigen(**{f.name: getattr(pencil, f.name) for f in fields(pencil)})


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="no extended precision to polish in"
)
@pytest.mark.parametrize(
    "model, k",
    [
        pytest.param(model, k, id=str(k) if model == "maxwell2d" else f"{model}-{k}")
        for model in ("maxwell2d", "dirac1d")
        for k in (1, 2, 3, REFINE_COUNT)
    ],
)
def test_polish_keeps_the_polished_prefix_polished(model, k):
    # on the unjittered 2D mesh the represented gradient kernel gives a
    # cluster of tau = -1/t that ties to roundoff: a polished entry must
    # not trade places with an unpolished one beyond k; dirac1d's forms
    # are extended precision, and its left side holds more than
    # REFINE_COUNT tau.  The polish sums over the forms' nonzero pattern
    # and must give the dense longdouble quotients bit for bit.
    if model == "maxwell2d":
        forms = assemble_2d(structured_tri_mesh(4, 0.0, 0), 1).forms
    else:
        forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=4), 3).forms
        assert forms.M0.dtype == np.longdouble
    t = 0.8
    raw = zm_eigen(forms, t)
    if model == "dirac1d":
        assert raw.tau_minus.size > REFINE_COUNT
    pencil = zm_eigen(forms, t)
    tau = pencil.nearest("left", k)
    assert pencil.polished["left"] == k
    npt.assert_array_equal(pencil.tau_minus[:k], tau)
    tau = pencil.tau_minus
    x = pencil.eigen.vectors(k).astype(np.longdouble)
    stored = (pencil.Lt_values, pencil.Qt_values)
    lt, qt = (_matrix(pencil.pattern, forms.n, values) for values in stored)
    quotients = np.einsum("ij,ij->j", x, lt @ x) / np.einsum("ij,ij->j", x, qt @ x)
    npt.assert_array_equal(tau[:k], _nearest_first(quotients.astype(float)))
    products = enclosure_mod._pattern_products(pencil.pattern, x, *stored)
    for product, dense in zip(products, (lt, qt)):
        assert np.array_equal(product, dense @ x)
    npt.assert_array_equal(tau[k:], raw.tau_minus[k:])
    count = min(raw.tau_minus.size, REFINE_COUNT)
    npt.assert_array_equal(pencil.eigen.vectors(count), raw.eigen.vectors(count))
    assert np.all(np.diff(np.abs(tau[:k])) <= 0.0)


def _assert_dense_products(pattern, x, values):
    """:func:`enclosure._pattern_products` is, bit for bit and signed
    zeros included, the dense longdouble ``a @ x`` of each ``a`` holding
    one of ``values`` on ``pattern``, and C-contiguous."""
    n, k = x.shape
    products = enclosure_mod._pattern_products(pattern, x, *values)
    assert products.shape == (len(values), n, k)
    assert products.dtype == np.longdouble and products.flags.c_contiguous
    for product, v in zip(products, values):
        dense = _matrix(pattern, n, v) @ x
        assert product.flags.c_contiguous
        assert np.array_equal(product, dense)
        assert np.array_equal(np.signbit(product), np.signbit(dense))


@pytest.mark.parametrize("k", [1, 2, 3, REFINE_COUNT])
@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_pattern_products_equal_the_dense_products(model, k):
    # the polish's products on both models' stored shifted forms: dirac1d
    # in longdouble, maxwell2d in double
    forms = _polish_case(model)[0]
    pencil = zm_eigen(forms, 0.8)
    assert pencil.tau_minus.size >= k
    x = pencil.eigen.vectors(k).astype(np.longdouble)
    _assert_dense_products(pencil.pattern, x, (pencil.Lt_values, pencil.Qt_values))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    density=st.floats(min_value=0.0, max_value=1.0),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
def test_pattern_products_match_dense_on_random_patterns(seed, n, k, density, dtype):
    # random symmetric patterns with random values, signed zeros among
    # them and in x, and x using the extended bits of longdouble
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    pattern = np.nonzero(mask | mask.T)

    def with_zeros(a):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        return a

    values = []
    for _ in range(2):
        a = rng.standard_normal((n, n)).astype(dtype)
        a = with_zeros(a + a.T)
        values.append(a[pattern])
    x = rng.standard_normal((n, k)).astype(np.longdouble)
    x = with_zeros(x + rng.standard_normal((n, k)).astype(np.longdouble) * 2.0**-60)
    _assert_dense_products(pattern, x, values)


def _deflating_large():
    """Forms of 70 trial vectors, the first an exact eigenvector at t = 0:
    the pivoted factorization of Q_0 deflates a kernel, and each side
    keeps more than ``REFINE_COUNT`` tau."""
    lam = np.linspace(-3.0, 3.0, 81)
    rng = np.random.default_rng(5)
    w = np.hstack([np.eye(81)[:, [40]], rng.standard_normal((81, 69))])
    return operator_forms(np.diag(lam), w), 0.0


@pytest.mark.parametrize("route", ["cholesky", "split"])
def test_each_side_keeps_the_vectors_the_polish_can_read(route, split_route):
    if route == "cholesky":
        forms, t = assemble_1d(uniform_mesh(12, jitter=0.3, seed=4), 3).forms, 0.6
    else:
        forms, t = _deflating_large()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeflationWarning)
        pencil = zm_eigen(forms, t)
    assert len(split_route) == 1
    assert pencil.signature.n_inf == (route == "split")
    assert min(pencil.tau_minus.size, pencil.tau_plus.size) > REFINE_COUNT
    qt = _on_pattern(forms, shifted_product(forms, t, t))
    lt = _on_pattern(forms, shifted_linear(forms, t))
    for name, top in (("minus", False), ("plus", True)):
        tau = getattr(pencil, "tau_" + name)
        x = pencil.eigen.vectors(REFINE_COUNT, top)
        assert x.shape == (forms.n, REFINE_COUNT)
        # Q_t-orthonormal, each column the vector of its tau, nearest first
        npt.assert_allclose(x.T @ qt @ x, np.eye(x.shape[1]), atol=1e-9)
        quotients = np.einsum("ij,ij->j", x, lt @ x)
        npt.assert_allclose(quotients, tau[: x.shape[1]], rtol=1e-8)
        # computed on demand, each column the same bits whether it is
        # asked for alone or with the others
        for k in range(REFINE_COUNT):
            npt.assert_array_equal(pencil.eigen.vectors(k + 1, top)[:, k], x[:, k])


@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_overflowing_shift_raises_a_typed_error(model):
    if model == "dirac1d":  # longdouble Q_t is finite, its double is not
        forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 1).forms
    else:
        forms = assemble_2d(structured_tri_mesh(3, jitter=0.2, seed=1), 1).forms
    message = re.escape("the shifted forms overflow double at t=-1e+155;")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        for solve in (zm_eigen, local_counting):
            with pytest.raises(NonFiniteError, match=message):
                solve(forms, -1e155)
        with pytest.raises(NonFiniteError, match="at t=1e"):
            zm_enclosures(forms, (1e300, 1e301), 1)
    # where Q_t still fits in double, the shift is solved
    assert zm_eigen(forms, 1e150).signature.n_minus > 0


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_shift_that_is_not_finite_is_refused(t):
    # no answer, not even an empty one: each reader raises, naming t
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    message = re.escape(f"the shift t={t:g} is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        for read in (
            lambda: dp_bounds(forms, t, 3, "left"),
            lambda: optimal_shift(forms, t, 1, "right"),
            lambda: equivalence_gap(forms, t, 1, "left"),
            lambda: zm_eigen(forms, t),
            lambda: local_counting(forms, t),
            lambda: signature(forms, t),
        ):
            with pytest.raises(NonFiniteError, match=message):
                read()
    assert "pencil" not in forms._kept


def test_public_zm_eigen_returns_an_unshared_pencil():
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    zm_bounds_one_sided(forms, 1.4, "left")
    kept = forms._kept["pencil"][1]
    first, second = zm_eigen(forms, 1.4), zm_eigen(forms, 1.4)
    assert first is not second and kept is not first and kept is not second
    assert forms._kept["pencil"][1] is kept


#: forms of both models at every order, and a shift of each whose
#: mirror -t is read from the kept solve at t
_MIRRORED = {
    "dirac1d-1": (lambda: assemble_1d(uniform_mesh(8, jitter=0.3, seed=2), 1).forms, 0.5),
    "dirac1d-2": (lambda: assemble_1d(uniform_mesh(8, jitter=0.3, seed=2), 2).forms, 1.4),
    "dirac1d-3": (lambda: assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms, 2.5),
    "maxwell2d-1": (lambda: assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=0), 1).forms, 0.8),
    "maxwell2d-2": (lambda: assemble_2d(structured_tri_mesh(4, jitter=0.3, seed=0), 2).forms, 1.5),
}


@pytest.mark.parametrize("case", sorted(_MIRRORED))
def test_a_mirrored_read_negates_the_kept_solve(case, pencil_solves):
    build, t = _MIRRORED[case]
    forms = build()
    grading = forms.grading()
    assert grading is not None and set(grading.tolist()) == {-1.0, 1.0}
    kept = enclosure_mod._pencil(forms, -t)
    kept.nearest("left", 2)
    kept.nearest("right", 3)
    mirrored = enclosure_mod._pencil(forms, t)
    assert pencil_solves == [-t] and mirrored.t == t
    sig = kept.signature
    assert mirrored.signature == replace(sig, n_minus=sig.n_plus, n_plus=sig.n_minus)
    # what the kept solve polished is not polished again
    assert mirrored.polished == {"left": 3, "right": 2}
    for side, other, top in (("left", "right", False), ("right", "left", True)):
        # 5 reads deeper than either side's polish: the mirror polishes
        # its own, and equals the kept solve's deeper polish negated
        npt.assert_array_equal(mirrored.nearest(side, 5), -kept.nearest(other, 5))
        x = kept.eigen.vectors(4, not top)
        npt.assert_array_equal(mirrored.eigen.vectors(4, top), grading[:, None] * x)
    # the mirror of the mirror is the kept solve, holding both polishes
    assert enclosure_mod._pencil(forms, -t) is kept and pencil_solves == [-t]
    assert kept.polished == {"left": 5, "right": 5}


@pytest.mark.parametrize("case", sorted(_MIRRORED))
def test_a_mirrored_read_owns_no_state(case, pencil_solves, monkeypatch):
    # the mirror evaluates no shifted form and keeps nothing: the forms
    # keep the solve at -t, and what is read through the mirror is
    # bisected and polished in that solve
    build, t = _MIRRORED[case]
    forms = build()
    kept = enclosure_mod._pencil(forms, -t)
    kept.nearest("right", 2)
    evaluated = []
    real = enclosure_mod.shifted_product

    def spy(forms, z, w):
        evaluated.append(z)
        return real(forms, z, w)

    monkeypatch.setattr(enclosure_mod, "shifted_product", spy)
    mirrored = enclosure_mod._pencil(forms, t)
    assert evaluated == [] and pencil_solves == [-t]
    assert forms._kept["pencil"][0] == -t and forms._kept["pencil"][1] is kept
    tau = mirrored.nearest("left", 4)
    extended = np.finfo(np.longdouble).eps < 1e-18  # else nothing is polished
    assert kept.polished == {"left": 0, "right": 4 if extended else 0}
    assert mirrored.polished == {"left": kept.polished["right"], "right": 0}
    assert evaluated == [] and forms._kept["pencil"][1] is kept
    reads = (
        tau, mirrored.nearest("right", 3), mirrored.end_values(2),
        mirrored.end_values(2, top=True),
    )
    for array in reads:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 99.0
    npt.assert_array_equal(mirrored.nearest("left", 4), tau)
    assert enclosure_mod._pencil(forms, -t) is kept and pencil_solves == [-t]


@pytest.mark.parametrize("case", sorted(_MIRRORED))
def test_a_mirrored_read_matches_a_fresh_solve(case):
    build, t = _MIRRORED[case]
    forms = build()
    enclosure_mod._pencil(forms, -t)
    mirrored = enclosure_mod._pencil(forms, t)
    fresh = zm_eigen(replace(forms), t)
    assert mirrored.signature == fresh.signature
    sides = [(mirrored.nearest(s, forms.n), fresh.nearest(s, forms.n)) for s in ("left", "right")]
    scale = max(np.abs(tau).max() for pair in sides for tau in pair)
    grid = np.concatenate([np.linspace(-scale, scale, 41), [-1e-3, 0.0, 1e-3]])
    counts = [[pencil.eigen.count(x) for x in grid] for pencil in (mirrored, fresh)]
    assert counts[0] == counts[1]
    for ours, theirs in sides:
        if case.startswith("dirac1d"):
            npt.assert_array_equal(ours, theirs)
        else:  # a 2D solve's roundoff is not sign-symmetric
            npt.assert_allclose(ours, theirs, rtol=0, atol=4 * np.spacing(scale))


def test_a_side_read_across_values_tied_to_roundoff():
    # maxwell2d order 2 at -2.78: the 8th to 10th largest tau agree to
    # roundoff, and bisecting the 5th to 8th by index fails there; they
    # are read, fresh and mirrored, as a dense solve gives them
    forms = assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=33), 2).forms
    tau = zm_eigen(forms, -2.78).nearest("right", 10)
    enclosure_mod._pencil(forms, -2.78)
    mirrored = enclosure_mod._pencil(forms, 2.78).nearest("left", 10)
    npt.assert_array_equal(mirrored, -tau)
    _, plus, _ = _reference_pencil(forms, -2.78)
    npt.assert_allclose(tau, plus[:10], rtol=1e-9)
    assert np.ptp(tau[7:]) < 1e-14


def test_forms_with_an_m1_diagonal_solve_the_mirror_afresh(pencil_solves):
    # README's 2 x 2 example: M1 = diag(1, 2) is no off-diagonal block,
    # so there is no grading and -1.5 is solved, not read from 1.5
    assert WORKED.grading() is None
    forms = replace(WORKED)
    left = zm_bounds_one_sided(forms, 1.5, "left")
    with pytest.raises(EmptySideError):
        zm_bounds_one_sided(forms, -1.5, "left")
    npt.assert_allclose(zm_bounds_one_sided(forms, -1.5, "right"), [1.0, 2.0], atol=1e-12)
    assert pencil_solves == [1.5, -1.5] and left.size == 1
