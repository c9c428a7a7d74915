"""Tests for the shifted-pencil (Zimmermann-Mertins) bound machinery."""

import re
import warnings
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

import eigenclose.enclosure as enclosure_mod
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
)
from eigenclose.errors import (
    DeflationWarning,
    DegenerateShiftError,
    EmptySideError,
    NonFiniteError,
)
from eigenclose.fixed_point import optimal_shift
from eigenclose.forms import (
    TrialForms,
    _on_pattern,
    operator_forms,
    shifted_linear,
    shifted_square,
)
from eigenclose.linalg import (
    DEFAULT_TOL,
    cholesky_spd,
    psd_eigh,
    sym_generalized_eigvals,
    symmetrize,
)
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
    qt = _on_pattern(forms, shifted_square(forms, 1.4))
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
        npt.assert_array_equal(pencil.polish("left"), minus)
        npt.assert_array_equal(pencil.polish("right"), plus)
        x = _both_sides_vectors(pencil)
        qt = _on_pattern(forms, shifted_square(forms, t))
        npt.assert_array_equal(x.T @ qt @ x, np.eye(forms.n))


def test_one_sided_bounds_worked_model():
    left = zm_bounds_one_sided(WORKED, 3.0, "left")
    npt.assert_allclose(left, [2.0, 1.0], atol=1e-12)
    with pytest.raises(EmptySideError):
        zm_bounds_one_sided(WORKED, 3.0, "right")


def test_one_sided_bounds_between():
    npt.assert_allclose(zm_bounds_one_sided(WORKED, 1.5, "left"), [1.0], atol=1e-12)
    npt.assert_allclose(zm_bounds_one_sided(WORKED, 1.5, "right"), [2.0], atol=1e-12)


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
    """Classified tau built from the public helpers, without the polish.

    The kernel of Q_t is split off with :func:`psd_eigh` and the
    deflated pencil is solved as a generalized problem, so this route
    shares only the kernel split with ``zm_eigen``.
    """
    qt = _on_pattern(forms, shifted_square(forms, t))
    lt = np.asarray(forms.M1 - forms.M0.dtype.type(t) * forms.M0, dtype=float)
    split = psd_eigh(qt, tol)
    complement = split.vectors[:, split.k :]
    tau = sym_generalized_eigvals(
        symmetrize(complement.T @ lt @ complement),
        cholesky_spd(symmetrize(complement.T @ qt @ complement), tol),
    )
    zero = tol * np.linalg.norm(lt, 2) / np.linalg.norm(qt, 2)
    minus, plus = tau[tau < -zero], tau[tau > zero][::-1]
    census = Signature(
        split.k, tau.size - minus.size - plus.size, minus.size, plus.size
    )
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

        # the values-only evaluation of the fixed point reads the same F_j
        full = local_counting(forms, t)
        for j in (1, 2, 3):
            fast = local_counting(forms, t, count=j)
            assert fast.size == j
            npt.assert_allclose(fast[j - 1], full[j - 1], rtol=1e-11, atol=1e-12)
    if case == "deflating":
        assert pencil.signature.n_inf == 1


@pytest.fixture
def eigh_route(monkeypatch):
    """One entry per pencil solve that took the eigendecomposition route
    (it starts with :func:`psd_eigh`) during the test; every other solve
    took the Cholesky route."""
    calls = []
    real = enclosure_mod.psd_eigh

    def counted(m, tol):
        calls.append(tol)
        return real(m, tol)

    monkeypatch.setattr(enclosure_mod, "psd_eigh", counted)
    return calls


@pytest.mark.parametrize(
    "case",
    ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2", "deflating"],
)
def test_cholesky_route_matches_the_eigh_route(case, eigh_route, monkeypatch):
    forms, shifts = _pencil_case(case)
    fast = [zm_eigen(forms, t) for t in shifts]
    # only the shift that deflates a kernel needs the eigendecomposition
    assert len(eigh_route) == (len(shifts) if case == "deflating" else 0)
    monkeypatch.setattr(enclosure_mod, "definite_pencil_eigh", lambda *args: None)
    for t, pencil in zip(shifts, fast):
        slow = zm_eigen(forms, t)
        assert pencil.signature == slow.signature
        npt.assert_allclose(pencil.tau_minus, slow.tau_minus, rtol=1e-12, atol=0.0)
        npt.assert_allclose(pencil.tau_plus, slow.tau_plus, rtol=1e-12, atol=0.0)
        # polished, the nearest tau agree to a few ulps; inside a cluster
        # of equal tau (maxwell2d's discrete gradient kernel at order 2)
        # each route polishes its own basis of the cluster, which agrees
        # only to the cluster's roundoff spread
        for side in ("left", "right"):
            got, want = pencil.polish(side, 3)[:3], slow.polish(side, 3)[:3]
            tau = slow.polish(side)
            for g, w in zip(got, want):
                if np.count_nonzero(np.abs(tau - w) <= 1e-10 * abs(w)) == 1:
                    npt.assert_array_max_ulp(g, w, maxulp=4)
                else:
                    npt.assert_allclose(g, w, rtol=1e-13, atol=0.0)


def test_uncertified_shifts_take_the_eigh_route(eigh_route, monkeypatch):
    # the whole matrices the solve decomposes at the pencil level: the
    # exact 2-norms of the zero threshold, and the eigh route's
    # projected L_t, which is never L_t itself
    decomposed = []
    real = enclosure_mod.sym_eigh

    def spy(a, vectors=True):
        decomposed.append(np.array(a))
        return real(a, vectors)

    monkeypatch.setattr(enclosure_mod, "sym_eigh", spy)
    deflating, (t,) = _pencil_case("deflating")
    cases = [
        # Q_1 has a kernel, which is deflated; no |tau| lies near the zero
        # threshold, so L_t's norm is not computed
        (deflating, t, Signature(1, 0, 0, 2), True, False),
        # at tol 1e-16, Q_t's eigenvalue 1e-14 is too small for the
        # Cholesky certificate, though nothing is deflated
        (replace(deflating, tol=1e-16), t + 1e-7, Signature(0, 0, 1, 2), True, False),
        # tau = 1.5e-10 lies inside the bracket [0.5e-10, 2e-10] of the
        # zero threshold 1e-10: the Cholesky route computes the exact
        # threshold, which counts it positive
        (TrialForms(np.eye(2), np.diag([1.0, 1.5e-10]), np.eye(2)), 0.0,
         Signature(0, 0, 0, 2), False, True),
        # just outside the bracket the norm bounds settle the census
        (TrialForms(np.eye(2), np.diag([1.0, 2.5e-10]), np.eye(2)), 0.0,
         Signature(0, 0, 0, 2), False, False),
    ]
    for forms, shift, census, eigh, exact in cases:
        eigh_route.clear()
        decomposed.clear()
        assert zm_eigen(forms, shift).signature == census
        assert len(eigh_route) == eigh
        lt = _on_pattern(forms, shifted_linear(forms, shift))
        assert any(np.array_equal(a, lt) for a in decomposed) == exact


@pytest.mark.parametrize(
    "case", ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2"]
)
def test_cholesky_route_census_matches_the_ritz_inertia(case, eigh_route):
    # eigenvector-free: Q_t is definite, so the pencil's inertia is that of
    # L_t = M1 - t M0, and with M0 definite that counts the Ritz values of
    # (M1, M0) on either side of t
    forms, _ = _pencil_case(case)
    ritz = forms.ritz()
    for t in np.linspace(-2.9, 2.9, 12):
        census = zm_eigen(forms, t).signature
        assert eigh_route == [] and census.n_inf == census.n_zero == 0
        assert census.n_minus == np.count_nonzero(ritz < t)
        assert census.n_plus == np.count_nonzero(ritz > t)


def _polish_case(model):
    """Forms, shifts and windows of one partial-polish comparison.

    Both models have more than ``2 * REFINE_COUNT`` pencil eigenvalues,
    so the full polish leaves some of them unpolished too.  Some
    windows hold more lower bounds than the smaller ``j_max`` values:
    three in ``(0.5, 3.5)`` for dirac1d, five in ``(0.9, 2.6)`` for
    maxwell2d.
    """
    if model == "dirac1d":  # forms assembled in longdouble
        forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=4), 3).forms
        return forms, (-1.3, 0.6, 1.4), ((0.5, 2.5), (-2.5, -0.5), (0.5, 3.5))
    forms = assemble_2d(structured_tri_mesh(5, jitter=0.25, seed=2), 1).forms
    return forms, (0.7, 1.6), ((0.8, 1.6), (-1.6, -0.8), (0.9, 2.6))


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
        shifted_linear(forms, t), shifted_square(forms, t)
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
            full_tau = full.polish(side)
            for j in (1, 2, 3):
                part = zm_eigen(forms, t)
                tau = part.polish(side, j)
                npt.assert_array_equal(tau, getattr(part, "tau_" + name))
                npt.assert_array_equal(tau[:j], full_tau[:j])
                if extended:
                    vectors = part.eigen.vectors(j, top=side == "right")
                    quotients = _rayleigh_quotients(forms, t, vectors)
                    npt.assert_array_equal(tau[:j], _nearest_first(quotients))
            # polishing more after reading some: the way zm_enclosures
            # polishes the lowers it pairs
            part = zm_eigen(forms, t)
            part.polish(side, 1)
            npt.assert_array_equal(part.polish(side, 3)[:3], full_tau[:3])

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
    enc = zm_enclosures(forms, (a, b), 1)
    assert pencil_solves == [a, b]
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

    calls = []
    real = PencilEigen.polish

    def spy(self, side, k=REFINE_COUNT):
        calls.append((side, k))
        return real(self, side, k)

    monkeypatch.setattr(PencilEigen, "polish", spy)
    enc = zm_enclosures(forms, (a, b), 1)
    assert calls == [("right", 1), ("left", inside)]
    assert [(e.lower, e.upper) for e in enc] == expected


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
        pencil.polish("Left")


def test_polish_remembers_its_reach():
    # asking for no more than is polished returns the side untouched;
    # asking for more polishes the nearest k afresh
    forms = assemble_1d(uniform_mesh(12, jitter=0.3, seed=0), 3).forms
    extended = np.finfo(np.longdouble).eps < 1e-18  # else nothing is polished
    pencil = zm_eigen(forms, 0.5)
    three = pencil.polish("right", 3)
    assert pencil.polish("right", 2) is three and pencil.polish("right", 3) is three
    assert pencil.polished == {"left": 0, "right": 3 if extended else 0}
    five = pencil.polish("right", 5)
    npt.assert_array_equal(five, zm_eigen(forms, 0.5).polish("right", 5))
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
    tau = pencil.polish("left", k)
    x = pencil.eigen.vectors(k).astype(np.longdouble)
    stored = (pencil.Lt_values, pencil.Qt_values)
    lt, qt = (_matrix(pencil.pattern, forms.n, values) for values in stored)
    quotients = np.einsum("ij,ij->j", x, lt @ x) / np.einsum("ij,ij->j", x, qt @ x)
    npt.assert_array_equal(tau[:k], _nearest_first(quotients.astype(float)))
    for values, dense in zip(stored, (lt, qt)):
        product = enclosure_mod._pattern_product(values, pencil.pattern, x)
        assert np.array_equal(product, dense @ x)
    npt.assert_array_equal(tau[k:], raw.tau_minus[k:])
    count = min(raw.tau_minus.size, REFINE_COUNT)
    npt.assert_array_equal(pencil.eigen.vectors(count), raw.eigen.vectors(count))
    assert np.all(np.diff(np.abs(tau[:k])) <= 0.0)


def _deflating_large():
    """Forms of 70 trial vectors, the first an exact eigenvector at t = 0:
    the shift deflates a kernel, so it takes the eigendecomposition route,
    and each side keeps more than ``REFINE_COUNT`` tau."""
    lam = np.linspace(-3.0, 3.0, 81)
    rng = np.random.default_rng(5)
    w = np.hstack([np.eye(81)[:, [40]], rng.standard_normal((81, 69))])
    return operator_forms(np.diag(lam), w), 0.0


@pytest.mark.parametrize("route", ["cholesky", "eigh"])
def test_each_side_keeps_the_vectors_the_polish_can_read(route, eigh_route):
    if route == "cholesky":
        forms, t = assemble_1d(uniform_mesh(12, jitter=0.3, seed=4), 3).forms, 0.6
    else:
        forms, t = _deflating_large()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeflationWarning)
        pencil = zm_eigen(forms, t)
    assert len(eigh_route) == (route == "eigh")
    assert min(pencil.tau_minus.size, pencil.tau_plus.size) > REFINE_COUNT
    qt = _on_pattern(forms, shifted_square(forms, t))
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


def test_public_zm_eigen_returns_an_unshared_pencil():
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    zm_bounds_one_sided(forms, 1.4, "left")
    kept = forms._kept["pencil"][1]
    first, second = zm_eigen(forms, 1.4), zm_eigen(forms, 1.4)
    assert first is not second and kept is not first and kept is not second
    assert forms._kept["pencil"][1] is kept
