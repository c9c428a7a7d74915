"""Tests for the fixed-point (Davies-Plum) route to one-sided bounds."""

import logging
import statistics

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eigenclose.enclosure as enclosure_mod
import eigenclose.fixed_point as fixed_point_mod
from eigenclose.dirac1d import assemble_1d, uniform_mesh
from eigenclose.enclosure import _pencil
from eigenclose.fixed_point import (
    FP_TOL_FACTOR,
    _MAX_BISECTIONS,
    _MAX_EXPANSIONS,
    _root,
    _scale,
    default_fp_tol,
    dp_bounds,
    equivalence_gap,
    optimal_shift,
)
from eigenclose.errors import (
    DegenerateShiftError,
    InconsistentFormsError,
    MaxIterationsError,
    NoSignChangeError,
)
from eigenclose.forms import TrialForms, operator_forms
from eigenclose.maxwell2d import assemble_2d, structured_tri_mesh

WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def test_optimal_shift_left_of_midpoint():
    # t = 1.5 between the two represented points: the nearest-below root
    # sits halfway to 1, i.e. at 1.25 where F_1 = 0.25
    res = optimal_shift(WORKED, 1.5, 1, "left")
    npt.assert_allclose(res.s_hat, 1.25, atol=1e-11)
    npt.assert_allclose(res.f_at_root, 0.25, atol=1e-11)
    npt.assert_allclose(res.bound, 1.0, atol=1e-10)
    assert res.j == 1 and res.side == "left"


def test_optimal_shift_right_of_midpoint():
    res = optimal_shift(WORKED, 1.5, 1, "right")
    npt.assert_allclose(res.s_hat, 1.75, atol=1e-11)
    npt.assert_allclose(res.bound, 2.0, atol=1e-10)


def test_optimal_shift_second_index():
    # from t = 3 the second point below is 1: root at 3 - 1 = 2
    res = optimal_shift(WORKED, 3.0, 2, "left")
    npt.assert_allclose(res.s_hat, 2.0, atol=1e-11)
    npt.assert_allclose(res.f_at_root, 1.0, atol=1e-11)
    npt.assert_allclose(res.bound, 1.0, atol=1e-10)


def test_one_dimensional_trial_space():
    # span{e2} of diag(1, 2, 5) sees only the point at 2
    forms = operator_forms(np.diag([1.0, 2.0, 5.0]), np.array([[0.0], [1.0], [0.0]]))
    res = optimal_shift(forms, 3.0, 1, "left")
    npt.assert_allclose(res.s_hat, 2.5, atol=1e-11)
    npt.assert_allclose(res.f_at_root, 0.5, atol=1e-11)
    npt.assert_allclose(res.bound, 2.0, atol=1e-10)
    assert res.bracket_width <= default_fp_tol(forms, 3.0)


def test_captured_shift_short_circuits(fresh):
    # t exactly on a represented point: g(0) <= 0, no bisection needed
    res = optimal_shift(fresh(WORKED), 2.0, 1, "left")
    assert res.s_hat == 2.0
    assert res.f_at_root == 0.0
    assert res.bound == 2.0
    assert res.iterations == 1
    assert res.bracket_width == 0.0


def test_no_sign_change_when_side_is_empty():
    with pytest.raises(NoSignChangeError, match="only 0 spectral points"):
        optimal_shift(WORKED, 0.5, 1, "left")


def test_no_sign_change_when_index_exceeds_side_count():
    with pytest.raises(NoSignChangeError, match="only 1 spectral points"):
        optimal_shift(WORKED, 1.5, 2, "left")


def test_optimal_shift_validates_arguments():
    with pytest.raises(ValueError, match="side"):
        optimal_shift(WORKED, 1.5, 1, "down")
    with pytest.raises(ValueError, match="outside"):
        optimal_shift(WORKED, 1.5, 3, "left")


def test_default_fp_tol_scales_with_spread():
    # Rayleigh quotients of the worked model are 1 and 2
    npt.assert_allclose(default_fp_tol(WORKED, 3.0), FP_TOL_FACTOR * 2.0)
    npt.assert_allclose(default_fp_tol(WORKED, 1.5), FP_TOL_FACTOR * 1.0)


def test_dp_bounds_full_side():
    bounds = dp_bounds(WORKED, 3.0, 2, "left")
    npt.assert_allclose(bounds, [2.0, 1.0], atol=1e-10)


def test_dp_bounds_truncates_on_undetectable_index():
    # from 1.5 only one point lies below: j = 2 stops the loop
    bounds = dp_bounds(WORKED, 1.5, 2, "left")
    npt.assert_allclose(bounds, [1.0], atol=1e-10)


@pytest.mark.parametrize("j_max", [0, -1])
def test_dp_bounds_rejects_a_non_positive_j_max(j_max):
    with pytest.raises(ValueError, match=f"j_max must be positive, got {j_max}"):
        dp_bounds(WORKED, 1.5, j_max, "bogus")


def test_dp_bounds_right_side_increases():
    forms = operator_forms(np.diag([1.0, 2.0, 5.0]), np.eye(3))
    bounds = dp_bounds(forms, 0.5, 3, "right")
    npt.assert_allclose(bounds, [1.0, 2.0, 5.0], atol=1e-9)
    assert np.all(np.diff(bounds) > 0)


def test_dp_bounds_stop_at_the_trial_dimension():
    # both Ritz values lie right of 0.5, so indices 1 and 2 are bounded
    # and index 3, beyond n = 2, truncates the array rather than raising
    bounds = dp_bounds(WORKED, 0.5, 3, "right")
    npt.assert_allclose(bounds, [1.0, 2.0], atol=1e-10)


def test_dp_bounds_match_pencil_bounds_on_random_models():
    # the two routes certify the same numbers on healthy inputs
    from eigenclose.enclosure import zm_bounds_one_sided

    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lam = np.sort(rng.uniform(0.0, 3.0, n))
        w = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        forms = operator_forms(np.diag(lam), w)
        t = float(lam[-1] + rng.uniform(0.5, 1.5))
        fp = dp_bounds(forms, t, n, "left")
        zm = zm_bounds_one_sided(forms, t, "left")
        npt.assert_allclose(fp, zm[: fp.size], rtol=1e-7, atol=1e-8)


def test_equivalence_gap_is_tiny_on_worked_model():
    for t, j, side in ((3.0, 1, "left"), (3.0, 2, "left"), (1.5, 1, "right")):
        assert equivalence_gap(WORKED, t, j, side) <= 1e-9


def test_equivalence_gap_propagates_no_sign_change():
    with pytest.raises(NoSignChangeError):
        equivalence_gap(WORKED, 0.5, 1, "left")


def _unseeded(forms, t, j, side):
    return _root(forms, t, j, side, None, lambda: None)


def _same_root(seeded, unseeded):
    return (seeded.s_hat, seeded.f_at_root, seeded.bracket_width) == (
        unseeded.s_hat, unseeded.f_at_root, unseeded.bracket_width
    )


def _record_counts(monkeypatch):
    """Make every inertia count of the fixed-point route, its only
    evaluation, log its shift and the sign it found (True where the
    residual is <= 0), in order, in a list."""
    calls = []
    real = fixed_point_mod._at_most

    def at_most(forms, s, alpha, j):
        result = real(forms, s, alpha, j)
        calls.append((s, result))
        return result

    monkeypatch.setattr(fixed_point_mod, "_at_most", at_most)
    return calls


@pytest.mark.parametrize("model", ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d"])
def test_seeded_root_is_bit_equal_to_the_unseeded_one(model, monkeypatch, fresh):
    # the pencil seed only skips evaluations whose sign is already known:
    # same bisection path, same root, 3 evaluations instead of about 44
    if model == "maxwell2d":
        forms = assemble_2d(structured_tri_mesh(4, jitter=0.25, seed=1), 1).forms
    else:
        order = int(model[-1])
        forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), order).forms
    t = 1.4
    calls = _record_counts(monkeypatch)
    for side in ("left", "right"):
        tau = _pencil(forms, t).nearest(side, 3)
        for j in (1, 2, 3):
            unseeded = _unseeded(fresh(forms), t, j, side)
            calls.clear()
            seeded = optimal_shift(forms, t, j, side)
            assert _same_root(seeded, unseeded), (side, j)
            assert seeded.tau == tau[j - 1]
            assert seeded.iterations <= 8 < unseeded.iterations
            # each evaluation is a count at a distinct shift, s_hat among
            # them, and it found the residual <= 0 there
            shifts = [s for s, _ in calls]
            assert len(set(shifts)) == len(shifts) == seeded.iterations
            assert dict(calls)[seeded.s_hat]
            # f_at_root is the distance that count certified
            gap = seeded.f_at_root - abs(seeded.s_hat - t)
            assert abs(gap) <= np.spacing(seeded.s_hat)


def test_wrong_seed_costs_evaluations_not_the_root(fresh):
    # a seed the counting function does not confirm leaves the search to
    # the signs it found: same root, at most the two checks more
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=2), 2).forms
    t = 1.4
    for side, other in (("left", "right"), ("right", "left")):
        tau = _pencil(forms, t).nearest(side, 2)
        wrong_side = _pencil(forms, t).nearest(other, 2)
        for j in (1, 2):
            unseeded = _unseeded(fresh(forms), t, j, side)
            # 1e-300 predicts a root beyond the expansion's reach
            for wrong_tau in (0.5 * tau[j - 1], 1.5 * tau[j - 1], 1e-8, 1e-300):
                wrong = tau.copy()
                wrong[j - 1] = wrong_tau
                seeded = _root(fresh(forms), t, j, side, None, lambda: wrong)
                assert _same_root(seeded, unseeded), (side, j, wrong_tau)
                assert seeded.iterations <= unseeded.iterations + 2
            seeded = _root(fresh(forms), t, j, side, None, lambda: wrong_side)
            assert _same_root(seeded, unseeded), (side, j, "wrong side")
            assert seeded.iterations <= unseeded.iterations + 2


def test_missed_prediction_narrows_the_search(monkeypatch, fresh):
    # the pencil's alpha* misses the bracket of this root: the search goes
    # on from the signs found at lo* and hi* instead of starting over, to
    # the unseeded root at 22 evaluations instead of 46
    forms = assemble_2d(structured_tri_mesh(4, 0.25, 22), 1).forms
    t, j, side = 2.5, 3, "right"
    calls = _record_counts(monkeypatch)
    unseeded, seeded, seeded_calls, (lo, hi), _ = _both_searches(
        forms, t, j, side, calls, fresh
    )
    counted = dict(calls)
    held = not counted[t + lo] and counted[t + hi]
    assert not held
    assert _same_root(seeded, unseeded)
    assert seeded.iterations < unseeded.iterations
    # one count per shift, s_hat's among them
    shifts = [s for s, _ in seeded_calls]
    assert len(set(shifts)) == len(shifts) == seeded.iterations
    assert seeded.s_hat in shifts


def _replay(forms, t, certified):
    """The search of the fixed-point route from t at the default fp_tol,
    on the sign test ``certified(alpha)`` (residual <= 0): its final
    bracket (lo, hi) and every alpha it tests, or None where it would
    run out of expansions or bisections."""
    scale = _scale(forms.ritz(), t)
    tested = []

    def test(alpha):
        tested.append(alpha)
        return certified(alpha)

    hi = scale
    while not test(hi):
        if len(tested) > _MAX_EXPANSIONS:
            return None
        hi *= 2.0
    lo = hi / 2.0 if hi > scale else 0.0
    bisections = 0
    while hi - lo > 0.5 * FP_TOL_FACTOR * scale:
        bisections += 1
        if bisections > _MAX_BISECTIONS:
            return None
        mid = 0.5 * (lo + hi)
        if test(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, tested


def _both_searches(forms, t, j, side, calls, fresh):
    """The unseeded root at (t, j, side) on ``fresh(forms)`` and the
    seeded one on ``forms``, with what the search tests: the alphas of
    the unseeded path and of the predicted bracket (lo*, hi*; None
    without a prediction) that the seeded search checked, and the
    residual's counted sign at each, from the counts of either search.
    ``calls`` is the log of :func:`_record_counts`; the unseeded
    search counts the sign at t, which the seeded one may take from the
    forms' kept value."""
    sign = -1.0 if side == "left" else 1.0
    unseeded_from = len(calls)
    unseeded = _unseeded(fresh(forms), t, j, side)
    seeded_from = len(calls)
    kept = forms._kept.get("counting", (None,))[0] == (t, j)
    seeded = optimal_shift(forms, t, j, side)
    counted = dict(calls[unseeded_from:])

    def positive(alpha):
        return not counted[t + sign * alpha]

    bracket, checked = None, set()
    if positive(0.0):
        lo, hi, path = _replay(forms, t, lambda alpha: not positive(alpha))
        taus = _pencil(forms, t).nearest(side, j)
        alpha_star = 0.5 / abs(taus[j - 1]) if taus.size >= j else np.inf
        predicted = _replay(forms, t, lambda alpha: alpha >= alpha_star)
        bracket = predicted[:2] if predicted else None
        checked = {alpha for alpha in bracket or () if t + sign * alpha in counted}
    else:  # a captured shift: neither search draws a seed
        lo, hi, path = 0.0, 0.0, [0.0]
        # each counts the sign at t, but for a kept one
        assert _same_root(seeded, unseeded)
        assert [s for s, _ in calls[unseeded_from:]] == [t] * (2 - kept)
        assert seeded.iterations == 1 - kept
    assert (t + sign * hi, hi - lo) == (unseeded.s_hat, unseeded.bracket_width)
    alphas = sorted(set(path) | checked)
    signs = [positive(alpha) for alpha in alphas]
    return unseeded, seeded, calls[seeded_from:], bracket, signs


def _monotone(signs):
    """Whether residual signs, in increasing alpha, never turn positive
    again once they are <= 0.  Where they do, the two searches take
    their signs from different points and may end in different roots,
    each a certified sign change of the computed residual."""
    return signs == sorted(signs, reverse=True)


def test_confirmed_prediction_costs_three_evaluations(monkeypatch, fresh):
    # a predicted bracket the residual confirms at both ends leaves the
    # search nothing to evaluate: the signs at t, lo* and hi* counted,
    # and the same root as the unseeded search.  In the equiv
    # subcommand's order the second side at (t, j) takes the sign at t
    # from the forms, so its root evaluates 2 shifts
    calls = _record_counts(monkeypatch)
    evaluations, fallbacks, non_monotone = [], 0, 0
    for model in ("dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d"):
        if model == "maxwell2d":
            forms = assemble_2d(structured_tri_mesh(4, jitter=0.25, seed=1), 1).forms
        else:
            mesh = uniform_mesh(6, jitter=0.3, seed=1)
            forms = assemble_1d(mesh, int(model[-1])).forms
        for t in (-1.4, 0.6, 1.4, 2.5):
            for j in (1, 2, 3):
                first = True  # no root at (t, j) has counted at t yet
                for side, sign in (("left", -1.0), ("right", 1.0)):
                    calls.clear()
                    try:
                        found = _both_searches(forms, t, j, side, calls, fresh)
                        unseeded, seeded, seeded_calls, bracket, signs = found
                    except NoSignChangeError:
                        continue
                    counts_at_t, first = int(first), False
                    # the signs the root reads: its evaluations and a kept one
                    evaluations.append(seeded.iterations + 1 - counts_at_t)
                    lo, hi = bracket
                    counted = dict(calls)
                    s_lo, s_hi = t + sign * lo, t + sign * hi
                    # the counts confirm the bracket
                    if counted[s_lo] or not counted[s_hi]:
                        fallbacks += 1
                        continue
                    case = (model, t, side, j)
                    shifts = [t] * counts_at_t + [s_lo, s_hi]
                    assert seeded.iterations == 2 + counts_at_t, case
                    assert [s for s, _ in seeded_calls] == shifts, case
                    assert seeded.s_hat == shifts[-1], case
                    if _monotone(signs):
                        assert _same_root(seeded, unseeded), case
                    else:
                        non_monotone += 1
    # 96 roots: here none falls back and the counted signs of each are
    # monotone; the bounds leave room for a root on a residual flat to
    # rounding, whose signs need not be
    assert len(evaluations) == 96
    assert statistics.fmean(evaluations) <= 3.2, (fallbacks, evaluations)
    assert fallbacks <= 2 and non_monotone <= 1


def test_counted_signs_are_the_eigensolve_signs(monkeypatch):
    # at every point the seeded search counts, the inertia count gives
    # the residual the sign F_j from an independent eigensolve gives it,
    # but at ties:
    # a residual below the fixed-point tolerance, which either rule may
    # round to either sign (13 of 1862 points here, all below 0.04
    # fp_tol: flat residuals of dirac1d r = 1 at t = 2.5, j = 3, and
    # three maxwell2d points within 2e-14 of a sign change)
    counted = []
    real = fixed_point_mod._at_most

    def at_most(forms, s, alpha, j):
        result = real(forms, s, alpha, j)
        counted.append((s, alpha, result))
        return result

    monkeypatch.setattr(fixed_point_mod, "_at_most", at_most)
    visited = 0
    for seed in range(6):
        models = [assemble_1d(uniform_mesh(6, jitter=0.3, seed=seed), r).forms
                  for r in (1, 2, 3)]
        models += [assemble_2d(structured_tri_mesh(4, 0.25, seed), r).forms
                   for r in (1, 2)]
        for forms in models:
            for t in (-1.4, 0.6, 1.4, 2.5):
                tie = default_fp_tol(forms, t)
                for j in (1, 2, 3):
                    for side in ("left", "right"):
                        counted.clear()
                        try:
                            optimal_shift(forms, t, j, side)
                        except NoSignChangeError:
                            continue
                        for s, alpha, result in counted:
                            visited += 1
                            f = enclosure_mod.local_counting(forms, s)[j - 1]
                            residual = float(f) - alpha
                            if abs(residual) > tie:
                                assert result == (residual <= 0.0), (s, alpha, j)
    assert visited > 1000


def test_one_debug_line_per_root(caplog, fresh):
    # each root reports the prediction's fate, the shifts it counted and
    # the final bracket width, and nothing else is logged: neither the
    # dry run that finds the predicted bracket nor the search.  A
    # captured shift counts its one sign
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    unseeded = _unseeded(fresh(forms), 1.4, 2, "right")
    caplog.set_level(logging.DEBUG, logger="eigenclose.fixed_point")
    optimal_shift(fresh(forms), 1.4, 2, "right")
    _unseeded(fresh(forms), 1.4, 2, "right")
    optimal_shift(fresh(WORKED), 2.0, 1, "left")
    messages = [record.getMessage() for record in caplog.records]
    width = f"final bracket width {unseeded.bracket_width:.3g}"
    shifts = unseeded.iterations
    assert messages == [
        f"root side=right j=2: predicted bracket held; shifts 3; {width}",
        f"root side=right j=2: predicted bracket not drawn; shifts {shifts}; {width}",
        "root side=left j=1: shift captured; shifts 1; final bracket width 0",
    ]


@settings(
    max_examples=60,
    deadline=None,
    # fresh is stateless: it builds new forms on each call
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    jitter=st.floats(min_value=0.0, max_value=0.4),
    t=st.floats(min_value=-3.0, max_value=3.0),
    j=st.integers(min_value=1, max_value=3),
    side=st.sampled_from(["left", "right"]),
)
# t = 0, where M2's near-kernel makes F_1 flat to rounding, on the
# Ritz-value shift and on a jittered mesh: the counted signs there need
# not be monotone
@example(seed=0, jitter=0.0, t=0.0, j=1, side="left")
@example(seed=1960127676, jitter=0.21744999658616915, t=0.0, j=1, side="left")
def test_seeded_search_property(fresh, seed, jitter, t, j, side):
    # the prediction changes the cost, never the outcome: the unseeded
    # search's root wherever the residual's signs at the alphas either
    # search tests are monotone, at most two more evaluations, and no
    # error the unseeded search does not raise
    forms = assemble_1d(uniform_mesh(6, jitter=jitter, seed=seed), 2).forms
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_counts(patch)
        try:
            found = _both_searches(forms, t, j, side, calls, fresh)
            unseeded, seeded, _, _, signs = found
        except NoSignChangeError:
            with pytest.raises(NoSignChangeError):
                optimal_shift(forms, t, j, side)
            return
    assert seeded.iterations <= unseeded.iterations + 2
    if _monotone(signs):
        assert _same_root(seeded, unseeded)


@pytest.mark.parametrize("fp_tol", [np.nan, np.inf, 0.0, -1e-3])
def test_bad_fp_tol_rejected(fp_tol):
    # a non-finite tolerance would end the bisection at once, a
    # nonpositive one never
    message = "fp_tol must be finite and positive"
    with pytest.raises(ValueError, match=message):
        optimal_shift(WORKED, 1.5, 1, "left", fp_tol=fp_tol)
    with pytest.raises(ValueError, match=message):
        dp_bounds(WORKED, 1.5, 1, "left", fp_tol=fp_tol)
    with pytest.raises(ValueError, match=message):
        equivalence_gap(WORKED, 1.5, 1, "left", fp_tol=fp_tol)


def test_captured_shift_draws_no_seed(fresh):
    # g(0) comes first: a captured shift costs one evaluation, no pencil
    def seed():
        raise AssertionError("seed drawn for a captured shift")

    res = _root(fresh(WORKED), 2.0, 1, "left", None, seed)
    assert res.iterations == 1 and res.tau is None


def test_failing_pencil_leaves_the_search_unseeded(monkeypatch, fresh):
    # optimal_shift survives a pencil that raises; equivalence_gap still
    # raises the pencil's own error, as it did before the seed existed
    def broken(*args, **kwargs):
        raise DegenerateShiftError("no pencil")

    forms = fresh(WORKED)
    unseeded = _unseeded(fresh(WORKED), 1.5, 1, "left")
    monkeypatch.setattr(enclosure_mod, "zm_eigen", broken)
    res = optimal_shift(forms, 1.5, 1, "left")
    assert _same_root(res, unseeded) and res.tau is None
    assert res.iterations == unseeded.iterations
    npt.assert_array_equal(dp_bounds(forms, 1.5, 1, "left"), [unseeded.bound])
    with pytest.raises(DegenerateShiftError):
        equivalence_gap(forms, 1.5, 1, "left")


def test_one_pencil_solve_per_call(pencil_solves):
    # dp_bounds seeds every index from one solve, equivalence_gap takes
    # its prediction from the solve that seeded the root, here the one
    # dp_bounds made at the same shift; each polishes only the entries
    # of its side that it reads
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=3), 2).forms
    polishes = 1 if enclosure_mod._LONGDOUBLE_OK else 0  # no longdouble, no polish
    expected = [_unseeded(forms, 1.4, j, "right").bound for j in (1, 2, 3)]
    assert dp_bounds(forms, 1.4, 3, "right").tolist() == expected
    pencil = forms._kept["pencil"][1]
    assert pencil_solves == [1.4]
    assert pencil.polished == {"left": 0, "right": 3 * polishes}
    equivalence_gap(forms, 1.4, 2, "left")
    assert pencil_solves == [1.4] and forms._kept["pencil"][1] is pencil  # no new solve
    assert pencil.polished == {"left": 2 * polishes, "right": 3 * polishes}


def test_a_failing_seed_solve_is_made_once(monkeypatch):
    # a pencil solve that raises on forms passing validate leaves every
    # index unseeded, and dp_bounds tries that solve once, not per index
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=3), 2).forms
    expected = [_unseeded(forms, 1.4, j, "right").bound for j in (1, 2, 3)]
    solves = []

    def failing(forms, t):
        solves.append(t)
        raise DegenerateShiftError("injected")

    monkeypatch.setattr(enclosure_mod, "zm_eigen", failing)
    assert dp_bounds(forms, 1.4, 3, "right").tolist() == expected
    assert solves == [1.4]


def test_both_audit_sides_share_one_solve(fresh, pencil_solves):
    # the equiv subcommand's order: every index and side at one shift
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=4), 2).forms
    cases = [(j, side) for j in (1, 2) for side in ("left", "right")]
    apart = [equivalence_gap(fresh(forms), 1.4, j, side) for j, side in cases]
    pencil_solves.clear()
    assert [equivalence_gap(forms, 1.4, j, side) for j, side in cases] == apart
    assert pencil_solves == [1.4]


def test_dp_bounds_and_the_audit_share_one_solve(fresh, pencil_solves):
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=4), 2).forms
    fresh_bounds = dp_bounds(fresh(forms), 0.6, 3, "right")
    fresh_gap = equivalence_gap(fresh(forms), 0.6, 2, "right")
    pencil_solves.clear()
    npt.assert_array_equal(dp_bounds(forms, 0.6, 3, "right"), fresh_bounds)
    assert equivalence_gap(forms, 0.6, 2, "right") == fresh_gap
    assert pencil_solves == [0.6]


def test_inconsistent_forms_are_refused_up_front(monkeypatch, pencil_solves):
    # M2 scaled by 0.95 fails TrialForms.validate: every fixed-point entry
    # raises its error before any sign is counted or any pencil solved
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=0), 2).forms
    bad = TrialForms(
        np.asarray(forms.M0, dtype=float),
        np.asarray(forms.M1, dtype=float),
        0.95 * np.asarray(forms.M2, dtype=float),
    )
    calls = _record_counts(monkeypatch)
    for t in (0.6, 1.4, 2.5):
        for side in ("left", "right"):
            for j in (1, 2):
                for route in (optimal_shift, dp_bounds, equivalence_gap):
                    with pytest.raises(InconsistentFormsError):
                        route(bad, t, j, side)
    assert calls == [] and pencil_solves == []


def test_a_captured_count_is_final(monkeypatch, caplog, fresh):
    # a count that finds every residual <= 0 takes t as captured, where
    # F_j(1.4) from an eigensolve is far from 0: the count's sign is the
    # one rule, so the root is t itself, after one count and no seed
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    assert enclosure_mod.local_counting(forms, 1.4)[1] > 0.1
    monkeypatch.setattr(fixed_point_mod, "_at_most", lambda *args: True)
    caplog.set_level(logging.DEBUG, logger="eigenclose.fixed_point")
    res = optimal_shift(forms, 1.4, 2, "right")
    assert (res.s_hat, res.f_at_root, res.bound) == (1.4, 0.0, 1.4)
    assert (res.iterations, res.bracket_width, res.tau) == (1, 0.0, None)
    assert [record.getMessage() for record in caplog.records] == [
        "root side=right j=2: shift captured; shifts 1; final bracket width 0"
    ]


def _short_counts(monkeypatch, root, t):
    """Make the counts take every alpha from 0.9 of the distance of
    ``root`` from t on as <= 0."""
    real = fixed_point_mod._at_most

    def short(forms, s, alpha, j):
        return alpha >= 0.9 * abs(root.s_hat - t) or real(forms, s, alpha, j)

    monkeypatch.setattr(fixed_point_mod, "_at_most", short)


def test_a_short_count_ends_the_search_where_it_says(monkeypatch, fresh):
    # counts that take every alpha from 0.9 of the root's on as <= 0 end
    # the search there: no eigensolve overrules them, and the root
    # reports the end they certified
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    t, j, side = 1.4, 2, "right"
    root = _unseeded(fresh(forms), t, j, side)
    _short_counts(monkeypatch, root, t)
    calls = _record_counts(monkeypatch)
    res = _unseeded(forms, t, j, side)
    npt.assert_allclose(res.s_hat - t, 0.9 * (root.s_hat - t), rtol=0,
                        atol=default_fp_tol(forms, t))
    assert dict(calls)[res.s_hat]
    assert abs(res.f_at_root - (res.s_hat - t)) <= np.spacing(res.s_hat)
    assert res.iterations == len(calls)


def test_a_contradicted_seeded_root_keeps_its_tau(monkeypatch, caplog, fresh):
    # the same short counts contradict the pencil's prediction: the
    # predicted bracket misses, the search ends where they say, and the
    # root still reports the tau that seeded it
    forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    t, j, side = 1.4, 2, "right"
    root = _unseeded(fresh(forms), t, j, side)
    _short_counts(monkeypatch, root, t)
    caplog.set_level(logging.DEBUG, logger="eigenclose.fixed_point")
    res = optimal_shift(forms, t, j, side)
    (summary,) = [record.getMessage() for record in caplog.records]
    assert "predicted bracket missed" in summary
    assert res.tau == float(_pencil(forms, t).nearest(side, j)[j - 1])
    assert res.s_hat == _unseeded(fresh(forms), t, j, side).s_hat


def test_contradicted_final_sign_falls_back(monkeypatch):
    # the residual is <= 0 only just beyond the predicted root, not at
    # the predicted bracket's end hi* = 2: the prediction is refused, and
    # the search, starting from the residual > 0 found at hi*, finds no
    # sign change
    t, tau, fp_tol = 1.5, -0.25, 1e-3
    s_high = t - (0.5 / abs(tau) + fp_tol)

    def at_most(forms, s, alpha, j):
        # residual -1 at the window's upper end, +1 at every other shift
        return t - s + (-1.0 if s == s_high else 1.0) <= alpha

    monkeypatch.setattr(fixed_point_mod, "_at_most", at_most)
    with pytest.raises(MaxIterationsError):
        _root(WORKED, t, 1, "left", fp_tol, lambda: np.array([tau]))
