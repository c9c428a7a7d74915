"""Acceptance suite: one test per advertised guarantee.

Each test pins a headline property of the toolkit at an explicit tolerance
and, where it matters, a runtime budget.  They are deliberately end-to-end:
exact small models with closed-form spectra, the 1D Dirac-square model, and
the 2D Maxwell cavity model all act as independent oracles for the bounds
produced by the enclosure machinery.
"""

import warnings
from time import perf_counter

import numpy as np
import numpy.testing as npt

from eigenclose.dirac1d import assemble_1d, exact_spectrum_1d, uniform_mesh
from eigenclose.enclosure import (
    EmptySideError,
    local_counting,
    residual_bounds,
    signature,
    zm_bounds_one_sided,
    zm_enclosures,
)
from eigenclose.fixed_point import NoSignChangeError, equivalence_gap
from eigenclose.forms import TrialForms, operator_forms
from eigenclose.linalg import cholesky_spd, sym_generalized_eigvals, symmetrize
from eigenclose.maxwell2d import (
    assemble_2d,
    exact_spectrum_2d,
    galerkin_spectrum,
    structured_tri_mesh,
)


def _forms_from_basis(lam, W):
    """Trial forms of ``diag(lam)`` restricted to the columns of ``W``."""
    D = np.diag(lam)
    D2 = np.diag(lam ** 2)
    return TrialForms(
        symmetrize(W.T @ W),
        symmetrize(W.T @ D @ W),
        symmetrize(W.T @ D2 @ W),
    )


def test_exact_trial_space_bounds():
    """A = diag(1, 2, 5) with trial space span{e1, e2} gives exact bounds.

    At t = 3 the left-side bounds are (2, 1); at t = 1.5 the lower bound is
    1 and the upper bound is 2.  All to 1e-12, in under a millisecond.
    """
    forms = operator_forms(np.diag([1.0, 2.0, 5.0]), np.eye(3)[:, :2])

    zm_bounds_one_sided(forms, 3.0, "left")  # warm up before timing
    best = np.inf
    for _ in range(5):
        tic = perf_counter()
        below_3 = zm_bounds_one_sided(forms, 3.0, "left")
        below_15 = zm_bounds_one_sided(forms, 1.5, "left")
        above_15 = zm_bounds_one_sided(forms, 1.5, "right")
        best = min(best, perf_counter() - tic)

    npt.assert_allclose(below_3, [2.0, 1.0], rtol=0.0, atol=1e-12)
    npt.assert_allclose(below_15, [1.0], rtol=0.0, atol=1e-12)
    npt.assert_allclose(above_15, [2.0], rtol=0.0, atol=1e-12)
    assert best < 1e-3


def test_zm_dp_equivalence_grid():
    """The fixed-point shift agrees with t + 1/(2 tau_j) across a model grid.

    Swept over the 1D model with orders {1, 2}, meshes {10, 20}, shifts
    {0.6, 1.4, 2.5}, both sides, j <= 3.  The worst gap, normalised by the
    Rayleigh-quotient spread of the trial space, must stay below 1e-9.
    Budget: 10 s.
    """
    tic = perf_counter()
    worst = 0.0
    skipped = 0
    for order in (1, 2):
        for n_elems in (10, 20):
            forms = assemble_1d(uniform_mesh(n_elems), order).forms
            theta = sym_generalized_eigvals(
                np.asarray(forms.M1, dtype=float),
                cholesky_spd(np.asarray(forms.M0, dtype=float)),
            )
            span = theta[-1] - theta[0]
            for t in (0.6, 1.4, 2.5):
                for side in ("left", "right"):
                    for j in (1, 2, 3):
                        try:
                            gap = equivalence_gap(forms, t, j, side)
                        except NoSignChangeError:
                            skipped += 1
                            continue
                        worst = max(worst, gap / span)
    elapsed = perf_counter() - tic

    assert skipped == 0  # every grid point is detectable on these meshes
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_certified_containment_matrix():
    """Every emitted enclosure contains an exact-oracle eigenvalue.

    At least 50 enclosures over 1D windows (0.5, 2.5) and Maxwell windows
    (0.7, 1.6), across orders, mesh sizes and jittered meshes.  Zero
    violations, zero inconsistent pairs.
    """
    total = 0
    violations = 0

    oracle_1d = exact_spectrum_1d(6.0)
    for order in (1, 2):
        for n_elems in (8, 12, 16, 20):
            for jitter in (0.0, 0.3):
                mesh = uniform_mesh(n_elems, jitter=jitter, seed=1)
                forms = assemble_1d(mesh, order).forms
                for enc in zm_enclosures(forms, (0.5, 2.5), j_max=2):
                    total += 1
                    assert not enc.inconsistent
                    hit = np.any(
                        (oracle_1d >= enc.lower) & (oracle_1d <= enc.upper)
                    )
                    violations += 0 if hit else 1

    oracle_2d = exact_spectrum_2d(4.0)
    for order in (1, 2):
        for nx in (4, 6):
            for jitter in (0.0, 0.2):
                mesh = structured_tri_mesh(nx, jitter=jitter, seed=2)
                forms = assemble_2d(mesh, order).forms
                for enc in zm_enclosures(forms, (0.7, 1.6), j_max=3):
                    total += 1
                    assert not enc.inconsistent
                    hit = np.any(
                        (oracle_2d >= enc.lower) & (oracle_2d <= enc.upper)
                    )
                    violations += 0 if hit else 1

    assert total >= 50
    assert violations == 0


def test_enclosure_width_convergence_rates():
    """1D enclosure widths for the eigenvalue 1 shrink at the optimal rate.

    Log-log slope of width against h over h = pi/10 ... pi/80 must reach
    2r - 0.3 for orders r = 1, 2, 3, fitting only widths above 1e-12.
    Budget: 60 s.
    """
    tic = perf_counter()
    for order in (1, 2, 3):
        log_h = []
        log_w = []
        for n_elems in (10, 20, 40, 80):
            forms = assemble_1d(uniform_mesh(n_elems), order).forms
            enc = zm_enclosures(forms, (0.5, 1.5), j_max=1)
            assert len(enc) == 1 and not enc[0].inconsistent
            if enc[0].width > 1e-12:
                log_h.append(np.log(np.pi / n_elems))
                log_w.append(np.log(enc[0].width))
        assert len(log_w) >= 3
        slope = np.polyfit(log_h, log_w, 1)[0]
        assert slope >= 2 * order - 0.3
    assert perf_counter() - tic < 60.0


def test_quadratic_residual_law():
    """F1(3) - d1 decays quadratically in the rotation angle.

    Family: A = diag(1, 2, 5), trial vector cos(theta) e2 + sin(theta) e3,
    shift t = 3, so F1(3) = sqrt(1 + 3 sin^2 theta) exactly and d1 = 1.
    The excess must fit a log-log slope >= 1.9 over theta in
    {0.2, 0.1, 0.05, 0.025} and never exceed 3 * sum(eps^2) / d1^2.
    """
    thetas = np.array([0.2, 0.1, 0.05, 0.025])
    excess = []
    for theta in thetas:
        W = np.array([[0.0], [np.cos(theta)], [np.sin(theta)]])
        forms = operator_forms(np.diag([1.0, 2.0, 5.0]), W)
        F1 = local_counting(forms, 3.0)[0]
        npt.assert_allclose(F1, np.sqrt(1.0 + 3.0 * np.sin(theta) ** 2),
                            rtol=1e-12)
        res = residual_bounds([F1], [1.0], [2.0])
        cap = 3.0 * res.eps[0] ** 2 / 1.0 ** 2
        assert F1 - 1.0 <= cap
        excess.append(F1 - 1.0)

    slope = np.polyfit(np.log(thetas), np.log(excess), 1)[0]
    assert slope >= 1.9


def test_eigenvector_residual_tightness():
    """On the rotation family the residual bound is sharp.

    The computed eps_1 equals sin(theta) to 1e-10 and upper-bounds the true
    deviation ||u - <u, phi> phi|| of the trial vector from the nearest
    eigenvector, which here equals sin(theta) exactly.
    """
    for theta in (0.2, 0.1, 0.05, 0.025):
        phi = np.array([0.0, np.cos(theta), np.sin(theta)])
        forms = operator_forms(np.diag([1.0, 2.0, 5.0]), phi[:, None])
        F1 = local_counting(forms, 3.0)[0]
        res = residual_bounds([F1], [1.0], [2.0])

        assert abs(res.eps[0] - np.sin(theta)) <= 1e-10

        u = np.array([0.0, 1.0, 0.0])  # eigenvector nearest to t = 3
        deviation = np.linalg.norm(u - (u @ phi) * phi)
        npt.assert_allclose(deviation, np.sin(theta), rtol=0.0, atol=1e-15)
        assert deviation <= res.eps[0] + 1e-12


def test_pollution_contrast_maxwell():
    """Galerkin pollutes the (0.2, 0.8) gap; the enclosures never do.

    Jittered Maxwell mesh (nx=8, jitter=0.25, seed=7) at order 1: the plain
    Galerkin spectrum places at least one spurious value inside the gap
    between 0 and the first true eigenvalue 1, while zm_enclosures emits no
    enclosure for that window.  Budget: 30 s.
    """
    tic = perf_counter()
    model = assemble_2d(structured_tri_mesh(8, jitter=0.25, seed=7), 1)

    gal = galerkin_spectrum(model)
    in_gap = gal[(gal > 0.2) & (gal < 0.8)]
    assert in_gap.size >= 1
    # The spurious mode sits mid-gap on this mesh.
    npt.assert_allclose(in_gap[0], 0.45021744197536195, rtol=1e-6)

    assert zm_enclosures(model.forms, (0.2, 0.8), j_max=5) == []
    assert perf_counter() - tic < 30.0


def test_linear_perturbation_bound():
    """F_j - d_j <= sqrt(sum of eps_k^2) for orthonormal perturbed bases.

    100 random diagonal models (n <= 10).  Trial vectors are built as
    cos(a_k) e_{i_k} + sin(a_k) g_k where e_{i_k} is the eigenvector of the
    k-th nearest eigenvalue to t and g_k a far eigenvector, so the set is
    orthonormal and eps_k = ||(A - t)(w_k - e_{i_k})|| is known in closed
    form.  Zero violations at slack 1e-9.
    """
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 11))
        lam = np.sort(rng.uniform(-3.0, 3.0, size=n)) + 0.15 * np.arange(n)
        t = float(rng.uniform(lam[0], lam[-1]))
        m = int(rng.integers(1, n // 2 + 1))

        order = np.argsort(np.abs(lam - t), kind="stable")
        near = order[:m]
        far = order[::-1][:m]  # disjoint from `near` since 2m <= n
        angles = rng.uniform(0.0, 0.4, size=m)

        W = np.zeros((n, m))
        W[near, np.arange(m)] = np.cos(angles)
        W[far, np.arange(m)] = np.sin(angles)
        forms = _forms_from_basis(lam, W)

        F = local_counting(forms, t)
        d = np.sort(np.abs(lam - t))[:m]
        eps_sq = (
            (1.0 - np.cos(angles)) ** 2 * d ** 2
            + np.sin(angles) ** 2 * np.abs(lam[far] - t) ** 2
        )
        for j in range(1, m + 1):
            assert F[j - 1] - d[j - 1] <= np.sqrt(eps_sq[:j].sum()) + 1e-9


def test_structural_invariants():
    """Lipschitz, monotonicity, signature sum, basis-change invariance.

    Four property suites totalling at least 1000 randomized checks on
    small diagonal models with random trial bases.  Budget: 30 s.
    """
    tic = perf_counter()
    rng = np.random.default_rng(1234)
    checks = 0

    def random_model():
        n = int(rng.integers(2, 7))
        lam = np.sort(rng.uniform(-2.0, 2.0, size=n))
        k = int(rng.integers(1, n + 1))
        W = rng.standard_normal((n, k))
        return lam, W, _forms_from_basis(lam, W)

    # |F(t) - F(s)| <= |t - s|, componentwise
    for _ in range(300):
        _, _, forms = random_model()
        t, s = rng.uniform(-2.5, 2.5, size=2)
        Ft = local_counting(forms, t)
        Fs = local_counting(forms, s)
        assert np.all(np.abs(Ft - Fs) <= abs(t - s) + 1e-9)
        checks += 1

    # t + F(t) and t - F(t) both nondecreasing in t
    for _ in range(300):
        _, _, forms = random_model()
        s, t = np.sort(rng.uniform(-2.5, 2.5, size=2))
        Ft = local_counting(forms, t)
        Fs = local_counting(forms, s)
        assert np.all(t + Ft >= s + Fs - 1e-9)
        assert np.all(t - Ft >= s - Fs - 1e-9)
        checks += 1

    # signature components always sum to the trial dimension
    for _ in range(200):
        _, W, forms = random_model()
        t = float(rng.uniform(-2.5, 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = signature(forms, t)
        assert sig.n_inf + sig.n_zero + sig.n_minus + sig.n_plus == W.shape[1]
        checks += 1

    # bounds depend on the trial space, not on the basis chosen for it
    done = 0
    while done < 200:
        lam, W, forms = random_model()
        t = float(rng.uniform(-2.5, 2.5))
        if np.min(np.abs(lam - t)) < 5e-2:
            continue
        k = W.shape[1]
        C = np.eye(k) + 0.2 * rng.standard_normal((k, k))
        if abs(np.linalg.det(C)) < 1e-2:
            continue
        changed = _forms_from_basis(lam, W @ C)
        side = "left" if rng.random() < 0.5 else "right"
        try:
            before = zm_bounds_one_sided(forms, t, side)
        except EmptySideError:
            before = None
        try:
            after = zm_bounds_one_sided(changed, t, side)
        except EmptySideError:
            after = None
        assert (before is None) == (after is None)
        if before is not None:
            npt.assert_allclose(before, after, rtol=1e-8, atol=1e-10)
        done += 1
        checks += 1

    assert checks >= 1000
    assert perf_counter() - tic < 30.0
