"""Tests for trial-form containers, shifting, and the .forms format."""

import dataclasses
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import eigenclose.linalg as linalg_mod
from eigenclose import dirac1d, enclosure, fixed_point, forms as forms_mod, maxwell2d
from eigenclose.dirac1d import assemble_1d, uniform_mesh
from eigenclose.enclosure import local_counting, zm_eigen, zm_enclosures
from eigenclose.errors import (
    FormsFormatError,
    InconsistentFormsError,
    NegativeEigenvalueError,
    NotPositiveDefiniteError,
    NoSignChangeError,
)
from eigenclose.fixed_point import (
    default_fp_tol,
    dp_bounds,
    equivalence_gap,
)
from eigenclose.forms import (
    TrialForms,
    operator_forms,
    read_forms,
    shifted_linear,
    shifted_square,
    write_forms,
)

# the two-eigenvalue worked model: A = diag(1, 2) on the full space
WORKED = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))


def test_trial_forms_requires_spd_gram():
    with pytest.raises(NotPositiveDefiniteError):
        TrialForms(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))


def test_trial_forms_requires_matching_shapes():
    with pytest.raises(ValueError, match="share one shape"):
        TrialForms(np.eye(2), np.eye(2), np.eye(3))


def test_trial_forms_requires_stored_symmetry():
    m1 = np.array([[1.0, 1e-9], [0.0, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        TrialForms(np.eye(2), m1, np.eye(2))


def test_shift_worked_model_t3():
    pencil = zm_eigen(WORKED, 3.0)
    # Q_3 = M2 - 6 M1 + 9 M0, L_3 = M1 - 3 M0, both diagonal here, so
    # their values on the pattern are their diagonals
    npt.assert_array_equal(WORKED.pattern(), np.diag_indices(2))
    npt.assert_array_equal(shifted_square(WORKED, 3.0), [4.0, 1.0])
    npt.assert_array_equal(pencil.Qt_values, [4.0, 1.0])
    npt.assert_array_equal(pencil.Lt_values, [-2.0, -1.0])
    npt.assert_array_equal(
        forms_mod._on_pattern(WORKED, pencil.Qt_values), np.diag([4.0, 1.0])
    )
    assert pencil.t == 3.0


def test_shift_worked_model_t_between():
    pencil = zm_eigen(WORKED, 1.5)
    npt.assert_array_equal(shifted_square(WORKED, 1.5), [0.25, 0.25])
    npt.assert_array_equal(pencil.Qt_values, [0.25, 0.25])
    npt.assert_array_equal(pencil.Lt_values, [-0.5, 0.5])


def test_shift_preserves_longdouble():
    forms = TrialForms(
        np.eye(2, dtype=np.longdouble),
        np.diag(np.array([1, 2], dtype=np.longdouble)),
        np.diag(np.array([1, 4], dtype=np.longdouble)),
    )
    pencil = zm_eigen(forms, 1.0 / 3.0)
    assert shifted_square(forms, 1.0 / 3.0).dtype == np.longdouble
    assert pencil.Qt_values.dtype == np.longdouble
    assert pencil.Lt_values.dtype == np.longdouble
    # what LAPACK reads is rounded to double
    assert forms_mod._on_pattern(forms, pencil.Qt_values).dtype == np.float64


@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_shifted_forms_are_exactly_symmetric(model):
    # entrywise combinations of exactly symmetric forms need no symmetrize
    if model == "dirac1d":  # assembled in longdouble
        forms = assemble_1d(uniform_mesh(8, jitter=0.3, seed=1), 3).forms
        assert forms.M0.dtype == np.longdouble
    else:
        mesh = maxwell2d.structured_tri_mesh(4, jitter=0.25, seed=1)
        forms = maxwell2d.assemble_2d(mesh, 1).forms
        assert forms.M0.dtype == np.float64
    for t in (-1.3, 0.0, 1.0 / 3.0, 0.6, 1.4, 2.5, 17.0):
        pencil = zm_eigen(forms, t)
        npt.assert_array_equal(pencil.Qt_values, shifted_square(forms, t))
        for values in (pencil.Qt_values, pencil.Lt_values):
            matrix = _matrix(forms, values)
            npt.assert_array_equal(matrix, matrix.T)


def _matrix(forms, values):
    """The n by n matrix holding ``values`` on the forms' pattern, +0 off
    it, in the precision of the values."""
    out = np.zeros((forms.n, forms.n), dtype=values.dtype)
    out[forms.pattern()] = values
    return out


def _dense_shifted(matrices, t):
    """Q_t and L_t as the dense entrywise expressions of the matrices
    ``(M0, M1, M2)``."""
    m0, m1, m2 = matrices
    tt = m0.dtype.type(t)
    return m2 - (2.0 * tt) * m1 + (tt * tt) * m0, m1 - tt * m0


def _read_dense(path):
    """The dense M0, M1, M2 of a ``.forms`` file, each listed entry and
    its mirror set to the value written, -0.0 included."""
    lines = path.read_text().split("\n%")
    n = int(lines[0])
    out = []
    for section in lines[1:]:
        m = np.zeros((n, n))
        for entry in section.split("\n")[1:]:
            if entry:
                i, j, value = entry.split()
                m[int(i) - 1, int(j) - 1] = m[int(j) - 1, int(i) - 1] = float(value)
        out.append(m)
    return out


@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_pattern_builders_give_the_dense_bits(model):
    # the builders and the pencil hold the dense Q_t and L_t on the
    # pattern: equal values, equal signs of zero, the forms' precision.
    # The double matrix LAPACK reads is the dense one rounded, with +0
    # off the pattern
    if model == "dirac1d":  # assembled in longdouble
        forms = assemble_1d(uniform_mesh(8, jitter=0.3, seed=1), 3).forms
    else:
        mesh = maxwell2d.structured_tri_mesh(4, jitter=0.25, seed=1)
        forms = maxwell2d.assemble_2d(mesh, 1).forms
    rows, cols = forms.pattern()
    assert 0 < rows.size < forms.n**2 and not rows.flags.writeable
    off = np.ones((forms.n, forms.n), dtype=bool)
    off[rows, cols] = False
    for t in (-1.3, -1.0 / 3.0, 0.0, 0.6, 17.0):
        pencil = zm_eigen(forms, t)
        built = (shifted_square(forms, t), shifted_linear(forms, t))
        kept = (pencil.Qt_values, pencil.Lt_values)
        dense_forms = _dense_shifted((forms.M0, forms.M1, forms.M2), t)
        for values, stored, dense in zip(built, kept, dense_forms):
            for got in (values, stored):
                assert got.dtype == dense.dtype and got.shape == rows.shape
                assert np.array_equal(got, dense[rows, cols])
                npt.assert_array_equal(
                    np.signbit(got), np.signbit(dense[rows, cols])
                )
            matrix = forms_mod._on_pattern(forms, values)
            assert matrix.dtype == np.float64
            assert np.array_equal(matrix, dense.astype(float))
            assert not np.signbit(matrix[off]).any()
        # the pencil keeps no eigenvector, and one n by n matrix: the
        # packed reduction its eigenvectors are computed from.  Where Q_t
        # has a kernel (t = 0, Q_0 = M2) the reduction is of the deflated
        # pencil, m by m.  An index of the n coordinates, the first m of
        # them kept, places its vectors.  No other array of the pencil or
        # its reduction is 2-D
        eigen, m = pencil.eigen, forms.n - pencil.signature.n_inf
        assert eigen.packed.shape == (m, m) and eigen.packed.dtype == np.float64
        kept = [eigen.packed]
        assert eigen.pivots.shape == (forms.n,) and (m < forms.n) == (t == 0.0)
        assert np.array_equal(np.sort(eigen.pivots), np.arange(forms.n))
        for owner in (pencil, eigen):
            for f in dataclasses.fields(owner):
                value = getattr(owner, f.name)
                if isinstance(value, np.ndarray) and value.ndim == 2:
                    assert any(value is array for array in kept)


def test_a_negative_zero_entry_gives_the_dense_bounds(tmp_path, monkeypatch):
    """An explicit -0.0 in M1, off the nonzero pattern: the forms store
    no value there, but the dense ``L_t = M1 - t M0`` of the file's
    entries holds -0.0 at t > 0 where the pattern builder gives +0.0.
    The zero's sign reaches neither the pencil solve nor the polish, so
    the bounds are identical."""
    path = tmp_path / "negzero.forms"
    write_forms(assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms, path)
    lines = path.read_text().splitlines()
    n = int(lines[0])
    lines.insert(lines.index("%M1") + 1, f"1 {n} -0.0")
    path.write_text("\n".join(lines) + "\n")
    forms = read_forms(path)
    entries = _read_dense(path)
    assert all(map(np.array_equal, entries, (forms.M0, forms.M1, forms.M2)))
    assert np.signbit(entries[1][0, n - 1]) and entries[1][0, n - 1] == 0.0
    assert not np.signbit(forms.M1[0, n - 1])
    assert np.signbit(_dense_shifted(entries, 2.5)[1][0, n - 1])
    lt = forms_mod._on_pattern(forms, shifted_linear(forms, 2.5))
    assert not np.signbit(lt[0, n - 1])

    def bounds(forms):
        return [(e.lower, e.upper) for e in zm_enclosures(forms, (0.5, 2.5), 2)]

    pattern = bounds(forms)
    # the solve then reads the dense matrices of the file's entries,
    # rounded to double, -0.0 included, as values on every entry; each
    # is built when its values are
    dense = []

    def spy(which):
        real = getattr(enclosure, which)

        def built(f, t):
            matrices = _dense_shifted(entries, t)
            dense.append(matrices[which == "shifted_linear"].astype(float))
            return real(f, t)

        return built

    def split(a, b, n, pattern, threshold):
        qt, lt = dense.pop(0), dense.pop(0)
        every = np.indices((n, n)).reshape(2, -1)
        return real_split(lt.ravel(), qt.ravel(), n, tuple(every), threshold)

    for which in ("shifted_square", "shifted_linear"):
        monkeypatch.setattr(enclosure, which, spy(which))
    real_split = enclosure.kernel_split
    monkeypatch.setattr(enclosure, "kernel_split", split)
    assert len(pattern) == 2 and pattern == bounds(read_forms(path))
    assert dense == []


def test_trial_forms_are_immutable():
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))
    census = enclosure.signature(forms, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        forms.tol = -5.0
    for name in ("M0", "M1", "M2"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(forms, name)[0, 0] = 5.0
    assert forms.tol == linalg_mod.DEFAULT_TOL
    npt.assert_array_equal(forms.M0, np.eye(2))
    assert enclosure.signature(forms, 1.0) == census
    # only the forms' views are read-only, not the arrays they were built from
    m0 = np.eye(2)
    TrialForms(m0, m0, m0)
    m0[1, 1] = 2.0


@pytest.mark.parametrize("name", ["M0", "M1", "M2"])
def test_trial_forms_copy_the_caller_arrays(name):
    # a later write to the array the forms were built from reaches
    # neither the forms nor their cached Ritz values
    given = {"M0": np.eye(2), "M1": np.diag([1.0, 2.0]), "M2": np.diag([1.0, 4.0])}
    forms = TrialForms(**given)
    npt.assert_array_equal(forms.ritz(), [1.0, 2.0])
    kept = given[name].copy()
    given[name][1, 1] = 8.0
    npt.assert_array_equal(getattr(forms, name), kept)
    npt.assert_array_equal(forms.ritz(), [1.0, 2.0])
    forms.validate()


def test_trial_forms_compare_by_identity():
    first = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))
    second = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))
    assert (first == second) is False and first != second
    assert (first == first) is True
    assert len({first, second, first}) == 2


def test_operator_forms_full_basis_is_exact():
    a = np.diag([1.0, 2.0])
    forms = operator_forms(a, np.eye(2))
    npt.assert_array_equal(forms.M0, WORKED.M0)
    npt.assert_array_equal(forms.M1, WORKED.M1)
    npt.assert_array_equal(forms.M2, WORKED.M2)


def test_operator_forms_subspace():
    # one-dimensional trial space along (e1 + e2)/sqrt(2) of diag(1, 3)
    a = np.diag([1.0, 3.0])
    w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    forms = operator_forms(a, w)
    npt.assert_allclose(forms.M0, [[1.0]], atol=1e-15)
    npt.assert_allclose(forms.M1, [[2.0]], atol=1e-15)  # mean of 1 and 3
    npt.assert_allclose(forms.M2, [[5.0]], atol=1e-15)  # mean of 1 and 9


def test_operator_forms_with_gram():
    a = np.diag([1.0, 2.0])
    g = np.diag([2.0, 3.0])
    w = np.eye(2)
    forms = operator_forms(a, w, gram=g)
    npt.assert_array_equal(forms.M0, g)
    npt.assert_array_equal(forms.M1, np.diag([2.0, 6.0]))
    npt.assert_array_equal(forms.M2, np.diag([2.0, 12.0]))


def test_operator_forms_cauchy_schwarz_consistency():
    """M1 quadratic form is bounded by sqrt(M0 q * M2 q) columnwise."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal((6, 6))
    a = 0.5 * (x + x.T)
    w = rng.standard_normal((6, 3))
    forms = operator_forms(a, w)
    for _ in range(50):
        v = rng.standard_normal(3)
        q0 = v @ forms.M0 @ v
        q1 = v @ forms.M1 @ v
        q2 = v @ forms.M2 @ v
        assert q1 * q1 <= q0 * q2 * (1 + 1e-12) + 1e-12


def test_validate_accepts_consistent_forms():
    assert WORKED.validate() is WORKED


def test_validate_rejects_inconsistent_m2():
    # M2 too small: Q_t goes indefinite for shifts near the spectrum
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([0.5, 2.0]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        forms.validate()


def test_validate_samples_the_pencil_range():
    # Ritz values 1 and 2; Q_t is indefinite only for t in (1.5, 2.5),
    # far inside the eigenvalue range (1, 2e4) of M1 alone
    forms = TrialForms(np.diag([1.0, 1e4]), np.diag([1.0, 2e4]), np.diag([1.0, 3.75e4]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        forms.validate()
    with pytest.raises(NegativeEigenvalueError):
        local_counting(forms, 2.0)


def test_validate_is_exact_between_shifts():
    # Q_t is indefinite only for |t - 2.1| < 0.01: a test at sampled
    # shifts passes such forms, the Schur complement diag(0, -1e-4) does not
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.1]), np.diag([1.0, 2.1**2 - 1e-4]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        forms.validate()
    with pytest.raises(NegativeEigenvalueError):
        local_counting(forms, 2.1)


def _record_calls(monkeypatch, name, record):
    """Route every package binding of ``linalg.<name>`` through ``record``."""
    original = getattr(linalg_mod, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    for module in (linalg_mod, forms_mod, enclosure, fixed_point, dirac1d, maxwell2d):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)


def _key(m):
    return np.asarray(m, dtype=float).tobytes()


def test_factor_and_ritz_values_are_computed_once(monkeypatch):
    """Over a fixed-point grid M0 is factored once per forms, at the
    forms' tol, and the Ritz values of (M1, M0) are solved once per forms,
    by the graded route: the model's forms are graded.  The fixed point
    decides every sign by an inertia count, so it never solves the
    counting function or any other whole spectrum."""
    factored, solved, general, counting = [], [], [], []
    _record_calls(
        monkeypatch, "_checked_potrf",
        lambda m, tol: factored.append((_key(m), tol)),
    )
    _record_calls(
        monkeypatch, "graded_eigvals",
        lambda a, *args, **kwargs: solved.append(_key(a)),
    )
    _record_calls(
        monkeypatch, "sym_generalized_eigvals",
        lambda a, *args, **kwargs: general.append(_key(a)),
    )
    real_counting = enclosure.local_counting
    monkeypatch.setattr(
        enclosure, "local_counting",
        lambda forms, t: counting.append(t) or real_counting(forms, t),
    )
    models = [assemble_1d(uniform_mesh(6, 0.3, 0), order).forms for order in (1, 2)]
    tols = (linalg_mod.DEFAULT_TOL, 1e-9)
    for forms in models + [dataclasses.replace(f, tol=1e-9) for f in models]:
        for t in (0.6, 1.4):
            default_fp_tol(forms, t)
            for side in ("left", "right"):
                for j in (1, 2):
                    try:
                        equivalence_gap(forms, t, j, side)
                    except NoSignChangeError:
                        pass
                dp_bounds(forms, t, 2, side)
    m0 = {_key(forms.M0): i for i, forms in enumerate(models)}
    # the graded route reads M1's stored values
    m1 = {_key(forms._values[1]): i for i, forms in enumerate(models)}
    assert Counter((m0.get(k), tol) for k, tol in factored) == Counter(
        (i, tol) for i in range(len(models)) for tol in tols
    )
    assert Counter(m1[k] for k in solved) == Counter(
        i for i in range(len(models)) for tol in tols
    )
    assert general == [] and counting == []


def test_gram_factor_skips_the_repeated_symmetry_check(monkeypatch):
    # construction checks each matrix once; M0's factor is the public
    # cholesky_spd's, bit for bit, in double and extended precision
    checked = []
    _record_calls(monkeypatch, "check_symmetric", lambda a, name="matrix": checked.append(name))
    models = (WORKED, assemble_1d(uniform_mesh(6, 0.3, 0), 2).forms)
    for forms in models:
        checked.clear()
        for tol in (linalg_mod.DEFAULT_TOL, 1e-6):
            built = TrialForms(forms.M0, forms.M1, forms.M2, tol)
            factor = linalg_mod.cholesky_spd(forms.M0, tol)
            assert np.array_equal(built.factor(), factor)
            assert built.factor().dtype == factor.dtype == np.float64
        assert checked == ["M0", "M1", "M2", "cholesky_spd input"] * 2


def test_gate_tolerance_applies_on_every_call():
    # M0 passes the gate at DEFAULT_TOL, not the one at 1e-6: forms at
    # tol 1e-6 are refused when built, also as a copy of accepted forms
    m = (np.diag([1.0, 1e-8]), np.diag([1.0, 2e-8]), np.diag([1.0, 4e-8]))
    forms = TrialForms(*m)
    assert forms.tol == linalg_mod.DEFAULT_TOL
    npt.assert_allclose(forms.ritz(), [1.0, 2.0])
    for build in (
        lambda: TrialForms(*m, tol=1e-6),
        lambda: dataclasses.replace(forms, tol=1e-6),
    ):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            build()
        assert exc.value.index == 1
        assert exc.value.pivot == pytest.approx(1e-8, rel=1e-12)
    # a tol below DEFAULT_TOL loosens no gate on M0
    with pytest.raises(NotPositiveDefiniteError):
        TrialForms(np.diag([1.0, 1e-11]), np.eye(2), np.eye(2), tol=1e-16)
    for bad in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            TrialForms(*m, tol=bad)


@pytest.mark.parametrize("model", ["dirac1d", "maxwell2d"])
def test_model_forms_are_graded_and_so_are_their_files(model, tmp_path):
    if model == "dirac1d":  # forms assembled in longdouble
        forms = assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), 2).forms
    else:
        forms = maxwell2d.assemble_2d(maxwell2d.structured_tri_mesh(4, 0.3, 0), 2).forms
    grading = forms.grading()
    assert forms.grading() is grading and not grading.flags.writeable
    flip = np.outer(grading, grading)
    npt.assert_array_equal(flip * forms.M0, forms.M0)
    npt.assert_array_equal(-flip * forms.M1, forms.M1)
    npt.assert_array_equal(flip * forms.M2, forms.M2)
    # so Q_-t = J Q_t J and L_-t = -J L_t J, bit for bit
    rows, cols = forms.pattern()
    flip = grading[rows] * grading[cols]
    for t in (0.6, 1.4):
        npt.assert_array_equal(shifted_square(forms, -t), flip * shifted_square(forms, t))
        npt.assert_array_equal(shifted_linear(forms, -t), -flip * shifted_linear(forms, t))
    path = tmp_path / "model.forms"
    write_forms(forms, path)
    npt.assert_array_equal(read_forms(path).grading(), grading)


def test_grading_checks_every_entry():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal(TrialForms(np.eye(2), swap, np.eye(2)).grading(), [1.0, -1.0])
    # M1's diagonal, an entry nonzero in M0 and M1, and an odd cycle of
    # M1's entries each leave no sign vector
    assert WORKED.grading() is None
    assert TrialForms(np.eye(2) + 0.5 * swap, swap, np.eye(2)).grading() is None
    triangle = np.ones((3, 3)) - np.eye(3)
    assert TrialForms(np.eye(3), triangle, 4.0 * np.eye(3)).grading() is None


def _lapack_calls(monkeypatch, names):
    """Log each call to the LAPACK routines ``names`` as the routine's
    name and the shape of its first argument."""
    calls = []
    for name in names:
        real = getattr(linalg_mod.lapack, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(linalg_mod.lapack, name, spy)
    return calls


#: every LAPACK routine a Ritz solve may call, by either route
RITZ_ROUTINES = ("dsygst", "dsyevd", "dsyevx", "dsytrd", "dpotrf", "dgesdd")


def _graded_model(model):
    name, order = model.rsplit("-", 1)
    if name == "dirac1d":  # forms assembled in longdouble
        return assemble_1d(uniform_mesh(6, jitter=0.3, seed=1), int(order)).forms
    return maxwell2d.assemble_2d(maxwell2d.structured_tri_mesh(4, 0.25, 0), int(order)).forms


@pytest.mark.parametrize(
    "model", ["dirac1d-1", "dirac1d-2", "dirac1d-3", "maxwell2d-1", "maxwell2d-2"]
)
def test_graded_ritz_values_come_from_one_half_size_svd(model, monkeypatch):
    # two half-size factors and one SVD, no n-size sygst or syevd; the
    # values are those of the general solve, exactly symmetric, with at
    # least |n_+ - n_-| exact zeros
    forms = _graded_model(model)
    signs = forms.grading()
    n_plus = int(np.count_nonzero(signs > 0))
    n_minus = forms.n - n_plus
    calls = _lapack_calls(monkeypatch, RITZ_ROUTINES)
    theta = forms.ritz()
    assert sorted(calls) == sorted(
        [("dpotrf", (n_plus, n_plus)), ("dpotrf", (n_minus, n_minus)),
         ("dgesdd", (n_plus, n_minus))]
    )
    general = linalg_mod.sym_generalized_eigvals(np.array(forms.M1, float), forms.factor())
    scale = np.max(np.abs(general))
    assert np.max(np.abs(theta - general)) <= 1e-13 * scale
    assert np.array_equal(theta, -theta[::-1])
    assert np.count_nonzero(theta == 0.0) >= abs(n_plus - n_minus)
    assert np.all(np.diff(theta) >= 0.0) and not theta.flags.writeable


def test_forms_with_no_m1_have_zero_ritz_values(monkeypatch):
    # M1 = 0 grades every coordinate +1: n zeros, no LAPACK routine
    m0 = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    forms = TrialForms(m0, np.zeros((3, 3)), np.eye(3))
    calls = _lapack_calls(monkeypatch, RITZ_ROUTINES)
    npt.assert_array_equal(forms.grading(), np.ones(3))
    npt.assert_array_equal(forms.ritz(), np.zeros(3))
    assert calls == []


def test_ungraded_forms_keep_the_general_solve(tmp_path, monkeypatch):
    # README's 2x2 .forms example and a 3x3 file, each with a diagonal in
    # M1: their Ritz values are the general solve's, bit for bit
    files = {
        "two.forms": "2\n%M0\n1 1 1.0\n2 2 1.0\n%M1\n1 1 1.0\n2 2 2.0\n"
                     "%M2\n1 1 1.0\n2 2 4.0\n",
        "three.forms": "3\n%M0\n1 1 1.0\n2 2 2.0\n2 3 1.0\n3 3 2.0\n%M1\n"
                       "1 1 1.0\n2 2 7.0\n2 3 5.0\n3 3 12.0\n%M2\n1 1 1.0\n"
                       "2 2 29.0\n2 3 25.0\n3 3 74.0\n",
    }
    graded = []
    _record_calls(monkeypatch, "graded_eigvals", lambda *args: graded.append(args))
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        forms = read_forms(path)
        assert forms.grading() is None
        expected = linalg_mod.sym_generalized_eigvals(forms.M1.copy(), forms.factor())
        assert np.array_equal(forms.ritz(), expected)
    npt.assert_allclose(read_forms(tmp_path / "two.forms").ritz(), [1.0, 2.0], rtol=0.0)
    assert graded == []


def test_a_passing_gate_bisects_nothing(monkeypatch):
    # one Sturm count decides the gate: no eigenvalue of the Schur
    # complement is bisected where it passes
    bisected = []
    real = linalg_mod.TridiagonalEigen.end_values

    def end_values(self, *args, **kwargs):
        bisected.append(self.size)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(linalg_mod.TridiagonalEigen, "end_values", end_values)
    for forms in (
        TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 4.0])),
        _graded_model("dirac1d-2"),
        _graded_model("maxwell2d-2"),
    ):
        assert forms.validate() is forms
        assert forms._kept["schur"] == (0, None)
    assert bisected == []


def test_a_failing_gate_names_the_least_eigenvalue():
    # S = diag(0.5 - 1, 2 - 4): two eigenvalues below the gate, and the
    # least, -2, bisected for the message; the raise repeats from the
    # kept count
    forms = TrialForms(np.eye(2), np.diag([1.0, 2.0]), np.diag([0.5, 2.0]))
    for _ in range(2):
        with pytest.raises(InconsistentFormsError, match=r"negative eigenvalue -2\.000e\+00"):
            forms.validate()
    count, least = forms._kept["schur"]
    assert count == 2 and least == pytest.approx(-2.0, rel=1e-14)


def test_forms_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 3))
    a = np.diag([0.3, 1.1, 1.9, 2.7, 3.4])
    forms = operator_forms(a, w)
    path = tmp_path / "case.forms"
    write_forms(forms, path)
    back = read_forms(path)
    npt.assert_array_equal(back.M0, forms.M0)
    npt.assert_array_equal(back.M1, forms.M1)
    npt.assert_array_equal(back.M2, forms.M2)


def test_forms_roundtrip_rounds_longdouble(tmp_path):
    eps = np.longdouble(2) ** -70
    forms = TrialForms(
        np.eye(2, dtype=np.longdouble) * (1 + eps),
        np.diag(np.array([1, 2], dtype=np.longdouble)),
        np.diag(np.array([1, 4], dtype=np.longdouble)),
    )
    path = tmp_path / "ld.forms"
    write_forms(forms, path)
    back = read_forms(path)
    assert back.M0.dtype == np.float64
    # 1 + 2^-70 is not representable in double, so it lands on 1.0
    npt.assert_array_equal(back.M0, np.eye(2))


def test_read_forms_zero_entries_omitted(tmp_path):
    path = tmp_path / "sparse.forms"
    path.write_text("2\n%M0\n1 1 1.0\n2 2 1.0\n%M1\n1 2 0.5\n%M2\n1 1 1.0\n2 2 1.0\n")
    forms = read_forms(path)
    npt.assert_array_equal(forms.M1, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_read_forms_stores_the_dense_entries(tmp_path):
    # entries in either triangle, a pair listed twice (the later wins),
    # an explicit 0.0 and -0.0 on the pattern and a -0.0 off it: the forms
    # read hold the bits of the dense matrices of the file's entries on
    # the pattern of their nonzero entries
    path = tmp_path / "entries.forms"
    path.write_text(
        "3\n%M0\n1 1 2.0\n2 2 2.0\n3 3 2.0\n2 1 0.5\n1 2 0.25\n"
        "%M1\n1 1 -0.0\n3 2 1.5\n1 3 -0.0\n2 2 0.0\n%M2\n3 3 4.0\n1 1 0.0\n"
    )
    forms, dense = read_forms(path), _read_dense(path)
    reference = TrialForms(*dense)
    npt.assert_array_equal(forms.pattern(), reference.pattern())
    npt.assert_array_equal(forms.pattern(), ([0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2]))
    rows, cols = forms.pattern()
    for got, want in zip((forms.M0, forms.M1, forms.M2), dense):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        npt.assert_array_equal(np.signbit(got[rows, cols]), np.signbit(want[rows, cols]))
    assert np.signbit(forms.M1[0, 0]) and not np.signbit(forms.M1[0, 2])
    assert forms.M0[0, 1] == forms.M0[1, 0] == 0.25
    npt.assert_array_equal(forms.factor(), reference.factor())


@pytest.mark.parametrize(
    "content, lineno, fragment",
    [
        ("", 1, "empty"),
        ("two\n", 1, "dimension"),
        ("0\n", 1, "positive"),
        ("1\n%M9\n", 2, "unknown section"),
        ("1\n1 1 1.0\n", 2, "before any"),
        ("1\n%M0\n1 1\n", 3, "i j value"),
        ("1\n%M0\n1 2 1.0\n", 3, "out of range"),
        ("1\n%M0\n1 1 x\n", 3, "malformed"),
        ("1\n%M0\n1 1 1.0\n%M0\n", 4, "duplicate"),
        ("1\n%M0\n1 1 nan\n", 3, "non-finite"),
        ("1\n%M0\n1 1 -inf\n", 3, "non-finite"),
        ("1\n%M0\n1 1 1.0\n%M1\n1 1 1.0 \u00e9\n", 5, "non-ASCII byte"),
        ("10000000000\n%M0\n1 1 1.0\n%M1\n%M2\n", 1, "exceeds the 1 entries"),
    ],
)
def test_read_forms_reports_line_numbers(tmp_path, content, lineno, fragment):
    path = tmp_path / "bad.forms"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormsFormatError, match=fragment) as exc:
        read_forms(path)
    assert exc.value.lineno == lineno


def test_read_forms_missing_section(tmp_path):
    path = tmp_path / "missing.forms"
    path.write_text("1\n%M0\n1 1 1.0\n%M1\n1 1 1.0\n")
    with pytest.raises(FormsFormatError, match="missing section"):
        read_forms(path)
