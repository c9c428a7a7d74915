"""Tests for the 1D block-operator model and its exact-integral assembly."""

import numpy as np
import numpy.testing as npt
import pytest

from eigenclose.dirac1d import (
    LENGTH,
    SUPPORTED_ORDERS,
    Mesh1D,
    _reference_integrals,
    assemble_1d,
    exact_spectrum_1d,
    uniform_mesh,
)
from eigenclose.enclosure import Signature, local_counting, signature, zm_enclosures
from eigenclose.errors import UnsupportedOrderError
from eigenclose.forms import TrialForms
from eigenclose.linalg import schur_reduce, symmetrize


def test_uniform_mesh_basic():
    mesh = uniform_mesh(6)
    assert mesh.n_elems == 6
    npt.assert_allclose(mesh.h, np.pi / 6, rtol=1e-15)
    assert mesh.nodes[0] == 0.0
    npt.assert_allclose(mesh.nodes[-1], np.pi, rtol=1e-16)


def test_uniform_mesh_jitter_reproducible():
    m1 = uniform_mesh(10, jitter=0.3, seed=42)
    m2 = uniform_mesh(10, jitter=0.3, seed=42)
    npt.assert_array_equal(m1.nodes, m2.nodes)
    # different seed, different mesh
    m3 = uniform_mesh(10, jitter=0.3, seed=43)
    assert not np.array_equal(m1.nodes, m3.nodes)


def test_uniform_mesh_jitter_bounds():
    h = np.pi / 10
    mesh = uniform_mesh(10, jitter=0.3, seed=7)
    ref = np.linspace(0.0, np.pi, 11)
    assert np.max(np.abs(mesh.nodes - ref)) <= 0.5 * 0.3 * h
    assert np.all(np.diff(mesh.nodes) > 0)
    # boundary nodes never move
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == ref[-1]


def test_uniform_mesh_validation():
    with pytest.raises(ValueError, match="at least 2"):
        uniform_mesh(1)
    with pytest.raises(ValueError, match="jitter"):
        uniform_mesh(5, jitter=1.0)


def test_mesh1d_validation():
    with pytest.raises(ValueError, match="at least two"):
        Mesh1D([0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        Mesh1D([0.0, 2.0, 1.0, 3.0])


def test_assemble_rejects_unsupported_order():
    with pytest.raises(UnsupportedOrderError, match="order 4"):
        assemble_1d(uniform_mesh(4), 4)


def test_assembly_dimensions_and_dtype():
    model = assemble_1d(uniform_mesh(6), 1)
    # 7 nodes: 5 interior u dofs + 7 v dofs
    assert model.n_u == 5 and model.n_v == 7
    assert model.forms.n == 12
    # exact-integral assembly accumulates in extended precision
    assert model.forms.M0.dtype == np.longdouble
    assert model.x.size == 7


def _element_loop_1d(mesh, r):
    """The forms and node positions of ``assemble_1d``, summed one
    element at a time: the reference for the batched assembly."""
    mass_ref, stiff_ref, deriv_ref = _reference_integrals(r)
    n_nodes = r * mesh.n_elems + 1
    x = np.empty(n_nodes)
    mass = np.zeros((n_nodes, n_nodes), dtype=np.longdouble)
    stiff = np.zeros((n_nodes, n_nodes), dtype=np.longdouble)
    deriv = np.zeros((n_nodes, n_nodes), dtype=np.longdouble)
    for e in range(mesh.n_elems):
        left, right = mesh.nodes[e], mesh.nodes[e + 1]
        h = np.longdouble(right) - np.longdouble(left)
        dofs = np.arange(r * e, r * e + r + 1)
        x[dofs] = left + (right - left) * np.linspace(0.0, 1.0, r + 1)
        mass[np.ix_(dofs, dofs)] += h * mass_ref
        stiff[np.ix_(dofs, dofs)] += stiff_ref / h
        deriv[np.ix_(dofs, dofs)] += deriv_ref
    u = np.arange(1, n_nodes - 1)
    nu = u.size
    m0 = np.zeros((nu + n_nodes,) * 2, dtype=np.longdouble)
    m1 = np.zeros_like(m0)
    m2 = np.zeros_like(m0)
    m0[:nu, :nu] = mass[np.ix_(u, u)]
    m0[nu:, nu:] = mass
    m1[:nu, nu:] = -deriv[u]
    m1[nu:, :nu] = -deriv[u].T
    m2[:nu, :nu] = stiff[np.ix_(u, u)]
    m2[nu:, nu:] = stiff
    return symmetrize(m0), m1, symmetrize(m2), x


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "n_elems, jitter, seed", [(2, 0.0, None), (7, 0.3, 1), (16, 0.9, 2)]
)
def test_batched_assembly_matches_element_loop(order, n_elems, jitter, seed):
    mesh = uniform_mesh(n_elems, jitter=jitter, seed=seed)
    model = assemble_1d(mesh, order)
    *expected, x = _element_loop_1d(mesh, order)
    for got, want in zip((model.forms.M0, model.forms.M1, model.forms.M2), expected):
        assert got.dtype == want.dtype == np.longdouble
        assert np.array_equal(got, want)
    assert np.array_equal(model.x, x)


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


def _schur_tridiagonal(forms):
    """The diagonal and subdiagonal of the tridiagonal reduction of the
    Schur complement that the consistency gate counts on."""
    m1, m2 = (np.array(m, dtype=float) for m in (forms.M1, forms.M2))
    schur = schur_reduce(forms.factor(), m1.T, m2)
    return schur.d, schur.e


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "n_elems, jitter, seed", [(2, 0.0, None), (7, 0.3, 1), (16, 0.9, 2)]
)
def test_assembled_forms_compute_what_element_loop_forms_do(
    order, n_elems, jitter, seed
):
    # off the pattern the assembly's M1 holds +0 where the element loop's
    # holds -0; nothing computed from the forms sees the difference
    mesh = uniform_mesh(n_elems, jitter=jitter, seed=seed)
    forms = assemble_1d(mesh, order).forms
    m0, m1, m2, _ = _element_loop_1d(mesh, order)
    loop = TrialForms(m0, m1, m2)
    assert all(map(_bits_equal, forms.pattern(), loop.pattern()))
    assert _bits_equal(forms.factor(), loop.factor())
    assert _bits_equal(forms.ritz(), loop.ritz())
    forms.validate()
    loop.validate()
    assert forms._kept["schur"] == loop._kept["schur"]
    assert all(map(_bits_equal, _schur_tridiagonal(forms), _schur_tridiagonal(loop)))


def _exact(rows, scale=1):
    return np.array(rows, dtype=np.longdouble) / np.longdouble(scale)


def test_reference_integrals_are_exact():
    eps = np.finfo(np.longdouble).eps
    mass, _, _ = _reference_integrals(2)
    assert np.array_equal(mass, _exact([[4, 2, -1], [2, 16, 2], [-1, 2, 4]], 30))
    newton_cotes = {1: [1, 1], 2: [1, 4, 1], 3: [1, 3, 3, 1]}
    for r, weights in newton_cotes.items():
        mass, stiff, deriv = _reference_integrals(r)
        assert mass.dtype == stiff.dtype == deriv.dtype == np.longdouble
        assert np.array_equal(mass, mass.T) and np.array_equal(stiff, stiff.T)
        # the basis sums to one: mass rows integrate each l_a, stiffness
        # rows differentiate the constant
        weights = _exact(weights, sum(weights))
        npt.assert_allclose(mass.sum(axis=1), weights, rtol=8 * eps, atol=0)
        npt.assert_allclose(stiff.sum(axis=1), 0, atol=8 * eps * np.max(stiff))
        # integration by parts: int l_a' l_b + l_a l_b' = [l_a l_b]_0^1
        ends = np.zeros((r + 1, r + 1), dtype=np.longdouble)
        ends[0, 0], ends[r, r] = -1, 1
        assert np.array_equal(deriv + deriv.T, ends)


def test_reference_integrals_are_cached_read_only():
    # each order is computed once; the kept arrays cannot be written and
    # hold the same bits as a fresh computation
    for r in SUPPORTED_ORDERS:
        kept = _reference_integrals(r)
        assert _reference_integrals(r) is kept
        for got, want in zip(kept, _reference_integrals.__wrapped__(r)):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
    # forms assembled from a fresh computation and from the cache agree
    # bit for bit
    mesh = uniform_mesh(7, jitter=0.3, seed=1)
    _reference_integrals.cache_clear()
    first = assemble_1d(mesh, 3).forms
    second = assemble_1d(mesh, 3).forms
    for name in ("M0", "M1", "M2"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype == np.longdouble and np.array_equal(a, b)


def test_p2_assembly_has_midside_nodes():
    model = assemble_1d(uniform_mesh(3), 2)
    assert model.n_v == 7  # 2*3 + 1 nodes
    npt.assert_allclose(model.x[1], np.pi / 6, rtol=1e-15)  # first midpoint


def test_hat_mass_matrix_exact():
    # classical P1 mass matrix entries: h/3 corners, 2h/3 interior, h/6 off
    model = assemble_1d(uniform_mesh(2), 1)
    h = np.pi / 2
    m0 = np.asarray(model.forms.M0, dtype=float)
    v = slice(model.n_u, model.n_u + model.n_v)  # v block after u block
    expected = h * np.array(
        [
            [1 / 3, 1 / 6, 0.0],
            [1 / 6, 2 / 3, 1 / 6],
            [0.0, 1 / 6, 1 / 3],
        ]
    )
    npt.assert_allclose(m0[v, v], expected, rtol=1e-15)


def test_v_mass_partition_of_unity():
    # nodal P-r functions sum to one, so 1' M0_vv 1 integrates 1 over (0, pi)
    for order in (1, 2, 3):
        model = assemble_1d(uniform_mesh(5, jitter=0.2, seed=3), order)
        v = slice(model.n_u, model.n_u + model.n_v)
        ones = np.ones(model.n_v)
        total = float(ones @ np.asarray(model.forms.M0, dtype=float)[v, v] @ ones)
        npt.assert_allclose(total, np.pi, rtol=1e-14)


def test_m1_off_diagonal_block_structure():
    model = assemble_1d(uniform_mesh(2), 1)
    m1 = np.asarray(model.forms.M1, dtype=float)
    nu = model.n_u
    # the operator couples u with v only
    npt.assert_array_equal(m1[:nu, :nu], np.zeros((nu, nu)))
    npt.assert_array_equal(m1[nu:, nu:], np.zeros((model.n_v, model.n_v)))
    # cross block: -int phi_u' phi_v; for hats the entries are +-1/2
    npt.assert_allclose(m1[0, nu:], [-0.5, 0.0, 0.5], atol=1e-18)


def test_exact_spectrum_1d():
    npt.assert_array_equal(
        exact_spectrum_1d(3), [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    )
    with pytest.raises(ValueError):
        exact_spectrum_1d(0)


def test_counting_vanishes_at_zero():
    # (0, 1) is in every trial space: the kernel eigenvalue is represented
    # exactly, so F_1(0) is exactly zero, not merely small
    model = assemble_1d(uniform_mesh(6), 1)
    f = local_counting(model.forms, 0.0)
    assert f[0] == 0.0


def test_signature_census_at_zero():
    model = assemble_1d(uniform_mesh(6), 1)
    assert signature(model.forms, 0.0) == Signature(1, 1, 5, 5)


def test_forms_validate():
    model = assemble_1d(uniform_mesh(4), 2)
    model.forms.validate()


def test_enclosures_contain_true_eigenvalues():
    model = assemble_1d(uniform_mesh(10), 2)
    enc = zm_enclosures(model.forms, (0.5, 2.5), j_max=2)
    assert len(enc) == 2
    for e, true in zip(enc, (1.0, 2.0)):
        assert e.lower <= true <= e.upper
        assert e.width < 1e-2
        assert not e.inconsistent


def test_enclosures_contain_on_jittered_mesh():
    model = assemble_1d(uniform_mesh(12, jitter=0.4, seed=11), 1)
    enc = zm_enclosures(model.forms, (0.5, 2.5), j_max=2)
    for e, true in zip(enc, (1.0, 2.0)):
        assert e.lower <= true <= e.upper


def test_negative_side_is_symmetric():
    # the spectrum is symmetric; bounds on the negative side mirror it
    model = assemble_1d(uniform_mesh(10), 1)
    enc = zm_enclosures(model.forms, (-1.5, -0.5), j_max=1)
    assert len(enc) == 1
    assert enc[0].lower <= -1.0 <= enc[0].upper


def test_refinement_shrinks_widths():
    widths = []
    for n in (10, 20):
        model = assemble_1d(uniform_mesh(n), 1)
        enc = zm_enclosures(model.forms, (0.5, 1.5), j_max=1)
        widths.append(enc[0].width)
    assert widths[1] < 0.4 * widths[0]  # roughly h^2 for P1
