"""Tests for the 2D cavity model: meshing, assembly, pollution contrast."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from eigenclose.enclosure import zm_enclosures
from eigenclose.errors import UnsupportedOrderError
from eigenclose.linalg import symmetrize
from eigenclose.maxwell2d import (
    SIDE,
    _reference_p1,
    _reference_p2,
    _scalar_nodes,
    _triangle_quadrature,
    assemble_2d,
    exact_spectrum_2d,
    galerkin_spectrum,
    structured_tri_mesh,
    write_mesh,
)


def test_structured_mesh_counts():
    mesh = structured_tri_mesh(2)
    assert mesh.vertices.shape == (9, 2)
    assert mesh.triangles.shape == (8, 3)
    assert len(mesh.boundary_edges) == 8
    npt.assert_allclose(mesh.h, SIDE / 2)


def test_structured_mesh_positive_areas():
    mesh = structured_tri_mesh(4)
    areas = mesh.signed_areas()
    assert np.all(areas > 0)
    # all triangles together tile the square
    npt.assert_allclose(np.sum(areas), SIDE**2, rtol=1e-13)


def test_jittered_mesh_reproducible_and_valid():
    m1 = structured_tri_mesh(5, jitter=0.25, seed=7)
    m2 = structured_tri_mesh(5, jitter=0.25, seed=7)
    npt.assert_array_equal(m1.vertices, m2.vertices)
    assert np.all(m1.signed_areas() > 0)
    npt.assert_allclose(np.sum(m1.signed_areas()), SIDE**2, rtol=1e-13)


def test_jitter_keeps_boundary_vertices():
    plain = structured_tri_mesh(4)
    jittered = structured_tri_mesh(4, jitter=0.3, seed=1)
    on_boundary = (
        (plain.vertices[:, 0] == 0.0)
        | (plain.vertices[:, 1] == 0.0)
        | (np.isclose(plain.vertices[:, 0], SIDE))
        | (np.isclose(plain.vertices[:, 1], SIDE))
    )
    npt.assert_array_equal(jittered.vertices[on_boundary], plain.vertices[on_boundary])
    moved = jittered.vertices[~on_boundary] - plain.vertices[~on_boundary]
    assert np.max(np.hypot(moved[:, 0], moved[:, 1])) <= 0.3 * plain.h + 1e-12


def test_mesh_validation():
    with pytest.raises(ValueError, match="nx"):
        structured_tri_mesh(1)
    with pytest.raises(ValueError, match="jitter"):
        structured_tri_mesh(3, jitter=0.6)


def test_quadrature_exactness():
    # reference-triangle monomial integrals: int x^a y^b = a! b! / (a+b+2)!
    def exact(a, b):
        return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)

    for degree, rule_degree in ((2, 2), (4, 4)):
        pts, wts = _triangle_quadrature(degree)
        npt.assert_allclose(np.sum(wts), 0.5, rtol=1e-14)
        for a in range(rule_degree + 1):
            for b in range(rule_degree + 1 - a):
                approx = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
                npt.assert_allclose(approx, exact(a, b), rtol=1e-12, atol=1e-15)


def test_reference_elements_nodal_and_partition():
    # P1 nodes are the vertices; P2 adds the midpoints of the edges
    # (0,1), (1,2), (2,0), in that order
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p2_nodes = np.vstack([vertices, 0.5 * (vertices + vertices[[1, 2, 0]])])
    refs = ((vertices, _reference_p1()), (p2_nodes, _reference_p2()))
    for nodes, (values, grads) in refs:
        v = values(nodes)
        npt.assert_allclose(v, np.eye(nodes.shape[0]), atol=1e-13)
        pts = np.random.default_rng(0).uniform(0.05, 0.3, size=(20, 2))
        npt.assert_allclose(values(pts).sum(axis=1), 1.0, rtol=1e-13)
        # gradients of a partition of unity sum to zero
        npt.assert_allclose(grads(pts).sum(axis=1), 0.0, atol=1e-12)


def test_block_sizes_nx2_p1():
    model = assemble_2d(structured_tri_mesh(2), 1)
    # E1 drops the y-boundary rows, E2 the x-boundary columns, H keeps all
    assert model.block_sizes == (3, 3, 9)
    assert model.forms.n == 15


def _element_loop_2d(mesh, order, e1_nodes, e2_nodes):
    """The forms of ``assemble_2d``, summed one triangle at a time: the
    reference for the batched assembly."""
    ref_values, ref_grads = _reference_p1() if order == 1 else _reference_p2()
    pts, wts = _triangle_quadrature(2 * order)
    n_vals = ref_values(pts)
    g_ref = ref_grads(pts)
    coords, connectivity, _ = _scalar_nodes(mesh, order)
    n_nodes = coords.shape[0]
    mass, kxx, kyy, kxy, dx_n, dy_n = (np.zeros((n_nodes, n_nodes)) for _ in range(6))
    tri_pts = mesh.vertices[mesh.triangles]
    for e, dofs in enumerate(connectivity):
        p0, p1, p2 = tri_pts[e]
        jac = np.column_stack([p1 - p0, p2 - p0])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
        adet = abs(det)
        g = g_ref @ inv
        gx, gy = g[:, :, 0], g[:, :, 1]
        idx = np.ix_(dofs, dofs)
        mass[idx] += adet * np.einsum("q,qa,qb->ab", wts, n_vals, n_vals)
        kxx[idx] += adet * np.einsum("q,qa,qb->ab", wts, gx, gx)
        kyy[idx] += adet * np.einsum("q,qa,qb->ab", wts, gy, gy)
        kxy[idx] += adet * np.einsum("q,qa,qb->ab", wts, gx, gy)
        dx_n[idx] += adet * np.einsum("q,qa,qb->ab", wts, gx, n_vals)
        dy_n[idx] += adet * np.einsum("q,qa,qb->ab", wts, gy, n_vals)

    n1, n2 = e1_nodes.size, e2_nodes.size
    m0 = np.zeros((n1 + n2 + n_nodes,) * 2)
    m1 = np.zeros_like(m0)
    m2 = np.zeros_like(m0)
    s1, s2, sh = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, None)
    m0[s1, s1] = mass[np.ix_(e1_nodes, e1_nodes)]
    m0[s2, s2] = mass[np.ix_(e2_nodes, e2_nodes)]
    m0[sh, sh] = mass
    m1[s1, sh] = -dy_n[e1_nodes]
    m1[sh, s1] = -dy_n[e1_nodes].T
    m1[s2, sh] = dx_n[e2_nodes]
    m1[sh, s2] = dx_n[e2_nodes].T
    m2[s1, s1] = kyy[np.ix_(e1_nodes, e1_nodes)]
    m2[s2, s2] = kxx[np.ix_(e2_nodes, e2_nodes)]
    m2[s1, s2] = -kxy.T[np.ix_(e1_nodes, e2_nodes)]
    m2[s2, s1] = -kxy.T[np.ix_(e1_nodes, e2_nodes)].T
    m2[sh, sh] = kxx + kyy
    return symmetrize(m0), m1, symmetrize(m2)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("nx, jitter, seed", [(2, 0.0, None), (5, 0.25, 1), (7, 0.5, 2)])
def test_batched_assembly_matches_element_loop(order, nx, jitter, seed):
    mesh = structured_tri_mesh(nx, jitter=jitter, seed=seed)
    model = assemble_2d(mesh, order)
    expected = _element_loop_2d(mesh, order, model.e1_nodes, model.e2_nodes)
    for got, want in zip((model.forms.M0, model.forms.M1, model.forms.M2), expected):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def test_assemble_rejects_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        assemble_2d(structured_tri_mesh(2), 3)


def test_constant_h_field_is_exact_kernel_vector():
    # (E, H) = (0, 1) solves the problem with eigenvalue 0 and is
    # exactly representable, so both forms annihilate it
    model = assemble_2d(structured_tri_mesh(3), 1)
    n1, n2, nh = model.block_sizes
    e = np.zeros(model.forms.n)
    e[n1 + n2 :] = 1.0
    assert np.max(np.abs(model.forms.M1 @ e)) < 1e-13
    assert np.max(np.abs(model.forms.M2 @ e)) < 1e-13


def test_forms_validate_p2():
    model = assemble_2d(structured_tri_mesh(2), 2)
    model.forms.validate()


def test_exact_spectrum_multiplicities():
    spec = exact_spectrum_2d(2.0)
    pos = spec[spec > 0]
    # 1 twice ((1,0) and (0,1)), sqrt(2) once, 2 twice
    npt.assert_allclose(pos, [1.0, 1.0, np.sqrt(2.0), 2.0, 2.0], rtol=1e-15)
    # symmetric spectrum plus one kernel representative
    npt.assert_allclose(spec, -spec[::-1])
    assert np.count_nonzero(spec == 0.0) == 1
    with pytest.raises(ValueError):
        exact_spectrum_2d(0.0)


@pytest.mark.parametrize("max_val", [0.5, 1.0, 2.0**0.5, 2.0, 4.3, 7.07, 33.3])
def test_exact_spectrum_is_the_pair_loop(max_val):
    # the pair-by-pair listing the array build replaced, bit for bit
    values = [0.0]
    for l in range(int(np.floor(max_val)) + 1):
        for m in range(int(np.floor(max_val)) + 1):
            omega = np.hypot(l, m)
            if (l or m) and omega <= max_val:
                values.extend([omega, -omega])
    npt.assert_array_equal(exact_spectrum_2d(max_val), np.sort(values))


def test_enclosures_contain_true_eigenvalues():
    model = assemble_2d(structured_tri_mesh(6), 2)
    enc = zm_enclosures(model.forms, (0.7, 1.6), j_max=3)
    true = [1.0, 1.0, np.sqrt(2.0)]
    assert len(enc) == 3
    for e, value in zip(enc, true):
        assert e.lower <= value <= e.upper
        assert not e.inconsistent


def test_galerkin_pollutes_where_certified_bounds_refuse():
    # the recorded configuration: a jittered P1 mesh pollutes inside the
    # spectral gap (0.2, 0.8) while the certified route stays silent
    model = assemble_2d(structured_tri_mesh(8, jitter=0.25, seed=7), 1)
    theta = galerkin_spectrum(model)
    gap = theta[(theta > 0.2) & (theta < 0.8)]
    assert gap.size >= 1  # pollution present
    enc = zm_enclosures(model.forms, (0.2, 0.8), j_max=5)
    assert enc == []  # nothing certified in the gap


def test_galerkin_spectrum_is_symmetric():
    model = assemble_2d(structured_tri_mesh(4), 1)
    theta = galerkin_spectrum(model)
    npt.assert_allclose(theta, -theta[::-1], atol=1e-9)


def test_write_mesh_format(tmp_path):
    mesh = structured_tri_mesh(2, jitter=0.2, seed=5)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertices 9"
    assert lines[10] == "triangles 8"
    assert lines[19] == "boundary_edges 8"
    # vertex rows round-trip exactly through repr
    x, y = lines[1].split()
    assert float(x) == mesh.vertices[0, 0] and float(y) == mesh.vertices[0, 1]
    # triangle rows are integer triples
    assert [int(s) for s in lines[11].split()] == list(mesh.triangles[0])
