"""Forms stored on their nonzero pattern, against the dense assembly
they replace: the same bits, the same ``.forms`` files, less memory."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from eigenclose.dirac1d import _reference_integrals, assemble_1d, uniform_mesh
from eigenclose.forms import TrialForms, shifted_linear, shifted_product, write_forms
from eigenclose.linalg import symmetrize
from eigenclose.maxwell2d import (
    _reference_p1,
    _reference_p2,
    _scalar_nodes,
    _triangle_quadrature,
    assemble_2d,
    structured_tri_mesh,
)

SHIFTS = (-1.3, -1.0 / 3.0, 0.0, 0.6, 1.4, 17.0)


def _dense_scatter(n, *blocks):
    """Element matrices summed into an n by n zero matrix, one
    ``np.add.at`` per block in element order: the dense reference."""
    out = np.zeros(n * n, dtype=np.result_type(*(block[0] for block in blocks)))
    for values, rows, cols in blocks:
        np.add.at(out, rows[:, :, None] * n + cols[:, None, :], values)
    return out.reshape(n, n)


def _dense_1d(mesh, r):
    """The dense M0, M1, M2 the 1D assembly summed before its forms were
    stored on their pattern."""
    mass_ref, stiff_ref, deriv_ref = _reference_integrals(r)
    nodes = r * np.arange(mesh.n_elems)[:, None] + np.arange(r + 1)
    n_nodes = r * mesh.n_elems + 1
    n_u = n_nodes - 2
    n = n_u + n_nodes
    u = np.where((nodes > 0) & (nodes < n_nodes - 1), nodes - 1, n)
    v = n_u + nodes
    h = np.diff(mesh.nodes.astype(np.longdouble))[:, None, None]
    mass, stiff, cross = h * mass_ref, stiff_ref / h, -deriv_ref
    m0 = _dense_scatter(n + 1, (mass, u, u), (mass, v, v))[:n, :n]
    m1 = _dense_scatter(n + 1, (cross, u, v), (cross.T, v, u))[:n, :n]
    m2 = _dense_scatter(n + 1, (stiff, u, u), (stiff, v, v))[:n, :n]
    return m0, m1, m2


def _dense_2d(mesh, order):
    """The dense M0, M1, M2 the 2D assembly built block by block before
    its forms were stored on their pattern."""
    ref_values, ref_grads = _reference_p1() if order == 1 else _reference_p2()
    pts, wts = _triangle_quadrature(2 * order)
    n_vals, g_ref = ref_values(pts), ref_grads(pts)
    coords, connectivity, node_sides = _scalar_nodes(mesh, order)
    n_nodes = coords.shape[0]
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.stack(
        [jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], axis=-1
    ).reshape(-1, 2, 2) / det[:, None, None]
    adet = np.abs(det)[:, None, None]
    g = g_ref @ inv[:, None]
    gx, gy = g[..., 0], g[..., 1]
    vals = np.broadcast_to(n_vals, gx.shape)

    def form(u, v):
        values = adet * np.einsum("q,eqa,eqb->eab", wts, u, v)
        return _dense_scatter(n_nodes, (values, connectivity, connectivity))

    mass, kxx, kyy = form(vals, vals), form(gx, gx), form(gy, gy)
    kxy, dx_n, dy_n = form(gx, gy), form(gx, vals), form(gy, vals)
    all_nodes = np.arange(n_nodes)
    e1 = np.array([i for i in all_nodes if not ({"y0", "y1"} & node_sides[i])], dtype=int)
    e2 = np.array([i for i in all_nodes if not ({"x0", "x1"} & node_sides[i])], dtype=int)
    n1, n2 = e1.size, e2.size
    m0 = np.zeros((n1 + n2 + n_nodes,) * 2)
    m1, m2 = np.zeros_like(m0), np.zeros_like(m0)
    s1, s2, sh = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, None)
    m0[s1, s1] = mass[np.ix_(e1, e1)]
    m0[s2, s2] = mass[np.ix_(e2, e2)]
    m0[sh, sh] = mass
    b1, b2 = -dy_n[np.ix_(e1, all_nodes)], dx_n[np.ix_(e2, all_nodes)]
    m1[s1, sh], m1[sh, s1], m1[s2, sh], m1[sh, s2] = b1, b1.T, b2, b2.T
    m2[s1, s1] = kyy[np.ix_(e1, e1)]
    m2[s2, s2] = kxx[np.ix_(e2, e2)]
    cross = -kxy.T[np.ix_(e1, e2)]
    m2[s1, s2], m2[s2, s1] = cross, cross.T
    m2[sh, sh] = kxx + kyy
    return symmetrize(m0), m1, symmetrize(m2)


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _schur_complement(forms):
    """The Schur complement ``S = M2 - M1 M0^-1 M1`` that the consistency
    gate decides on, formed densely from M0's factor."""
    m1, m2 = (np.array(m, dtype=float) for m in (forms.M1, forms.M2))
    x = scipy.linalg.solve_triangular(forms.factor(), m1, lower=True)
    return m2 - x.T @ x


def _assert_same_forms(forms, dense):
    """``forms`` hold the bits of ``dense`` on their pattern, and give
    what forms built from the dense matrices give."""
    reference = TrialForms(*dense)
    assert all(map(_bits_equal, forms.pattern(), reference.pattern()))
    rows, cols = forms.pattern()
    for got, want in zip((forms.M0, forms.M1, forms.M2), dense):
        # off the pattern the dense M1 may hold -0.0 where the stored forms hold +0.0
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert _bits_equal(got[rows, cols], want[rows, cols])
    assert _bits_equal(forms.factor(), reference.factor())
    assert _bits_equal(forms.ritz(), reference.ritz())
    forms.validate(), reference.validate()
    assert forms._kept["gate"] == reference._kept["gate"]
    assert _bits_equal(_schur_complement(forms), _schur_complement(reference))
    for t in SHIFTS:
        assert _bits_equal(shifted_product(forms, t, t), shifted_product(reference, t, t))
        assert _bits_equal(shifted_linear(forms, t), shifted_linear(reference, t))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_elems, jitter", [(2, 0.0), (7, 0.3), (16, 0.9)])
def test_1d_forms_are_the_dense_bits(order, n_elems, jitter):
    for seed in range(4):
        mesh = uniform_mesh(n_elems, jitter=jitter, seed=seed)
        model = assemble_1d(mesh, order)
        assert model.order == order
        _assert_same_forms(model.forms, _dense_1d(mesh, order))


@pytest.mark.parametrize(
    "order, nx, jitter",
    [(1, 2, 0.0), (1, 5, 0.25), (1, 12, 0.5), (2, 2, 0.5), (2, 4, 0.0), (2, 6, 0.25)],
)
def test_2d_forms_are_the_dense_bits(order, nx, jitter):
    for seed in range(2):
        mesh = structured_tri_mesh(nx, jitter=jitter, seed=seed)
        model = assemble_2d(mesh, order)
        assert model.order == order
        _assert_same_forms(model.forms, _dense_2d(mesh, order))


def _write_dense(forms, path):
    """The ``.forms`` writer's loop over every upper-triangle entry of the
    dense forms, the reference for :func:`write_forms`."""
    lines = [str(forms.n)]
    for tag, m in zip(("%M0", "%M1", "%M2"), (forms.M0, forms.M1, forms.M2)):
        lines.append(tag)
        for i in range(forms.n):
            for j in range(i, forms.n):
                if m[i, j] != 0.0:
                    lines.append(f"{i + 1} {j + 1} {float(m[i, j])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize(
    "build",
    [
        lambda: assemble_1d(uniform_mesh(12, jitter=0.3, seed=2), 3),
        lambda: assemble_1d(uniform_mesh(5, jitter=0.9, seed=0), 1),
        lambda: assemble_2d(structured_tri_mesh(6, jitter=0.25, seed=1), 1),
        lambda: assemble_2d(structured_tri_mesh(3, jitter=0.5, seed=3), 2),
    ],
)
def test_write_forms_is_the_dense_loop(build, tmp_path):
    forms = build().forms
    write_forms(forms, tmp_path / "stored.forms")
    _write_dense(forms, tmp_path / "dense.forms")
    written = (tmp_path / "stored.forms").read_bytes()
    assert written == (tmp_path / "dense.forms").read_bytes()
    assert written.count(b"\n") > 4


def test_2d_assembly_holds_no_dense_form():
    """Assembly at n = 455 peaks below 7 n by n doubles (10.6 with dense
    forms), and apart from M0's factor the forms hold no n^2 array."""
    mesh = structured_tri_mesh(12, jitter=0.25, seed=0)
    tracemalloc.start()
    try:
        forms = assemble_2d(mesh, 1).forms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = forms.n
    assert n == 455 and peak <= 7 * n * n * 8
    held, todo = [], list(vars(forms).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            held.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
    large = [a for a in held if a.size >= n * n]
    assert len(held) > 5 and len(large) == 1 and large[0] is forms.factor()
