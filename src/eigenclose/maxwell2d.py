"""Two-dimensional Maxwell cavity model on the square (0, pi)^2.

The block operator acts on ``(E, H)`` with a two-component electric
field ``E = (E1, E2)`` and scalar magnetic field ``H``:

    M(E, H) = (rot H, rot E),
    rot H = (dH/dy, -dH/dx),      rot E = dE2/dx - dE1/dy.

Perfect-conductor boundary conditions remove the tangential trace of E
(``E1 = 0`` on the horizontal sides, ``E2 = 0`` on the vertical sides,
both at the corners); H is free.  The nonzero spectrum is
``+-sqrt(l^2 + m^2)`` over integer pairs ``(l, m) != (0, 0)`` with one
eigenfunction per ordered pair (``H = cos(l x) cos(m y)``), and the
kernel (gradient fields) is infinite dimensional.

Discretized with nodal Lagrange elements on a triangulation, the raw
Galerkin pencil of this operator is the classic spectral-pollution
offender: on unstructured meshes spurious eigenvalues fill the gap
between 0 and the first true eigenvalue.  The assembled form matrices
are nevertheless exact, so the certified enclosures built from them are
immune to the pollution -- that contrast is the point of the model.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedOrderError
from .forms import TrialForms, _mirror, scatter

#: side length of the square cavity
SIDE = np.pi

SUPPORTED_ORDERS = (1, 2)

#: largest interior-vertex displacement of a jittered mesh, in units of h
MAX_JITTER = 0.5


@dataclass
class TriMesh:
    """Triangulation of the square with boundary edges tagged by side.

    ``triangles`` are positively oriented vertex triples;
    ``boundary_edges`` is a list of ``(a, b, side)`` with vertex indices
    ``a, b`` and ``side`` one of ``"x0", "x1", "y0", "y1"``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    nx: int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)

    @property
    def h(self):
        """Nominal grid spacing pi / nx."""
        return SIDE / self.nx

    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def structured_tri_mesh(nx, jitter=0.0, seed=None):
    """Structured criss-cross triangulation, optionally jittered.

    An ``nx`` by ``nx`` grid of squares is split into two triangles
    each.  Interior vertices are displaced by at most ``jitter * h``
    (Euclidean); boundary vertices stay put.  If a draw degenerates a
    triangle the displacement amplitude is halved and the interior is
    redrawn, so the result is always positively oriented; the same seed
    always yields the same mesh.
    """
    if nx < 2:
        raise ValueError(f"need nx >= 2, got {nx}")
    if not 0.0 <= jitter <= MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER:g}], got {jitter}")

    h = SIDE / nx
    grid = np.linspace(0.0, SIDE, nx + 1)
    xs, ys = np.meshgrid(grid, grid, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(nx):
        for ix in range(nx):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    triangles = np.asarray(triangles, dtype=int)

    boundary_edges = []
    for i in range(nx):
        boundary_edges.append((vid(0, i), vid(0, i + 1), "x0"))
        boundary_edges.append((vid(nx, i), vid(nx, i + 1), "x1"))
        boundary_edges.append((vid(i, 0), vid(i + 1, 0), "y0"))
        boundary_edges.append((vid(i, nx), vid(i + 1, nx), "y1"))

    interior = np.array(
        [vid(ix, iy) for iy in range(1, nx) for ix in range(1, nx)], dtype=int
    )
    if jitter > 0.0 and interior.size:
        rng = np.random.default_rng(seed)
        amplitude = jitter
        base = vertices[interior].copy()
        floor = 1e-6 * h * h
        for _ in range(100):
            # per-component box of half-width a*h/sqrt(2) keeps the
            # Euclidean displacement within a*h
            s = amplitude * h / np.sqrt(2.0)
            vertices[interior] = base + rng.uniform(
                -s, s, size=(interior.size, 2)
            )
            mesh = TriMesh(vertices, triangles, boundary_edges, nx)
            if np.min(mesh.signed_areas()) > floor:
                return mesh
            amplitude *= 0.5
        raise RuntimeError("could not jitter the mesh without degeneracies")
    return TriMesh(vertices, triangles, boundary_edges, nx)


@dataclass
class MaxwellModel:
    """Assembled trial forms for the cavity model.

    Scalar nodal dofs are shared by the three fields; the trial basis is
    ordered E1 block, E2 block, H block.  ``e1_nodes`` / ``e2_nodes``
    map the constrained blocks to scalar node indices (H uses them all),
    and ``nodes_xy`` holds the scalar node coordinates.
    """

    mesh: TriMesh
    order: int
    forms: TrialForms
    nodes_xy: np.ndarray = field(repr=False)
    e1_nodes: np.ndarray = field(repr=False)
    e2_nodes: np.ndarray = field(repr=False)

    @property
    def block_sizes(self):
        return (self.e1_nodes.size, self.e2_nodes.size, self.nodes_xy.shape[0])


def _reference_p1():
    def basis(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([1.0 - x - y, x, y])

    def grads(p):
        g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        return np.broadcast_to(g, (p.shape[0], 3, 2)).copy()

    return basis, grads


def _reference_p2():
    def bary(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([1.0 - x - y, x, y])

    def basis(p):
        lam = bary(p)
        out = np.empty((p.shape[0], 6))
        for i in range(3):
            out[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            out[:, 3 + i] = 4.0 * lam[:, i] * lam[:, (i + 1) % 3]
        return out

    def grads(p):
        lam = bary(p)
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        out = np.empty((p.shape[0], 6, 2))
        for i in range(3):
            out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
            j = (i + 1) % 3
            out[:, 3 + i, :] = 4.0 * (
                lam[:, i][:, None] * dlam[j] + lam[:, j][:, None] * dlam[i]
            )
        return out

    return basis, grads


def _triangle_quadrature(degree):
    """Symmetric rules on the reference triangle, weights sum to 1/2."""
    if degree <= 2:
        pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        wts = np.full(3, 1.0 / 6.0)
        return pts, wts
    # 6-point rule, exact to degree 4
    a = 0.445948490915965
    b = 0.091576213509771
    pts = np.array(
        [
            [a, a], [1.0 - 2.0 * a, a], [a, 1.0 - 2.0 * a],
            [b, b], [1.0 - 2.0 * b, b], [b, 1.0 - 2.0 * b],
        ]
    )
    wts = np.concatenate(
        [
            np.full(3, 0.223381589678011 / 2.0),
            np.full(3, 0.109951743655322 / 2.0),
        ]
    )
    return pts, wts


def _scalar_nodes(mesh, order):
    """Global scalar node table: coordinates, element connectivity and
    per-node boundary-side tags (exact, derived from the edge tags)."""
    nv = mesh.vertices.shape[0]
    vertex_tags = [set() for _ in range(nv)]
    for a, b, side in mesh.boundary_edges:
        vertex_tags[a].add(side)
        vertex_tags[b].add(side)

    if order == 1:
        return mesh.vertices.copy(), mesh.triangles.copy(), vertex_tags

    # order 2: add one node on every edge of the triangulation
    edge_ids = {}
    extra = []
    tags = list(vertex_tags)
    connectivity = np.empty((mesh.triangles.shape[0], 6), dtype=int)
    for e, tri in enumerate(mesh.triangles):
        connectivity[e, :3] = tri
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            key = (min(a, b), max(a, b))
            if key not in edge_ids:
                edge_ids[key] = nv + len(extra)
                extra.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
                tags.append(vertex_tags[a] & vertex_tags[b])
            connectivity[e, 3 + k] = edge_ids[key]
    coords = np.vstack([mesh.vertices, np.array(extra)])
    return coords, connectivity, tags


def assemble_2d(mesh, order):
    """Assemble the cavity trial forms with nodal Lagrange elements.

    Parameters
    ----------
    mesh : TriMesh
    order : int
        Polynomial degree, 1 or 2.

    Returns
    -------
    MaxwellModel
        Form matrices are exactly symmetric; the triangle quadrature is
        exact for every form integrand (degree <= 2 * order).  The
        element matrices of all triangles are computed as one batch and
        summed in element order by one :func:`~eigenclose.forms.scatter`
        onto one node pattern, six node-level forms.  Each block of the
        trial forms is gathered from them on that pattern, negated,
        added (``kxx + kyy``) and symmetrized entry by entry as the
        dense blocks are, so the stored values are the dense bits.

    Raises
    ------
    UnsupportedOrderError
        For any other degree.
    """
    if order not in SUPPORTED_ORDERS:
        raise UnsupportedOrderError(
            f"order {order} not supported, choose from {SUPPORTED_ORDERS}"
        )
    ref_values, ref_grads = _reference_p1() if order == 1 else _reference_p2()
    pts, wts = _triangle_quadrature(2 * order)
    n_vals = ref_values(pts)  # (q, a)
    g_ref = ref_grads(pts)  # (q, a, 2)

    coords, connectivity, node_tags = _scalar_nodes(mesh, order)
    n_nodes = coords.shape[0]

    # affine maps of all triangles: Jacobians, determinants and the
    # inverses by the explicit 2x2 formula (np.linalg.inv rounds otherwise)
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (e, 2, 2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.stack(
        [jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], axis=-1
    ).reshape(-1, 2, 2) / det[:, None, None]
    adet = np.abs(det)[:, None, None]  # the measure; inv already carries the sign
    g = g_ref @ inv[:, None]  # global gradients, (e, q, a, 2)
    gx, gy = g[..., 0], g[..., 1]
    vals = np.broadcast_to(n_vals, gx.shape)

    # the six node-level forms, summed in element order on one pattern:
    # form[a, b] = int u_a v_b, e.g. kxy[a, b] = int dx(phi_a) dy(phi_b)
    # and dx_n[a, b] = int dx(phi_a) phi_b
    pairs = [(vals, vals), (gx, gx), (gy, gy), (gx, gy), (gx, vals), (gy, vals)]
    (rows, cols), (mass, kxx, kyy, kxy, dx_n, dy_n) = scatter(n_nodes, *(
        [(adet * np.einsum("q,eqa,eqb->eab", wts, u, v), connectivity, connectivity)]
        for u, v in pairs
    ))

    all_nodes = np.arange(n_nodes)
    e1_nodes = np.array(
        [i for i in all_nodes if not ({"y0", "y1"} & node_tags[i])], dtype=int
    )
    e2_nodes = np.array(
        [i for i in all_nodes if not ({"x0", "x1"} & node_tags[i])], dtype=int
    )

    # each node's trial index in the E1, E2 and H blocks, -1 for none
    n1, n2 = e1_nodes.size, e2_nodes.size
    e1, e2, h = np.full(n_nodes, -1), np.full(n_nodes, -1), n1 + n2 + all_nodes
    e1[e1_nodes], e2[e2_nodes] = np.arange(n1), n1 + np.arange(n2)
    # m[mirror] is m transposed, the pattern being symmetric.  The
    # quadrature sums are not exactly symmetric, so the blocks of M0 and
    # M2 are symmetrized, 0.5 (m + m'), as the dense ones would be
    mirror = _mirror(n_nodes, rows, cols)
    mass, kxx, kyy, kk = (0.5 * (m + m[mirror]) for m in (mass, kxx, kyy, kxx + kyy))
    zero = np.zeros_like(mass)
    # (rows, cols, M0, M1, M2) of each block on the node pattern: the
    # image of an E1 basis function is (0, 0, -dy phi), of E2 (0, 0, dx
    # phi), and the E1-E2 block of M2 is int dy(phi_e1) dx(phi_e2)
    blocks = [
        (e1, e1, mass, zero, kyy), (e1, e2, zero, zero, -kxy[mirror]),
        (e1, h, zero, -dy_n, zero), (e2, e1, zero, zero, -kxy),
        (e2, e2, mass, zero, kxx), (e2, h, zero, dx_n, zero),
        (h, e1, zero, -dy_n[mirror], zero), (h, e2, zero, dx_n[mirror], zero),
        (h, h, mass, zero, kk),
    ]
    parts = []
    for r, c, *values in blocks:
        on = (r[rows] >= 0) & (c[cols] >= 0)
        parts.append([r[rows[on]], c[cols[on]], *(m[on] for m in values)])
    forms = TrialForms._from_pattern(n1 + n2 + n_nodes, *map(np.concatenate, zip(*parts)))
    return MaxwellModel(
        mesh=mesh,
        order=order,
        forms=forms,
        nodes_xy=coords,
        e1_nodes=e1_nodes,
        e2_nodes=e2_nodes,
    )


def exact_spectrum_2d(max_val):
    """Exact eigenvalues with |value| <= max_val, with multiplicities.

    Returns a sorted array holding ``+-sqrt(l^2 + m^2)`` once per
    ordered pair ``(l, m)`` of nonnegative integers (not both zero), and
    a single 0 standing in for the kernel, which is infinite dimensional
    in the continuum problem.  The pairs are listed at once, so time and
    memory grow as ``max_val**2``.
    """
    if max_val <= 0:
        raise ValueError("max_val must be positive")
    k = np.arange(int(np.floor(max_val)) + 1)
    omega = np.hypot.outer(k, k).ravel()[1:]  # every pair but (0, 0)
    omega = omega[omega <= max_val]
    return np.sort(np.concatenate([[0.0], omega, -omega]))


def write_mesh(mesh, path):
    """Export a triangulation as plain-text vertex/triangle lists.

    Format: a ``vertices <count>`` header followed by ``x y`` rows, a
    ``triangles <count>`` header with ``a b c`` rows (0-based), and a
    ``boundary_edges <count>`` section of ``a b side`` rows.  Floats use
    their shortest round-tripping representation.
    """
    lines = [f"vertices {mesh.vertices.shape[0]}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.triangles.shape[0]}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    lines += [f"{a} {b} {side}" for a, b, side in mesh.boundary_edges]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def galerkin_spectrum(model):
    """Raw Rayleigh-Ritz eigenvalues of the pencil ``(M1, M0)``.

    These are what a naive Galerkin discretization reports and they are
    exactly the values subject to spectral pollution; they come with no
    certification whatsoever and are exposed for contrast with the
    certified enclosures.  They are :meth:`TrialForms.ritz`: the model's
    forms are graded, so they are the singular values of one half-size
    block, negated and not, with exact zeros between.
    """
    return model.forms.ritz()
