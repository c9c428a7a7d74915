"""One-dimensional block-operator model on (0, pi).

The operator acts on pairs ``(u, v)`` as ``A(u, v) = (v', -u')`` with a
Dirichlet condition on ``u`` at both ends and ``v`` free.  It is
self-adjoint with spectrum ``{0} union {+-k : k = 1, 2, ...}``, every
eigenvalue simple: squaring decouples the pair into a Dirichlet
Laplacian for ``u`` and a Neumann Laplacian for ``v``, and the kernel is
spanned by ``(0, 1)``.

Discretizing both components with continuous Lagrange elements gives a
genuinely pollution-prone Galerkin pencil, which makes the model a good
test bed for the certified bound machinery.  The reference-element
integrals are exact rational Gram products of the basis coefficients,
rounded once, and the element matrices of all elements are summed in
extended precision by one scatter, so the assembled matrices carry no
quadrature error at all and only O(1e-19) rounding: every bound computed
from them is a true statement about the operator, and widths can be
resolved well below what double-precision assembly allows.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyfromroots

from .errors import UnsupportedOrderError
from .forms import TrialForms, scatter

#: right end of the interval
LENGTH = np.pi

SUPPORTED_ORDERS = (1, 2, 3)


@dataclass
class Mesh1D:
    """Partition of (0, pi) into elements given by sorted node positions."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("need at least two elements")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")

    @property
    def n_elems(self):
        return self.nodes.size - 1

    @property
    def h(self):
        """Largest element length."""
        return float(np.max(np.diff(self.nodes)))


def uniform_mesh(n_elems, jitter=0.0, seed=None):
    """Uniform mesh on (0, pi), optionally with jittered interior nodes.

    Each interior node is displaced by at most ``jitter * h / 2`` where
    ``h = pi / n_elems``, so element lengths stay positive for any
    ``jitter < 1``.  The same ``seed`` always reproduces the same mesh.
    """
    if n_elems < 2:
        raise ValueError(f"need at least 2 elements, got {n_elems}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must lie in [0, 1), got {jitter}")
    nodes = np.linspace(0.0, LENGTH, n_elems + 1)
    if jitter > 0.0:
        h = LENGTH / n_elems
        rng = np.random.default_rng(seed)
        nodes[1:-1] += rng.uniform(-1.0, 1.0, n_elems - 1) * (0.5 * jitter * h)
    return Mesh1D(nodes)


@dataclass
class FEModel:
    """Assembled trial forms for the 1D model.

    The trial basis is ordered u-block first (hat-type functions with the
    boundary dofs removed), then the v-block (all nodal functions).
    ``u_nodes`` maps u dofs to global node indices; ``x`` holds all
    global node positions including the eliminated boundary ones.
    """

    mesh: Mesh1D
    order: int
    forms: TrialForms
    x: np.ndarray = field(repr=False)
    u_nodes: np.ndarray = field(repr=False)

    @property
    def n_u(self):
        return self.u_nodes.size

    @property
    def n_v(self):
        return self.x.size


def _to_longdouble(rows):
    # numerator and denominator stay far below 2**63 for the supported
    # orders, so both convert exactly
    return np.array(
        [
            [np.longdouble(f.numerator) / np.longdouble(f.denominator) for f in row]
            for row in rows
        ]
    )


@functools.cache
def _reference_integrals(r):
    """Reference integrals of the degree-``r`` Lagrange basis on [0, 1].

    Returns ``(mass, stiff, deriv)`` in extended precision, where
    ``mass[a, b] = int l_a l_b``, ``stiff[a, b] = int l_a' l_b'`` and
    ``deriv[a, b] = int l_a' l_b``.  With C the exact coefficients of the
    basis (row a ascending powers of ``l_a``), D those of its derivative
    and H the Hilbert matrix ``int x^i x^j = 1 / (i + j + 1)``, they are
    the Gram products ``C H C'``, ``D H D'`` and ``D H C'`` in rational
    arithmetic, rounded once on conversion, so ``mass`` and ``stiff``
    come out exactly symmetric.  They depend on r alone, so each order
    is computed once and its arrays are read-only.
    """
    k = range(r + 1)
    nodes = np.array([Fraction(a, r) for a in k])
    others = [np.delete(nodes, a) for a in k]
    coeffs = np.array([polyfromroots(o) / np.prod(x - o) for x, o in zip(nodes, others)])
    dcoeffs = coeffs[:, 1:] * np.arange(1, r + 1)
    hilbert = np.array([[Fraction(1, i + j + 1) for j in k] for i in k])
    mass = coeffs @ hilbert @ coeffs.T
    stiff = dcoeffs @ hilbert[:r, :r] @ dcoeffs.T
    deriv = dcoeffs @ hilbert[:r] @ coeffs.T
    out = tuple(_to_longdouble(m) for m in (mass, stiff, deriv))
    for m in out:
        m.flags.writeable = False
    return out


def assemble_1d(mesh, order):
    """Assemble the trial forms on a mesh with Lagrange elements.

    Parameters
    ----------
    mesh : Mesh1D
    order : int
        Polynomial degree, one of 1, 2, 3.

    Returns
    -------
    FEModel
        The form matrices carry no quadrature error (the
        piecewise-polynomial integrands are integrated in exact rational
        arithmetic on the reference element).  The element matrices,
        scaled by the element lengths in extended precision, are summed
        in element order by one :func:`~eigenclose.forms.scatter`,
        straight into the u and v blocks of each form on their nonzero
        pattern: the boundary u dofs go to one extra index, which is
        dropped.  Each entry gets the additions a dense sum gets, in its
        order, so the stored values are its bits.  As the reference
        matrices are exactly symmetric, so are the sums, and every entry
        no element reaches is +0.

    Raises
    ------
    UnsupportedOrderError
        For any other degree.
    """
    if order not in SUPPORTED_ORDERS:
        raise UnsupportedOrderError(
            f"order {order} not supported, choose from {SUPPORTED_ORDERS}"
        )
    r = order
    mass_ref, stiff_ref, deriv_ref = _reference_integrals(r)

    # element e holds the global nodes r e .. r e + r
    nodes = r * np.arange(mesh.n_elems)[:, None] + np.arange(r + 1)
    n_nodes = r * mesh.n_elems + 1
    n_u = n_nodes - 2  # Dirichlet dofs eliminated
    n = n_u + n_nodes
    # each element's trial indices, u-block first: the boundary u dofs go
    # to the index n, which is dropped, and the v dofs follow the u dofs
    u = np.where((nodes > 0) & (nodes < n_nodes - 1), nodes - 1, n)
    v = n_u + nodes
    h = np.diff(mesh.nodes.astype(np.longdouble))[:, None, None]
    mass, stiff, cross = h * mass_ref, stiff_ref / h, -deriv_ref
    # cross[a, b] = -int phi_a' phi_b couples u dof a to v dof b
    (rows, cols), values = scatter(
        n + 1, [(mass, u, u), (mass, v, v)], [(cross, u, v), (cross.T, v, u)],
        [(stiff, u, u), (stiff, v, v)],
    )
    kept = (rows < n) & (cols < n)

    # each element places its nodes but the right end, which the next
    # element places as its left end; the last element places both ends
    left = mesh.nodes[:-1, None]
    xe = left + (mesh.nodes[1:, None] - left) * np.linspace(0.0, 1.0, r + 1)
    x = np.append(xe[:, :r], xe[-1, r])

    forms = TrialForms._from_pattern(n, rows[kept], cols[kept], *(m[kept] for m in values))
    u_nodes = np.arange(1, n_nodes - 1)
    return FEModel(mesh=mesh, order=order, forms=forms, x=x, u_nodes=u_nodes)


def exact_spectrum_1d(k_max):
    """The eigenvalues in [-k_max, k_max]: the integers, all simple."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    k = np.arange(1, int(k_max) + 1, dtype=float)
    return np.concatenate([-k[::-1], [0.0], k])
