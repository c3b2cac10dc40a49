"""Uniform radial grids on (0,1) and tridiagonal operators in u = r*psi coordinates.

Everything downstream works with the substituted field u(r) = r*psi(r).  In
these coordinates the weighted measure r^2 dr of the physical problem becomes
the flat measure dr, both boundary conditions become homogeneous Dirichlet
conditions u(0) = u(1) = 0, and the two second-order building blocks are

    lap_l   u = u'' - l(l+1)/r^2 u                        (signed Laplacian, negative definite)
    Q_alpha u = -(alpha(r) u')' + alpha(r) l(l+1)/r^2 u   (positive definite for alpha > 0)

Both come from one flux-form stencil, ``flux_form``: second-order central
differences on the interior nodes r_j = j*h, h = 1/(n+1), with the flux
coefficient at the half nodes.  That makes Q_alpha an exactly symmetric
matrix, which is what keeps the assembled dynamo operator exactly J-symmetric
at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Interior nodes of a uniform grid on (0,1) with Dirichlet ends excluded.

    nodes[j-1] = j*h with h = 1/(n+1); the trapezoid rule for integrals of
    functions vanishing at both endpoints weighs every interior node by h.
    """

    n: int
    h: float
    nodes: np.ndarray

    @classmethod
    def uniform(cls, n: int) -> "RadialGrid":
        if n < 1:
            raise ConfigurationError(f"grid needs at least one interior node, got n={n}")
        h = 1.0 / (n + 1)
        return cls(n=n, h=h, nodes=_freeze(np.arange(1, n + 1) * h))

    @property
    def half_nodes(self) -> np.ndarray:
        """The n+1 midpoints (j+1/2)*h, j=0..n, used for flux-form coefficients."""
        return (np.arange(self.n + 1) + 0.5) * self.h


def build_grid(n: int) -> RadialGrid:
    """Build the production grid; n >= 8 so that every verification window resolves."""
    if n < 8:
        raise ConfigurationError(
            f"resolution too low for any acceptance test: n={n} < 8"
        )
    return RadialGrid.uniform(n)


@dataclass(frozen=True)
class TridiagOp:
    """Real symmetric tridiagonal operator: a diagonal and one off-diagonal of length n-1.

    The one off-diagonal array is both the sub- and the superdiagonal, so
    symmetry holds bit-exactly by construction.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        if self.off.shape[0] != self.diag.shape[0] - 1:
            raise ConfigurationError("the off-diagonal must have length n-1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape[0] != self.n:
            raise ConfigurationError(f"vector length {v.shape[0]} != operator size {self.n}")
        diag, off = self.diag, self.off
        if v.ndim == 2:  # applied column by column
            diag, off = diag[:, None], off[:, None]
        out = diag * v
        out[1:] += off * v[:-1]
        out[:-1] += off * v[1:]
        return out

    def __neg__(self) -> "TridiagOp":
        return TridiagOp(diag=_freeze(-self.diag), off=_freeze(-self.off))


def flux_form(grid: RadialGrid, a_half: np.ndarray, w: np.ndarray) -> TridiagOp:
    """Flux-form discretization of -(a u')' + w u with Dirichlet ends.

    a is sampled at the n+1 half nodes and w at the n nodes; the result is
    exactly symmetric, and a identically 1 gives the three-point stencil of
    -u'' + w u.
    """
    h2 = grid.h ** 2
    diag = _freeze((a_half[:-1] + a_half[1:]) / h2 + w)
    off = _freeze(-a_half[1:-1] / h2)
    return TridiagOp(diag=diag, off=off)


def laplacian_l(grid: RadialGrid, l: int) -> TridiagOp:
    """Second-order discretization of u'' - l(l+1)/r^2 u with Dirichlet ends.

    Requires l >= 1: the l = 0 sector is excluded by the normalization of the
    underlying field decomposition, and the centrifugal-free operator would
    need different boundary treatment anyway.
    """
    if l < 1:
        raise ConfigurationError(f"angular mode number must satisfy l >= 1, got l={l}")
    return -flux_form(grid, np.ones(grid.n + 1), l * (l + 1) / grid.nodes ** 2)


def central_difference(w: np.ndarray, h: float) -> np.ndarray:
    """Central difference along axis 0 with Dirichlet zero-padding outside the interior."""
    out = np.zeros_like(w)
    out[1:-1] = (w[2:] - w[:-2]) / (2 * h)
    out[0] = w[1] / (2 * h)
    out[-1] = -w[-2] / (2 * h)
    return out


_FIELD_SEED = 20230917


def smooth_fields(nodes: np.ndarray, support: tuple) -> np.ndarray:
    """The shared random smooth test fields: 16 rows on the nodes, each with |w|_inf = 1.

    With s mapping support onto (0, 1), row i is (s(1-s))^2 times six modes
    sin(k pi s), k = 1..6, with standard-normal weights from one fixed seed;
    it vanishes quadratically at the ends of the support and is zero outside.
    """
    a, b = support
    s = (nodes - a) / (b - a)
    envelope = np.where((s > 0) & (s < 1), (s * (1.0 - s)) ** 2, 0.0)
    coeffs = np.random.default_rng(_FIELD_SEED).standard_normal((16, 6))
    w = envelope * sum(c[:, None] * np.sin((k + 1) * np.pi * s) for k, c in enumerate(coeffs.T))
    return w / np.max(np.abs(w), axis=1, keepdims=True)


def inner_product(grid: RadialGrid, f: np.ndarray, g: np.ndarray) -> complex | np.ndarray:
    """Flat-measure trapezoid inner product h sum_j conj(f_j) g_j, conjugate-linear in f.

    Two length-n vectors give one complex number.  Arrays whose last axis has
    length n give an array of the products of their broadcast rows; each row
    is summed over a contiguous last axis, as one vector is, so it equals the
    one-vector call bit for bit.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape[-1:] != (grid.n,) or g.shape[-1:] != (grid.n,):
        raise ConfigurationError(
            f"inner_product needs two length-{grid.n} vectors or rows, got {f.shape} and {g.shape}"
        )
    sums = np.sum(np.multiply(grid.h * np.conj(f), g, order="C"), axis=-1)
    return complex(sums) if sums.ndim == 0 else sums
