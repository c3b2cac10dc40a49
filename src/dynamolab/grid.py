"""Uniform radial grids on (0,1) and tridiagonal operators in u = r*psi coordinates.

Everything downstream works with the substituted field u(r) = r*psi(r).  In
these coordinates the weighted measure r^2 dr of the physical problem becomes
the flat measure dr, both boundary conditions become homogeneous Dirichlet
conditions u(0) = u(1) = 0, and the two second-order building blocks are

    lap_l  u = u'' - l(l+1)/r^2 u                  (signed Laplacian, negative definite)
    diff_a u = -(alpha(r) u')' + alpha(r) l(l+1)/r^2 u   (positive definite for alpha > 0)

Both are discretized with second-order central differences on the interior
nodes r_j = j*h, h = 1/(n+1).  Sampling alpha at half nodes makes diff_a an
exactly symmetric matrix, which is what keeps the assembled dynamo operator
exactly J-symmetric at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Interior nodes of a uniform grid on (0,1) with Dirichlet ends excluded.

    nodes[j-1] = j*h with h = 1/(n+1); weights are the trapezoid weights for
    integrals of functions vanishing at both endpoints (h per interior node).
    """

    n: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def uniform(cls, n: int) -> "RadialGrid":
        if n < 1:
            raise ConfigurationError(f"grid needs at least one interior node, got n={n}")
        h = 1.0 / (n + 1)
        nodes = _freeze(np.arange(1, n + 1) * h)
        weights = _freeze(np.full(n, h))
        return cls(n=n, h=h, nodes=nodes, weights=weights)

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
            raise ShapeError("the off-diagonal must have length n-1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape[0] != self.n:
            raise ShapeError(f"vector length {v.shape[0]} != operator size {self.n}")
        out = self.diag * v
        out[1:] += self.off * v[:-1]
        out[:-1] += self.off * v[1:]
        return out

    def __neg__(self) -> "TridiagOp":
        return TridiagOp(diag=_freeze(-self.diag), off=_freeze(-self.off))


def laplacian_l(grid: RadialGrid, l: int) -> TridiagOp:
    """Second-order discretization of u'' - l(l+1)/r^2 u with Dirichlet ends.

    Requires l >= 1: the l = 0 sector is excluded by the normalization of the
    underlying field decomposition, and the centrifugal-free operator would
    need different boundary treatment anyway.
    """
    if l < 1:
        raise DomainError(f"angular mode number must satisfy l >= 1, got l={l}")
    h2 = grid.h ** 2
    centrifugal = l * (l + 1) / grid.nodes ** 2
    diag = _freeze(-(2.0 / h2) - centrifugal)
    off = _freeze(np.full(grid.n - 1, 1.0 / h2))
    return TridiagOp(diag=diag, off=off)


def diffusion_alpha(grid: RadialGrid, alpha: Callable[[np.ndarray], np.ndarray], l: int) -> TridiagOp:
    """Flux-form discretization of -(alpha u')' + alpha l(l+1)/r^2 u.

    alpha is sampled at half nodes for the flux term and at the nodes for the
    centrifugal term; the result is exactly symmetric and reduces entrywise to
    -laplacian_l for alpha identically 1.
    """
    if l < 1:
        raise DomainError(f"angular mode number must satisfy l >= 1, got l={l}")
    h2 = grid.h ** 2
    a_half = np.asarray(alpha(grid.half_nodes), dtype=float)
    a_node = np.asarray(alpha(grid.nodes), dtype=float)
    centrifugal = l * (l + 1) / grid.nodes ** 2
    diag = _freeze((a_half[:-1] + a_half[1:]) / h2 + a_node * centrifugal)
    off = _freeze(-a_half[1:-1] / h2)
    return TridiagOp(diag=diag, off=off)


def inner_product(grid: RadialGrid, f: np.ndarray, g: np.ndarray) -> complex:
    """Flat-measure inner product sum_j w_j conj(f_j) g_j, conjugate-linear in f."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise ShapeError(
            f"inner_product needs two length-{grid.n} vectors, got {f.shape} and {g.shape}"
        )
    return complex(np.sum(grid.weights * np.conj(f) * g))
