"""Assembly of the discrete alpha^2-dynamo operator matrix and its pencil functionals.

In u = r*psi coordinates the operator acting on the two-component field
(u1, u2) is the real 2n x 2n block matrix

    H = [ lap_l        diag(alpha) ]
        [ Q_alpha      lap_l       ]

with lap_l the signed radial Laplacian and Q_alpha = -(alpha u')' +
alpha l(l+1)/r^2 u.  The block-swap metric J = [[0, I], [I, 0]] makes H
J-symmetric: J H^T J = H holds bit-exactly because both diagonal blocks are
identical symmetric matrices, the (1,2) block is diagonal, and the (2,1)
block is symmetric by half-node sampling.

Eliminating u2 turns the eigenvalue problem into a quadratic pencil
lambda^2 A2 + lambda A1 + A0 with

    A2 = 1/alpha,   A1 = Q1 (1/alpha) + (1/alpha) Q1,   A0 = Q1 (1/alpha) Q1 - Q_alpha

(Q1 = Q_alpha at alpha == 1).  The scalar functionals a_j = (A_j u1, u1) are
real for every complex u1 because the A_j are symmetric, and the two roots
lambda_pm of a2 l^2 + a1 l + a0 = 0 reproduce the eigenvalue pairing of the
J-symmetric operator.

H is kept as its blocks and nothing else: lap_l and Q_alpha as symmetric
tridiagonal operators, diag(alpha) as node samples.  ``DynamoMatrix``
derives H v, the dense matrix and the sparse form from them, and the pencil
functionals read the same blocks, so the layout of H is known here alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import DegeneratePencilError, DomainError, ShapeError, SolverError
from .grid import RadialGrid, TridiagOp, diffusion_alpha, inner_product, laplacian_l


def sharp(c: np.ndarray) -> np.ndarray:
    """The involution C -> J C^dagger J (swap diagonal, conjugate all entries).

    Batched over leading axes: c has shape (..., 2, 2).
    """
    c = np.asarray(c)
    if c.shape[-2:] != (2, 2):
        raise ShapeError(f"sharp is defined for (..., 2, 2) arrays, got shape {c.shape}")
    out = np.empty_like(c)
    out[..., 0, 0] = np.conj(c[..., 1, 1])
    out[..., 0, 1] = np.conj(c[..., 0, 1])
    out[..., 1, 0] = np.conj(c[..., 1, 0])
    out[..., 1, 1] = np.conj(c[..., 0, 0])
    return out


@dataclass(frozen=True)
class DynamoMatrix:
    """The dynamo operator for one (alpha, l, n), kept as its blocks.

    ``matvec`` applies H block by block.  ``matrix`` (the dense real
    2n x 2n array, built on first use and read-only) and ``to_csc`` (the
    sparse form for the local eigensolve) are filled from one entries table.
    """

    grid: RadialGrid
    lap: TridiagOp
    q_alpha: TridiagOp
    alpha_nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def size(self) -> int:
        return 2 * self.grid.n

    def _entries(self, shift: float = 0.0) -> tuple:
        """(rows, cols, values) of H - shift * I."""
        n = self.n
        i = np.arange(n)
        j = np.arange(n - 1)
        tri_rows = np.concatenate([i, j + 1, j])
        tri_cols = np.concatenate([i, j, j + 1])
        lap = np.concatenate([self.lap.diag - shift, self.lap.off, self.lap.off])
        q_a = np.concatenate([self.q_alpha.diag, self.q_alpha.off, self.q_alpha.off])
        rows = np.concatenate([tri_rows, i, tri_rows + n, tri_rows + n])
        cols = np.concatenate([tri_cols, i + n, tri_cols, tri_cols + n])
        return rows, cols, np.concatenate([lap, self.alpha_nodes, q_a, lap])

    @cached_property
    def matrix(self) -> np.ndarray:
        rows, cols, vals = self._entries()
        m = np.zeros((self.size, self.size))
        m[rows, cols] = vals
        m.setflags(write=False)
        return m

    def to_csc(self, shift: float = 0.0):
        """H - shift * I as a scipy.sparse CSC array."""
        from scipy.sparse import csc_array

        rows, cols, vals = self._entries(shift)
        order = np.lexsort((rows, cols))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=self.size))))
        return csc_array((vals[order], rows[order], indptr), shape=(self.size, self.size))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for a real or complex vector of length 2n, without forming H."""
        v = np.asarray(v)
        if v.shape != (self.size,):
            raise ShapeError(f"vector must have length {self.size}, got shape {v.shape}")
        u1, u2 = v[: self.n], v[self.n :]
        top = self.lap.matvec(u1) + self.alpha_nodes * u2
        return np.concatenate([top, self.q_alpha.matvec(u1) + self.lap.matvec(u2)])


def assemble(grid: RadialGrid, alpha, l: int) -> DynamoMatrix:
    """Assemble the 2n x 2n dynamo operator; alpha may be any bounded real profile."""
    if l < 1:
        raise DomainError(f"angular mode number must satisfy l >= 1, got l={l}")
    lap = laplacian_l(grid, l)
    q_a = diffusion_alpha(grid, alpha, l)
    a_nodes = np.array(alpha(grid.nodes), dtype=float)
    a_nodes.setflags(write=False)
    return DynamoMatrix(grid=grid, lap=lap, q_alpha=q_a, alpha_nodes=a_nodes)


def pseudo_hermiticity_residual(m: DynamoMatrix | np.ndarray) -> float:
    """Max-norm of J M^T J - M; exactly zero for every assembled matrix."""
    a = m.matrix if isinstance(m, DynamoMatrix) else np.asarray(m)
    size = a.shape[0]
    if a.shape != (size, size) or size % 2:
        raise ShapeError("pseudo_hermiticity_residual needs a square matrix of even size")
    n = size // 2
    jmtj = np.empty_like(a)
    jmtj[:n, :n] = a[n:, n:].T
    jmtj[:n, n:] = a[:n, n:].T
    jmtj[n:, :n] = a[n:, :n].T
    jmtj[n:, n:] = a[:n, :n].T
    return float(np.max(np.abs(jmtj - a)))


@dataclass(frozen=True)
class PencilCoefficients:
    """Real coefficients of the scalar quadratic a2 l^2 + a1 l + a0 for one u1."""

    a0: float
    a1: float
    a2: float
    discriminant: float


_IMAG_TOL = 1e-10


def pencil_coefficients(m: DynamoMatrix, psi1: np.ndarray) -> PencilCoefficients:
    """Evaluate the pencil functionals a_j = (A_j psi1, psi1) for a trial field psi1."""
    psi1 = np.asarray(psi1)
    if psi1.shape != (m.n,):
        raise ShapeError(f"psi1 must have length {m.n}, got shape {psi1.shape}")
    if not np.any(np.abs(psi1) > 0):
        raise DomainError("psi1 must be nonzero")
    if np.any(m.alpha_nodes == 0.0):
        raise DomainError(
            "alpha vanishes on a grid node; the quadratic pencil needs alpha != 0"
        )
    q1 = -m.lap
    inv_a = 1.0 / m.alpha_nodes
    a2_vec = inv_a * psi1
    q1_psi = q1.matvec(psi1)
    a1_vec = q1.matvec(inv_a * psi1) + inv_a * q1_psi
    a0_vec = q1.matvec(inv_a * q1_psi) - m.q_alpha.matvec(psi1)

    out = []
    for vec in (a0_vec, a1_vec, a2_vec):
        raw = inner_product(m.grid, vec, psi1)
        if abs(raw.imag) > _IMAG_TOL * max(abs(raw), 1e-300):
            raise SolverError(
                f"pencil functional has non-real value {raw!r}; "
                "symmetric quadratic forms must be real to rounding"
            )
        out.append(raw.real)
    a0, a1, a2 = out
    return PencilCoefficients(a0=a0, a1=a1, a2=a2, discriminant=a1 * a1 - 4.0 * a0 * a2)


def lambda_pm(c: PencilCoefficients) -> Tuple[complex, complex]:
    """Both roots of the scalar quadratic; complex pair when the discriminant < 0."""
    if c.a2 == 0.0:
        raise DegeneratePencilError("leading pencil coefficient a2 is zero")
    disc = c.discriminant
    if disc >= 0.0:
        root = np.sqrt(disc)
        return ((-c.a1 + root) / (2 * c.a2), (-c.a1 - root) / (2 * c.a2))
    root = np.sqrt(-disc)
    return (
        complex(-c.a1, root) / (2 * c.a2),
        complex(-c.a1, -root) / (2 * c.a2),
    )


def pencil_psi2(m: DynamoMatrix, psi1: np.ndarray, lam: complex) -> np.ndarray:
    """Reconstruct the second component u2 = (1/alpha)(Q1 + lambda) u1."""
    if np.any(m.alpha_nodes == 0.0):
        raise DomainError("alpha vanishes on a grid node; cannot reconstruct psi2")
    return ((-m.lap).matvec(psi1) + lam * np.asarray(psi1)) / m.alpha_nodes
