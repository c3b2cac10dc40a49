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
derives H v, its infinity norm, the dense matrix, the band form and the
pivot determinants of the block LU of H - z from them, and the
pencil functionals read the same blocks, so the layout of H is known here
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import RadialGrid, TridiagOp, _freeze, flux_form, inner_product, laplacian_l


def sharp(c: np.ndarray) -> np.ndarray:
    """The involution C -> J C^dagger J (swap diagonal, conjugate all entries).

    Batched over leading axes: c has shape (..., 2, 2).
    """
    c = np.asarray(c)
    if c.shape[-2:] != (2, 2):
        raise ConfigurationError(f"sharp is defined for (..., 2, 2) arrays, got shape {c.shape}")
    out = np.empty_like(c)
    out[..., 0, 0] = np.conj(c[..., 1, 1])
    out[..., 0, 1] = np.conj(c[..., 0, 1])
    out[..., 1, 0] = np.conj(c[..., 1, 0])
    out[..., 1, 1] = np.conj(c[..., 0, 0])
    return out


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple:
    """Rows and cols of H's entries, then their flat positions in ``DynamoMatrix.band``."""
    i = np.arange(n)
    j = np.arange(n - 1)
    tri_rows = np.concatenate([i, j + 1, j])
    tri_cols = np.concatenate([i, j, j + 1])
    rows = np.concatenate([tri_rows, i, tri_rows + n, tri_rows + n])
    cols = np.concatenate([tri_cols, i + n, tri_cols, tri_cols + n])
    kl, ku = DynamoMatrix.BAND
    r, c = 2 * (rows % n) + rows // n, 2 * (cols % n) + cols // n  # u1_i -> 2i, u2_i -> 2i + 1
    return tuple(_freeze(a) for a in (rows, cols, (kl + ku + r - c) * (2 * n) + c))


@dataclass(frozen=True)
class DynamoMatrix:
    """The dynamo operator for one (alpha, l, n), kept as its blocks.

    ``matvec`` applies H block by block.  ``matrix`` (the dense real
    2n x 2n array, built on first use and read-only) and ``band`` (the LAPACK
    band form for the local eigensolve) are filled from one entries table.
    """

    BAND = (3, 2)  # (kl, ku): sub- and superdiagonals of H numbered node by node

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
        lap = np.concatenate([self.lap.diag - shift, self.lap.off, self.lap.off])
        q_a = np.concatenate([self.q_alpha.diag, self.q_alpha.off, self.q_alpha.off])
        rows, cols = _layout(self.n)[:2]
        return rows, cols, np.concatenate([lap, self.alpha_nodes, q_a, lap])

    @cached_property
    def matrix(self) -> np.ndarray:
        rows, cols, vals = self._entries()
        m = np.zeros((self.size, self.size))
        m[rows, cols] = vals
        m.setflags(write=False)
        return m

    def band(self, shift: float = 0.0) -> np.ndarray:
        """H - shift * I numbered node by node, (u1_i, u2_i), in LAPACK band storage, (kl, ku) = ``BAND``.

        Entry (r, c) sits at [kl + ku + r - c, c]; the first kl rows stay zero for the fill of dgbtrf.
        """
        kl, ku = self.BAND
        ab = np.zeros((2 * kl + ku + 1, self.size))
        ab.flat[_layout(self.n)[2]] = self._entries(shift)[2]
        return ab

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for a real or complex vector of length 2n, or each column of a (2n, k) array, without forming H."""
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.size:
            raise ConfigurationError(f"vector must have length {self.size}, got shape {v.shape}")
        u1, u2 = v[: self.n], v[self.n :]
        alpha = self.alpha_nodes if v.ndim == 1 else self.alpha_nodes[:, None]
        top = self.lap.matvec(u1) + alpha * u2
        return np.concatenate([top, self.q_alpha.matvec(u1) + self.lap.matvec(u2)])

    def norm_inf(self) -> float:
        """||H||_inf, the largest absolute row sum, read from the blocks."""

        def row_sums(t: TridiagOp) -> np.ndarray:
            r = np.abs(t.diag)
            r[1:] += np.abs(t.off)
            r[:-1] += np.abs(t.off)
            return r

        lap = row_sums(self.lap)
        return float(max(np.max(lap + np.abs(self.alpha_nodes)), np.max(row_sums(self.q_alpha) + lap)))

    def pivot_determinants(self, shifts) -> np.ndarray:
        """Block LU of H - z for each shift z, node by node: the pivot determinants, shape (n, len(shifts)).

        Numbered node by node as (u1_i, u2_i), H - z is block tridiagonal:
        diagonal blocks D_i = [[lap_i - z, alpha_i], [q_i, lap_i - z]] and both
        off-diagonal blocks E_i = [[lap.off_i, 0], [q.off_i, lap.off_i]].  The
        factorization runs over the nodes without pivoting, vectorized over the
        shifts, in O(n) per shift.  Row i holds the determinant of the pivot
        U_i = D_i - E U_{i-1}^{-1} E; det(H - z) is the product of the rows.
        Each node is four numpy calls.  One real 4 x 6 product gives U_i: its
        first four columns hold -E adj(.) E with the adjugate's signs and swap
        folded in, applied to U_{i-1} / det(U_{i-1}), whose adjugate is
        U_{i-1}^{-1}; the fifth the constant (lap_i, alpha_i, lap_i, q_i)
        against a row of ones; the sixth -1 on the diagonal against the row
        of shifts.  One complex product and one difference give det(U_i), and
        one division scales U_i for the next node, so every intermediate stays
        near the size of the pivots.  U's entries are kept in the order 00,
        01, 11, 10, so that det = U_00 U_11 - U_01 U_10 multiplies the first
        two rows by the last two.  A zero pivot gives non-finite entries from
        there on.
        """
        z = np.asarray(shifts, dtype=complex)
        l, g = self.lap.off, self.q_alpha.off
        ll, lg, gg, o = l * l, l * g, g * g, np.zeros_like(l)
        k = np.array([[o, lg, -ll, o], [o, ll, o, o], [-ll, lg, o, o], [-lg, gg, -lg, ll]])
        w = np.zeros((self.n, 4, 6))  # rows: U_i's entries 00, 01, 11, 10; columns: U_{i-1}'s, then 1, z
        w[1:, :, :4] = np.moveaxis(k, -1, 0)
        w[:, :, 4] = np.stack([self.lap.diag, self.alpha_nodes, self.lap.diag, self.q_alpha.diag], axis=1)
        w[:, ::2, 5] = -1.0
        x = np.zeros((6, z.size), dtype=complex)  # U_{i-1} / det, then the row of ones and the shifts
        x[4] = 1.0
        x[5] = z
        u = np.empty((4, z.size), dtype=complex)
        products = np.empty((2, z.size), dtype=complex)
        dets = np.empty((self.n, z.size), dtype=complex)
        x_parts, u_parts = x.view(float), u.view(float)  # real and imaginary parts side by side
        for w_i, det in zip(w, dets):
            np.dot(w_i, x_parts, out=u_parts)
            np.multiply(u[:2], u[2:], out=products)
            np.subtract(products[0], products[1], out=det)
            np.divide(u, det, out=x[:4])
        return dets


def scaled_family(grid: RadialGrid, alpha, l: int) -> Callable[[float], DynamoMatrix]:
    """C -> the dynamo operator of the scaled profile C * alpha; alpha may be any bounded real profile.

    lap_l, l(l+1)/r^2 and alpha's samples at the half nodes and the nodes are
    formed once, and each C scales the samples.  Each H(C) raises
    ConfigurationError when one of its entries is not finite, so no solver
    sees one.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the finiteness check
        lap = laplacian_l(grid, l)
        centrifugal = l * (l + 1) / grid.nodes ** 2
        a_half = np.asarray(alpha(grid.half_nodes), dtype=float)
        a_nodes = np.asarray(alpha(grid.nodes), dtype=float)

    def family(c: float) -> DynamoMatrix:
        c = float(c)
        with np.errstate(over="ignore", invalid="ignore"):
            c_nodes = _freeze(c * a_nodes)
            q_a = flux_form(grid, c * a_half, c_nodes * centrifugal)
        if not np.isfinite(np.concatenate([lap.diag, lap.off, q_a.diag, q_a.off, c_nodes])).all():
            raise ConfigurationError(f"operator entries overflow or are not finite (l={l}, n={grid.n})")
        return DynamoMatrix(grid=grid, lap=lap, q_alpha=q_a, alpha_nodes=c_nodes)

    return family


def assemble(grid: RadialGrid, alpha, l: int) -> DynamoMatrix:
    """Assemble the 2n x 2n dynamo operator: ``scaled_family`` at C = 1, which scales each sample exactly."""
    return scaled_family(grid, alpha, l)(1.0)


def pseudo_hermiticity_residual(m: DynamoMatrix | np.ndarray) -> float:
    """Max-norm of J M^T J - M; exactly zero for every assembled matrix."""
    a = m.matrix if isinstance(m, DynamoMatrix) else np.asarray(m)
    size = a.shape[0]
    if a.shape != (size, size) or size % 2:
        raise ConfigurationError("pseudo_hermiticity_residual needs a square matrix of even size")
    n = size // 2
    jmtj = np.empty_like(a)
    jmtj[:n, :n] = a[n:, n:].T
    jmtj[:n, n:] = a[:n, n:].T
    jmtj[n:, :n] = a[n:, :n].T
    jmtj[n:, n:] = a[:n, :n].T
    return float(np.max(np.abs(jmtj - a)))


@dataclass(frozen=True)
class PencilCoefficients:
    """Real coefficients of the scalar quadratic a2 l^2 + a1 l + a0 for one u1, or one array of k for a block."""

    a0: float
    a1: float
    a2: float
    discriminant: float


_IMAG_TOL = 1e-10


def pencil_coefficients(m: DynamoMatrix, psi1: np.ndarray) -> PencilCoefficients:
    """The pencil functionals a_j = (A_j psi1, psi1) of a trial field psi1, or of each column of an (n, k) block.

    A block gives arrays of length k in every field, and column j's values
    equal the one-column call's on psi1[:, j] bit for bit: that call is the
    k = 1 case of the same code, and ``inner_product`` sums each row alike.
    Every column must be nonzero (ConfigurationError); a non-finite or non-real
    form raises SolverError for the first column that has one.
    """
    psi1 = np.asarray(psi1)
    if psi1.ndim not in (1, 2) or psi1.shape[0] != m.n:
        raise ConfigurationError(f"psi1 must have length {m.n}, or be an (n, k) block, got shape {psi1.shape}")
    psi = psi1.reshape(m.n, -1)  # one column per field
    if not np.any(np.abs(psi) > 0, axis=0).all():
        raise ConfigurationError("psi1 must be nonzero, in every column")
    if np.any(m.alpha_nodes == 0.0):
        raise ConfigurationError(
            "alpha vanishes on a grid node; the quadratic pencil needs alpha != 0"
        )
    q1 = -m.lap
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        inv_a = 1.0 / m.alpha_nodes[:, None]  # an infinite 1/alpha makes every a_j inf or NaN
        a2_vec = inv_a * psi
        q1_psi = q1.matvec(psi)
        a1_vec = q1.matvec(a2_vec) + inv_a * q1_psi
        a0_vec = q1.matvec(inv_a * q1_psi) - m.q_alpha.matvec(psi)
        raws = inner_product(m.grid, np.stack([a0_vec.T, a1_vec.T, a2_vec.T]), psi.T)  # (3, k)
        a0, a1, a2 = raws.real
        disc = a1 * a1 - 4.0 * a0 * a2
        non_real = np.abs(raws.imag) > _IMAG_TOL * np.maximum(np.abs(raws), 1e-300)
    finite = np.isfinite(raws).all(axis=0) & np.isfinite(disc)
    bad = ~finite | non_real.any(axis=0)
    if bad.any():
        j = int(np.argmax(bad))
        if not finite[j]:
            values = ", ".join(repr(float(a[j])) for a in (a0, a1, a2))
            raise SolverError(f"pencil functionals or discriminant not finite ({values}; {float(disc[j])!r})")
        raise SolverError(
            f"pencil functional has non-real value {complex(raws[np.argmax(non_real[:, j]), j])!r}; "
            "symmetric quadratic forms must be real to rounding"
        )
    fields = (a0, a1, a2, disc)
    if psi1.ndim == 1:
        fields = [float(f[0]) for f in fields]
    return PencilCoefficients(*fields)


def lambda_pm(c: PencilCoefficients) -> Tuple[complex, complex]:
    """Both roots of the scalar quadratic of one u1; complex pair when the discriminant < 0."""
    if c.a2 == 0.0:
        raise SolverError("leading pencil coefficient a2 is zero")
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
    """Reconstruct the second component u2 = (1/alpha)(Q1 + lambda) u1; an (n, k) block of u1 takes k lambdas."""
    if np.any(m.alpha_nodes == 0.0):
        raise ConfigurationError("alpha vanishes on a grid node; cannot reconstruct psi2")
    psi1, lam = np.asarray(psi1), np.asarray(lam)
    if lam.shape != psi1.shape[1:]:
        raise ConfigurationError(f"need one lambda per column of psi1, got shapes {lam.shape} and {psi1.shape}")
    alpha = m.alpha_nodes if psi1.ndim == 1 else m.alpha_nodes[:, None]
    return ((-m.lap).matvec(psi1) + lam * psi1) / alpha
