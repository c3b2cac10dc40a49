"""Scalar Darboux/intertwining transformations on (0,1) with Dirichlet ends.

This is the positive control of the package: for one-dimensional Schrodinger
operators H = -d^2/dx^2 + V(x) the first-order intertwining construction is
classical and must work.  Given a nodeless seed chi0 with H0 chi0 = E chi0,
the superpotential f = -chi0'/chi0 produces the partner potential
V1 = V0 + 2 f', the shifted operators factorize as

    H0 - E = Adag A,    H1 - E = A Adag,      A = d/dx + f,

and H1 is isospectral to H0 except for the seed level E.  The partner-mode
solution chi1 of H1 chi1 = E chi1 satisfies the product relation
chi0 * chi1 = const.

The domain is fixed to (0,1) with Dirichlet conditions so the machinery of
the radial grid can be reused; everything is evaluated on interior nodes only
(partner potentials like 2 pi^2 / sin^2(pi x) blow up at the endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, ShapeError, SingularSuperpotentialError
from .grid import RadialGrid, TridiagOp
from .mre import rk4_linear


@dataclass(frozen=True)
class Potential1D:
    """Real potential on (0,1); may be singular at the endpoints."""

    v: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, x):
        return self.v(np.asarray(x, dtype=float))

    def sample(self, grid: RadialGrid) -> np.ndarray:
        vals = np.asarray(self(grid.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ShapeError(f"potential {self.label!r} not finite on interior nodes")
        return vals


class GroundState:
    """Seed mode: use the discrete ground state of H0 as chi0."""


@dataclass(frozen=True)
class GivenSeed:
    """Seed mode: a user-supplied nodeless chi0(x) with its factorization energy."""

    chi0: Callable[[np.ndarray], np.ndarray]
    energy: float


def schrodinger_tridiag(grid: RadialGrid, v: Potential1D) -> TridiagOp:
    """Second-order discretization of -d^2/dx^2 + V with Dirichlet ends."""
    h2 = grid.h**2
    diag = 2.0 / h2 + v.sample(grid)
    off = np.full(grid.n - 1, -1.0 / h2)
    diag.setflags(write=False)
    off.setflags(write=False)
    return TridiagOp(diag=diag, off=off)


@dataclass(frozen=True)
class DarbouxPair:
    """A potential pair connected by V1 = V0 + 2 f' with f = -(log chi0)'."""

    v0: Potential1D
    v1: Potential1D
    energy: float
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    chi0: np.ndarray
    grid: RadialGrid


# The six stencil nodes sit at s = -2..3 in units of h from the node left of
# x; row m of this inverse Vandermonde matrix maps the six samples to the
# coefficient of s**m of their interpolating quintic.
_QUINTIC_NODES = np.arange(-2.0, 4.0)
_QUINTIC_COEF = np.linalg.inv(np.vander(_QUINTIC_NODES, increasing=True))


class LocalQuintic:
    """Six-point Lagrange interpolant of samples on the interior grid nodes.

    A point x between nodes j and j+1 uses nodes j-2..j+3, shifted inwards
    next to the ends, so it is exact for polynomials of degree five.  Calling
    it gives the value and the first and second x-derivatives at any x in
    [0, 1]; the polynomial coefficients of every stencil are computed once.
    """

    def __init__(self, grid: RadialGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.n,):
            raise ShapeError(f"need {grid.n} samples on the grid nodes, got shape {samples.shape}")
        if grid.n < _QUINTIC_NODES.size:
            raise ConfigurationError(f"a local quintic needs at least 6 nodes, got n={grid.n}")
        self._h = grid.h
        # rows: stencils; columns: coefficients of s**m of the value, d/dx, d2/dx2
        c0 = np.lib.stride_tricks.sliding_window_view(samples, 6) @ _QUINTIC_COEF.T
        self._coef = (
            c0,
            c0[:, 1:] * (np.arange(1, 6) / grid.h),
            c0[:, 2:] * (np.arange(1, 5) * np.arange(2, 6) / grid.h**2),
        )

    def __call__(self, x):
        """(value, first derivative, second derivative) at x, each shaped like x."""
        u = np.asarray(x, dtype=float) / self._h
        # node index j sits at x = (j + 1) h; the stencil of [x_j, x_j+1] starts at j - 2
        k = np.clip(np.floor(u).astype(int) - 3, 0, self._coef[0].shape[0] - 1)
        s = u - (k + 3)
        return tuple(_horner(c[k], s) for c in self._coef)


def _horner(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate polynomials with coefficients coef[..., m] of s**m at s."""
    out = coef[..., -1]
    for m in range(coef.shape[-1] - 2, -1, -1):
        out = out * s + coef[..., m]
    return out


def _nodeless_or_raise(samples: np.ndarray) -> np.ndarray:
    """Return the seed with positive sign convention, or raise on a node."""
    s = np.sign(samples[np.argmax(np.abs(samples))])
    fixed = s * samples
    if np.min(fixed) <= 0.0:
        raise SingularSuperpotentialError(
            "seed function has a node on (0,1); the superpotential would be singular"
        )
    return fixed


def darboux_partner(
    v0: Potential1D,
    grid: RadialGrid,
    mode: Union[GroundState, GivenSeed] = GroundState(),
) -> DarbouxPair:
    """Construct the partner potential from a nodeless seed.

    GroundState mode takes chi0 and E from the lowest discrete eigenpair of
    H0; GivenSeed uses the supplied function and energy.  Both differentiate
    the seed samples through the same ``LocalQuintic``, so the two modes agree
    wherever the discrete ground state matches the supplied seed.
    """
    from scipy.linalg import eigh_tridiagonal  # on use: slow to import

    if isinstance(mode, GroundState):
        h0 = schrodinger_tridiag(grid, v0)
        vals, vecs = eigh_tridiagonal(h0.diag, h0.off, select="i", select_range=(0, 0))
        energy = float(vals[0])
        chi0 = _nodeless_or_raise(vecs[:, 0])
    elif isinstance(mode, GivenSeed):
        energy = float(mode.energy)
        chi0 = _nodeless_or_raise(np.asarray(mode.chi0(grid.nodes), dtype=float))
    else:
        raise ConfigurationError(f"unknown Darboux seed mode {mode!r}")

    # f = -(log chi0)' = -chi0'/chi0, differentiated through a local quintic
    # of the seed itself: the log has unbounded higher derivatives where the
    # seed vanishes, the seed does not
    seed = LocalQuintic(grid, chi0)

    def f(x):
        p, p1, _ = seed(x)
        return -p1 / p

    def fprime(x):
        p, p1, p2 = seed(x)
        ratio = p1 / p
        return -p2 / p + ratio**2

    v1 = Potential1D(
        v=lambda x: v0(np.asarray(x, dtype=float)) + 2.0 * fprime(x),
        label=f"partner({v0.label})",
    )
    return DarbouxPair(v0=v0, v1=v1, energy=energy, f=f, fprime=fprime, chi0=chi0, grid=grid)


@dataclass(frozen=True)
class IsospectralLevel:
    level: int
    e0: float
    e1: float
    rel_err: float
    ok: bool


@dataclass(frozen=True)
class IsospectralReport:
    levels: list
    seed_energy: float
    lowest_partner_level: float
    seed_deleted: bool

    @property
    def all_ok(self) -> bool:
        return self.seed_deleted and all(row.ok for row in self.levels)


def verify_isospectral(pair: DarbouxPair, levels: int, tol: float) -> IsospectralReport:
    """Check spec(H1) against spec(H0) with the seed level removed.

    Level m of H1 is compared with level m+1 of H0 (relative tolerance tol),
    and the seed energy must be absent from the partner spectrum: the lowest
    H1 level has to sit at or above H0's second level.
    """
    if levels > 20:
        raise ConfigurationError("isospectrality check supports at most 20 levels")
    if levels < 1:
        raise ConfigurationError("need at least one level")
    from scipy.linalg import eigh_tridiagonal  # on use: slow to import

    h0 = schrodinger_tridiag(pair.grid, pair.v0)
    h1 = schrodinger_tridiag(pair.grid, pair.v1)
    e0 = eigh_tridiagonal(h0.diag, h0.off, select="i", select_range=(0, levels))[0]
    e1 = eigh_tridiagonal(h1.diag, h1.off, select="i", select_range=(0, levels - 1))[0]
    rows = []
    for m in range(levels):
        rel = abs(e1[m] - e0[m + 1]) / abs(e0[m + 1])
        rows.append(
            IsospectralLevel(level=m + 1, e0=float(e0[m + 1]), e1=float(e1[m]), rel_err=float(rel), ok=bool(rel <= tol))
        )
    seed_deleted = bool(e1[0] >= e0[1] * (1.0 - tol))
    return IsospectralReport(
        levels=rows,
        seed_energy=pair.energy,
        lowest_partner_level=float(e1[0]),
        seed_deleted=seed_deleted,
    )


def _central_difference(w: np.ndarray, h: float) -> np.ndarray:
    """Central difference along axis 0 with Dirichlet zero-padding outside the interior."""
    out = np.zeros_like(w)
    out[1:-1] = (w[2:] - w[:-2]) / (2 * h)
    out[0] = w[1] / (2 * h)
    out[-1] = -w[-2] / (2 * h)
    return out


_N_TEST_VECTORS = 16
_TEST_SEED = 20230917


def _smooth_test_vectors(grid: RadialGrid, count: int = _N_TEST_VECTORS) -> np.ndarray:
    """Random smooth vectors vanishing quadratically at both endpoints, |w|_inf = 1."""
    rng = np.random.default_rng(_TEST_SEED)
    x = grid.nodes
    envelope = (x * (1.0 - x)) ** 2
    out = np.empty((count, grid.n))
    for i in range(count):
        coeffs = rng.standard_normal(6)
        w = envelope * sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        out[i] = w / np.max(np.abs(w))
    return out


def factorization_residual(pair: DarbouxPair, grid: RadialGrid):
    """Max-norm residuals of (H0-E) - Adag A and (H1-E) - A Adag on smooth test vectors.

    A = D + f with D the central difference; residuals are normalized by the
    row-sum norm of H0 and are discretization-limited (second order in h).
    """
    e = pair.energy
    fx = np.asarray(pair.f(grid.nodes), dtype=float)
    h0 = schrodinger_tridiag(grid, pair.v0)
    h1 = schrodinger_tridiag(grid, pair.v1)
    norm_h0 = float(np.max(np.abs(h0.diag)) + 2.0 / grid.h**2)

    def apply_a(w):
        return _central_difference(w, grid.h) + fx * w

    def apply_adag(w):
        return -_central_difference(w, grid.h) + fx * w

    res0 = 0.0
    res1 = 0.0
    for w in _smooth_test_vectors(grid):
        r0 = h0.matvec(w) - e * w - apply_adag(apply_a(w))
        r1 = h1.matvec(w) - e * w - apply_a(apply_adag(w))
        res0 = max(res0, float(np.max(np.abs(r0))))
        res1 = max(res1, float(np.max(np.abs(r1))))
    return res0 / norm_h0, res1 / norm_h0


def partner_mode(pair: DarbouxPair) -> np.ndarray:
    """Integrate H1 chi1 = E chi1 outward from the domain center.

    Initial data chi1 = 1/chi0, chi1' = f/chi0 at the node nearest x = 1/2
    fixes the free constant of the product relation to chi0*chi1 = 1.
    """
    grid = pair.grid
    x = grid.nodes
    idx0 = int(np.argmin(np.abs(x - 0.5)))
    chi_c = float(pair.chi0[idx0])
    y0 = np.array([1.0 / chi_c, float(pair.f(x[idx0])) / chi_c])
    w_nodes = np.asarray(pair.v1(x), dtype=float) - pair.energy
    w_mids = np.asarray(pair.v1(grid.half_nodes[1:-1]), dtype=float) - pair.energy

    def rhs(w, state):
        # (chi, chi')' = (chi', w chi), batched over w and the columns of state
        return np.stack(np.broadcast_arrays(state[..., 1, :], w[..., None] * state[..., 0, :]), -2)

    fwd = rk4_linear(rhs, w_nodes[idx0:], w_mids[idx0:], y0, grid.h)
    back = rk4_linear(rhs, w_nodes[idx0::-1], w_mids[:idx0][::-1], y0, -grid.h)
    return np.concatenate([back[:0:-1, 0], fwd[:, 0]])


def product_invariant_check(
    chi0: np.ndarray,
    chi1: np.ndarray,
    grid: RadialGrid,
    window=(0.1, 0.9),
):
    """Mean of chi0*chi1 over the window and its maximum relative deviation."""
    chi0 = np.asarray(chi0, dtype=float)
    chi1 = np.asarray(chi1, dtype=float)
    if chi0.shape != (grid.n,) or chi1.shape != (grid.n,):
        raise ShapeError("chi0/chi1 must be sampled on the grid nodes")
    mask = (grid.nodes >= window[0]) & (grid.nodes <= window[1])
    prod = chi0[mask] * chi1[mask]
    c_mean = float(np.mean(prod))
    rel_var = float(np.max(np.abs(prod - c_mean)) / abs(c_mean))
    return c_mean, rel_var
