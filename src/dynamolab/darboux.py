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
(partner potentials like 2 pi^2 / sin^2(pi x) blow up at the endpoints).  A
potential is any real callable on arrays of points in (0,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError, SolverError
from .grid import RadialGrid, TridiagOp, central_difference, flux_form, smooth_fields
from .mre import rk4_linear


@dataclass(frozen=True)
class GivenSeed:
    """A user-supplied nodeless seed chi0(x) with its factorization energy."""

    chi0: Callable[[np.ndarray], np.ndarray]
    energy: float


def schrodinger_tridiag(grid: RadialGrid, v: Callable[[np.ndarray], np.ndarray]) -> TridiagOp:
    """Second-order discretization of -d^2/dx^2 + V with Dirichlet ends."""
    vals = np.asarray(v(grid.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("potential not finite on interior nodes")
    return flux_form(grid, np.ones(grid.n + 1), vals)


@dataclass(frozen=True)
class DarbouxPair:
    """A potential pair connected by V1 = V0 + 2 f' with f = -(log chi0)', and its two operators."""

    v0: Callable[[np.ndarray], np.ndarray]
    v1: Callable[[np.ndarray], np.ndarray]
    energy: float
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    chi0: np.ndarray
    grid: RadialGrid
    h0: TridiagOp
    h1: TridiagOp


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
            raise ConfigurationError(f"need {grid.n} samples on the grid nodes, got shape {samples.shape}")
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
        return tuple(npoly.polyval(s, np.moveaxis(c[k], -1, 0), tensor=False) for c in self._coef)


def _nodeless_or_raise(samples: np.ndarray) -> np.ndarray:
    """Return the seed with positive sign convention, or raise on a node."""
    s = np.sign(samples[np.argmax(np.abs(samples))])
    fixed = s * samples
    if np.min(fixed) <= 0.0:
        raise SolverError(
            "seed function has a node on (0,1); the superpotential would be singular"
        )
    return fixed


def darboux_partner(
    v0: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    seed: Optional[GivenSeed] = None,
) -> DarbouxPair:
    """Construct the partner potential from a nodeless seed, and both operators on the grid.

    Without a seed, chi0 and E are the lowest discrete eigenpair of H0; a
    GivenSeed supplies the function and energy.  Both differentiate the seed
    samples through the same ``LocalQuintic``, so the two agree wherever the
    discrete ground state matches the supplied seed.
    """
    from scipy.linalg import eigh_tridiagonal  # on use: slow to import

    h0 = schrodinger_tridiag(grid, v0)
    if seed is None:
        vals, vecs = eigh_tridiagonal(h0.diag, h0.off, select="i", select_range=(0, 0))
        energy = float(vals[0])
        chi0 = _nodeless_or_raise(vecs[:, 0])
    else:
        energy = float(seed.energy)
        chi0 = _nodeless_or_raise(np.asarray(seed.chi0(grid.nodes), dtype=float))

    # f = -(log chi0)' = -chi0'/chi0, differentiated through a local quintic
    # of the seed itself: the log has unbounded higher derivatives where the
    # seed vanishes, the seed does not
    quintic = LocalQuintic(grid, chi0)

    def f(x):
        p, p1, _ = quintic(x)
        return -p1 / p

    def fprime(x):
        p, p1, p2 = quintic(x)
        ratio = p1 / p
        return -p2 / p + ratio**2

    def v1(x):
        return v0(x) + 2.0 * fprime(x)

    return DarbouxPair(
        v0=v0, v1=v1, energy=energy, f=f, fprime=fprime, chi0=chi0, grid=grid,
        h0=h0, h1=schrodinger_tridiag(grid, v1),
    )


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
    lowest_partner_level: float
    seed_deleted: bool

    @property
    def all_ok(self) -> bool:
        return self.seed_deleted and all(row.ok for row in self.levels)


_ISO_TOL = 1e-3  # relative level tolerance of verify_isospectral


def verify_isospectral(pair: DarbouxPair, levels: int) -> IsospectralReport:
    """Check spec(H1) against spec(H0) with the seed level removed.

    Level m of H1 is compared with level m+1 of H0 (relative tolerance _ISO_TOL),
    and the seed energy must be absent from the partner spectrum: the lowest
    H1 level has to sit at or above H0's second level.
    """
    if levels > 20:
        raise ConfigurationError("isospectrality check supports at most 20 levels")
    if levels < 1:
        raise ConfigurationError("need at least one level")
    if levels > pair.grid.n - 1:
        raise ConfigurationError(f"{levels} levels need n >= {levels + 1}, got n={pair.grid.n}")
    from scipy.linalg import eigh_tridiagonal  # on use: slow to import

    h0, h1 = pair.h0, pair.h1
    e0 = eigh_tridiagonal(h0.diag, h0.off, eigvals_only=True, select="i", select_range=(0, levels))
    e1 = eigh_tridiagonal(h1.diag, h1.off, eigvals_only=True, select="i", select_range=(0, levels - 1))
    rows = []
    for m in range(levels):
        rel = abs(e1[m] - e0[m + 1]) / abs(e0[m + 1])
        rows.append(
            IsospectralLevel(level=m + 1, e0=float(e0[m + 1]), e1=float(e1[m]), rel_err=float(rel), ok=bool(rel <= _ISO_TOL))
        )
    seed_deleted = bool(e1[0] >= e0[1] * (1.0 - _ISO_TOL))
    return IsospectralReport(
        levels=rows,
        lowest_partner_level=float(e1[0]),
        seed_deleted=seed_deleted,
    )


def factorization_residual(pair: DarbouxPair):
    """Max-norm residuals of (H0-E) - Adag A and (H1-E) - A Adag on the shared smooth fields.

    The fields are ``smooth_fields`` on all of (0, 1), and A = D + f with D
    the central difference on the pair's grid; residuals are normalized by
    the row-sum norm of H0 and are discretization-limited (second order in h).
    """
    grid = pair.grid
    e = pair.energy
    fx = np.asarray(pair.f(grid.nodes), dtype=float)[:, None]
    norm_h0 = float(np.max(np.abs(pair.h0.diag)) + 2.0 / grid.h**2)

    def apply_a(w):
        return central_difference(w, grid.h) + fx * w

    def apply_adag(w):
        return -central_difference(w, grid.h) + fx * w

    w = smooth_fields(grid.nodes, (0.0, 1.0)).T  # one column per field
    res0 = float(np.max(np.abs(pair.h0.matvec(w) - e * w - apply_adag(apply_a(w)))))
    res1 = float(np.max(np.abs(pair.h1.matvec(w) - e * w - apply_a(apply_adag(w)))))
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


_PRODUCT_WINDOW = (0.1, 0.9)  # clear of the ends, where chi1 = 1/chi0 blows up


def product_invariant_check(chi0: np.ndarray, chi1: np.ndarray, grid: RadialGrid):
    """Mean of chi0*chi1 over _PRODUCT_WINDOW and its maximum relative deviation.

    A zero or non-finite mean has no relative deviation: it raises ConfigurationError.
    """
    chi0 = np.asarray(chi0, dtype=float)
    chi1 = np.asarray(chi1, dtype=float)
    if chi0.shape != (grid.n,) or chi1.shape != (grid.n,):
        raise ConfigurationError("chi0/chi1 must be sampled on the grid nodes")
    mask = (grid.nodes >= _PRODUCT_WINDOW[0]) & (grid.nodes <= _PRODUCT_WINDOW[1])
    prod = chi0[mask] * chi1[mask]
    c_mean = float(np.mean(prod))
    if c_mean == 0.0 or not np.isfinite(c_mean):
        raise ConfigurationError(f"the mean product chi0*chi1 must be finite and nonzero, got {c_mean!r}")
    rel_var = float(np.max(np.abs(prod - c_mean)) / abs(c_mean))
    return c_mean, rel_var
