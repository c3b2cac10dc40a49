"""Eigenvalue branch tracking under profile scaling and exceptional-point bisection.

A sweep scales a base profile, alpha_C(r) = C * alpha*(r), solves the full
spectrum at the first C (which defines the leading branches by Re) and at
every later C only the eigenvalues near the previous branch values, and
follows the leading branches by nearest-neighbor matching in the complex
plane.  A local solve comes with a disk that holds every eigenvalue inside
it; its match is accepted only when no branch moves as far as the disk
reaches past the previous values, which makes it the match the full spectrum
gives, and otherwise that C is solved densely.  Where a matched step moves a
branch farther than a quarter of the distance to its neighbors, the step is
halved (up to six times) before matching, so branch identities cannot
silently jump between well-separated modes.  A pair of branches that
collides and turns into a conjugate pair is the tracked phenomenon, not a
matching failure: such pairs are exempt from the refinement criterion and
are recorded as events.

locate_ep bisects the signed indicator g(C) = max|Im| - |Re gap|/2 of a
selected eigenvalue pair; g changes sign exactly where the pair switches
between two real branches and one conjugate pair.  With a reference value
the pair comes from a local solve near it, under the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import build_grid
from .operator import DynamoMatrix, scaled_family
from .profiles import AlphaProfile
from .spectral import PAIR_TOL, Spectrum, eigen

MatrixFamily = Callable[[float], Union[DynamoMatrix, np.ndarray]]

MAX_REFINEMENTS = 6
MOVE_GAP_RATIO = 0.25


def dynamo_family(base: AlphaProfile, l: int, n: int) -> MatrixFamily:
    """Matrix family C -> dynamo operator for the scaled profile C * alpha*, on the n-node grid.

    ``operator.scaled_family`` samples alpha* once, so family(C) equals
    ``assemble(grid, base.scaled(C), l)`` entry for entry.
    """
    return scaled_family(build_grid(n), base, l)


@dataclass(frozen=True)
class SweepConfig:
    base: AlphaProfile
    c_min: float
    c_max: float
    steps: int
    l: int = 1
    n: int = 100
    track_count: int = 6

    def __post_init__(self) -> None:
        if not np.isfinite([self.c_min, self.c_max]).all():
            raise ConfigurationError(f"need finite c_min and c_max, got [{self.c_min}, {self.c_max}]")
        if not self.c_min < self.c_max:
            raise ConfigurationError(f"need c_min < c_max, got [{self.c_min}, {self.c_max}]")
        if not np.isfinite(float(self.c_max) - float(self.c_min)):  # np.linspace would overflow
            raise ConfigurationError(f"the width of [{self.c_min}, {self.c_max}] is not finite")
        if self.steps < 2:
            raise ConfigurationError(f"need at least 2 sweep steps, got {self.steps}")
        if self.track_count < 1:
            raise ConfigurationError("track_count must be positive")


@dataclass(frozen=True)
class BranchEvent:
    c_lo: float
    c_hi: float
    branches: Tuple[int, int]
    kind: str  # RealToComplex | ComplexToReal | Crossing


@dataclass(frozen=True)
class BranchTrace:
    c_values: np.ndarray
    branches: np.ndarray  # (track_count, steps) complex
    events: list
    step_bounds: np.ndarray  # per-interval recorded movement bound
    dense_solves: int  # solves that took the dense path, the first C included

    @property
    def track_count(self) -> int:
        return self.branches.shape[0]


def _greedy_assign(prev: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Injective nearest-neighbor assignment, greedy by distance with ties by row-major index."""
    dist = np.abs(prev[:, None] - vals[None, :])
    rows, cols = np.divmod(np.argsort(dist, axis=None, kind="stable"), vals.shape[0])
    assigned = [-1] * prev.shape[0]
    used = set()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if assigned[i] < 0 and j not in used:
            assigned[i] = j
            used.add(j)
            if len(used) == len(assigned):
                break
    matched = vals[assigned]
    return matched, np.abs(matched - prev)


def _transition_pairs(prev: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """Symmetric mask of the branch pairs that switch between two-real and conjugate-pair states."""
    in_band_b = np.abs(matched.imag) <= PAIR_TOL
    flips = (np.abs(prev.imag) <= PAIR_TOL) != in_band_b
    if not flips.any():
        return np.zeros((prev.shape[0],) * 2, dtype=bool)
    # partners on branch i's complex side; hypot rounds like abs(), np.abs of an array may not
    side = np.where(in_band_b[:, None], prev[:, None] - np.conj(prev), matched[:, None] - np.conj(matched))
    close = np.hypot(side.real, side.imag) <= 1e-6 * (1.0 + np.max(np.abs(matched)))
    pairs = np.triu(close & flips[:, None] & flips[None, :], 1)
    return pairs | pairs.T


def _advance(
    spectrum_at: Callable[..., Spectrum],
    prev: np.ndarray,
    c_a: float,
    c_b: float,
    depth: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Match branches from c_a to c_b, refining the step when movement is ambiguous.

    Every value the greedy match picks lies within max(movement) of prev, so
    when a local spectrum lists every eigenvalue that near prev (covers),
    the match is the one on the full spectrum; otherwise C is solved densely.
    """
    spec = spectrum_at(c_b, prev)
    matched, movement = _greedy_assign(prev, spec.eigenvalues)
    if not spec.covers(prev, movement.max()):
        matched, movement = _greedy_assign(prev, spectrum_at(c_b).eigenvalues)
    exempt = _transition_pairs(prev, matched)
    floor = 1e-9 * (1.0 + np.max(np.abs(prev)))
    diff = prev[:, None] - prev[None, :]
    d = np.hypot(diff.real, diff.imag)
    gaps = np.where((d > floor) & ~exempt, d, np.inf).min(axis=1)
    violating = np.flatnonzero(movement > MOVE_GAP_RATIO * gaps).tolist()
    if not violating:
        return matched, movement
    if depth >= MAX_REFINEMENTS:
        # last resort: treat each violating branch together with its nearest
        # neighbor as a colliding pair losing individual identity; accept when
        # the pair moves as a set without approaching any third branch
        for i in violating:
            others = [j for j in range(len(prev)) if j != i]
            j = min(others, key=lambda j: abs(prev[j] - prev[i]))
            pair_prev = np.array([prev[i], prev[j]])
            pair_new = np.array([matched[i], matched[j]])
            hausdorff = max(
                np.min(np.abs(pair_new[:, None] - pair_prev[None, :]), axis=1).max(),
                np.min(np.abs(pair_prev[:, None] - pair_new[None, :]), axis=1).max(),
            )
            third = [abs(prev[k] - prev[i]) for k in range(len(prev)) if k not in (i, j)]
            third_gap = min(third) if third else np.inf
            if hausdorff > MOVE_GAP_RATIO * third_gap:
                raise SolverError(
                    f"branch matching unresolved on C-interval [{c_a!r}, {c_b!r}] "
                    f"after {MAX_REFINEMENTS} refinements (branch {i}, movement "
                    f"{movement[i]:.3e}, gap {gaps[i]:.3e})"
                )
        return matched, movement
    c_m = 0.5 * (c_a + c_b)
    mid, mv1 = _advance(spectrum_at, prev, c_a, c_m, depth + 1)
    out, mv2 = _advance(spectrum_at, mid, c_m, c_b, depth + 1)
    return out, mv1 + mv2


def sweep(cfg: SweepConfig, family: Optional[MatrixFamily] = None) -> BranchTrace:
    """Track the leading eigenvalue branches of a matrix family over a C range.

    The family defaults to the dynamo matrices of the scaled base profile; any
    callable C -> square matrix may be substituted (test hook for families
    with known exceptional points).
    """
    if family is None:
        family = dynamo_family(cfg.base, cfg.l, cfg.n)
    cache: dict = {}
    dense_solves = 0

    def spectrum_at(c: float, near: Optional[np.ndarray] = None) -> Spectrum:
        """The cached spectrum at c; local near ``near`` if given, else dense."""
        nonlocal dense_solves
        key = float(c)
        spec = cache.get(key)
        if spec is None or (near is None and spec.disk is not None):
            spec = eigen(family(key), near=near)
            dense_solves += spec.disk is None
            cache[key] = spec
        return spec

    cs = np.linspace(cfg.c_min, cfg.c_max, cfg.steps)
    first = spectrum_at(cs[0]).eigenvalues
    track = min(cfg.track_count, first.shape[0])
    branches = np.empty((track, cfg.steps), dtype=complex)
    branches[:, 0] = first[:track]
    bounds = np.zeros(cfg.steps - 1)
    events = []
    for k in range(cfg.steps - 1):
        a = branches[:, k]
        c_a, c_b = float(cs[k]), float(cs[k + 1])
        b, movement = _advance(spectrum_at, a, c_a, c_b)
        branches[:, k + 1] = b
        bounds[k] = movement.max() * (1.0 + 1e-12) + 1e-300
        events += _interval_events(c_a, c_b, a, b)
    for arr in (cs, branches, bounds):
        arr.setflags(write=False)
    return BranchTrace(
        c_values=cs,
        branches=branches,
        events=events,
        step_bounds=bounds,
        dense_solves=dense_solves,
    )


def _interval_events(c_a: float, c_b: float, a: np.ndarray, b: np.ndarray) -> list:
    """The branch events of one grid interval [c_a, c_b] from its end values a and b.

    A RealToComplex or ComplexToReal event is a pair of _transition_pairs
    whose two branches flip the same way; each branch joins at most one
    event, lowest index first.
    """
    in_a = np.abs(a.imag) <= PAIR_TOL
    in_b = np.abs(b.imag) <= PAIR_TOL
    pairs = np.triu(_transition_pairs(a, b) & (in_a[:, None] == in_a[None, :]), 1)
    events = []
    joined = set()
    for i, j in np.argwhere(pairs).tolist():
        if i not in joined and j not in joined:
            kind = "RealToComplex" if in_a[i] else "ComplexToReal"
            events.append(BranchEvent(c_a, c_b, (i, j), kind))
            joined.update((i, j))
    contact_tol = 1e-8 * (1.0 + np.max(np.abs(b)))
    for i, j in combinations(np.flatnonzero(in_a & in_b).tolist(), 2):
        da = a[i].real - a[j].real
        db = b[i].real - b[j].real
        # order exchange, or two real branches entering contact at
        # the interval end (value-only matching relabels colliding
        # branches, so contact is the observable signature)
        exchanged = (da < 0 < db) or (db < 0 < da)  # a product could overflow or underflow
        entering_contact = abs(db) <= contact_tol < abs(da)
        if exchanged or entering_contact:
            events.append(BranchEvent(c_a, c_b, (i, j), "Crossing"))
    return events


def _closest_pair(vals: np.ndarray) -> np.ndarray:
    if vals.shape[0] == 2:
        return vals
    d = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(vals.shape[0], np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return vals[[min(i, j), max(i, j)]]


def locate_ep(
    family: MatrixFamily,
    bracket: Tuple[float, float],
    tol_c: float,
    lambda_ref: Optional[complex] = None,
) -> Tuple[float, complex]:
    """Bisect a real <-> complex transition of one eigenvalue pair to width tol_c.

    The pair is chosen nearest to lambda_ref when given, from a local solve
    that covers it (dense otherwise), or else as the closest mutual pair in
    the full spectrum.  A bracket that is not increasing, a tol_c that is not
    positive and a non-finite lambda_ref raise ConfigurationError before any
    solve; a bracket that holds no transition raises SolverError.  Returns the
    bracket midpoint and the mean of the coalescing pair there.
    """
    c_lo, c_hi = (float(bracket[0]), float(bracket[1]))
    if not (c_lo < c_hi):
        raise ConfigurationError(f"bracket must be increasing, got {bracket!r}")
    if not tol_c > 0:  # NaN included
        raise ConfigurationError("tol_c must be positive")
    if lambda_ref is not None and not np.isfinite(lambda_ref):
        raise ConfigurationError(f"lambda_ref must be finite, got {lambda_ref!r}")

    def nearest_pair(vals: np.ndarray) -> np.ndarray:
        idx = np.argsort(np.abs(vals - lambda_ref), kind="stable")[:2]
        return vals[np.sort(idx)]

    def pair_at(c: float) -> np.ndarray:
        if lambda_ref is None:
            return _closest_pair(eigen(family(c)).eigenvalues)
        spec = eigen(family(c), near=[lambda_ref])
        pair = nearest_pair(spec.eigenvalues)
        if not spec.covers([lambda_ref], np.max(np.abs(pair - lambda_ref))):
            pair = nearest_pair(eigen(family(c)).eigenvalues)
        return pair

    def indicator(c: float) -> float:
        a, b = pair_at(c)
        return max(abs(a.imag), abs(b.imag)) - 0.5 * abs(a.real - b.real)

    g_lo = indicator(c_lo)
    g_hi = indicator(c_hi)
    if g_lo == 0.0 or g_hi == 0.0 or (g_lo > 0) == (g_hi > 0):
        raise SolverError(
            f"bracket ({c_lo}, {c_hi}) does not straddle a real/complex transition "
            f"(indicator {g_lo:.3e} and {g_hi:.3e})"
        )
    while c_hi - c_lo > tol_c:
        c_m = 0.5 * (c_lo + c_hi)
        g_m = indicator(c_m)
        if g_m == 0.0:
            c_lo = c_m - 0.25 * tol_c
            c_hi = c_m + 0.25 * tol_c
            break
        if (g_m > 0) == (g_lo > 0):
            c_lo, g_lo = c_m, g_m
        else:
            c_hi, g_hi = c_m, g_m
    c_star = 0.5 * (c_lo + c_hi)
    pair = pair_at(c_star)
    return c_star, complex(np.mean(pair))
