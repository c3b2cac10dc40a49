"""Matrix Riccati equations of the intertwining construction, linearized and direct.

The two quadratic first-order matrix ODEs

    U' = M0(r) - U K0(r)^-1 U          (U-system, carries alpha0 and l0)
    B' = -M1(r) + B K1(r)^-1 B         (B-system, carries alpha1 and l1)

with K = I - alpha sigma_minus and M = K l(l+1)/r^2 + E I - alpha sigma_plus
linearize through homogeneous coordinates U = V W^-1 (resp. B = X Y^-1):

    (V, W)' = [[0, M0], [K0^-1, 0]] (V, W),
    (X, Y)' = -[[0, M1], [K1^-1, 0]] (X, Y).

A fixed-step RK4 integrates the linear eight-dimensional flow; the affine
coordinate is formed wherever the bottom block is well conditioned.  The
Riccati residual is measured against an independent direct RK4 integration of
the nonlinear equation restarted on every well-conditioned segment, so both
routes converge at fourth order and the residual shrinks ~16x per step
halving.

Differentiating once more, the bottom block solves the second-order form
(d/dr K d/dr - M) W = 0, which after the substitution u = r*psi is the
eigenvalue equation of the corresponding dynamo operator at eigenvalue E;
eigenfunction_equivalence checks that by finite differences along the stored
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, DomainError

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
IDENT2 = np.eye(2)

U_SYSTEM = "U"
B_SYSTEM = "B"


def kmat(alpha_vals: np.ndarray) -> np.ndarray:
    """K = I - alpha sigma_minus, batched over the trailing r axis."""
    a = np.atleast_1d(np.asarray(alpha_vals, dtype=float))
    out = np.tile(IDENT2, (a.shape[0], 1, 1))
    out[:, 1, 0] = -a
    return out


def kmat_inv(alpha_vals: np.ndarray) -> np.ndarray:
    """K^-1 = I + alpha sigma_minus (nilpotent inverse, exact)."""
    a = np.atleast_1d(np.asarray(alpha_vals, dtype=float))
    out = np.tile(IDENT2, (a.shape[0], 1, 1))
    out[:, 1, 0] = a
    return out


def mmat(alpha_vals: np.ndarray, l: int, e: float, r: np.ndarray) -> np.ndarray:
    """M = K l(l+1)/r^2 + E I - alpha sigma_plus, batched over r."""
    a = np.atleast_1d(np.asarray(alpha_vals, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cent = l * (l + 1) / r**2
    out = np.zeros((a.shape[0], 2, 2))
    out[:, 0, 0] = cent + e
    out[:, 1, 1] = cent + e
    out[:, 0, 1] = -a
    out[:, 1, 0] = -a * cent
    return out


def inv2(m: np.ndarray, det_floor: float = 0.0) -> np.ndarray:
    """Closed-form adjugate inverse of batched 2x2 matrices; NaN below det_floor."""
    m = np.asarray(m)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = out / det[..., None, None]
    if det_floor > 0.0:
        bad = np.abs(det) < det_floor
        out[bad] = np.nan
    return out


def cond2_log10(m: np.ndarray) -> np.ndarray:
    """log10 of the 2-norm condition number of batched 2x2 matrices."""
    m = np.asarray(m)
    t = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    d = np.abs(det) ** 2
    disc = np.maximum(t**2 - 4 * d, 0.0)
    s1 = np.sqrt((t + np.sqrt(disc)) / 2)
    s2sq = (t - np.sqrt(disc)) / 2
    s2 = np.sqrt(np.maximum(s2sq, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log10(np.where(s2 > 0, s1 / s2, np.inf))


@dataclass(frozen=True)
class MatrixODESolution:
    """Trajectory of one linearized system with its affine coordinate."""

    which: str
    rs: np.ndarray
    top: np.ndarray  # (S, 2, 2) V or X
    bot: np.ndarray  # (S, 2, 2) W or Y
    affine: np.ndarray  # (S, 2, 2), NaN where bot is ill conditioned
    cond_log: np.ndarray
    step: float
    e: float
    l: int
    warnings: list = field(default_factory=list)
    # coefficient tables reused by the residual checks (nodes and midpoints)
    alpha_nodes: np.ndarray = None
    alpha_mids: np.ndarray = None
    m_nodes: np.ndarray = None
    m_mids: np.ndarray = None
    kinv_nodes: np.ndarray = None
    kinv_mids: np.ndarray = None

    @property
    def sign(self) -> float:
        return 1.0 if self.which == U_SYSTEM else -1.0


COND_LOG_MAX = 12.0


def rk4(rhs, coef_nodes, coef_mids, y0, h):
    """Classical fixed-step RK4 for y' = rhs(c, y), returning the whole trajectory.

    coef_nodes[k] and coef_mids[k] are the coefficients at node k and at the
    midpoint of step k; step k evaluates rhs at node k, twice at midpoint k
    and at node k+1, so len(coef_mids) steps are taken (h may be negative).
    """
    ys = np.empty((len(coef_mids) + 1,) + y0.shape, dtype=y0.dtype)
    ys[0] = y = y0
    for k, c_mid in enumerate(coef_mids):
        k1 = rhs(coef_nodes[k], y)
        k2 = rhs(c_mid, y + 0.5 * h * k1)
        k3 = rhs(c_mid, y + 0.5 * h * k2)
        k4 = rhs(coef_nodes[k + 1], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[k + 1] = y
    return ys


def series_start_bottom(
    l1: int, c1: float, a1: float, r0: float, e: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Three-term small-r data for the singular branch of the B-system bottom block.

    Y(r) ~ (r/r0)^(-l1) (I + (a1/2) sigma_minus r + G0 r^2/(2-4*l1)) with
    G0 = [[E, -c1], [E c1, E - c1^2]] the regular part of K1^-1 M1 at the
    origin; the r0^(-l1) scale is dropped (the system is linear).  The cubic
    truncation keeps the regular branch r^(l1+1) from contaminating the
    trajectory until well past the fitting windows used downstream.
    """
    g0 = np.array([[e, -c1], [e * c1, e - c1 * c1]])
    d2 = 2.0 - 4.0 * l1
    poly0 = IDENT2 + (a1 / 2.0) * r0 * SIGMA_MINUS + (r0 * r0 / d2) * g0
    dpoly0 = (a1 / 2.0) * SIGMA_MINUS + (2.0 * r0 / d2) * g0
    y0 = poly0
    dy0 = (-l1 / r0) * poly0 + dpoly0
    x0 = -(kmat(np.array([c1]))[0] @ dy0)
    return x0.astype(complex), y0.astype(complex)


def mre_linear_solve(
    which: str,
    pair,
    r_start: float,
    r_end: float = 1.0,
    step: float = 1e-4,
    init: Union[str, Tuple[np.ndarray, np.ndarray]] = "series",
    e: Optional[float] = None,
    cond_log_max: float = COND_LOG_MAX,
) -> MatrixODESolution:
    """Integrate one linearized system by fixed-step RK4 and form its affine coordinate.

    init is either an explicit (top0, bot0) pair of 2x2 arrays or the string
    "series" (B-system only), which starts the singular small-r branch from
    the profile's leading Taylor data.  Nodes where the bottom block exceeds
    the condition bound get NaN affine values and a recorded warning; the
    linear trajectory itself continues.
    """
    if which not in (U_SYSTEM, B_SYSTEM):
        raise ConfigurationError(f"unknown system {which!r} (expected 'U' or 'B')")
    if r_start < 1e-3:
        raise DomainError(f"r_start must be >= 1e-3 (singular origin), got {r_start}")
    if not r_start < r_end <= 1.0:
        raise DomainError(f"need r_start < r_end <= 1, got [{r_start}, {r_end}]")

    alpha = pair.alpha0 if which == U_SYSTEM else pair.alpha1
    l = pair.l0 if which == U_SYSTEM else pair.l1
    e_val = pair.e if e is None else float(e)
    n_steps = max(1, int(round((r_end - r_start) / step)))
    h = (r_end - r_start) / n_steps
    rs = r_start + h * np.arange(n_steps + 1)
    mids = rs[:-1] + h / 2.0

    a_nodes = np.asarray(alpha(rs), dtype=float)
    a_mids = np.asarray(alpha(mids), dtype=float)
    m_nodes = mmat(a_nodes, l, e_val, rs)
    m_mids = mmat(a_mids, l, e_val, mids)
    kinv_nodes = kmat_inv(a_nodes)
    kinv_mids = kmat_inv(a_mids)

    if isinstance(init, str):
        if init != "series":
            raise ConfigurationError(f"unknown init mode {init!r}")
        if which != B_SYSTEM:
            raise ConfigurationError("series initial data is defined for the B-system")
        top0, bot0 = series_start_bottom(
            l, float(alpha(0.0)), float(alpha.d1(0.0)), r_start, e=e_val
        )
    else:
        top0 = np.asarray(init[0], dtype=complex)
        bot0 = np.asarray(init[1], dtype=complex)
        if top0.shape != (2, 2) or bot0.shape != (2, 2):
            raise ConfigurationError("explicit initial data must be two 2x2 blocks")

    sign = 1.0 if which == U_SYSTEM else -1.0

    def rhs(c, y):
        # c = (M, K^-1), y = (top, bot)
        out = np.empty_like(y)
        out[0] = sign * (c[0] @ y[1])
        out[1] = sign * (c[1] @ y[0])
        return out

    traj = rk4(
        rhs,
        np.stack([m_nodes, kinv_nodes], axis=1),
        np.stack([m_mids, kinv_mids], axis=1),
        np.stack([top0, bot0]),
        h,
    )
    tops, bots = traj[:, 0], traj[:, 1]

    cond_log = cond2_log10(bots)
    ok = cond_log < cond_log_max
    affine = np.full_like(tops, np.nan)
    if np.any(ok):
        affine[ok] = tops[ok] @ inv2(bots[ok])
    warnings = []
    if not np.all(ok):
        last_ok = rs[ok][-1] if np.any(ok) else None
        warnings.append(
            f"bottom block numerically singular on {int(np.sum(~ok))} of {rs.size} nodes "
            f"(cond_log >= {cond_log_max}); last well-conditioned r = {last_ok}"
        )
    return MatrixODESolution(
        which=which,
        rs=rs,
        top=tops,
        bot=bots,
        affine=affine,
        cond_log=cond_log,
        step=h,
        e=e_val,
        l=l,
        warnings=warnings,
        alpha_nodes=a_nodes,
        alpha_mids=a_mids,
        m_nodes=m_nodes,
        m_mids=m_mids,
        kinv_nodes=kinv_nodes,
        kinv_mids=kinv_mids,
    )


def riccati_residual(sol: MatrixODESolution, r_min: float = None) -> Tuple[float, np.ndarray]:
    """Max-norm deviation of the affine coordinate from direct nonlinear integration.

    The nonlinear Riccati equation is re-integrated with the same RK4 step,
    restarted from the affine value at the start of every maximal
    well-conditioned segment; the pointwise max-norm differences are returned
    together with their supremum (NaN nodes excluded).  r_min restricts the
    check to the tail of the trajectory (singular-start solutions are stiff
    near the origin, where the affine coordinate behaves like l/r).
    """
    ok = np.isfinite(sol.affine[:, 0, 0])
    if r_min is not None:
        ok = ok & (sol.rs >= r_min)
    per_node = np.full(sol.rs.size, np.nan)
    sign = sol.sign

    def rhs(c, u):
        # c = (M, K^-1)
        return sign * (c[0] - u @ c[1] @ u)

    coef_nodes = np.stack([sol.m_nodes, sol.kinv_nodes], axis=1)
    coef_mids = np.stack([sol.m_mids, sol.kinv_mids], axis=1)
    idx = np.flatnonzero(ok)
    for seg in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
        if seg.size == 0:
            continue
        i, j = seg[0], seg[-1]
        traj = rk4(rhs, coef_nodes[i : j + 1], coef_mids[i:j], sol.affine[i], sol.step)
        per_node[i : j + 1] = np.max(np.abs(traj - sol.affine[i : j + 1]), axis=(1, 2))
    finite = per_node[np.isfinite(per_node)]
    sup = float(np.max(finite)) if finite.size else np.nan
    return sup, per_node


def eigenfunction_equivalence(sol: MatrixODESolution) -> float:
    """Residual of the second-order form (d/dr K d/dr - M) applied to the bottom block.

    Evaluated by central finite differences on the stored uniform trajectory
    and normalized by the largest ||M W||; the check is second-order in the
    step by construction (the trajectory itself is fourth-order accurate).
    """
    w = sol.bot
    if w.shape[0] < 3:
        raise ConfigurationError("trajectory too short for the finite-difference check")
    h = sol.step
    k_mid = kmat(sol.alpha_mids).astype(complex)
    flux = k_mid @ (w[1:] - w[:-1]) / h
    div = (flux[1:] - flux[:-1]) / h
    mw = sol.m_nodes[1:-1] @ w[1:-1]
    res = div - mw
    scale = np.max(np.abs(mw))
    if scale == 0.0:
        scale = np.max(np.abs(w))
    return float(np.max(np.abs(res)) / scale)
