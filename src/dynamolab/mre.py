"""Matrix Riccati equations of the intertwining construction, linearized and direct.

The two quadratic first-order matrix ODEs

    U' = M0(r) - U K0(r)^-1 U          (U-system, carries alpha0 and l0)
    B' = -M1(r) + B K1(r)^-1 B         (B-system, carries alpha1 and l1)

with K = I - alpha sigma_minus and M = K l(l+1)/r^2 + E I - alpha sigma_plus
linearize through homogeneous coordinates U = V W^-1 (resp. B = X Y^-1):

    (V, W)' = [[0, M0], [K0^-1, 0]] (V, W),
    (X, Y)' = -[[0, M1], [K1^-1, 0]] (X, Y).

A fixed-step RK4 integrates the linear eight-dimensional flow; the affine
coordinate is formed wherever the bottom block is well conditioned.  One RK4
step of this real linear flow is a fixed real 4x4 propagator; rk4_linear
builds them batched and chains them, one np.dot per step.  The Riccati
residual is measured against an independent RK4 of the nonlinear equation,
which has no propagator, restarted on every well-conditioned segment, so both
routes converge at fourth order and the residual shrinks ~16x per step
halving.  That nonlinear recurrence is solved by multiple shooting: short
windows run as one batch through the sequential driver rk4, and Newton updates
chained along each segment make their starts agree with the step-by-step
trajectory to rounding.  The batch holds its 2x2 blocks entry-major, as
(2, 2, windows, columns), so each entry of the right-hand side is one array
operation over every window and tangent column.

Differentiating once more, the bottom block solves the second-order form
(d/dr K d/dr - M) W = 0, which after the substitution u = r*psi is the
eigenvalue equation of the corresponding dynamo operator at eigenvalue E;
eigenfunction_equivalence checks that by finite differences along the stored
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, SolverError

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
    return kmat(-np.asarray(alpha_vals, dtype=float))


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


def inv2(m: np.ndarray) -> np.ndarray:
    """Closed-form adjugate inverse of batched 2x2 matrices."""
    m = np.asarray(m)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return out / det[..., None, None]


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 2x2 product a @ b written out elementwise (matmul is slow on 2x2 stacks, and BLAS rounds it by shape)."""
    return np.stack(
        [
            a[..., 0, 0, None] * b[..., 0, :] + a[..., 0, 1, None] * b[..., 1, :],
            a[..., 1, 0, None] * b[..., 0, :] + a[..., 1, 1, None] * b[..., 1, :],
        ],
        axis=-2,
    )


def _riccati_rhs(c, y, sign):
    """sign (M - U K^-1 U) and its tangent map, on blocks held entry-major.

    c = (M, K^-1) and y carry their 2x2 entries on the two leading axes, so
    c[0][i, j] and y[i, j] are arrays over (windows, columns); y[..., 0] is
    the trajectory U and y[..., 1:] its tangents dU.  Each product is mul2's
    formula, operand order included, with the unit and zero entries of
    K^-1 = [[1, 0], [alpha, 1]] dropped, which changes at most the sign of
    a zero.
    """
    m, a = c[0], c[1, 1, 0]
    u = y[..., :1]
    uk0 = u[:, 0] + u[:, 1] * a  # column 0 of U K^-1; column 1 is u[:, 1]
    f = sign * (m - (uk0[:, None] * u[0] + u[:, 1, None] * u[1]))
    if y.shape[-1] == 1:
        return f
    du = y[..., 1:]
    ku1 = a * u[0] + u[1]  # row 1 of K^-1 U; row 0 is u[0]
    df = -sign * (
        (du[:, 0, None] * u[0] + du[:, 1, None] * ku1)
        + (uk0[:, None] * du[0] + u[:, 1, None] * du[1])
    )
    return np.concatenate([f, df], axis=-1)


def cond2_log10(m: np.ndarray) -> np.ndarray:
    """log10 of the 2-norm condition number of batched 2x2 matrices.

    Each block is scaled by its largest entry first, so no square overflows,
    and the condition number is s_max**2 / |det| (s_min = |det| / s_max),
    which has no cancelling subtraction; inf for a singular or zero block.
    """
    m = np.asarray(m)
    # entry by entry: reductions over the two trailing axes of size 2 are slow
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    a00, a01, a10, a11 = np.abs(m00), np.abs(m01), np.abs(m10), np.abs(m11)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / np.maximum(np.maximum(a00, a01), np.maximum(a10, a11))
        t = ((a00 * inv) ** 2 + (a01 * inv) ** 2) + ((a10 * inv) ** 2 + (a11 * inv) ** 2)
        det = np.abs((m00 * inv) * (m11 * inv) - (m01 * inv) * (m10 * inv))
        smax_sq = (t + np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0))) / 2
        return np.log10(np.where(det > 0, smax_sq / det, np.inf))


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
    warnings: list
    # the (M, K^-1) table the flow steps, (S, 2, 2, 2) at the nodes and
    # (S - 1, 2, 2, 2) at the midpoints; alpha = K^-1[1, 0] exactly
    coef_nodes: np.ndarray
    coef_mids: np.ndarray

    @property
    def sign(self) -> float:
        return 1.0 if self.which == U_SYSTEM else -1.0


COND_LOG_MAX = 12.0
PROPAGATOR_BLOCK = 256  # steps whose propagators rk4_linear builds in one batch
SHOOTING_WINDOW = 8  # RK4 steps per multiple-shooting window of riccati_residual
SHOOTING_RTOL = 1e-14  # Newton update of a window start, relative to it, taken as rounding
_MAX_STEPS = 2 * 10**5  # RK4 steps of one trajectory: mre-check's peak RSS is about 0.2 GB at the cap


def _rk4_step(rhs, c_node, c_mid, c_next, y, h):
    """One classical RK4 step; broadcasts over a leading batch axis of c and y."""
    k1 = rhs(c_node, y)
    k2 = rhs(c_mid, y + 0.5 * h * k1)
    k3 = rhs(c_mid, y + 0.5 * h * k2)
    k4 = rhs(c_next, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4(rhs, coef_nodes, coef_mids, y0, h):
    """Classical fixed-step RK4 for y' = rhs(c, y), returning the whole trajectory.

    coef_nodes[k] and coef_mids[k] are the coefficients at node k and at the
    midpoint of step k; step k evaluates rhs at node k, twice at midpoint k
    and at node k+1, so len(coef_mids) steps are taken (h may be negative).
    Sequential over steps; riccati_residual batches short windows through it,
    and linear flows use rk4_linear.
    """
    ys = np.empty((len(coef_mids) + 1,) + y0.shape, dtype=y0.dtype)
    ys[0] = y = y0
    for k, c_mid in enumerate(coef_mids):
        ys[k + 1] = y = _rk4_step(rhs, coef_nodes[k], c_mid, coef_nodes[k + 1], y, h)
    return ys


def rk4_linear(rhs, coef_nodes, coef_mids, y0, h):
    """rk4 for a flow y' = rhs(c, y) linear in y, through real one-step propagators.

    For y0 of shape (D,) or (D, m), rhs must broadcast a leading batch axis of
    c against y of shape (..., D, D): the stage formula applied to the
    identity gives the propagators P[k], PROPAGATOR_BLOCK steps at a time to
    bound memory, chained in place as y[k+1] = P[k] @ y[k] by one np.dot per
    step on row views of the trajectory.
    """
    n = len(coef_mids)
    ys = np.empty((n + 1,) + y0.shape, dtype=np.result_type(y0, np.float64))
    ys[0] = y0
    cols = ys.reshape(n + 1, len(y0), -1).view(np.float64)  # complex: re/im columns interleaved
    for s in range(0, n, PROPAGATOR_BLOCK):
        nodes = coef_nodes[s : s + PROPAGATOR_BLOCK + 1]
        mids = coef_mids[s : s + PROPAGATOR_BLOCK]
        props = _rk4_step(rhs, nodes[:-1], mids, nodes[1:], np.eye(len(y0)), h)
        for p, y, out in zip(props, cols[s:], cols[s + 1 :]):
            np.dot(p, y, out=out)
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
    alpha,
    l: int,
    e: float,
    r_start: float,
    r_end: float = 1.0,
    step: float = 1e-4,
    *,
    init: Union[str, Tuple[np.ndarray, np.ndarray]],
) -> MatrixODESolution:
    """Integrate one linearized system by fixed-step RK4 and form its affine coordinate.

    alpha is the system's profile (alpha0 for U, alpha1 for B), l its mode
    number and e the factorization constant; alpha need not be positive.
    init, a required keyword, is either an explicit (top0, bot0) pair of 2x2
    arrays that stack to rank 2 (the flow keeps that rank, and a lower one
    has no affine value) or the string "series" (B-system only), which starts
    the singular small-r branch from the profile's leading Taylor data.
    Nodes where the bottom block reaches COND_LOG_MAX get NaN affine values
    and a recorded warning; the linear trajectory itself continues.
    """
    if which not in (U_SYSTEM, B_SYSTEM):
        raise ConfigurationError(f"unknown system {which!r} (expected 'U' or 'B')")
    if not 0 < step < np.inf:
        raise ConfigurationError(f"step must be finite and positive, got {step}")
    if r_start < 1e-3:
        raise ConfigurationError(f"r_start must be >= 1e-3 (singular origin), got {r_start}")
    if not r_start < r_end <= 1.0:
        raise ConfigurationError(f"need r_start < r_end <= 1, got [{r_start}, {r_end}]")
    if l < 1:  # the series start divides by 2 - 4l
        raise ConfigurationError(f"mode number must satisfy l >= 1, got {l}")
    if not np.isfinite(e):
        raise ConfigurationError(f"factorization constant E must be finite, got {e}")

    span = (r_end - r_start) / step
    if span > _MAX_STEPS:  # before any array is sized by it
        raise ConfigurationError(f"step {step} needs more than {_MAX_STEPS} RK4 steps on [{r_start}, {r_end}]")
    n_steps = max(1, int(round(span)))
    h = (r_end - r_start) / n_steps
    rs = r_start + h * np.arange(n_steps + 1)
    mids = rs[:-1] + h / 2.0

    def coef(r):  # (M, K^-1) stacked as (len(r), 2, 2, 2)
        a = np.asarray(alpha(r), dtype=float)
        return np.stack([mmat(a, l, e, r), kmat_inv(a)], axis=1)

    with np.errstate(over="ignore", invalid="ignore"):  # reported by the finiteness check
        coef_nodes, coef_mids = coef(rs), coef(mids)
    if not (np.isfinite(coef_nodes).all() and np.isfinite(coef_mids).all()):
        raise ConfigurationError(f"flow coefficients M and K^-1 overflow or are not finite (l={l}, E={e!r})")

    if isinstance(init, str):
        if init != "series":
            raise ConfigurationError(f"unknown init mode {init!r}")
        if which != B_SYSTEM:
            raise ConfigurationError("series initial data is defined for the B-system")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite start fails the check below
            top0, bot0 = series_start_bottom(
                l, float(alpha(0.0)), float(alpha.d1(0.0)), r_start, e=e
            )
        if not np.isfinite([top0, bot0]).all():
            raise SolverError(f"series initial data at r_start={r_start} is not finite")
    else:
        top0 = np.asarray(init[0], dtype=complex)
        bot0 = np.asarray(init[1], dtype=complex)
        if top0.shape != (2, 2) or bot0.shape != (2, 2):
            raise ConfigurationError("explicit initial data must be two 2x2 blocks")
        if not np.isfinite([top0, bot0]).all():
            raise ConfigurationError("explicit initial data must be finite")
        if np.linalg.matrix_rank(np.concatenate([top0, bot0])) < 2:
            raise ConfigurationError("explicit initial data must stack to a (4, 2) block of rank 2")

    sign = 1.0 if which == U_SYSTEM else -1.0

    def rhs(c, y):
        # c = (M, K^-1) (batched or not), y = (top; bot) stacked as 4 rows
        top, bot = y[..., :2, :], y[..., 2:, :]
        return sign * np.concatenate([c[..., 0, :, :] @ bot, c[..., 1, :, :] @ top], axis=-2)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in cond_log below
        traj = rk4_linear(rhs, coef_nodes, coef_mids, np.concatenate([top0, bot0]), h)
    tops, bots = traj[:, :2], traj[:, 2:]

    cond_log = cond2_log10(bots)
    ok = cond_log < COND_LOG_MAX
    with np.errstate(invalid="ignore", over="ignore"):
        affine = tops @ inv2(bots)
    affine[~ok] = np.nan
    warnings = []
    if not np.all(ok):
        last_ok = rs[ok][-1] if np.any(ok) else None
        warnings.append(
            f"bottom block numerically singular on {int(np.sum(~ok))} of {rs.size} nodes "
            f"(cond_log >= {COND_LOG_MAX}); last well-conditioned r = {last_ok}"
        )
    return MatrixODESolution(
        which=which,
        rs=rs,
        top=tops,
        bot=bots,
        affine=affine,
        cond_log=cond_log,
        step=h,
        warnings=warnings,
        coef_nodes=coef_nodes,
        coef_mids=coef_mids,
    )


def riccati_residual(
    sol: MatrixODESolution, r_min: Optional[float] = None
) -> Tuple[float, np.ndarray]:
    """Max-norm deviation of the affine coordinate from direct nonlinear integration.

    The nonlinear Riccati equation is re-integrated with the same RK4 step,
    restarted from the affine value at the start of every maximal
    well-conditioned segment; the pointwise max-norm differences are returned
    together with their supremum (NaN nodes excluded).  r_min restricts the
    check to the tail of the trajectory (singular-start solutions are stiff
    near the origin, where the affine coordinate behaves like l/r).

    The sequential RK4 recurrence is solved by multiple shooting.  Every
    segment is cut into windows of SHOOTING_WINDOW steps, the windows of all
    segments run as one batch through rk4, and Newton updates of the window
    starts are chained along each segment.  The batch state is entry-major,
    of shape (2, 2, windows, columns) with the trajectory in column 0, and
    the right-hand side (_riccati_rhs) works entry by entry with K^-1
    written out.  Window 0 starts at the affine value and the others at the
    linear trajectory's top @ inv2(bot), so an affine node enters no
    residual but its own.  The first pass also carries the four tangent
    directions, which gives each window's Jacobian of the (holomorphic) step
    map; it steps the batch itself and keeps the tangents at the window ends
    only.  Later passes reuse the Jacobians and integrate the trajectory
    only, through rk4.  At least
    one correction is always applied: a small mismatch at every window
    boundary can still hide error built up along the segment.  The iteration stops when the chained update is at rounding
    level: below SHOOTING_RTOL relative to every window start, or no longer
    shrinking while inside the worst-case rounding of the sequential
    recurrence (each window's eps * sum |u|, chained through the Jacobian
    norms).  In exact arithmetic m corrections make the first m + 1 starts
    exact, so the passes are capped at the largest window count of a
    segment (at least 2).  An unconverged or non-finite result on a checked
    node raises SolverError instead of leaving a NaN that sup would drop.
    """
    ok = np.isfinite(sol.affine[:, 0, 0])
    if r_min is not None:
        ok = ok & (sol.rs >= r_min)
    per_node = np.full(sol.rs.size, np.nan)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return np.nan, per_node
    cut = np.flatnonzero(np.diff(idx) > 1) + 1
    seg_lo, seg_hi = idx[np.r_[0, cut]], idx[np.r_[cut - 1, -1]]

    # windows of all segments, in order; the last one of a segment may be short
    n = SHOOTING_WINDOW
    counts = (seg_hi - seg_lo + n - 1) // n
    seg = np.repeat(np.arange(seg_lo.size), counts)
    local = np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = seg_lo[seg] + n * local
    lengths = np.minimum(n, seg_hi[seg] - starts)
    chained = np.flatnonzero(local > 0)
    # every window takes n steps; a short one runs on past its segment end,
    # on clipped coefficients, and those values are discarded
    nodes = np.minimum(starts + np.arange(n + 1)[:, None], sol.rs.size - 1)
    mids = np.minimum(nodes[:-1], sol.rs.size - 2)
    # (M, K^-1) per step, entry-major like the state: (steps, 2, 2, 2, windows, 1)
    coef_nodes, coef_mids = (
        np.moveaxis(table[k], 1, -1)[..., None].copy()
        for table, k in ((sol.coef_nodes, nodes), (sol.coef_mids, mids))
    )
    sign = sol.sign

    def rhs(c, y):
        return _riccati_rhs(c, y, sign)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite start fails the check below
        start = mul2(sol.top[starts], inv2(sol.bot[starts]))
    start[local == 0] = sol.affine[starts[local == 0]]
    tangents = np.broadcast_to(np.eye(4).reshape(2, 2, 1, 4), (2, 2, seg.size, 4))
    y0 = np.concatenate([np.moveaxis(start, 0, -1)[..., None], tangents], axis=-1)
    prev = np.inf
    for p in range(max(2, int(counts.max()))):
        with np.errstate(over="ignore", invalid="ignore"):
            if p == 0:
                # rk4 would keep the tangents at every step; only the window ends are read
                path = np.empty((n + 1,) + y0.shape[:-1], dtype=complex)
                y = y0
                path[0] = y[..., 0]
                for k in range(n):
                    y = _rk4_step(rhs, coef_nodes[k], coef_mids[k], coef_nodes[k + 1], y, sol.step)
                    path[k + 1] = y[..., 0]
            else:
                path = rk4(rhs, coef_nodes, coef_mids, y0, sol.step)[..., 0]
        if p == 0:
            # column j of a window's Jacobian is the image of tangent direction j,
            # stored column-contiguous (BLAS rounds the Newton products by layout);
            # bound chains the same way each window's worst-case rounding
            jac = y[..., 1:].reshape(4, -1, 4).transpose(1, 2, 0).copy().swapaxes(1, 2)
            growth = np.max(np.sum(np.abs(jac), axis=2), axis=1)
            sizes = np.max(np.abs(path), axis=(1, 2))
            noise = np.finfo(float).eps * np.sum(sizes, axis=0)
            bound = np.zeros(seg.size)
            for w in chained:
                bound[w] = noise[w - 1] + growth[w - 1] * bound[w - 1]
        gap = (np.moveaxis(path[n, ..., :-1], -1, 0) - start[1:]).reshape(-1, 4)
        update = np.zeros((seg.size, 4), dtype=complex)
        for w in chained:
            update[w] = gap[w - 1] + np.dot(jac[w - 1], update[w - 1])
        size = np.max(np.abs(update), axis=1)
        if not np.all(np.isfinite(size)):
            raise SolverError("nonlinear Riccati integration is not finite on a checked segment")
        rel = float(np.max(size / np.max(np.abs(start), axis=(1, 2)), initial=0.0))
        stalled = rel > prev / 2 and np.all(size <= bound)
        if p > 0 and (rel <= SHOOTING_RTOL or stalled):
            break
        prev = rel
        start = start + update.reshape(-1, 2, 2)
        y0 = np.moveaxis(start, 0, -1)[..., None]
    else:
        raise SolverError(f"Riccati multiple shooting unconverged after {p + 1} passes")

    steps = np.arange(1, n + 1)
    taken = steps <= lengths[:, None]
    traj = np.empty_like(sol.affine)
    traj[(starts[:, None] + steps)[taken]] = np.moveaxis(path[1:], -1, 0)[taken]
    traj[seg_lo] = sol.affine[seg_lo]
    per_node[idx] = np.max(np.abs(traj[idx] - sol.affine[idx]), axis=(1, 2))
    if not np.all(np.isfinite(per_node[idx])):
        raise SolverError("nonlinear Riccati integration is not finite on a checked node")
    return float(np.max(per_node[idx])), per_node


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
    k_mid = kmat(sol.coef_mids[:, 1, 1, 0]).astype(complex)
    flux = k_mid @ (w[1:] - w[:-1]) / h
    div = (flux[1:] - flux[:-1]) / h
    mw = sol.coef_nodes[1:-1, 0] @ w[1:-1]
    res = div - mw
    scale = np.max(np.abs(mw))
    if scale == 0.0:
        scale = np.max(np.abs(w))
    return float(np.max(np.abs(res)) / scale)
