"""Structure functions of the first-order intertwining Ansatz and the no-go certificate.

For two dynamo operators with positive profiles alpha0, alpha1 and mode
numbers l0, l1, the candidate intertwiner A = i R(r) p + Q(r) is pinned down
step by step: the quadratic consistency conditions force

    R = e^(i gamma) [[sqrt(a1/a0), 0], [-(1/2) sqrt(a0 a1)(1 + i tan eps), sqrt(a0/a1)]],

J-symmetry turns the remaining freedom into a real matrix function
B = [[b1 + i b4, b2], [b3, b1 - i b4]] with gamma' = 0, b2 = 2q/alpha1 and
b4 fixed by the gauge function eps, where q = (alpha0'/alpha0 -
alpha1'/alpha1)/2.  The simplest projections of the two remaining matrix
Riccati equations force the closed form

    b1 = -(4 q^2 + alpha0^2 + alpha1^2) / (8 q),

which is independent of l1 -- while the sum of the same projections says

    2 b1' = -2 l1 / r^2 + 2 q (b1 - alpha1'/alpha1) + alpha0^2/2 + q' - q^2.

The residual rho(r) of that equation, with b1 and b1' substituted from the
closed form, is therefore the obstruction: rho carries an explicit
-2 l1/r^2 while b1 does not depend on l1 at all, so rho cannot vanish
identically for any admissible pair.  This module evaluates every object in
that chain, certifies rho > 0 over profile families, checks the forced
small-r relations (l1 = l0 + 1 and vanishing linear profile terms), handles
the proportional-profile branch separately, and measures the intertwining
defect of the assembled candidate operator as a numerical witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .darboux import _central_difference
from .errors import ConfigurationError, DegenerateQError, DomainError, ShapeError
from .grid import build_grid
from .mre import (
    B_SYSTEM,
    IDENT2,
    MatrixODESolution,
    U_SYSTEM,
    inv2,
    kmat,
    mmat,
    mre_linear_solve,
)
from .operator import assemble, sharp
from .profiles import AlphaProfile

Q_FLOOR = 1e-10
RHO_WINDOW = (0.1, 1.0)  # where rho is sampled: q has a removable zero at r = 0


@dataclass(frozen=True)
class GaugeChoice:
    """Residual gauge freedom of the intertwiner: constant gamma, function eps.

    The consistency conditions force gamma' = 0, so gamma is a number; eps may
    vary with r but must stay inside (-pi/2, pi/2) to keep tan eps finite.
    The default gauge gamma = 0, eps == 0 makes all structure functions real.
    """

    gamma: float = 0.0
    eps: Optional[Callable[[np.ndarray], np.ndarray]] = None
    deps: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if (self.eps is None) != (self.deps is None):
            raise ConfigurationError("eps and deps must be supplied together")
        if self.eps is not None:
            rs = np.linspace(1e-3, 1.0, 512)
            vals = np.asarray(self.eps(rs), dtype=float)
            if np.any(np.abs(vals) >= np.pi / 2):
                raise DomainError("gauge function eps must satisfy |eps| < pi/2 on (0,1]")

    def eps_vals(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.eps is None:
            return np.zeros_like(r)
        return np.asarray(self.eps(r), dtype=float)

    def deps_vals(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.deps is None:
            return np.zeros_like(r)
        return np.asarray(self.deps(r), dtype=float)


DEFAULT_GAUGE = GaugeChoice()


@dataclass(frozen=True)
class AlphaPair:
    """Two positive profiles with their mode numbers and factorization constant."""

    alpha0: AlphaProfile
    alpha1: AlphaProfile
    l0: int
    l1: int
    e: float = 0.0

    def __post_init__(self) -> None:
        if self.l0 < 1 or self.l1 < 1:
            raise DomainError(f"mode numbers must satisfy l >= 1, got l0={self.l0}, l1={self.l1}")
        self.alpha0.require_positive()
        self.alpha1.require_positive()

    @property
    def label(self) -> str:
        return f"({self.alpha0.label} | {self.alpha1.label}; l0={self.l0}, l1={self.l1}, E={self.e})"


def build_R(pair: AlphaPair, gauge: GaugeChoice, r) -> np.ndarray:
    """The forced multiplicative coefficient of the intertwiner at radius r.

    Satisfies R R^# = K0 and R^# R = K1 identically in the profiles; raises
    on nonpositive profile values (square roots).
    """
    r = np.asarray(r, dtype=float)
    a0 = np.asarray(pair.alpha0(r), dtype=float)
    a1 = np.asarray(pair.alpha1(r), dtype=float)
    if np.any(a0 <= 0) or np.any(a1 <= 0):
        raise DomainError("build_R needs strictly positive profile values")
    eps = gauge.eps_vals(r)
    phase = np.exp(1j * gauge.gamma)
    out = np.zeros(np.shape(r) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.sqrt(a1 / a0)
    out[..., 1, 1] = np.sqrt(a0 / a1)
    out[..., 1, 0] = -0.5 * np.sqrt(a0 * a1) * (1.0 + 1j * np.tan(eps))
    return phase * out


class StructureFunctions:
    """Vectorized evaluators for every derived quantity of the Ansatz.

    All closed-form members (q, b1, b2, b4, f, N, K, M) are algebraic in the
    profile values and their first two derivatives; nothing here is obtained
    by numerical differentiation.
    """

    def __init__(self, pair: AlphaPair, gauge: GaugeChoice = DEFAULT_GAUGE):
        self.pair = pair
        self.gauge = gauge

    # -- scalar building blocks --------------------------------------------

    def q(self, r):
        r = np.asarray(r, dtype=float)
        p = self.pair
        return 0.5 * (p.alpha0.d1(r) / p.alpha0(r) - p.alpha1.d1(r) / p.alpha1(r))

    def qprime(self, r):
        r = np.asarray(r, dtype=float)
        p = self.pair
        la0 = p.alpha0.d1(r) / p.alpha0(r)
        la1 = p.alpha1.d1(r) / p.alpha1(r)
        return 0.5 * (p.alpha0.d2(r) / p.alpha0(r) - la0**2 - p.alpha1.d2(r) / p.alpha1(r) + la1**2)

    def f(self, r):
        r = np.asarray(r, dtype=float)
        p = self.pair
        eps = self.gauge.eps_vals(r)
        deps = self.gauge.deps_vals(r)
        la0 = p.alpha0.d1(r) / p.alpha0(r)
        return -(p.alpha1(r) / 2.0) * (la0 * (1.0 + 1j * np.tan(eps)) + 1j * deps / np.cos(eps) ** 2)

    def nmat(self, r):
        r = np.asarray(r, dtype=float)
        q = self.q(r)
        f = self.f(r)
        out = np.zeros(np.shape(r) + (2, 2), dtype=complex)
        out[..., 0, 0] = -q
        out[..., 1, 0] = f
        out[..., 1, 1] = q
        return out

    # -- matrix coefficients -----------------------------------------------

    def k0(self, r):
        return kmat(self.pair.alpha0(r))

    def k1(self, r):
        return kmat(self.pair.alpha1(r))

    def m0(self, r):
        return mmat(self.pair.alpha0(r), self.pair.l0, self.pair.e, r)

    def m1(self, r):
        return mmat(self.pair.alpha1(r), self.pair.l1, self.pair.e, r)

    # -- components of B ----------------------------------------------------

    def b2(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * self.q(r) / self.pair.alpha1(r)

    def b4(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.gauge.eps_vals(r)
        deps = self.gauge.deps_vals(r)
        la0 = self.pair.alpha0.d1(r) / self.pair.alpha0(r)
        return -0.5 * (la0 * np.tan(eps) + deps / np.cos(eps) ** 2)

    def q_admissible(self, r) -> Tuple[np.ndarray, np.ndarray]:
        """q(r) and the mask |q| >= Q_FLOOR of the radii where b1 and rho are defined.

        Raises DegenerateQError when the floor excludes every radius.
        """
        q = np.atleast_1d(self.q(r))
        keep = np.abs(q) >= Q_FLOOR
        if not np.any(keep):
            raise DegenerateQError(
                f"q vanishes on the whole window for {self.pair.label} (proportional "
                "profiles); the closed form b1 has no admissible evaluation point"
            )
        return q, keep

    def _q_guarded(self, r):
        q, keep = self.q_admissible(r)
        if not np.all(keep):
            raise DegenerateQError(
                "q(r) vanishes inside the requested window; proportional profiles "
                "belong to degenerate_case_check"
            )
        return q

    def b1(self, r):
        r = np.asarray(r, dtype=float)
        q = self._q_guarded(r)
        p = self.pair
        u = 4.0 * q**2 + p.alpha0(r) ** 2 + p.alpha1(r) ** 2
        return np.reshape(-u / (8.0 * q), np.shape(r))

    def b1prime(self, r):
        r = np.asarray(r, dtype=float)
        q = self._q_guarded(r)
        qp = self.qprime(r)
        p = self.pair
        a0, a1 = p.alpha0(r), p.alpha1(r)
        u = 4.0 * q**2 + a0**2 + a1**2
        up = 8.0 * q * qp + 2.0 * a0 * p.alpha0.d1(r) + 2.0 * a1 * p.alpha1.d1(r)
        return np.reshape(-(up * q - u * qp) / (8.0 * q**2), np.shape(r))

    # -- the obstruction ----------------------------------------------------

    def rho(self, r, l1: Optional[int] = None):
        """Residual of the summed first-diagonal projections of the two MREs.

        rho == 0 would be required for a consistent intertwiner; the closed
        form of b1 makes that impossible because only the explicit -2 l1/r^2
        term knows about l1.
        """
        r = np.asarray(r, dtype=float)
        l1 = self.pair.l1 if l1 is None else l1
        p = self.pair
        q = self.q(r)
        rhs = (
            -2.0 * l1 / r**2
            + 2.0 * q * (self.b1(r) - p.alpha1.d1(r) / p.alpha1(r))
            + p.alpha0(r) ** 2 / 2.0
            + self.qprime(r)
            - q**2
        )
        return 2.0 * self.b1prime(r) - rhs


def rho_sup_norm(pair: AlphaPair, samples: int = 512) -> Tuple[float, int]:
    """Sup of |rho| over RHO_WINDOW, excluding q-degenerate neighborhoods.

    Returns the sup and the number of excluded sample points; raises
    DegenerateQError when the whole window is excluded.
    """
    sf = StructureFunctions(pair)
    rs = np.linspace(*RHO_WINDOW, samples)
    _, keep = sf.q_admissible(rs)
    return float(np.max(np.abs(sf.rho(rs[keep])))), int(np.sum(~keep))


# --------------------------------------------------------------------------
# proportional-profile branch
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DegenerateCaseRecord:
    """Forced contradiction for proportional profiles (q == 0 identically).

    With q == 0 the off-diagonal component b2 vanishes and the two forced
    expressions for b2' reduce to alpha1 = 0 = -alpha0^2/alpha1, i.e.
    alpha1 + alpha0^2/alpha1 = 0, impossible for positive profiles.
    """

    kappa: float
    forced_min: float
    argmin_r: float
    impossible: bool
    note: str


def degenerate_case_check(pair: AlphaPair) -> DegenerateCaseRecord:
    rs = np.linspace(0.0, 1.0, 1024)
    a0 = np.asarray(pair.alpha0(rs), dtype=float)
    a1 = np.asarray(pair.alpha1(rs), dtype=float)
    ratio = a1 / a0
    kappa = float(np.mean(ratio))
    if np.max(np.abs(ratio - kappa)) > 1e-8 * max(abs(kappa), 1.0):
        raise DomainError(
            "degenerate_case_check needs proportional profiles alpha1 = kappa*alpha0"
        )
    forced = a1 + a0**2 / a1
    i = int(np.argmin(forced))
    return DegenerateCaseRecord(
        kappa=kappa,
        forced_min=float(forced[i]),
        argmin_r=float(rs[i]),
        impossible=bool(forced[i] > 0.0),
        note="forced relation alpha1 + alpha0^2/alpha1 = 0 has no positive solution",
    )


# --------------------------------------------------------------------------
# small-r asymptotics: the forced mode-number increment
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticRecord:
    """Forced relations from matching the singular small-r terms.

    Matching the 1/r^2 coefficients forces l1 (l1 - 1) = l0 (l0 + 1), whose
    positive solution is l1 = l0 + 1; the 1/r coefficient then forces the
    linear profile terms to vanish (a1-series = 0, hence a0-series = 0).
    fitted_c2 holds the numerically fitted 1/r^2 mismatch per candidate l1.
    """

    l0: int
    l1: int
    a1_series: float
    a0_series: float
    fitted_c2: dict
    discrimination_ratio: float


def _singular_mismatch_c2(l1_cand: int, l0: int, c1: float, e: float) -> float:
    """Fit the 1/r^2 coefficient of the cross-equation mismatch for one candidate.

    The bottom block of the B-system is integrated from its singular-branch
    series data with alpha1 == c1; its log-derivative is substituted into the
    singular part of the other equation (which carries l0), and the component
    (1,1) of the difference is least-squares fitted to c2/r^2 + c1/r + c0.
    """
    alpha1 = AlphaProfile.constant(c1)
    pair = SimpleNamespace(alpha0=alpha1, alpha1=alpha1, l0=l0, l1=l1_cand, e=e)
    # the singular branch r^(-l1) loses against the regular branch r^(l1+1)
    # like (r/r0)^(2 l1 + 1); the short window and small step keep that
    # contamination below the fit noise for l1 up to ~6
    sol = mre_linear_solve(B_SYSTEM, pair, 1e-3, 2.8e-3, step=5e-6, init="series")
    rs = sol.rs
    y = sol.bot
    yp = -(sol.kinv_nodes @ sol.top)
    yinv = inv2(y)
    z = yp @ yinv
    # alpha1' == 0, so the alpha1' terms of y'', K1' and the left-hand side drop out
    zp = (sol.kinv_nodes @ (sol.m_nodes @ y)) @ yinv - z @ z
    k1 = kmat(sol.alpha_nodes).astype(complex)
    cent = (l0 * (l0 + 1) / rs**2)[:, None, None] * IDENT2
    rhs = cent - sol.kinv_nodes @ z @ k1 @ z
    d11 = (-zp - rhs)[:, 0, 0].real
    mask = (rs >= 1.15e-3) & (rs <= 2.6e-3)
    basis = np.stack([1.0 / rs[mask] ** 2, 1.0 / rs[mask], np.ones(np.sum(mask))], axis=1)
    coef, *_ = np.linalg.lstsq(basis, d11[mask], rcond=None)
    return float(abs(coef[0]))


def asymptotic_l_increment(l0: int, c1: float = 1.0, e: float = 0.0) -> AsymptoticRecord:
    """Forced (l1, a1-series) from the small-r limit, with a numerical cross-check.

    The closed-form matching needs only integer arithmetic; the cross-check
    integrates the defining linear system for candidate l1 in
    {l0, l0+1, l0+2} and verifies that only l0+1 annihilates the fitted
    1/r^2 mismatch coefficient.
    """
    if l0 < 1:
        raise DomainError("l0 must be >= 1")
    if c1 == 0.0:
        raise DomainError("leading profile coefficient c1 must not vanish")
    # positive root of l1 (l1 - 1) = l0 (l0 + 1)
    l1 = int(round(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * l0 * (l0 + 1)))))
    assert l1 * (l1 - 1) == l0 * (l0 + 1)
    fits = {cand: _singular_mismatch_c2(cand, l0, c1, e) for cand in (l0, l0 + 1, l0 + 2)}
    wrong = [fits[l0], fits[l0 + 2]]
    ratio = float(min(wrong) / max(fits[l0 + 1], 1e-300))
    return AsymptoticRecord(
        l0=l0,
        l1=l1,
        a1_series=0.0,
        a0_series=0.0,
        fitted_c2=fits,
        discrimination_ratio=ratio,
    )


# --------------------------------------------------------------------------
# product invariant (diagnostic only)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductInvariantDiagnostic:
    rs: np.ndarray
    drift: np.ndarray
    det_p: np.ndarray
    max_drift: float
    median_drift: float
    nonsingular: bool


def product_invariant_diagnostic(
    sol_u: MatrixODESolution,
    sol_b: MatrixODESolution,
    pair: AlphaPair,
) -> ProductInvariantDiagnostic:
    """Relative drift of P(r) = Y^# R^# W along a common trajectory.

    Reported without any verdict: the constancy of P is derived inside the
    (inconsistent) constrained framework, so its drift for unconstrained
    solutions is informational only.
    """
    if sol_u.which != U_SYSTEM or sol_b.which != B_SYSTEM:
        raise ConfigurationError("pass the U-system solution first, then the B-system one")
    if sol_u.rs.shape != sol_b.rs.shape or not np.allclose(sol_u.rs, sol_b.rs):
        raise ShapeError("both solutions must share the same radial grid")
    rs = sol_u.rs
    r_mat = build_R(pair, DEFAULT_GAUGE, rs)
    p = sharp(sol_b.bot) @ sharp(r_mat) @ sol_u.bot
    dp = _central_difference(p, sol_u.step)[1:-1]
    norm_p = np.max(np.abs(p[1:-1]), axis=(-2, -1))
    drift = np.max(np.abs(dp), axis=(-2, -1)) / np.where(norm_p > 0, norm_p, np.inf)
    det_p = p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]
    return ProductInvariantDiagnostic(
        rs=rs[1:-1],
        drift=drift,
        det_p=det_p,
        max_drift=float(np.max(drift)),
        median_drift=float(np.median(drift)),
        nonsingular=bool(np.all(np.abs(det_p) > 0)),
    )


# --------------------------------------------------------------------------
# intertwining defect (numerical witness)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectRecord:
    """Commutation defect of the candidate intertwiner on smooth test fields.

    defect is the worst relative defect over the test set; a value below
    10 x solver_tol would be flagged for investigation rather than celebrated
    (the construction is proven inconsistent, so a near-zero defect means the
    discretization is too coarse to see it)."""

    defect: float
    unnormalized: float
    per_test: np.ndarray
    solver_tol: float
    flagged: bool
    truncated: bool
    n: int
    label: str


_DEFECT_SEED = 20240311
_DEFECT_TESTS = 8  # smooth test fields
_DEFECT_SUPPORT = (0.1, 0.95)  # where the test fields live, clear of the singular origin
_DEFECT_STEP = 2e-4  # RK4 step of the B-system trajectory


def _bump_profiles(nodes: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(_DEFECT_SEED)
    a, b = _DEFECT_SUPPORT
    s = (nodes - a) / (b - a)
    env = np.where((s > 0) & (s < 1), (s * (1 - s)) ** 2, 0.0)
    out = np.empty((_DEFECT_TESTS, 2, nodes.size))
    for i in range(_DEFECT_TESTS):
        for comp in range(2):
            coeffs = rng.standard_normal(4)
            wave = sum(c * np.sin((k + 1) * np.pi * np.clip(s, 0, 1)) for k, c in enumerate(coeffs))
            out[i, comp] = env * wave
        out[i] /= np.linalg.norm(out[i])
    return out


def intertwining_defect(
    pair: AlphaPair,
    gauge: GaugeChoice = DEFAULT_GAUGE,
    n: int = 300,
    test_scale: float = 1.0,
) -> DefectRecord:
    """Measure || A^#(H0 - E) phi - (H1 - E) A^# phi || on smooth test fields.

    A^# = -i p R^# + Q^# with Q^# = B^# R^-1; B comes from the B-system
    trajectory (series start near the origin), R from its closed form.  The
    first-order part is realized by central differences on the radial grid.
    The defect is strictly positive for every admissible pair: no B can
    satisfy all consistency conditions at once.
    """
    sol_b = mre_linear_solve(B_SYSTEM, pair, 1e-3, 1.0, step=_DEFECT_STEP, init="series")
    grid = build_grid(n)
    nodes = grid.nodes
    h = grid.h
    e_val = pair.e

    finite = np.isfinite(sol_b.affine[:, 0, 0])
    truncated = not np.all(finite[np.searchsorted(sol_b.rs, nodes[0]) :])
    b_nodes = np.empty((nodes.size, 2, 2), dtype=complex)
    rs_ok = sol_b.rs[finite]
    for i in range(2):
        for j in range(2):
            comp = sol_b.affine[finite, i, j]
            b_nodes[:, i, j] = np.interp(nodes, rs_ok, comp.real) + 1j * np.interp(
                nodes, rs_ok, comp.imag
            )

    r_mat = build_R(pair, gauge, nodes)
    r_sharp = sharp(r_mat)
    q_sharp = sharp(b_nodes) @ inv2(r_mat)

    h0 = assemble(grid, pair.alpha0, pair.l0)
    h1 = assemble(grid, pair.alpha1, pair.l1)

    def apply_a_sharp(u: np.ndarray) -> np.ndarray:
        um = np.stack([u[: grid.n], u[grid.n :]], axis=1)[..., None]
        w = -_central_difference((r_sharp @ um)[..., 0], h) + (q_sharp @ um)[..., 0]
        return np.concatenate([w[:, 0], w[:, 1]])

    per_test = np.empty(_DEFECT_TESTS)
    unnorm = np.empty(_DEFECT_TESTS)
    for i, phi2 in enumerate(_bump_profiles(nodes)):
        phi = test_scale * np.concatenate([phi2[0], phi2[1]]).astype(complex)
        t1 = apply_a_sharp(h0.matvec(phi) - e_val * phi)
        a_phi = apply_a_sharp(phi)
        t2 = h1.matvec(a_phi) - e_val * a_phi
        d = np.linalg.norm(t1 - t2)
        unnorm[i] = d
        per_test[i] = d / (np.linalg.norm(t1) + np.linalg.norm(t2))
    solver_tol = h**2
    defect = float(np.max(per_test))
    return DefectRecord(
        defect=defect,
        unnormalized=float(np.max(unnorm)),
        per_test=per_test,
        solver_tol=solver_tol,
        flagged=bool(defect < 10.0 * solver_tol),
        truncated=truncated,
        n=n,
        label=pair.label,
    )


# --------------------------------------------------------------------------
# the certificate
# --------------------------------------------------------------------------


def builtin_pair_family(l1: int = 2) -> list:
    """Thirty admissible quadratic-profile pairs 1 + theta*r^2, theta1 != theta2."""
    thetas = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
    out = []
    for t0 in thetas:
        for t1 in thetas:
            if t0 == t1:
                continue
            out.append(
                AlphaPair(
                    alpha0=AlphaProfile.polynomial([1.0, 0.0, t0]),
                    alpha1=AlphaProfile.polynomial([1.0, 0.0, t1]),
                    l0=l1 - 1,
                    l1=l1,
                )
            )
    return out


@dataclass(frozen=True)
class NoGoReport:
    """Numerical certificate of the incompatibility of the construction."""

    pair_labels: list
    sample_radii: np.ndarray
    rho_samples: np.ndarray  # (pairs, radii), NaN where q is floored out
    excluded_samples: np.ndarray
    l_shift_max_dev: float
    degenerate: DegenerateCaseRecord
    asymptotic: AsymptoticRecord
    defects: list
    window: Tuple[float, float]

    @property
    def rho_sup(self) -> np.ndarray:
        """sup|rho| per pair over the admissible radii."""
        return np.nanmax(np.abs(self.rho_samples), axis=1)

    @property
    def min_rho_sup(self) -> float:
        return float(np.min(self.rho_sup))

    def summary_lines(self) -> list:
        lines = [
            f"pairs={len(self.pair_labels)}",
            f"window={self.window[0]},{self.window[1]}",
            f"min_abs_rho_inf={self.min_rho_sup!r}",
            f"l_shift_max_dev={self.l_shift_max_dev!r}",
            f"degenerate_forced_min={self.degenerate.forced_min!r}",
            f"degenerate_impossible={self.degenerate.impossible}",
            f"asymptotic_l1={self.asymptotic.l1}",
            f"asymptotic_ratio={self.asymptotic.discrimination_ratio!r}",
        ]
        for i, rec in enumerate(self.defects):
            lines.append(f"defect_{i}={rec.defect!r}")
        return lines


def nogo_certificate(
    family: Optional[Sequence[AlphaPair]] = None,
    l1: int = 2,
    samples: int = 512,
    defect_samples: int = 2,
    defect_n: int = 240,
) -> NoGoReport:
    """Assemble the full certificate over a family of admissible pairs.

    Records (a) the family minimum of sup|rho| over RHO_WINDOW, (b) the exact
    l-shift identity rho(l1+1) - rho(l1) = 2/r^2, (c) the proportional-branch
    impossibility, (d) the forced small-r relations, and (e) intertwining
    defect witnesses for the first few pairs.
    """
    if family is None:
        family = builtin_pair_family(l1=l1)
    family = list(family)
    if len(family) < 25:
        raise ConfigurationError(
            f"certificate family must contain at least 25 admissible pairs, got {len(family)}"
        )

    radii_all = np.linspace(*RHO_WINDOW, samples)
    rho_samples = np.full((len(family), samples), np.nan)
    excluded = np.empty(len(family), dtype=int)
    for i, pair in enumerate(family):
        sf_i = StructureFunctions(pair)
        _, keep = sf_i.q_admissible(radii_all)
        rho_samples[i, keep] = sf_i.rho(radii_all[keep])
        excluded[i] = int(np.sum(~keep))

    pair0 = family[0]
    sf = StructureFunctions(pair0)
    radii = np.linspace(*RHO_WINDOW, 100)
    radii = radii[sf.q_admissible(radii)[1]]
    shift = sf.rho(radii, l1=pair0.l1 + 1) - sf.rho(radii, l1=pair0.l1)
    l_shift_dev = float(np.max(np.abs(shift - 2.0 / radii**2)))

    degenerate = degenerate_case_check(
        AlphaPair(alpha0=pair0.alpha0, alpha1=pair0.alpha0, l0=pair0.l0, l1=pair0.l1, e=pair0.e)
    )
    asym = asymptotic_l_increment(l0=pair0.l1 - 1, c1=float(pair0.alpha1(0.0)), e=pair0.e)
    defects = [intertwining_defect(p, n=defect_n) for p in family[:defect_samples]]
    return NoGoReport(
        pair_labels=[p.label for p in family],
        sample_radii=radii_all,
        rho_samples=rho_samples,
        excluded_samples=excluded,
        l_shift_max_dev=l_shift_dev,
        degenerate=degenerate,
        asymptotic=asym,
        defects=defects,
        window=RHO_WINDOW,
    )
