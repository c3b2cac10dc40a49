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

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import build_grid, central_difference, smooth_fields
from .mre import B_SYSTEM, IDENT2, inv2, kmat, mre_linear_solve, mul2
from .operator import assemble, sharp
from .profiles import AlphaProfile

Q_FLOOR = 1e-10
RHO_WINDOW = (0.1, 1.0)  # where rho is sampled: q has a removable zero at r = 0
MIN_DISCRIMINATION = 10.0  # smallest wrong-candidate 1/r^2 fit over the l0 + 1 fit


@dataclass(frozen=True)
class GaugeChoice:
    """Residual gauge freedom of the intertwiner: constant gamma, function eps.

    The consistency conditions force gamma' = 0, so gamma is a number; eps is
    a profile (None means eps == 0) that must stay inside (-pi/2, pi/2) to
    keep tan eps finite.  The default gauge gamma = 0, eps == 0 makes all
    structure functions real.
    """

    gamma: float = 0.0
    eps: Optional[AlphaProfile] = None

    def __post_init__(self) -> None:
        if self.eps is not None and not np.all(np.abs(self.eps(np.linspace(1e-3, 1.0, 512))) < np.pi / 2):
            raise ConfigurationError("gauge function eps must satisfy |eps| < pi/2 on (0,1]")

    def eps_at(self, r):
        """(eps, eps') at r, both zero for the default gauge."""
        r = np.asarray(r, dtype=float)
        if self.eps is None:
            return np.zeros_like(r), np.zeros_like(r)
        return np.asarray(self.eps(r), dtype=float), np.asarray(self.eps.d1(r), dtype=float)


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
            raise ConfigurationError(f"mode numbers must satisfy l >= 1, got l0={self.l0}, l1={self.l1}")
        if not np.isfinite(self.e):
            raise ConfigurationError(f"factorization constant E must be finite, got {self.e}")
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
        raise ConfigurationError("build_R needs strictly positive profile values")
    eps, _ = gauge.eps_at(r)
    phase = np.exp(1j * gauge.gamma)
    out = np.zeros(np.shape(r) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.sqrt(a1 / a0)
    out[..., 1, 1] = np.sqrt(a0 / a1)
    out[..., 1, 0] = -0.5 * np.sqrt(a0 * a1) * (1.0 + 1j * np.tan(eps))
    return phase * out


class StructureFunctions:
    """Vectorized evaluators for every derived quantity of the Ansatz.

    All closed-form members (q, b1, b2, b4, f, N) are algebraic in the
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

    def f(self, r):
        r = np.asarray(r, dtype=float)
        p = self.pair
        return p.alpha1(r) * (-0.5 * p.alpha0.d1(r) / p.alpha0(r) + 1j * self.b4(r))

    def nmat(self, r):
        r = np.asarray(r, dtype=float)
        q = self.q(r)
        f = self.f(r)
        out = np.zeros(np.shape(r) + (2, 2), dtype=complex)
        out[..., 0, 0] = -q
        out[..., 1, 0] = f
        out[..., 1, 1] = q
        return out

    # -- components of B ----------------------------------------------------

    def b2(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * self.q(r) / self.pair.alpha1(r)

    def b4(self, r):
        r = np.asarray(r, dtype=float)
        eps, deps = self.gauge.eps_at(r)
        la0 = self.pair.alpha0.d1(r) / self.pair.alpha0(r)
        return -0.5 * (la0 * np.tan(eps) + deps / np.cos(eps) ** 2)

    def _chain(self, r):
        """The q floor's mask on r, and r, q, b1, b1', b2 and rho on the radii it keeps.

        alpha0, alpha1 and their first two derivatives are evaluated once, on
        all of r, and the chain b1 -> b1' -> b2 -> rho runs on the kept radii,
        so no floored radius is divided by.  Raises SolverError when the
        floor excludes every radius or when b1 or b1' overflows on a kept
        radius.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        p = self.pair
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite b1 or b1' raises below
            a0, a1, d1a0, d1a1 = p.alpha0(r), p.alpha1(r), p.alpha0.d1(r), p.alpha1.d1(r)
            d2a0, d2a1 = p.alpha0.d2(r), p.alpha1.d2(r)
            q = 0.5 * (d1a0 / a0 - d1a1 / a1)
        keep = ~(np.abs(q) < Q_FLOOR)  # a NaN q is kept, and fails the b1 check
        if not np.any(keep):
            raise SolverError(
                f"q vanishes on the whole window for {p.label} (proportional "
                "profiles); the closed form b1 has no admissible evaluation point"
            )
        r, q, a0, a1, d1a0, d1a1, d2a0, d2a1 = (
            t[keep] for t in (r, q, a0, a1, d1a0, d1a1, d2a0, d2a1)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            la0 = d1a0 / a0
            la1 = d1a1 / a1
            qp = 0.5 * (d2a0 / a0 - la0**2 - d2a1 / a1 + la1**2)
            u = 4.0 * q**2 + a0**2 + a1**2
            up = 8.0 * q * qp + 2.0 * a0 * d1a0 + 2.0 * a1 * d1a1
            b1 = -u / (8.0 * q)
            b1p = -(up * q - u * qp) / (8.0 * q**2)
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b1p))):
            raise SolverError(f"b1 or b1' is not finite on a kept radius for {p.label}")
        with np.errstate(divide="ignore", over="ignore"):  # b1 is finite at r = 0, rho is infinite there
            cent = -2.0 * p.l1 / r**2
        rhs = cent + 2.0 * q * (b1 - la1) + a0**2 / 2.0 + qp - q**2
        return keep, r, q, b1, b1p, 2.0 * q / a1, 2.0 * b1p - rhs

    def _column(self, r, index):
        """Column index of _chain at r, shaped like r, NaN where the q floor excludes a radius."""
        chain = self._chain(r)
        out = np.full(chain[0].shape, np.nan)
        out[chain[0]] = chain[index]
        return out.reshape(np.shape(r))[()]

    def b1(self, r):
        """The closed form of b1 at r, NaN where the q floor excludes a radius.

        Raises SolverError as _chain does.
        """
        return self._column(r, 3)

    def b1prime(self, r):
        """b1' at r, NaN where the q floor excludes a radius (see b1)."""
        return self._column(r, 4)

    # -- the obstruction ----------------------------------------------------

    def rho(self, r):
        """Residual of the summed first-diagonal projections of the two MREs.

        rho == 0 would be required for a consistent intertwiner; the closed
        form of b1 makes that impossible because only the explicit -2 l1/r^2
        term knows about l1.  NaN where the q floor excludes a radius; raises
        SolverError as _chain does.
        """
        return self._column(r, 6)

    def table(self, r):
        """The nogo table's columns r, q, b1, b2 and rho on the radii of r the q floor keeps.

        One evaluation of each profile term on all of r (see _chain); raises
        SolverError as _chain does, and when rho is not finite on a kept
        radius (-2 l1/r^2 from r ~ 1e-154 down).
        """
        _, r, q, b1, _, b2, rho = self._chain(r)
        if not np.all(np.isfinite(rho)):
            raise SolverError(f"rho is not finite on a kept radius for {self.pair.label}")
        return r, q, b1, b2, rho


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


def degenerate_case_check(pair: AlphaPair) -> DegenerateCaseRecord:
    rs = np.linspace(0.0, 1.0, 1024)
    a0 = np.asarray(pair.alpha0(rs), dtype=float)
    a1 = np.asarray(pair.alpha1(rs), dtype=float)
    ratio = a1 / a0
    kappa = float(np.mean(ratio))
    if np.max(np.abs(ratio - kappa)) > 1e-8 * max(abs(kappa), 1.0):
        raise ConfigurationError(
            "degenerate_case_check needs proportional profiles alpha1 = kappa*alpha0"
        )
    forced = a1 + a0**2 / a1
    i = int(np.argmin(forced))
    return DegenerateCaseRecord(
        kappa=kappa,
        forced_min=float(forced[i]),
        argmin_r=float(rs[i]),
        impossible=bool(forced[i] > 0.0),
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

    l1: int
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
    # the singular branch r^(-l1) loses against the regular branch r^(l1+1)
    # like (r/r0)^(2 l1 + 1); the short window and small step keep that
    # contamination below the fit noise for l1 up to ~6
    sol = mre_linear_solve(B_SYSTEM, alpha1, l1_cand, e, 1e-3, 2.8e-3, step=5e-6, init="series")
    rs = sol.rs
    y = sol.bot
    m1, k1inv = sol.coef_nodes[:, 0], sol.coef_nodes[:, 1]
    yp = -(k1inv @ sol.top)
    yinv = inv2(y)
    z = yp @ yinv
    # alpha1' == 0, so the alpha1' terms of y'', K1' and the left-hand side drop out
    zp = (k1inv @ (m1 @ y)) @ yinv - z @ z
    k1 = kmat(k1inv[:, 1, 0]).astype(complex)
    cent = (l0 * (l0 + 1) / rs**2)[:, None, None] * IDENT2
    rhs = cent - k1inv @ z @ k1 @ z
    d11 = (-zp - rhs)[:, 0, 0].real
    mask = (rs >= 1.15e-3) & (rs <= 2.6e-3)
    basis = np.stack([1.0 / rs[mask] ** 2, 1.0 / rs[mask], np.ones(np.sum(mask))], axis=1)
    coef, *_ = np.linalg.lstsq(basis, d11[mask], rcond=None)
    return float(abs(coef[0]))


def asymptotic_l_increment(l0: int, c1: float = 1.0, e: float = 0.0) -> AsymptoticRecord:
    """The forced l1 = l0 + 1 from the small-r limit, with a numerical cross-check.

    The closed-form matching needs only integer arithmetic; the cross-check
    integrates the defining linear system for candidate l1 in
    {l0, l0+1, l0+2} and verifies that only l0+1 annihilates the fitted
    1/r^2 mismatch coefficient.  Raises SolverError when a fit is not finite
    or the fits no longer tell the candidates apart (discrimination ratio
    below MIN_DISCRIMINATION, from l0 = 6 on at the default c1 and e).
    """
    if l0 < 1:
        raise ConfigurationError("l0 must be >= 1")
    if c1 == 0.0:
        raise ConfigurationError("leading profile coefficient c1 must not vanish")
    # l1 (l1 - 1) - l0 (l0 + 1) = (l1 - l0 - 1)(l1 + l0), and l1 + l0 > 0
    l1 = l0 + 1
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite fit fails the check below
        fits = {cand: _singular_mismatch_c2(cand, l0, c1, e) for cand in (l0, l0 + 1, l0 + 2)}
    if not np.all(np.isfinite(list(fits.values()))):
        raise SolverError(f"the 1/r^2 mismatch fit is not finite at l0={l0}")
    wrong = [fits[l0], fits[l0 + 2]]
    ratio = float(min(wrong) / max(fits[l0 + 1], 1e-300))
    if not ratio >= MIN_DISCRIMINATION:
        raise SolverError(
            f"the 1/r^2 mismatch fit does not single out l1 = l0 + 1 at l0={l0} "
            f"(discrimination ratio {ratio:.3g} < {MIN_DISCRIMINATION:g})"
        )
    return AsymptoticRecord(
        l1=l1,
        fitted_c2=fits,
        discrimination_ratio=ratio,
    )


# --------------------------------------------------------------------------
# intertwining defect (numerical witness)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectRecord:
    """Commutation defect of the candidate intertwiner on smooth test fields.

    defect is the worst relative defect over the test set; a value below
    10 h^2 of the grid would be flagged for investigation rather than
    celebrated (the construction is proven inconsistent, so a near-zero defect
    means the discretization is too coarse to see it)."""

    defect: float
    flagged: bool
    truncated: bool


_DEFECT_SUPPORT = (0.1, 0.95)  # where the test fields live, clear of the singular origin
_DEFECT_STEP = 2e-4  # RK4 step of the B-system trajectory


def _relative_defect(h0, h1, e: float, r_sharp: np.ndarray, q_sharp: np.ndarray) -> float:
    """Worst relative defect ||t1 - t2|| / (||t1|| + ||t2||), t1 = A (H0 - E) phi, t2 = (H1 - E) A phi.

    A = -d/dr R + Q, with R and Q (n, 2, 2) samples on the nodes and d/dr the
    central difference.  The eight fields phi pair the rows of ``smooth_fields``
    on _DEFECT_SUPPORT into their two components and run as one (2n, 8) block.
    """
    n, h = h0.n, h0.grid.h
    phi = smooth_fields(h0.grid.nodes, _DEFECT_SUPPORT).reshape(-1, 2 * n).T  # column i: rows 2i, 2i+1 as (u1, u2)

    def apply_a(u: np.ndarray) -> np.ndarray:
        um = u.reshape(2, n, -1).transpose(1, 0, 2)  # (n, 2, fields)
        w = -central_difference(mul2(r_sharp, um), h) + mul2(q_sharp, um)
        return w.transpose(1, 0, 2).reshape(2 * n, -1)

    t1 = apply_a(h0.matvec(phi) - e * phi)
    a_phi = apply_a(phi)
    t2 = h1.matvec(a_phi) - e * a_phi
    # one contiguous row per field: np.linalg.norm rounds by memory layout
    rows = (np.ascontiguousarray(t.T) for t in (t1 - t2, t1, t2))
    return float(max(np.linalg.norm(d) / (np.linalg.norm(a) + np.linalg.norm(b)) for d, a, b in zip(*rows)))


def intertwining_defect(
    pair: AlphaPair,
    gauge: GaugeChoice = DEFAULT_GAUGE,
    n: int = 300,
) -> DefectRecord:
    """Measure || A^#(H0 - E) phi - (H1 - E) A^# phi || on smooth test fields.

    A^# = -i p R^# + Q^# with Q^# = B^# R^-1, measured by _relative_defect; B
    comes from the B-system trajectory (series start near the origin), R from
    its closed form.  The defect is strictly positive for every admissible
    pair: no B can satisfy all consistency conditions at once.  It does not
    depend on the phase gamma, but it does on eps: B, on its gauge-free
    series branch, does not follow eps, while R and so Q^# do.
    """
    sol_b = mre_linear_solve(B_SYSTEM, pair.alpha1, pair.l1, pair.e, 1e-3, 1.0, step=_DEFECT_STEP, init="series")
    grid = build_grid(n)
    nodes = grid.nodes

    finite = np.isfinite(sol_b.affine[:, 0, 0])
    truncated = not np.all(finite[np.searchsorted(sol_b.rs, nodes[0]) :])
    parts = sol_b.affine[finite].reshape(-1, 4).view(float)  # real and imaginary parts of the four entries
    b_nodes = np.stack([np.interp(nodes, sol_b.rs[finite], c) for c in parts.T], axis=1).view(complex)

    r_mat = build_R(pair, gauge, nodes)
    q_sharp = sharp(b_nodes.reshape(-1, 2, 2)) @ inv2(r_mat)
    h0 = assemble(grid, pair.alpha0, pair.l0)
    h1 = assemble(grid, pair.alpha1, pair.l1)
    defect = _relative_defect(h0, h1, pair.e, sharp(r_mat), q_sharp)
    return DefectRecord(defect=defect, flagged=bool(defect < 10.0 * grid.h**2), truncated=truncated)


# --------------------------------------------------------------------------
# the certificate
# --------------------------------------------------------------------------


def builtin_pair_family(l1: int = 2) -> list:
    """Thirty admissible quadratic-profile pairs 1 + theta*r^2, theta1 != theta2."""
    profiles = [AlphaProfile.polynomial([1.0, 0.0, t]) for t in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)]
    return [
        AlphaPair(alpha0=a0, alpha1=a1, l0=l1 - 1, l1=l1)
        for a0 in profiles
        for a1 in profiles
        if a0 is not a1
    ]


@dataclass(frozen=True)
class NoGoReport:
    """Numerical certificate of the incompatibility of the construction."""

    sample_radii: np.ndarray
    rho_samples: np.ndarray  # (pairs, radii), NaN where q is floored out
    l_shift_max_dev: float
    degenerate: DegenerateCaseRecord
    asymptotic: AsymptoticRecord
    defects: list

    @property
    def rho_sup(self) -> np.ndarray:
        """sup|rho| per pair over the admissible radii."""
        return np.nanmax(np.abs(self.rho_samples), axis=1)

    @property
    def excluded_samples(self) -> np.ndarray:
        """Radii the q floor excluded, per pair."""
        return np.sum(np.isnan(self.rho_samples), axis=1)

    @property
    def min_rho_sup(self) -> float:
        return float(np.min(self.rho_sup))

    def summary_lines(self) -> list:
        lines = [
            f"pairs={len(self.rho_samples)}",
            f"window={RHO_WINDOW[0]},{RHO_WINDOW[1]}",
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
    if samples < 1:
        raise ConfigurationError(f"samples must be at least 1, got {samples}")
    if defect_samples < 0:
        raise ConfigurationError(f"defect_samples must not be negative, got {defect_samples}")
    if family is None:
        family = builtin_pair_family(l1=l1)
    family = list(family)
    if len(family) < 25:
        raise ConfigurationError(
            f"certificate family must contain at least 25 admissible pairs, got {len(family)}"
        )

    radii_all = np.linspace(*RHO_WINDOW, samples)
    rho_samples = np.array([StructureFunctions(p).rho(radii_all) for p in family])

    pair0 = family[0]
    radii = np.linspace(*RHO_WINDOW, 100)
    shifted = StructureFunctions(replace(pair0, l1=pair0.l1 + 1))
    shift = shifted.rho(radii) - StructureFunctions(pair0).rho(radii)
    l_shift_dev = float(np.nanmax(np.abs(shift - 2.0 / radii**2)))

    degenerate = degenerate_case_check(replace(pair0, alpha1=pair0.alpha0))
    asym = asymptotic_l_increment(l0=pair0.l1 - 1, c1=float(pair0.alpha1(0.0)), e=pair0.e)
    defects = [intertwining_defect(p, n=defect_n) for p in family[:defect_samples]]
    return NoGoReport(
        sample_radii=radii_all,
        rho_samples=rho_samples,
        l_shift_max_dev=l_shift_dev,
        degenerate=degenerate,
        asymptotic=asym,
        defects=defects,
    )
