"""Numeric correctness checks on the outputs of each benchmarked operation.

Every check compares values within a tolerance, never bytes, so a solver that
changes trailing digits still passes.  No tolerance here is looser than the
one the acceptance suite pins for the same quantity.  A failed check raises
CheckFailed; the harness counts it as a failed operation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

LEADING_REL_TOL = 1e-3  # six leading eigenvalues against -k^2 +/- c k
THRESHOLD_ABS_TOL = 0.01  # zero crossing of the leading branch
PAIR_TOL = 1e-8  # conjugate-pair closure
PENCIL_TOL = 1e-6  # pencil and psi2 residuals
RICCATI_TOL = 1e-6  # Riccati residual of the linearized trajectory
DARBOUX_TOL = 1e-3  # partner isospectrality
RHO_FLOOR = 1e-6  # the obstruction may not vanish
L_SHIFT_TOL = 1e-10  # rho(l1+1) - rho(l1) = 2/r^2


class CheckFailed(Exception):
    """An operation's output failed its numeric check."""


def require(ok: bool, text: str) -> None:
    if not ok:
        raise CheckFailed(text)


# --------------------------------------------------------------------------
# spherical Bessel zeros, bisected here rather than taken from the package
# --------------------------------------------------------------------------


def spherical_jl(l: int, k: float) -> float:
    """j_l(k) from the closed forms of j_0, j_1 and the upward recurrence."""
    j0 = math.sin(k) / k
    if l == 0:
        return j0
    j1 = math.sin(k) / k**2 - math.cos(k) / k
    for ell in range(1, l):
        j0, j1 = j1, (2 * ell + 1) / k * j1 - j0
    return j1


@lru_cache(maxsize=None)
def bessel_zero(l: int, m: int) -> float:
    """m-th positive zero of j_l: sign scan on a 0.02 grid, then bisection."""
    k = 0.05
    f = spherical_jl(l, k)
    found = 0
    while True:
        k_next = k + 0.02
        f_next = spherical_jl(l, k_next)
        if f * f_next < 0:
            found += 1
            if found == m:
                break
        k, f = k_next, f_next
    a, b, fa = k, k_next, f
    while b - a > 1e-14:
        mid = 0.5 * (a + b)
        fm = spherical_jl(l, mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


# --------------------------------------------------------------------------
# CSV readers
# --------------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows and trailing key=value lines of a CLI output file."""
    lines = Path(path).read_text().splitlines()
    require(len(lines) >= 1, f"{path}: empty output")
    rows, extra = [], []
    for line in lines[1:]:
        (extra if "=" in line else rows).append(line.split(","))
    return lines[0].split(","), rows, extra


def key_values(extra: list) -> dict:
    return dict(",".join(parts).split("=", 1) for parts in extra)


def read_sweep(path: Path):
    """C grid, branch matrix (track, steps) and event list of a sweep file."""
    lines = Path(path).read_text().splitlines()
    require(lines[0] == "C,branch_id,re_lambda,im_lambda", "sweep header changed")
    marker = lines.index("# events")
    body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:marker]])
    cs = np.unique(body[:, 0])
    track = int(body[:, 1].max()) + 1
    require(body.shape[0] == cs.size * track, "sweep rows do not form a C x branch grid")
    branches = (body[:, 2] + 1j * body[:, 3]).reshape(cs.size, track).T
    events = []
    for ln in lines[marker + 2 :]:
        lo, hi, kind = ln.split(",")
        events.append((float(lo), float(hi), kind))
    return cs, branches, events


def first_event(path: Path, kind: str):
    """(C_lo, C_hi, lambda_ref) of the first event of one kind in a sweep file.

    lambda_ref is the mean of the two tracked values nearest to each other at
    C_hi, which for a RealToComplex event is the colliding pair.
    """
    cs, branches, events = read_sweep(path)
    matches = [e for e in events if e[2] == kind]
    require(bool(matches), f"no {kind} event in {path.name}")
    lo, hi, _ = matches[0]
    vals = branches[:, int(np.argmin(np.abs(cs - hi)))]
    d = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(vals.size, np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return lo, hi, complex(0.5 * (vals[i] + vals[j]).real)


# --------------------------------------------------------------------------
# per-operation checks
# --------------------------------------------------------------------------


def check_spectrum_constant(path: Path, c: float, l: int, n: int) -> None:
    """Six leading eigenvalues match -k^2 +/- c k within LEADING_REL_TOL."""
    check_spectrum_pairs(path, n)
    _, rows, _ = read_table(path)
    lead = np.array([[float(r[0]), float(r[1])] for r in rows[:6]])
    expected = sorted(
        (-(k**2) + s * c * k for k in (bessel_zero(l, m) for m in (1, 2, 3)) for s in (1, -1)),
        reverse=True,
    )
    require(bool(np.all(np.abs(lead[:, 1]) < 1e-9)), "leading eigenvalues not real")
    worst = float(np.max(np.abs(lead[:, 0] - expected) / np.abs(expected)))
    require(worst <= LEADING_REL_TOL, f"leading eigenvalues off by rel {worst:.2e}")


def check_spectrum_pairs(path: Path, n: int) -> None:
    """2n rows; every Pair row closes with its partner's conjugate within PAIR_TOL."""
    header, rows, _ = read_table(path)
    require(header == ["re_lambda", "im_lambda", "class", "pair_index"], "spectrum header changed")
    require(len(rows) == 2 * n, f"expected {2 * n} eigenvalues, got {len(rows)}")
    vals = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    partner = np.array([int(r[3]) for r in rows])
    real = partner == -1
    require(
        all(r[2] == ("Real" if p == -1 else "Pair") for r, p in zip(rows, partner)),
        "class column disagrees with pair_index",
    )
    require(bool(np.all(np.abs(vals[real].imag) <= PAIR_TOL)), "Real row with |Im| > pair_tol")
    idx = np.nonzero(~real)[0]
    require(bool(np.all(partner[partner[idx]] == idx)), "pair_index is not an involution")
    gap = np.abs(vals[idx] - np.conj(vals[partner[idx]]))
    require(bool(np.all(gap <= PAIR_TOL)), "conjugate pair does not close")
    order_ok = np.all(np.diff(vals.real) <= 0)
    require(bool(order_ok), "eigenvalues not sorted by descending real part")


def check_threshold_sweep(path: Path, c: float, l: int) -> None:
    """The leading branch crosses zero within 0.01 (a tenth of a step) of C* = k_{l,1}/c."""
    cs, branches, _ = read_sweep(path)
    i = int(np.argmax(branches[:, -1].real))
    path_re = branches[i].real
    require(bool(np.all(np.abs(branches[i].imag) < 1e-8)), "leading branch left the real axis")
    pos = np.nonzero(path_re > 0)[0]
    require(pos.size > 0 and pos[0] > 0, "leading branch never crosses zero")
    k = pos[0]
    c0, c1, y0, y1 = cs[k - 1], cs[k], path_re[k - 1], path_re[k]
    crossing = c0 - y0 * (c1 - c0) / (y1 - y0)
    target = bessel_zero(l, 1) / c
    require(
        abs(crossing - target) <= THRESHOLD_ABS_TOL,
        f"zero crossing at C = {crossing:.4f}, expected {target:.4f}",
    )


def check_ep_sweep(path: Path) -> None:
    """At least one RealToComplex and one ComplexToReal event, in that order."""
    _, _, events = read_sweep(path)
    kinds = [e[2] for e in events]
    require("RealToComplex" in kinds, "EP sweep shows no RealToComplex event")
    require("ComplexToReal" in kinds, "EP sweep shows no ComplexToReal event")
    require(
        kinds.index("RealToComplex") < kinds.index("ComplexToReal"),
        "ComplexToReal event precedes the first RealToComplex event",
    )


def check_locate_ep(result, bracket) -> None:
    """The bisected EP lies inside the sweep's event bracket; the pair mean is real."""
    c_star, lam = result
    lo, hi = bracket
    require(lo <= c_star <= hi, f"EP C* = {c_star} outside bracket [{lo}, {hi}]")
    require(math.isfinite(lam.real) and abs(lam.imag) <= 1e-9 * max(1.0, abs(lam)), "EP eigenvalue not real")


def check_pencil(path: Path, modes: int) -> None:
    """Every listed eigenpair meets the pencil and psi2 residual bounds."""
    header, rows, _ = read_table(path)
    require(header[-2:] == ["pencil_residual", "psi2_residual"], "pencil header changed")
    require(len(rows) == modes, f"expected {modes} pencil rows, got {len(rows)}")
    res = np.array([[float(r[-2]), float(r[-1])] for r in rows])
    worst = float(np.max(res))
    require(worst <= PENCIL_TOL, f"pencil residual {worst:.2e} > {PENCIL_TOL}")


def check_mre(path: Path) -> None:
    """Riccati residual within RICCATI_TOL on every evaluated node, most nodes evaluated."""
    header, rows, _ = read_table(path)
    require(header == ["r", "riccati_residual", "cond_log"], "mre header changed")
    res = np.array([float(r[1]) for r in rows])
    finite = res[np.isfinite(res)]
    require(finite.size >= 0.5 * res.size, f"only {finite.size} of {res.size} nodes evaluated")
    worst = float(np.max(finite))
    require(worst <= RICCATI_TOL, f"Riccati residual {worst:.2e} > {RICCATI_TOL}")


def check_certificate(path: Path, l1: int) -> None:
    """min sup|rho| > 0, l-shift identity, forced l1 = l0 + 1, degenerate branch impossible."""
    _, rows, extra = read_table(path)
    kv = key_values(extra)
    require(len(rows) == int(kv["pairs"]), "certificate pair rows missing")
    require(float(kv["min_abs_rho_inf"]) > RHO_FLOOR, "obstruction vanishes")
    require(float(kv["l_shift_max_dev"]) <= L_SHIFT_TOL, "l-shift identity violated")
    require(int(kv["asymptotic_l1"]) == l1, f"asymptotic_l1 = {kv['asymptotic_l1']}, expected {l1}")
    require(kv["degenerate_impossible"] == "True", "degenerate branch not ruled out")


def check_nogo(path: Path, samples: int) -> int:
    """rho is finite and bounded away from zero; returns the q-floor exclusion count."""
    header, rows, extra = read_table(path)
    require(header == ["r", "q", "b1", "b2", "rho"], "nogo header changed")
    kv = key_values(extra)
    excluded = int(kv["excluded_samples"])
    require(len(rows) + excluded == samples, "nogo rows and exclusions do not add up")
    rho = np.array([float(r[4]) for r in rows])
    require(bool(np.all(np.isfinite(rho))), "rho not finite")
    require(float(kv["min_abs_rho_inf"]) > RHO_FLOOR, "obstruction vanishes")
    return excluded


def check_darboux(path: Path, levels: int, v_const: float | None) -> None:
    """Partner levels match within DARBOUX_TOL; for a constant V they are (m pi)^2 + V."""
    header, rows, _ = read_table(path)
    require(header == ["level", "E0", "E1", "abs_rel_err"], "darboux header changed")
    require(len(rows) == levels, f"expected {levels} levels, got {len(rows)}")
    vals = np.array([[float(x) for x in r] for r in rows])
    require(float(np.max(vals[:, 3])) <= DARBOUX_TOL, "partner spectrum not isospectral")
    e0, e1 = vals[:, 1], vals[:, 2]
    require(bool(np.all(np.abs(e1 - e0) <= DARBOUX_TOL * np.abs(e0))), "E1 disagrees with E0")
    if v_const is not None:
        exact = (np.arange(2, levels + 2) * np.pi) ** 2 + v_const
        require(
            bool(np.all(np.abs(e1 - exact) <= DARBOUX_TOL * np.abs(exact))),
            "partner levels off the closed form (m pi)^2 + V",
        )
