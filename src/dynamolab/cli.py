"""Command-line front end: deterministic CSV (and optional SVG) outputs.

Subcommands
    spectrum      full classified spectrum of one assembled operator
    sweep         eigenvalue branches under profile scaling, with events
    pencil-check  quadratic-pencil consistency of the leading eigenpairs
    darboux       scalar partner-potential isospectrality table
    nogo          obstruction residual rho(r) for one profile pair
    mre-check     Riccati residual of one linearized trajectory
    certificate   full no-go certificate over the built-in pair family

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
floating-point output uses repr(), i.e. the shortest round-tripping decimal,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .branches import SweepConfig, sweep
from .darboux import darboux_partner, verify_isospectral
from .errors import ConfigurationError, DomainError, DynamoLabError, ShapeError
from .grid import build_grid
from .mre import mre_linear_solve, riccati_residual
from .nogo import AlphaPair, StructureFunctions, nogo_certificate
from .operator import assemble, pencil_coefficients, pencil_psi2
from .profiles import parse_profile
from .spectral import classify_pairs, eigen


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_lines(path: str, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def _write_svg(path: str, curves, title: str) -> None:
    """Bare polyline plot; curves is a list of (xs, ys) arrays."""
    w, h, m = 640, 480, 45
    xs_all = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    ys_all = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    x_lo, x_hi = float(np.min(xs_all[finite])), float(np.max(xs_all[finite]))
    y_lo, y_hi = float(np.min(ys_all[finite])), float(np.max(ys_all[finite]))
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<title>{title}</title>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        'fill="none" stroke="black"/>',
    ]
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for i, (xs, ys) in enumerate(curves):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        px = m + (xs[ok] - x_lo) / x_span * (w - 2 * m)
        py = h - m - (ys[ok] - y_lo) / y_span * (h - 2 * m)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{colors[i % len(colors)]}" stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    alpha = parse_profile(args.alpha)
    grid = build_grid(args.n)
    spec = classify_pairs(eigen(assemble(grid, alpha, args.l)))
    lines = ["re_lambda,im_lambda,class,pair_index"]
    labels = spec.labels()
    for i, lam in enumerate(spec.eigenvalues):
        lines.append(
            f"{_fmt(lam.real)},{_fmt(lam.imag)},{labels[i]},{_fmt(spec.pair_index[i])}"
        )
    _write_lines(args.out, lines)
    return 0


def _cmd_sweep(args) -> int:
    alpha = parse_profile(args.alpha)
    c_min, c_max, steps = args.scale
    cfg = SweepConfig(
        base=alpha,
        c_min=c_min,
        c_max=c_max,
        steps=int(steps),
        l=args.l,
        n=args.n,
        track_count=args.track,
    )
    trace = sweep(cfg)
    lines = ["C,branch_id,re_lambda,im_lambda"]
    for k, c in enumerate(trace.c_values):
        for i in range(trace.track_count):
            lam = trace.branches[i, k]
            lines.append(f"{_fmt(c)},{_fmt(i)},{_fmt(lam.real)},{_fmt(lam.imag)}")
    lines.append("# events")
    lines.append("C_lo,C_hi,kind")
    for ev in trace.events:
        lines.append(f"{_fmt(ev.c_lo)},{_fmt(ev.c_hi)},{ev.kind}")
    _write_lines(args.out, lines)
    if args.svg:
        curves = [(trace.c_values, trace.branches[i].real) for i in range(trace.track_count)]
        _write_svg(args.svg, curves, "eigenvalue branches vs scaling")
    return 0


def _cmd_pencil_check(args) -> int:
    if args.modes < 1:
        raise ConfigurationError("--modes must be at least 1")
    alpha = parse_profile(args.alpha)
    grid = build_grid(args.n)
    m = assemble(grid, alpha, args.l)
    if not m.alpha_nodes.all():  # before any eigensolve: the pencil divides by alpha
        raise DomainError("alpha vanishes on a grid node; the quadratic pencil needs alpha != 0")
    spec = eigen(m, leading=args.modes, want_vectors=True)
    lines = ["index,re_lambda,im_lambda,a0,a1,a2,discriminant,pencil_residual,psi2_residual"]
    start = 0
    while len(lines) <= args.modes and start < m.size:
        # the next eigenpairs; a skipped one asks for more
        stop = start + args.modes + 1 - len(lines)
        if spec.size < min(stop, m.size):  # a leading solve that holds too few
            spec = eigen(m, leading=stop, want_vectors=True)
        vecs = spec.eigenvectors
        keep = [i for i in range(start, min(stop, spec.size)) if np.linalg.norm(vecs[: grid.n, i]) > 1e-8]
        if keep:  # one call of each pencil function for every kept eigenpair
            lams, psi1 = spec.eigenvalues[keep], vecs[: grid.n, keep]
            c = pencil_coefficients(m, psi1)
            rec = pencil_psi2(m, psi1, lams)
        for j, idx in enumerate(keep):
            lam, psi2 = lams[j], vecs[grid.n :, idx]
            a0, a1, a2, disc = c.a0[j], c.a1[j], c.a2[j], c.discriminant[j]
            scale = max(abs(a2 * lam**2), abs(a1 * lam), abs(a0), 1e-300)
            pencil_res = abs(a2 * lam**2 + a1 * lam + a0) / scale
            psi2_res = np.linalg.norm(rec[:, j] - psi2) / max(np.linalg.norm(psi2), 1e-300)
            row = (idx, lam.real, lam.imag, a0, a1, a2, disc, pencil_res, psi2_res)
            lines.append(",".join(map(_fmt, row)))
        start = stop
    _write_lines(args.out, lines)
    return 0


def _cmd_darboux(args) -> int:
    pair = darboux_partner(parse_profile(args.v0), build_grid(args.n))
    rep = verify_isospectral(pair, levels=args.levels)
    lines = ["level,E0,E1,abs_rel_err"]
    for row in rep.levels:
        lines.append(f"{_fmt(row.level)},{_fmt(row.e0)},{_fmt(row.e1)},{_fmt(row.rel_err)}")
    _write_lines(args.out, lines)
    return 0


def _cmd_nogo(args) -> int:
    if args.samples < 1:
        raise ConfigurationError("--samples must be at least 1")
    alpha0 = parse_profile(args.alpha0)
    alpha1 = parse_profile(args.alpha1)
    lo, hi = args.window
    if not 0.0 < lo < hi <= 1.0:
        raise ConfigurationError(f"--window must sit inside (0, 1] with LO < HI, got {lo},{hi}")
    pair = AlphaPair(alpha0=alpha0, alpha1=alpha1, l0=args.l1 - 1, l1=args.l1)
    sf = StructureFunctions(pair)
    rs = np.linspace(lo, hi, args.samples)
    columns = sf.table(rs)
    kept, rho = columns[0], columns[4]
    lines = ["r,q,b1,b2,rho"]
    lines += [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
    lines.append(f"min_abs_rho_inf={_fmt(np.max(np.abs(rho)))}")
    lines.append(f"excluded_samples={rs.size - kept.size}")
    _write_lines(args.out, lines)
    if args.svg:
        _write_svg(args.svg, [(kept, rho)], "obstruction residual rho vs r")
    return 0


def _cmd_mre_check(args) -> int:
    if args.stride < 1:
        raise ConfigurationError("--stride must be at least 1")
    alpha0 = parse_profile(args.alpha0)
    alpha1 = parse_profile(args.alpha1)
    pair = AlphaPair(alpha0=alpha0, alpha1=alpha1, l0=args.l0, l1=args.l1, e=args.E)
    if args.init == "series":
        init, default_start, r_min = "series", 1e-3, 0.1
    else:
        init = (
            np.array([[0.3 + 0.1j, -0.2], [0.1, 0.4]], dtype=complex),
            np.eye(2, dtype=complex),
        )
        default_start, r_min = 0.1, None
    r_start = default_start if args.r_start is None else args.r_start
    alpha, l = (pair.alpha0, pair.l0) if args.system == "U" else (pair.alpha1, pair.l1)
    sol = mre_linear_solve(args.system, alpha, l, pair.e, r_start, 1.0, step=args.step, init=init)
    for warning in sol.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _, per_node = riccati_residual(sol, r_min=r_min)
    lines = ["r,riccati_residual,cond_log"]
    columns = (col[:: args.stride].tolist() for col in (sol.rs, per_node, sol.cond_log))
    lines += [",".join(map(repr, row)) for row in zip(*columns)]
    _write_lines(args.out, lines)
    return 0


def _cmd_certificate(args) -> int:
    report = nogo_certificate(l1=args.l1, defect_n=args.defect_n)
    lines = ["pair_index,rho_sup"]
    for i, sup in enumerate(report.rho_sup):
        lines.append(f"{_fmt(i)},{_fmt(sup)}")
    lines.extend(report.summary_lines())
    _write_lines(args.out, lines)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _scale_triplet(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected MIN,MAX,STEPS")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _window_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    return float(parts[0]), float(parts[1])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    parse_args keeps nothing between calls: each one fills a new namespace.
    """
    p = argparse.ArgumentParser(
        prog="dynamolab",
        description="spherical alpha^2-dynamo spectral laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="classified spectrum of one operator")
    sp.add_argument("--alpha", required=True, help="profile literal, e.g. const:1.0")
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sw = sub.add_parser("sweep", help="branch tracking under profile scaling")
    sw.add_argument("--alpha", required=True)
    sw.add_argument("--l", type=int, default=1)
    sw.add_argument("--scale", type=_scale_triplet, required=True, help="MIN,MAX,STEPS")
    sw.add_argument("--n", type=int, default=300)
    sw.add_argument("--track", type=int, default=6)
    sw.add_argument("--out", required=True)
    sw.add_argument("--svg", default=None)
    sw.set_defaults(func=_cmd_sweep)

    pc = sub.add_parser("pencil-check", help="quadratic-pencil consistency table")
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--l", type=int, default=1)
    pc.add_argument("--n", type=int, default=300)
    pc.add_argument("--modes", type=int, default=12)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=_cmd_pencil_check)

    db = sub.add_parser("darboux", help="partner-potential isospectrality table")
    db.add_argument("--v0", default="const:0.0", help="potential literal")
    db.add_argument("--n", type=int, default=2000)
    db.add_argument("--levels", type=int, default=5)
    db.add_argument("--out", required=True)
    db.set_defaults(func=_cmd_darboux)

    ng = sub.add_parser("nogo", help="obstruction residual for one profile pair")
    ng.add_argument("--alpha0", required=True)
    ng.add_argument("--alpha1", required=True)
    ng.add_argument("--l1", type=int, default=2)
    ng.add_argument("--window", type=_window_pair, default=(0.1, 1.0))
    ng.add_argument("--samples", type=int, default=512)
    ng.add_argument("--out", required=True)
    ng.add_argument("--svg", default=None)
    ng.set_defaults(func=_cmd_nogo)

    mc = sub.add_parser("mre-check", help="Riccati residual of one linear trajectory")
    mc.add_argument("--alpha0", required=True)
    mc.add_argument("--alpha1", required=True)
    mc.add_argument("--l0", type=int, default=1)
    mc.add_argument("--l1", type=int, default=2)
    mc.add_argument("--E", type=float, default=0.0)
    mc.add_argument("--system", choices=("U", "B"), default="U")
    mc.add_argument(
        "--r-start", dest="r_start", type=float, default=None,
        help="start radius (default 0.1 for --init generic, 1e-3 for --init series)",
    )
    mc.add_argument("--step", type=float, default=1e-4)
    mc.add_argument("--init", choices=("generic", "series"), default="generic")
    mc.add_argument("--stride", type=int, default=10)
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=_cmd_mre_check)

    ct = sub.add_parser("certificate", help="full no-go certificate over the built-in family")
    ct.add_argument("--l1", type=int, default=2)
    ct.add_argument("--defect-n", dest="defect_n", type=int, default=240)
    ct.add_argument("--out", required=True)
    ct.set_defaults(func=_cmd_certificate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, ShapeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DynamoLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
