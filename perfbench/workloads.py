"""The three workloads: seeded inputs, the operations of one pass, and warm-ups.

A pass is the fixed list of operations one seed defines.  Each workload has
focus operations, the ones it exists to measure, with seeded inputs.  Every
other operation runs in each pass at a small size on the README inputs (a
probe), so that every end-to-end metric exists on every workload.  Set-up
warms only the focus operations, so a workload's set-up time is that of a
session running those commands.

CLI operations run in-process through ``dynamolab.cli.main``; ``locate_ep``
has no command and runs through the library on the bracket of the EP sweep
that precedes it in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

OPS = (
    "spectrum",
    "sweep",
    "locate_ep",
    "pencil-check",
    "mre-check",
    "certificate",
    "nogo",
    "darboux",
)

THRESHOLD_N = 60  # grid of the threshold sweeps (the README uses 300; see README.md)
EP_N = 100  # the README EP sweep
EP_TOL_C = 1e-6
SPECTRUM_N = 500
PENCIL_N = 300
DARBOUX_N = 2000
NOGO_SAMPLES = 512
PENCIL_MODES = 12


@dataclass
class CliOp:
    """One CLI command; ``check(path)`` validates its output file."""

    metric: str
    argv: list
    check: Callable[[Path], Optional[dict]]

    @property
    def key(self) -> tuple:
        return tuple(self.argv)

    def run(self, path: Path) -> Path:
        from dynamolab.cli import main

        rc = main(self.argv + ["--out", str(path)])
        if rc != 0:
            raise checks.CheckFailed(f"{self.argv[0]} exited with code {rc}")
        return path


@dataclass
class LocateEpOp:
    """locate_ep on the first RealToComplex bracket of an earlier EP sweep."""

    source: CliOp
    alpha: str
    l: int
    n: int
    metric: str = "locate_ep"
    bracket: tuple = field(default=(0.0, 0.0), init=False)

    @property
    def key(self) -> tuple:
        return (self.metric, self.alpha, self.l, self.n)

    def prepare(self, results: dict) -> complex:
        """Read the bracket and the colliding pair's value from the EP sweep's output."""
        lo, hi, ref = checks.first_event(results[id(self.source)], "RealToComplex")
        self.bracket = (lo, hi)
        return ref

    def run(self, ref: complex) -> tuple:
        from dynamolab.branches import dynamo_family, locate_ep
        from dynamolab.profiles import parse_profile

        family = dynamo_family(parse_profile(self.alpha), self.l, self.n)
        return locate_ep(family, self.bracket, EP_TOL_C, lambda_ref=ref)

    def check(self, result) -> None:
        checks.check_locate_ep(result, self.bracket)


# --------------------------------------------------------------------------
# operation builders
# --------------------------------------------------------------------------


def threshold_sweep(c: float, l: int, n: int) -> CliOp:
    argv = ["sweep", "--alpha", f"const:{c!r}", "--l", str(l), "--scale", "0,6,61", "--n", str(n)]
    return CliOp("sweep", argv, lambda p: checks.check_threshold_sweep(p, c, l))


def ep_sweep(b: float, n: int) -> CliOp:
    argv = ["sweep", "--alpha", f"poly:1,-{b!r}", "--l", "1", "--scale", "9,11,17", "--n", str(n)]
    return CliOp("sweep", argv, checks.check_ep_sweep)


def ep_pair(b: float, n: int) -> list:
    sweep_op = ep_sweep(b, n)
    return [sweep_op, LocateEpOp(sweep_op, f"poly:1,-{b!r}", 1, n)]


def spectrum_const(c: float, l: int, n: int) -> CliOp:
    argv = ["spectrum", "--alpha", f"const:{c!r}", "--l", str(l), "--n", str(n)]
    return CliOp("spectrum", argv, lambda p: checks.check_spectrum_constant(p, c, l, n))


def spectrum_profile(alpha: str, l: int, n: int) -> CliOp:
    argv = ["spectrum", "--alpha", alpha, "--l", str(l), "--n", str(n)]
    return CliOp("spectrum", argv, lambda p: checks.check_spectrum_pairs(p, n))


def pencil(theta: float, n: int) -> CliOp:
    argv = ["pencil-check", "--alpha", f"poly:1,0,{theta!r}", "--n", str(n)]
    return CliOp("pencil-check", argv, lambda p: checks.check_pencil(p, PENCIL_MODES))


def certificate(l1: int) -> CliOp:
    return CliOp("certificate", ["certificate", "--l1", str(l1)], lambda p: checks.check_certificate(p, l1))


def mre(system: str, alpha0: str, alpha1: str, step: float) -> CliOp:
    init = "generic" if system == "U" else "series"
    argv = [
        "mre-check", "--alpha0", alpha0, "--alpha1", alpha1,
        "--system", system, "--init", init, "--step", repr(step),
    ]
    return CliOp("mre-check", argv, checks.check_mre)


def nogo(alpha0: str, alpha1: str, l1: int) -> CliOp:
    argv = ["nogo", "--alpha0", alpha0, "--alpha1", alpha1, "--l1", str(l1)]
    return CliOp("nogo", argv, lambda p: {"nogo.q_floor_excluded": checks.check_nogo(p, NOGO_SAMPLES)})


def darboux(v0: str, v_const: Optional[float]) -> CliOp:
    argv = ["darboux", "--v0", v0, "--n", str(DARBOUX_N)]
    return CliOp("darboux", argv, lambda p: checks.check_darboux(p, 5, v_const))


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


class Inputs:
    """Seeded draws, rounded to four decimals so the CLI literals stay short."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def u(self, lo: float, hi: float) -> float:
        return round(float(self.rng.uniform(lo, hi)), 4)

    def quadratic(self) -> str:
        """1 + a r + b r^2 with the coefficient ranges of the acceptance suite."""
        return f"poly:1,{self.u(-0.3, 0.5)!r},{self.u(-0.3, 0.5)!r}"

    def nogo_pair(self) -> tuple:
        """Two distinct positive quadratic profiles 1 + theta r^2."""
        t0 = self.u(0.2, 1.2)
        t1 = self.u(0.2, 1.2)
        while abs(t1 - t0) < 0.1:
            t1 = self.u(0.2, 1.2)
        return f"poly:1,0,{t0!r}", f"poly:1,0,{t1!r}"

    def potential(self, i: int) -> tuple:
        """Alternately a constant potential (closed-form levels) and a smooth quadratic one."""
        if i % 2 == 0:
            v = self.u(-5.0, 5.0)
            return f"const:{v!r}", v
        return f"poly:{self.u(-2.0, 2.0)!r},{self.u(-3.0, 3.0)!r},{self.u(-3.0, 3.0)!r}", None


def probes(skip: set) -> list:
    """Small calls of every operation not in ``skip``, repeated to 0.1-1.2 s a pass.

    Probes use the README inputs, not seeded ones: the solve count of a sweep
    moves with its profile, and a probe should read the same on every seed.
    """
    out = []
    if "spectrum" not in skip:
        out += [spectrum_const(1.0, 1, 120) for _ in range(3)]
    if "sweep" not in skip:
        for _ in range(3):
            out += ep_pair(3.0, 40)
    if "pencil-check" not in skip:
        out += [pencil(0.5, 60) for _ in range(10)]
    if "mre-check" not in skip:
        out += [mre("U", "poly:1,0.2,0.3", "poly:1,0,0.5", 1e-3) for _ in range(2)]
    if "certificate" not in skip:
        out += [certificate(2) for _ in range(2)]
    if "nogo" not in skip:
        out += [nogo("poly:1,0,0.5", "const:1", 2) for _ in range(16)]
    if "darboux" not in skip:
        out += [darboux("const:0.0", 0.0) for _ in range(10)]
    return out


def build_pass(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload`` for ``seed``."""
    inp = Inputs(seed)
    # The refinement count of a sweep jumps with its profile (96 to 115 solves
    # for c in [0.97, 1.03], 28 to 36 for b in [2.99, 3.01]), so each pass
    # draws one input from each half of the range.
    if workload == "sweep":
        ops = [
            threshold_sweep(inp.u(lo, hi), l, THRESHOLD_N)
            for l in (1, 2)
            for lo, hi in ((0.97, 1.0), (1.0, 1.03))
        ]
        for lo, hi in ((2.99, 3.0), (3.0, 3.01)):
            ops += ep_pair(inp.u(lo, hi), EP_N)
        return ops + probes({"sweep", "locate_ep"})
    if workload == "spectrum":
        ops = [
            spectrum_const(inp.u(0.8, 1.2), int(inp.rng.integers(1, 3)), SPECTRUM_N),
            spectrum_profile(f"poly:1,0,{inp.u(0.2, 1.0)!r}", 1, SPECTRUM_N),
            pencil(inp.u(0.2, 0.6), PENCIL_N),
            pencil(inp.u(0.6, 1.0), PENCIL_N),
        ]
        return ops + probes({"spectrum", "pencil-check"})
    if workload == "certificate":
        ops = [
            certificate(2),
            certificate(3),
            mre("U", inp.quadratic(), inp.quadratic(), 1e-4),
            mre("B", inp.quadratic(), inp.quadratic(), 1e-4),
        ]
        ops += [nogo(*inp.nogo_pair(), int(inp.rng.integers(2, 4))) for _ in range(8)]
        ops += [darboux(*inp.potential(i)) for i in range(8)]
        return ops + probes({"certificate", "mre-check", "nogo", "darboux"})
    raise ValueError(f"unknown workload {workload!r}")


FOCUS = {
    "sweep": ("sweep", "locate_ep"),
    "spectrum": ("spectrum", "pencil-check"),
    "certificate": ("certificate", "mre-check", "nogo", "darboux"),
}


# --------------------------------------------------------------------------
# warm-ups: the first call of each operation at the smallest size
# --------------------------------------------------------------------------


def warm_up(ops: tuple, outdir: Path) -> None:
    """One tiny call of each named operation, so imports and first-call costs are paid."""
    from dynamolab.cli import main

    out = str(outdir / "warmup.csv")
    tiny = {
        "spectrum": ["spectrum", "--alpha", "const:1", "--n", "16"],
        "sweep": ["sweep", "--alpha", "const:1", "--scale", "0,6,7", "--n", "16"],
        "pencil-check": ["pencil-check", "--alpha", "poly:1,0,0.5", "--n", "16", "--modes", "4"],
        "mre-check": ["mre-check", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--step", "0.01"],
        "nogo": ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--samples", "16"],
        "darboux": ["darboux", "--n", "64", "--levels", "2"],
    }
    for name in ops:
        if name in tiny:
            if main(tiny[name] + ["--out", out]) != 0:
                raise RuntimeError(f"warm-up of {name} failed")
        elif name == "locate_ep":
            from dynamolab.branches import locate_ep

            locate_ep(lambda c: np.array([[1.0, c], [-c, -1.0]]), (0.5, 1.5), 1e-3)
        elif name == "certificate":
            # the full command costs about a second; the defect witnesses run
            # mre_linear_solve, which the mre-check warm-up already exercises
            from dynamolab.nogo import nogo_certificate

            nogo_certificate(defect_samples=0).summary_lines()
        else:
            raise ValueError(f"no warm-up for {name!r}")
