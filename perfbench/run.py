"""dynamolab benchmark: closed-loop runs of the README operations, one caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
The seed fixes the operations of one pass (see workloads.py).  The harness
measures set-up in fresh interpreters, warms every operation up, then runs
passes back to back for about ``--seconds`` (at least three), checks every
output after its pass, and prints one JSON line with the metrics named in
BENCHMARK.json.  ``--trace 0`` reports the end-to-end metrics from untraced
passes; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.

Every reported time is scaled to a fixed reference speed (see ``speed_probe``
and README.md): the hosts this runs on change speed by tens of percent over
seconds to minutes, and a raw time would measure the host.  The lines before
the result record the machine, the pinned BLAS thread count, the raw
(unscaled) times and the speed factor.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: the n=500 eigensolve moves by
# about 10% between one and two threads.  One thread: on a two-core machine
# a second BLAS thread made small solves and the Python loops between them
# slower and less steady.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # untraced passes; a traced run makes at least two of each kind
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT = 60

# Time of the speed probe on an idle core of the two-core Xeon host the
# benchmark was written on (5th percentile of 3000 probes); scaled times are
# seconds at that speed.
REF_NOMINAL_S = 0.00375


def speed_probe() -> float:
    """Seconds for a fixed mix of the package's kinds of work: the host's current speed.

    A pure-Python loop, a loop of 2x2 complex products (the MRE steps) and a
    small dense eigensolve; together they track the host's speed changes
    better than any one of them.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    a = rng.standard_normal((60, 60))
    m = rng.standard_normal((2, 2)) + 0j
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    v = np.eye(2, dtype=complex)
    for _ in range(300):
        v = m @ v * 0.5 + v
    scipy.linalg.eigvals(a)
    return time.perf_counter() - t0


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def fail(text: str) -> None:
    print(f"perfbench: {text}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# set-up in fresh interpreters
# --------------------------------------------------------------------------


def import_times(stderr: str) -> dict:
    """Cumulative -X importtime seconds of dynamolab and scipy.interpolate (0 if absent)."""
    out = {"import.dynamolab_s": 0.0, "import.scipy_interpolate_s": 0.0}
    keys = {"dynamolab": "import.dynamolab_s", "scipy.interpolate": "import.scipy_interpolate_s"}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) == 3 and parts[2].strip() in keys:
            out[keys[parts[2].strip()]] = int(parts[1]) / 1e6
    return out


def measure_setup(workload: str, outdir: Path, importtime: bool) -> tuple:
    """Median scaled and raw wall time of fresh interpreters that import the CLI and warm up."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), workload, str(outdir)]
    scaled, raw, imports = [], [], defaultdict(list)
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
        wall = time.perf_counter() - t0
        after = speed_probe()
        factor = 2 * REF_NOMINAL_S / (before + after)
        before = after
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
        raw.append(wall)
        scaled.append(wall * factor)
        if importtime:
            for k, v in import_times(proc.stderr).items():
                imports[k].append(v * factor)
    imports = {k: statistics.median(v) for k, v in imports.items()}
    return statistics.median(scaled), statistics.median(raw), imports


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.raw = {}  # operation index -> seconds, for the calls that returned
        self.scaled = {}  # the same, scaled to the reference speed
        self.factors = []  # speed factor of every call
        self.attempted = 0
        self.failed = 0
        self.counters = defaultdict(float)
        self.layers = {}  # per-layer metrics of a traced pass


def run_pass(ops: list, outdir: Path, tracer=None) -> PassResult:
    """Run every operation once, back to back, then check each output.

    A speed probe runs before the first call and after every call; a call's
    speed factor comes from the two probes around it.
    """
    from workloads import LocateEpOp

    res = PassResult()
    results, broken = {}, set()
    gc.collect()  # start every pass with the same collector state
    root = tracer.open("bench.pass", "bench") if tracer else None
    t_pass = time.perf_counter()
    probe = speed_probe()
    for i, op in enumerate(ops):
        res.attempted += 1
        try:
            arg = op.prepare(results) if isinstance(op, LocateEpOp) else outdir / f"{i:02d}.csv"
            t0 = time.perf_counter()
            results[id(op)] = op.run(arg)
            res.raw[i] = time.perf_counter() - t0
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            broken.add(i)
        after = speed_probe()
        factor = 2 * REF_NOMINAL_S / (probe + after)
        probe = after
        res.factors.append(factor)
        if i in res.raw:
            res.scaled[i] = res.raw[i] * factor
    res.wall = time.perf_counter() - t_pass
    if tracer:
        tracer.close(root)
    for i, op in enumerate(ops):
        if i in broken:
            res.failed += 1
            continue
        try:
            for k, v in (op.check(results[id(op)]) or {}).items():
                res.counters[k] += v
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res.failed += 1
            continue
        if isinstance(results[id(op)], Path):
            res.counters["cli.bytes_out"] += results[id(op)].stat().st_size
    return res


def call_medians(ops: list, passes: list, field: str) -> dict:
    """Each operation's median time, pooled over the passes and over identical calls.

    Calls with the same key (the same command line) share one pool of
    samples; every call of the pool is given the pool's median.
    """
    pools = defaultdict(list)
    for p in passes:
        for i, t in getattr(p, field).items():
            pools[ops[i].key].append(t)
    medians = {key: statistics.median(v) for key, v in pools.items()}
    return {i: medians[op.key] for i, op in enumerate(ops) if op.key in medians}


def op_sums(ops: list, medians: dict) -> dict:
    """Per-operation sums of call medians, and their total as wall_s."""
    from workloads import OPS

    out = {f"op.{name}_s": sum(t for i, t in medians.items() if ops[i].metric == name) for name in OPS}
    out["wall_s"] = sum(medians.values())
    return out


def more_time(t0: float, seconds: float, passes: list) -> bool:
    """Whether another pass fits: it may overrun the budget by at most half a pass."""
    mean_pass = statistics.mean(p.wall for p in passes)
    return time.perf_counter() - t0 + 0.5 * mean_pass < seconds


def untraced_loop(ops: list, outdir: Path, seconds: float) -> tuple:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or more_time(t0, seconds, passes):
        passes.append(run_pass(ops, outdir))
    metrics = op_sums(ops, call_medians(ops, passes, "scaled"))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = op_sums(ops, call_medians(ops, passes, "raw"))
    raw["speed_factor"] = statistics.median(f for p in passes for f in p.factors)
    raw["passes"] = len(passes)
    return metrics, raw, passes


def traced_loop(ops: list, outdir: Path, seconds: float) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics are medians over traced ones."""
    from tracing import Tracer, layer_metrics

    plain, traced = [], []
    tracer = Tracer()
    t0 = time.perf_counter()
    while min(len(plain), len(traced)) < 2 or more_time(t0, seconds, plain + traced):
        if len(plain) <= len(traced):
            plain.append(run_pass(ops, outdir))
            continue
        tracer.spans.clear()
        tracer.install()
        try:
            p = run_pass(ops, outdir, tracer)
        finally:
            tracer.uninstall()
        factor = statistics.mean(p.factors)
        p.layers = {k: v * factor if is_time(k) else v for k, v in layer_metrics(tracer.spans, 0).items()}
        for k, v in p.counters.items():
            p.layers[k] = p.layers.get(k, 0.0) + v
        traced.append(p)
    keys = set().union(*(p.layers for p in traced))
    metrics = {k: statistics.median(p.layers.get(k, 0.0) for p in traced) for k in keys}
    traced_wall = op_sums(ops, call_medians(ops, traced, "scaled"))["wall_s"]
    metrics["trace.overhead_s"] = traced_wall - op_sums(ops, call_medians(ops, plain, "scaled"))["wall_s"]
    raw = {"traced_passes": len(traced), "plain_passes": len(plain)}
    return metrics, raw, plain + traced


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ref_nominal_s": REF_NOMINAL_S,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dynamolab" / "cli.py").is_file():
        fail(f"no dynamolab sources under {SRC}")
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    import dynamolab.cli  # noqa: F401
    import workloads

    if Path(dynamolab.__file__).resolve().parent != (SRC / "dynamolab").resolve():
        fail(f"imported dynamolab from {dynamolab.__file__}, not from {SRC}")
    if args.workload not in workloads.FOCUS:
        fail(f"unknown workload {args.workload!r}; choose one of {sorted(workloads.FOCUS)}")

    outdir = ROOT / ".perfbench_out" / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_raw, imports = measure_setup(args.workload, outdir, importtime=bool(args.trace))
        workloads.warm_up(workloads.OPS, outdir)
        ops = workloads.build_pass(args.workload, args.seed)
        if args.trace:
            metrics, raw, passes = traced_loop(ops, outdir, args.seconds)
            metrics.update(imports)
            wanted = spec["per_layer"]
        else:
            metrics, raw, passes = untraced_loop(ops, outdir, args.seconds)
            metrics["setup_s"] = setup_s
            raw["setup_s"] = setup_raw
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}")
    failed = sum(p.failed for p in passes)
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"raw": raw}))
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
