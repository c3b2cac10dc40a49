"""Tests of the benchmark itself: every check passes on a real output and fails
on a deliberately perturbed one, and the tracer counts the README solves.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from dynamolab.branches import SweepConfig, dynamo_family, locate_ep  # noqa: E402
from dynamolab.cli import main  # noqa: E402
from dynamolab.profiles import AlphaProfile, parse_profile  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def run_cli(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out


def edit(path, fn):
    """Rewrite the file line by line through fn(index, line) -> line."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(i, ln) for i, ln in enumerate(lines)) + "\n")


def scale_field(line, col, factor, shift=0.0):
    parts = line.split(",")
    parts[col] = repr(float(parts[col]) * factor + shift)
    return ",".join(parts)


def test_bessel_zeros_match_reference_values():
    assert checks.bessel_zero(1, 1) == pytest.approx(4.493409457909064, abs=1e-12)
    assert checks.bessel_zero(2, 3) == pytest.approx(12.322940970566582, abs=1e-12)


def test_spectrum_constant_check(tmp_path):
    out = run_cli(tmp_path, "s", ["spectrum", "--alpha", "const:1.1", "--l", "2", "--n", "120"])
    checks.check_spectrum_constant(out, 1.1, 2, 120)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectrum_constant(out, 1.2, 2, 120)
    edit(out, lambda i, ln: scale_field(ln, 0, 1.01) if i == 3 else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectrum_constant(out, 1.1, 2, 120)


def test_spectrum_pair_check(tmp_path):
    out = run_cli(tmp_path, "p", ["spectrum", "--alpha", "poly:10,-30", "--n", "60"])
    checks.check_spectrum_pairs(out, 60)
    rows = out.read_text().splitlines()
    first_pair = next(i for i, ln in enumerate(rows) if ",Pair," in ln)
    edit(out, lambda i, ln: scale_field(ln, 1, 1.0 + 1e-6) if i == first_pair else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectrum_pairs(out, 60)


def test_threshold_sweep_check(tmp_path):
    out = run_cli(tmp_path, "t", ["sweep", "--alpha", "const:1", "--scale", "0,6,61", "--n", "40"])
    checks.check_threshold_sweep(out, 1.0, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_threshold_sweep(out, 1.01, 1)
    marker = out.read_text().splitlines().index("# events")
    edit(out, lambda i, ln: scale_field(ln, 2, 1.0, shift=0.5) if 0 < i < marker else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_threshold_sweep(out, 1.0, 1)


def test_ep_sweep_and_locate_ep_checks(tmp_path):
    out = run_cli(tmp_path, "e", ["sweep", "--alpha", "poly:1,-3", "--scale", "9,11,17", "--n", "40"])
    checks.check_ep_sweep(out)
    lo, hi, ref = checks.first_event(out, "RealToComplex")
    result = locate_ep(dynamo_family(parse_profile("poly:1,-3"), 1, 40), (lo, hi), 1e-6, lambda_ref=ref)
    checks.check_locate_ep(result, (lo, hi))
    with pytest.raises(checks.CheckFailed):
        checks.check_locate_ep((hi + 1e-3, result[1]), (lo, hi))
    edit(out, lambda i, ln: ln.replace("ComplexToReal", "Crossing"))
    with pytest.raises(checks.CheckFailed):
        checks.check_ep_sweep(out)


def test_pencil_check(tmp_path):
    out = run_cli(tmp_path, "c", ["pencil-check", "--alpha", "poly:1,0,0.5", "--n", "60"])
    checks.check_pencil(out, 12)
    edit(out, lambda i, ln: ln if i != 5 else ",".join(ln.split(",")[:-1] + ["2e-6"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_pencil(out, 12)


def test_mre_check(tmp_path):
    argv = ["mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5", "--step", "0.001"]
    out = run_cli(tmp_path, "m", argv)
    checks.check_mre(out)
    edit(out, lambda i, ln: scale_field(ln, 1, 1e7) if i == 40 else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_mre(out)


def test_certificate_check(tmp_path):
    out = run_cli(tmp_path, "cert", ["certificate", "--defect-n", "60"])
    checks.check_certificate(out, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(out, 3)
    edit(out, lambda i, ln: "degenerate_impossible=False" if ln.startswith("degenerate_impossible") else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(out, 2)


def test_nogo_check(tmp_path):
    argv = ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--l1", "2"]
    out = run_cli(tmp_path, "n", argv)
    assert checks.check_nogo(out, 512) == 0
    edit(out, lambda i, ln: ln.replace("excluded_samples=0", "excluded_samples=3"))
    with pytest.raises(checks.CheckFailed):
        checks.check_nogo(out, 512)


def test_darboux_check(tmp_path):
    out = run_cli(tmp_path, "d", ["darboux", "--v0", "const:2.5", "--n", "2000"])
    checks.check_darboux(out, 5, 2.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_darboux(out, 5, 2.0)
    edit(out, lambda i, ln: scale_field(ln, 2, 1.01) if i == 2 else ln)
    with pytest.raises(checks.CheckFailed):
        checks.check_darboux(out, 5, 2.5)


def test_every_workload_runs_every_operation_and_the_seed_fixes_inputs():
    for name in workloads.FOCUS:
        ops = workloads.build_pass(name, 7)
        assert {op.metric for op in ops} == set(workloads.OPS)
        again = workloads.build_pass(name, 7)
        assert [getattr(op, "argv", None) for op in ops] == [getattr(op, "argv", None) for op in again]


def test_tracer_counts_readme_solves_and_restores_bindings():
    import dynamolab.branches as branches
    import dynamolab.spectral

    original = dynamolab.spectral.eigen
    tracer = Tracer()
    tracer.install()
    try:
        assert branches.eigen is not original
        assert dynamolab.spectral.eigen is branches.eigen
        root = tracer.open("bench.pass", "bench")
        cfg = SweepConfig(base=AlphaProfile.constant(1.0), c_min=0.0, c_max=6.0, steps=61, l=1, n=60)
        branches.sweep(cfg)
        base = AlphaProfile.polynomial([1.0, -3.0])
        trace = branches.sweep(SweepConfig(base=base, c_min=9.0, c_max=11.0, steps=17, l=1, n=100))
        ev = next(e for e in trace.events if e.kind == "RealToComplex")
        branches.locate_ep(branches.dynamo_family(base, 1, 100), (ev.c_lo, ev.c_hi), 1e-6, lambda_ref=-38 + 0j)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert branches.eigen is original and dynamolab.spectral.eigen is original
    m = layer_metrics(tracer.spans, 0)
    # 61 + 49 solves for the README threshold sweep, 17 + 16 for the README EP sweep
    assert m["branches.grid_solves"] == 61 + 17
    assert m["branches.refine_solves"] == 49 + 16
    assert m["branches.locate_ep.solves"] == 20
    assert m["spectral.eigen.calls"] == 110 + 33 + 20
    self_total = sum(v for k, v in m.items() if k.startswith("self.")) + m["cli.self_s"]
    assert self_total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert np.isfinite(m["spectral.eigen.gflop_computed"])


def test_a_failed_check_counts_as_a_failed_operation(tmp_path):
    import run

    ops = [workloads.darboux("const:2.5", 2.5), workloads.darboux("const:2.5", 2.0)]
    res = run.run_pass(ops, tmp_path)
    assert (res.attempted, res.failed) == (2, 1)
    assert set(res.scaled) == {0, 1}
