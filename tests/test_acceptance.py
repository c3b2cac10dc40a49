"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    assemble,
    build_grid,
    classify_pairs,
    eigen,
    jordan_probe,
    lambda_pm,
    pencil_coefficients,
    pencil_psi2,
    pseudo_hermiticity_residual,
)
from dynamolab.branches import SweepConfig, locate_ep, sweep
from dynamolab.cli import main
from dynamolab.darboux import (
    darboux_partner,
    factorization_residual,
    partner_mode,
    product_invariant_check,
    verify_isospectral,
)
from dynamolab.mre import eigenfunction_equivalence, mre_linear_solve, riccati_residual
from dynamolab.nogo import AlphaPair, asymptotic_l_increment, nogo_certificate
from dynamolab.spectral import PAIR_TOL
from oracles import K_L1, bessel_zero

ONE = AlphaProfile.constant(1.0)


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def spec_const1():
    t0 = time.time()
    m = assemble(build_grid(500), ONE, 1)
    spec = eigen(m, want_vectors=True)
    return spec, m, time.time() - t0


@pytest.fixture(scope="module")
def spec_const0():
    m = assemble(build_grid(500), AlphaProfile.constant(0.0), 1)
    return eigen(m), m


def test_c01_constant_alpha_benchmark(spec_const1):
    spec, _, elapsed = spec_const1
    expected = sorted(
        [-(k**2) + s * k for k in K_L1 for s in (+1, -1)], reverse=True
    )
    lead = spec.eigenvalues[:6]
    ok = bool(np.all(np.abs(lead.imag) < 1e-9))
    worst = 0.0
    for lam, ref in zip(lead.real, expected):
        worst = max(worst, abs(lam - ref) / abs(ref))
    ok = ok and worst <= 1e-3 and elapsed < 30.0
    report(1, ok, f"six leading eigenvalues match -k^2 +/- k (worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_c02_decoupled_limit(spec_const0):
    spec, _ = spec_const0
    vals = np.sort(spec.eigenvalues.real)[::-1]
    ok = bool(np.all(np.abs(spec.eigenvalues.imag) < 1e-9))
    # exact double degeneracy of consecutive sorted values
    pair_gap = np.abs(vals[0::2] - vals[1::2]) / np.abs(vals[0::2])
    ok = ok and np.max(pair_gap) <= 1e-6
    # resolved modes match the continuum Bessel zeros; second-order
    # differencing has relative eigenvalue error ~(k h)^2 / 12, so the cutoff
    # consistent with a 1e-3 tolerance is k h <= 0.1
    h = 1.0 / 501.0
    worst = 0.0
    m = 1
    while True:
        k = bessel_zero(1, m, hi=200.0)
        if k * h >= 0.1 or m > vals.size // 2:
            break
        worst = max(worst, abs(vals[2 * (m - 1)] + k**2) / k**2)
        m += 1
    ok = ok and worst <= 1e-3 and m > 12
    report(2, ok, f"doubly degenerate Bessel spectrum ({m - 1} modes, worst rel {worst:.2e})")


def test_c03_pseudo_hermiticity_exact():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 140))
        l = int(rng.integers(1, 6))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            alpha = AlphaProfile.constant(float(rng.normal()))
        elif kind == 1:
            alpha = AlphaProfile.polynomial(rng.normal(size=4).tolist())
        else:
            alpha = AlphaProfile.exponential(float(rng.normal()), float(rng.normal()))
        worst = max(worst, pseudo_hermiticity_residual(assemble(build_grid(n), alpha, l)))
    report(3, worst == 0.0, f"J M^T J - M residual exactly zero on 20 assemblies (max {worst!r})")


def test_c04_conjugate_pair_closure(spec_const1, spec_const0):
    spectra = [spec_const1[0], spec_const0[0]]
    spectra.append(eigen(assemble(build_grid(120), AlphaProfile.polynomial([10.0, -30.0]), 1)))
    unpaired = 0
    complex_seen = 0
    for spec in spectra:
        out = classify_pairs(spec)  # raises on any unpaired complex value
        complex_seen += int(np.sum(out.pair_index != -1))
    ok = unpaired == 0 and complex_seen > 0
    report(4, ok, f"all spectra classified at spectral.PAIR_TOL = {PAIR_TOL:g} ({complex_seen} paired complex values)")


def test_c05_pencil_consistency(spec_const1):
    # alpha == 0 (criterion 2) is excluded: the pencil reduction divides by
    # alpha, and its own contract rejects profiles vanishing on the grid
    spec, m, _ = spec_const1
    g = m.grid
    checked = 0
    worst_q = 0.0
    worst_match = 0.0
    worst_rec = 0.0
    for idx in range(spec.size):
        lam = spec.eigenvalues[idx]
        vec = spec.eigenvectors[:, idx]
        psi1 = vec[: g.n]
        if np.linalg.norm(psi1) <= 1e-8:
            continue
        c = pencil_coefficients(m, psi1)
        scale = max(abs(c.a2 * lam**2), abs(c.a1 * lam), abs(c.a0))
        worst_q = max(worst_q, abs(c.a2 * lam**2 + c.a1 * lam + c.a0) / scale)
        lp, lm_ = lambda_pm(c)
        lam_scale = max(abs(lp), abs(lm_))
        worst_match = max(worst_match, min(abs(lam - lp), abs(lam - lm_)) / lam_scale)
        psi2 = vec[g.n :]
        rec = pencil_psi2(m, psi1, lam)
        worst_rec = max(worst_rec, np.linalg.norm(rec - psi2) / np.linalg.norm(psi2))
        checked += 1
    ok = checked >= 900 and worst_q <= 1e-6 and worst_match <= 1e-6 and worst_rec <= 1e-6
    report(
        5,
        ok,
        f"pencil holds on {checked} eigenpairs (quad {worst_q:.1e}, "
        f"match {worst_match:.1e}, psi2 {worst_rec:.1e})",
    )


def test_c06_dynamo_threshold():
    cfg = SweepConfig(base=ONE, c_min=0.0, c_max=6.0, steps=61, l=1, n=300, track_count=6)
    trace = sweep(cfg)
    i = int(np.argmax(trace.branches[:, -1].real))
    path = trace.branches[i].real
    idx = int(np.nonzero(path > 0)[0][0])
    c0, c1 = trace.c_values[idx - 1], trace.c_values[idx]
    y0, y1 = path[idx - 1], path[idx]
    crossing = c0 - y0 * (c1 - c0) / (y1 - y0)
    ok = abs(crossing - 4.4934) <= 0.01
    report(6, ok, f"leading branch crosses zero at C = {crossing:.4f} (target 4.4934 +/- 0.01)")


def test_c07_ep_machinery():
    def family(c):
        return np.array([[1.0, c], [-c, -1.0]])

    c_star, lam_star = locate_ep(family, (0.5, 1.5), 1e-6)
    ok = abs(c_star - 1.0) <= 1e-6 and abs(lam_star) <= 1e-6
    probe = jordan_probe(family(1.0), 0.0, np.array([1.0, -1.0]) / np.sqrt(2))
    ok = ok and probe.chain_residual <= 1e-12
    report(
        7,
        ok,
        f"synthetic EP at C*={c_star:.8f}, |lambda*|={abs(lam_star):.1e}, "
        f"chain residual {probe.chain_residual:.1e}",
    )


def test_c08_darboux_positive_control():
    box = np.zeros_like
    res = {}
    for n in (2000, 4000):
        g = build_grid(n)
        pair = darboux_partner(box, g)
        res[n] = factorization_residual(pair)
    g = build_grid(2000)
    pair = darboux_partner(box, g)
    rep = verify_isospectral(pair, levels=5)
    spectrum_ok = rep.all_ok and all(
        abs(row.e1 - (m * np.pi) ** 2) <= 1e-3 * (m * np.pi) ** 2
        for m, row in enumerate(rep.levels, start=2)
    )
    ratio0 = res[2000][0] / res[4000][0]
    ratio1 = res[2000][1] / res[4000][1]
    fact_ok = max(res[2000]) <= 1e-3 and ratio0 >= 3.5 and ratio1 >= 3.5
    chi1 = partner_mode(pair)
    _, rel_var = product_invariant_check(pair.chi0, chi1, g)
    ok = spectrum_ok and fact_ok and rel_var <= 1e-3
    report(
        8,
        ok,
        f"box partner isospectral (residuals {max(res[2000]):.1e}, halving ratios "
        f"{ratio0:.1f}/{ratio1:.1f}, product deviation {rel_var:.1e})",
    )


def test_c09_nogo_certificate():
    t0 = time.time()
    rep = nogo_certificate()
    ok = rep.min_rho_sup > 1e-6
    ok = ok and rep.l_shift_max_dev <= 1e-10
    # degenerate branch: forced quantity >= 2 * min alpha > 0
    min_alpha = float(np.min(AlphaProfile.polynomial([1.0, 0.0, 0.2])(np.linspace(0, 1, 512))))
    ok = ok and rep.degenerate.forced_min >= 2.0 * min_alpha - 1e-12 and rep.degenerate.impossible
    ratios = {}
    for l0 in (1, 2, 3):
        rec = asymptotic_l_increment(l0)
        ratios[l0] = rec.discrimination_ratio
        ok = ok and rec.l1 == l0 + 1 and rec.discrimination_ratio >= 1e3
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    report(
        9,
        ok,
        f"no-go certificate: min ||rho||_inf = {rep.min_rho_sup:.4g} > 0, l-shift dev "
        f"{rep.l_shift_max_dev:.1e}, degenerate min {rep.degenerate.forced_min:.3g}, "
        f"l-increment ratios {ratios[1]:.0f}/{ratios[2]:.0f}/{ratios[3]:.0f}, {elapsed:.0f}s",
    )


def test_c10_mre_linearization():
    rng = np.random.default_rng(90125)
    init = (
        np.array([[0.3 + 0.1j, -0.2], [0.1, 0.4]], dtype=complex),
        np.eye(2, dtype=complex),
    )
    worst = 0.0
    for _ in range(5):
        pair = AlphaPair(
            AlphaProfile.polynomial(
                [1.0, float(rng.uniform(-0.3, 0.5)), float(rng.uniform(-0.3, 0.5))]
            ),
            AlphaProfile.polynomial(
                [1.0, float(rng.uniform(-0.3, 0.5)), float(rng.uniform(-0.3, 0.5))]
            ),
            1,
            2,
            float(rng.uniform(-1.0, 1.0)),
        )
        for which, alpha, l in (("U", pair.alpha0, pair.l0), ("B", pair.alpha1, pair.l1)):
            sol = mre_linear_solve(which, alpha, l, pair.e, 0.1, 1.0, step=1e-4, init=init)
            sup, _ = riccati_residual(sol)
            worst = max(worst, sup)
    pair0 = AlphaPair(
        AlphaProfile.polynomial([1.0, 0.2, 0.3]), AlphaProfile.polynomial([1.0, 0.0, 0.5]), 1, 2
    )
    res = {}
    for h in (2e-3, 1e-3):
        sol = mre_linear_solve("U", pair0.alpha0, pair0.l0, pair0.e, 0.1, 1.0, step=h, init=init)
        res[h], _ = riccati_residual(sol)
    factor = res[2e-3] / res[1e-3]
    k1 = K_L1[0]
    pair_e = AlphaPair(ONE, ONE, 1, 2, -(k1**2) + k1)
    sol = mre_linear_solve("U", pair_e.alpha0, pair_e.l0, pair_e.e, 0.1, 1.0, step=1e-4, init=init)
    eig_res = eigenfunction_equivalence(sol)
    ok = worst <= 1e-6 and factor >= 12.0 and eig_res <= 1e-4
    report(
        10,
        ok,
        f"Riccati residual {worst:.1e} on 5 random pairs, step-halving factor "
        f"{factor:.1f}, eigenfunction residual {eig_res:.1e}",
    )


def test_c11_cli_determinism(tmp_path):
    digests = {"spectrum": [], "nogo": []}
    for tag in ("a", "b"):
        spec_out = tmp_path / f"spec_{tag}.csv"
        rc = main(
            ["spectrum", "--alpha", "poly:1,0,0.5", "--l", "1", "--n", "80", "--out", str(spec_out)]
        )
        assert rc == 0
        digests["spectrum"].append(spec_out.read_bytes())
        nogo_out = tmp_path / f"nogo_{tag}.csv"
        rc = main(
            [
                "nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1",
                "--l1", "2", "--samples", "64", "--out", str(nogo_out),
            ]
        )
        assert rc == 0
        digests["nogo"].append(nogo_out.read_bytes())
    ok = all(pair[0] == pair[1] for pair in digests.values())
    report(11, ok, "repeated CLI invocations produce byte-identical CSV files")
