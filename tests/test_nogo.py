import dataclasses

import numpy as np
import pytest

from dynamolab import AlphaProfile, ConfigurationError, DegenerateQError, DomainError
from dynamolab.cli import main
from dynamolab.mre import kmat, mre_linear_solve
from dynamolab.nogo import (
    AlphaPair,
    GaugeChoice,
    StructureFunctions,
    asymptotic_l_increment,
    build_R,
    builtin_pair_family,
    degenerate_case_check,
    intertwining_defect,
    nogo_certificate,
    product_invariant_diagnostic,
    rho_sup_norm,
)
from dynamolab.operator import DynamoMatrix, sharp

GAUGE0 = GaugeChoice()
ONE = AlphaProfile.constant(1.0)
EXP_R = AlphaProfile.exponential(1.0, 1.0)
# q(r) = r/(1+r^2) - 0.4 vanishes exactly at r = 0.5, a point of
# linspace(0.1, 1, 10) and of linspace(0.1, 1, 100)
Q_ZERO_PAIR = AlphaPair(
    AlphaProfile.polynomial([1.0, 0.0, 1.0]), AlphaProfile.exponential(1.0, 0.8), 1, 2
)


def pair_of(a0, a1, l0=1, l1=2, e=0.0):
    return AlphaPair(a0, a1, l0, l1, e)


class TestPairAndGauge:
    def test_positive_profiles_required(self):
        with pytest.raises(DomainError):
            pair_of(AlphaProfile.polynomial([1.0, -4.0]), ONE)

    def test_mode_numbers_required(self):
        with pytest.raises(DomainError):
            pair_of(ONE, ONE, l0=0)

    def test_gauge_eps_bound(self):
        with pytest.raises(DomainError):
            GaugeChoice(eps=lambda r: 2.0 * np.ones_like(np.asarray(r)), deps=lambda r: np.zeros_like(np.asarray(r)))

    def test_gauge_needs_both_eps_and_deps(self):
        with pytest.raises(ConfigurationError):
            GaugeChoice(eps=lambda r: np.zeros_like(np.asarray(r)))


class TestBuildR:
    def test_equal_profiles_plain_form(self):
        pair = pair_of(ONE, ONE)
        r = build_R(pair, GAUGE0, 0.5)
        assert np.allclose(r, [[1.0, 0.0], [-0.5, 1.0]])
        k0 = r @ sharp(r)
        assert np.allclose(k0, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-15)

    def test_ratio_four(self):
        pair = pair_of(ONE, AlphaProfile.constant(4.0))
        r = build_R(pair, GAUGE0, 0.3)
        assert np.allclose(r, [[2.0, 0.0], [-1.0, 0.5]])

    def test_r_identities_random(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            c = float(rng.uniform(0.0, 0.9))
            gauge = GaugeChoice(
                gamma=float(rng.uniform(0, 2 * np.pi)),
                eps=lambda r, c=c: c * np.sin(3.0 * np.asarray(r)),
                deps=lambda r, c=c: 3.0 * c * np.cos(3.0 * np.asarray(r)),
            )
            pair = pair_of(
                AlphaProfile.polynomial([0.5 + rng.random(), 0.0, float(rng.uniform(0, 0.5))]),
                AlphaProfile.exponential(0.5 + rng.random(), float(rng.uniform(-0.5, 0.5))),
            )
            rs = rng.uniform(0.05, 1.0, 6)
            r = build_R(pair, gauge, rs)
            k0 = kmat(pair.alpha0(rs))
            k1 = kmat(pair.alpha1(rs))
            assert np.max(np.abs(r @ sharp(r) - k0)) <= 1e-12
            assert np.max(np.abs(sharp(r) @ r - k1)) <= 1e-12

    def test_nonpositive_rejected(self):
        # a duck-typed pair dodges the constructor's positivity validation,
        # so build_R's own square-root guard must fire
        from types import SimpleNamespace

        sign_changing = AlphaProfile.polynomial([1.0, -4.0])
        bad = SimpleNamespace(alpha0=ONE, alpha1=sign_changing, l0=1, l1=2, e=0.0)
        with pytest.raises(DomainError):
            build_R(bad, GAUGE0, 0.5)


class TestStructureFunctions:
    def test_exponential_profile_values(self):
        sf = StructureFunctions(pair_of(ONE, EXP_R))
        rs = np.array([0.0, 0.3, 0.8])
        assert np.allclose(sf.q(rs), -0.5)
        assert np.allclose(sf.b2(rs), -np.exp(-rs))

    def test_equal_profiles_q_zero(self):
        sf = StructureFunctions(pair_of(EXP_R, EXP_R))
        assert np.allclose(sf.q(np.linspace(0.1, 1, 9)), 0.0)
        assert np.allclose(sf.b2(np.linspace(0.1, 1, 9)), 0.0)

    def test_quadratic_profile_values(self):
        sf = StructureFunctions(pair_of(AlphaProfile.polynomial([1.0, 0.0, 1.0]), ONE))
        assert sf.q(0.5) == pytest.approx(0.4)
        assert sf.b2(0.5) == pytest.approx(0.8)

    def test_default_gauge_real_f_and_zero_b4(self):
        sf = StructureFunctions(pair_of(AlphaProfile.polynomial([1.0, 0.5]), EXP_R))
        rs = np.linspace(0.1, 1, 16)
        f = sf.f(rs)
        a0 = sf.pair.alpha0
        assert np.allclose(f.imag, 0.0)
        assert np.allclose(f.real, -(sf.pair.alpha1(rs) / 2) * a0.d1(rs) / a0(rs))
        assert np.allclose(sf.b4(rs), 0.0)

    def test_nmat_structure(self):
        sf = StructureFunctions(pair_of(ONE, EXP_R))
        n = sf.nmat(0.4)
        assert n[0, 1] == 0.0
        assert n[0, 0] == pytest.approx(0.5)  # -q with q = -1/2
        assert n[1, 1] == pytest.approx(-0.5)

    def test_active_gauge_b4_is_imaginary_part_of_f(self):
        gauge = GaugeChoice(
            eps=lambda r: 0.6 * np.sin(2.0 * np.asarray(r)),
            deps=lambda r: 1.2 * np.cos(2.0 * np.asarray(r)),
        )
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.3, 0.2]), EXP_R)
        sf = StructureFunctions(pair, gauge)
        rs = np.linspace(0.1, 1.0, 17)
        assert np.allclose(sf.b4(rs), sf.f(rs).imag / pair.alpha1(rs), atol=1e-13)
        # the closed form for b4 in terms of the gauge functions
        la0 = pair.alpha0.d1(rs) / pair.alpha0(rs)
        eps = gauge.eps_vals(rs)
        expected = -0.5 * (la0 * np.tan(eps) + gauge.deps_vals(rs) / np.cos(eps) ** 2)
        assert np.allclose(sf.b4(rs), expected, atol=1e-13)


class TestB1:
    def test_plugin_exponential(self):
        sf = StructureFunctions(pair_of(ONE, EXP_R))
        b1 = sf.b1(0.0)
        assert b1 == pytest.approx(0.75)

    def test_plugin_quadratic(self):
        sf = StructureFunctions(pair_of(AlphaProfile.polynomial([1.0, 0.0, 1.0]), ONE))
        b1 = sf.b1(0.5)
        assert b1 == pytest.approx(-1.00078125)

    def test_degenerate_q_rejected(self):
        sf = StructureFunctions(pair_of(ONE, ONE))
        with pytest.raises(DegenerateQError):
            sf.b1(0.5)
        with pytest.raises(DegenerateQError):
            sf.b1prime(0.5)

    def test_b1_derivative_complex_step_oracle(self):
        # independent route: complex-step differentiation of the closed form
        # built directly from complex-capable profile formulas
        h = 1e-20

        def alpha0(z):
            return 1.0 + 0.2 * z + 0.4 * z * z

        def d_alpha0(z):
            return 0.2 + 0.8 * z

        def alpha1(z):
            return 1.2 * np.exp(-0.5 * z)

        def d_alpha1(z):
            return -0.6 * np.exp(-0.5 * z)

        def q_c(z):
            return 0.5 * (d_alpha0(z) / alpha0(z) - d_alpha1(z) / alpha1(z))

        def b1_c(z):
            q = q_c(z)
            return -(4.0 * q * q + alpha0(z) ** 2 + alpha1(z) ** 2) / (8.0 * q)

        pair = pair_of(
            AlphaProfile.polynomial([1.0, 0.2, 0.4]), AlphaProfile.exponential(1.2, -0.5)
        )
        sf = StructureFunctions(pair)
        for r in (0.2, 0.5, 0.77):
            b1, b1p = sf.b1(r), sf.b1prime(r)
            assert b1 == pytest.approx(b1_c(r + 0j).real, abs=1e-12)
            cs = (b1_c(r + 1j * h) / h).imag
            assert b1p == pytest.approx(cs, abs=1e-10 * max(1.0, abs(cs)))


class TestOdeResidual:
    def test_l_shift_identity(self):
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.2, 0.4]), EXP_R)
        sf = StructureFunctions(pair)
        for r in (0.1, 0.25, 0.5, 0.9):
            shift = sf.rho(r, l1=pair.l1 + 1) - sf.rho(r, l1=pair.l1)
            assert abs(shift - 2.0 / r**2) <= 1e-10
        assert sf.rho(0.25, l1=3) - sf.rho(0.25, l1=2) == pytest.approx(32.0, abs=1e-12)

    def test_complex_step_oracle_for_rho(self):
        h = 1e-20
        l1 = 2

        def alpha0(z):
            return 1.0 + 0.0 * z

        def d_alpha0(z):
            return 0.0 * z

        def alpha1(z):
            return np.exp(z)

        def d_alpha1(z):
            return np.exp(z)

        def q_c(z):
            return 0.5 * (d_alpha0(z) / alpha0(z) - d_alpha1(z) / alpha1(z))

        def b1_c(z):
            q = q_c(z)
            return -(4.0 * q * q + alpha0(z) ** 2 + alpha1(z) ** 2) / (8.0 * q)

        r = 0.5
        q = q_c(r + 0j).real
        qp = (q_c(r + 1j * h) / h).imag
        b1 = b1_c(r + 0j).real
        b1p = (b1_c(r + 1j * h) / h).imag
        rhs = (
            -2.0 * l1 / r**2
            + 2.0 * q * (b1 - d_alpha1(r) / alpha1(r))
            + alpha0(r) ** 2 / 2.0
            + qp
            - q**2
        )
        oracle = 2.0 * b1p - rhs
        val = StructureFunctions(pair_of(ONE, EXP_R, l1=l1), GAUGE0).rho(0.5)
        assert np.isfinite(val)
        assert val == pytest.approx(oracle, abs=1e-10 * max(1.0, abs(oracle)))

    def test_forced_b1_reconciles_both_projections(self):
        # the two expressions for b2' agree exactly once b1 takes its closed
        # form: 2 b1 b2 + alpha1 (1 + b2^2) == -2 b1 b2 - alpha0^2/alpha1
        rng = np.random.default_rng(606)
        profiles = [
            AlphaProfile.polynomial([1.0, 0.2, 0.4]),
            AlphaProfile.exponential(1.2, -0.5),
            AlphaProfile.polynomial([0.8, 0.0, 0.9]),
            AlphaProfile.exponential(0.9, 0.8),
        ]
        count = 0
        for i, a0 in enumerate(profiles):
            for a1 in profiles[i + 1 :]:
                sf = StructureFunctions(pair_of(a0, a1))
                rs = rng.uniform(0.1, 1.0, 11)
                lhs = 2 * sf.b1(rs) * sf.b2(rs) + sf.pair.alpha1(rs) * (1 + sf.b2(rs) ** 2)
                rhs = -2 * sf.b1(rs) * sf.b2(rs) - sf.pair.alpha0(rs) ** 2 / sf.pair.alpha1(rs)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10
                count += rs.size
        assert count >= 64

    def test_rho_positive_on_builtin_family(self):
        for pair in builtin_pair_family():
            sup, excluded = rho_sup_norm(pair)
            assert sup > 0.0
            assert excluded == 0  # q vanishes only at r = 0 for these pairs

    def test_partial_exclusion_agrees_across_entry_points(self, tmp_path):
        sup, excluded = rho_sup_norm(Q_ZERO_PAIR, samples=10)
        assert (sup, excluded) == (405.56679199110215, 1)
        fam = builtin_pair_family()
        rep = nogo_certificate(family=[fam[0], Q_ZERO_PAIR] + fam[1:], samples=10, defect_samples=0)
        assert rep.excluded_samples[1] == 1
        assert rep.rho_sup[1] == sup
        assert np.sum(np.isnan(rep.rho_samples[1])) == 1
        out = tmp_path / "nogo.csv"
        argv = ["nogo", "--alpha0", "poly:1,0,1", "--alpha1", "exp:1,0.8", "--samples", "10"]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9 + 2
        assert lines[-2:] == [f"min_abs_rho_inf={sup!r}", "excluded_samples=1"]

    def test_rho_sup_rejects_proportional(self):
        with pytest.raises(DegenerateQError):
            rho_sup_norm(pair_of(ONE, ONE))


class TestDegenerateCase:
    def test_constant_profiles(self):
        rec = degenerate_case_check(pair_of(ONE, AlphaProfile.constant(3.0)))
        assert rec.kappa == pytest.approx(3.0)
        assert rec.forced_min == pytest.approx(10.0 / 3.0)
        assert rec.impossible

    def test_quadratic_profile(self):
        p = AlphaProfile.polynomial([1.0, 0.0, 1.0])
        rec = degenerate_case_check(pair_of(p, p))
        assert rec.forced_min == pytest.approx(2.0)
        assert rec.argmin_r == pytest.approx(0.0)

    def test_non_proportional_rejected(self):
        with pytest.raises(DomainError):
            degenerate_case_check(pair_of(ONE, EXP_R))


class TestAsymptotics:
    @pytest.mark.parametrize("l0", [1, 2, 3])
    def test_forced_increment(self, l0):
        rec = asymptotic_l_increment(l0)
        assert rec.l1 == l0 + 1
        assert rec.a1_series == 0.0
        assert rec.a0_series == 0.0
        assert rec.discrimination_ratio >= 1e3

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_l_increment(1, c1=0.0)

    def test_fitted_values_match_prediction(self):
        # mismatch coefficient is l1(l1-1) - l0(l0+1) = -2, 0, +4 for l0 = 1
        rec = asymptotic_l_increment(1)
        assert rec.fitted_c2[1] == pytest.approx(2.0, rel=1e-3)
        assert rec.fitted_c2[3] == pytest.approx(4.0, rel=1e-2)
        assert rec.fitted_c2[2] <= 1e-3


class TestProductInvariant:
    def test_diagnostic_runs_and_reports(self):
        pair = pair_of(ONE, ONE)
        init = (np.eye(2, dtype=complex) * 0.2, np.eye(2, dtype=complex))
        sol_u = mre_linear_solve("U", pair, 0.1, 1.0, step=1e-3, init=init)
        sol_b = mre_linear_solve("B", pair, 0.1, 1.0, step=1e-3, init=init)
        diag = product_invariant_diagnostic(sol_u, sol_b, pair)
        assert np.all(np.isfinite(diag.drift))
        assert diag.max_drift >= 0.0
        assert diag.det_p.shape == sol_u.rs.shape

    def test_nonsingular_flag(self):
        pair = pair_of(ONE, AlphaProfile.polynomial([1.0, 0.0, 0.5]))
        init = (np.eye(2, dtype=complex) * 0.3, np.eye(2, dtype=complex))
        sol_u = mre_linear_solve("U", pair, 0.1, 1.0, step=1e-3, init=init)
        sol_b = mre_linear_solve("B", pair, 0.1, 1.0, step=1e-3, init=init)
        diag = product_invariant_diagnostic(sol_u, sol_b, pair)
        assert diag.nonsingular


@pytest.fixture(scope="module")
def witness():
    pair = AlphaPair(ONE, AlphaProfile.polynomial([1.0, 0.0, 0.5]), 1, 2, 0.0)
    return intertwining_defect(pair)


@pytest.fixture(scope="module")
def report():
    return nogo_certificate()


class TestIntertwiningDefect:
    def test_golden_witness(self, witness):
        assert witness.defect > 1e-3
        assert witness.defect == pytest.approx(0.237823, rel=1e-3)
        assert not witness.flagged
        assert not witness.truncated

    def test_gauge_invariance(self, witness):
        pair = pair_of(ONE, AlphaProfile.polynomial([1.0, 0.0, 0.5]))
        shifted = intertwining_defect(pair, gauge=GaugeChoice(gamma=0.7))
        assert abs(shifted.defect - witness.defect) <= 1e-10

    def test_unnormalized_linearity(self, witness):
        pair = pair_of(ONE, AlphaProfile.polynomial([1.0, 0.0, 0.5]))
        scaled = intertwining_defect(pair, test_scale=10.0)
        assert scaled.unnormalized == pytest.approx(10.0 * witness.unnormalized, rel=1e-9)


class TestCertificate:
    def test_family_size(self):
        assert len(builtin_pair_family()) == 30

    def test_min_rho_positive(self, report):
        assert report.min_rho_sup > 1e-6

    def test_l_shift_identity(self, report):
        assert report.l_shift_max_dev <= 1e-10

    def test_degenerate_branch(self, report):
        assert report.degenerate.impossible
        assert report.degenerate.forced_min >= 2.0 * 1.0 - 1e-12

    def test_asymptotic_record(self, report):
        assert report.asymptotic.l1 == 2
        assert report.asymptotic.discrimination_ratio >= 1e3

    def test_defect_witnesses(self, report):
        assert len(report.defects) == 2
        for rec in report.defects:
            assert rec.defect > 1e-3

    def test_interior_q_zero_in_first_pair(self):
        # the l-shift radii go through the same q floor as the sup step
        rep = nogo_certificate(family=[Q_ZERO_PAIR] + builtin_pair_family(), defect_samples=0)
        assert rep.excluded_samples[0] == 0
        assert rep.l_shift_max_dev <= 1e-10

    def test_certificate_never_forms_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the certificate must apply H through its blocks")

        monkeypatch.setattr(DynamoMatrix, "matrix", property(refuse))
        rep = nogo_certificate()
        assert all(rec.defect > 1e-3 for rec in rep.defects)

    def test_small_family_rejected(self):
        with pytest.raises(ConfigurationError):
            nogo_certificate(family=builtin_pair_family()[:10])

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert any(line.startswith("min_abs_rho_inf=") for line in lines)
        assert any(line.startswith("asymptotic_l1=2") for line in lines)

    def test_rho_samples_populated(self, report):
        assert report.rho_samples.shape == (30, report.sample_radii.size)
        assert np.all(np.isfinite(report.rho_samples))  # no q-floor exclusions here
        sups = np.nanmax(np.abs(report.rho_samples), axis=1)
        assert np.allclose(sups, report.rho_sup)
        # the derived per-pair sup is the direct computation, bit for bit
        for i, pair in enumerate(builtin_pair_family()):
            assert report.rho_sup[i] == rho_sup_norm(pair)[0]

    def test_m_evaluators_match_operator_blocks(self):
        # M carries the centrifugal, shift and coupling structure of the
        # shifted operator; spot-check the batched evaluators entrywise
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.0, 0.5]), EXP_R, e=0.7)
        sf = StructureFunctions(pair)
        r = 0.4
        m0 = sf.m0(np.array([r]))[0]
        cent = pair.l0 * (pair.l0 + 1) / r**2
        a0 = float(pair.alpha0(r))
        assert m0[0, 0] == pytest.approx(cent + 0.7)
        assert m0[0, 1] == pytest.approx(-a0)
        assert m0[1, 0] == pytest.approx(-a0 * cent)
        m1 = sf.m1(np.array([r]))[0]
        cent1 = pair.l1 * (pair.l1 + 1) / r**2
        a1 = float(pair.alpha1(r))
        assert m1[1, 0] == pytest.approx(-a1 * cent1)
