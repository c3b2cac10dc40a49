import dataclasses
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    ConfigurationError,
    SolverError,
    parse_profile,
)
from dynamolab.cli import main
from dynamolab.grid import build_grid, central_difference, smooth_fields
from dynamolab.mre import kmat, mmat
from dynamolab.nogo import (
    _DEFECT_SUPPORT,
    RHO_WINDOW,
    AlphaPair,
    GaugeChoice,
    StructureFunctions,
    _relative_defect,
    asymptotic_l_increment,
    build_R,
    builtin_pair_family,
    degenerate_case_check,
    intertwining_defect,
    nogo_certificate,
)
from dynamolab.operator import DynamoMatrix, assemble, sharp

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


def gauge_profile(eps, deps):
    """The gauge function eps with derivative deps, as a profile; a gauge never reads its d2."""
    return AlphaProfile(family="gauge", label="gauge", _f=eps, _d1=deps, _d2=None)


class TestPairAndGauge:
    def test_positive_profiles_required(self):
        with pytest.raises(ConfigurationError, match="strictly positive"):
            pair_of(AlphaProfile.polynomial([1.0, -4.0]), ONE)

    def test_mode_numbers_required(self):
        with pytest.raises(ConfigurationError, match="mode numbers"):
            pair_of(ONE, ONE, l0=0)

    @pytest.mark.parametrize("e", [np.nan, np.inf, -np.inf])
    def test_finite_energy_required(self, e):
        with pytest.raises(ConfigurationError, match="E must be finite"):
            pair_of(ONE, EXP_R, e=e)

    def test_gauge_eps_bound(self):
        with pytest.raises(ConfigurationError, match="pi/2"):
            GaugeChoice(eps=AlphaProfile.constant(2.0))
        # a NaN eps is no profile: its boundedness check fails first
        with pytest.raises(ConfigurationError, match="unbounded"):
            GaugeChoice(eps=AlphaProfile.constant(np.nan))

    @pytest.mark.parametrize(
        "deps",
        [lambda r: 0 * r, lambda r: 0.3 + 1e-6 * r, lambda r: -0.3 + 0 * r, lambda r: np.inf + 0 * r],
        ids=["zero", "slightly-off", "wrong-sign", "infinite"],
    )
    def test_gauge_deps_must_be_the_derivative_of_eps(self, deps):
        # with deps = 0, b4(0.5) of the active-gauge pair read -0.0315 for -0.1849
        with pytest.raises(ConfigurationError, match="derivative evaluator inconsistent"):
            GaugeChoice(eps=gauge_profile(lambda r: 0.3 * r, deps))

    def test_gauge_takes_a_profile_literal(self):
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.3, 0.2]), EXP_R)
        rs = np.linspace(0.1, 1.0, 7)
        literal = StructureFunctions(pair, GaugeChoice(eps=parse_profile("poly:0,0.3")))
        by_hand = StructureFunctions(pair, GaugeChoice(eps=gauge_profile(lambda r: 0.3 * r, lambda r: 0.3 + 0 * r)))
        assert np.array_equal(literal.b4(rs), by_hand.b4(rs))
        assert literal.b4(0.5) == pytest.approx(-0.1849, abs=1e-4)


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
                eps=gauge_profile(lambda r, c=c: c * np.sin(3.0 * r), lambda r, c=c: 3.0 * c * np.cos(3.0 * r)),
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
        with pytest.raises(ConfigurationError, match="build_R needs strictly positive"):
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
        gauge = GaugeChoice(eps=gauge_profile(lambda r: 0.6 * np.sin(2.0 * r), lambda r: 1.2 * np.cos(2.0 * r)))
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.3, 0.2]), EXP_R)
        sf = StructureFunctions(pair, gauge)
        rs = np.linspace(0.1, 1.0, 17)
        assert np.allclose(sf.b4(rs), sf.f(rs).imag / pair.alpha1(rs), atol=1e-13)
        # the closed form for b4 in terms of the gauge functions
        la0 = pair.alpha0.d1(rs) / pair.alpha0(rs)
        eps, deps = gauge.eps_at(rs)
        expected = -0.5 * (la0 * np.tan(eps) + deps / np.cos(eps) ** 2)
        assert np.allclose(sf.b4(rs), expected, atol=1e-13)
        # f in the gauge functions, not through b4
        f = -(pair.alpha1(rs) / 2) * (la0 * (1 + 1j * np.tan(eps)) + 1j * deps / np.cos(eps) ** 2)
        assert np.allclose(sf.f(rs), f, atol=1e-13)


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
        with pytest.raises(SolverError, match="q vanishes"):
            sf.b1(0.5)
        with pytest.raises(SolverError, match="q vanishes"):
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
    def test_rho_evaluates_each_profile_term_once(self, monkeypatch):
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.2, 0.4]), EXP_R)
        calls = []
        for name in ("__call__", "d1", "d2"):
            method = getattr(AlphaProfile, name)

            def counted(self, r, name=name, method=method):
                calls.append((id(self), name))
                return method(self, r)

            monkeypatch.setattr(AlphaProfile, name, counted)
        StructureFunctions(pair).rho(np.linspace(0.1, 1.0, 7))
        terms = [(id(a), name) for a in (pair.alpha0, pair.alpha1) for name in ("__call__", "d1", "d2")]
        assert sorted(calls) == sorted(terms)

    def test_l_shift_identity(self):
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.2, 0.4]), EXP_R)

        def rho(l1, r):
            return StructureFunctions(dataclasses.replace(pair, l1=l1)).rho(r)

        for r in (0.1, 0.25, 0.5, 0.9):
            shift = rho(pair.l1 + 1, r) - rho(pair.l1, r)
            assert abs(shift - 2.0 / r**2) <= 1e-10
        assert rho(3, 0.25) - rho(2, 0.25) == pytest.approx(32.0, abs=1e-12)

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
        rs = np.linspace(*RHO_WINDOW, 512)
        for pair in builtin_pair_family():
            rho = StructureFunctions(pair).rho(rs)
            assert not np.any(np.isnan(rho))  # q vanishes only at r = 0 for these pairs
            assert np.max(np.abs(rho)) > 0.0

    def test_partial_exclusion_agrees_across_entry_points(self, tmp_path):
        rho = StructureFunctions(Q_ZERO_PAIR).rho(np.linspace(*RHO_WINDOW, 10))
        assert np.flatnonzero(np.isnan(rho)).tolist() == [4]  # r = 0.5
        sup = float(np.nanmax(np.abs(rho)))
        assert sup == 405.56679199110215
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
        # b1, b1' and rho are NaN at the floored radius only, and the table's
        # values on the kept radii
        sf = StructureFunctions(Q_ZERO_PAIR)
        rs = np.linspace(*RHO_WINDOW, 10)
        kept, _, b1, _, rho_kept = sf.table(rs)
        assert np.array_equal(kept, np.delete(rs, 4))
        for got, want in ((sf.rho(rs), rho_kept), (sf.b1(rs), b1), (sf.b1prime(rs), sf.b1prime(kept))):
            assert np.flatnonzero(np.isnan(got)).tolist() == [4]
            assert np.array_equal(np.delete(got, 4), want)

    def test_rho_sup_rejects_proportional(self):
        with pytest.raises(SolverError, match="q vanishes"):
            StructureFunctions(pair_of(ONE, ONE)).rho(np.linspace(*RHO_WINDOW, 512))

    def test_overflowing_b1_raises(self):
        # alpha0^2 overflows on every kept radius, so b1 would be -inf and rho NaN
        sf = StructureFunctions(pair_of(AlphaProfile.polynomial([1.0, 0.0, 1e200]), ONE))
        with pytest.raises(SolverError, match="b1"):
            sf.rho(np.linspace(0.0, 1.0, 8))


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
        with pytest.raises(ConfigurationError, match="proportional profiles"):
            degenerate_case_check(pair_of(ONE, EXP_R))


class TestAsymptotics:
    @pytest.mark.parametrize("l0", [1, 2, 3])
    def test_forced_increment(self, l0):
        rec = asymptotic_l_increment(l0)
        assert rec.l1 == l0 + 1
        assert rec.discrimination_ratio >= 1e3

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ConfigurationError, match="c1 must not vanish"):
            asymptotic_l_increment(1, c1=0.0)
        with pytest.raises(ConfigurationError, match="l0"):
            asymptotic_l_increment(0)

    def test_non_finite_fit_raises(self):
        # the fitted mismatch coefficients are all NaN at l0 = 999
        with pytest.raises(SolverError, match="not finite"):
            asymptotic_l_increment(999)

    @pytest.mark.parametrize("l0", [6, 7, 10, 20])
    def test_undiscriminating_fit_raises(self, l0):
        # discrimination ratios 4.58, 0.69, 5.57 and 0.81: l1 = l0 + 1 is not confirmed
        with pytest.raises(SolverError, match="does not single out"):
            asymptotic_l_increment(l0)

    def test_fitted_values_match_prediction(self):
        # mismatch coefficient is l1(l1-1) - l0(l0+1) = -2, 0, +4 for l0 = 1
        rec = asymptotic_l_increment(1)
        assert rec.fitted_c2[1] == pytest.approx(2.0, rel=1e-3)
        assert rec.fitted_c2[3] == pytest.approx(4.0, rel=1e-2)
        assert rec.fitted_c2[2] <= 1e-3


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
        assert witness.defect == pytest.approx(0.135008, rel=1e-3)
        assert not witness.flagged
        assert not witness.truncated

    def test_gauge_invariance(self, witness):
        pair = pair_of(ONE, AlphaProfile.polynomial([1.0, 0.0, 0.5]))
        shifted = intertwining_defect(pair, gauge=GaugeChoice(gamma=0.7))
        assert abs(shifted.defect - witness.defect) <= 1e-10


def shape_invariance_defect(literal, l0, n):
    """Worst relative defect of A H_l0 = H_(l0+1) A, through the certificate's own measure.

    A = diag(a, a) with a = d/dr - (l0+1)/r, that is R^# = -I and
    Q^# = -(l0+1)/r I at E = 0.  For constant alpha, H_l = K L_l + c sigma+
    with constant K, and shape invariance of the radial free operator,
    a L_l0 = L_(l0+1) a, makes A an exact intertwiner of the operators: the
    grid defect is discretization error only.
    """
    grid = build_grid(n)
    alpha = parse_profile(literal)
    h0, h1 = assemble(grid, alpha, l0), assemble(grid, alpha, l0 + 1)
    ident = np.broadcast_to(np.eye(2), (n, 2, 2))
    return _relative_defect(h0, h1, 0.0, -ident, -((l0 + 1) / grid.nodes)[:, None, None] * ident)


class TestZeroControl:
    """The witness's measure reads zero, up to O(h^2), on an exact intertwiner."""

    LADDER = (60, 120, 240, 480)

    @pytest.mark.parametrize("l0", [1, 3])
    @pytest.mark.parametrize("literal", ["const:1", "const:5"])
    def test_constant_profiles_converge_to_zero(self, literal, l0):
        d = [shape_invariance_defect(literal, l0, n) for n in self.LADDER]
        for coarse, fine in zip(d, d[1:]):
            assert coarse / fine >= 3.5

    @pytest.mark.parametrize("l0", [1, 3])
    def test_varying_profile_plateaus(self, l0):
        d = [shape_invariance_defect("poly:1,0,0.5", l0, n) for n in self.LADDER]
        assert min(d) > 1e-3
        for coarse, fine in zip(d, d[1:]):
            assert 0.8 <= coarse / fine <= 1.25

    def test_block_measure_equals_the_field_loop(self):
        # the reference: one complex field at a time, with matmul for the 2x2 products
        grid = build_grid(60)
        n, e = grid.n, 0.7
        h0, h1 = assemble(grid, ONE, 1), assemble(grid, AlphaProfile.polynomial([1.0, 0.0, 0.5]), 2)
        rng = np.random.default_rng(5)
        r_sharp, q_sharp = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)) for _ in range(2))

        def apply_a(u):
            um = np.stack([u[:n], u[n:]], axis=1)[..., None]
            w = -central_difference((r_sharp @ um)[..., 0], grid.h) + (q_sharp @ um)[..., 0]
            return np.concatenate([w[:, 0], w[:, 1]])

        rel = []
        for phi in smooth_fields(grid.nodes, _DEFECT_SUPPORT).reshape(-1, 2 * n).astype(complex):
            t1 = apply_a(h0.matvec(phi) - e * phi)
            a_phi = apply_a(phi)
            t2 = h1.matvec(a_phi) - e * a_phi
            rel.append(np.linalg.norm(t1 - t2) / (np.linalg.norm(t1) + np.linalg.norm(t2)))
        assert _relative_defect(h0, h1, e, r_sharp, q_sharp) == max(rel)

    def test_certificate_witness_is_far_above_the_floor(self, report):
        # the certificate measures its witnesses at n = 240, l0 = 1
        floor = shape_invariance_defect("const:1", 1, 240)
        assert min(rec.defect for rec in report.defects) > 100.0 * floor


class TestFamilyNoGo:
    """rho is not identically zero on the family alpha_i = 1 + theta_i r^2, theta0 != theta1."""

    def test_laurent_coefficients_have_no_real_common_zero(self):
        sp = pytest.importorskip("sympy")
        r, t0, t1, l1, w = sp.symbols("r theta0 theta1 l1 w", real=True)
        # the formulas of StructureFunctions._chain, term for term
        a0, a1 = 1 + t0 * r**2, 1 + t1 * r**2
        d1a0, d1a1, d2a0, d2a1 = sp.diff(a0, r), sp.diff(a1, r), sp.diff(a0, r, 2), sp.diff(a1, r, 2)
        la0, la1 = d1a0 / a0, d1a1 / a1
        q = (la0 - la1) / 2
        qp = (d2a0 / a0 - la0**2 - d2a1 / a1 + la1**2) / 2
        u = 4 * q**2 + a0**2 + a1**2
        up = 8 * q * qp + 2 * a0 * d1a0 + 2 * a1 * d1a1
        b1 = -u / (8 * q)
        b1p = -(up * q - u * qp) / (8 * q**2)
        rho = 2 * b1p - (-2 * l1 / r**2 + 2 * q * (b1 - la1) + a0**2 / 2 + qp - q**2)

        pair = pair_of(AlphaProfile.polynomial([1.0, 0.0, 0.2]), AlphaProfile.polynomial([1.0, 0.0, 0.6]))
        radii = np.array([0.2, 0.5, 0.9])
        exact = [float(rho.subs({r: x, t0: 0.2, t1: 0.6, l1: 2})) for x in radii]
        assert StructureFunctions(pair).rho(radii) == pytest.approx(exact, rel=1e-12)

        series = sp.series(rho, r, 0, 3).removeO()
        coef = {k: sp.cancel(series.coeff(r, k)) for k in range(-2, 3)}
        d = t0 - t1
        assert coef[-1] == 0 and coef[1] == 0
        closed = {
            -2: (4 * l1 * d + 1) / (2 * d),
            0: -(2 * t0**2 - 4 * t0 * t1 + t0 + 2 * t1**2 + t1) / d,
            2: (32 * t0**3 - 32 * t0**2 * t1 - 11 * t0**2 - 32 * t0 * t1**2 - 14 * t0 * t1 + 32 * t1**3 - 11 * t1**2)
            / (4 * d),
        }
        for k, want in closed.items():
            assert sp.cancel(coef[k] - want) == 0

        # rho == 0 would zero all three numerators with theta0 != theta1, i.e.
        # with some w such that w (theta0 - theta1) = 1
        numerators = [sp.fraction(coef[k])[0] for k in closed]
        basis = sp.groebner(numerators + [w * d - 1], w, t0, t1, l1, order="lex")
        assert set(basis.exprs) == {w + 4 * l1, 50 * t0 - 2 * l1 - 1, 50 * t1 + 2 * l1 - 1, 8 * l1**2 + 25}
        assert sp.Poly(8 * l1**2 + 25, l1).count_roots() == 0  # no real l1


class TestCertificate:
    def test_family_size(self):
        assert len(builtin_pair_family()) == 30

    def test_family_shares_six_profiles(self):
        fam = builtin_pair_family()
        assert len({id(a) for pair in fam for a in (pair.alpha0, pair.alpha1)}) == 6

    def test_positivity_checked_once_per_profile(self, monkeypatch):
        # the 30 built-in pairs and the pairs derived from the first share six
        # profiles; each is evaluated for positivity once, not once per pair
        checked = []
        positive = AlphaProfile.__dict__["_positive"].func

        def counted(profile):
            checked.append(profile.label)
            return positive(profile)

        spy = cached_property(counted)
        spy.__set_name__(AlphaProfile, "_positive")
        monkeypatch.setattr(AlphaProfile, "_positive", spy)
        nogo_certificate()
        assert len(checked) == len(set(checked)) == 6

    def test_profile_evaluations(self, monkeypatch):
        # each of the 32 rho calls (the 30 pairs, and the first pair at l1 and
        # l1 + 1) evaluates every term of both profiles once: 64 of each; the
        # rest are positivity, the proportional branch, the small-r fits and
        # the two defect witnesses
        calls = []
        for name in ("__call__", "d1", "d2"):
            method = getattr(AlphaProfile, name)

            def counted(self, r, name=name, method=method):
                calls.append(name)
                return method(self, r)

            monkeypatch.setattr(AlphaProfile, name, counted)
        nogo_certificate()
        assert Counter(calls) == {"__call__": 100, "d1": 69, "d2": 64}

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

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -1}, {"defect_samples": -1}])
    def test_bad_sample_counts_rejected(self, kwargs):
        # samples=0 would reach the q floor with no radius and report
        # proportional profiles; defect_samples=-1 would slice family[:-1]
        with pytest.raises(ConfigurationError):
            nogo_certificate(**kwargs)

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
            assert report.rho_sup[i] == np.nanmax(np.abs(StructureFunctions(pair).rho(report.sample_radii)))

    def test_m_evaluators_match_operator_blocks(self):
        # M carries the centrifugal, shift and coupling structure of the
        # shifted operator; spot-check the batched evaluator entrywise
        pair = pair_of(AlphaProfile.polynomial([1.0, 0.0, 0.5]), EXP_R, e=0.7)
        r = 0.4
        m0 = mmat(pair.alpha0(r), pair.l0, pair.e, r)[0]
        cent = pair.l0 * (pair.l0 + 1) / r**2
        a0 = float(pair.alpha0(r))
        assert m0[0, 0] == pytest.approx(cent + 0.7)
        assert m0[0, 1] == pytest.approx(-a0)
        assert m0[1, 0] == pytest.approx(-a0 * cent)
        m1 = mmat(pair.alpha1(r), pair.l1, pair.e, r)[0]
        cent1 = pair.l1 * (pair.l1 + 1) / r**2
        a1 = float(pair.alpha1(r))
        assert m1[1, 0] == pytest.approx(-a1 * cent1)
