import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dynamolab import ConfigurationError, RadialGrid, SolverError, build_grid
from dynamolab.darboux import (
    DarbouxPair,
    GivenSeed,
    LocalQuintic,
    darboux_partner,
    factorization_residual,
    partner_mode,
    product_invariant_check,
    schrodinger_tridiag,
    verify_isospectral,
)

BOX = np.zeros_like
PI2 = np.pi**2


@pytest.fixture(scope="module")
def grid2000():
    return build_grid(2000)


@pytest.fixture(scope="module")
def box_pair(grid2000):
    return darboux_partner(BOX, grid2000)


@pytest.fixture(scope="module")
def box_pair_analytic(grid2000):
    return darboux_partner(BOX, grid2000, GivenSeed(lambda x: np.sin(np.pi * x), PI2))


class TestPartnerConstruction:
    def test_box_ground_state_energy(self, box_pair):
        assert box_pair.energy == pytest.approx(PI2, rel=1e-4)

    @pytest.mark.parametrize("seed", [None, GivenSeed(lambda x: np.sin(np.pi * x), PI2)], ids=["ground", "given"])
    def test_pair_carries_both_operators(self, grid2000, seed):
        pair = darboux_partner(BOX, grid2000, seed)
        for op, v in ((pair.h0, BOX), (pair.h1, pair.v1)):
            ref = schrodinger_tridiag(grid2000, v)
            assert np.array_equal(op.diag, ref.diag) and np.array_equal(op.off, ref.off)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_potential_rejected(self, grid2000, value):
        with pytest.raises(ConfigurationError, match="not finite"):
            darboux_partner(lambda x: np.full_like(x, value), grid2000)

    def test_box_partner_potential_closed_form(self, box_pair, grid2000):
        x = grid2000.nodes
        win = (x >= 0.1) & (x <= 0.9)
        v1 = box_pair.v1(x[win])
        exact = 2 * PI2 / np.sin(np.pi * x[win]) ** 2
        assert np.max(np.abs(v1 - exact) / exact) <= 1e-3

    def test_pair_identity_v1_v0_2fprime(self, box_pair, grid2000):
        x = grid2000.nodes
        gap = box_pair.v1(x) - box_pair.v0(x) - 2.0 * box_pair.fprime(x)
        assert np.max(np.abs(gap)) <= 1e-8

    def test_harmonic_symmetry(self):
        g = build_grid(999)
        pair = darboux_partner(lambda x: 100.0 * (x - 0.5) ** 2, g)
        assert abs(pair.f(0.5)) <= 1e-8

    def test_given_seed_matches_ground_state(self, box_pair, box_pair_analytic, grid2000):
        x = grid2000.nodes
        win = (x >= 0.1) & (x <= 0.9)
        assert np.max(np.abs(box_pair.f(x[win]) - box_pair_analytic.f(x[win]))) <= 1e-6
        assert np.max(np.abs(box_pair.v1(x[win]) - box_pair_analytic.v1(x[win]))) <= 1e-6

    def test_seed_with_node_rejected(self, grid2000):
        with pytest.raises(SolverError, match="seed function has a node"):
            darboux_partner(
                BOX, grid2000, GivenSeed(lambda x: np.sin(2 * np.pi * x), 4 * PI2)
            )

    def test_riccati_identity_analytic_seed(self, box_pair_analytic, grid2000):
        x = grid2000.nodes
        win = (x >= 0.1) & (x <= 0.9)
        f = box_pair_analytic.f(x[win])
        fp = box_pair_analytic.fprime(x[win])
        res = -fp + f**2 - (0.0 - PI2)
        assert np.max(np.abs(res)) <= 1e-6


class TestLocalQuintic:
    def test_reproduces_quintic_and_its_derivatives(self):
        p = np.polynomial.Polynomial([1.0, 2.0, -3.0, 0.5, 1.0, -2.0])
        grid = build_grid(20)
        # nodes, midpoints and points in the end intervals, where stencils shift inwards
        x = np.concatenate([grid.nodes, grid.half_nodes, [0.0, 0.01, 0.99, 1.0]])
        got = LocalQuintic(grid, p(grid.nodes))(x)
        for k, value in enumerate(got):
            exact = p.deriv(k)(x) if k else p(x)
            assert np.max(np.abs(value - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_rejects_samples_off_the_nodes(self):
        with pytest.raises(ConfigurationError, match="20 samples"):
            LocalQuintic(build_grid(20), np.ones(19))

    def test_superpotential_derivative_converges_at_fourth_order(self):
        # f' = pi^2 / sin^2(pi x) needs the seed's second derivative, O(h^4);
        # x are nodes of every grid, so each sees the same stencil positions
        x = np.arange(3, 23) / 25
        errors = []
        for n in (24, 49, 99):
            pair = darboux_partner(BOX, build_grid(n), GivenSeed(lambda x: np.sin(np.pi * x), PI2))
            errors.append(np.max(np.abs(pair.fprime(x) - PI2 / np.sin(np.pi * x) ** 2)))
        assert errors[0] >= 12 * errors[1]
        assert errors[1] >= 12 * errors[2]

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            darboux_partner(BOX, RadialGrid.uniform(5))


class TestIsospectral:
    def test_box_levels(self, box_pair):
        rep = verify_isospectral(box_pair, levels=5)
        assert rep.all_ok
        for m, row in enumerate(rep.levels, start=2):
            assert row.e1 == pytest.approx((m * np.pi) ** 2, rel=1e-3)

    def test_seed_level_absent(self, box_pair):
        rep = verify_isospectral(box_pair, levels=5)
        assert rep.seed_deleted
        assert rep.lowest_partner_level >= 4 * PI2 * (1 - 1e-3)

    def test_constant_shift_identity(self, grid2000):
        c = 7.3
        pair0 = darboux_partner(BOX, grid2000)
        pair_c = darboux_partner(lambda x: np.full_like(x, c), grid2000)
        rep0 = verify_isospectral(pair0, levels=3)
        rep_c = verify_isospectral(pair_c, levels=3)
        assert pair_c.energy == pytest.approx(pair0.energy + c, abs=1e-9)
        for r0, rc in zip(rep0.levels, rep_c.levels):
            assert rc.e0 == pytest.approx(r0.e0 + c, abs=1e-8)
            assert rc.e1 == pytest.approx(r0.e1 + c, abs=1e-7)

    def test_levels_are_solved_without_eigenvectors(self, grid2000, monkeypatch):
        import scipy.linalg

        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs.get("eigvals_only", False))
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded)
        verify_isospectral(darboux_partner(BOX, grid2000), levels=5)
        assert calls == [False, True, True]  # the seed keeps its vector; both level checks ask for values only

    def test_level_cap(self, box_pair):
        with pytest.raises(ConfigurationError):
            verify_isospectral(box_pair, levels=21)
        with pytest.raises(ConfigurationError, match="at least one level"):
            verify_isospectral(box_pair, levels=0)


class TestFactorization:
    def test_box_residuals(self, box_pair, grid2000):
        r0, r1 = factorization_residual(box_pair)
        assert r0 <= 1e-3
        assert r1 <= 1e-3

    def test_residuals_shrink_on_doubling(self):
        res = {}
        for n in (2000, 4000):
            g = build_grid(n)
            pair = darboux_partner(BOX, g)
            res[n] = factorization_residual(pair)
        assert res[2000][0] / res[4000][0] >= 3.5
        assert res[2000][1] / res[4000][1] >= 3.5

    def test_energy_shift_detector(self, box_pair, grid2000):
        # shift large enough to rise above the h^2 discretization floor
        delta = 10.0
        base0, _ = factorization_residual(box_pair)
        shifted = dataclasses.replace(box_pair, energy=box_pair.energy + delta)
        shifted0, _ = factorization_residual(shifted)
        h0 = schrodinger_tridiag(grid2000, BOX)
        norm_h0 = np.max(np.abs(h0.diag)) + 2.0 / grid2000.h**2
        assert shifted0 == pytest.approx(delta / norm_h0, rel=0.3)
        assert shifted0 > 10 * base0


class TestProductInvariant:
    def test_box_product_constant(self, box_pair, grid2000):
        chi1 = partner_mode(box_pair)
        c_mean, rel_var = product_invariant_check(box_pair.chi0, chi1, grid2000)
        assert rel_var <= 1e-3
        # chi1(1/2) = 1/chi0(1/2) normalization makes the constant unity
        assert c_mean == pytest.approx(1.0, abs=1e-5)

    def test_rescaling_linearity(self, box_pair, grid2000):
        chi1 = partner_mode(box_pair)
        c1, v1 = product_invariant_check(box_pair.chi0, chi1, grid2000)
        c7, v7 = product_invariant_check(box_pair.chi0, 7.0 * chi1, grid2000)
        assert c7 == pytest.approx(7.0 * c1, rel=1e-12)
        assert v7 == pytest.approx(v1, rel=1e-9)

    def test_wrong_eigenfunction_detector(self, box_pair, grid2000):
        h1 = schrodinger_tridiag(grid2000, box_pair.v1)
        _, vecs = eigh_tridiagonal(h1.diag, h1.off, select="i", select_range=(1, 1))
        _, rel_var = product_invariant_check(box_pair.chi0, vecs[:, 0], grid2000)
        assert rel_var > 1e-1

    @pytest.mark.parametrize("scale", [0.0, np.inf, np.nan])
    def test_zero_or_non_finite_mean_rejected(self, box_pair, grid2000, scale):
        with pytest.raises(ConfigurationError, match="mean product"):
            product_invariant_check(box_pair.chi0, scale * box_pair.chi0, grid2000)

    def test_rejects_samples_off_the_nodes(self, box_pair, grid2000):
        with pytest.raises(ConfigurationError, match="grid nodes"):
            product_invariant_check(box_pair.chi0, box_pair.chi0[1:], grid2000)
