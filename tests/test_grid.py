import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from dynamolab import (
    AlphaProfile,
    ConfigurationError,
    DomainError,
    RadialGrid,
    ShapeError,
    assemble,
    build_grid,
    diffusion_alpha,
    inner_product,
    laplacian_l,
)
from oracles import K_L1


def smallest_eig(op):
    return eigvalsh_tridiagonal(op.diag, op.off, select="i", select_range=(0, 0))[0]


class TestBuildGrid:
    def test_small_n_definition(self):
        g = RadialGrid.uniform(3)
        assert g.h == 0.25
        assert np.allclose(g.nodes, [0.25, 0.5, 0.75])

    def test_n9_endnodes(self):
        g = build_grid(9)
        assert g.nodes[0] == pytest.approx(0.1)
        assert g.nodes[-1] == pytest.approx(0.9)

    def test_n999(self):
        g = build_grid(999)
        assert g.h == pytest.approx(0.001)
        assert g.nodes[499] == pytest.approx(0.5)

    def test_too_small_raises(self):
        with pytest.raises(ConfigurationError):
            build_grid(3)

    def test_invariants(self):
        g = build_grid(57)
        d = np.diff(g.nodes)
        assert np.allclose(d, g.h)
        assert g.nodes[0] > 0 and g.nodes[-1] < 1
        assert np.all(g.weights > 0)

    def test_immutable(self):
        g = build_grid(10)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestLaplacian:
    def test_row_values_n3(self):
        g = RadialGrid.uniform(3)
        op = laplacian_l(g, 1)
        assert op.off[0] == 16.0 and op.off[1] == 16.0
        assert op.diag[1] == -32.0 - 2.0 / 0.5**2  # == -40

    def test_l0_rejected(self):
        with pytest.raises(DomainError):
            laplacian_l(build_grid(20), 0)

    def test_exactly_symmetric(self):
        # a TridiagOp is symmetric by type; check the lap and Q_alpha blocks
        # as they land in the assembled dense matrix
        alpha = AlphaProfile.polynomial([1.0, -3.0, 0.5])
        for l, n in ((1, 11), (3, 64), (7, 33)):
            dense = assemble(build_grid(n), alpha, l).matrix
            for block in (dense[:n, :n], dense[n:, n:], dense[n:, :n]):
                assert np.array_equal(block, block.T)

    def test_negative_definite(self):
        op = laplacian_l(build_grid(80), 2)
        top = eigvalsh_tridiagonal(op.diag, op.off, select="i", select_range=(79, 79))[0]
        assert top < 0

    def test_leading_eigenvalue_against_bessel_oracle(self):
        # smallest eigenvalue of -(d^2/dr^2 - 2/r^2) is the first j_1 zero squared
        op = -laplacian_l(build_grid(500), 1)
        lam = smallest_eig(op)
        assert abs(lam - K_L1[0] ** 2) <= 1e-4 * K_L1[0] ** 2

    def test_second_order_convergence(self):
        k2 = K_L1[0] ** 2
        errs = []
        for n in (250, 500):
            lam = smallest_eig(-laplacian_l(build_grid(n), 1))
            errs.append(abs(lam - k2))
        assert errs[0] / errs[1] >= 3.5


class TestDiffusionAlpha:
    def test_alpha_one_equals_minus_laplacian_exactly(self):
        g = build_grid(41)
        lap = laplacian_l(g, 2)
        q1 = diffusion_alpha(g, lambda r: np.ones_like(r), 2)
        assert np.array_equal(q1.diag, (-lap).diag)
        assert np.array_equal(q1.off, (-lap).off)

    def test_alpha_two_exact_scaling(self):
        g = build_grid(41)
        q1 = -laplacian_l(g, 1)
        q2 = diffusion_alpha(g, lambda r: np.full_like(r, 2.0), 1)
        assert np.array_equal(q2.diag, 2.0 * q1.diag)
        assert np.array_equal(q2.off, 2.0 * q1.off)

    def test_constant_scaling_any_c(self):
        g = build_grid(30)
        q1 = diffusion_alpha(g, lambda r: np.ones_like(r), 1)
        c = 0.731
        qc = diffusion_alpha(g, lambda r: np.full_like(r, c), 1)
        assert np.allclose(qc.diag, c * q1.diag, rtol=1e-14)
        assert np.allclose(qc.off, c * q1.off, rtol=1e-14)

    def test_positive_definite_for_positive_alpha(self):
        op = diffusion_alpha(build_grid(500), lambda r: 1.0 + r**2, 1)
        assert smallest_eig(op) > 0

    def test_l0_rejected(self):
        with pytest.raises(DomainError):
            diffusion_alpha(build_grid(20), lambda r: np.ones_like(r), 0)

    def test_discrete_green_identity(self):
        g = build_grid(200)
        q = diffusion_alpha(g, lambda r: 1.0 + 0.5 * np.sin(3 * r), 2)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(g.n)
            v = rng.standard_normal(g.n)
            lhs = inner_product(g, q.matvec(u), v)
            rhs = inner_product(g, u, q.matvec(v))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class TestInnerProduct:
    def test_constant_function(self):
        g = build_grid(999)
        one = np.ones(g.n)
        assert inner_product(g, one, one).real == pytest.approx(0.999, abs=1e-12)

    def test_discrete_sine_orthogonality(self):
        g = build_grid(999)
        u = np.sin(np.pi * g.nodes)
        v = np.sin(2 * np.pi * g.nodes)
        assert abs(inner_product(g, u, v)) <= 1e-12 * g.n

    def test_sine_norm(self):
        g = build_grid(999)
        u = np.sin(np.pi * g.nodes)
        assert inner_product(g, u, u).real == pytest.approx(0.5, abs=1e-5)

    def test_conjugate_linear_first_argument(self):
        g = build_grid(16)
        f = (1 + 2j) * np.ones(g.n)
        gg = np.ones(g.n)
        assert inner_product(g, f, gg) == pytest.approx((1 - 2j) * inner_product(g, gg, gg))

    def test_shape_mismatch(self):
        g = build_grid(10)
        with pytest.raises(ShapeError):
            inner_product(g, np.ones(10), np.ones(9))
