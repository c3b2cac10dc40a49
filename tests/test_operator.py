import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dynamolab import (
    AlphaProfile,
    DegeneratePencilError,
    DomainError,
    PencilCoefficients,
    ShapeError,
    assemble,
    build_grid,
    inner_product,
    lambda_pm,
    pencil_coefficients,
    pencil_psi2,
    pseudo_hermiticity_residual,
    sharp,
)
from dynamolab.grid import laplacian_l
from oracles import K_L1

ONE = AlphaProfile.constant(1.0)


def first_dirichlet_mode(grid, l=1):
    """Lowest eigenpair of -(u'' - l(l+1)/r^2 u), via a symmetric tridiagonal solve."""
    op = -laplacian_l(grid, l)
    vals, vecs = eigh_tridiagonal(op.diag, op.off, select="i", select_range=(0, 0))
    return vals[0], vecs[:, 0]


class TestSharp:
    def test_identity(self):
        assert np.array_equal(sharp(np.eye(2)), np.eye(2))

    def test_plugin_values(self):
        c = np.array([[1 + 1j, 2], [3, 4 - 1j]])
        expected = np.array([[4 + 1j, 2], [3, 1 - 1j]])
        assert np.array_equal(sharp(c), expected)

    def test_involution_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.allclose(sharp(sharp(c)), c, atol=0)

    def test_antiautomorphism(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(sharp(a @ b), sharp(b) @ sharp(a), atol=1e-14)

    def test_batched_matches_per_matrix(self):
        rng = np.random.default_rng(13)
        batch = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
        expected = np.array([[sharp(c) for c in row] for row in batch])
        assert np.array_equal(sharp(batch), expected)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (5, 3, 3)])
    def test_non_2x2_trailing_shape_rejected(self, shape):
        with pytest.raises(ShapeError):
            sharp(np.zeros(shape))


class TestAssemble:
    def test_block_layout_constant_alpha(self):
        g = build_grid(20)
        m = assemble(g, ONE, 1)
        n = g.n
        assert np.array_equal(m.matrix[:n, n:], np.eye(n))
        assert np.array_equal(m.matrix[:n, :n], m.matrix[n:, n:])

    def test_l0_rejected(self):
        with pytest.raises(DomainError):
            assemble(build_grid(10), ONE, 0)

    def test_csc_form_equals_dense_matrix(self):
        m = assemble(build_grid(17), AlphaProfile.polynomial([1.0, -3.0]), 2)
        assert m.matrix is m.matrix and not m.matrix.flags.writeable
        size = m.size
        assert np.array_equal(m.to_csc().toarray(), m.matrix)
        assert np.array_equal(m.to_csc(shift=-2.5).toarray(), m.matrix + 2.5 * np.eye(size))

    @pytest.mark.parametrize(
        "alpha, l, n",
        [
            (ONE, 1, 9),
            (AlphaProfile.polynomial([1.0, -3.0, 0.5]), 2, 40),
            (AlphaProfile.exponential(1.3, -0.7), 5, 133),
        ],
        ids=["const", "poly", "exp"],
    )
    def test_matvec_equals_dense_product(self, alpha, l, n):
        m = assemble(build_grid(n), alpha, l)
        rng = np.random.default_rng(n)
        real = rng.standard_normal(m.size)
        for v in (real, real + 1j * rng.standard_normal(m.size)):
            dense = m.matrix @ v
            assert np.linalg.norm(m.matvec(v) - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_matvec_rejects_wrong_length(self):
        m = assemble(build_grid(10), ONE, 1)
        with pytest.raises(ShapeError):
            m.matvec(np.ones(10))

    def test_pseudo_hermiticity_exact_zero(self):
        cases = [
            (ONE, 1, 100),
            (AlphaProfile.polynomial([1.0, 0.0, 1.0]), 2, 500),
            (AlphaProfile.exponential(1.3, -0.7), 3, 64),
        ]
        for alpha, l, n in cases:
            m = assemble(build_grid(n), alpha, l)
            assert pseudo_hermiticity_residual(m) == 0.0

    def test_randomized_assemblies_exact(self):
        rng = np.random.default_rng(2002)
        for _ in range(20):
            n = int(rng.integers(8, 120))
            l = int(rng.integers(1, 6))
            kind = rng.integers(0, 3)
            if kind == 0:
                alpha = AlphaProfile.constant(float(rng.normal()))
            elif kind == 1:
                alpha = AlphaProfile.polynomial(rng.normal(size=3).tolist())
            else:
                alpha = AlphaProfile.exponential(float(rng.normal()), float(rng.normal()))
            m = assemble(build_grid(n), alpha, l)
            assert pseudo_hermiticity_residual(m) == 0.0

    def test_residual_detects_corruption(self):
        m = assemble(build_grid(30), ONE, 1)
        a = m.matrix.copy()
        a[40, 5] += 1e-9
        assert pseudo_hermiticity_residual(a) == pytest.approx(1e-9, rel=1e-6)


class TestPencil:
    def test_constant_alpha_reduction(self):
        g = build_grid(500)
        lam_disc, psi1 = first_dirichlet_mode(g)
        c = pencil_coefficients(assemble(g, ONE, 1), psi1)
        norm2 = inner_product(g, psi1, psi1).real
        k2 = K_L1[0] ** 2
        assert c.a2 == pytest.approx(norm2, rel=1e-12)
        assert c.a1 == pytest.approx(2 * k2 * norm2, rel=1e-4)
        assert c.a0 == pytest.approx((k2**2 - k2) * norm2, rel=1e-4)

    def test_lambda_pm_constant_alpha(self):
        g = build_grid(500)
        _, psi1 = first_dirichlet_mode(g)
        c = pencil_coefficients(assemble(g, ONE, 1), psi1)
        lp, lm = lambda_pm(c)
        k1 = K_L1[0]
        assert lp == pytest.approx(-(k1**2) + k1, rel=1e-4)
        assert lm == pytest.approx(-(k1**2) - k1, rel=1e-4)

    def test_forms_real_for_random_complex_psi(self):
        g = build_grid(64)
        rng = np.random.default_rng(5)
        alpha = AlphaProfile.polynomial([1.0, 0.5])
        psi = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        # would raise SolverError if any quadratic form had a relative imaginary
        # part above 1e-10; reaching here is the assertion
        pencil_coefficients(assemble(g, alpha, 2), psi)

    def test_a2_positive_for_positive_alpha(self):
        g = build_grid(50)
        rng = np.random.default_rng(99)
        m = assemble(g, AlphaProfile.polynomial([1.0, 0.0, 0.7]), 1)
        for _ in range(5):
            psi = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            assert pencil_coefficients(m, psi).a2 > 0

    def test_alpha_zero_on_node_rejected(self):
        g = build_grid(9)  # nodes at 0.1, ..., 0.9
        alpha = AlphaProfile.polynomial([-0.5, 1.0])  # vanishes at r = 0.5
        with pytest.raises(DomainError):
            pencil_coefficients(assemble(g, alpha, 1), np.ones(g.n))

    def test_psi2_reconstruction_constant_alpha(self):
        g = build_grid(300)
        lam_disc, psi1 = first_dirichlet_mode(g)
        lam = -lam_disc + np.sqrt(lam_disc)  # upper branch eigenvalue
        psi2 = pencil_psi2(assemble(g, ONE, 1), psi1, lam)
        # for constant alpha the exact relation is psi2 = (Q1 + lambda) psi1
        expected = (lam_disc + lam) * psi1
        assert np.linalg.norm(psi2 - expected) <= 1e-10 * np.linalg.norm(expected)


class TestLambdaPM:
    def test_simple_real_roots(self):
        assert lambda_pm(PencilCoefficients(-1.0, 0.0, 1.0, 4.0)) == (1.0, -1.0)

    def test_double_root(self):
        c = PencilCoefficients(1.0, -2.0, 1.0, 0.0)
        assert lambda_pm(c) == (1.0, 1.0)

    def test_complex_pair(self):
        c = PencilCoefficients(2.0, 2.0, 1.0, 2.0**2 - 4 * 2.0)
        lp, lm = lambda_pm(c)
        assert lp == pytest.approx(-1 + 1j)
        assert lm == pytest.approx(-1 - 1j)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePencilError):
            lambda_pm(PencilCoefficients(1.0, 1.0, 0.0, 1.0))
