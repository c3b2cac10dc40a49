import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dynamolab import (
    AlphaProfile,
    DegeneratePencilError,
    DomainError,
    DynamoMatrix,
    PencilCoefficients,
    ShapeError,
    SolverError,
    assemble,
    build_grid,
    eigen,
    inner_product,
    lambda_pm,
    parse_profile,
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


def band_positions(m):
    """Node-interleaved numbering (u1_i, u2_i) -> block index, and the (row, col) pairs inside ``m.BAND``."""
    kl, ku = m.BAND
    size, n = m.size, m.size // 2
    node = np.arange(size) // 2 + (np.arange(size) % 2) * n
    r, c = np.nonzero(np.tri(size, size, ku, dtype=bool) & ~np.tri(size, size, -kl - 1, dtype=bool))
    return node, r, c


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

    def test_band_form_equals_dense_matrix(self):
        m = assemble(build_grid(17), AlphaProfile.polynomial([1.0, -3.0]), 2)
        assert m.matrix is m.matrix and not m.matrix.flags.writeable
        kl, ku = m.BAND
        node, r, c = band_positions(m)
        for shift in (0.0, -2.5):
            rebuilt = np.zeros((m.size, m.size))
            rebuilt[r, c] = m.band(shift)[kl + ku + r - c, c]
            assert np.array_equal(rebuilt, (m.matrix - shift * np.eye(m.size))[np.ix_(node, node)])

    @pytest.mark.parametrize("n", [8, 17, 60, 133])
    def test_band_form_equals_node_interleaved_dense_matrix(self, n):
        m = assemble(build_grid(n), AlphaProfile.polynomial([1.0, -3.0, 0.5]), 2)
        kl, ku = m.BAND
        node, r, c = band_positions(m)
        used = np.zeros((2 * kl + ku + 1, m.size), dtype=bool)
        used[kl + ku + r - c, c] = True
        assert not used[:kl].any()  # the fill rows of dgbtrf
        for shift in (0.0, -2.5, 3.7, -1e4):
            dense = (m.matrix - shift * np.eye(m.size))[np.ix_(node, node)]
            ab = m.band(shift)
            assert ab.shape == used.shape
            assert np.array_equal(ab[kl + ku + r - c, c], dense[r, c])
            assert np.count_nonzero(dense) == np.count_nonzero(dense[r, c])  # nothing outside the band
            assert not ab[~used].any()  # the fill rows and the unused corners

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

    def test_matvec_applies_each_column(self):
        m = assemble(build_grid(40), AlphaProfile.polynomial([1.0, -3.0, 0.5]), 2)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((m.size, 5)) + 1j * rng.standard_normal((m.size, 5))
        dense = m.matrix @ v
        assert np.linalg.norm(m.matvec(v) - dense) <= 1e-14 * np.linalg.norm(dense)
        for k in range(5):
            assert np.array_equal(m.matvec(v)[:, k], m.matvec(v[:, k]))
        with pytest.raises(ShapeError):
            m.matvec(np.ones((m.size, 2, 2)))

    @pytest.mark.parametrize("alpha", ["const:1", "poly:10,-30", "exp:1.3,-0.7"])
    def test_norm_inf_equals_dense_norm(self, alpha):
        m = assemble(build_grid(50), parse_profile(alpha), 3)
        assert m.norm_inf() == pytest.approx(np.linalg.norm(m.matrix, np.inf), rel=1e-15)

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

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
    def test_residual_needs_square_matrix_of_even_size(self, shape):
        with pytest.raises(ShapeError, match="even size"):
            pseudo_hermiticity_residual(np.ones(shape))

    def test_residual_detects_corrupted_entry(self, monkeypatch):
        # the entries table fills .matrix; its last entry is in the (2,2)
        # block, and its J-transposed partner is the matching subdiagonal
        # entry of the (1,1) block
        entries = DynamoMatrix._entries

        def corrupted(self, shift=0.0):
            rows, cols, vals = entries(self, shift)
            vals = vals.copy()
            vals[-1] += 2.0**-20
            return rows, cols, vals

        m = assemble(build_grid(30), ONE, 1)
        monkeypatch.setattr(DynamoMatrix, "_entries", corrupted)
        assert pseudo_hermiticity_residual(m) == 2.0**-20

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_non_finite_entries_rejected(self, c):
        with pytest.raises(DomainError, match="not finite"):
            assemble(build_grid(16), AlphaProfile.constant(c), 1)


class TestBlockLU:
    @pytest.mark.parametrize("z", [0.5, -20.0 + 5.0j, -300.0 - 40.0j])
    def test_pivot_determinants_multiply_to_det(self, z):
        m = assemble(build_grid(12), parse_profile("poly:10,-30"), 1)
        dets = m.pivot_determinants([z])[:, 0]
        sign, logdet = np.linalg.slogdet(m.matrix - z * np.eye(m.size))
        assert np.sum(np.log(np.abs(dets))) == pytest.approx(logdet, rel=1e-12)
        assert np.prod(dets / np.abs(dets)) == pytest.approx(sign, abs=1e-12)

    @pytest.mark.parametrize("alpha", ["poly:1,0,0.5", "poly:10,-30"])
    def test_pivots_on_a_count_line_multiply_to_det(self, alpha):
        # the count's line between the 12th and 13th real parts, from y = 0 to the far samples, in one pass
        m = assemble(build_grid(60), parse_profile(alpha), 1)
        re = np.unique(np.linalg.eigvals(m.matrix).real)[::-1]
        zs = 0.5 * (re[11] + re[12]) + 1j * np.array([0.0, 1e3, 1e12])
        dets = m.pivot_determinants(zs)
        for z, col in zip(zs, dets.T):
            sign, logdet = np.linalg.slogdet(m.matrix - z * np.eye(m.size))
            assert np.sum(np.log(np.abs(col))) == pytest.approx(logdet, rel=1e-12)
            assert np.prod(col / np.abs(col)) == pytest.approx(sign, abs=1e-12)

    @pytest.mark.parametrize("z", [-3.0, -50.0 + 7.0j, 2.0 + 1e4j])
    @pytest.mark.parametrize("alpha", ["poly:1,-3", "poly:10,-30", "const:1"])
    def test_each_pivot_is_a_ratio_of_leading_minors(self, alpha, z):
        m = assemble(build_grid(10), parse_profile(alpha), 1)
        node = band_positions(m)[0]
        a = (m.matrix - z * np.eye(m.size))[np.ix_(node, node)]
        minors = [1.0] + [np.linalg.det(a[: 2 * i, : 2 * i]) for i in range(1, m.n + 1)]
        want = np.array(minors[1:]) / np.array(minors[:-1])
        dets = m.pivot_determinants([z])[:, 0]
        assert np.all(np.abs(dets - want) <= 1e-12 * np.abs(want))


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
        with pytest.raises(DomainError, match="psi2"):
            pencil_psi2(assemble(g, alpha, 1), np.ones(g.n), 1.0)

    def test_psi1_must_fit_and_be_nonzero(self):
        m = assemble(build_grid(9), ONE, 1)
        with pytest.raises(ShapeError, match="length 9"):
            pencil_coefficients(m, np.ones(8))
        with pytest.raises(DomainError, match="nonzero"):
            pencil_coefficients(m, np.zeros(9))

    @pytest.mark.parametrize("c", [1e-160, 1e-320])
    def test_non_finite_functionals_raise(self, c):
        # 1e-160: a1^2 overflows the discriminant; 1e-320: 1/alpha itself overflows
        g = build_grid(40)
        with pytest.raises(SolverError, match="not finite"):
            pencil_coefficients(assemble(g, AlphaProfile.constant(c), 1), first_dirichlet_mode(g)[1])

    # poly:10,-30 has conjugate pairs among its leading values; the sums must not depend on the block's layout
    @pytest.mark.parametrize("alpha", ["poly:1,0,0.5", "poly:10,-30"])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
    def test_block_equals_one_column_calls_bit_for_bit(self, alpha, layout):
        m = assemble(build_grid(100), parse_profile(alpha), 1)
        spec = eigen(m, leading=12, want_vectors=True)
        lams, psi1 = spec.eigenvalues[:12], layout(spec.eigenvectors[: m.n, :12])
        block, rec = pencil_coefficients(m, psi1), pencil_psi2(m, psi1, lams)
        for j in range(12):
            one = pencil_coefficients(m, psi1[:, j])
            got = (block.a0[j], block.a1[j], block.a2[j], block.discriminant[j])
            assert got == (one.a0, one.a1, one.a2, one.discriminant)
            assert np.array_equal(rec[:, j], pencil_psi2(m, psi1[:, j], lams[j]))

    def test_block_column_faults_raise(self):
        g = build_grid(40)
        m = assemble(g, ONE, 1)
        block = np.repeat(first_dirichlet_mode(g)[1][:, None], 4, axis=1).astype(complex)
        block[:, 2] = 0.0
        with pytest.raises(DomainError, match="nonzero"):
            pencil_coefficients(m, block)
        block[:, 2] = block[:, 0]
        block[5, 2] = np.nan
        with pytest.raises(SolverError, match="not finite"):
            pencil_coefficients(m, block)
        with pytest.raises(ShapeError, match="one lambda per column"):
            pencil_psi2(m, block, np.ones(3))

    def test_non_real_functional_raises(self, monkeypatch):
        # a symmetric form is real to rounding; an imaginary part of one is a fault upstream
        from dynamolab import operator

        true_inner = operator.inner_product
        monkeypatch.setattr(operator, "inner_product", lambda grid, f, g: true_inner(grid, f, g) + 1j)
        g = build_grid(40)
        with pytest.raises(SolverError, match="non-real value"):
            pencil_coefficients(assemble(g, ONE, 1), first_dirichlet_mode(g)[1])

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
