import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    ConfigurationError,
    DynamoMatrix,
    SolverError,
    Spectrum,
    assemble,
    build_grid,
    classify_pairs,
    eigen,
    jordan_probe,
    lambda_pm,
    parse_profile,
    pencil_coefficients,
    pencil_psi2,
)
from oracles import K_L1, K_L2


@pytest.fixture(scope="module")
def spec_alpha0():
    m = assemble(build_grid(500), AlphaProfile.constant(0.0), 1)
    return eigen(m)


@pytest.fixture(scope="module")
def spec_alpha1():
    m = assemble(build_grid(500), AlphaProfile.constant(1.0), 1)
    return eigen(m, want_vectors=True), m


class TestEigen:
    def test_decoupled_limit_double_bessel(self, spec_alpha0):
        k2 = K_L1[0] ** 2
        lead = spec_alpha0.eigenvalues[:2]
        assert np.all(np.abs(lead.imag) < 1e-9)
        for lam in lead:
            assert lam.real == pytest.approx(-k2, rel=1e-4)

    def test_constant_alpha_leading_pair(self, spec_alpha1):
        spec, _ = spec_alpha1
        k1 = K_L1[0]
        assert spec.eigenvalues[0].real == pytest.approx(-(k1**2) + k1, rel=1e-4)
        # partner of mode 1 sits below the mode-2 upper branch; find it by value
        target = -(k1**2) - k1
        d = np.min(np.abs(spec.eigenvalues - target))
        assert d <= 1e-4 * abs(target)

    def test_supercritical_alpha_positive_growth(self):
        m = assemble(build_grid(500), AlphaProfile.constant(5.0), 1)
        spec = eigen(m)
        k1 = K_L1[0]
        expected = -(k1**2) + 5 * k1
        assert expected > 0  # dynamo action
        assert spec.eigenvalues[0].real == pytest.approx(expected, rel=1e-3)

    def test_eigenvalue_count(self):
        g = build_grid(40)
        spec = eigen(assemble(g, AlphaProfile.constant(2.0), 1))
        assert spec.size == 2 * g.n

    def test_spectrum_conjugation_closed(self):
        # sign-changing alpha drives eigenvalues complex; the spectrum of the
        # real matrix must still be closed under conjugation
        alpha = AlphaProfile.polynomial([1.0, -3.0]).scaled(10.0)
        spec = eigen(assemble(build_grid(100), alpha, 1))
        vals = spec.eigenvalues
        complex_vals = vals[np.abs(vals.imag) > 1e-8]
        assert complex_vals.size >= 2  # this profile really has complex pairs
        for lam in complex_vals:
            assert np.min(np.abs(vals - np.conj(lam))) < 1e-10 * max(1.0, abs(lam))

    def test_sorting_deterministic(self):
        a = np.diag([3.0, -1.0, 2.0])
        spec = eigen(a)
        assert np.array_equal(spec.eigenvalues.real, [3.0, 2.0, -1.0])

    def test_constant_alpha_full_resolved_spectrum(self):
        # every resolved mode (k*h < 0.3) obeys lambda = -k^2 +/- c*k
        c = 2.0
        n, l = 400, 2
        g = build_grid(n)
        spec = eigen(assemble(g, AlphaProfile.constant(c), l))
        for k in K_L2:
            assert k * g.h < 0.3
            for s in (+1, -1):
                target = -(k**2) + s * c * k
                assert np.min(np.abs(spec.eigenvalues - target)) <= 1e-3 * abs(target)

    def test_eigenvector_residual_contract(self, spec_alpha1):
        spec, m = spec_alpha1
        a = m.matrix
        r = np.linalg.norm(a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0)
        assert np.max(r) <= 1e-8 * np.linalg.norm(a, np.inf)

    @pytest.mark.parametrize(
        "alpha, n", [("const:1", 60), ("poly:10,-30", 100), ("poly:0,0,0,50", 200), ("poly:1,0,0.5", 300)]
    )
    def test_dense_matches_scipy_oracle(self, alpha, n):
        # both run LAPACK dgeev, but from separately built libraries whose
        # kernels may round differently, so the match is to a tolerance
        import scipy.linalg

        m = assemble(build_grid(n), parse_profile(alpha), 1)
        a = m.matrix
        ref = scipy.linalg.eigvals(a)
        ref = ref[np.lexsort((-ref.imag, -ref.real))]
        tol = 1e-12 * np.linalg.norm(a, np.inf)
        assert np.max(np.abs(eigen(m).eigenvalues - ref)) <= tol
        spec = eigen(m, want_vectors=True)
        assert np.max(np.abs(spec.eigenvalues - ref)) <= tol
        vecs = spec.eigenvectors
        r = np.linalg.norm(a @ vecs - vecs * spec.eigenvalues, axis=0)
        assert np.max(r) <= 1e-8 * np.linalg.norm(a, np.inf)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_residual_contract_violation_raises(self, monkeypatch, real):
        # poly:10,-30 has conjugate pairs, so every eigenvector is complex and
        # the residual goes through the real and imaginary products
        m = assemble(build_grid(40), parse_profile("poly:10,-30"), 1)
        vals = eigen(m).eigenvalues
        bad = vals[np.flatnonzero((vals.imag == 0.0) == real)[0]]
        true_eig = np.linalg.eig

        def perturbed(a):
            w, v = true_eig(a)
            k = np.argmin(np.abs(w - bad))
            v = v.copy()
            v[:, k] += 1e-4 * np.linalg.norm(v[:, k])
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        with pytest.raises(SolverError, match="residual contract"):
            eigen(m, want_vectors=True)

    def test_all_real_spectrum_has_complex_eigenvalues(self):
        spec = eigen(assemble(build_grid(60), AlphaProfile.constant(1.0), 1), want_vectors=True)
        assert np.all(spec.eigenvalues.imag == 0.0)
        assert spec.eigenvalues.dtype == np.complex128

    def test_non_finite_raw_matrix_rejected(self):
        a = np.eye(4)
        a[1, 2] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            eigen(a)
        with pytest.raises(ConfigurationError, match="finite"):
            jordan_probe(a, 1.0, np.ones(4))

    @pytest.mark.parametrize("point", [np.nan, np.inf, complex(-10.0, np.nan)], ids=["nan", "inf", "nan-imag"])
    def test_non_finite_near_point_rejected_before_any_solve(self, capfd, point):
        # a NaN shift made LAPACK print "illegal value" to stdout, then the dense spectrum came back
        m = assemble(build_grid(40), parse_profile("poly:1,0,0.5"), 1)
        with pytest.raises(ConfigurationError, match="near"):
            eigen(m, near=[-10.0, point])
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "request_", [{"leading": 3}, {"want_vectors": True}, {"leading": 3, "want_vectors": True}],
        ids=["leading", "vectors", "both"],
    )
    def test_near_with_another_request_refused(self, request_):
        # each was answered as one of the two requests before, silently dropping the other
        m = assemble(build_grid(40), parse_profile("poly:1,0,0.5"), 1)
        with pytest.raises(ConfigurationError, match="one request per call"):
            eigen(m, near=[-10.0], **request_)

    @pytest.mark.parametrize("alpha", [None, "const:0", "poly:1,0,0.5"], ids=["raw", "alpha-zero", "dynamo"])
    def test_empty_near_refused_on_every_input(self, alpha):
        m = np.diag([1.0, 2.0, 3.0]) if alpha is None else assemble(build_grid(40), parse_profile(alpha), 1)
        with pytest.raises(ConfigurationError, match="near"):
            eigen(m, near=[])

    @pytest.mark.parametrize("alpha", [None, "const:0"], ids=["raw", "alpha-zero"])
    @pytest.mark.parametrize("request_", [{"near": [-10.0]}, {"leading": 3}], ids=["near", "leading"])
    def test_raw_array_and_alpha_zero_answer_with_the_dense_spectrum(self, alpha, request_):
        m = np.diag([1.0, 2.0, 3.0]) if alpha is None else assemble(build_grid(40), parse_profile(alpha), 1)
        spec = eigen(m, **request_)
        assert spec.disk is None and spec.right_of is None
        assert np.array_equal(spec.eigenvalues, eigen(m).eigenvalues)

    def test_non_square_raw_matrix_rejected(self):
        with pytest.raises(ConfigurationError, match="square"):
            eigen(np.ones((2, 3)))


class TestInverseIteration:
    def test_conjugate_pair_vectors_are_exact_conjugates(self):
        spec = eigen(assemble(build_grid(100), parse_profile("poly:10,-30"), 1), want_vectors=True)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        upper = np.flatnonzero(vals.imag > 0)
        assert upper.size >= 1
        for i in upper:
            j = int(np.flatnonzero(vals == np.conj(vals[i]))[0])
            assert np.array_equal(vecs[:, j], np.conj(vecs[:, i]))
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=1e-14)

    def test_raw_array_vectors_rejected(self):
        with pytest.raises(ConfigurationError, match="assembled dynamo operator"):
            eigen(np.eye(4), want_vectors=True)


# (alpha, l, n): the sampling rule's measured cases, l = 2, and a supercritical
# profile (const:5 has lambda_1 > 0)
COUNT_CASES = [
    ("poly:1,0,0.5", 1, 60),
    ("poly:1,0,0.5", 1, 120),
    ("poly:1,0,0.5", 1, 300),
    ("poly:1,0,0.9", 1, 300),
    ("poly:10,-30", 1, 100),
    ("poly:10,-30", 1, 300),
    ("const:1", 1, 500),
    ("const:1", 2, 300),
    ("const:5", 1, 200),
]


@pytest.fixture(scope="module")
def dense_cases():
    """Each count case's operator and its dense spectrum, built once on first use."""
    cache = {}

    def get(alpha, l, n):
        if (alpha, l, n) not in cache:
            m = assemble(build_grid(n), parse_profile(alpha), l)
            cache[alpha, l, n] = m, eigen(m).eigenvalues
        return cache[alpha, l, n]

    return get


class TestLeadingEigen:
    """eigen(m, leading=k): shift-invert ARPACK certified by an argument-principle count."""

    def test_leading_cut_needs_a_value_left_of_the_count(self):
        from dynamolab.spectral import _leading_cut

        vals = np.array([3.0, 1.0 + 2.0j, 1.0 - 2.0j, 1.0])
        assert _leading_cut(vals, 4) is None  # the count reaches the number of values
        assert _leading_cut(vals, 2) is None  # every value after the second shares its real part
        assert _leading_cut(vals, 1) == (1, 2.0)

    def test_arpack_failure_gives_the_dense_spectrum(self, monkeypatch):
        import scipy.sparse.linalg as sla

        def fail(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        m = assemble(build_grid(60), parse_profile("poly:1,0,0.5"), 1)
        monkeypatch.setattr(sla, "eigs", fail)
        spec = eigen(m, leading=12)
        assert spec.right_of is None
        assert spec.size == m.size

    @pytest.mark.parametrize("alpha, l, n", COUNT_CASES)
    def test_count_matches_dense_at_every_gap(self, dense_cases, alpha, l, n):
        from dynamolab.spectral import _count_right

        m, vals = dense_cases(alpha, l, n)
        re = np.unique(vals.real)[::-1][:21]  # the distinct real parts of the leading values
        if alpha == "const:5":
            assert vals[0].real > 0  # supercritical
        for s in 0.5 * (re[:-1] + re[1:]):
            assert _count_right(m, s) == np.sum(vals.real > s), s

    # profiles the sampling rule was not measured on: an exponential, and one that changes sign
    @pytest.mark.parametrize("alpha, n", [("exp:1,0.8", 300), ("poly:1,-3", 200)])
    def test_count_matches_dense_off_the_measured_cases(self, dense_cases, alpha, n):
        from dynamolab.spectral import _count_right

        m, vals = dense_cases(alpha, 1, n)
        re = np.unique(vals.real)[::-1][:21]
        for s in 0.5 * (re[:-1] + re[1:]):
            assert _count_right(m, s) == np.sum(vals.real > s), s

    @pytest.mark.parametrize("side", [1e-4, -1e-4], ids=["right", "left"])
    def test_count_next_to_a_conjugate_pair(self, dense_cases, side):
        from dynamolab.spectral import _count_right

        m, vals = dense_cases("poly:10,-30", 1, 100)
        pair = vals[vals.imag > 0][0]
        s = pair.real + side
        assert _count_right(m, s) == np.sum(vals.real > s)

    # 2^330 scales every entry and line exactly; the pivots then reach about 1e220
    @pytest.mark.parametrize("alpha, n", [("poly:1,0,0.5", 60), ("poly:10,-30", 100), ("const:5", 60)])
    def test_count_unchanged_by_a_huge_scale(self, dense_cases, alpha, n):
        from dynamolab.grid import TridiagOp
        from dynamolab.spectral import _count_right

        m, vals = dense_cases(alpha, 1, n)
        f = 2.0**330
        big = DynamoMatrix(
            grid=m.grid,
            lap=TridiagOp(diag=f * m.lap.diag, off=f * m.lap.off),
            q_alpha=TridiagOp(diag=f * m.q_alpha.diag, off=f * m.q_alpha.off),
            alpha_nodes=f * m.alpha_nodes,
        )
        re = np.unique(vals.real)[::-1][:8]
        for s in 0.5 * (re[:-1] + re[1:]):
            count = _count_right(m, s)
            assert count == np.sum(vals.real > s), s
            assert _count_right(big, f * s) == count, s

    def test_zero_pivot_gives_no_count(self):
        from dynamolab.grid import TridiagOp
        from dynamolab.spectral import _count_right

        # the first pivot is (lap_0 - s)^2 - alpha_0 q_0 = 4 - 4 = 0 at y = 0
        lap = TridiagOp(diag=np.full(8, -2.0), off=np.ones(7))
        q_a = TridiagOp(diag=np.full(8, 4.0), off=np.ones(7))
        m = DynamoMatrix(grid=build_grid(8), lap=lap, q_alpha=q_a, alpha_nodes=np.ones(8))
        assert _count_right(m, -4.0) is None
        assert _count_right(m, -4.5) == np.sum(np.linalg.eigvals(m.matrix).real > -4.5)

    @pytest.mark.parametrize("alpha, l, n", [c for c in COUNT_CASES if 2 * c[2] >= 200])
    def test_leading_values_match_dgeev(self, dense_cases, alpha, l, n):
        m, vals = dense_cases(alpha, l, n)
        spec = eigen(m, leading=12)
        assert spec.right_of is not None and spec.size >= 12
        assert np.sum(vals.real > spec.right_of) == spec.size
        ref = vals[: spec.size]
        assert np.all(np.abs(spec.eigenvalues - ref) <= 1e-9 * np.abs(ref))

    def test_arpack_from_the_first_size_that_fits(self, monkeypatch):
        import scipy.sparse.linalg

        true_eigs, calls = scipy.sparse.linalg.eigs, []

        def counted_eigs(*args, **kwargs):
            calls.append(args[1])
            return true_eigs(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted_eigs)
        small = assemble(build_grid(16), parse_profile("poly:1,0,0.5"), 1)  # 4 (4 + 4) = 32 = N
        spec = eigen(small, leading=4)
        assert calls == [] and spec.right_of is None
        assert np.array_equal(spec.eigenvalues, eigen(small).eigenvalues)
        spec = eigen(assemble(build_grid(17), parse_profile("poly:1,0,0.5"), 1), leading=4)
        assert calls == [8] and spec.right_of is not None

    # every size from the first that fits k = 1 up; poly:10,-30 has conjugate pairs among the leading values
    @pytest.mark.parametrize("n", [17, 20, 33, 40, 60, 80, 99])
    @pytest.mark.parametrize("alpha", ["const:1", "poly:1,0,0.5", "poly:10,-30", "poly:1,-3"])
    def test_certified_cut_equals_the_dense_cut(self, alpha, n):
        m = assemble(build_grid(n), parse_profile(alpha), 1)
        dense = eigen(m).eigenvalues
        for k in [k for k in (1, 4, 12) if 4 * (k + 4) < m.size]:
            spec = eigen(m, leading=k, want_vectors=True)
            vals, vecs = spec.eigenvalues, spec.eigenvectors
            assert spec.right_of is not None and spec.size >= k
            assert np.sum(dense.real > spec.right_of) == spec.size
            ref = dense[: spec.size]
            assert np.all(np.abs(vals - ref) <= 1e-9 * np.abs(ref))
            for i in np.flatnonzero(vals.imag < 0):
                partner = np.flatnonzero(vals == vals[i].conjugate())
                assert partner.size == 1 and np.array_equal(vecs[:, i], vecs[:, partner[0]].conj())
        if alpha == "poly:10,-30" and n >= 33:
            assert np.sum(vals.imag < 0) == 1  # the pair checked above, at k = 12

    def test_large_requests_stay_dense(self, dense_cases):
        m, vals = dense_cases("poly:1,0,0.5", 1, 300)
        spec = eigen(m, leading=150)  # 4 (150 + 4) >= 600
        assert spec.right_of is None and np.array_equal(spec.eigenvalues, vals)

    def test_missed_value_falls_back_to_dense(self, dense_cases, monkeypatch):
        import scipy.sparse.linalg

        true_eigs = scipy.sparse.linalg.eigs
        calls = []

        def drop_leading(*args, **kwargs):  # an ARPACK that misses the leading eigenvalue
            vals = true_eigs(*args, **kwargs)
            calls.append(args[1])
            return np.delete(vals, np.argmax(vals.real))

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", drop_leading)
        m, vals = dense_cases("poly:1,0,0.5", 1, 300)
        spec = eigen(m, leading=12)
        assert calls == [16, 32]  # the count disagreed, k doubled once, then dense
        assert spec.right_of is None and np.array_equal(spec.eigenvalues, vals)

    @pytest.mark.parametrize("cap", ["_COUNT_ROUNDS", "_PHASE_STEP"])
    def test_unsettled_sampling_gives_no_count(self, dense_cases, monkeypatch, cap):
        import dynamolab.spectral as spectral

        # next to a pair the rule bisects about a dozen rounds; a zero step
        # bound bisects every interval until the sample cap
        monkeypatch.setattr(spectral, cap, 0)
        m, vals = dense_cases("poly:10,-30", 1, 100)
        assert spectral._count_right(m, vals[vals.imag > 0][0].real + 1e-4) is None

    def test_unsettled_sampling_falls_back_to_dense(self, dense_cases, monkeypatch):
        import dynamolab.spectral as spectral

        monkeypatch.setattr(spectral, "_PHASE_STEP", 0.0)
        m, vals = dense_cases("poly:1,0,0.5", 1, 120)
        spec = eigen(m, leading=12)
        assert spec.right_of is None and np.array_equal(spec.eigenvalues, vals)

    def test_covers_reads_the_half_plane(self):
        spec = Spectrum(np.array([-1.0 + 0j]), None, None, right_of=-10.0)
        assert spec.covers([-5.0 + 3.0j, -2.0], 4.9)
        assert not spec.covers([-5.0 + 3.0j, -2.0], 5.1)

    def test_bad_request_rejected(self, dense_cases):
        m, _ = dense_cases("poly:1,0,0.5", 1, 60)
        with pytest.raises(ConfigurationError, match="leading"):
            eigen(m, leading=0)
        with pytest.raises(ConfigurationError, match="near"):
            eigen(m, near=[])


class TestLeadingEigenvectors:
    """eigen(m, leading=k, want_vectors=True): one vector per returned value, from the same solve."""

    # no conjugate pair, two of them among the leading values, and a larger operator
    RITZ_CASES = [("poly:1,0,0.5", 1, 300), ("poly:10,-30", 1, 300), ("const:1", 1, 500)]

    @staticmethod
    def refuse_dense_vectors(monkeypatch):
        def refuse(a):
            raise AssertionError("the Ritz path must not call np.linalg.eig")

        monkeypatch.setattr(np.linalg, "eig", refuse)

    @pytest.mark.parametrize("alpha, l, n", RITZ_CASES)
    def test_ritz_values_equal_the_values_only_solve(self, dense_cases, monkeypatch, alpha, l, n):
        m, _ = dense_cases(alpha, l, n)
        values_only = eigen(m, leading=12)
        self.refuse_dense_vectors(monkeypatch)
        spec = eigen(m, leading=12, want_vectors=True)
        assert np.array_equal(spec.eigenvalues, values_only.eigenvalues)
        assert spec.right_of == values_only.right_of
        assert spec.eigenvectors.shape == (m.size, spec.size)

    @pytest.mark.parametrize("alpha, l, n", RITZ_CASES)
    def test_ritz_vectors_are_unit_eigenvectors_in_block_numbering(self, dense_cases, monkeypatch, alpha, l, n):
        m, _ = dense_cases(alpha, l, n)
        self.refuse_dense_vectors(monkeypatch)
        spec = eigen(m, leading=12, want_vectors=True)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-14)
        resid = np.linalg.norm(m.matrix @ vecs - vecs * vals, axis=0)  # the dense matrix numbers by block
        assert np.all(resid <= 1e-12 * m.norm_inf())
        for i in np.flatnonzero(vals.imag < 0):
            partner = np.flatnonzero(vals == vals[i].conjugate())
            assert partner.size == 1 and np.array_equal(vecs[:, i], vecs[:, partner[0]].conj())
        if alpha == "poly:10,-30":
            assert np.sum(vals.imag < 0) == 1

    def test_bad_ritz_column_falls_back_to_dense(self, dense_cases, monkeypatch):
        import scipy.sparse.linalg

        true_eigs = scipy.sparse.linalg.eigs

        def corrupt_one_column(*args, **kwargs):  # an ARPACK whose leading Ritz vector is wrong
            vals, vecs = true_eigs(*args, **kwargs)
            vecs = vecs.copy()
            vecs[:, np.argmax(vals.real)] = np.random.default_rng(7).standard_normal(vecs.shape[0])
            return vals, vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", corrupt_one_column)
        m, _ = dense_cases("poly:1,0,0.5", 1, 300)
        spec = eigen(m, leading=12, want_vectors=True)
        full = eigen(m, want_vectors=True)
        assert spec.right_of is None
        assert np.array_equal(spec.eigenvalues, full.eigenvalues)
        assert np.array_equal(spec.eigenvectors, full.eigenvectors)

    # (alpha, n, count): whatever count asks for, the dense path lists every value
    @pytest.mark.parametrize(
        "alpha, n, count", [("poly:1,0,0.5", 60, 12), ("const:1", 60, 12), ("poly:10,-30", 80, 14), ("poly:10,-30", 40, 3)]
    )
    def test_dense_path_gives_every_value_a_vector(self, monkeypatch, alpha, n, count):
        import dynamolab.spectral

        m = assemble(build_grid(n), parse_profile(alpha), 1)
        monkeypatch.setattr(dynamolab.spectral, "_leading_eigen", lambda *args: None)
        spec = eigen(m, leading=count, want_vectors=True)
        vals, vecs = np.linalg.eig(m.matrix)
        order = np.lexsort((-vals.imag, -vals.real))
        assert spec.right_of is None
        assert np.array_equal(spec.eigenvalues, vals[order])
        assert np.array_equal(spec.eigenvectors, vecs[:, order])  # dgeev's own vectors

    # (alpha, n, count): both fit ARPACK; a conjugate pair among the leading 14, and one cut across by count = 3
    @pytest.mark.parametrize("alpha, n, count", [("poly:10,-30", 80, 14), ("poly:10,-30", 40, 3)])
    def test_dense_cut_sets_right_of(self, alpha, n, count):
        m = assemble(build_grid(n), parse_profile(alpha), 1)
        vals = eigen(m).eigenvalues
        spec = eigen(m, leading=count, want_vectors=True)
        j = spec.size
        assert j >= count and spec.right_of is not None
        assert np.sum(vals.real > spec.right_of) == j  # the same cut as the dense spectrum's
        assert np.all(np.abs(spec.eigenvalues - vals[:j]) <= 1e-9 * np.abs(vals[:j]))
        resid = np.linalg.norm(m.matrix @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0)
        assert np.all(resid <= 1e-12 * m.norm_inf())
        assert np.sum(spec.eigenvalues.imag < 0) == 1
        if count == 3:
            assert j == 4  # the pair at the cut is kept whole

    def test_dense_cut_past_the_last_value_keeps_every_value(self):
        m = assemble(build_grid(60), parse_profile("poly:1,0,0.5"), 1)
        spec = eigen(m, leading=m.size, want_vectors=True)
        full = eigen(m, want_vectors=True)
        assert spec.right_of is None
        assert np.array_equal(spec.eigenvalues, full.eigenvalues)
        assert np.array_equal(spec.eigenvectors, full.eigenvectors)


class TestBandFactorization:
    """The shift-invert solves factor DynamoMatrix.band once with LAPACK's dgbtrf."""

    @pytest.fixture
    def singular(self, monkeypatch):
        import scipy.linalg.lapack

        true_dgbtrf = scipy.linalg.lapack.dgbtrf
        calls = []

        def zero_pivot(*args, **kwargs):  # as if the shift were an eigenvalue
            lu, piv, _ = true_dgbtrf(*args, **kwargs)
            calls.append(args[1:3])
            return lu, piv, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", zero_pivot)
        return calls

    def test_singular_shift_gives_the_dense_spectrum_near(self, singular):
        m = assemble(build_grid(100), parse_profile("poly:9.7,-29.1"), 1)
        spec = eigen(m, near=[-38.0])
        assert singular == [(3, 2)]
        assert spec.disk is None and np.array_equal(spec.eigenvalues, eigen(m).eigenvalues)

    def test_singular_shift_gives_the_dense_leading_values(self, singular, dense_cases):
        m, vals = dense_cases("poly:1,0,0.5", 1, 300)
        spec = eigen(m, leading=12)
        assert singular == [(3, 2)]
        assert spec.right_of is None and np.array_equal(spec.eigenvalues, vals)

    def test_local_solves_build_no_dense_matrix(self):
        near = assemble(build_grid(100), parse_profile("poly:9.7,-29.1"), 1)
        leading = assemble(build_grid(300), parse_profile("poly:1,0,0.5"), 1)
        assert eigen(near, near=[-38.0]).disk is not None
        assert eigen(leading, leading=12).right_of is not None
        assert "matrix" not in near.__dict__ and "matrix" not in leading.__dict__


class TestPencilConsistencyOnEigenpairs:
    def test_eigenpairs_satisfy_pencil(self, spec_alpha1):
        spec, m = spec_alpha1
        g = m.grid
        checked = 0
        for idx in range(0, 40):
            lam = spec.eigenvalues[idx]
            vec = spec.eigenvectors[:, idx]
            psi1 = vec[: g.n]
            if np.linalg.norm(psi1) <= 1e-8:
                continue
            c = pencil_coefficients(m, psi1)
            val = c.a2 * lam**2 + c.a1 * lam + c.a0
            scale = max(abs(c.a2 * lam**2), abs(c.a1 * lam), abs(c.a0))
            assert abs(val) <= 1e-6 * scale
            lp, lm_ = lambda_pm(c)
            lam_scale = max(abs(lp), abs(lm_))
            assert min(abs(lam - lp), abs(lam - lm_)) <= 1e-6 * lam_scale
            psi2 = vec[g.n :]
            rec = pencil_psi2(m, psi1, lam)
            assert np.linalg.norm(rec - psi2) <= 1e-6 * np.linalg.norm(psi2)
            checked += 1
        assert checked >= 30


class TestClassify:
    def test_all_real(self):
        spec = eigen(np.diag([1.0, 2.0, 3.0]))
        out = classify_pairs(spec)
        assert out.labels() == ["Real"] * 3

    def test_simple_pair(self):
        vals = np.array([1 + 2j, 1 - 2j, 3.0 + 0j])
        spec = Spectrum(eigenvalues=vals, eigenvectors=None, pair_index=None)
        out = classify_pairs(spec)
        assert out.pair_index[0] == 1 and out.pair_index[1] == 0
        assert out.pair_index[2] == -1
        assert out.labels() == ["Pair", "Pair", "Real"]

    def test_partner_of_partner_is_self(self):
        alpha = AlphaProfile.polynomial([1.0, -3.0]).scaled(10.0)
        spec = eigen(assemble(build_grid(100), alpha, 1))
        out = classify_pairs(spec)
        paired = 0
        for i, j in enumerate(out.pair_index):
            if j != -1:
                assert out.pair_index[j] == i
                assert abs(out.eigenvalues[i] - np.conj(out.eigenvalues[j])) <= 1e-8
                paired += 1
        assert paired >= 2

    def test_labels_need_classification(self):
        spec = Spectrum(eigenvalues=np.array([1.0 + 0j]), eigenvectors=None, pair_index=None)
        with pytest.raises(ConfigurationError, match="not been classified"):
            spec.labels()

    def test_unpaired_complex_raises(self):
        vals = np.array([1 + 2j, 1 - 2.00001j])
        spec = Spectrum(eigenvalues=vals, eigenvectors=None, pair_index=None)
        with pytest.raises(SolverError, match="unpaired complex eigenvalue"):
            classify_pairs(spec)

    def test_exact_conjugation_of_real_matrices(self):
        # LAPACK returns bit-exact conjugate pairs for real input, so PAIR_TOL
        # never has to absorb rounding in a pair
        spec = eigen(assemble(build_grid(100), AlphaProfile.polynomial([10.0, -30.0]), 1))
        vals = spec.eigenvalues
        complex_vals = vals[vals.imag != 0]
        assert complex_vals.size > 0
        assert set(np.conj(complex_vals).tolist()) <= set(vals.tolist())


class TestJordanProbe:
    def test_synthetic_ep_chain(self):
        m = np.array([[1.0, 1.0], [-1.0, -1.0]])
        psi = np.array([1.0, -1.0]) / np.sqrt(2)
        probe = jordan_probe(m, 0.0, psi)
        assert probe.eigvec_residual <= 1e-14
        assert probe.chain_residual <= 1e-12
        # chain vector is a genuine associated vector: (M-0) chi == psi
        assert np.linalg.norm(m @ probe.chain_vector - psi) <= 1e-12

    def test_psi_must_fit_and_be_nonzero(self):
        m = np.diag([1.0, 2.0])
        with pytest.raises(ConfigurationError, match="length 2"):
            jordan_probe(m, 1.0, np.ones(3))
        with pytest.raises(ConfigurationError, match="nonzero"):
            jordan_probe(m, 1.0, np.zeros(2))

    @pytest.mark.parametrize("lambda0, entry", [(np.nan, 1.0), (1.0, np.inf)], ids=["nan-lambda0", "inf-psi"])
    def test_non_finite_input_rejected(self, lambda0, entry):
        m = assemble(build_grid(40), parse_profile("poly:1,0,0.5"), 1)
        psi = np.ones(m.size)
        psi[3] = entry
        with pytest.raises(ConfigurationError, match="finite"):
            jordan_probe(m, lambda0, psi)

    def test_diagonalizable_no_chain(self):
        m = np.diag([1.0, 2.0])
        probe = jordan_probe(m, 1.0, np.array([1.0, 0.0]))
        assert probe.chain_residual == pytest.approx(1.0, abs=1e-12)

    def test_residual_definitions(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        psi = rng.standard_normal(5)
        psi /= np.linalg.norm(psi)
        probe = jordan_probe(m, 0.3, psi)
        shifted = m - 0.3 * np.eye(5)
        assert probe.eigvec_residual == pytest.approx(np.linalg.norm(shifted @ psi))
        assert probe.chain_residual == pytest.approx(
            np.linalg.norm(shifted @ probe.chain_vector - psi)
        )
