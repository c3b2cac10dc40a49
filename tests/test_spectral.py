import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    ClassificationError,
    Spectrum,
    assemble,
    build_grid,
    classify_pairs,
    eigen,
    jordan_probe,
    lambda_pm,
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
        out = classify_pairs(spec, 1e-8)
        assert out.labels() == ["Real"] * 3

    def test_simple_pair(self):
        vals = np.array([1 + 2j, 1 - 2j, 3.0 + 0j])
        spec = Spectrum(eigenvalues=vals, eigenvectors=None, pair_index=None, pair_tol=None)
        out = classify_pairs(spec, 1e-6)
        assert out.pair_index[0] == 1 and out.pair_index[1] == 0
        assert out.pair_index[2] == -1
        assert out.labels() == ["Pair", "Pair", "Real"]

    def test_partner_of_partner_is_self(self):
        alpha = AlphaProfile.polynomial([1.0, -3.0]).scaled(10.0)
        spec = eigen(assemble(build_grid(100), alpha, 1))
        out = classify_pairs(spec, 1e-8)
        paired = 0
        for i, j in enumerate(out.pair_index):
            if j != -1:
                assert out.pair_index[j] == i
                assert abs(out.eigenvalues[i] - np.conj(out.eigenvalues[j])) <= 1e-8
                paired += 1
        assert paired >= 2

    def test_unpaired_complex_raises(self):
        vals = np.array([1 + 2j, 1 - 2.00001j])
        spec = Spectrum(eigenvalues=vals, eigenvectors=None, pair_index=None, pair_tol=None)
        with pytest.raises(ClassificationError):
            classify_pairs(spec, 1e-6)

    def test_bad_tolerance(self):
        spec = eigen(np.eye(2))
        with pytest.raises(ClassificationError):
            classify_pairs(spec, -1.0)


class TestJordanProbe:
    def test_synthetic_ep_chain(self):
        m = np.array([[1.0, 1.0], [-1.0, -1.0]])
        psi = np.array([1.0, -1.0]) / np.sqrt(2)
        probe = jordan_probe(m, 0.0, psi)
        assert probe.eigvec_residual <= 1e-14
        assert probe.chain_residual <= 1e-12
        # chain vector is a genuine associated vector: (M-0) chi == psi
        assert np.linalg.norm(m @ probe.chain_vector - psi) <= 1e-12

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
