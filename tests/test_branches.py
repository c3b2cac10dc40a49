import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    BracketError,
    ConfigurationError,
    TrackingError,
    eigen,
    jordan_probe,
    pencil_coefficients,
)
from dynamolab.branches import (
    SweepConfig,
    dynamo_family,
    locate_ep,
    sweep,
)
from oracles import K_L1

ONE = AlphaProfile.constant(1.0)

# alpha*(r) = 1 - 3r exhibits a real->complex->real bubble of the third and
# fourth leading branches around C in (9.5, 10.25) at l=1, n=100; the golden
# values below were frozen from the first converged run.
EP_BASE = AlphaProfile.polynomial([1.0, -3.0])
EP_N = 100
EP_L = 1
EP_C_GOLDEN = 9.70906
EP_LAMBDA_GOLDEN = -38.669
EP2_C_GOLDEN = 10.217


def synthetic_ep_family(c):
    """Eigenvalues +/- sqrt(1 - C^2): real below C=1, conjugate pair above."""
    return np.array([[1.0, c], [-c, -1.0]])


def synthetic_sqrt_family(c):
    """Eigenvalues +/- sqrt(C): transition at C = 0."""
    return np.array([[0.0, 1.0], [c, 0.0]])


@pytest.fixture(scope="module")
def const_trace():
    cfg = SweepConfig(base=ONE, c_min=0.0, c_max=6.0, steps=13, l=1, n=100, track_count=6)
    return sweep(cfg)


@pytest.fixture(scope="module")
def dyn_family():
    return dynamo_family(EP_BASE, EP_L, EP_N)


@pytest.fixture(scope="module")
def dyn_trace(dyn_family):
    cfg = SweepConfig(
        base=EP_BASE, c_min=9.0, c_max=11.0, steps=17, l=EP_L, n=EP_N, track_count=6
    )
    return sweep(cfg, family=dyn_family)


@pytest.fixture(scope="module")
def dyn_ep(dyn_family):
    return locate_ep(dyn_family, (9.5, 9.75), 1e-6, lambda_ref=-38 + 0j)


class TestSweepConstantAlpha:
    def test_upper_branch_closed_form(self, const_trace):
        k1 = K_L1[0]
        closed = -(k1**2) + const_trace.c_values * k1
        i = int(np.argmax(const_trace.branches[:, -1].real))
        path = const_trace.branches[i]
        assert np.all(np.abs(path.imag) < 1e-8)
        assert np.max(np.abs(path.real - closed)) <= 1e-3 * k1**2

    def test_no_transition_events(self, const_trace):
        kinds = {e.kind for e in const_trace.events}
        assert "RealToComplex" not in kinds
        assert "ComplexToReal" not in kinds

    def test_zero_crossing_near_bessel_zero(self, const_trace):
        k1 = K_L1[0]
        i = int(np.argmax(const_trace.branches[:, -1].real))
        path = const_trace.branches[i].real
        idx = int(np.nonzero(path > 0)[0][0])
        c0, c1 = const_trace.c_values[idx - 1], const_trace.c_values[idx]
        y0, y1 = path[idx - 1], path[idx]
        crossing = c0 - y0 * (c1 - c0) / (y1 - y0)
        assert crossing == pytest.approx(k1, abs=0.01)

    def test_start_matches_unscaled_spectrum(self, const_trace):
        unscaled = eigen(dynamo_family(ONE, 1, 100)(0.0)).eigenvalues
        assert np.array_equal(const_trace.branches[:, 0], unscaled[: const_trace.track_count])

    def test_step_bounds_invariant(self, const_trace):
        diffs = np.abs(np.diff(const_trace.branches, axis=1))
        assert np.all(diffs.max(axis=0) <= const_trace.step_bounds)

    @pytest.mark.parametrize(
        "base",
        [AlphaProfile.polynomial([1.0, 0.0, 1.0]), AlphaProfile.exponential(1.0, 1.0)],
        ids=["quadratic", "exponential"],
    )
    def test_positive_profiles_keep_leading_branches_real(self, base):
        # artifacts can appear deep in the unresolved tail; the resolved
        # leading branches of positive profiles stay real under scaling
        cfg = SweepConfig(base=base, c_min=0.5, c_max=30.0, steps=16, l=1, n=80, track_count=12)
        trace = sweep(cfg)
        assert np.all(np.abs(trace.branches.imag) <= 1e-8)
        kinds = {e.kind for e in trace.events}
        assert "RealToComplex" not in kinds


class TestSweepSynthetic:
    def test_real_to_complex_event_brackets_unity(self):
        cfg = SweepConfig(base=ONE, c_min=0.0, c_max=2.0, steps=21, track_count=2)
        trace = sweep(cfg, family=synthetic_ep_family)
        ev = [e for e in trace.events if e.kind == "RealToComplex"]
        assert len(ev) == 1
        assert ev[0].c_lo <= 1.0 <= ev[0].c_hi
        assert ev[0].branches == (0, 1)

    def test_conjugate_pair_after_event(self):
        cfg = SweepConfig(base=ONE, c_min=0.0, c_max=2.0, steps=21, track_count=2)
        trace = sweep(cfg, family=synthetic_ep_family)
        ev = [e for e in trace.events if e.kind == "RealToComplex"][0]
        k = int(np.searchsorted(trace.c_values, ev.c_hi))
        i, j = ev.branches
        assert abs(trace.branches[i, k] - np.conj(trace.branches[j, k])) < 1e-10

    def test_crossing_event_on_contact(self):
        # the step grid hits the intersection C = 0.5 exactly; value-only
        # matching relabels colliding branches, so contact is what gets seen
        def crossing_family(c):
            return np.diag([c, 1.0 - c])

        cfg = SweepConfig(base=ONE, c_min=0.0, c_max=1.0, steps=11, track_count=2)
        trace = sweep(cfg, family=crossing_family)
        crossings = [e for e in trace.events if e.kind == "Crossing"]
        assert len(crossings) == 1
        assert crossings[0].c_lo == pytest.approx(0.4)
        assert crossings[0].c_hi == pytest.approx(0.5)

    def test_refinement_exhaustion_raises(self):
        # a discontinuous jump larger than a quarter of the branch gap can
        # never be resolved by halving the step
        def jump_family(c):
            shift = 60.0 if c >= 1.5 else 0.0
            return np.diag([100.0 + shift, 0.0 + shift, -100.0 + shift])

        cfg = SweepConfig(base=ONE, c_min=0.0, c_max=3.0, steps=4, track_count=3)
        with pytest.raises(TrackingError):
            sweep(cfg, family=jump_family)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(base=ONE, c_min=1.0, c_max=0.0, steps=5)
        with pytest.raises(ConfigurationError):
            SweepConfig(base=ONE, c_min=0.0, c_max=1.0, steps=1)


class TestLocateEP:
    def test_synthetic_unit_ep(self):
        c_star, lam_star = locate_ep(synthetic_ep_family, (0.5, 1.5), 1e-6)
        assert c_star == pytest.approx(1.0, abs=1e-6)
        assert abs(lam_star) <= 1e-6

    def test_sqrt_family_origin(self):
        c_star, lam_star = locate_ep(synthetic_sqrt_family, (-1.0, 1.0), 1e-6)
        assert c_star == pytest.approx(0.0, abs=1e-6)
        assert abs(lam_star) <= 1e-6

    def test_bracket_width_independence(self):
        c1, _ = locate_ep(synthetic_ep_family, (0.5, 1.5), 1e-8)
        c2, _ = locate_ep(synthetic_ep_family, (0.9, 1.05), 1e-8)
        assert abs(c1 - c2) <= 2e-8

    def test_no_transition_raises(self):
        with pytest.raises(BracketError):
            locate_ep(synthetic_ep_family, (0.1, 0.5), 1e-6)

    def test_jordan_chain_at_exact_synthetic_ep(self):
        m = synthetic_ep_family(1.0)
        psi = np.array([1.0, -1.0]) / np.sqrt(2)
        probe = jordan_probe(m, 0.0, psi)
        assert probe.chain_residual <= 1e-12


class TestDynamoExceptionalPoint:
    def test_sweep_records_both_transitions(self, dyn_trace):
        r2c = [e for e in dyn_trace.events if e.kind == "RealToComplex"]
        c2r = [e for e in dyn_trace.events if e.kind == "ComplexToReal"]
        assert any(e.c_lo <= EP_C_GOLDEN <= e.c_hi for e in r2c)
        assert any(e.c_lo <= EP2_C_GOLDEN <= e.c_hi for e in c2r)

    def test_bisected_ep_golden(self, dyn_ep):
        c_star, lam_star = dyn_ep
        assert c_star == pytest.approx(EP_C_GOLDEN, abs=5e-3)
        assert lam_star.real == pytest.approx(EP_LAMBDA_GOLDEN, abs=0.05)
        assert abs(lam_star.imag) < 0.05

    def test_jordan_chain_at_bisected_ep(self, dyn_family, dyn_ep):
        c_star, lam_star = dyn_ep
        m = dyn_family(c_star)
        spec = eigen(m, want_vectors=True)
        idx = int(np.argmin(np.abs(spec.eigenvalues - lam_star)))
        psi = spec.eigenvectors[:, idx]
        probe = jordan_probe(m, lam_star, psi / np.linalg.norm(psi))
        assert probe.chain_residual <= 1e-3

    def test_pencil_discriminant_vanishes_at_ep(self, dyn_family, dyn_ep):
        c_star, lam_star = dyn_ep
        m = dyn_family(c_star)
        spec = eigen(m, want_vectors=True)
        idx = int(np.argmin(np.abs(spec.eigenvalues - lam_star)))
        psi1 = spec.eigenvectors[:EP_N, idx]
        assert np.linalg.norm(psi1) > 1e-8
        coeffs = pencil_coefficients(m, psi1)
        assert abs(coeffs.discriminant) <= 1e-2 * coeffs.a1**2


# --------------------------------------------------------------------------
# local shift-invert solves against the dense path
# --------------------------------------------------------------------------


def counted_sweep(monkeypatch, cfg, family=None):
    """Run sweep with a counter on every eigen call; returns (trace, calls)."""
    import dynamolab.branches as branches

    calls = []
    original = branches.eigen

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(branches, "eigen", counting)
        trace = sweep(cfg, family=family)
    return trace, len(calls)


def dense_family(base, l, n):
    """The same matrices as plain arrays, which always take the dense path."""
    family = dynamo_family(base, l, n)
    return lambda c: family(c).matrix


def assert_columns_equal_as_sets(a, b, rel):
    assert a.shape == b.shape
    for k in range(a.shape[1]):
        x, y = a[:, k], b[:, k]
        d = np.abs(x[:, None] - y[None, :])
        tol = rel * np.max(np.abs(y))
        assert d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol, k


README_EP = SweepConfig(base=EP_BASE, c_min=9.0, c_max=11.0, steps=17, l=EP_L, n=EP_N)
THRESHOLD_60 = SweepConfig(base=ONE, c_min=0.0, c_max=6.0, steps=61, l=1, n=60)


class TestLocalSolveOracle:
    @pytest.mark.parametrize("cfg", [README_EP, THRESHOLD_60], ids=["readme-ep", "threshold-n60"])
    def test_local_path_matches_dense_path(self, monkeypatch, cfg):
        local, local_calls = counted_sweep(monkeypatch, cfg)
        dense, dense_calls = counted_sweep(monkeypatch, cfg, dense_family(cfg.base, cfg.l, cfg.n))
        assert local.events == dense.events
        assert local_calls == dense_calls
        assert_columns_equal_as_sets(local.branches, dense.branches, 1e-9)
        # only the first C is solved densely; a path that silently always
        # falls back would count every solve here
        assert local.dense_solves == 1
        assert dense.dense_solves == dense_calls

    def test_locate_ep_matches_dense_path(self, dyn_family, dyn_trace):
        # the RealToComplex bracket of the README EP sweep
        ev = next(e for e in dyn_trace.events if e.kind == "RealToComplex")
        bracket = (ev.c_lo, ev.c_hi)
        local = locate_ep(dyn_family, bracket, 1e-6, lambda_ref=-38 + 0j)
        dense = locate_ep(lambda c: dyn_family(c).matrix, bracket, 1e-6, lambda_ref=-38 + 0j)
        assert local[0] == dense[0]
        assert local[1] == pytest.approx(dense[1], rel=1e-9)

    def test_local_spectrum_covers_its_disk(self, dyn_family):
        m = dyn_family(9.7)
        near = np.array([-38.0, -20.0 + 1.0j])
        local = eigen(m, near=near)
        full = eigen(m).eigenvalues
        sigma, radius = local.disk
        inside = full[np.abs(full - sigma) < radius]
        assert local.size < full.size
        assert np.max(np.min(np.abs(inside[:, None] - local.eigenvalues[None, :]), axis=1)) <= 1e-9
        assert local.covers(near, 0.0) and not local.covers(near, radius)
        assert eigen(m).disk is None and eigen(m, want_vectors=True, near=near).disk is None


class TestLocalSolveFallback:
    def test_alpha_zero_mid_sweep(self, monkeypatch):
        # C = 0 is the eleventh grid point of 21: the decoupled operator has
        # every eigenvalue double there and must be solved densely
        cfg = SweepConfig(base=ONE, c_min=-1.0, c_max=1.0, steps=21, l=1, n=60)
        local, local_calls = counted_sweep(monkeypatch, cfg)
        dense, dense_calls = counted_sweep(monkeypatch, cfg, dense_family(ONE, 1, 60))
        assert local.dense_solves >= 2
        assert local.events == dense.events
        assert local_calls == dense_calls
        assert_columns_equal_as_sets(local.branches, dense.branches, 1e-9)

    def test_track_count_beyond_arpack(self):
        # ARPACK needs k = track_count + 4 below N - 1 = 15 at n = 8
        cfg = SweepConfig(base=ONE, c_min=0.5, c_max=1.0, steps=5, l=1, n=8, track_count=11)
        local = sweep(cfg)
        dense = sweep(cfg, family=dense_family(ONE, 1, 8))
        assert local.dense_solves == dense.dense_solves >= 5
        assert np.array_equal(local.branches, dense.branches)
        assert local.events == dense.events

    def test_arpack_failure_gives_the_dense_spectrum(self, monkeypatch, dyn_family):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        m = dyn_family(9.7)
        spec = eigen(m, near=[-38.0])
        assert spec.disk is None
        assert np.array_equal(spec.eigenvalues, eigen(m).eigenvalues)
