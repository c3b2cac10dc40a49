import numpy as np
import pytest

from dynamolab import (
    AlphaProfile,
    BracketError,
    ConfigurationError,
    DomainError,
    TrackingError,
    assemble,
    build_grid,
    eigen,
    jordan_probe,
    pencil_coefficients,
)
from dynamolab.branches import (
    BranchEvent,
    SweepConfig,
    _greedy_assign,
    _interval_events,
    _transition_pairs,
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

    def test_no_event_when_the_conjugate_partner_is_not_tracked(self):
        # only the upper branch is tracked; it turns complex at C = 1 while its
        # conjugate partner, the lower branch, is not followed
        cfg = SweepConfig(base=ONE, c_min=0.0, c_max=2.0, steps=21, track_count=1)
        trace = sweep(cfg, family=synthetic_ep_family)
        assert abs(trace.branches[0, -1].imag) > 1.0
        assert trace.events == []

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
        with pytest.raises(ConfigurationError, match="finite"):
            SweepConfig(base=ONE, c_min=0.0, c_max=np.inf, steps=5)
        with pytest.raises(ConfigurationError, match="track_count"):
            SweepConfig(base=ONE, c_min=0.0, c_max=1.0, steps=5, track_count=0)


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

    def test_bad_bracket_or_tolerance_rejected(self):
        with pytest.raises(BracketError, match="increasing"):
            locate_ep(synthetic_ep_family, (1.5, 0.5), 1e-6)
        for tol_c in (0.0, -1e-6, float("nan")):
            with pytest.raises(BracketError, match="tol_c"):
                locate_ep(synthetic_ep_family, (0.5, 1.5), tol_c)

    @pytest.mark.parametrize("lambda_ref", [complex(np.nan), complex(-38.0, np.inf)], ids=["nan", "inf-imag"])
    def test_non_finite_lambda_ref_rejected_before_any_solve(self, lambda_ref):
        # a NaN reference made LAPACK print "illegal value", then a misleading bracket error came
        built = []

        def family(c):
            built.append(c)
            return synthetic_ep_family(c)

        with pytest.raises(DomainError, match="lambda_ref"):
            locate_ep(family, (0.5, 1.5), 1e-6, lambda_ref=lambda_ref)
        assert built == []

    def test_closest_pair_among_three_eigenvalues(self):
        # a third eigenvalue at 5 leads the spectrum: the colliding pair is the
        # closest mutual pair, not the two leading values
        def family(c):
            m = np.zeros((3, 3))
            m[:2, :2] = synthetic_ep_family(c)
            m[2, 2] = 5.0
            return m

        c_star, lam_star = locate_ep(family, (0.5, 1.5), 1e-6)
        assert c_star == pytest.approx(1.0, abs=1e-6)
        assert abs(lam_star) <= 1e-6

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

    def test_locate_ep_falls_back_to_the_dense_spectrum(self, monkeypatch, dyn_family):
        # a local solve that does not cover the pair sends every C to the dense path
        from dynamolab.spectral import Spectrum

        dense = locate_ep(lambda c: dyn_family(c).matrix, (9.5, 9.75), 1e-4, lambda_ref=-38 + 0j)
        refused = []

        def never(self, points, reach):
            refused.append(reach)
            return False

        monkeypatch.setattr(Spectrum, "covers", never)
        forced = locate_ep(dyn_family, (9.5, 9.75), 1e-4, lambda_ref=-38 + 0j)
        assert refused
        assert forced == dense

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


class TestFamilyFromSamples:
    @pytest.mark.parametrize(
        "base, l, n",
        [
            (ONE, 1, 16),
            (AlphaProfile.polynomial([1.0, -3.0, 0.5]), 2, 40),
            (AlphaProfile.exponential(1.3, -0.7), 5, 61),
        ],
        ids=["const", "poly", "exp"],
    )
    def test_equals_assembly_of_the_scaled_profile(self, base, l, n):
        family = dynamo_family(base, l, n)
        grid = build_grid(n)
        for c in (0.0, 0.37, 1.0, -2.5, 1e3):
            got = family(c)
            want = assemble(grid, base.scaled(c), l)
            for a, b in (
                (got.lap.diag, want.lap.diag),
                (got.lap.off, want.lap.off),
                (got.q_alpha.diag, want.q_alpha.diag),
                (got.q_alpha.off, want.q_alpha.off),
                (got.alpha_nodes, want.alpha_nodes),
            ):
                assert np.array_equal(a, b), c
            assert not got.alpha_nodes.flags.writeable

    def test_every_c_checks_finiteness(self):
        family = dynamo_family(ONE, 1, 16)
        family(1e300)
        for c in (1e308, -1e308, np.inf, np.nan):
            with pytest.raises(DomainError, match="not finite"):
                family(c)
        family(2.0)  # the shared samples are untouched


def reference_greedy_assign(prev, vals):
    """The global greedy match by repeated argmin over the masked distances."""
    t = prev.shape[0]
    dist = np.abs(prev[:, None] - vals[None, :])
    assigned = np.full(t, -1, dtype=int)
    used = np.zeros(vals.shape[0], dtype=bool)
    for _ in range(t):
        masked = dist.copy()
        masked[assigned != -1, :] = np.inf
        masked[:, used] = np.inf
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        assigned[i] = j
        used[j] = True
    matched = vals[assigned]
    return matched, np.abs(matched - prev)


class TestGreedyAssign:
    def test_matches_the_argmin_loop_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            t = int(rng.integers(1, 8))
            m = int(rng.integers(t, 20))
            prev = rng.standard_normal(t) + 1j * rng.standard_normal(t) * rng.integers(0, 2)
            vals = rng.standard_normal(m) + 1j * rng.standard_normal(m) * rng.integers(0, 2)
            for got, want in zip(_greedy_assign(prev, vals), reference_greedy_assign(prev, vals)):
                assert np.array_equal(got, want)

    def test_matches_the_argmin_loop_on_exact_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            t = int(rng.integers(1, 7))
            m = int(rng.integers(t, 12))
            # small integers: many distances are exactly equal
            prev = rng.integers(-3, 4, t) + 1j * rng.integers(-1, 2, t)
            vals = rng.integers(-3, 4, m) + 1j * rng.integers(-1, 2, m)
            for got, want in zip(_greedy_assign(prev, vals), reference_greedy_assign(prev, vals)):
                assert np.array_equal(got, want)

    def test_ties_go_to_the_lower_branch_then_the_lower_value_index(self):
        matched, movement = _greedy_assign(np.array([-1.0, 1.0 + 0j]), np.array([0.0, 10.0 + 0j]))
        assert np.array_equal(matched, [0.0, 10.0]) and np.array_equal(movement, [1.0, 9.0])
        matched, _ = _greedy_assign(np.array([0.0 + 0j]), np.array([1.0, -1.0 + 0j]))
        assert matched[0] == 1.0


def reference_transition_pairs(prev, matched, pair_tol):
    """Pairs (i < j) flipping band together and conjugate on branch i's complex side."""
    in_band_a = np.abs(prev.imag) <= pair_tol
    in_band_b = np.abs(matched.imag) <= pair_tol
    scale = 1.0 + np.max(np.abs(matched))
    pairs = set()
    for i in range(prev.shape[0]):
        for j in range(i + 1, prev.shape[0]):
            if in_band_a[i] != in_band_b[i] and in_band_a[j] != in_band_b[j]:
                side = matched if not in_band_b[i] else prev
                if abs(side[i] - np.conj(side[j])) <= 1e-6 * scale:
                    pairs.add((i, j))
    return pairs


def test_transition_pairs_match_the_pairwise_loop():
    rng = np.random.default_rng(13)
    found = 0
    for _ in range(3000):
        t = int(rng.integers(1, 8))
        # exact and near-conjugate values, in and out of the real band
        re = rng.integers(-3, 3, t).astype(float)
        prev = re + 1j * rng.choice([0.0, 1.0, -1.0, 1e-9], t) * rng.choice([1, 1 + 1e-7, 1 + 1e-5], t)
        im = rng.choice([0.0, 1.0, -1.0, 1e-9], t) * rng.choice([1, 1 + 1e-7, 1 + 3e-6], t)
        matched = re + rng.choice([0, 1e-7, 1e-3], t) + 1j * im
        mask = _transition_pairs(prev, matched)
        want = reference_transition_pairs(prev, matched, 1e-8)
        assert set(zip(*np.nonzero(np.triu(mask, 1)))) == want
        assert np.array_equal(mask, mask.T) and not mask.diagonal().any()
        found += len(want)
    assert found > 100


def reference_collect_events(cs, branches, pair_tol):
    """Reference events by a pairing loop: each flipping branch, lowest index
    first, pairs with its closest same-way flipping partner when that is close."""
    events = []
    t, steps = branches.shape
    for k in range(steps - 1):
        a = branches[:, k]
        b = branches[:, k + 1]
        in_a = np.abs(a.imag) <= pair_tol
        in_b = np.abs(b.imag) <= pair_tol
        seen = set()
        scale = 1.0 + np.max(np.abs(b))
        for i in range(t):
            if i in seen or in_a[i] == in_b[i]:
                continue
            side = b if not in_b[i] else a
            partners = [
                j
                for j in range(t)
                if j != i and j not in seen and in_a[j] != in_b[j] and in_a[j] == in_a[i]
            ]
            if not partners:
                continue
            j = min(partners, key=lambda j: abs(side[i] - np.conj(side[j])))
            if abs(side[i] - np.conj(side[j])) > 1e-6 * scale:
                continue
            kind = "RealToComplex" if in_a[i] else "ComplexToReal"
            events.append(BranchEvent(float(cs[k]), float(cs[k + 1]), (min(i, j), max(i, j)), kind))
            seen.update((i, j))
        contact_tol = 1e-8 * scale
        for i in range(t):
            for j in range(i + 1, t):
                if (i, j) in seen or i in seen or j in seen:
                    continue
                if in_a[i] and in_a[j] and in_b[i] and in_b[j]:
                    da = a[i].real - a[j].real
                    db = b[i].real - b[j].real
                    exchanged = da * db < 0
                    entering_contact = abs(db) <= contact_tol < abs(da)
                    if exchanged or entering_contact:
                        events.append(
                            BranchEvent(float(cs[k]), float(cs[k + 1]), (i, j), "Crossing")
                        )
    return events


def random_interval(rng):
    """End values of one interval, in blocks at least 3 apart.

    Only a "pair" block holds two branches that flip the same way close to
    conjugate, so every flipping branch has at most one close partner; a
    "triple" block gives one branch two exact partners, a tie both rules
    break by the lower index.
    """
    a, b = [], []
    x = 0.0
    for _ in range(int(rng.integers(1, 5))):
        x += float(rng.integers(3, 6))
        kind = rng.choice(["pair", "triple", "lone", "real", "swap", "complex"])
        y = float(rng.choice([1.0, 0.5, -0.5]))
        if kind == "pair":  # two real branches and a conjugate pair, either way
            noise = float(rng.choice([0.0, 1e-9, 1e-3]))
            real, cplx = [x - 0.1, x + 0.1], [x + 1j * y, x - 1j * y + noise]
        elif kind == "triple":
            real, cplx = [x - 0.1, x, x + 0.1], [x + 1j * y, x - 1j * y, x - 1j * y]
        elif kind == "lone":  # the partner of a flipping branch is not tracked
            real, cplx = [x], [x + 1j * y]
        elif kind == "real":  # two real branches, exchanging order or meeting
            da, db = rng.choice([-0.2, 0.0, 0.2]), rng.choice([-0.2, 0.0, 0.2, 1e-12])
            a += [x, x + da]
            b += [x + 0.01, x + 0.01 + db]
            continue
        elif kind == "swap":  # close, but one turns complex as the other turns real
            a += [x, x + 1e-7j]
            b += [x + 1e-7j, x]
            continue
        else:
            real, cplx = [x + 1j * y], [x + 1j * y + 0.01]
        if rng.random() < 0.5:
            real, cplx = cplx, real
        a += real
        b += cplx
    perm = rng.permutation(len(a))
    return np.array(a, dtype=complex)[perm], np.array(b, dtype=complex)[perm]


def test_interval_events_match_the_pairing_loop():
    rng = np.random.default_rng(14)
    kinds = dict.fromkeys(["RealToComplex", "ComplexToReal", "Crossing"], 0)
    for _ in range(2000):
        a, b = random_interval(rng)
        got = _interval_events(0.0, 1.0, a, b)
        assert got == reference_collect_events(np.array([0.0, 1.0]), np.stack([a, b], axis=1), 1e-8)
        for e in got:
            kinds[e.kind] += 1
    assert min(kinds.values()) > 100
