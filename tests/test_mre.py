import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from dynamolab import AlphaProfile, ConfigurationError, SolverError
from dynamolab import mre
from dynamolab.darboux import darboux_partner, partner_mode
from dynamolab.grid import build_grid
from dynamolab.mre import (
    SHOOTING_WINDOW,
    cond2_log10,
    eigenfunction_equivalence,
    inv2,
    kmat,
    kmat_inv,
    mmat,
    mre_linear_solve,
    riccati_residual,
    rk4,
    rk4_linear,
    series_start_bottom,
)
from dynamolab.nogo import AlphaPair
from oracles import K_L1

PAIR = AlphaPair(
    AlphaProfile.polynomial([1.0, 0.2, 0.3]),
    AlphaProfile.polynomial([1.0, 0.0, 0.5]),
    1,
    2,
    0.0,
)
# the profile, mode number and E that each system of PAIR integrates
U_FLOW = (PAIR.alpha0, PAIR.l0, PAIR.e)
B_FLOW = (PAIR.alpha1, PAIR.l1, PAIR.e)
GENERIC_INIT = (
    np.array([[0.3 + 0.1j, -0.2], [0.1, 0.4]], dtype=complex),
    np.eye(2, dtype=complex),
)


def random_positive_pair(rng):
    def coeffs():
        return [1.0, float(rng.uniform(-0.3, 0.5)), float(rng.uniform(-0.3, 0.5))]

    return AlphaPair(
        AlphaProfile.polynomial(coeffs()),
        AlphaProfile.polynomial(coeffs()),
        1,
        2,
        float(rng.uniform(-1.0, 1.0)),
    )


class TestBlocks:
    def test_k_inverse_exact(self):
        a = np.array([0.3, 1.7, -2.0])
        prod = kmat(a) @ kmat_inv(a)
        assert np.array_equal(prod, np.tile(np.eye(2), (3, 1, 1)))

    def test_m_entries(self):
        m = mmat(np.array([2.0]), 2, 0.5, np.array([0.5]))[0]
        cent = 6.0 / 0.25
        assert m[0, 0] == cent + 0.5
        assert m[0, 1] == -2.0
        assert m[1, 0] == -2.0 * cent
        assert m[1, 1] == cent + 0.5

    def test_inv2_matches_numpy(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        assert np.allclose(inv2(m), np.linalg.inv(m))

    def test_cond_log(self):
        m = np.array([[[1.0, 0.0], [0.0, 1e-6]]])
        assert cond2_log10(m)[0] == pytest.approx(6.0, abs=1e-12)
        assert cond2_log10(np.eye(2)[None])[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cond, tol", [(1e8, 1e-6), (1e9, 1e-6), (1e12, 1e-3)])
    def test_cond_log_ill_conditioned_against_numpy(self, cond, tol):
        # [[1, 1], [1, 1 + d]] has the exact determinant d; numpy's SVD loses
        # about cond * eps in the small singular value, hence the tolerance
        d = 4.0 / cond
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        blocks = np.stack([np.array([[1.0, 1.0], [1.0, 1.0 + d]]), q @ np.diag([1.0, 1.0 / cond])])
        got = cond2_log10(blocks)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(np.log10(np.linalg.cond(blocks)), abs=tol)

    def test_cond_log_scale_invariant(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0]]) * 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cond2_log10(np.stack([m, m * 1e-160, np.zeros((2, 2))]))
        assert got[0] == pytest.approx(np.log10(np.linalg.cond(m)), abs=1e-14)
        assert got[1] == pytest.approx(got[0], abs=1e-14)
        assert got[2] == np.inf


class TestLinearSolve:
    def test_riccati_residual_contract(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        sup, per_node = riccati_residual(sol)
        assert sup <= 1e-6
        solb = mre_linear_solve("B", *B_FLOW, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        supb, _ = riccati_residual(solb)
        assert supb <= 1e-6

    def test_random_pairs_residual(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            pair = random_positive_pair(rng)
            for which, alpha, l in (("U", pair.alpha0, pair.l0), ("B", pair.alpha1, pair.l1)):
                sol = mre_linear_solve(which, alpha, l, pair.e, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
                sup, _ = riccati_residual(sol)
                assert sup <= 1e-6

    def test_residual_checks_each_node(self):
        # the residual compares every node against its own nonlinear
        # integration: a perturbed affine value shows up at that node only
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
        _, base = riccati_residual(sol)
        k = sol.rs.size // 2
        affine = sol.affine.copy()
        affine[k] *= 1.0 + 1e-6
        _, per_node = riccati_residual(dataclasses.replace(sol, affine=affine))
        assert per_node[k] >= 5e-7 * np.max(np.abs(sol.affine[k]))
        others = np.arange(sol.rs.size) != k
        assert np.array_equal(per_node[others], base[others])

    def test_fourth_order_convergence(self):
        res = {}
        for h in (2e-3, 1e-3):
            sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=h, init=GENERIC_INIT)
            res[h], _ = riccati_residual(sol)
        assert res[2e-3] / res[1e-3] >= 12.0

    def test_series_asymptotics_b_system(self):
        # constant profile, l1 = 2: the affine coordinate must match its
        # singular-branch closed form l1/r (I - c1 sigma_minus) to 1% at r=0.01
        sol = mre_linear_solve("B", AlphaProfile.constant(1.0), 2, 0.0, 1e-3, 0.02, step=1e-5, init="series")
        i = int(np.searchsorted(sol.rs, 0.01))
        r = sol.rs[i]
        expected = (2.0 / r) * np.array([[1.0, 0.0], [-1.0, 1.0]])
        rel = np.max(np.abs(sol.affine[i] - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-2

    def test_series_requires_b_system(self):
        with pytest.raises(ConfigurationError):
            mre_linear_solve("U", *U_FLOW, 1e-3, 1.0, init="series")

    def test_unknown_system_or_init(self):
        with pytest.raises(ConfigurationError, match="unknown system"):
            mre_linear_solve("X", *U_FLOW, 0.1, 1.0, init=GENERIC_INIT)
        with pytest.raises(ConfigurationError, match="unknown init"):
            mre_linear_solve("B", *B_FLOW, 0.1, 1.0, init="taylor")
        with pytest.raises(ConfigurationError, match="2x2"):
            mre_linear_solve("U", *U_FLOW, 0.1, 1.0, init=(np.eye(3), np.eye(3)))
        with pytest.raises(ConfigurationError, match="finite"):
            mre_linear_solve("U", *U_FLOW, 0.1, 1.0, init=(np.full((2, 2), np.nan), np.eye(2)))
        # the flow keeps the rank of the stacked start: no node would get an affine value
        zero, rank_one = np.zeros((2, 2)), np.array([[1.0, 2.0], [0.0, 0.0]])
        for init in [(zero, zero), (rank_one, 0.5 * rank_one)]:
            with pytest.raises(ConfigurationError, match="rank 2"):
                mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-2, init=init)

    def test_nonpositive_step(self):
        for step in (0.0, -1e-3):
            with pytest.raises(ConfigurationError):
                mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=step, init=GENERIC_INIT)

    def test_peak_memory_bounded_by_outputs(self):
        # the propagators are built in blocks and chained in place, so the
        # integration holds little beyond the arrays it returns
        tracemalloc.start()
        try:
            sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-5, init=GENERIC_INIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fields = [getattr(sol, f.name) for f in dataclasses.fields(sol)]
        returned = sum(v.nbytes for v in fields if isinstance(v, np.ndarray))
        assert sol.rs.size == 90001
        assert peak <= 1.5 * returned

    def test_bad_interval(self):
        with pytest.raises(ConfigurationError, match="r_start must be >= 1e-3"):
            mre_linear_solve("U", *U_FLOW, 1e-4, 1.0, init=GENERIC_INIT)
        with pytest.raises(ConfigurationError, match="need r_start < r_end"):
            mre_linear_solve("U", *U_FLOW, 0.5, 0.2, init=GENERIC_INIT)

    def test_mode_number_and_e_checked(self):
        # the series start divides by 2 - 4l, and no AlphaPair checks them first
        with pytest.raises(ConfigurationError, match="l >= 1"):
            mre_linear_solve("U", PAIR.alpha0, 0, 0.0, 0.1, 1.0, init=GENERIC_INIT)
        for e in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                mre_linear_solve("B", PAIR.alpha1, 2, e, 1e-3, 1.0, init="series")

    def test_series_start_leading_structure(self):
        r0 = 1e-3
        x0, y0 = series_start_bottom(2, 1.0, 0.0, r0)
        assert x0.shape == (2, 2) and y0.shape == (2, 2)
        # affine coordinate at the start matches l1/r0 (I - c1 sigma_minus)
        b0 = x0 @ np.linalg.inv(y0)
        expected = (2.0 / r0) * np.array([[1.0, 0.0], [-1.0, 1.0]])
        assert np.max(np.abs(b0 - expected)) <= 1e-2 * np.max(np.abs(expected))


def sequential_linear_trajectory(sol):
    """The linear flow of sol re-integrated step by step with rk4 (the reference)."""
    sign = sol.sign

    def rhs(c, y):
        return sign * np.stack([c[0] @ y[1], c[1] @ y[0]])

    return rk4(rhs, sol.coef_nodes, sol.coef_mids, np.stack([sol.top[0], sol.bot[0]]), sol.step)


def sequential_partner_mode(pair):
    """partner_mode's two half-domain integrations, step by step with rk4."""
    x = pair.grid.nodes
    idx0 = int(np.argmin(np.abs(x - 0.5)))
    chi_c = float(pair.chi0[idx0])
    y0 = np.array([1.0 / chi_c, float(pair.f(x[idx0])) / chi_c])
    w_nodes = pair.v1(x) - pair.energy
    w_mids = pair.v1(pair.grid.half_nodes[1:-1]) - pair.energy

    def rhs(w, state):
        return np.array([state[1], w * state[0]])

    right = rk4(rhs, w_nodes[idx0:], w_mids[idx0:], y0, pair.grid.h)
    left = rk4(rhs, w_nodes[idx0::-1], w_mids[:idx0][::-1], y0, -pair.grid.h)[::-1]
    return np.concatenate([left[:-1], right])


def relative_node_error(ref, new):
    axes = tuple(range(1, ref.ndim))
    return np.max(np.abs(new - ref), axis=axes) / np.max(np.abs(ref), axis=axes)


class TestPropagatorEquivalence:
    """The propagator driver reproduces the sequential RK4 to rounding."""

    def test_u_system_generic_start(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        ref = sequential_linear_trajectory(sol)
        new = np.stack([sol.top, sol.bot], axis=1)
        assert np.max(relative_node_error(ref, new)) <= 1e-10

    def test_b_system_series_start(self):
        # the defect-witness configuration of nogo.intertwining_defect
        sol = mre_linear_solve("B", *B_FLOW, 1e-3, 1.0, step=2e-4, init="series")
        ref = sequential_linear_trajectory(sol)
        new = np.stack([sol.top, sol.bot], axis=1)
        assert np.max(relative_node_error(ref, new)) <= 1e-10

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_u_system_sign_changing_profile(self, scale):
        # poly:1,-3 changes sign at r = 1/3, so no AlphaPair can hold it
        alpha = AlphaProfile.polynomial([1.0, -3.0]).scaled(scale)
        sol = mre_linear_solve("U", alpha, 1, 0.0, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        assert sol.warnings == []
        ref = sequential_linear_trajectory(sol)
        new = np.stack([sol.top, sol.bot], axis=1)
        assert np.max(relative_node_error(ref, new)) <= 1e-10

    def test_partner_mode_both_directions(self):
        grid = build_grid(2000)
        pair = darboux_partner(lambda x: 3.0 * x * (1.0 - x), grid)
        ref = sequential_partner_mode(pair)
        chi1 = partner_mode(pair)
        err = np.abs(chi1 - ref[:, 0]) / np.max(np.abs(ref), axis=1)
        center = int(np.argmin(np.abs(grid.nodes - 0.5)))
        assert 0 < center < grid.n - 1
        assert np.max(err[:center]) <= 1e-10 and np.max(err[center:]) <= 1e-10

    def test_fourth_order_on_linear_scalar_flow(self):
        # y' = (t - 3) y on [0, 1], y(0) = 1: y(1) = exp(-2.5)
        def final_errors(n):
            t = np.linspace(0.0, 1.0, n + 1)
            lam_nodes = (t - 3.0)[:, None, None]
            lam_mids = (t[:-1] + 0.5 / n - 3.0)[:, None, None]
            y0 = np.array([1.0])
            return [
                abs(drive(np.matmul, lam_nodes, lam_mids, y0, 1.0 / n)[-1, 0] - np.exp(-2.5))
                for drive in (rk4, rk4_linear)
            ]

        coarse, fine = final_errors(10), final_errors(20)
        for c, f in zip(coarse, fine):
            assert c / f >= 12.0


def sequential_residual(sol, r_min=None):
    """Per-node Riccati residual with rk4 stepping each whole segment as a batch of 1."""
    ok = np.isfinite(sol.affine[:, 0, 0])
    if r_min is not None:
        ok = ok & (sol.rs >= r_min)
    sign = sol.sign

    def rhs(c, u):
        return sign * (c[:, 0] - u @ c[:, 1] @ u)

    coef_nodes = sol.coef_nodes[:, None]
    coef_mids = sol.coef_mids[:, None]
    per_node = np.full(sol.rs.size, np.nan)
    idx = np.flatnonzero(ok)
    for seg in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
        i, j = seg[0], seg[-1]
        traj = rk4(rhs, coef_nodes[i : j + 1], coef_mids[i:j], sol.affine[i][None], sol.step)
        per_node[i : j + 1] = np.max(np.abs(traj[:, 0] - sol.affine[i : j + 1]), axis=(1, 2))
    return per_node


def segment_count(per_node):
    ok = np.isfinite(per_node)
    return int(ok[0]) + int(np.sum(ok[1:] & ~ok[:-1]))


def count_rk4_steps(monkeypatch):
    """Record the number of steps of every mre.rk4 call."""
    steps = []

    def counted(rhs, coef_nodes, coef_mids, y0, h):
        steps.append(len(coef_mids))
        return rk4(rhs, coef_nodes, coef_mids, y0, h)

    monkeypatch.setattr(mre, "rk4", counted)
    return steps


class TestShootingEquivalence:
    """Multiple shooting reproduces the sequential nonlinear RK4 to rounding."""

    def assert_matches_sequential(self, sol, r_min=None):
        ref = sequential_residual(sol, r_min)
        sup, per_node = riccati_residual(sol, r_min)
        assert np.array_equal(np.isnan(per_node), np.isnan(ref))
        kept = np.isfinite(ref)
        scale = np.max(np.abs(sol.affine[kept]), axis=(1, 2))
        assert np.all(np.abs(per_node[kept] - ref[kept]) <= 1e-13 * scale)
        assert sup == np.max(per_node[kept])
        return ref

    @pytest.mark.parametrize(
        "which, r_start, init, r_min",
        [
            ("U", 0.1, GENERIC_INIT, None),
            ("B", 0.1, GENERIC_INIT, None),
            ("B", 1e-3, "series", 0.1),
        ],
        ids=["U-generic", "B-generic", "B-series"],
    )
    def test_benchmark_configurations(self, which, r_start, init, r_min):
        flow = U_FLOW if which == "U" else B_FLOW
        sol = mre_linear_solve(which, *flow, r_start, 1.0, step=1e-4, init=init)
        ref = self.assert_matches_sequential(sol, r_min)
        assert segment_count(ref) == 1

    def test_segment_shorter_than_window(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.5, 0.505, step=1e-3, init=GENERIC_INIT)
        assert sol.rs.size - 1 < SHOOTING_WINDOW
        self.assert_matches_sequential(sol)

    def test_no_checked_node_gives_nan(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.5, 0.505, step=1e-3, init=GENERIC_INIT)
        sup, per_node = riccati_residual(sol, r_min=2.0)
        assert np.isnan(sup)
        assert np.isnan(per_node).all()

    def test_unconverged_shooting_raises(self, monkeypatch):
        # a negative tolerance is never met, and one short window caps the passes at 2
        monkeypatch.setattr(mre, "SHOOTING_RTOL", -1.0)
        sol = mre_linear_solve("U", *U_FLOW, 0.5, 0.505, step=1e-3, init=GENERIC_INIT)
        with pytest.raises(SolverError, match="unconverged after 2 passes"):
            riccati_residual(sol)

    def test_ill_conditioned_nodes_split_segments(self, monkeypatch):
        # E = -300 makes the real series trajectory oscillate; a condition
        # bound of 1e2 cuts it into segments of varying length
        monkeypatch.setattr(mre, "COND_LOG_MAX", 2.0)
        sol = mre_linear_solve("B", PAIR.alpha1, PAIR.l1, -300.0, 1e-3, 1.0, step=1e-4, init="series")
        ref = self.assert_matches_sequential(sol, r_min=0.1)
        assert segment_count(ref) >= 3

    def test_poor_starting_guess(self, monkeypatch):
        # window starts come from top @ inv2(bot); perturbing those by 1e-3
        # (affine unchanged) costs passes, not accuracy
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        rng = np.random.default_rng(11)
        noisy = dataclasses.replace(
            sol,
            top=sol.top * (1.0 + 1e-3 * rng.standard_normal(sol.top.shape)),
            bot=sol.bot * (1.0 + 1e-3 * rng.standard_normal(sol.bot.shape)),
        )
        steps = count_rk4_steps(monkeypatch)
        self.assert_matches_sequential(noisy)
        assert len(steps) > 2

    def test_window_start_checks_its_own_node(self):
        # windows start from the linear trajectory, not from affine: a
        # perturbed affine value at a window start shows at that node only
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
        _, base = riccati_residual(sol)
        k = 3 * SHOOTING_WINDOW
        affine = sol.affine.copy()
        affine[k] *= 1.0 + 1e-6
        _, per_node = riccati_residual(dataclasses.replace(sol, affine=affine))
        assert per_node[k] >= 5e-7 * np.max(np.abs(sol.affine[k]))
        others = np.arange(sol.rs.size) != k
        assert np.array_equal(per_node[others], base[others])

    def test_calls_stay_batched(self, monkeypatch):
        # the README U configuration: a handful of window-long rk4 calls, never
        # one long sequential integration
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        steps = count_rk4_steps(monkeypatch)
        riccati_residual(sol)
        assert 1 <= len(steps) <= 3
        assert max(steps) <= SHOOTING_WINDOW <= 16

    def test_non_finite_integration_raises(self):
        # alpha0 = 100 at l0 = 10: the explicit nonlinear RK4 overflows on
        # nodes the condition bound keeps, which must not be dropped silently
        alpha0 = AlphaProfile.constant(100.0)
        sol = mre_linear_solve("U", alpha0, 10, 0.0, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
        assert sol.warnings
        with pytest.raises(SolverError):
            riccati_residual(sol)


def mul2_riccati_rhs(c, y, sign):
    """The Riccati right-hand side on (windows, columns, 2, 2) blocks, through mul2."""
    m, kinv = c[:, None, 0], c[:, None, 1]
    u = y[:, :1]
    uk = mre.mul2(u, kinv)
    f = sign * (m - mre.mul2(uk, u))
    if y.shape[1] == 1:
        return f
    du = y[:, 1:]
    df = -sign * (mre.mul2(du, mre.mul2(kinv, u)) + mre.mul2(uk, du))
    return np.concatenate([f, df], axis=1)


class TestExactKernels:
    """The loop kernels round exactly as the plain formulas they replace."""

    @pytest.mark.parametrize("columns", [1, 5])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_riccati_rhs_entry_major_equals_mul2(self, columns, sign):
        rng = np.random.default_rng(columns)
        windows = 37
        m = rng.standard_normal((windows, 2, 2))
        kinv = kmat_inv(rng.standard_normal(windows))
        y = rng.standard_normal((windows, columns, 2, 2)) + 1j * rng.standard_normal(
            (windows, columns, 2, 2)
        )
        ref = mul2_riccati_rhs(np.stack([m, kinv], axis=1), y, sign)
        c = np.moveaxis(np.stack([m, kinv]), 1, -1)[..., None]
        got = mre._riccati_rhs(c, np.moveaxis(y, (0, 1), (-2, -1)), sign)
        assert got.shape == (2, 2, windows, columns)
        assert np.array_equal(got, np.moveaxis(ref, (0, 1), (-2, -1)))

    @pytest.mark.parametrize("y0", [np.array([1.0, -0.5]), np.concatenate(GENERIC_INIT)], ids=["real", "complex"])
    def test_rk4_linear_equals_matmul_chain(self, y0):
        # more steps than one propagator block, complex states as re/im columns
        rng = np.random.default_rng(5)
        d, steps, h = len(y0), mre.PROPAGATOR_BLOCK + 90, 1e-2
        nodes = rng.standard_normal((steps + 1, d, d))
        mids = rng.standard_normal((steps, d, d))
        props = mre._rk4_step(np.matmul, nodes[:-1], mids, nodes[1:], np.eye(d), h)
        ys = rk4_linear(np.matmul, nodes, mids, y0, h)
        cols = ys.reshape(steps + 1, d, -1).view(np.float64)
        ref = [cols[0]]
        for p in props:
            ref.append(np.matmul(p, ref[-1]))
        assert np.array_equal(cols, np.stack(ref))


class TestEigenfunctionEquivalence:
    def test_constant_alpha_at_eigenvalue(self):
        k1 = K_L1[0]
        e = -(k1**2) + k1
        sol = mre_linear_solve("U", AlphaProfile.constant(1.0), 1, e, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        assert eigenfunction_equivalence(sol) <= 1e-4

    def test_second_order_in_step(self):
        res = {}
        for h in (4e-4, 2e-4):
            sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=h, init=GENERIC_INIT)
            res[h] = eigenfunction_equivalence(sol)
        assert res[4e-4] / res[2e-4] >= 3.0

    def test_corruption_detector(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
        bot = sol.bot.copy()
        bot[bot.shape[0] // 2] = 0.0
        corrupted = dataclasses.replace(sol, bot=bot)
        assert eigenfunction_equivalence(corrupted) > 1e-1

    def test_two_node_trajectory_rejected(self):
        sol = mre_linear_solve("U", *U_FLOW, 0.5, 0.501, step=1e-3, init=GENERIC_INIT)
        assert sol.rs.size == 2
        with pytest.raises(ConfigurationError, match="too short"):
            eigenfunction_equivalence(sol)
