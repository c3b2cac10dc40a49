import dataclasses
import tracemalloc

import numpy as np
import pytest

from dynamolab import AlphaProfile, ConfigurationError, DomainError
from dynamolab.darboux import Potential1D, darboux_partner, partner_mode
from dynamolab.grid import build_grid
from dynamolab.mre import (
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
        # cancellation in the small singular value limits accuracy; the
        # threshold use case only needs order-of-magnitude fidelity
        assert cond2_log10(m)[0] == pytest.approx(6.0, abs=1e-3)
        assert cond2_log10(np.eye(2)[None])[0] == pytest.approx(0.0, abs=1e-12)


class TestLinearSolve:
    def test_riccati_residual_contract(self):
        sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        sup, per_node = riccati_residual(sol)
        assert sup <= 1e-6
        solb = mre_linear_solve("B", PAIR, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        supb, _ = riccati_residual(solb)
        assert supb <= 1e-6

    def test_random_pairs_residual(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            pair = random_positive_pair(rng)
            for which in ("U", "B"):
                sol = mre_linear_solve(which, pair, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
                sup, _ = riccati_residual(sol)
                assert sup <= 1e-6

    def test_residual_checks_each_node(self):
        # the residual compares every node against its own nonlinear
        # integration: a perturbed affine value shows up at that node only
        sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
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
            sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=h, init=GENERIC_INIT)
            res[h], _ = riccati_residual(sol)
        assert res[2e-3] / res[1e-3] >= 12.0

    def test_series_asymptotics_b_system(self):
        # constant profile, l1 = 2: the affine coordinate must match its
        # singular-branch closed form l1/r (I - c1 sigma_minus) to 1% at r=0.01
        pair = AlphaPair(AlphaProfile.constant(1.0), AlphaProfile.constant(1.0), 1, 2, 0.0)
        sol = mre_linear_solve("B", pair, 1e-3, 0.02, step=1e-5, init="series")
        i = int(np.searchsorted(sol.rs, 0.01))
        r = sol.rs[i]
        expected = (2.0 / r) * np.array([[1.0, 0.0], [-1.0, 1.0]])
        rel = np.max(np.abs(sol.affine[i] - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-2

    def test_series_requires_b_system(self):
        with pytest.raises(ConfigurationError):
            mre_linear_solve("U", PAIR, 1e-3, 1.0, init="series")

    def test_nonpositive_step(self):
        for step in (0.0, -1e-3):
            with pytest.raises(ConfigurationError):
                mre_linear_solve("U", PAIR, 0.1, 1.0, step=step, init=GENERIC_INIT)

    def test_peak_memory_bounded_by_outputs(self):
        # the propagators are built in blocks and chained in place, so the
        # integration holds little beyond the arrays it returns
        tracemalloc.start()
        try:
            sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=1e-5, init=GENERIC_INIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fields = [getattr(sol, f.name) for f in dataclasses.fields(sol)]
        returned = sum(v.nbytes for v in fields if isinstance(v, np.ndarray))
        assert sol.rs.size == 90001
        assert peak <= 1.5 * returned

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            mre_linear_solve("U", PAIR, 1e-4, 1.0, init=GENERIC_INIT)
        with pytest.raises(DomainError):
            mre_linear_solve("U", PAIR, 0.5, 0.2, init=GENERIC_INIT)

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

    return rk4(
        rhs,
        np.stack([sol.m_nodes, sol.kinv_nodes], axis=1),
        np.stack([sol.m_mids, sol.kinv_mids], axis=1),
        np.stack([sol.top[0], sol.bot[0]]),
        sol.step,
    )


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
        sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        ref = sequential_linear_trajectory(sol)
        new = np.stack([sol.top, sol.bot], axis=1)
        assert np.max(relative_node_error(ref, new)) <= 1e-10

    def test_b_system_series_start(self):
        # the defect-witness configuration of nogo.intertwining_defect
        sol = mre_linear_solve("B", PAIR, 1e-3, 1.0, step=2e-4, init="series")
        ref = sequential_linear_trajectory(sol)
        new = np.stack([sol.top, sol.bot], axis=1)
        assert np.max(relative_node_error(ref, new)) <= 1e-10

    def test_partner_mode_both_directions(self):
        grid = build_grid(2000)
        pair = darboux_partner(Potential1D(lambda x: 3.0 * x * (1.0 - x), "bump"), grid)
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


class TestEigenfunctionEquivalence:
    def test_constant_alpha_at_eigenvalue(self):
        k1 = K_L1[0]
        pair = AlphaPair(
            AlphaProfile.constant(1.0), AlphaProfile.constant(1.0), 1, 2, -(k1**2) + k1
        )
        sol = mre_linear_solve("U", pair, 0.1, 1.0, step=1e-4, init=GENERIC_INIT)
        assert eigenfunction_equivalence(sol) <= 1e-4

    def test_second_order_in_step(self):
        res = {}
        for h in (4e-4, 2e-4):
            sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=h, init=GENERIC_INIT)
            res[h] = eigenfunction_equivalence(sol)
        assert res[4e-4] / res[2e-4] >= 3.0

    def test_corruption_detector(self):
        sol = mre_linear_solve("U", PAIR, 0.1, 1.0, step=1e-3, init=GENERIC_INIT)
        bot = sol.bot.copy()
        bot[bot.shape[0] // 2] = 0.0
        corrupted = dataclasses.replace(sol, bot=bot)
        assert eigenfunction_equivalence(corrupted) > 1e-1
