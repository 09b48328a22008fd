import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import random_stable_siso
from rssd.errors import UnstableLoop
from rssd.lti import FrequencyGrid, StateSpacePlant, eval_response
from rssd.margins import (
    LINF_TOL,
    closed_loop,
    disk_margin,
    gsm,
    linf_norm,
    sensitivity_curves,
    uncertainty_bounds,
)
from rssd.sweep import grid_peak


class TestSweep:
    def test_grid_peak_finds_interior_resonance(self):
        grid = FrequencyGrid.default()

        def fun(omegas):
            w = np.asarray(omegas)
            return 1.0 / np.abs(1.0 - w ** 2 + 0.2j * w)

        val, w = grid_peak(fun, grid)
        zeta = 0.1
        analytic = 1.0 / (2 * zeta * np.sqrt(1 - zeta ** 2))
        assert val == pytest.approx(analytic, rel=1e-4)

    def test_grid_peak_refines_in_few_batched_rounds(self):
        # one candidate near w = 100: every round samples its bracket in a
        # single call (one-point golden-section steps took about 14 calls)
        grid = FrequencyGrid.default()
        sizes = []

        def fun(omegas):
            sizes.append(np.size(omegas))
            return -(np.log10(omegas) - 2.003) ** 2

        val, w = grid_peak(fun, grid)
        assert len(sizes) <= 8
        assert sizes[0] == grid.points.size
        assert val >= fun(grid.points).max()
        assert np.log10(w) == pytest.approx(2.003, abs=1e-5)


class TestLinfNorm:
    def test_first_order_lag_peak_at_dc(self):
        norm, omega = linf_norm(StateSpacePlant.siso(-1.0, 1.0))
        assert norm == pytest.approx(1.0, rel=1e-6)
        assert omega == pytest.approx(0.0, abs=1e-3)

    def test_resonance_within_engine_tolerance(self):
        # 1/(s^2 + 0.2 s + 1): analytic peak 5.0252 near w = 0.99
        A = np.array([[0.0, 1.0], [-1.0, -0.2]])
        sys = StateSpacePlant(A, np.array([[0.0], [1.0]]),
                              np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        norm, omega = linf_norm(sys)
        assert norm == pytest.approx(5.02519, rel=1e-4)
        assert omega == pytest.approx(np.sqrt(1 - 2 * 0.01), rel=1e-3)

    def test_axis_pole_infinite(self):
        norm, omega = linf_norm(StateSpacePlant.siso(0.0, 1.0))
        assert np.isinf(norm)
        assert omega == 0.0

    def test_feedthrough_limit(self):
        # (s + 10)/(s + 1): high-frequency gain 1 < DC gain 10
        sys = StateSpacePlant(np.array([[-1.0]]), np.array([[1.0]]),
                              np.array([[9.0]]), np.array([[1.0]]))
        norm, _ = linf_norm(sys)
        assert norm == pytest.approx(10.0, rel=1e-6)


class TestClosedLoop:
    def test_integrator_gsm(self):
        p = StateSpacePlant.siso(0.0, 1.0)
        assert gsm(closed_loop(p, np.array([[-1.0]]))) == pytest.approx(
            1 / np.sqrt(2), abs=1e-4)

    def test_unstable_loop_zero_margin(self):
        p = StateSpacePlant.siso(1.0, 1.0)
        assert gsm(closed_loop(p, np.array([[0.0]]))) == 0.0

    def test_closed_loop_matrix_positive_feedback(self):
        p = StateSpacePlant.siso(-1.0, 1.0)
        a_cl = closed_loop(p, np.array([[-1.0]])).a_cl
        assert a_cl[0, 0] == pytest.approx(-2.0)

    def test_four_block_response(self, grid):
        # for P = 1/s, K = -1 the (y, w2) block is K P (I - K P)^{-1} ... the
        # realization must reproduce [P; I] (I - K P)^{-1} [-I, K]
        p = StateSpacePlant.siso(0.0, 1.0)
        K = np.array([[-1.0]])
        cl = closed_loop(p, K)
        s = np.array([0.5j, 2j])
        P = 1.0 / s
        si = 1.0 / (1.0 - (-1.0) * P)
        expected = np.stack([
            np.stack([P * si * -1.0, P * si * -1.0], axis=-1),
            np.stack([si * -1.0, si * -1.0], axis=-1),
        ], axis=1)
        got = eval_response(cl.realization, s)
        np.testing.assert_allclose(got, expected, rtol=1e-10)


class TestSensitivity:
    def test_steady_state_value(self, grid):
        p = StateSpacePlant.siso(-1.0, 1.0)
        curves = sensitivity_curves(closed_loop(p, np.array([[-1.0]])), grid)
        assert curves.so_max[0] == pytest.approx(0.5, rel=1e-3)

    def test_unstable_loop_rejected(self, grid):
        # every analysis entry point that needs a stable loop guards it
        cl = closed_loop(StateSpacePlant.siso(1.0, 1.0), np.array([[0.0]]))
        for analyse in (lambda: sensitivity_curves(cl, grid),
                        lambda: uncertainty_bounds(cl, grid),
                        lambda: disk_margin(cl)):
            with pytest.raises(UnstableLoop):
                analyse()

    def test_bounds_positive(self, grid):
        rng = np.random.default_rng(8)
        p = random_stable_siso(rng)
        bounds = uncertainty_bounds(closed_loop(p, np.array([[0.0]])), grid)
        assert np.all(bounds.inverse_input > 0)


class TestDiskMargin:
    def test_integrator_classical(self):
        # L = -K P = 1/s: alpha = 2, disk phase margin +/- 90 degrees
        p = StateSpacePlant.siso(0.0, 1.0)
        report = disk_margin(closed_loop(p, np.array([[-1.0]])))
        assert report.disk_alpha == pytest.approx(2.0, abs=1e-6)
        assert report.mdpm_deg == pytest.approx(90.0, abs=0.1)
        assert np.isinf(report.mdgm_db)

    def test_zero_gain_degenerate(self):
        p = StateSpacePlant.siso(-1.0, 1.0)
        report = disk_margin(closed_loop(p, np.array([[0.0]])))
        assert report.degenerate

    def test_finite_margin_case(self):
        # L = 8/((s+1)(s+2)): resonant enough that alpha < 2
        A = np.diag([-1.0, -2.0])
        B = np.ones((2, 1))
        C = np.array([[8.0, -8.0]])
        p = StateSpacePlant(A, B, C, np.zeros((1, 1)))
        report = disk_margin(closed_loop(p, np.array([[-1.0]])))
        assert 0 < report.disk_alpha < 2
        assert np.isfinite(report.mdgm_db)
        assert report.gsm > 0

    @staticmethod
    def reference_half(loop):
        """(S - T)/2 = S - I/2 built from S = (I + L)^(-1) as a system."""
        F = np.linalg.inv(np.eye(loop.m) + loop.D)
        return StateSpacePlant(loop.A - loop.B @ F @ loop.C, loop.B @ F,
                               -F @ loop.C, F - 0.5 * np.eye(loop.m))

    def test_mimo_feedthrough_matches_loop_construction(self):
        # linf_norm returns (1 + 2 LINF_TOL) times the peak it sampled, at
        # the frequency it reports: the reference is evaluated there
        rng = np.random.default_rng(2024)
        m, r = 2, 3
        checked = 0
        while checked < 10:
            modes = []
            for _ in range(2):
                wn, zeta = rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.5)
                modes.append([[-zeta * wn, wn], [-wn, -zeta * wn]])
            p = StateSpacePlant(block_diag(*modes), rng.normal(size=(4, m)),
                                rng.normal(size=(r, 4)),
                                0.5 * rng.normal(size=(r, m)))
            K = 0.3 * rng.normal(size=(m, r))
            cl = closed_loop(p, K)
            if not cl.stable:
                continue
            report = disk_margin(cl)
            loops = {
                "input": StateSpacePlant(p.A, p.B, -K @ p.C, -K @ p.D),
                "output": StateSpacePlant(p.A, p.B @ K, -p.C, -p.D @ K),
            }
            for where, loop in loops.items():
                half = self.reference_half(loop)
                omega = report.worst_omega[where]["omega"]
                resp = half.D if np.isinf(omega) else \
                    eval_response(half, [1j * omega])[0]
                alpha = 1.0 / ((1.0 + 2.0 * LINF_TOL)
                               * np.linalg.norm(resp, ord=2))
                assert report.worst_omega[where]["alpha"] == pytest.approx(
                    alpha, rel=1e-12)
            checked += 1
