import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import degenerate_catalogue, identity_banks, random_stable_siso
from rssd.errors import ComputationFailed, IllPosedLoop, RssdError, UnstableLoop
from rssd.lti import FrequencyGrid, PlantSet, StateSpacePlant, eval_response, is_imag_axis
from rssd.margins import (
    LINF_TOL,
    closed_loop,
    disk_margin,
    gsm,
    linf_norm,
    sensitivity_curves,
    sigma_max,
    singular_values,
    uncertainty_bounds,
)
from rssd.scp import ScpConstraints, check_constraints, sampled_member, transmission_zeros
from rssd.sim import Scenario, SignalSpec, simulate
from rssd.sweep import grid_peak
from rssd.vgap import central_plant, nu_gap

SRC = Path(__file__).resolve().parents[1] / "src"


def one_by_one_stacks(rng, size):
    """1x1 stacks: |z| over 1e-140..1e140 with random phase (beyond the
    kernel's range at both ends), real and imaginary parts of unrelated
    scale, pure real and imaginary entries with +-0, and a real stack."""
    mag = 10.0 ** rng.uniform(-140.0, 140.0, size)
    polar = mag * np.exp(2j * np.pi * rng.uniform(size=size))
    mixed = (rng.normal(size=size) * 10.0 ** rng.uniform(-40.0, 40.0, size)
             + 1j * rng.normal(size=size) * 10.0 ** rng.uniform(-40.0, 40.0, size))
    axes = np.concatenate([polar.real, 1j * polar.imag, [0.0, -0.0, 0.0j]])
    return [z.reshape(-1, 1, 1) for z in
            (polar, mixed, axes.astype(complex), polar.real)]


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.array_equal(a.view(np.uint64), b.view(np.uint64))


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

    @pytest.mark.parametrize("m, r", [pytest.param(0, 1, id="no-inputs"),
                                      pytest.param(1, 0, id="no-outputs")])
    def test_system_without_channels_has_zero_norm(self, m, r):
        sys = StateSpacePlant([[-1.0]], np.ones((1, m)), np.ones((r, 1)),
                              np.zeros((r, m)))
        assert linf_norm(sys) == (0.0, 0.0)

    def test_feedthrough_limit(self):
        # (s + 10)/(s + 1): high-frequency gain 1 < DC gain 10
        sys = StateSpacePlant(np.array([[-1.0]]), np.array([[1.0]]),
                              np.array([[9.0]]), np.array([[1.0]]))
        norm, _ = linf_norm(sys)
        assert norm == pytest.approx(10.0, rel=1e-6)


class TestSingularValues:
    """1x1 stacks take ``modulus``, gesdd's bits where gesdd does not
    rescale; every other shape is LAPACK."""

    def test_1x1_stacks_bitwise(self):
        # bit for bit for |z| in (1e-130, 1e130); outside it gesdd rescales
        # first, and the two part by at most 3 ulp (measured)
        for mats in one_by_one_stacks(np.random.default_rng(21), 50_000):
            got = singular_values(mats)
            want = np.linalg.svd(mats, compute_uv=False)
            inside = (want > 1e-130) & (want < 1e130)
            assert same_bits(got[inside], want[inside])
            np.testing.assert_array_max_ulp(got[~inside], want[~inside], 4)

    def test_sigma_max_of_1x1_stacks_is_the_modulus(self):
        # the same kernel, also where a 1x1 Gram would overflow or underflow
        rng = np.random.default_rng(23)
        stacks = one_by_one_stacks(rng, 20_000)
        for mats in stacks + [1e150 * stacks[0], 1e-150 * stacks[0]]:
            assert same_bits(sigma_max(mats), singular_values(mats)[..., 0])

    @pytest.mark.parametrize("shape", [
        pytest.param((3, 2, 0), id="no-columns"),
        pytest.param((3, 0, 2), id="no-rows"),
        pytest.param((0, 0), id="empty-matrix"),
        pytest.param((0, 2, 2), id="no-matrices"),
    ])
    def test_sigma_max_of_an_empty_stack_is_zero(self, shape):
        got = sigma_max(np.zeros(shape, complex))
        np.testing.assert_array_equal(got, np.zeros(shape[:-2]))

    def test_single_matrix_and_other_shapes(self):
        rng = np.random.default_rng(3)
        for mats in (np.array([[-2.5]]), np.array([[0.0]]),
                     np.array([[3.0 - 4.0j]]), rng.normal(size=(2, 3)),
                     rng.normal(size=(7, 3, 2)) + 1j * rng.normal(size=(7, 3, 2)),
                     rng.normal(size=(4, 1, 2))):
            assert same_bits(singular_values(mats),
                             np.linalg.svd(mats, compute_uv=False))

    def test_zeros_bitwise(self, monkeypatch):
        # an all-zero block of any shape (-0.0 included) gives LAPACK's +0.0
        # without a call to it; +-0.0 entries of a mixed 1x1 stack keep
        # LAPACK's bits
        signed = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        mixed = np.array(signed + [3.0 - 4.0j, -2.5]).reshape(-1, 1, 1)
        assert same_bits(singular_values(mixed),
                         np.linalg.svd(mixed, compute_uv=False))
        blocks = [np.array(signed).reshape(-1, 1, 1),
                  np.array([-0.0, 0.0]).reshape(-1, 1, 1),
                  np.array([[-0.0]]), np.zeros((5, 3)), -np.zeros((3, 5)),
                  np.zeros((4, 2, 2), complex) * -1.0, np.zeros((7, 1, 1)),
                  np.zeros((3, 0)), np.zeros((2, 0, 0))]
        expected = [np.linalg.svd(m, compute_uv=False) for m in blocks]
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for mats, want in zip(blocks, expected):
            assert same_bits(singular_values(mats), want)
        assert shapes == []

    def test_non_finite_entries(self):
        # inf gives inf (LAPACK gave NaN); a NaN raises, as LAPACK did
        mats = np.array([1.0, np.inf, complex(0.0, np.inf),
                         complex(-np.inf, -np.inf), 2.0 + 1e-300j],
                        dtype=complex).reshape(-1, 1, 1)
        np.testing.assert_array_equal(singular_values(mats),
                                      [[1.0], [np.inf], [np.inf], [np.inf],
                                       [2.0]])
        for bad in (np.nan, np.nan * 1j, complex(np.inf, np.nan)):
            mats[0] = bad
            with pytest.raises(ComputationFailed):
                singular_values(mats)
            with pytest.raises(ComputationFailed):
                sigma_max(mats)

    @pytest.mark.parametrize("target", ["X86_V4", "X86_V3"])
    def test_same_bytes_on_every_simd_path(self, tmp_path, target):
        # np.abs of a complex array rounds differently on different SIMD
        # paths; modulus must not.  The inputs are made here and passed by
        # file, since 10.0 ** x and np.exp are SIMD-dispatched too
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        dispatch = list(umath.__cpu_dispatch__)
        if target not in dispatch or not umath.__cpu_features__.get(target):
            pytest.skip(f"{target} is not a numpy dispatch target here")
        off = " ".join(dispatch[dispatch.index(target):])
        z = np.concatenate([m.ravel().astype(complex) for m in
                            one_by_one_stacks(np.random.default_rng(24), 20_000)])
        np.save(tmp_path / "z.npy", z)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from rssd.margins import modulus\n"
            "assert not any(__cpu_features__[f] for f in sys.argv[2].split())\n"
            "np.save(sys.argv[3], modulus(np.load(sys.argv[1])))\n"
        )
        for name, disabled in (("default", ""), ("reduced", off)):
            env = {**os.environ, "PYTHONPATH": str(SRC),
                   "NPY_DISABLE_CPU_FEATURES": disabled}
            done = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "z.npy"), disabled,
                 str(tmp_path / f"{name}.npy")],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        assert same_bits(np.load(tmp_path / "default.npy"),
                         np.load(tmp_path / "reduced.npy"))


class TestClosedLoop:
    def test_integrator_gsm(self):
        p = StateSpacePlant.siso(0.0, 1.0)
        assert gsm(closed_loop(p, np.array([[-1.0]]))) == pytest.approx(
            1 / np.sqrt(2), abs=1e-4)

    def test_unstable_loop_zero_margin(self):
        p = StateSpacePlant.siso(1.0, 1.0)
        assert gsm(closed_loop(p, np.array([[0.0]]))) == 0.0

    def test_marginal_loop_is_unstable(self, grid):
        # 1/s under K = -1e-12 has its pole at -1e-12, inside the axis band
        cl = closed_loop(StateSpacePlant.siso(0.0, 1.0), np.array([[-1e-12]]))
        assert cl.eigenvalues[0] == -1e-12 and not cl.stable
        assert gsm(cl) == 0.0
        assert list(sensitivity_curves(cl, grid)) == ["omega", "sigma_max",
                                                      "sigma_min"]
        with pytest.raises(UnstableLoop):
            disk_margin(cl)

    def test_lightly_damped_loop_is_stable(self):
        # the oscillator under K = -2e-8 has poles at -1e-8 +/- j, |lambda| = 1:
        # ten times the band's half-width off the axis
        p = StateSpacePlant([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                            [[0.0, 1.0]], [[0.0]])
        cl = closed_loop(p, np.array([[-2e-8]]))
        np.testing.assert_allclose(cl.eigenvalues.real, -1e-8, rtol=1e-6)
        np.testing.assert_allclose(np.abs(cl.eigenvalues), 1.0, rtol=1e-12)
        assert cl.stable
        assert 0.0 < gsm(cl) < 1e-7
        assert disk_margin(cl).disk_alpha > 0.0

    def test_loop_without_inputs_zero_margin(self):
        # its 4-block factor has no inputs: a zero norm
        p = StateSpacePlant([[-1.0]], np.zeros((1, 0)), [[1.0]],
                            np.zeros((1, 0)))
        cl = closed_loop(p, np.zeros((0, 1)))
        assert cl.stable and gsm(cl) == 0.0

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


def plant_with_feedthrough(D):
    """A one-state plant whose feedthrough is the square D."""
    m = len(D)
    return StateSpacePlant([[-1.0]], np.ones((1, m)), np.ones((m, 1)), D)


class TestWellPosedness:
    # I - K D is judged by sigma_min against max(1, sigma_max), the scale
    # of the rounding in forming it; its determinant scales with the m-th
    # power

    def test_small_but_well_conditioned_loop_accepted(self):
        # I - K D = 1e-5 I: condition number 1, determinant 1e-15
        cl = closed_loop(plant_with_feedthrough((1 - 1e-5) * np.eye(3)),
                         np.eye(3))
        np.testing.assert_allclose(cl.M, 1e5 * np.eye(3), rtol=1e-9)

    def test_near_singular_loop_with_unit_determinant_refused(self):
        # I - K = [[1 - 1e6, 1e6], [-1e6, 1 + 1e6]]: determinant 1,
        # condition number 4e12
        K = 1e6 * np.array([[1.0, -1.0], [1.0, -1.0]])
        assert abs(np.linalg.det(np.eye(2) - K)) > 0.5
        with pytest.raises(IllPosedLoop, match="singular"):
            closed_loop(plant_with_feedthrough(np.eye(2)), K)

    @pytest.mark.parametrize("m", [1, 3])
    def test_rounding_noise_loop_refused(self, m):
        # 1 - 49 (1/49) is 1.1e-16 in floats, not 0: I - K D is noise
        with pytest.raises(IllPosedLoop, match="singular"):
            closed_loop(plant_with_feedthrough(np.eye(m) / 49), 49 * np.eye(m))

    def test_loop_without_inputs_accepted(self):
        # I - K D is 0x0: there is nothing to invert
        cl = closed_loop(StateSpacePlant.from_gain(np.zeros((2, 0))),
                         np.zeros((0, 2)))
        assert cl.M.shape == (0, 0) and cl.stable


class TestSensitivity:
    def test_steady_state_value(self, grid):
        p = StateSpacePlant.siso(-1.0, 1.0)
        curves = sensitivity_curves(closed_loop(p, np.array([[-1.0]])), grid)
        assert curves["so_max"][0] == pytest.approx(0.5, rel=1e-3)

    def test_unstable_loop_rejected(self, grid):
        # an unstable loop has P's curves only, and no disk margin
        cl = closed_loop(StateSpacePlant.siso(1.0, 1.0), np.array([[0.0]]))
        curves = sensitivity_curves(cl, grid)
        assert list(curves) == ["omega", "sigma_max", "sigma_min"]
        with pytest.raises(UnstableLoop):
            disk_margin(cl)

    def test_bounds_positive(self, grid):
        rng = np.random.default_rng(8)
        p = random_stable_siso(rng)
        curves = sensitivity_curves(closed_loop(p, np.array([[0.0]])), grid)
        assert np.all(curves["inv_input_bound"] > 0)

    def test_bounds_from_sigmas(self):
        # 1 / sigma_max(P K S_o) and 1 / sigma_max(S_i), inf where it is 0
        out_bound, inv_bound = uncertainty_bounds(np.array([0.0, 2.0]),
                                                  np.array([4.0, 0.0]))
        np.testing.assert_array_equal(out_bound, [np.inf, 0.5])
        np.testing.assert_array_equal(inv_bound, [0.25, np.inf])


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
        # the halves read off the 4-block against those built from each
        # loop; both norms lie within 2 LINF_TOL above the same peak
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
            loops = (StateSpacePlant(p.A, p.B, -K @ p.C, -K @ p.D),
                     StateSpacePlant(p.A, p.B @ K, -p.C, -p.D @ K))
            alpha = min(1.0 / linf_norm(self.reference_half(loop))[0]
                        for loop in loops)
            assert report.disk_alpha == pytest.approx(alpha, rel=4 * LINF_TOL)
            checked += 1


def settled(call, *args):
    """call(*args), or None where it refuses with a typed RssdError."""
    try:
        return call(*args)
    except RssdError:
        return None


class TestDegenerateCatalogue:
    # each call gives a finite value, a documented inf or a typed RssdError,
    # with no floating-point exception on the way; underflow is benign
    @pytest.mark.parametrize("name", list(degenerate_catalogue()))
    def test_through_the_api(self, name, grid):
        plant = degenerate_catalogue()[name]
        axis_pole = bool(is_imag_axis(np.linalg.eigvals(plant.A)).any())
        step = Scenario((SignalSpec("step", 1.0),), duration=1.0)
        with np.errstate(over="raise", invalid="raise", divide="raise",
                         under="ignore"):
            resp = settled(eval_response, plant, 1j * grid.points)
            assert np.isfinite(resp).all()
            if not plant.n:  # a static plant's response is its D exactly
                assert np.array_equal(resp, np.broadcast_to(plant.D, resp.shape))
            norm, _ = settled(linf_norm, plant) or (0.0, 0.0)
            assert np.isfinite(norm) or (norm == np.inf and axis_pole)
            zeros = settled(transmission_zeros, plant)
            assert zeros is None or np.isfinite(zeros).all()
            for K in ([[-1.0]], [[0.5]]):
                cl = settled(closed_loop, plant, K)
                if cl is None:
                    continue
                assert np.isfinite(cl.eigenvalues).all()
                assert plant.n or cl.eigenvalues.size == 0
                margin = settled(gsm, cl)
                assert margin is None or 0.0 <= margin <= 1.0
                curves = settled(sensitivity_curves, cl, grid) or {}
                for col, vals in curves.items():
                    # a bound is inf where its sigma is 0
                    assert (np.isfinite(vals).all() or col.endswith("_bound")
                            and not np.isnan(vals).any()), col
                # alpha is inf for a zero half, and so is the gain margin past 2
                report = settled(disk_margin, cl) if cl.stable else None
                assert report is None or (
                    np.isfinite([report.gsm, report.mdpm_deg]).all()
                    and not np.isnan([report.disk_alpha, report.mdgm_db]).any())
                traces = settled(simulate, plant, K, *identity_banks(1, 1), step)
                assert traces is None or traces.diverged or \
                    np.isfinite(traces.outputs).all()


def mimo_sweep():
    """Order-3 plants shaped 3x2, 2x3 and 2x2 (outputs x inputs), each with
    C scaled by 1, 1e150 and 1e-150, by shape."""
    rng = np.random.default_rng(40)
    T, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = T @ np.diag([-0.5, -1.0, -2.0]) @ T.T
    family = {}
    for r, m in ((3, 2), (2, 3), (2, 2)):
        B, C = rng.normal(size=(3, m)), rng.normal(size=(r, 3))
        family[f"{r}x{m}"] = [
            StateSpacePlant(A, B, scale * C, np.zeros((r, m)), f"{r}x{m}@{scale:g}")
            for scale in (1.0, 1e150, 1e-150)]
    return family


class TestMimoSweep:
    # non-square and square plants at extreme output scales: each call gives
    # a finite value, a documented inf or a typed RssdError, with no
    # floating-point exception on the way; underflow is benign
    @pytest.mark.parametrize("shape", list(mimo_sweep()))
    def test_through_the_api(self, shape, grid):
        plants = mimo_sweep()[shape]
        r, m = plants[0].r, plants[0].m
        rng = np.random.default_rng(41)
        gains = (np.zeros((m, r)), -0.5 * rng.normal(size=(m, r)))
        step = Scenario((SignalSpec("step", 1.0),) * r, duration=1.0)
        unit = ((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        constraints = ScpConstraints(unit * m, unit * r, -20.0, (0.01, 0.1))
        stable_loops = 0
        with np.errstate(over="raise", invalid="raise", divide="raise",
                         under="ignore"):
            for plant in plants:
                assert np.isfinite(settled(eval_response, plant,
                                           1j * grid.points)).all()
                norm, _ = settled(linf_norm, plant) or (0.0, 0.0)
                assert np.isfinite(norm)
                zeros = settled(transmission_zeros, plant)
                assert zeros is None or np.isfinite(zeros).all()
                for K in gains:
                    cl = settled(closed_loop, plant, K)
                    if cl is None:
                        continue
                    assert np.isfinite(cl.eigenvalues).all()
                    margin = settled(gsm, cl)
                    assert margin is None or 0.0 <= margin <= 1.0
                    for col, vals in (settled(sensitivity_curves, cl, grid)
                                      or {}).items():
                        assert (np.isfinite(vals).all() or col.endswith("_bound")
                                and not np.isnan(vals).any()), col
                    report = settled(disk_margin, cl) if cl.stable else None
                    stable_loops += cl.stable
                    assert report is None or (
                        np.isfinite([report.gsm, report.mdpm_deg]).all()
                        and not np.isnan([report.disk_alpha, report.mdgm_db]).any())
                    traces = settled(simulate, plant, K, *identity_banks(m, r), step)
                    assert traces is None or traces.diverged or \
                        np.isfinite(traces.outputs).all()
                verdict = settled(check_constraints, [sampled_member(plant, grid)],
                                  constraints)
                assert verdict is None or verdict.passed == (not verdict.reasons)
                assert verdict is None or not any(
                    re.search(r"\b(nan|inf)\b", why, re.I) for why in verdict.reasons)
            for p1, p2 in itertools.product(plants, repeat=2):
                gap = settled(nu_gap, p1, p2, grid)
                assert gap is None or 0.0 <= gap.value <= 1.0
            central = settled(central_plant, PlantSet(tuple(plants)), grid)
            assert central is None or np.isfinite(central.epsilon)
        assert stable_loops >= len(plants)  # every open loop is stable
