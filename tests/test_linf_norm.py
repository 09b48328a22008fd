"""The L-infinity norm is a certified upper bound within 1e-6 of the peak."""

import warnings
from unittest import mock

import numpy as np
import pytest

import rssd.margins
import rssd.nn_rssd
import rssd.sweep
from conftest import random_stable_siso
from rssd.eigassign import EigTarget, ModeTarget
from rssd.errors import ComputationFailed, DimensionMismatch
from rssd.lti import FrequencyGrid, StateSpacePlant, eval_response
from rssd.margins import (closed_loop, crossings, disk_margin, hamiltonians,
                          linf_norm)
from rssd.nn_rssd import PENALTY, decode_rssd_genome, j2_fitness
from rssd.sweep import grid_peak


def sigma_max(sys, omegas):
    resp = eval_response(sys, 1j * np.asarray(omegas, float))
    return np.linalg.norm(resp, ord=2, axis=(1, 2))


def modal_oracle(sys, n_points=1_000_000):
    """Peak of |G(jw)| on the 1e6-point grid of criterion 6 plus w = 0, for
    SISO sys, evaluated in modal coordinates G = C V (jw - Lambda)^-1 V^-1 B + D."""
    omegas = np.concatenate([[0.0], np.logspace(-3, 5, n_points)])
    lam, V = np.linalg.eig(sys.A)
    left = (sys.C @ V).ravel()
    right = np.linalg.solve(V, sys.B).ravel()
    resp = (left * right / (1j * omegas[:, None] - lam)).sum(axis=1) + sys.D[0, 0]
    return float(np.abs(resp).max())


def resonance(zeta, wn):
    """wn^2 / (s^2 + 2 zeta wn s + wn^2): peak 1 / (2 zeta sqrt(1 - zeta^2))."""
    A = np.array([[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]])
    return StateSpacePlant(A, [[0.0], [1.0]], [[wn * wn, 0.0]], [[0.0]])


def random_closed_loop(rng, order=8, m=3, r=5, feedthrough=0.0):
    """Stable loop of a stable 3x5 plant under a random gain; ``feedthrough``
    scales a random D (0: D = 0)."""
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(order, order)))
        pairs = order // 2
        blocks = [np.array([[-s, w], [-w, -s]])
                  for s, w in zip(rng.uniform(0.05, 2.0, pairs),
                                  rng.uniform(0.2, 20.0, pairs))]
        A = q @ np.block([[blocks[i] if i == j else np.zeros((2, 2))
                           for j in range(pairs)] for i in range(pairs)]) @ q.T
        D = (feedthrough * rng.normal(size=(r, m)) if feedthrough
             else np.zeros((r, m)))
        plant = StateSpacePlant(A, rng.normal(size=(order, m)),
                                rng.normal(size=(r, order)), D)
        cl = closed_loop(plant, 0.3 * rng.normal(size=(m, r)))
        if cl.stable:
            return cl


def random_loop(rng):
    """Four-block realization of a ``random_closed_loop``."""
    return random_closed_loop(rng).realization


def reference_peak(sys):
    """Grid sweep plus golden-section polish, floored by w = 0 and w -> inf."""
    grid = FrequencyGrid(np.logspace(-3, 5, 2000))
    with mock.patch.multiple(rssd.sweep, BRACKET_RTOL=1e-13, MAX_ROUNDS=120,
                             MAX_REFINED=40):
        value, _ = grid_peak(lambda w: sigma_max(sys, w), grid)
    return max(value, float(sigma_max(sys, [0.0])[0]),
               float(np.linalg.norm(sys.D, ord=2)))


class TestCertifiedBound:
    def test_criterion_6_systems_above_dense_oracle(self):
        rng = np.random.default_rng(606)
        systems = [random_stable_siso(rng, max_order=3) for _ in range(19)]
        systems.append(resonance(0.1, 1.0))
        for sys in systems:
            norm, _ = linf_norm(sys)
            oracle = modal_oracle(sys)
            assert norm >= oracle
            assert norm <= oracle * (1 + 1e-6)

    @pytest.mark.parametrize("zeta, wn", [(1e-4, 3.0), (0.05, 3e5)])
    def test_analytic_resonance(self, zeta, wn):
        # the first is narrower than the old grid spacing, the second
        # lies beyond the old grid's last frequency
        norm, omega = linf_norm(resonance(zeta, wn))
        analytic = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta * zeta))
        assert norm >= analytic
        assert norm == pytest.approx(analytic, rel=1e-8)
        assert omega == pytest.approx(wn * np.sqrt(1.0 - 2.0 * zeta * zeta),
                                      rel=1e-4)

    def test_four_block_loops_above_grid_reference(self):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            sys = random_loop(rng)
            norm, omega = linf_norm(sys)
            ref = reference_peak(sys)
            assert norm >= ref
            assert norm <= ref * (1 + 1e-6)
            assert sigma_max(sys, [omega])[0] == pytest.approx(norm, rel=1e-9)

    def test_peak_at_infinity(self):
        # (s + 0.5)/(s + 1) rises from 0.5 at DC to 1 at infinity
        sys = StateSpacePlant([[-1.0]], [[1.0]], [[-0.5]], [[1.0]])
        norm, omega = linf_norm(sys)
        assert np.isinf(omega)
        assert 1.0 <= norm <= 1.0 + 1e-9

    def test_mimo_feedthrough_dominates(self):
        rng = np.random.default_rng(9)
        D = np.diag([4.0, 1.0])
        sys = StateSpacePlant(-np.diag([1.0, 2.0, 3.0]),
                              0.1 * rng.normal(size=(3, 2)),
                              0.1 * rng.normal(size=(2, 3)), D)
        norm, omega = linf_norm(sys)
        assert np.isinf(omega)
        assert 4.0 <= norm <= 4.0 * (1 + 1e-9)


class TestFeedthroughSvd:
    # sigma_max(D) <= |D|_F: D's SVD is taken only where it could beat the
    # starting bound, so skipping it leaves the norm's bits alone
    @staticmethod
    def svd_shapes(monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    def test_skipped_below_the_starting_bound(self, monkeypatch):
        rng = np.random.default_rng(12)
        sys = StateSpacePlant(-np.diag([1.0, 2.0, 3.0]), rng.normal(size=(3, 2)),
                              rng.normal(size=(2, 3)),
                              0.01 * rng.normal(size=(2, 2)))
        want = repeated_sample_norm(sys)
        shapes = self.svd_shapes(monkeypatch)
        assert linf_norm(sys) == want
        assert shapes == []

    def test_taken_where_the_feedthrough_dominates(self, monkeypatch):
        rng = np.random.default_rng(9)
        sys = StateSpacePlant(-np.diag([1.0, 2.0, 3.0]),
                              0.1 * rng.normal(size=(3, 2)),
                              0.1 * rng.normal(size=(2, 3)), np.diag([4.0, 1.0]))
        shapes = self.svd_shapes(monkeypatch)
        norm, omega = linf_norm(sys)
        assert shapes == [(2, 2)]
        assert np.isinf(omega)
        assert norm == pytest.approx(4.0, rel=3 * rssd.margins.LINF_TOL)


class TestDegenerate:
    @pytest.mark.parametrize("B, C", [
        (np.ones((2, 1)), np.zeros((1, 2))),
        (np.zeros((2, 1)), np.ones((1, 2))),
        # CB = CAB = 0: the input drives a mode the output does not see
        (np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])),
    ])
    def test_zero_system(self, B, C):
        sys = StateSpacePlant(np.diag([-1.0, -2.0]), B, C, [[0.0]])
        assert linf_norm(sys) == (0.0, 0.0)

    def test_static_gain(self):
        assert linf_norm(StateSpacePlant.from_gain(np.zeros((2, 2)))) == (0.0, 0.0)
        norm, _ = linf_norm(StateSpacePlant.from_gain([[3.0, 4.0]]))
        assert norm == pytest.approx(5.0, rel=1e-15)

    def test_zero_at_every_starting_frequency(self):
        # s (s^2 + 1) / (s + 1)^4 = 1/t - 3/t^2 + 4/t^3 - 2/t^4 (t = s + 1) on
        # a Jordan chain: exactly 0 at w = 0 and at w = |lambda| = 1
        A = -np.eye(4) + np.diag(np.ones(3), 1)
        sys = StateSpacePlant(A, [[0.0], [0.0], [0.0], [1.0]],
                              [[-2.0, 4.0, -3.0, 1.0]], [[0.0]])
        assert not sigma_max(sys, [0.0, 1.0]).any()
        norm, _ = linf_norm(sys)
        dense = sigma_max(sys, np.logspace(-3, 3, 200_001)).max()
        assert dense <= norm <= dense * (1 + 1e-6)

    def test_iteration_cap_raises(self, monkeypatch):
        # the starting bound 5.0 at w = 1 is below the peak 5.0252
        monkeypatch.setattr(rssd.margins, "LINF_MAX_ITER", 1)
        with pytest.raises(ComputationFailed):
            linf_norm(resonance(0.1, 1.0))

    def test_non_finite_response_raises(self, monkeypatch):
        def nan_response(plant, s_values):
            return np.full((np.size(s_values), plant.r, plant.m), np.nan)

        monkeypatch.setattr(rssd.margins, "eval_response", nan_response)
        with pytest.raises(ComputationFailed):
            linf_norm(resonance(0.1, 1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf])
    @pytest.mark.parametrize("m", [1, 2])
    def test_non_finite_entry_raises(self, monkeypatch, value, m):
        # one bad entry among finite ones, in a 1x1 and a 2x2 stack
        def bad_response(plant, s_values):
            resp = np.ones((np.size(s_values), m, m), dtype=complex)
            resp[-1, 0, 0] = value
            return resp

        monkeypatch.setattr(rssd.margins, "eval_response", bad_response)
        with pytest.raises(ComputationFailed):
            linf_norm(resonance(0.1, 1.0))

    def test_gamma_square_overflow_raises(self):
        # H(gamma) needs gamma^2: past ~1.3e154 it overflows
        assert linf_norm(StateSpacePlant.siso(-1.0, 1e154)) \
            == (1.0000000002e154, 0.0)
        with pytest.raises(ComputationFailed, match="gamma\\^2 overflows"):
            linf_norm(StateSpacePlant.siso(-1.0, 1e155))

    def test_gram_overflow_raises(self, monkeypatch):
        # a 2x2 loop's samples take sigma_max from their Gram, which squares
        # the response: past ~1e154 the Gram overflows before gamma^2 does
        def twin(gain):
            return StateSpacePlant(-np.eye(2), gain * np.array([[1.0, 0.5],
                                                                [0.0, 1.0]]),
                                   np.eye(2), np.zeros((2, 2)))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm, omega = linf_norm(twin(1e150))
            with pytest.raises(ComputationFailed, match="Gram"):
                linf_norm(twin(1e155))
        def svd_route(mats):
            return np.linalg.svd(mats, compute_uv=False)[:, 0]

        monkeypatch.setattr(rssd.margins, "sigma_max", svd_route)
        assert omega == 0.0
        assert norm == pytest.approx(linf_norm(twin(1e150))[0], rel=1e-15,
                                     abs=0)


class TestFactor:
    """J2 and the gsm take the 4-block's m-input factor: at every s its
    product with its conjugate transpose is the 4-block's."""

    @pytest.mark.parametrize("order, m, r", [(4, 1, 1), (8, 3, 5)])
    def test_factor_has_the_four_block_sigma_max(self, order, m, r):
        rng = np.random.default_rng(2525 + m)
        omegas = np.concatenate([[0.0], np.logspace(-2, 3, 60)])
        for _ in range(8):
            cl = random_closed_loop(rng, order, m, r, feedthrough=0.5)
            assert cl.factor.D.shape == (r + m, m) and cl.plant.D.any()
            np.testing.assert_allclose(sigma_max(cl.factor, omegas),
                                       sigma_max(cl.realization, omegas),
                                       rtol=1e-13, atol=0)
            norm, _ = linf_norm(cl.factor, cl.eigenvalues)
            four_block, _ = linf_norm(cl.realization, cl.eigenvalues)
            assert norm == pytest.approx(
                four_block, rel=2 * rssd.margins.LINF_TOL, abs=0)


def double_integrator_case():
    """j2_fitness' arguments for a chunk of one genome."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = StateSpacePlant(A, np.array([[0.0], [1.0]]), np.eye(2), np.zeros((2, 1)))
    target = EigTarget((ModeTarget("real", 0.5, 3.0),
                        ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
    return p, [decode_rssd_genome([1.0, 2.0], target)], target


class TestJ2Path:
    def test_closed_loop_built_once(self, monkeypatch):
        calls = []

        def counted(plant, gain):
            calls.append(plant)
            return closed_loop(plant, gain)

        monkeypatch.setattr(rssd.nn_rssd, "closed_loop", counted)
        (j2,), (K,) = j2_fitness(*double_integrator_case())
        assert K is not None and np.isfinite(j2)
        assert len(calls) == 1

    def test_s1_check_reuses_loop_eigenvalues(self, monkeypatch):
        solved = []
        eigvals = np.linalg.eigvals

        def recorded(a):
            solved.append(np.array(a))
            return eigvals(a)

        # closed_loop, the S1 check and linf_norm's pole test share one solve
        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        (j2,), (K,) = j2_fitness(*double_integrator_case())
        monkeypatch.undo()
        assert K is not None and np.isfinite(j2)
        cl = closed_loop(double_integrator_case()[0], K)
        assert sum(np.array_equal(a, cl.a_cl) for a in solved) == 1
        assert np.array_equal(cl.eigenvalues, np.linalg.eigvals(cl.a_cl))
        # the poles passed in give the norm bit for bit
        assert j2 == linf_norm(cl.factor)[0]

    def test_failed_norm_penalized(self, monkeypatch):
        def failing(systems, poles=None):
            return [ComputationFailed("no convergence") for _ in systems]

        monkeypatch.setattr(rssd.nn_rssd, "linf_norm", failing)
        assert j2_fitness(*double_integrator_case()) == ([PENALTY], [None])


def test_norm_does_not_sweep_a_grid(monkeypatch):
    """One 4-block norm of an 8-state 3x5 loop samples far fewer than the
    400 frequencies of the default grid, and no frequency twice: this loop
    takes 12 samples, 24 when the +-jw crossing pairs are both sampled."""
    sys = random_loop(np.random.default_rng(77))
    sizes = []

    def counted(plant, s_values):
        sizes.append(np.size(s_values))
        return eval_response(plant, s_values)

    monkeypatch.setattr(rssd.margins, "eval_response", counted)
    linf_norm(sys)
    assert sys.n == 8
    assert 0 < sum(sizes) <= 16


def repeated_sample_norm(sys, poles=None):
    """linf_norm as it was before each distinct frequency was sampled once:
    every candidate is evaluated, repeats included, in the order found.
    Each sample's sigma_max is ``margins.sigma_max``, as in ``linf_norm``.
    The reference for bit-equality."""
    if poles is None:
        poles = np.linalg.eigvals(sys.A) if sys.n else np.zeros(0, complex)
    eig = np.asarray(poles)

    def peak(omegas):
        resp = eval_response(sys, 1j * omegas)
        sig = rssd.margins.sigma_max(resp)
        i = int(np.argmax(sig))
        return float(sig[i]), float(omegas[i])

    lb, omega = peak(np.concatenate([[0.0], np.abs(eig), np.abs(eig.imag)]))
    d_gain = np.linalg.norm(sys.D, ord=2) if sys.D.size else 0.0
    if d_gain > lb:
        lb, omega = float(d_gain), np.inf
    if lb == 0.0 and sys.n:
        lb, omega = peak(np.arange(1.0, sys.n + 1) * max(1.0, np.abs(eig).max()))
    if lb == 0.0:
        return 0.0, 0.0
    if not sys.n:
        return lb, omega
    for _ in range(rssd.margins.LINF_MAX_ITER):
        gamma = (1.0 + 2.0 * rssd.margins.LINF_TOL) * lb
        w = crossings(sys, gamma)
        if w.size == 0:
            return gamma, omega
        value, w_best = peak(np.concatenate([w, 0.5 * (w[:-1] + w[1:])]))
        if value <= lb:
            return gamma, omega
        lb, omega = value, w_best
    raise AssertionError("reference iteration did not settle")


def disk_halves(cl):
    """The two (S - T)/2 systems disk_margin takes the norm of, with the
    loop's poles, captured from disk_margin itself."""
    seen = []

    def recorded(half, poles=None):
        seen.append((half, poles))
        return linf_norm(half, poles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rssd.margins, "linf_norm", recorded)
        disk_margin(cl)
    return [(h, p) for h, p in seen if h is not cl.factor]


def oracle_cases():
    rng = np.random.default_rng(1818)
    cases = []
    for _ in range(24):
        cl = random_closed_loop(rng)
        cases.append((cl.realization, cl.eigenvalues))
        cases.append((cl.factor, cl.eigenvalues))
        cases.extend(disk_halves(cl))
    for zeta, wn in [(0.1, 1.0), (1e-4, 3.0), (0.05, 3e5)]:
        cases.append((resonance(zeta, wn), None))
    cases.append((StateSpacePlant.from_gain([[3.0, 4.0]]), None))
    cases.append((StateSpacePlant.from_gain(np.zeros((2, 2))), None))
    for B, C in [(np.ones((2, 1)), np.zeros((1, 2))),
                 (np.zeros((2, 1)), np.ones((1, 2))),
                 (np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))]:
        cases.append((StateSpacePlant(np.diag([-1.0, -2.0]), B, C, [[0.0]]),
                      None))
    # zero at w = 0 and w = |lambda|: the fallback samples run
    cases.append((StateSpacePlant(-np.eye(4) + np.diag(np.ones(3), 1),
                                  [[0.0], [0.0], [0.0], [1.0]],
                                  [[-2.0, 4.0, -3.0, 1.0]], [[0.0]]), None))
    return cases


class TestDistinctSamples:
    def test_bit_equal_to_repeated_sampling(self):
        cases = oracle_cases()
        assert len(cases) == 24 * 4 + 9
        for sys, poles in cases:
            assert linf_norm(sys, poles) == repeated_sample_norm(sys, poles)

    def test_stacks_bit_equal_to_repeated_sampling(self):
        # each (n, m, r) group of the cases as one stack, in lockstep
        groups = {}
        for sys, poles in oracle_cases():
            groups.setdefault((sys.n, sys.m, sys.r), []).append((sys, poles))
        assert max(map(len, groups.values())) >= 24
        for cases in groups.values():
            got = linf_norm([sys for sys, _ in cases], [p for _, p in cases])
            assert got == [repeated_sample_norm(*case) for case in cases]

    def test_mixed_stack_slots_are_the_single_forms(self):
        # each system's special case and failure stays in its own slot
        stack = [
            resonance(0.0, 2.0),  # poles on the axis: inf
            # (s + 0.5)/(s + 1) with a hidden mode: sigma_max(D) at w = inf
            StateSpacePlant(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                            [[-0.5, 0.0]], [[1.0]]),
            # 1/(s+1) + 1/(s+2) whose C^T C overflows in H
            StateSpacePlant(np.diag([-1.0, -2.0]), [[1.0], [1e-160]],
                            [[1.0, 1e160]], [[0.0]]),
            StateSpacePlant(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                            [[1e155, 0.0]], [[0.0]]),  # gamma^2 overflows
            resonance(0.1, 1.0),
            StateSpacePlant(np.diag([-1.0, -2.0]), np.ones((2, 1)),
                            np.zeros((1, 2)), [[0.0]]),  # zero
        ]
        want = []
        for sys in stack:
            try:
                want.append(linf_norm(sys))
            except ComputationFailed as exc:
                want.append(str(exc))
        got = linf_norm(stack)
        assert [str(x) if isinstance(x, ComputationFailed) else x
                for x in got] == want
        assert np.isinf(want[0][0]) and np.isinf(want[1][1])
        assert want[2] == ("Hamiltonian eigen-solve failed: "
                           "Array must not contain infs or NaNs")
        assert want[3].startswith("gamma^2 overflows")
        assert want[4] == repeated_sample_norm(stack[4]) and want[5] == (0.0, 0.0)

    def test_sampling_failure_stays_in_its_slot(self):
        # the middle member's response is about 1e200: its Gram overflows
        def member(gain):
            return StateSpacePlant(-np.diag([1.0, 2.0]),
                                   gain * np.array([[1.0, 0.5], [0.0, 1.0]]),
                                   np.eye(2), np.zeros((2, 2)))

        stack = [member(1.0), member(1e200), member(3.0)]
        with pytest.raises(ComputationFailed) as single:
            linf_norm(stack[1])
        first, failed, last = linf_norm(stack)
        assert str(single.value) == \
            "a Gram for sigma_max overflows or is not finite"
        assert isinstance(failed, ComputationFailed)
        assert str(failed) == str(single.value)
        assert first == linf_norm(stack[0]) and last == linf_norm(stack[2])

    def test_unsettled_slot_fails_alone(self, monkeypatch):
        # with one step allowed, the resonance (start 5.0 at w = 1, below its
        # peak 5.0252) cannot settle while the first-order lag does
        monkeypatch.setattr(rssd.margins, "LINF_MAX_ITER", 1)
        lag = StateSpacePlant(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                              [[1.0, 0.0]], [[0.0]])
        stuck, settled = linf_norm([resonance(0.1, 1.0), lag])
        assert isinstance(stuck, ComputationFailed)
        assert "did not settle" in str(stuck)
        assert settled == linf_norm(lag)

    def test_shapes_must_match(self):
        for other in (random_loop(np.random.default_rng(3)),
                      StateSpacePlant.from_gain([[3.0]])):  # static beside order 2
            with pytest.raises(DimensionMismatch, match="differ in shape"):
                linf_norm([resonance(0.1, 1.0), other])

    def test_poles_must_match_the_stack(self):
        sys = resonance(0.1, 1.0)
        with pytest.raises(DimensionMismatch, match="1 pole sets for 2"):
            linf_norm([sys, sys], [np.linalg.eigvals(sys.A)])

    def test_stacks_keep_the_lockstep(self, monkeypatch):
        # a stack builds each member's Hamiltonians and takes no more
        # hamiltonians calls than its slowest member takes alone (one H
        # per call)
        sizes = []

        def spy(systems, gammas):
            sizes.append(len(gammas))
            return hamiltonians(systems, gammas)

        monkeypatch.setattr(rssd.margins, "hamiltonians", spy)
        groups = {}
        for sys, poles in oracle_cases():
            groups.setdefault((sys.n, sys.m, sys.r), []).append((sys, poles))
        big = [cases for cases in groups.values() if len(cases) >= 24]
        assert len(big) == 4
        for cases in big:
            alone = []
            for case in cases:
                sizes.clear()
                linf_norm(*case)
                alone.append(sum(sizes))
            sizes.clear()
            linf_norm([sys for sys, _ in cases], [p for _, p in cases])
            assert len(sizes) == max(alone)
            assert sum(sizes) == sum(alone)

    def test_each_call_samples_increasing_frequencies(self, monkeypatch):
        calls = []

        def spy(plant, s_values):
            calls.append(np.asarray(s_values).imag.copy())
            return eval_response(plant, s_values)

        monkeypatch.setattr(rssd.margins, "eval_response", spy)
        for sys, poles in oracle_cases():
            linf_norm(sys, poles)
        assert len(calls) > 100
        for w in calls:
            assert w.size and np.all(np.diff(w) > 0)
