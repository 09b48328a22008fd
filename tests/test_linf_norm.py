"""The L-infinity norm is a certified upper bound within 1e-6 of the peak."""

import numpy as np
import pytest

import rssd.margins
import rssd.nn_rssd
from conftest import random_stable_siso
from rssd.eigassign import EigTarget, ModeTarget
from rssd.errors import ComputationFailed
from rssd.lti import FrequencyGrid, StateSpacePlant, eval_response
from rssd.margins import closed_loop, crossings, disk_margin, linf_norm
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


def random_closed_loop(rng, order=8, m=3, r=5):
    """Stable loop of a stable 3x5 plant under a random gain."""
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(order, order)))
        pairs = order // 2
        blocks = [np.array([[-s, w], [-w, -s]])
                  for s, w in zip(rng.uniform(0.05, 2.0, pairs),
                                  rng.uniform(0.2, 20.0, pairs))]
        A = q @ np.block([[blocks[i] if i == j else np.zeros((2, 2))
                           for j in range(pairs)] for i in range(pairs)]) @ q.T
        plant = StateSpacePlant(A, rng.normal(size=(order, m)),
                                rng.normal(size=(r, order)), np.zeros((r, m)))
        cl = closed_loop(plant, 0.3 * rng.normal(size=(m, r)))
        if cl.stable:
            return cl


def random_loop(rng):
    """Four-block realization of a ``random_closed_loop``."""
    return random_closed_loop(rng).realization


def reference_peak(sys):
    """Grid sweep plus golden-section polish, floored by w = 0 and w -> inf."""
    grid = FrequencyGrid(np.logspace(-3, 5, 2000), max_refine_depth=120,
                         rel_tol=1e-12)
    value, _ = grid_peak(lambda w: sigma_max(sys, w), grid, max_refined=40)
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


def double_integrator_case():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = StateSpacePlant(A, np.array([[0.0], [1.0]]), np.eye(2), np.zeros((2, 1)))
    target = EigTarget((ModeTarget("real", 0.5, 3.0),
                        ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
    return p, decode_rssd_genome([1.0, 2.0], target), target


class TestJ2Path:
    def test_closed_loop_built_once(self, monkeypatch):
        calls = []

        def counted(plant, gain):
            calls.append(plant)
            return closed_loop(plant, gain)

        monkeypatch.setattr(rssd.nn_rssd, "closed_loop", counted)
        j2, K = j2_fitness(*double_integrator_case())
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
        j2, K = j2_fitness(*double_integrator_case())
        monkeypatch.undo()
        assert K is not None and np.isfinite(j2)
        cl = closed_loop(double_integrator_case()[0], K)
        assert sum(np.array_equal(a, cl.a_cl) for a in solved) == 1
        assert np.array_equal(cl.eigenvalues, np.linalg.eigvals(cl.a_cl))
        # the poles passed in give the norm bit for bit
        assert j2 == linf_norm(cl.realization)[0]

    def test_failed_norm_penalized(self, monkeypatch):
        def failing(sys, poles=None):
            raise ComputationFailed("no convergence")

        monkeypatch.setattr(rssd.nn_rssd, "linf_norm", failing)
        assert j2_fitness(*double_integrator_case()) == (PENALTY, None)


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
    every candidate is evaluated, repeats included, in the order found, and
    sigma_max is np.linalg.norm(ord=2).  The reference for bit-equality."""
    if poles is None:
        poles = np.linalg.eigvals(sys.A) if sys.n else np.zeros(0, complex)
    eig = np.asarray(poles)

    def peak(omegas):
        sig = np.linalg.norm(eval_response(sys, 1j * omegas), ord=2,
                             axis=(1, 2))
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
    return [(h, p) for h, p in seen if h is not cl.realization]


def oracle_cases():
    rng = np.random.default_rng(1818)
    cases = []
    for _ in range(24):
        cl = random_closed_loop(rng)
        cases.append((cl.realization, cl.eigenvalues))
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
        assert len(cases) == 24 * 3 + 9
        for sys, poles in cases:
            assert linf_norm(sys, poles) == repeated_sample_norm(sys, poles)

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
