from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import identity_banks
from rssd import fileio
from rssd.errors import (
    ComputationFailed,
    DimensionMismatch,
    DivergentTrace,
    IllPosedLoop,
)
from rssd.lti import (
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    StateSpacePlant,
    augment_plant,
    cascade,
    eval_response,
)
from rssd.margins import closed_loop
from rssd.sim import (
    DIVERGENCE_LIMIT,
    Scenario,
    SignalSpec,
    TraceSet,
    UncertaintyInjection,
    _uncertainty_plant,
    expm,
    simulate,
    tracking_metrics,
)


def lag_loop():
    return StateSpacePlant.siso(-1.0, 1.0), np.array([[-1.0]])


def zoh_loop_oracle(plant, gain, w_in, w_out, scenario):
    """Step-by-step zero-order-hold recurrence of the augmented loop, with
    Phi and Gamma from scipy's expm: (outputs, inputs, diverged,
    divergence_time).  The reference that simulate's scan must match."""
    aug = augment_plant(w_out, plant, w_in)
    if scenario.uncertainty is not None:
        aug = cascade(aug, _uncertainty_plant(scenario.uncertainty, aug.r))
    cl = closed_loop(aug, gain)
    MK = cl.M @ cl.gain
    dt = scenario.dt
    phi, gamma = zoh_maps(cl.a_cl, aug.B @ MK, dt, scipy.linalg.expm)
    n_steps = int(round(scenario.duration / dt))
    time = dt * np.arange(n_steps + 1)

    def sample(specs):
        if not specs:
            return np.zeros((time.size, aug.r))
        return np.column_stack([s.sample(time) for s in specs])

    w = sample(scenario.disturbance) - sample(scenario.reference)

    def out_in(xk, wk):
        u = MK @ (aug.C @ xk + wk)
        return aug.C @ xk + aug.D @ u, u

    x = np.zeros(aug.n)
    outputs = np.full((n_steps + 1, aug.r), np.nan)
    inputs = np.full((n_steps + 1, aug.m), np.nan)
    outputs[0], inputs[0] = out_in(x, w[0])
    for k in range(n_steps):
        x = phi @ x + gamma @ w[k]
        if not np.all(np.isfinite(x)) or np.any(np.abs(x) > DIVERGENCE_LIMIT):
            return outputs, inputs, True, float(time[k + 1])
        outputs[k + 1], inputs[k + 1] = out_in(x, w[k + 1])
    return outputs, inputs, False, None


def zoh_maps(a, b, dt, exp):
    """(Phi, Gamma) = (e^(a dt), int_0^dt e^(a s) ds b) from the Van Loan
    block exponential, taken by ``exp``."""
    n, r = b.shape
    block = np.zeros((n + r, n + r))
    block[:n, :n], block[:n, n:] = a, b
    e = exp(dt * block)
    return e[:n, :n], e[:n, n:]


def mimo_case(seed):
    """Stable 3-state, 2-input, 3-output loop with D != 0 and dynamic banks."""
    rng = np.random.default_rng(seed)
    plant = StateSpacePlant(np.diag(-rng.uniform(0.5, 3.0, 3)),
                            rng.normal(size=(3, 2)), rng.normal(size=(3, 3)),
                            0.3 * rng.normal(size=(3, 2)))
    w_in = CompensatorBank(tuple(FirstOrderSection(*c) for c in (
        (1.0, 2.0, 1.0, 4.0), (0.0, 1.0, 0.0, 1.0))))
    w_out = CompensatorBank(tuple(FirstOrderSection(*c) for c in (
        (0.0, 3.0, 1.0, 3.0), (0.5, 1.0, 1.0, 2.0), (0.0, 1.0, 0.0, 1.0))))
    gain = -0.2 * rng.normal(size=(2, 3))
    assert closed_loop(augment_plant(w_out, plant, w_in), gain).stable
    return plant, gain, w_in, w_out


class TestSignalSpec:
    def test_doublet_shape(self):
        sig = SignalSpec("doublet", 0.0873, start=1.0, width=2.0)
        t = np.array([0.5, 1.0, 2.9, 3.0, 4.9, 5.0, 8.0])
        expected = [0.0, 0.0873, 0.0873, -0.0873, -0.0873, 0.0, 0.0]
        np.testing.assert_allclose(sig.sample(t), expected)

    def test_step(self):
        sig = SignalSpec("step", 2.0, start=1.0)
        np.testing.assert_allclose(sig.sample(np.array([0.0, 1.0, 5.0])),
                                   [0.0, 2.0, 2.0])

    def test_invalid_kind(self):
        with pytest.raises(DimensionMismatch):
            SignalSpec("ramp", 1.0)

    def test_scenario_invariants(self):
        with pytest.raises(DimensionMismatch):
            Scenario((SignalSpec("zero"),), dt=-0.1)
        with pytest.raises(DimensionMismatch):
            Scenario((SignalSpec("zero"),), dt=1.0, duration=5.0)
        with pytest.raises(DimensionMismatch):
            Scenario((SignalSpec("doublet", 1.0, width=0.5),), dt=1.0,
                     duration=100.0)


class TestSimulate:
    def test_zero_scenario_equilibrium(self):
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("zero"),), dt=1e-3, duration=1.0)
        tr = simulate(p, K, w_in, w_out, sc)
        assert np.all(tr.outputs == 0.0)
        assert not tr.diverged

    def test_step_settles_to_half(self):
        # y = -PK(I-PK)^{-1} r: T(0) maps a unit step to +0.5
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("step", 1.0),), dt=1e-3, duration=10.0)
        tr = simulate(p, K, w_in, w_out, sc)
        assert tr.outputs[-1, 0] == pytest.approx(0.5, rel=1e-2)

    def test_doublet_reference_column(self):
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("doublet", 0.0873, 1.0, 2.0),),
                      dt=1e-3, duration=10.0)
        tr = simulate(p, K, w_in, w_out, sc)
        t = tr.time
        assert tr.reference[np.searchsorted(t, 1.5), 0] == pytest.approx(0.0873)
        assert tr.reference[np.searchsorted(t, 3.5), 0] == pytest.approx(-0.0873)
        assert tr.reference[np.searchsorted(t, 6.0), 0] == 0.0

    def test_edges_on_samples_act_there(self):
        # 3 * 0.3, 6 * 0.3 and 9 * 0.3 land an ulp below 0.9, 1.8 and 2.7;
        # each edge still acts at its own sample, not one dt later
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        for spec, want in ((SignalSpec("step", 1.0, 0.9), [0] * 3 + [1] * 8),
                           (SignalSpec("doublet", 1.0, 0.9, 0.9),
                            [0] * 3 + [1] * 3 + [-1] * 3 + [0] * 2)):
            tr = simulate(p, K, w_in, w_out,
                          Scenario((spec,), dt=0.3, duration=3.0))
            assert tr.time[3] < 0.9
            np.testing.assert_array_equal(tr.reference[:, 0], want)
            assert tr.outputs[3, 0] == 0.0 and tr.outputs[4, 0] != 0.0

    def test_divergence_marker(self):
        p = StateSpacePlant.siso(1.0, 1.0)
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("zero"),), (SignalSpec("step", 1.0),),
                      dt=1e-3, duration=40.0)
        tr = simulate(p, np.array([[0.1]]), w_in, w_out, sc)
        assert tr.diverged
        assert tr.divergence_time is not None
        assert tr.time.size == tr.outputs.shape[0]

    def test_superposition(self):
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        base = dict(dt=1e-3, duration=5.0)
        tr_a = simulate(p, K, w_in, w_out,
                        Scenario((SignalSpec("step", 1.0),), **base))
        tr_b = simulate(p, K, w_in, w_out,
                        Scenario((SignalSpec("doublet", 0.5, 1.0, 1.0),),
                                 **base))
        # linearity: doubling a reference doubles the response
        tr_2a = simulate(p, K, w_in, w_out,
                         Scenario((SignalSpec("step", 2.0),), **base))
        np.testing.assert_allclose(2 * tr_a.outputs, tr_2a.outputs,
                                   atol=1e-8)
        assert np.max(np.abs(tr_b.outputs)) > 0

    def test_first_order_step_closed_form(self):
        # x' = -2 x + r: a unit step held from t = 0 is exact on the grid,
        # y(t) = (1 - e^(-2 t)) / 2 at every sample
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("step", 1.0),), dt=1e-3, duration=5.0)
        tr = simulate(p, K, w_in, w_out, sc)
        np.testing.assert_allclose(tr.outputs[:, 0], -0.5 * np.expm1(-2 * tr.time),
                                   rtol=0, atol=1e-12 * 0.5)

    def test_dt_halving_convergence(self):
        # every edge lies on both grids, so the held signals are the same
        # functions of time and both traces are exact at the shared samples
        case = mimo_case(3)
        refs = (SignalSpec("doublet", 0.0873, 0.25, 0.5),
                SignalSpec("step", -0.05, 1.5), SignalSpec("zero"))
        dists = (SignalSpec("zero"), SignalSpec("step", 0.02, 0.75),
                 SignalSpec("doublet", 0.01, 2.0, 1.0))
        t1 = simulate(*case, Scenario(refs, dists, dt=1e-3, duration=8.0))
        t2 = simulate(*case, Scenario(refs, dists, dt=5e-4, duration=8.0))
        np.testing.assert_array_equal(t1.time, t2.time[::2])
        for got, want in ((t1.outputs, t2.outputs[::2]),
                          (t1.inputs, t2.inputs[::2])):
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_uncertainty_injection_both_signs(self):
        p, K = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        G = FirstOrderSection(3.0, 923.9, 1.0, 9239.0)
        finals = []
        for delta in (1.0, -1.0):
            sc = Scenario((SignalSpec("step", 1.0),),
                          uncertainty=UncertaintyInjection(G, 0, delta),
                          dt=1e-3, duration=1.0)
            tr = simulate(p, K, w_in, w_out, sc)
            assert not tr.diverged
            finals.append(tr.outputs[-1, 0])
        assert finals[0] != finals[1]

    def test_static_loop(self):
        # no states: u = K (y + d - r) with y = D u, so u = (r - d) / 3 and
        # y = 2 u at every sample for K = -1, D = 2
        p = StateSpacePlant.from_gain([[2.0]])
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("doublet", 0.3, 0.5, 0.25),),
                      (SignalSpec("step", 0.1, 0.2),), dt=1e-3, duration=1.0)
        tr = simulate(p, np.array([[-1.0]]), w_in, w_out, sc)
        assert not tr.diverged
        u = (tr.reference[:, 0] - sc.disturbance[0].sample(tr.time)) / 3
        np.testing.assert_allclose(tr.inputs[:, 0], u, rtol=1e-15, atol=1e-17)
        np.testing.assert_allclose(tr.outputs[:, 0], 2 * u, rtol=1e-15,
                                   atol=1e-17)

    def test_wrong_gain_shape_is_ill_posed(self):
        p, _ = lag_loop()
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("step", 1.0),), dt=1e-3, duration=1.0)
        with pytest.raises(IllPosedLoop):
            simulate(p, np.array([[-1.0, 0.5]]), w_in, w_out, sc)

    def test_singular_feedthrough_loop_is_ill_posed(self):
        # 1 - K D = 1 - 0.5 * 2 = 0
        p = StateSpacePlant([[-1.0]], [[1.0]], [[1.0]], [[2.0]])
        w_in, w_out = identity_banks(1, 1)
        sc = Scenario((SignalSpec("step", 1.0),), dt=1e-3, duration=1.0)
        with pytest.raises(IllPosedLoop):
            simulate(p, np.array([[0.5]]), w_in, w_out, sc)


def assert_matches_oracle(tr, oracle, rtol=1e-12):
    """Same divergence verdict, time and NaN rows; every output and input
    column within rtol of its largest magnitude."""
    outputs, inputs, diverged, div_time = oracle
    assert tr.diverged == diverged
    assert tr.divergence_time == div_time
    for got, want in ((tr.outputs, outputs), (tr.inputs, inputs)):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        rows = ~np.isnan(want[:, 0])
        for col in range(want.shape[1]):
            scale = np.max(np.abs(want[rows, col]), initial=0.0)
            dev = np.max(np.abs(got[rows, col] - want[rows, col]), initial=0.0)
            assert dev <= rtol * scale


DOUBLETS = (SignalSpec("doublet", 0.0873, 0.25, 0.7),
            SignalSpec("doublet", -0.05, 0.4005, 0.3),
            SignalSpec("doublet", 0.02, 1.0, 1.0))
STEPS = (SignalSpec("step", 0.01, 0.6),
         SignalSpec("zero"),
         SignalSpec("step", -0.03, 1.2005))
PAPER_WEIGHT = FirstOrderSection(3.0, 923.9, 1.0, 9239.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fixture_case(index):
    """A fixture plant under the fixture's synthesized controller, rounded."""
    plant = fileio.load_plantset(CONFIGS / "three_plant_family.json")[index]
    return (plant, np.array([[-1.28]]),
            CompensatorBank((FirstOrderSection(0.0, 4.54, 0.0, 1.0),)),
            CompensatorBank((FirstOrderSection(0.0, 4.43, 0.0, 1.0),)))


class TestRecurrence:
    """simulate's blocked scan against the step-by-step ZOH recurrence."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_mimo_doublets_and_step_disturbances(self, seed):
        case = mimo_case(seed)
        sc = Scenario(DOUBLETS, STEPS, dt=1e-3, duration=3.0)
        tr = simulate(*case, sc)
        assert not tr.diverged
        assert np.max(np.abs(tr.outputs)) > 1e-3
        assert_matches_oracle(tr, zoh_loop_oracle(*case, sc))

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_uncertainty_injection(self, delta):
        case = mimo_case(3)
        inj = UncertaintyInjection(FirstOrderSection(0.5, 0.2, 1.0, 4.0), 1, delta)
        sc = Scenario(DOUBLETS, STEPS, uncertainty=inj, dt=1e-3, duration=3.0)
        tr = simulate(*case, sc)
        assert not tr.diverged
        assert_matches_oracle(tr, zoh_loop_oracle(*case, sc))

    def test_unstable_loop_diverges_at_the_same_step(self):
        # A_cl = 1 + 2: the state passes the limit near t = 7, many checks in
        case = (StateSpacePlant.siso(1.0, 1.0), np.array([[2.0]]),
                *identity_banks(1, 1))
        sc = Scenario((SignalSpec("zero"),), (SignalSpec("step", 1.0),),
                      dt=1e-3, duration=10.0)
        tr = simulate(*case, sc)
        assert tr.diverged and 5.0 < tr.divergence_time < 9.0
        # x_k = Gamma (Phi^k - 1) / (Phi - 1) sums positive terms that grow,
        # so a relative error is carried on undamped but never amplified.  A
        # relative difference d between the two Phi becomes k d in Phi^k (e
        # in Gamma stays e).  The oracle rounds at most 2u a step.  Each
        # scan row is a positive sum of its carry-in times Phi^(j+1) (255
        # roundings in the power, 2 in the product and sum) and its doubling
        # sums (255 in the powers, 8 products, 8 sums, 1 in Gamma w), so a
        # block of 256 steps adds at most 272u, under 1.1u a step.  Row k is
        # thus within k (d + 3.1u) + e of the oracle to first order.
        plant, gain = case[:2]
        cl = closed_loop(plant, gain)
        phis, gammas = zip(*(zoh_maps(cl.a_cl, plant.B @ cl.M @ cl.gain, sc.dt, exp)
                             for exp in (expm, scipy.linalg.expm)))
        d, e = (abs(x[0] / x[1] - 1.0).item() for x in (phis, gammas))
        u = np.finfo(float).eps / 2
        rows = round(tr.divergence_time / sc.dt)
        assert_matches_oracle(tr, zoh_loop_oracle(*case, sc),
                              rtol=rows * (d + 3.1 * u) + e)

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_stiff_weight_does_not_diverge(self, delta):
        # a 9239 rad/s weight pole, 9.2 / dt: the exact step is as stable
        # as the loop at any dt
        case = mimo_case(8)
        inj = UncertaintyInjection(PAPER_WEIGHT, 2, delta)
        sc = Scenario(DOUBLETS, uncertainty=inj, dt=1e-3, duration=1.0)
        tr = simulate(*case, sc)
        assert not tr.diverged
        assert_matches_oracle(tr, zoh_loop_oracle(*case, sc))

    def test_unstable_loop_after_zero_rows(self):
        # ~900 rows are exactly zero before the doublet; a 5000 rad/s loop
        # pole grows e^5 = 148-fold per step, so a full block's powers of
        # Phi overflow and inf * 0 would put NaN on those rows
        plant, gain, w_in, w_out = mimo_case(8)
        fast = StateSpacePlant(np.diag([5000.0, -1.0, -2.0]), plant.B, plant.C,
                               plant.D)
        refs = (SignalSpec("doublet", 0.0873, 0.9, 0.05),
                SignalSpec("zero"), SignalSpec("zero"))
        sc = Scenario(refs, dt=1e-3, duration=1.2)
        tr = simulate(fast, gain, w_in, w_out, sc)
        assert tr.diverged and tr.divergence_time > 0.9
        assert np.all(tr.outputs[tr.time < 0.9] == 0.0)
        assert_matches_oracle(tr, zoh_loop_oracle(fast, gain, w_in, w_out, sc))

    @pytest.mark.parametrize("a", [1e4])
    def test_explosive_discretization_shrinks_the_block(self, a):
        # Phi = e^(dt (a + 1)) = 2.2e4: its 256th power is not finite
        case = (StateSpacePlant.siso(a, 1.0), np.array([[1.0]]),
                *identity_banks(1, 1))
        sc = Scenario((SignalSpec("zero"),), (SignalSpec("step", 1.0, 0.2),),
                      dt=1e-3, duration=1.0)
        tr = simulate(*case, sc)
        assert tr.diverged and tr.divergence_time > 0.2
        assert np.all(tr.outputs[tr.time < 0.2] == 0.0)
        assert_matches_oracle(tr, zoh_loop_oracle(*case, sc))

    def test_overflowing_exponential_is_refused(self):
        # e^(dt (1e6 + 1)) = e^1000 is not a double
        case = (StateSpacePlant.siso(1e6, 1.0), np.array([[1.0]]),
                *identity_banks(1, 1))
        sc = Scenario((SignalSpec("zero"),), (SignalSpec("step", 1.0, 0.2),),
                      dt=1e-3, duration=1.0)
        with pytest.raises(ComputationFailed, match="overflows"):
            simulate(*case, sc)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_committed_scenario_on_the_fixture(self, index):
        # the sim workload's length (10,000 steps, about 40 scan blocks)
        case = fixture_case(index)
        scenario, _ = fileio.load_scenario(CONFIGS / "doublet_scenario.json")
        tr = simulate(*case, scenario)
        assert tr.time.size == 10001 and not tr.diverged
        assert_matches_oracle(tr, zoh_loop_oracle(*case, scenario))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_paper_weight_scenario_on_the_fixture(self, index):
        case = fixture_case(index)
        scenario, _ = fileio.load_scenario(CONFIGS / "paper_weight_scenario.json")
        assert scenario.uncertainty.weight == PAPER_WEIGHT
        tr = simulate(*case, scenario)
        assert not tr.diverged
        assert_matches_oracle(tr, zoh_loop_oracle(*case, scenario))


class TestExpm:
    """rssd's scaling-and-squaring exponential against scipy's.  On these
    inputs scipy's own error reaches 6e-14 of the largest entry (against a
    40-digit reference), so both are held to 1e-13 of it."""

    def assert_close(self, a):
        want = scipy.linalg.expm(a)
        np.testing.assert_allclose(expm(a), want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            self.assert_close(a * rng.uniform(1e-3, 4.0) / np.abs(a).sum(axis=0).max())

    def test_stiff_stable_block(self):
        # ||A dt||_1 = 1000: e^(-1000) underflows beside slow modes
        a = 1e-3 * np.array([[-1e6, 1e3, 0.0], [0.0, -10.0, 1.0],
                             [0.0, 0.0, -0.5]])
        assert np.abs(a).sum(axis=0).max() == pytest.approx(1e3)
        self.assert_close(a)

    def test_defective_jordan_block(self):
        lam = -2.0
        a = np.array([[lam, 1.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]])
        self.assert_close(a)
        closed = np.exp(lam) * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0],
                                         [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(expm(a), closed, rtol=0, atol=1e-15)

    def test_empty_and_zero_matrices(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_overflow_raises(self):
        with pytest.raises(ComputationFailed, match="overflows"):
            expm(np.array([[1000.0]]))


class TestTrackingMetrics:
    def make_traces(self, err):
        n = err.size
        zeros = np.zeros((n, 1))
        return TraceSet(np.linspace(0, 10, n), err[:, None] * 0.0 + err[:, None],
                        zeros, zeros, err[:, None])

    def test_perfect_tracking_passes(self):
        rep = tracking_metrics(self.make_traces(np.zeros(100)), 0.0087, 0.0873)
        assert rep.passed
        assert rep.channels[0]["max_steady_error"] == 0.0

    def test_constant_offset_fails_band(self):
        rep = tracking_metrics(self.make_traces(np.full(100, 0.01)),
                               0.0087, 0.0873)
        assert not rep.passed
        assert not rep.channels[0]["band_ok"]

    def test_sinusoid_rms(self):
        t = np.linspace(0, 200 * np.pi, 200001)
        rep = tracking_metrics(self.make_traces(0.05 * np.sin(t)),
                               1.0, 0.0873)
        assert rep.channels[0]["rms"] == pytest.approx(0.05 / np.sqrt(2),
                                                       rel=1e-3)
        assert rep.channels[0]["rms_ok"]

    def test_empty_steady_window_raises(self):
        # before, a window past the trace's end reported max error 0.0
        with pytest.raises(DimensionMismatch, match="steady_after"):
            tracking_metrics(self.make_traces(np.full(100, 0.01)), 0.0087,
                             0.0873, steady_after=50.0)

    def test_window_start_on_a_sample_includes_it(self):
        # time[3] = 3 * 0.3 = 0.8999999999999999 is the sample at 0.9
        time = 0.3 * np.arange(11)
        err = np.arange(11.0, 0.0, -1.0)[:, None]
        zeros = np.zeros_like(err)
        rep = tracking_metrics(TraceSet(time, err, zeros, zeros, err), 100.0,
                               100.0, steady_after=0.9)
        assert rep.channels[0]["max_steady_error"] == 8.0

    def test_divergent_trace_rejected(self):
        # a diverged trace, and one with non-finite samples but no
        # divergence time
        for diverged, divergence_time in ((True, 2.0), (False, None)):
            traces = TraceSet(np.arange(3.0), np.full((3, 1), np.nan),
                              np.zeros((3, 1)), np.zeros((3, 1)),
                              np.full((3, 1), np.nan), diverged=diverged,
                              divergence_time=divergence_time)
            with pytest.raises(DivergentTrace) as info:
                tracking_metrics(traces, 0.01, 0.1)
            assert info.value.time == divergence_time


class TestWeightGainCurve:
    def test_published_weight_values(self):
        G = FirstOrderSection(3.0, 923.9, 1.0, 9239.0)
        grid = FrequencyGrid(np.union1d(FrequencyGrid.default().points, [3250.0]))
        g = CompensatorBank((G,)).realization
        omega = grid.points
        mag = np.abs(eval_response(g, 1j * omega)[:, 0, 0])
        assert mag[0] == pytest.approx(0.1, rel=1e-3)          # DC
        assert mag[-1] == pytest.approx(3.0, rel=1e-2)         # high frequency
        at = mag[np.searchsorted(omega, 3250.0)]
        assert at == pytest.approx(1.0, abs=0.01)              # 100 % point


class TestRefusals:
    # each input guard refuses with its own typed error
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: SignalSpec("doublet", 1.0, 0.0, 0.0),
                     "positive pulse width", id="doublet-no-width"),
        pytest.param(lambda: Scenario((SignalSpec(),), duration=np.inf),
                     "duration must be finite", id="infinite-duration"),
        pytest.param(lambda: simulate(
            StateSpacePlant.siso(-1.0), np.ones((1, 1)), *identity_banks(1, 1),
            Scenario((SignalSpec(),), (SignalSpec(),) * 2)),
                     "one disturbance spec", id="disturbance-count"),
    ])
    def test_refused(self, build, match):
        with pytest.raises(DimensionMismatch, match=match):
            build()
