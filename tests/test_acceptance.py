"""Acceptance suite: ten gate criteria, one test each.

Each test prints a single PASS line with the measured quantities so the
suite output doubles as an acceptance report.
"""

import time
from pathlib import Path

import numpy as np

from conftest import random_stable_siso
from rssd import fileio
from rssd.eigassign import (
    EigTarget,
    ModeTarget,
    allowable_subspace,
    compute_gain,
    select_vectors,
)
from rssd.errors import IllConditioned
from rssd.lti import (
    CompensatorBank,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    eval_response,
)
from rssd.margins import closed_loop, disk_margin, gsm, linf_norm
from rssd.nn_rssd import GaConfig, run_nn_rssd
from rssd.scp import ScpConstraints
from rssd.sim import Scenario, SignalSpec, simulate
from rssd.vgap import central_plant, nu_gap

GRID = FrequencyGrid.default()
FIXTURES = Path(__file__).resolve().parent.parent / "configs"


def report(num, detail):
    print(f"criterion {num}: PASS — {detail}")


def static(k):
    return StateSpacePlant.from_gain(np.array([[float(k)]]))


def synth_family():
    pset = PlantSet((
        StateSpacePlant.siso(1.0, 1.0, label="nominal"),
        StateSpacePlant.siso(0.9, 1.2, label="fast"),
        StateSpacePlant.siso(1.1, 0.9, label="slow"),
    ))
    constraints = ScpConstraints(
        ((0.0, 0.0), (0.5, 5.0), (0.0, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 5.0), (0.0, 0.0), (1.0, 1.0)),
        dc_floor_db=0.0, band=(0.01, 0.1))
    target = EigTarget((ModeTarget("real", 0.5, 30.0),), zeta_min=0.3)
    scp = GaConfig(population=20, max_generations=20, seed=7)
    rssd = GaConfig(population=30, max_generations=100, seed=11)
    return pset, constraints, target, scp, rssd


def test_criterion_1_static_gain_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        k1, k2 = rng.uniform(-3.0, 3.0, size=2)
        expected = abs(k1 - k2) / np.sqrt((1 + k1 ** 2) * (1 + k2 ** 2))
        got = nu_gap(static(k1), static(k2), GRID).value
        worst = max(worst, abs(got - expected))
    assert worst < 1e-6

    result = central_plant(PlantSet((static(0.5), static(1.0), static(2.0))),
                           GRID)
    assert result.index == 1
    assert abs(result.epsilon - 0.31622776601683794) < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"50 pairs worst error {worst:.2e}, trio epsilon "
              f"{result.epsilon:.4f}, {elapsed:.2f}s")


def test_criterion_2_metric_axioms():
    rng = np.random.default_rng(202)
    violations = 0
    worst_sym = 0.0
    worst_self = 0.0
    for _ in range(100):
        p1 = random_stable_siso(rng, max_order=2)
        p2 = random_stable_siso(rng, max_order=2)
        p3 = random_stable_siso(rng, max_order=2)
        d12 = nu_gap(p1, p2, GRID).value
        d21 = nu_gap(p2, p1, GRID).value
        d23 = nu_gap(p2, p3, GRID).value
        d13 = nu_gap(p1, p3, GRID).value
        worst_sym = max(worst_sym, abs(d12 - d21))
        worst_self = max(worst_self, nu_gap(p1, p1, GRID).value)
        if d13 > d12 + d23 + 1e-9:
            violations += 1
    assert worst_sym < 1e-8
    assert worst_self < 1e-7
    assert violations == 0
    report(2, f"symmetry {worst_sym:.2e}, identity {worst_self:.2e}, "
              f"0/100 triangle violations")


def test_criterion_3_stability_margin():
    b = gsm(closed_loop(StateSpacePlant.siso(0.0, 1.0), np.array([[-1.0]])))
    assert abs(b - 1 / np.sqrt(2)) < 1e-4

    rng = np.random.default_rng(303)
    checked = 0
    while checked < 50:
        p = random_stable_siso(rng, max_order=2)
        p = StateSpacePlant(p.A + rng.uniform(0.0, 2.0) * np.eye(p.n),
                            p.B, p.C, p.D)
        K = np.array([[rng.normal(0.0, 2.0)]])
        cl = closed_loop(p, K)
        stable = bool(np.all(cl.eigenvalues.real < 0))
        if stable:
            continue  # only non-stabilizing pairs count here
        assert gsm(cl) == 0.0
        checked += 1
    report(3, f"b(1/s,-1)={b:.6f}, 50 non-stabilizing pairs all b=0")


def test_criterion_4_robust_stabilization_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    confirmed = 0
    attempts = 0
    while confirmed < 200 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(1, 3))
        poles = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        A = np.diag(poles)
        B = rng.normal(0.0, 1.0, size=(n, 1))
        C = rng.normal(0.0, 1.0, size=(1, n))
        p1 = StateSpacePlant(A, B, C, np.zeros((1, 1)))
        K = np.array([[rng.normal(0.0, 3.0)]])
        cl = closed_loop(p1, K)
        if not np.all(cl.eigenvalues.real < 0):
            continue
        scale = rng.uniform(0.01, 0.15)
        p2 = StateSpacePlant(A + scale * rng.normal(size=A.shape),
                             B * (1 + scale * rng.normal()),
                             C * (1 + scale * rng.normal()), p1.D)
        gap = nu_gap(p1, p2, GRID).value
        margin = gsm(cl)
        if margin <= gap:
            continue
        p2_stable = bool(np.all(closed_loop(p2, K).eigenvalues.real < 0))
        assert p2_stable, (
            f"b={margin:.4f} > gap={gap:.4f} but K fails to stabilize P2")
        confirmed += 1
    elapsed = time.monotonic() - t0
    assert confirmed >= 200
    assert elapsed < 60.0
    report(4, f"{confirmed} qualifying triples, 100% stabilized, "
              f"{elapsed:.1f}s")


def test_criterion_5_eigenstructure_oracle():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.eye(2)
    target = EigTarget((ModeTarget("real", 0.5, 3.0),
                        ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
    subs = [allowable_subspace(A, B, -1.0), allowable_subspace(A, B, -2.0)]
    W, R = select_vectors(subs, target, ((), ()))
    K = compute_gain(W, R, C)
    assert np.max(np.abs(K - np.array([[-2.0, -3.0]]))) < 1e-9

    scale = np.array([2.5, -0.3])
    K2 = compute_gain(W * scale, R * scale, C)
    assert np.max(np.abs(K - K2)) < 1e-10

    rng = np.random.default_rng(505)
    done = 0
    worst = 0.0
    while done < 50:
        n = int(rng.integers(2, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, 1))
        lams = -rng.uniform(0.5, 4.0, size=n) - np.arange(n) * 0.05
        try:
            subs = [allowable_subspace(A, B, l) for l in lams]
            t = EigTarget(tuple(ModeTarget("real", 0.1, 10.0)
                                for _ in range(n)), zeta_min=0.1)
            W, R = select_vectors(subs, t, tuple(() for _ in range(n)))
            K = compute_gain(W, R, np.eye(n))
        except IllConditioned:
            continue
        got = np.sort(np.linalg.eigvals(A + B @ K).real)
        worst = max(worst, np.max(np.abs(np.sort(lams) - got)))
        done += 1
    assert worst < 1e-6
    report(5, f"oracle exact, scaling invariant, 50 random triples worst "
              f"placement error {worst:.2e}")


def _dense_linf_oracle(sys, n_points=1_000_000):
    # omega = 0 too: several criterion-6 systems peak there.  The systems
    # are SISO, so sigma_max G(jw) is |G(jw)| and no SVD is needed
    assert (sys.m, sys.r) == (1, 1)
    omegas = np.concatenate(([0.0], np.logspace(-3, 5, n_points)))
    peak = 0.0
    for chunk in np.array_split(omegas, 8):
        resp = eval_response(sys, 1j * chunk)
        peak = max(peak, float(np.abs(resp[:, 0, 0]).max()))
    return peak


def test_criterion_6_linf_engine_versus_dense_oracle():
    rng = np.random.default_rng(606)
    systems = [random_stable_siso(rng, max_order=3) for _ in range(19)]
    # lightly damped resonance: 1/(s^2 + 0.2 s + 1), analytic peak 5.0252
    res = StateSpacePlant(np.array([[0.0, 1.0], [-1.0, -0.2]]),
                          np.array([[0.0], [1.0]]),
                          np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    systems.append(res)
    worst = 0.0
    for sys in systems:
        engine, _ = linf_norm(sys)
        oracle = _dense_linf_oracle(sys)
        worst = max(worst, abs(engine - oracle) / oracle)
    norm_res, _ = linf_norm(res)
    assert abs(norm_res - 5.025189076296001) < 0.01 * 5.0252
    assert worst < 0.01
    report(6, f"20 systems, worst relative error {worst:.2e} versus "
              f"1e6-point oracle; resonance peak {norm_res:.4f}")


def test_criterion_7_end_to_end_synthesis():
    t0 = time.monotonic()
    pset, constraints, target, scp, rssd = synth_family()
    rep = run_nn_rssd(pset, constraints, target, scp, rssd, GRID)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    assert rep.feasible
    for key in ("assigned_eigenvalues", "all_in_S1", "margin_exceeds_bound",
                "all_plants_stable"):
        assert rep.verification[key]
    hist = rep.j1_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    rep2 = run_nn_rssd(pset, constraints, target, scp, rssd, GRID)
    assert np.array_equal(rep.gain, rep2.gain)
    assert rep.j1_history == rep2.j1_history
    assert rep.j2 == rep2.j2
    report(7, f"feasible in {elapsed:.1f}s, J2={rep.j2:.4f}, history "
              f"{[round(h, 4) for h in hist]}, rerun bit-identical")


def test_criterion_8_simulation_consistency():
    pset, constraints, target, scp, rssd = synth_family()
    rep = run_nn_rssd(pset, constraints, target, scp, rssd, GRID)
    assert rep.feasible
    plant = pset[0]
    w_in, w_out, K = rep.w_in, rep.w_out, rep.gain

    from rssd.lti import augment_plant
    aug = augment_plant(w_out, plant, w_in)
    eigs = closed_loop(aug, K).eigenvalues
    dominant = float(np.max(eigs.real))

    sc = Scenario((SignalSpec("step", 1.0),), dt=1e-3, duration=6.0)
    tr = simulate(plant, K, w_in, w_out, sc)
    final = tr.outputs[-1, 0]
    dev = np.abs(tr.outputs[:, 0] - final)
    mask = (tr.time > 0.02) & (tr.time < 0.3) & (dev > 1e-13)
    rate = np.polyfit(tr.time[mask], np.log(dev[mask]), 1)[0]
    assert abs(rate - dominant) / abs(dominant) < 0.05

    tr2 = simulate(plant, K, w_in, w_out,
                   Scenario((SignalSpec("step", 2.0),), dt=1e-3, duration=6.0))
    assert np.max(np.abs(2 * tr.outputs - tr2.outputs)) < 1e-8

    tr_half = simulate(plant, K, w_in, w_out,
                       Scenario((SignalSpec("step", 1.0),), dt=5e-4,
                                duration=6.0))
    drift = abs(tr_half.outputs[-1, 0] - final) / abs(final)
    assert drift < 1e-3
    report(8, f"decay rate {rate:.3f} vs eigenvalue {dominant:.3f}, "
              f"superposition exact, dt drift {drift:.2e}")


def test_criterion_9_disk_margin_sanity():
    p = StateSpacePlant.siso(0.0, 1.0)
    rep = disk_margin(closed_loop(p, np.array([[-1.0]])))
    assert abs(rep.disk_alpha - 2.0) < 1e-6
    assert abs(rep.mdpm_deg - 90.0) < 0.1
    report(9, f"alpha={rep.disk_alpha:.6f}, MDPM=+/-{rep.mdpm_deg:.3f} deg")


def test_criterion_10_format_fixtures():
    src = FIXTURES / "nav_controller.json"
    gain, w_in, w_out = fileio.load_controller(src)
    text = fileio.canonical_json(fileio.controller_obj(gain, w_in, w_out))
    assert text.encode() == src.read_bytes()

    assert gain.shape == (3, 5)
    assert len(w_in) == 3 and len(w_out) == 5

    sys = CompensatorBank((w_in.sections[0],)).realization
    dc = float(eval_response(sys, np.array([0.0 + 0.0j]))[0, 0, 0].real)
    assert abs(dc - 0.7287) < 1e-4
    report(10, f"controller fixture round-trips byte-identically, "
               f"W_in section 1 DC gain {dc:.4f}")
