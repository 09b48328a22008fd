import hashlib

import numpy as np
import pytest

import rssd.lti
import rssd.margins
import rssd.nn_rssd
import rssd.scp
import rssd.vgap
from conftest import mimo_family
from rssd.eigassign import ZETA_MAX, EigTarget, EntryConstraint, ModeTarget, in_S1
from rssd.errors import ComputationFailed, DimensionMismatch
from rssd.lti import FrequencyGrid, PlantSet, StateSpacePlant, augment_plant
from rssd.margins import closed_loop, gsm
from rssd.nn_rssd import (
    JBAR_FLOOR,
    PENALTY,
    GaConfig,
    GaResult,
    decode_rssd_genome,
    ga_minimize,
    j2_fitness,
    rssd_boxes,
    run_nn_rssd,
    verify_lemma,
)
from rssd.scp import ScpConstraints


def family():
    return PlantSet((
        StateSpacePlant.siso(1.0, 1.0, label="nominal"),
        StateSpacePlant.siso(0.9, 1.2, label="fast"),
        StateSpacePlant.siso(1.1, 0.9, label="slow"),
    ))


def family_setup():
    constraints = ScpConstraints(
        ((0.0, 0.0), (0.5, 5.0), (0.0, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 5.0), (0.0, 0.0), (1.0, 1.0)),
        dc_floor_db=0.0, band=(0.01, 0.1))
    target = EigTarget((ModeTarget("real", 0.5, 30.0),), zeta_min=0.3)
    return constraints, target


def per_genome(f):
    """A chunk fitness that scores every genome of its chunk with ``f``."""
    return lambda chunk: ([f(genes) for genes in chunk], False)


def one_at_a_time_ga(f, boxes, config, stop=lambda: False):
    """ga_minimize as it was before chunks: ``f`` scores one genome per call,
    and ``stop`` is polled after every individual.  Returns the GaResult and,
    per generation, the genomes scored in it, in order.  The reference for
    the chunk protocol."""
    boxes = np.asarray(boxes, dtype=float)
    lo, hi = boxes[:, 0], boxes[:, 1]
    rng = np.random.default_rng(config.seed)
    pop = rng.uniform(lo, hi, size=(config.population, boxes.shape[0]))
    best_genes, best_fit, history, scored, fresh = None, np.inf, [], {}, []
    for gen in range(config.max_generations):
        fresh.append([])
        fits = np.empty(pop.shape[0])
        for i, genes in enumerate(pop):
            key = genes.tobytes()
            if key not in scored:
                scored[key] = f(genes)
                fresh[-1].append(key)
            fits[i] = scored[key]
            if fits[i] < best_fit:
                best_fit, best_genes = float(fits[i]), genes.copy()
            if stop():
                history.append(best_fit)
                return GaResult(best_genes, best_fit, history, gen + 1), fresh
        history.append(best_fit)
        order = np.argsort(fits, kind="stable")
        children = [*pop[order[:rssd.nn_rssd.ELITES]].copy()]
        while len(children) < pop.shape[0]:
            pa = rssd.nn_rssd._tournament(rng, fits)
            pb = rssd.nn_rssd._tournament(rng, fits)
            ca, cb = pop[pa].copy(), pop[pb].copy()
            if rng.random() < rssd.nn_rssd.CROSSOVER_PROB:
                ca, cb = rssd.nn_rssd._blend(rng, pop[pa], pop[pb], lo, hi)
            for child in (ca, cb):
                rssd.nn_rssd._mutate(rng, child, lo, hi)
                if len(children) < pop.shape[0]:
                    children.append(child)
        pop = np.asarray(children)
    return GaResult(best_genes, best_fit, history, config.max_generations), fresh


def bumpy(g):
    return float(np.sum((g - 0.3) ** 2) + 0.1 * np.sum(np.cos(5 * g)))


class TestGaMinimize:
    def test_sphere_convergence(self):
        cfg = GaConfig(population=30, max_generations=60, seed=42)
        res = ga_minimize(per_genome(lambda g: float(np.sum((g - 1.0) ** 2))),
                          [(-5, 5)] * 3, cfg)
        assert res.best_fitness < 1e-3

    def test_seeded_determinism(self):
        cfg = GaConfig(population=20, max_generations=20, seed=9)
        f = per_genome(lambda g: float(np.sum(g ** 2)))
        a = ga_minimize(f, [(-2, 2)] * 2, cfg)
        b = ga_minimize(f, [(-2, 2)] * 2, cfg)
        assert np.array_equal(a.best_genes, b.best_genes)
        assert a.history == b.history

    def test_elitism_monotone_history(self):
        cfg = GaConfig(population=16, max_generations=30, seed=3)
        res = ga_minimize(per_genome(lambda g: float(np.sum(np.abs(g)))),
                          [(-1, 1)] * 4, cfg)
        assert np.all(np.diff(res.history) <= 0)

    def test_identical_population_no_mutation_flat(self):
        calls = []

        def f(g):
            calls.append(1)
            return float(np.sum(g ** 2))

        cfg = GaConfig(population=8, max_generations=5, seed=1)
        # degenerate boxes: every individual starts as (2, -1), and every
        # child of crossover or mutation is clipped back to it
        res = ga_minimize(per_genome(f), [(2, 2), (-1, -1)], cfg)
        assert res.history == [5.0] * 5
        assert len(calls) == 1  # one distinct genome is scored once

    def test_early_stop_mid_generation(self):
        calls = []

        def f(chunk):
            # the third genome ends the run: it is the first of the third
            # chunk (sizes 1, 1, 2), so the prefix is shorter than the chunk
            fits = []
            for genes in chunk:
                calls.append(1)
                fits.append(float(genes[0] ** 2))
                if len(calls) == 3:
                    return fits, True
            return fits, False

        cfg = GaConfig(population=10, max_generations=50, seed=2)
        res = ga_minimize(f, [(-1, 1)], cfg)
        assert len(calls) == 3
        assert res.generations == 1 and len(res.history) == 1

    def test_each_distinct_genome_scored_once(self):
        keys = []

        def f(g):
            keys.append(g.tobytes())
            return float(np.sum((g - 0.3) ** 2))

        # elites and unchanged children repeat genomes in every generation
        cfg = GaConfig(population=10, max_generations=8, seed=21)
        ga_minimize(per_genome(f), [(-2, 2)] * 3, cfg)
        assert len(keys) == len(set(keys)) == 51

    def test_memo_does_not_outlive_the_call(self):
        calls = []
        f = lambda g: (calls.append(1), float(g[0])) [1]
        cfg = GaConfig(population=4, max_generations=1, seed=0)
        # a degenerate box makes the whole population one genome
        ga_minimize(per_genome(f), [(0.5, 0.5)], cfg)
        ga_minimize(per_genome(f), [(0.5, 0.5)], cfg)
        assert len(calls) == 2

    def test_seeded_result_pinned(self):
        # values from the GA before genomes were memoized: skipping repeat
        # evaluations leaves the RNG stream and the result untouched
        cfg = GaConfig(population=10, max_generations=8, seed=21)
        res = ga_minimize(per_genome(bumpy), [(-2, 2)] * 3, cfg)
        assert res.history == [
            0.9633539867584178, 0.9633539867584178, 0.7077589887854625,
            0.7077589887854625, 0.7077589887854625, 0.7077589887854625,
            0.6801297395252, 0.18074364749974353]
        assert res.best_genes.tolist() == [
            0.5673565374265578, 0.42338811828387213, 0.8392047616337006]
        assert res.best_fitness == 0.18074364749974353
        assert res.generations == 8

    def test_bad_population_rejected(self):
        with pytest.raises(DimensionMismatch):
            GaConfig(population=2, seed=0)

    def test_negative_seed_rejected(self):
        # numpy's default_rng would raise a bare ValueError at the first run
        with pytest.raises(DimensionMismatch, match="seed must be >= 0"):
            GaConfig(seed=-1)

    def test_genes_stay_in_boxes(self):
        cfg = GaConfig(population=12, max_generations=10, seed=5)
        seen = []
        f = lambda g: (seen.append(g.copy()), float(g[0])) [1]
        ga_minimize(per_genome(f), [(2.0, 3.0)], cfg)
        arr = np.asarray(seen)
        assert arr.min() >= 2.0 and arr.max() <= 3.0
        assert np.any(arr == 2.0)  # a child pushed below the box was clipped


def ga_fields(res):
    return (res.best_genes.tobytes(), res.best_fitness, res.history,
            res.generations)


class TestChunkProtocol:
    """ga_minimize hands its fitness chunks of a generation's distinct
    unscored genomes; scoring one genome per call is the reference."""

    CONFIGS = [GaConfig(population=10, max_generations=8, seed=21),
               GaConfig(population=6, max_generations=5, seed=3),
               GaConfig(population=12, max_generations=4, seed=7)]
    BOXES = [(-2, 2)] * 3

    @staticmethod
    def chunked(f, chunks, stop_after=None):
        """A chunk fitness scoring with ``f`` that logs each chunk's genomes
        and ends the run after the ``stop_after``-th genome it scores."""
        scored = []

        def fitness(chunk):
            chunks.append([genes.tobytes() for genes in chunk])
            fits = []
            for genes in chunk:
                fits.append(f(genes))
                scored.append(genes.tobytes())
                if len(scored) == stop_after:
                    return fits, True
            return fits, False

        return fitness

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_chunks_split_each_generation_doubling_from_one(self, cfg):
        chunks = []
        ga_minimize(self.chunked(bumpy, chunks), self.BOXES, cfg)
        _, fresh = one_at_a_time_ga(bumpy, self.BOXES, cfg)
        assert sum(chunks, []) == sum(fresh, [])
        scored = 0
        for generation in fresh:
            while generation:
                # the first chunk holds one genome, no later chunk more than
                # the run has scored, and none crosses a generation
                size = min(max(1, scored), len(generation))
                assert chunks.pop(0) == generation[:size]
                generation, scored = generation[size:], scored + size
        assert chunks == []

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_result_equals_one_genome_per_call(self, cfg):
        res = ga_minimize(per_genome(bumpy), self.BOXES, cfg)
        want, _ = one_at_a_time_ga(bumpy, self.BOXES, cfg)
        assert ga_fields(res) == ga_fields(want)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_done_ends_the_run_after_the_prefix(self, cfg):
        _, fresh = one_at_a_time_ga(bumpy, self.BOXES, cfg)
        ends = np.cumsum([len(generation) for generation in fresh])
        # a whole first chunk, mid-chunk prefixes, the last genome of a
        # generation and the first of the next
        for stop_after in (1, 2, 3, 5, ends[0], ends[0] + 1, ends[1] - 1):
            chunks, calls, ref_calls = [], [], []
            res = ga_minimize(
                self.chunked(lambda g: (calls.append(1), bumpy(g))[1], chunks,
                             stop_after), self.BOXES, cfg)
            want, _ = one_at_a_time_ga(
                lambda g: (ref_calls.append(1), bumpy(g))[1], self.BOXES, cfg,
                stop=lambda: len(ref_calls) >= stop_after)
            assert ga_fields(res) == ga_fields(want)
            assert res.generations == 1 + int(np.searchsorted(ends, stop_after))
            # the run ends inside its last chunk, whose tail is not scored
            assert len(calls) == stop_after
            assert len(sum(chunks[:-1], [])) < stop_after


class TestGenome:
    def test_decode_real_and_complex(self):
        target = EigTarget((ModeTarget("real", 0.5, 3.0),
                            ModeTarget("complex", 1.0, 5.0)), zeta_min=0.3)
        genome = decode_rssd_genome([2.0, 4.0, 0.5], target)
        assert genome.eigenvalues[0] == pytest.approx(-2.0)
        lam = genome.eigenvalues[1]
        assert abs(lam) == pytest.approx(4.0)      # natural frequency
        assert -lam.real / abs(lam) == pytest.approx(0.5)  # damping

    def test_boxes_match_layout(self):
        mode = ModeTarget("complex", 1.0, 5.0,
                          entries=(EntryConstraint(0, -0.1, 0.1, -0.2, 0.2),))
        target = EigTarget((mode,), zeta_min=0.3)
        boxes = rssd_boxes(target)
        # wn, zeta, entry re, entry im
        assert boxes.shape == (4, 2)
        genome = decode_rssd_genome([2.0, 0.6, 0.05, -0.1], target)
        assert genome.entry_values[0][0] == pytest.approx(0.05 - 0.1j)

    def test_decode_reads_the_boxes_layout(self):
        # disjoint boxes: a gene decoded in another gene's place leaves its box
        real = ModeTarget("real", 0.5, 0.6, entries=(
            EntryConstraint(0, 1.0, 1.1), EntryConstraint(1, 2.0, 2.1)))
        pair = ModeTarget("complex", 3.0, 3.1, entries=(
            EntryConstraint(0, 4.0, 4.1, 5.0, 5.1),))
        target = EigTarget((real, pair), zeta_min=0.3)
        boxes = rssd_boxes(target)
        assert boxes.shape == (7, 2)
        genes = np.random.default_rng(5).uniform(boxes[:, 0], boxes[:, 1])
        genome = decode_rssd_genome(genes, target)
        wn = [abs(lam) for lam in genome.eigenvalues]
        assert 0.5 <= wn[0] <= 0.6 and 3.0 <= wn[1] <= 3.1
        assert 0.3 <= -genome.eigenvalues[1].real / wn[1] <= 0.999
        for mode, values in zip(target.modes, genome.entry_values):
            assert len(values) == len(mode.entries)
            assert all(e.contains(v) for e, v in zip(mode.entries, values))

    @pytest.mark.parametrize("kind, zeta_min", [("complex", ZETA_MAX),
                                                ("real", 0.9995)])
    def test_damping_bound_searched(self, kind, zeta_min):
        # a pair at zeta_min = ZETA_MAX has a zero-width damping box, and a
        # real pole no damping gene at all
        target = EigTarget((ModeTarget(kind, 1.0, 5.0),), zeta_min)
        boxes = rssd_boxes(target)
        assert np.all(boxes[:, 0] <= boxes[:, 1])
        decoded = []

        def fitness(genes):
            decoded.append(decode_rssd_genome(genes, target).eigenvalues)
            return 0.0

        ga_minimize(per_genome(fitness), boxes,
                    GaConfig(population=4, max_generations=2))
        assert decoded and all(in_S1(lams, target) for lams in decoded)

    def test_decoded_eigenvalues_always_admissible(self):
        target = EigTarget((ModeTarget("complex", 1.0, 5.0),), zeta_min=0.4)
        rng = np.random.default_rng(12)
        boxes = rssd_boxes(target)
        for _ in range(50):
            genes = rng.uniform(boxes[:, 0], boxes[:, 1])
            lam = decode_rssd_genome(genes, target).eigenvalues[0]
            assert lam.real < 0
            assert -lam.real / abs(lam) >= 0.4 - 1e-12


class TestJ2Fitness:
    def test_double_integrator_gain(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = StateSpacePlant(A, np.array([[0.0], [1.0]]), np.eye(2),
                            np.zeros((2, 1)))
        target = EigTarget((ModeTarget("real", 0.5, 3.0),
                            ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
        genome = decode_rssd_genome([1.0, 2.0], target)
        (j2,), (K,) = j2_fitness(p, [genome], target)
        assert np.isfinite(j2)
        np.testing.assert_allclose(K, [[-2.0, -3.0]], atol=1e-9)

    def test_unstabilizable_choice_penalized(self):
        # gain placing one eigenvalue leaves the other unstable
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])   # second mode uncontrollable
        p = StateSpacePlant(A, B, np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        target = EigTarget((ModeTarget("real", 0.5, 5.0),), zeta_min=0.3)
        genome = decode_rssd_genome([1.0], target)
        assert j2_fitness(p, [genome], target) == ([PENALTY], [None])

    def test_eigenvalue_right_of_sigma_max_penalized_first(self, monkeypatch):
        # -1 lies right of sigma_max = -2: penalized before any subspace
        calls = []
        monkeypatch.setattr(rssd.nn_rssd, "allowable_subspace",
                            lambda *args: calls.append(args))
        p = StateSpacePlant.siso(1.0, 1.0)
        target = EigTarget((ModeTarget("real", 0.5, 5.0),), zeta_min=0.3,
                           sigma_max=-2.0)
        genome = decode_rssd_genome([1.0], target)
        assert j2_fitness(p, [genome], target) == ([PENALTY], [None])
        assert calls == []

    def test_chunk_is_its_genomes_one_norm_call(self, monkeypatch):
        # penalized genomes keep their slots; the loops past every guard
        # share one linf_norm call, and each slot equals the genome alone
        pset = mimo_family(1, 3)
        _, target = mimo_setup()
        boxes = rssd_boxes(target)
        rng = np.random.default_rng(41)
        genomes = [decode_rssd_genome(rng.uniform(boxes[:, 0], boxes[:, 1]),
                                      target) for _ in range(12)]
        alone = [j2_fitness(pset[0], [genome], target) for genome in genomes]
        norm_calls = []

        def counted(systems, poles=None, _fn=rssd.nn_rssd.linf_norm):
            norm_calls.append(len(systems))
            return _fn(systems, poles)

        monkeypatch.setattr(rssd.nn_rssd, "linf_norm", counted)
        j2s, gains = j2_fitness(pset[0], genomes, target)
        want = [K for _, (K,) in alone]
        assert j2s == [j2 for (j2,), _ in alone]
        assert [K is None for K in gains] == [K is None for K in want]
        assert all(np.array_equal(K, W) for K, W in zip(gains, want)
                   if K is not None)
        assert norm_calls == [sum(K is not None for K in gains)]
        assert 0 < norm_calls[0] < len(genomes)


class TestVerifyLemma:
    def test_ill_posed_member_is_not_stable(self):
        # K = -2 places 1/(s - 1) at -1; with D = -0.5, 1 - K D = 0
        p_cp = StateSpacePlant.siso(1.0, 1.0, label="nominal")
        ill = StateSpacePlant([[1.0]], [[1.0]], [[1.0]], [[-0.5]], "ill")
        target = EigTarget((ModeTarget("real", 0.5, 3.0),), zeta_min=0.3)
        args = (0, np.array([[-2.0]]), (-1 + 0j,), target, 0.1)
        assert verify_lemma([p_cp], *args)["all_plants_stable"]
        result = verify_lemma([p_cp, ill], *args)
        assert result["all_plants_stable"] is False
        assert result["assigned_eigenvalues"] and result["all_in_S1"]

    def test_marginal_member_is_not_stable(self):
        # K = -2 puts 5e-13/s's loop at -1e-12, inside the axis band
        p_cp = StateSpacePlant.siso(1.0, 1.0, label="nominal")
        marginal = StateSpacePlant([[0.0]], [[1.0]], [[5e-13]], [[0.0]],
                                   "marginal")
        K = np.array([[-2.0]])
        assert closed_loop(marginal, K).eigenvalues[0] == -1e-12
        target = EigTarget((ModeTarget("real", 0.5, 3.0),), zeta_min=0.3)
        result = verify_lemma([marginal, p_cp], 1, K, (-1 + 0j,), target, 0.1)
        assert result["all_plants_stable"] is False
        assert result["assigned_eigenvalues"] and result["all_in_S1"]
        assert result["margin_exceeds_bound"]

    def test_assigned_complex_pair(self):
        # K = [-5, -2] places the double integrator's poles at -1 +/- 2j
        p_cp = StateSpacePlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                               np.eye(2), np.zeros((2, 1)), "nominal")
        target = EigTarget((ModeTarget("complex", 1.0, 5.0),), zeta_min=0.3)

        def assigned(lam):
            return verify_lemma([p_cp], 0, np.array([[-5.0, -2.0]]), (lam,),
                                target, 0.1)["assigned_eigenvalues"]

        assert assigned(-1 + 2j) and assigned(-1 - 2j)
        assert not assigned(-1 + 1e-5 + 2j)
        assert not assigned(-1 + 2.00001j)

    def test_real_spectrum_is_conjugate_closed_bit_for_bit(self):
        # verify_lemma checks each desired eigenvalue alone: LAPACK returns a
        # real matrix's complex eigenvalues as exact conjugate pairs
        rng = np.random.default_rng(34)
        pairs = 0
        for _ in range(2000):
            eig = np.linalg.eigvals(rng.normal(size=(8, 8)))
            np.testing.assert_array_equal(np.sort_complex(eig),
                                          np.sort_complex(eig.conj()))
            pairs += np.count_nonzero(eig.imag > 0.0)
        assert pairs > 2000


class TestRunNnRssd:
    def test_family_feasible_and_verified(self, grid):
        constraints, target = family_setup()
        scp = GaConfig(population=20, max_generations=20, seed=7)
        rssd = GaConfig(population=30, max_generations=100, seed=11)
        report = run_nn_rssd(family(), constraints, target, scp, rssd, grid)
        assert report.feasible
        assert all(report.verification[k] for k in
                   ("assigned_eigenvalues", "all_in_S1",
                    "margin_exceeds_bound", "all_plants_stable"))
        assert report.j2 < 1.0 / report.j1_history[-1]

    def test_history_strictly_decreasing(self, grid):
        constraints, target = family_setup()
        scp = GaConfig(population=20, max_generations=20, seed=7)
        rssd = GaConfig(population=30, max_generations=100, seed=11)
        report = run_nn_rssd(family(), constraints, target, scp, rssd, grid)
        hist = report.j1_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_bit_identical_rerun(self, grid):
        constraints, target = family_setup()
        scp = GaConfig(population=20, max_generations=20, seed=7)
        rssd = GaConfig(population=30, max_generations=100, seed=11)
        a = run_nn_rssd(family(), constraints, target, scp, rssd, grid)
        b = run_nn_rssd(family(), constraints, target, scp, rssd, grid)
        assert np.array_equal(a.gain, b.gain)
        assert a.j1_history == b.j1_history
        assert a.j2 == b.j2

    def test_zero_generations_infeasible_empty_history(self, grid):
        constraints, target = family_setup()
        scp = GaConfig(population=20, max_generations=0, seed=7)
        rssd = GaConfig(population=30, max_generations=100, seed=11)
        report = run_nn_rssd(family(), constraints, target, scp, rssd, grid)
        assert not report.feasible
        assert report.j1_history == []
        assert report.gain is None

    def test_refused_banks_score_two(self, grid, monkeypatch):
        # c = 0 with a != 0 makes every section improper: decode_banks
        # refuses each genome, which scores 2.0 and starts no inner search
        results = []
        real = rssd.nn_rssd.ga_minimize

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(rssd.nn_rssd, "ga_minimize", spy)
        improper = ((1.0, 2.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        constraints = ScpConstraints(improper, improper, dc_floor_db=0.0,
                                     band=(0.01, 0.1))
        _, target = family_setup()
        report = run_nn_rssd(family(), constraints, target,
                             GaConfig(population=6, max_generations=3, seed=7),
                             GaConfig(population=6, max_generations=3, seed=11),
                             grid)
        assert [r.history for r in results] == [[2.0] * 3]
        assert report.rssd_invocations == 0 and report.j1_history == []
        assert not report.feasible

    def test_each_member_sampled_once_per_run(self, grid, monkeypatch):
        # every J1, J1bar0's under identity banks among them, reuses the
        # members' grid responses and evaluates only its two banks on the
        # grid; an empty inner budget never certifies, so the outer search
        # runs its whole budget
        pset = family()
        constraints, target = family_setup()
        evaluated, j1_calls = [], []

        def counted(plant, s_values, _fn=rssd.vgap.eval_response):
            if np.size(s_values) == grid.points.size:
                evaluated.append(plant)
            return _fn(plant, s_values)

        def j1_counted(*args, _fn=rssd.nn_rssd.j1_fitness):
            j1_calls.append(args)
            return _fn(*args)

        for module in (rssd.vgap, rssd.scp, rssd.lti, rssd.margins):
            monkeypatch.setattr(module, "eval_response", counted)
        monkeypatch.setattr(rssd.nn_rssd, "j1_fitness", j1_counted)
        run_nn_rssd(pset, constraints, target,
                    GaConfig(population=6, max_generations=2, seed=7),
                    GaConfig(population=4, max_generations=0, seed=11), grid)
        assert len(j1_calls) >= 2
        for p in pset:
            assert sum(q is p for q in evaluated) == 1
        banks = [q for q in evaluated if all(q is not p for p in pset)]
        assert len(banks) == 2 * len(j1_calls)
        for (members, _), post, pre in zip(j1_calls, banks[::2], banks[1::2]):
            assert post is members[0].banks[1].realization
            assert pre is members[0].banks[0].realization
            assert all(m.plant is p for m, p in zip(members, pset, strict=True))
            assert all(m.response.shape == (grid.points.size, 1, 1)
                       for m in members)

    def test_member_work_once_per_synthesis(self, grid, monkeypatch):
        # a square family: each raw member's spectrum and transmission zeros
        # are found once per synthesis, and each scored genome augments each
        # member once for both its constraint check and its J1; J1bar0 is
        # one more J1, under identity banks, which augments nothing
        pset = square_family()
        constraints, target = mimo_setup(2, 2)
        eig_args, zero_args, augmented, checks, j1s = [], [], [], [], []

        def spy(log, fn, arg=0):
            def wrapped(*args):
                log.append(args[arg])
                return fn(*args)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigvals", spy(eig_args, np.linalg.eigvals))
        monkeypatch.setattr(rssd.scp, "transmission_zeros",
                            spy(zero_args, rssd.scp.transmission_zeros))
        monkeypatch.setattr(rssd.scp, "augment_plant",
                            spy(augmented, rssd.scp.augment_plant, 1))
        monkeypatch.setattr(rssd.nn_rssd, "check_constraints",
                            spy(checks, rssd.nn_rssd.check_constraints))
        monkeypatch.setattr(rssd.nn_rssd, "j1_fitness",
                            spy(j1s, rssd.nn_rssd.j1_fitness))
        report = run_nn_rssd(pset, constraints, target,
                             GaConfig(population=4, max_generations=1, seed=7),
                             GaConfig(population=4, max_generations=0, seed=11),
                             grid)
        assert not report.feasible and report.rssd_invocations >= 1
        assert len(checks) >= 2 and len(j1s) == len(checks) + 1
        for p in pset:
            assert sum(a is p.A for a in eig_args) == 1
            assert sum(q is p for q in zero_args) == 1
            assert sum(q is p for q in augmented) == len(checks)
        assert len(augmented) == len(pset) * len(checks)

    def test_singular_pencil_raises_before_the_search(self, grid):
        # each member's zeros are found once, before any genome is scored,
        # so a member whose every s is a zero fails even an empty budget
        full = square_family(1)[0]
        rank1 = StateSpacePlant(full.A, full.B[:, :1] @ [[1.0, 2.0]], full.C,
                                full.D, "rank1")
        constraints, target = mimo_setup(2, 2)
        with pytest.raises(ComputationFailed, match="'rank1': singular"):
            run_nn_rssd(PlantSet((full, rank1)), constraints, target,
                        GaConfig(population=4, max_generations=0, seed=7),
                        GaConfig(population=4, max_generations=0, seed=11),
                        grid)

    def test_degenerate_singleton_uses_floor(self, grid):
        pset = PlantSet((StateSpacePlant.siso(1.0, 1.0, label="only"),))
        constraints, target = family_setup()
        scp = GaConfig(population=10, max_generations=5, seed=1)
        rssd = GaConfig(population=20, max_generations=50, seed=2)
        report = run_nn_rssd(pset, constraints, target, scp, rssd, grid)
        assert report.feasible
        assert report.j1_history[-1] == pytest.approx(1e-3)

    def test_floor_starts_one_inner_search(self, grid):
        # two copies of one plant give J1 = 0 < JBAR_FLOOR on every genome,
        # and no gain meets sigma_max = -100: after the one inner search at
        # the floor, no later genome starts another
        pset = PlantSet((StateSpacePlant.siso(1.0, label="a"),
                         StateSpacePlant.siso(1.0, label="b")))
        constraints, _ = family_setup()
        target = EigTarget((ModeTarget("real", 0.5, 30.0),), zeta_min=0.3,
                           sigma_max=-100.0)
        report = run_nn_rssd(pset, constraints, target,
                             GaConfig(population=6, max_generations=3, seed=7),
                             GaConfig(population=6, max_generations=3, seed=11),
                             grid)
        assert not report.feasible
        assert report.rssd_invocations == 1
        assert report.j1_history == [JBAR_FLOOR]
        assert report.rssd_generations == 3


def square_family(members=3):
    """2 x 2 members of order 4 with one RHP pole, each scaling every pole
    by 1 + 0.05 k; sigma_min of each stays above 0 dB at low frequency."""
    rng = np.random.default_rng(15)
    T, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    poles = np.array([0.5, -1.0, -2.0, -3.0])
    B, C = rng.normal(size=(4, 2)), 5.0 * rng.normal(size=(2, 4))
    return PlantSet(tuple(
        StateSpacePlant(T @ np.diag(poles * (1 + 0.05 * k)) @ T.T, B, C,
                        np.zeros((2, 2)), f"square{k}")
        for k in range(members)))


GAIN_SHA256 = "d17a1b33ed71eaa69b41b5bd1be9f862820a29aafcd444564055d3f77554f9d8"


def mimo_setup(m=3, r=5):
    static_gain = ((0.0, 0.0), (0.1, 1.5), (0.0, 0.0), (1.0, 1.0))  # a, b, c, d
    constraints = ScpConstraints(static_gain * m, static_gain * r,
                                 dc_floor_db=-60.0, band=(0.01, 0.02))
    # one eigenvector column per output: a real mode if r is odd, then pairs
    target = EigTarget((ModeTarget("real", 0.5, 10.0),) * (r % 2)
                       + (ModeTarget("complex", 0.5, 10.0),) * (r // 2),
                       zeta_min=0.3)
    return constraints, target


def dense_nu_gap_peak(p1, p2, omega):
    """max over omega of sigma_max (I + P2 P2*)^(-1/2) (P2 - P1) (I + P1* P1)^(-1/2),
    both responses evaluated in modal form."""
    def response(p):
        lam, V = np.linalg.eig(p.A)
        cv, vb = p.C @ V, np.linalg.solve(V, p.B)
        return (cv[None] / (1j * omega[:, None, None] - lam)) @ vb + p.D

    def inv_sqrt(H):
        w, U = np.linalg.eigh(H)
        return (U / np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(U, 1, 2))

    g1, g2 = response(p1), response(p2)
    g1h, g2h = np.conj(np.swapaxes(g1, 1, 2)), np.conj(np.swapaxes(g2, 1, 2))
    psi = (inv_sqrt(np.eye(p2.r) + g2 @ g2h) @ (g2 - g1)
           @ inv_sqrt(np.eye(p1.m) + g1h @ g1))
    return float(np.max(np.linalg.norm(psi, ord=2, axis=(1, 2))))


class TestTwoLevelSearch:
    """The real search: several J1bar updates and inner invocations before
    a certificate, on three members of the seeded MIMO family."""

    def test_feasible_after_several_inner_invocations(self):
        pset = mimo_family(1, 3)
        constraints, target = mimo_setup()
        scp = GaConfig(population=6, max_generations=4, seed=1)
        rssd = GaConfig(population=10, max_generations=10, seed=2)
        report = run_nn_rssd(pset, constraints, target, scp, rssd,
                             FrequencyGrid.default())
        assert report.feasible
        assert all(report.verification[k] for k in
                   ("assigned_eigenvalues", "all_in_S1",
                    "margin_exceeds_bound", "all_plants_stable"))
        assert report.rssd_invocations >= 2
        hist = report.j1_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

        # independent re-check of the certificate against a dense oracle
        K = report.gain
        augmented = [augment_plant(report.w_out, p, report.w_in) for p in pset]
        assert all(closed_loop(aug, K).stable for aug in augmented)
        p_cp = augmented[report.central_index]
        omega = np.concatenate([[0.0], np.logspace(-4, 6, 4000)])
        worst = max(dense_nu_gap_peak(p_cp, aug, omega) for aug in augmented)
        assert gsm(closed_loop(p_cp, K)) > worst

        # a change to the seeded trajectory has to be declared here
        assert K.shape == (3, 5)
        assert hashlib.sha256(K.tobytes()).hexdigest() == GAIN_SHA256


def two_level_search(pset):
    """``TestTwoLevelSearch``'s synthesis on ``pset``."""
    constraints, target = mimo_setup()
    return run_nn_rssd(pset, constraints, target,
                       GaConfig(population=6, max_generations=4, seed=1),
                       GaConfig(population=10, max_generations=10, seed=2),
                       FrequencyGrid.default())


def report_fields(report):
    """Every field of a report, the gain as its bytes."""
    return {**vars(report), "gain": report.gain.tobytes()}


class TestSearchRelations:
    """Relations the theory gives the whole synthesis, on
    ``TestTwoLevelSearch``'s flow: the family is a set, so neither the order
    of its members nor a repeated member changes the controller."""

    @pytest.fixture(scope="class")
    def base(self):
        pset = mimo_family(1, 3)
        return pset, two_level_search(pset)

    def test_member_permutation(self, base):
        # K is bit-identical and the central index follows its member; a
        # pair's nu-gap is taken with its members in index order, so J1
        # moves in the last bits (1.8e-15 relative, measured)
        pset, want = base
        perm = mimo_family(2, 3)
        got = two_level_search(perm)
        assert got.feasible and got.gain.tobytes() == want.gain.tobytes()
        assert got.central_index != want.central_index
        assert perm[got.central_index].label == pset[want.central_index].label
        np.testing.assert_allclose(got.j1_history, want.j1_history,
                                   rtol=1e-14, atol=0.0)

    def test_appended_duplicate_member(self, base, monkeypatch):
        # a genome failing the constraint check scores 1 + one reason per
        # member, so the relation holds where every check passes, as here.
        # A copy of a non-central member leaves the report identical; a copy
        # of the central one ties its row, which goes to the smaller index,
        # and moves J1 in the last bits only (its pairs' operands swap)
        pset, want = base
        passed = []

        def check(*args, _fn=rssd.nn_rssd.check_constraints):
            report = _fn(*args)
            passed.append(report.passed)
            return report

        monkeypatch.setattr(rssd.nn_rssd, "check_constraints", check)
        other = (want.central_index + 1) % len(pset)
        got = two_level_search(PlantSet(pset.plants + (pset[other],)))
        assert passed and all(passed)
        assert report_fields(got) == report_fields(want)

        got = two_level_search(PlantSet(pset.plants + (pset[want.central_index],)))
        assert all(passed)
        np.testing.assert_allclose(got.j1_history, want.j1_history,
                                   rtol=1e-14, atol=0.0)
        assert report_fields(got) == {**report_fields(want),
                                      "j1_history": got.j1_history}


class TestSpeculativeWork:
    def test_two_level_flow_adds_at_most_one_chunk_tail(self, monkeypatch):
        # chunks of the inner search compute norms only for the tail of the
        # chunk holding the certifying genome, beyond the norms of a search
        # that hands its fitness one genome per call
        norms, tails = [], []
        real_ga, real_norm = ga_minimize, rssd.nn_rssd.linf_norm

        def counted_norm(systems, poles=None):
            norms.append(len(systems))
            return real_norm(systems, poles)

        def chunked(fitness, boxes, cfg):
            def recorded(chunk):
                values, done = fitness(chunk)
                if done:
                    tails.append(len(chunk) - len(values))
                return values, done

            return real_ga(recorded, boxes, cfg)

        def one_at_a_time(fitness, boxes, cfg):
            def single(chunk):
                values = []
                for genes in chunk:
                    value, done = fitness(genes[None])
                    values += value
                    if done:
                        return values, True
                return values, False

            return real_ga(single, boxes, cfg)

        monkeypatch.setattr(rssd.nn_rssd, "linf_norm", counted_norm)
        monkeypatch.setattr(rssd.nn_rssd, "ga_minimize", chunked)
        got = two_level_search(mimo_family(1, 3))
        computed = sum(norms)
        del norms[:]
        monkeypatch.setattr(rssd.nn_rssd, "ga_minimize", one_at_a_time)
        want = two_level_search(mimo_family(1, 3))
        assert report_fields(got) == report_fields(want)
        # the inner search's last chunk ends first, then the outer's
        assert got.feasible and len(tails) == 2
        assert 0 < sum(norms) <= computed <= sum(norms) + tails[0]


class TestRefusals:
    # each input guard refuses with its own typed error
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: GaConfig(max_generations=-1), "max_generations",
                     id="negative-generations"),
        pytest.param(lambda: GaConfig(seed=None), "seed is required",
                     id="no-seed"),
        pytest.param(lambda: ga_minimize(lambda g: 0.0, [0.0, 1.0], GaConfig()),
                     "boxes must be", id="flat-boxes"),
        pytest.param(lambda: decode_rssd_genome(
            [1.0, 2.0], EigTarget((ModeTarget("real", 1.0, 2.0),), 0.5)),
                     "genome length", id="long-genome"),
        pytest.param(lambda: decode_rssd_genome(
            [1.0], EigTarget((ModeTarget("complex", 1.0, 2.0),), 0.5)),
                     "genome length", id="short-genome"),
    ])
    def test_refused(self, build, match):
        with pytest.raises(DimensionMismatch, match=match):
            build()
