"""Two-level genetic-algorithm synthesis driver.

The outer GA searches compensator coefficients to shrink the augmented
set's central-plant maximum nu-gap (J1).  Whenever a candidate beats the
running bound J1bar, the inner GA searches desired eigenvalues and
constrained eigenvector entries for a static output-feedback gain whose
closed-loop infinity norm J2 drops below 1/J1bar; that gain then
simultaneously stabilizes every plant in the augmented set with a
quantified nu-gap robustness ball around the central plant.

``ga_minimize`` hands its fitness chunks of a generation's unscored
genomes.  The inner fitness scores a chunk with one ``j2_fitness`` call,
whose norms are one stacked ``linf_norm``; the outer one scores genome by
genome, since each genome may start an inner search.  Chunks start at one
genome and at most double, so a search that certifies on its first genome
(the three-plant fixture) computes no norm it does not use, and a long one
at most one chunk's tail beyond its certifying genome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .eigassign import (
    ZETA_MAX,
    EigTarget,
    allowable_subspace,
    compute_gain,
    in_S1,
    select_vectors,
)
from .errors import (
    BoundViolation,
    ComputationFailed,
    DimensionMismatch,
    IllConditioned,
    IllPosedLoop,
    ImproperSection,
    OutOfBox,
    UnstableSection,
)
from .lti import CompensatorBank, FrequencyGrid, PlantSet, StateSpacePlant
from .margins import closed_loop, gsm, linf_norm
from .scp import (
    ScpConstraints,
    augment,
    check_constraints,
    decode_banks,
    j1_fitness,
    sampled_member,
)

PENALTY = 1e18
JBAR_FLOOR = 1e-3  # keeps the feasibility test J2 < 1/J1bar satisfiable at eps=0

# GA operators: tournament selection, BLX-alpha crossover, Gaussian mutation
# scaled by the box width, and elites carried over unchanged
TOURNAMENT = 3
CROSSOVER_PROB = 0.8
BLEND_ALPHA = 0.5
MUTATION_PROB = 0.1
MUTATION_SCALE = 0.1
ELITES = 2


@dataclass(frozen=True)
class GaConfig:
    """Budget of the real-coded GA; seed is mandatory for reproducibility."""

    population: int = 50
    max_generations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:  # keeps ELITES below the population
            raise DimensionMismatch("population must be >= 4")
        if self.max_generations < 0:
            raise DimensionMismatch("max_generations must be >= 0")
        if self.seed is None:
            raise DimensionMismatch("seed is required")
        if self.seed < 0:
            raise DimensionMismatch(f"seed must be >= 0, got {self.seed}")


@dataclass
class GaResult:
    best_genes: np.ndarray
    best_fitness: float
    history: list
    generations: int


def ga_minimize(fitness, boxes, config: GaConfig) -> GaResult:
    """Box-constrained real-coded GA minimization.

    Elitism guarantees the best-so-far never worsens; runs are bit
    reproducible under a fixed seed.  Each distinct genome of this run is
    scored once: elites and unchanged children reuse the stored value.

    ``fitness`` takes a chunk of genomes, the rows of an array, and returns
    ``(fits, done)``: the fitness of each genome of the chunk, or of a
    prefix of it when ``done``, which ends the run after the prefix's last
    genome.  A chunk holds distinct unscored genomes of one generation, in
    population order.  The first chunk of a run holds one genome and no
    later one more than the run has scored, so a run that ends on its first
    genome scores no other, and a long one hands most of a generation per
    call.  Best tracking, ``history`` and ``generations`` are those of
    scoring one genome at a time in population order.
    """
    boxes = np.asarray(boxes, dtype=float)
    if boxes.ndim != 2 or boxes.shape[1] != 2 or boxes.size == 0:
        raise DimensionMismatch("boxes must be a nonempty (k, 2) array")
    lo, hi = boxes[:, 0], boxes[:, 1]
    k = boxes.shape[0]
    rng = np.random.default_rng(config.seed)
    pop = rng.uniform(lo, hi, size=(config.population, k))

    best_genes, best_fit = None, np.inf
    history = []
    scored = {}  # genes.tobytes() -> fitness, for this call only

    for gen in range(config.max_generations):
        keys = [genes.tobytes() for genes in pop]
        first = {}  # each unscored genome's first population index
        for i, key in enumerate(keys):
            if key not in scored:
                first.setdefault(key, i)
        fresh, end, done = list(first), len(pop), False
        while fresh and not done:
            chunk = fresh[:max(1, len(scored))]
            values, done = fitness(pop[[first[key] for key in chunk]])
            scored.update(zip(chunk, values))
            if done:
                end = first[chunk[len(values) - 1]] + 1
            del fresh[:len(chunk)]
        fits = np.array([scored[key] for key in keys[:end]], dtype=float)
        for i in range(end):
            if fits[i] < best_fit:
                best_fit = float(fits[i])
                best_genes = pop[i].copy()
        history.append(best_fit)
        if done:
            return GaResult(best_genes, best_fit, history, gen + 1)

        order = np.argsort(fits, kind="stable")
        elites = pop[order[:ELITES]].copy()
        children = [*elites]
        while len(children) < pop.shape[0]:
            pa = _tournament(rng, fits)
            pb = _tournament(rng, fits)
            ca, cb = pop[pa].copy(), pop[pb].copy()
            if rng.random() < CROSSOVER_PROB:
                ca, cb = _blend(rng, pop[pa], pop[pb], lo, hi)
            for child in (ca, cb):
                _mutate(rng, child, lo, hi)
                if len(children) < pop.shape[0]:
                    children.append(child)
        pop = np.asarray(children)

    return GaResult(best_genes, best_fit, history, config.max_generations)


def _tournament(rng, fits):
    idx = rng.integers(0, fits.size, size=TOURNAMENT)
    return idx[np.argmin(fits[idx])]


def _blend(rng, pa, pb, lo, hi):
    low = np.minimum(pa, pb)
    high = np.maximum(pa, pb)
    span = high - low
    a = low - BLEND_ALPHA * span
    b = high + BLEND_ALPHA * span
    ca = rng.uniform(a, b)
    cb = rng.uniform(a, b)
    return np.clip(ca, lo, hi), np.clip(cb, lo, hi)


def _mutate(rng, child, lo, hi):
    mask = rng.random(child.size) < MUTATION_PROB
    noise = rng.normal(0.0, 1.0, size=child.size)
    child += mask * noise * MUTATION_SCALE * (hi - lo)
    np.clip(child, lo, hi, out=child)


# --- inner (eigenstructure) genome ------------------------------------------

@dataclass(frozen=True)
class RssdGenome:
    """Decoded inner-GA individual: desired eigenvalues and entry values."""

    eigenvalues: tuple
    entry_values: tuple


def _mode_boxes(mode, zeta_min: float) -> list:
    """One mode's gene boxes in ``mode.width``-gene slots: the natural
    frequency (then the damping ratio of a pair), then each constrained
    entry's real (then imaginary) part."""
    slots = [((mode.wn_lo, mode.wn_hi), (zeta_min, ZETA_MAX))]
    slots += [((e.re_lo, e.re_hi), (e.im_lo, e.im_hi)) for e in mode.entries]
    return [box for slot in slots for box in slot[:mode.width]]


def rssd_boxes(target: EigTarget) -> np.ndarray:
    """Gene bound boxes for the eigenstructure search.

    Each mode is parametrized by natural frequency (and damping ratio for
    complex pairs), so every decode lands inside the admissible damping
    region by construction.
    """
    return np.asarray([box for mode in target.modes
                       for box in _mode_boxes(mode, target.zeta_min)],
                      dtype=float)


def decode_rssd_genome(genes, target: EigTarget) -> RssdGenome:
    """Desired eigenvalues and entry values from genes in ``_mode_boxes``'
    slots, one mode after the other."""
    flat = np.asarray(genes, dtype=float).ravel().tolist()
    if len(flat) != sum(m.width * (1 + len(m.entries)) for m in target.modes):
        raise DimensionMismatch("genome length does not match target layout")
    genes = iter(flat)
    eigenvalues, entry_values = [], []
    for mode in target.modes:
        # a real pole is a pair's formula at zeta = 1
        wn, zeta = (*islice(genes, mode.width), 1.0)[:2]
        eigenvalues.append(complex(-zeta * wn, wn * math.sqrt(1.0 - zeta * zeta)))
        entry_values.append(tuple(complex(*islice(genes, mode.width))
                                  for _ in mode.entries))
    return RssdGenome(tuple(eigenvalues), tuple(entry_values))


def j2_fitness(p_cp: StateSpacePlant, genomes, target: EigTarget):
    """(J2s, gains) for a chunk of decoded genomes: each genome's J2 and K,
    or (PENALTY, None) where a guard refuses it.

    Per genome: allowable subspaces -> constrained vector selection ->
    K = W (CR)^(-1) under the condition-number guard -> full-spectrum
    damping-region check.  Then one ``linf_norm`` call over the loops that
    pass takes the infinity norm of each one's 4-block operator, on its
    m-input factor (``ClosedLoop.factor``); a norm that fails is a guard.
    """
    j2s, gains = [PENALTY] * len(genomes), [None] * len(genomes)
    loops = {}  # genome index -> (K, factor, poles) of a loop past every guard
    for i, genome in enumerate(genomes):
        if target.sigma_max is not None and not in_S1(genome.eigenvalues, target):
            continue
        try:
            subs = [allowable_subspace(p_cp.A, p_cp.B, lam)
                    for lam in genome.eigenvalues]
            W, R = select_vectors(subs, target, genome.entry_values)
            K = compute_gain(W, R, p_cp.C)
            cl = closed_loop(p_cp, K)
            if in_S1(cl.eigenvalues, target):
                loops[i] = (K, cl.factor, cl.eigenvalues)
        except (BoundViolation, IllConditioned, IllPosedLoop, ComputationFailed,
                np.linalg.LinAlgError):
            continue
    if loops:
        Ks, factors, poles = zip(*loops.values())
        # finite: in_S1 holds no eigenvalue on the axis
        for i, K, norm in zip(loops, Ks, linf_norm(factors, poles)):
            if not isinstance(norm, ComputationFailed):
                j2s[i], gains[i] = float(norm[0]), K
    return j2s, gains


# --- driver -----------------------------------------------------------------

@dataclass
class SynthesisReport:
    """One synthesis, field for field the keys of synthesis_report.json; the
    certificate's fields keep their defaults when no inner search met
    J2 < 1/J1bar."""

    j1_history: list
    scp_generations: int
    rssd_invocations: int
    rssd_generations: int
    seeds: dict
    feasible: bool = False
    gain: np.ndarray | None = None
    w_in: CompensatorBank | None = None
    w_out: CompensatorBank | None = None
    j2: float | None = None
    central_index: int | None = None
    desired_eigenvalues: tuple | None = None
    verification: dict = field(default_factory=dict)


def verify_lemma(plants, cp_index: int, K, desired, target, jbar) -> dict:
    """Independent re-verification, on the augmented set ``plants``, of the
    three feasibility conditions at the central plant ``plants[cp_index]``
    plus the explicit stability check of every loop; an ill-posed loop
    counts as not stable."""
    cl = closed_loop(plants[cp_index], K)
    # a real matrix's spectrum holds each pair's conjugate bit for bit, so
    # the conjugates of the desired eigenvalues need no check of their own
    assigned_ok = all(np.min(np.abs(cl.eigenvalues - lam)) < 1e-6 for lam in desired)
    margin = gsm(cl)
    all_stable = True
    for plant in plants:
        try:
            all_stable &= closed_loop(plant, K).stable
        except IllPosedLoop:
            all_stable = False
    return {
        "assigned_eigenvalues": bool(assigned_ok),
        "all_in_S1": bool(in_S1(cl.eigenvalues, target)),
        "margin_exceeds_bound": bool(margin > jbar),
        "margin": float(margin),
        "all_plants_stable": bool(all_stable),
    }


def run_inner(p_cp: StateSpacePlant, target: EigTarget, jbar: float, cfg: GaConfig):
    """One inner search at the central plant ``p_cp``: the generations it
    ran and the (J2, K, desired eigenvalues) of its first genome with
    J2 < 1/jbar, or None."""
    target.require_states(p_cp.n)
    found = []

    def fitness(chunk):
        # everything up to and including the first genome that meets the bound
        genomes = [decode_rssd_genome(genes, target) for genes in chunk]
        j2s, gains = j2_fitness(p_cp, genomes, target)
        for i, (j2, K) in enumerate(zip(j2s, gains)):
            if K is not None and j2 < 1.0 / jbar:
                found.append((j2, K, genomes[i].eigenvalues))
                return j2s[:i + 1], True
        return j2s, False

    res = ga_minimize(fitness, rssd_boxes(target), cfg)
    return res.generations, (found[0] if found else None)


def run_nn_rssd(pset: PlantSet, constraints: ScpConstraints, target: EigTarget,
                scp_cfg: GaConfig, rssd_cfg: GaConfig,
                grid: FrequencyGrid) -> SynthesisReport:
    """Full two-level synthesis; infeasibility is a report state, not an error."""
    constraints.require_banks(pset.m, pset.r)
    target.require_outputs(pset.r)
    # every genome reuses each member's poles, zeros and response; J1bar0
    # is J1 under the identity banks the members start under
    members = [sampled_member(p, grid) for p in pset]
    jbar = [max(j1_fitness(members, grid)[0], JBAR_FLOOR)]  # J1bar0, then each drop
    inner_gens = []  # one entry per inner invocation
    certificate = None  # (augmented members, central index, J1bar, J2, K, eigenvalues)

    def scp_fitness(chunk):
        # one genome at a time: a certificate ends the search at its genome
        fits = []
        for genes in chunk:
            fits.append(scp_score(genes))
            if certificate is not None:
                return fits, True
        return fits, False

    def scp_score(genes):
        nonlocal certificate
        try:
            w_in, w_out = decode_banks(genes, constraints)
        except (OutOfBox, ImproperSection, UnstableSection):
            return 2.0
        augmented = augment(w_in, w_out, members)
        report = check_constraints(augmented, constraints)
        if not report.passed:
            return 1.0 + len(report.reasons)
        j1, cp_idx = j1_fitness(augmented, grid)
        # each J1bar drop starts one inner search, and none follows one at the floor
        if j1 < jbar[-1] and not (len(jbar) > 1 and jbar[-1] == JBAR_FLOOR):
            jbar.append(max(j1, JBAR_FLOOR))
            inner_seed = int(np.random.SeedSequence(
                [rssd_cfg.seed, len(jbar) - 1]).generate_state(1)[0])
            generations, hit = run_inner(augmented[cp_idx].augmented, target,
                                         jbar[-1], replace(rssd_cfg, seed=inner_seed))
            inner_gens.append(generations)
            if hit is not None:
                certificate = (augmented, cp_idx, jbar[-1], *hit)
        return j1

    outer = ga_minimize(scp_fitness, np.asarray(constraints.boxes, float), scp_cfg)
    report = SynthesisReport(jbar[1:], outer.generations, len(inner_gens), sum(inner_gens),
                             {"scp": scp_cfg.seed, "rssd": rssd_cfg.seed})
    if certificate is None:
        return report
    augmented, cp_idx, bound, j2, K, eigenvalues = certificate
    verification = verify_lemma([m.augmented for m in augmented], cp_idx, K,
                                eigenvalues, target, bound)
    w_in, w_out = augmented[0].banks
    return replace(report, gain=K, w_in=w_in, w_out=w_out, j2=j2, central_index=cp_idx,
                   desired_eigenvalues=eigenvalues, verification=verification,
                   feasible=all(v for k, v in verification.items() if k != "margin"))
