"""Two-level genetic-algorithm synthesis driver.

The outer GA searches compensator coefficients to shrink the augmented
set's central-plant maximum nu-gap (J1).  Whenever a candidate beats the
running bound J1bar, the inner GA searches desired eigenvalues and
constrained eigenvector entries for a static output-feedback gain whose
closed-loop infinity norm J2 drops below 1/J1bar; that gain then
simultaneously stabilizes every plant in the augmented set with a
quantified nu-gap robustness ball around the central plant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigassign import (
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
    EmptySubspace,
    IllConditioned,
    IllPosedLoop,
    ImproperSection,
    OutOfBox,
    UnstableSection,
)
from .lti import CompensatorBank, FrequencyGrid, PlantSet, StateSpacePlant, augment_plant
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


def ga_minimize(fitness, boxes, config: GaConfig, stop=None) -> GaResult:
    """Box-constrained real-coded GA minimization.

    Elitism guarantees the best-so-far never worsens; runs are bit
    reproducible under a fixed seed.  ``fitness`` is called once per
    distinct genome of this run: elites and unchanged children reuse the
    stored value.  ``stop`` is polled after every individual so a caller
    can terminate mid-generation.
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
        fits = np.empty(pop.shape[0])
        for i, genes in enumerate(pop):
            key = genes.tobytes()
            if key not in scored:
                scored[key] = fitness(genes)
            fits[i] = scored[key]
            if fits[i] < best_fit:
                best_fit = float(fits[i])
                best_genes = genes.copy()
            if stop is not None and stop():
                history.append(best_fit)
                return GaResult(best_genes, best_fit, history, gen + 1)
        history.append(best_fit)

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


def rssd_boxes(target: EigTarget) -> np.ndarray:
    """Gene bound boxes for the eigenstructure search.

    Each mode is parametrized by natural frequency (and damping ratio for
    complex pairs), so every decode lands inside the admissible damping
    region by construction.
    """
    boxes = []
    for mode in target.modes:
        boxes.append((mode.wn_lo, mode.wn_hi))
        if mode.kind == "complex":
            boxes.append((target.zeta_min, 0.999))
        for e in mode.entries:
            boxes.append((e.re_lo, e.re_hi))
            if mode.kind == "complex":
                boxes.append((e.im_lo, e.im_hi))
    return np.asarray(boxes, dtype=float)


def decode_rssd_genome(genes, target: EigTarget) -> RssdGenome:
    genes = np.asarray(genes, dtype=float).ravel()
    eigenvalues, entry_values = [], []
    pos = 0
    for mode in target.modes:
        wn = genes[pos]
        pos += 1
        if mode.kind == "complex":
            zeta = genes[pos]
            pos += 1
            lam = complex(-zeta * wn, wn * np.sqrt(1.0 - zeta * zeta))
        else:
            lam = complex(-wn, 0.0)
        eigenvalues.append(lam)
        values = []
        for _ in mode.entries:
            re = genes[pos]
            pos += 1
            im = 0.0
            if mode.kind == "complex":
                im = genes[pos]
                pos += 1
            values.append(complex(re, im))
        entry_values.append(tuple(values))
    if pos != genes.size:
        raise DimensionMismatch("genome length does not match target layout")
    return RssdGenome(tuple(eigenvalues), tuple(entry_values))


def j2_fitness(p_cp: StateSpacePlant, genome: RssdGenome, target: EigTarget):
    """(J2, K) for one decoded genome, or (penalty, None) on any guard.

    Pipeline: allowable subspaces -> constrained vector selection ->
    K = W (CR)^(-1) under the condition-number guard -> full-spectrum
    damping-region check -> infinity norm of the 4-block operator, taken on
    its m-input factor (``ClosedLoop.factor``).
    """
    if target.sigma_max is not None:
        if any(l.real > target.sigma_max for l in genome.eigenvalues):
            return PENALTY, None
    try:
        subs = [allowable_subspace(p_cp.A, p_cp.B, lam)
                for lam in genome.eigenvalues]
        W, R = select_vectors(subs, target, genome.entry_values)
        K = compute_gain(W, R, p_cp.C)
        cl = closed_loop(p_cp, K)
        if not in_S1(cl.eigenvalues, target) or not cl.stable:
            return PENALTY, None
        norm, _ = linf_norm(cl.factor, cl.eigenvalues)
    except (EmptySubspace, BoundViolation, IllConditioned, IllPosedLoop,
            ComputationFailed, np.linalg.LinAlgError):
        return PENALTY, None
    if not np.isfinite(norm):
        return PENALTY, None
    return float(norm), K


# --- driver -----------------------------------------------------------------

@dataclass
class SynthesisReport:
    feasible: bool
    gain: np.ndarray | None
    w_in: CompensatorBank | None
    w_out: CompensatorBank | None
    j1_history: list
    j2: float | None
    cp_index: int | None
    desired_eigenvalues: tuple | None
    verification: dict
    scp_generations: int
    rssd_invocations: int
    rssd_generations: int
    seeds: dict


def verify_lemma(pset: PlantSet, w_in, w_out, K, p_cp, desired, target,
                 jbar) -> dict:
    """Independent re-verification of the three feasibility conditions plus
    the explicit per-plant eigenvalue stability check; an ill-posed
    augmented loop counts as not stable."""
    cl = closed_loop(p_cp, K)
    cl_eigs = cl.eigenvalues
    assigned_ok = all(
        np.min(np.abs(cl_eigs - lam)) < 1e-6 for lam in _with_conjugates(desired)
    )
    s1_ok = in_S1(cl_eigs, target)
    margin = gsm(cl)
    margin_ok = margin > jbar
    all_stable = True
    for plant in pset:
        aug = augment_plant(w_out, plant, w_in)
        try:
            stable = closed_loop(aug, K).stable
        except IllPosedLoop:
            stable = False
        all_stable = all_stable and stable
    return {
        "assigned_eigenvalues": bool(assigned_ok),
        "all_in_S1": bool(s1_ok),
        "margin_exceeds_bound": bool(margin_ok),
        "margin": float(margin),
        "all_plants_stable": bool(all_stable),
    }


def _with_conjugates(eigenvalues):
    out = []
    for lam in eigenvalues:
        out.append(lam)
        if lam.imag != 0.0:
            out.append(lam.conjugate())
    return out


def run_nn_rssd(pset: PlantSet, constraints: ScpConstraints, target: EigTarget,
                scp_cfg: GaConfig, rssd_cfg: GaConfig,
                grid: FrequencyGrid) -> SynthesisReport:
    """Full two-level synthesis; infeasibility is a report state, not an error."""
    constraints.require_banks(pset.m, pset.r)
    target.require_outputs(pset.r)
    # every genome reuses each member's poles, zeros and response; J1bar0
    # is J1 under the identity banks the members start under
    members = [sampled_member(p, grid) for p in pset]
    jbar0 = max(j1_fitness(members, grid)[0], JBAR_FLOOR)
    state = {
        "jbar": jbar0,
        "history": [],
        "result": None,
        "rssd_gens": 0,
    }
    inner_boxes = rssd_boxes(target)

    def run_inner(p_cp, cp_idx, w_in, w_out):
        target.require_states(p_cp.n)
        # each J1bar drop appends to the history and starts one invocation
        inner_seed = int(np.random.SeedSequence(
            [rssd_cfg.seed, len(state["history"])]).generate_state(1)[0])
        cfg = replace(rssd_cfg, seed=inner_seed)
        jbar = state["jbar"]
        hit = {}

        def inner_fitness(genes):
            genome = decode_rssd_genome(genes, target)
            j2, K = j2_fitness(p_cp, genome, target)
            if K is not None and j2 < 1.0 / jbar and "K" not in hit:
                hit.update(j2=j2, K=K, eigenvalues=genome.eigenvalues)
            return j2

        res = ga_minimize(inner_fitness, inner_boxes, cfg,
                          stop=lambda: "K" in hit)
        state["rssd_gens"] += res.generations
        if "K" in hit:
            state["result"] = {**hit, "w_in": w_in, "w_out": w_out,
                               "p_cp": p_cp, "cp_index": cp_idx, "jbar": jbar}

    def scp_fitness(genes):
        try:
            w_in, w_out = decode_banks(genes, constraints)
        except (OutOfBox, ImproperSection, UnstableSection):
            return 2.0
        augmented = augment(w_in, w_out, members)
        report = check_constraints(augmented, constraints)
        if not report.passed:
            return 1.0 + len(report.reasons)
        j1, cp_idx, p_cp = j1_fitness(augmented, grid)
        if j1 < state["jbar"]:
            state["jbar"] = max(j1, JBAR_FLOOR)
            state["history"].append(state["jbar"])
            run_inner(p_cp, cp_idx, w_in, w_out)
        return j1

    outer = ga_minimize(scp_fitness, np.asarray(constraints.boxes, float),
                        scp_cfg, stop=lambda: state["result"] is not None)

    res = state["result"] or {}
    verification = {} if not res else verify_lemma(
        pset, res["w_in"], res["w_out"], res["K"], res["p_cp"],
        res["eigenvalues"], target, res["jbar"])
    return SynthesisReport(
        feasible=bool(res) and all(v for k, v in verification.items()
                                   if k != "margin"),
        gain=res.get("K"), w_in=res.get("w_in"), w_out=res.get("w_out"),
        j1_history=state["history"], j2=res.get("j2"),
        cp_index=res.get("cp_index"), desired_eigenvalues=res.get("eigenvalues"),
        verification=verification, scp_generations=outer.generations,
        rssd_invocations=len(state["history"]),
        rssd_generations=state["rssd_gens"],
        seeds={"scp": scp_cfg.seed, "rssd": rssd_cfg.seed},
    )
