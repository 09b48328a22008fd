"""Pre/post compensator parameterization, loop-shaping constraints, and the
J1 fitness (maximum nu-gap of the augmented set's central plant).

Compensator sections are first-order proper stable rational functions
matching the shape of the realized solutions; the genome of the outer GA
is the flat list of their coefficients, (a, b, c, d) per section, input
bank first (``decode_banks``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationFailed, DimensionMismatch, OutOfBox
from .lti import (
    IMAG_AXIS_RTOL,
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    augment_plant,
    eval_response,
    realize_bank,
)
from .margins import crossings
from .vgap import SampledPlant, central_plant, sample

FEEDTHROUGH_TOL = 1e-6  # |1 - s^2| of a singular value s of D: H(1) undecided
BAND_EDGE_RTOL = 1e-9  # a crossing this close outside the band is on its edge
ORIGIN_OMEGA = 1e-12  # w -> 0+ for DC and lo = 0 when a pole sits at the origin


@dataclass(frozen=True)
class ScpConstraints:
    """Loop-shaping constraints on the augmented plants.

    coefficient boxes are (lo, hi) pairs, flat per gene, four (a, b, c, d)
    per section, covering the input bank first then the output bank.
    """

    in_boxes: tuple
    out_boxes: tuple
    dc_floor_db: float
    band: tuple
    cancellation_tol: float = 1e-4

    def __post_init__(self):
        lo, hi = self.band
        if not (0 <= lo < hi < np.inf):
            raise DimensionMismatch("crossover band must satisfy 0 <= lo < hi < inf")
        if not np.isfinite(self.dc_floor_db):
            raise DimensionMismatch("DC floor must be finite")
        if not 0 <= self.cancellation_tol < np.inf:
            raise DimensionMismatch("cancellation tolerance must be finite and >= 0")
        for name in ("in_boxes", "out_boxes"):
            boxes = tuple((float(a), float(b)) for a, b in getattr(self, name))
            if not all(-np.inf < a <= b < np.inf for a, b in boxes):
                raise DimensionMismatch("coefficient boxes must be finite "
                                        "(lo, hi) with lo <= hi")
            if len(boxes) % 4:
                raise DimensionMismatch(f"{name}: 4 boxes per section")
            object.__setattr__(self, name, boxes)

    @property
    def boxes(self) -> tuple:
        return self.in_boxes + self.out_boxes

    def require_banks(self, m: int, r: int):
        """DimensionMismatch unless the boxes lay out an m-section input bank
        and an r-section output bank."""
        if (len(self.in_boxes), len(self.out_boxes)) != (4 * m, 4 * r):
            raise DimensionMismatch("coefficient boxes do not match bank layout")


@dataclass(frozen=True)
class ConstraintReport:
    passed: bool
    reasons: tuple


def decode_banks(genes, constraints: ScpConstraints):
    """Outer genome -> (w_in, w_out); a gene outside its box, an improper
    section or an unstable one rejects the genome."""
    genes = np.asarray(genes, dtype=float).ravel()
    boxes = constraints.boxes
    if genes.size != len(boxes):
        raise DimensionMismatch(f"expected {len(boxes)} genes, got {genes.size}")
    for g, (lo, hi) in zip(genes, boxes):
        if not lo <= g <= hi:
            raise OutOfBox(f"gene {g:.6g} outside [{lo}, {hi}]")
    sections = []
    for a, b, c, d in genes.reshape(-1, 4):
        sec = FirstOrderSection(a, b, c, d)  # may raise ImproperSection
        sec.require_stable()
        sections.append(sec)
    k = len(constraints.in_boxes) // 4
    return (CompensatorBank(tuple(sections[:k]), "in"),
            CompensatorBank(tuple(sections[k:]), "out"))


def transmission_zeros(plant: StateSpacePlant) -> np.ndarray:
    """Finite transmission zeros via the system-pencil generalized eigenproblem.

    Only defined for square plants; non-square plants return an empty set.
    The QZ solve is scipy's, imported here on the first square plant: it
    is rssd's only use of scipy, and importing rssd then loads numpy only.
    """
    if plant.m != plant.r or plant.n == 0:
        return np.array([], dtype=complex)
    from scipy.linalg import eig as generalized_eig

    n = plant.n
    pencil_a = np.block([[plant.A, plant.B], [plant.C, plant.D]])
    pencil_b = np.zeros_like(pencil_a)
    pencil_b[:n, :n] = np.eye(n)
    vals = generalized_eig(pencil_a, pencil_b, right=False)
    return vals[np.isfinite(vals)]


def _bank_poles_zeros(bank: CompensatorBank):
    poles, zeros = [], []
    for s in bank.sections:
        if not s.is_static:
            poles.append(s.pole)
        if s.zero is not None:
            zeros.append(s.zero)
    return np.asarray(poles, float), np.asarray(zeros, float)


def _near(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _band_violation(aug: StateSpacePlant, lo: float, hi: float,
                    smin_lo: float) -> str | None:
    """Why sigma_min(aug(jw)) > 1 fails on [lo, hi], or None: it holds iff it
    holds at lo and no singular value ``crossings`` 1 in the band (none can
    while sigma_min > 1).  An undecided band is a violation, never a pass."""
    if not smin_lo > 1.0:
        return f"sigma_min <= 0 dB inside band near {lo:.4g} rad/s"
    if aug.n == 0:
        return None
    s2 = np.linalg.svd(aug.D, compute_uv=False) ** 2
    if np.any(np.abs(1.0 - s2) <= FEEDTHROUGH_TOL):
        return "band undecided: a feedthrough singular value is 0 dB"
    try:
        w = crossings(aug, 1.0)
    except ComputationFailed as exc:
        return f"band undecided: {exc}"
    w = w[(w >= lo * (1.0 - BAND_EDGE_RTOL)) & (w <= hi * (1.0 + BAND_EDGE_RTOL))]
    return f"sigma_min <= 0 dB inside band near {w[0]:.4g} rad/s" if w.size else None


def check_constraints(w_in: CompensatorBank, w_out: CompensatorBank,
                      pset: PlantSet, constraints: ScpConstraints) -> ConstraintReport:
    """Loop-shaping and cancellation checks on every augmented plant.

    Passes iff (i) each augmented plant clears the DC floor on its smallest
    singular value, (ii) sigma_min stays above 0 dB on the whole crossover
    band (exactly, see ``_band_violation``), and (iii) no compensator pole or
    zero is within cancellation tolerance of a plant pole or transmission zero.
    """
    reasons = []
    lo, hi = constraints.band
    floor = 10.0 ** (constraints.dc_floor_db / 20.0)

    in_poles, in_zeros = _bank_poles_zeros(w_in)
    out_poles, out_zeros = _bank_poles_zeros(w_out)
    c_poles = np.concatenate([in_poles, out_poles])
    c_zeros = np.concatenate([in_zeros, out_zeros])

    for idx, plant in enumerate(pset):
        aug = augment_plant(w_out, plant, w_in)
        p_poles = np.linalg.eigvals(plant.A) if plant.n else np.array([])
        origin = np.abs(np.append(p_poles, c_poles)) <= IMAG_AXIS_RTOL  # aug's poles
        w0 = ORIGIN_OMEGA if np.any(origin) else 0.0
        resp = eval_response(aug, 1j * np.array([w0, max(lo, w0)]))
        smin0, smin_lo = np.linalg.svd(resp, compute_uv=False)[:, -1]
        if not smin0 > floor:
            reasons.append(
                f"plant {idx}: sigma_min at DC {20*np.log10(max(smin0,1e-300)):.2f} dB"
                f" <= floor {constraints.dc_floor_db:.2f} dB"
            )
        band = _band_violation(aug, lo, hi, smin_lo)
        if band is not None:
            reasons.append(f"plant {idx}: {band}")
        p_zeros = transmission_zeros(plant)
        tol = constraints.cancellation_tol
        for cz in c_zeros:
            if any(_near(cz, pp, tol) for pp in p_poles):
                reasons.append(
                    f"plant {idx}: compensator zero {cz:.6g} cancels a plant pole"
                )
        for cp in c_poles:
            if any(_near(cp, pz, tol) for pz in p_zeros):
                reasons.append(
                    f"plant {idx}: compensator pole {cp:.6g} cancels a plant zero"
                )
    return ConstraintReport(len(reasons) == 0, tuple(reasons))


def j1_fitness(w_in: CompensatorBank, w_out: CompensatorBank, members,
               grid: FrequencyGrid):
    """(J1, central index, augmented central plant) for the augmented set
    {W_out P_i W_in}.

    ``members`` are the raw plants P_i, a PlantSet or a sequence whose
    entries may already be sampled on ``grid`` (``vgap.sample``), as
    ``run_nn_rssd`` passes them, so that only the banks' work is redone per
    genome.  Each augmented member's grid response is the product
    W_out(jw) P_i(jw) W_in(jw) of the banks' responses and the member's;
    its ``augment_plant`` realization gives the pole counts, the winding
    test and the responses off the grid.
    """
    s = 1j * grid.points
    # the banks are diagonal: scale P_i's rows and columns by their entries
    post = np.diagonal(eval_response(realize_bank(w_out), s), axis1=1, axis2=2)
    pre = np.diagonal(eval_response(realize_bank(w_in), s), axis1=1, axis2=2)
    augmented = []
    for p in members:
        raw = sample(p, grid)
        aug = augment_plant(w_out, raw.plant, w_in)
        response = post[:, :, None] * raw.response * pre[:, None, :]
        augmented.append(SampledPlant.of(aug, grid, response))
    result = central_plant(augmented, grid)
    return result.epsilon, result.index, augmented[result.index].plant
