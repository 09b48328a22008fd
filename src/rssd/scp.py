"""Pre/post compensator parameterization, loop-shaping constraints, and the
J1 fitness (maximum nu-gap of the augmented set's central plant).

Compensator sections are first-order proper stable rational functions
matching the shape of the realized solutions; the genome of the outer GA
is the flat list of their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfBox
from .lti import (
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    augment_plant,
    eval_response,
)
from .vgap import central_plant


@dataclass(frozen=True)
class BankTemplate:
    """Gene layout for one diagonal bank: 4 coefficients per section."""

    side: str
    sections: int

    @property
    def genes(self) -> int:
        return 4 * self.sections


@dataclass(frozen=True)
class ScpConstraints:
    """Loop-shaping constraints on the augmented plants.

    coefficient boxes are (lo, hi) pairs, flat per gene, covering the
    input bank first then the output bank.
    """

    in_boxes: tuple
    out_boxes: tuple
    dc_floor_db: float
    band: tuple
    cancellation_tol: float = 1e-4

    def __post_init__(self):
        lo, hi = self.band
        if not (0 <= lo < hi):
            raise DimensionMismatch("crossover band must satisfy 0 <= lo < hi")
        if not np.isfinite(self.dc_floor_db):
            raise DimensionMismatch("DC floor must be finite")
        object.__setattr__(self, "in_boxes",
                           tuple((float(a), float(b)) for a, b in self.in_boxes))
        object.__setattr__(self, "out_boxes",
                           tuple((float(a), float(b)) for a, b in self.out_boxes))

    @property
    def boxes(self) -> tuple:
        return self.in_boxes + self.out_boxes


@dataclass(frozen=True)
class ConstraintReport:
    passed: bool
    reasons: tuple


def decode_bank(genes, template: BankTemplate, boxes) -> CompensatorBank:
    """Genome slice -> compensator bank; invariant-violating decodes reject."""
    genes = np.asarray(genes, dtype=float).ravel()
    if genes.size != template.genes:
        raise DimensionMismatch(
            f"expected {template.genes} genes for {template.sections} sections"
        )
    boxes = tuple(boxes)
    if len(boxes) != genes.size:
        raise DimensionMismatch("one (lo, hi) box required per gene")
    for g, (lo, hi) in zip(genes, boxes):
        if not lo <= g <= hi:
            raise OutOfBox(f"gene {g:.6g} outside [{lo}, {hi}]")
    sections = []
    for i in range(template.sections):
        a, b, c, d = genes[4 * i:4 * i + 4]
        sec = FirstOrderSection(a, b, c, d)  # may raise ImproperSection
        sec.require_stable()
        sections.append(sec)
    return CompensatorBank(tuple(sections), template.side)


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


def check_constraints(w_in: CompensatorBank, w_out: CompensatorBank,
                      pset: PlantSet, constraints: ScpConstraints,
                      grid: FrequencyGrid) -> ConstraintReport:
    """Loop-shaping and cancellation checks on every augmented plant.

    Passes iff (i) each augmented plant clears the DC floor on its smallest
    singular value, (ii) sigma_min stays above 0 dB throughout the
    crossover band, and (iii) no compensator pole or zero sits within the
    cancellation tolerance of any plant pole or transmission zero.
    """
    reasons = []
    lo, hi = constraints.band
    band_grid = grid.with_points([max(lo, 1e-12), hi])
    in_band = (band_grid.points >= lo) & (band_grid.points <= hi)
    floor = 10.0 ** (constraints.dc_floor_db / 20.0)

    in_poles, in_zeros = _bank_poles_zeros(w_in)
    out_poles, out_zeros = _bank_poles_zeros(w_out)
    c_poles = np.concatenate([in_poles, out_poles])
    c_zeros = np.concatenate([in_zeros, out_zeros])

    for idx, plant in enumerate(pset):
        aug = augment_plant(w_out, plant, w_in)
        resp0 = eval_response(aug, np.array([0.0 + 0.0j]))[0]
        smin0 = np.linalg.svd(resp0, compute_uv=False)[-1]
        if not smin0 > floor:
            reasons.append(
                f"plant {idx}: sigma_min at DC {20*np.log10(max(smin0,1e-300)):.2f} dB"
                f" <= floor {constraints.dc_floor_db:.2f} dB"
            )
        resp = eval_response(aug, 1j * band_grid.points[in_band])
        smin = np.linalg.svd(resp, compute_uv=False)[:, -1]
        if np.any(smin <= 1.0):
            w_bad = band_grid.points[in_band][int(np.argmin(smin))]
            reasons.append(
                f"plant {idx}: sigma_min <= 0 dB inside band near {w_bad:.4g} rad/s"
            )
        p_poles = np.linalg.eigvals(plant.A) if plant.n else np.array([])
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


def j1_fitness(w_in: CompensatorBank, w_out: CompensatorBank, pset: PlantSet,
               grid: FrequencyGrid):
    """(J1, central index, augmented central plant) for the augmented set."""
    augmented = PlantSet(tuple(augment_plant(w_out, p, w_in) for p in pset))
    result = central_plant(augmented, grid)
    return result.epsilon, result.index, augmented[result.index]
