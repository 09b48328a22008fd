"""Pre/post compensator parameterization, loop-shaping constraints, and the
J1 fitness (maximum nu-gap of the augmented set's central plant).

Compensator sections are first-order proper stable rational functions
matching the shape of the realized solutions; the genome of the outer GA
is the flat list of their coefficients, (a, b, c, d) per section, input
bank first (``decode_banks``).  What no genome changes of a member, its
poles, transmission zeros and grid response, a synthesis finds once
(``sampled_member``).  ``augment`` alone forms a genome's augmented set: it
realizes each W_out P W_in once, and the constraint check and J1 read the
members as formed, banks and realizations together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationFailed, DimensionMismatch, OutOfBox
from .lti import (
    IMAG_AXIS_RTOL,
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    StateSpacePlant,
    augment_plant,
    eval_response,
)
from .margins import crossings, singular_values
from .vgap import SampledPlant, central_plant

FEEDTHROUGH_TOL = 1e-6  # |1 - s^2| of a singular value s of D: H(1) undecided
BAND_EDGE_RTOL = 1e-9  # a crossing this close outside the band is on its edge
CANCELLATION_RTOL = 1e-4  # |c - p| <= this * max(1, |p|): section root c cancels p
ORIGIN_OMEGA = 1e-12  # w -> 0+ for DC and lo = 0 when a pole sits at the origin
ZERO_RANK_RTOL = 1e-12  # rank threshold of transmission_zeros' deflation


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

    def __post_init__(self):
        lo, hi = self.band
        if not (0 <= lo < hi < np.inf):
            raise DimensionMismatch("crossover band must satisfy 0 <= lo < hi < inf")
        if not np.isfinite(self.dc_floor_db):
            raise DimensionMismatch("DC floor must be finite")
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


@dataclass(frozen=True)
class Member:
    """A plant P of the family with what no outer genome changes of it: the
    eigenvalues of its A (``poles``), its transmission ``zeros`` and its
    ``response`` on the synthesis grid, which J1 reads.  ``augmented`` is
    W_out P W_in realized under ``banks`` = (w_in, w_out): P itself under the
    identity banks a ``sampled_member`` starts under, and ``augment``'s
    cascade under a genome's."""

    plant: StateSpacePlant
    poles: np.ndarray
    zeros: np.ndarray
    response: np.ndarray
    banks: tuple
    augmented: StateSpacePlant


def sampled_member(plant: StateSpacePlant, grid: FrequencyGrid) -> Member:
    """``plant`` as a ``Member`` with its ``response`` on ``grid``, augmented
    under identity banks: W_out P W_in is P itself, so no cascade runs, and
    J1 under those banks is the family's own central-plant gap."""
    return Member(plant, np.linalg.eigvals(plant.A), transmission_zeros(plant),
                  eval_response(plant, 1j * grid.points),
                  (CompensatorBank.identity(plant.m),
                   CompensatorBank.identity(plant.r)),
                  plant)


def augment(w_in: CompensatorBank, w_out: CompensatorBank, members) -> list:
    """The ``sampled_member``s under the banks: each W_out P W_in realized
    once from the member's raw plant, with the banks recorded beside it."""
    return [replace(m, banks=(w_in, w_out),
                    augmented=augment_plant(w_out, m.plant, w_in))
            for m in members]


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
    return CompensatorBank(tuple(sections[:k])), CompensatorBank(tuple(sections[k:]))


def transmission_zeros(plant: StateSpacePlant) -> np.ndarray:
    """Finite transmission zeros of a square plant: the λ at which the system
    pencil [A − λI, B; C, D] loses rank.  Non-square plants return none.

    Orthogonal deflation (Emami-Naeini & Van Dooren, Automatica 18(4), 1982):
    scale the columns of [B; D] and the rows of [C D] by powers of two (no
    zero moves), then compress D's rows by its SVD to rank ρ (a zero D has
    ρ = 0 and takes LAPACK's identity U and Vᵀ without the call).  If ρ = m the
    zeros are eig(A − B D⁻¹ C).  Otherwise the m − ρ rows C₂ that D does not
    reach pin the state to null(C₂) = range(V₂), where the rows V₁ᵀ[A B] hold
    no λ and join the outputs: a square system with fewer states.  Singular
    values count above ``ZERO_RANK_RTOL`` times the scaled pencil's norm.

    A singular pencil (an exactly zero column of [B; D] or row of [C D], or
    C₂ short of full row rank) has every λ as a zero and raises
    ``ComputationFailed`` naming the plant.
    """
    if plant.m != plant.r:
        return np.array([], dtype=complex)
    singular = f"plant {plant.label!r}: singular system pencil"
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    cols = _pow2_scale(np.vstack([B, D]), axis=0)
    if not np.all(cols > 0):
        raise ComputationFailed(f"{singular} (input {np.argmin(cols)} reaches "
                                "neither state nor output)")
    B, D = B / cols, D / cols
    rows = _pow2_scale(np.hstack([C, D]), axis=1)[:, None]
    if not np.all(rows > 0):
        raise ComputationFailed(f"{singular} (output {np.argmin(rows)} reads "
                                "neither state nor input)")
    C, D = C / rows, D / rows
    tol = ZERO_RANK_RTOL * np.linalg.norm(np.block([[A, B], [C, D]]))
    while True:
        u, sv, vt = (np.linalg.svd(D) if D.any() else
                     (np.eye(plant.m), np.zeros(plant.m), np.eye(plant.m)))
        rho = int(np.count_nonzero(sv > tol))
        uc = u.T @ C
        if rho == plant.m:
            return np.linalg.eigvals(
                A - (B @ vt.T) @ (uc / sv[:, None])).astype(complex)
        k = plant.m - rho
        _, sc, wt = np.linalg.svd(uc[rho:])
        if sc.size < k or not sc[-1] > tol:  # C₂ lacks full row rank
            raise ComputationFailed(f"{singular} (normal rank below {plant.m})")
        v1, v2 = wt[:k].T, wt[k:].T
        av2 = A @ v2
        A, B, C, D = (v2.T @ av2, v2.T @ B,
                      np.vstack([uc[:rho] @ v2, v1.T @ av2]),
                      np.vstack([sv[:rho, None] * vt[:rho], v1.T @ B]))


def _pow2_scale(M: np.ndarray, axis: int) -> np.ndarray:
    """The power of two nearest the 2-norm of each column (axis 0) or row
    (axis 1) of M, and exactly 0 for a zero one.  Where the 2-norm under- or
    overflows, the power of two nearest the largest |entry| instead."""
    with np.errstate(over="ignore", divide="ignore"):
        norms = np.linalg.norm(M, axis=axis)
        lost = ~(np.isfinite(norms) & (norms > 0))
        norms[lost] = np.abs(M).max(axis=axis)[lost]
        return 2.0 ** np.round(np.log2(norms))


def _bank_poles_zeros(bank: CompensatorBank):
    poles, zeros = [], []
    for s in bank.sections:
        if not s.is_static:
            poles.append(s.pole)
        if s.zero is not None:
            zeros.append(s.zero)
    return np.asarray(poles, float), np.asarray(zeros, float)


def _near(a, b) -> bool:
    return abs(a - b) <= CANCELLATION_RTOL * max(1.0, abs(b))


def _band_violation(aug: StateSpacePlant, lo: float, hi: float,
                    smin_lo: float) -> str | None:
    """Why sigma_min(aug(jw)) > 1 fails on [lo, hi], or None: it holds iff it
    holds at lo and no singular value ``crossings`` 1 in the band (none can
    while sigma_min > 1).  An undecided band is a violation, never a pass."""
    if not smin_lo > 1.0:
        return f"sigma_min <= 0 dB inside band near {lo:.4g} rad/s"
    if aug.n == 0:  # no crossing; the feedthrough test would call 0 dB undecided
        return None
    s2 = singular_values(aug.D) ** 2
    if np.any(np.abs(1.0 - s2) <= FEEDTHROUGH_TOL):
        return "band undecided: a feedthrough singular value is 0 dB"
    try:
        w = crossings(aug, 1.0)
    except ComputationFailed as exc:
        return f"band undecided: {exc}"
    w = w[(w >= lo * (1.0 - BAND_EDGE_RTOL)) & (w <= hi * (1.0 + BAND_EDGE_RTOL))]
    return f"sigma_min <= 0 dB inside band near {w[0]:.4g} rad/s" if w.size else None


def check_constraints(members, constraints: ScpConstraints) -> ConstraintReport:
    """Loop-shaping and cancellation checks on the ``augmented`` plant of
    every member, all under the same ``banks``.

    Passes iff (i) each augmented plant clears the DC floor on its smallest
    singular value, (ii) sigma_min stays above 0 dB on the whole crossover
    band (exactly, see ``_band_violation``), and (iii) no compensator pole or
    zero is within ``CANCELLATION_RTOL`` of a plant pole or transmission zero.
    """
    reasons = []
    lo, hi = constraints.band
    floor = 10.0 ** (constraints.dc_floor_db / 20.0)

    w_in, w_out = members[0].banks
    in_poles, in_zeros = _bank_poles_zeros(w_in)
    out_poles, out_zeros = _bank_poles_zeros(w_out)
    c_poles = np.concatenate([in_poles, out_poles])
    c_zeros = np.concatenate([in_zeros, out_zeros])

    for idx, member in enumerate(members):
        aug, p_poles = member.augmented, member.poles
        origin = np.abs(np.append(p_poles, c_poles)) <= IMAG_AXIS_RTOL  # aug's poles
        w0 = ORIGIN_OMEGA if np.any(origin) else 0.0
        resp = eval_response(aug, 1j * np.array([w0, max(lo, w0)]))
        smin0, smin_lo = singular_values(resp)[:, -1]
        if not smin0 > floor:
            reasons.append(
                f"plant {idx}: sigma_min at DC {20*np.log10(max(smin0,1e-300)):.2f} dB"
                f" <= floor {constraints.dc_floor_db:.2f} dB"
            )
        band = _band_violation(aug, lo, hi, smin_lo)
        if band is not None:
            reasons.append(f"plant {idx}: {band}")
        for cz in c_zeros:
            if any(_near(cz, pp) for pp in p_poles):
                reasons.append(
                    f"plant {idx}: compensator zero {cz:.6g} cancels a plant pole"
                )
        for cp in c_poles:
            if any(_near(cp, pz) for pz in member.zeros):
                reasons.append(
                    f"plant {idx}: compensator pole {cp:.6g} cancels a plant zero"
                )
    return ConstraintReport(len(reasons) == 0, tuple(reasons))


def j1_fitness(members, grid: FrequencyGrid):
    """(J1, central index) for the augmented set {W_out P_i W_in} of
    ``members``, ``sampled_member``s on ``grid`` all under the same
    ``banks``; the central plant is that member's ``augmented``.

    Only the banks' work is redone per genome.  Each augmented member's grid
    response is the product W_out(jw) P_i(jw) W_in(jw) of the banks'
    responses and the member's, and it forms only the factors its pairs
    read.  Its realization, ``augmented``, gives the winding condition and
    the responses off the grid.
    """
    w_in, w_out = members[0].banks
    s = 1j * grid.points
    # the banks are diagonal: scale P_i's rows and columns by their entries
    post = np.diagonal(eval_response(w_out.realization, s), axis1=1, axis2=2)
    pre = np.diagonal(eval_response(w_in.realization, s), axis1=1, axis2=2)
    last = len(members) - 1
    augmented = []
    for i, m in enumerate(members):
        response = post[:, :, None] * m.response * pre[:, None, :]
        augmented.append(SampledPlant.of(m.augmented, grid, response,
                                         left=i > 0, right=i < last))
    result = central_plant(augmented, grid)
    return result.epsilon, result.index
