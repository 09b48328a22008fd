"""nu-gap metric, pairwise gap matrix, and central-plant identification.

The gap between two plants is the L-infinity peak of

    Psi = (I + P2 P2*)^(-1/2) (P1 - P2) (I + P1* P1)^(-1/2)

when the determinant and winding-number conditions hold, and 1 otherwise.
Both are taken of det(I + P2~(s) P1(s)) with P2~ the paraconjugate
P2(-s)^T, which keeps them well defined for non-square plants and makes the
gap symmetric for mixed stable/unstable pairs, and decided exactly from the
eigenvalues of one state-space realization of I + P2~ P1 and its inverse
(Vinnicombe, IEEE TAC 38(9), 1993): the grid carries only the peak of Psi.
Every member of a set is evaluated once on the grid (``sample``); each
pair then only combines the stored responses and factors.  A caller that
already has a member's grid response and pole counts, such as a product of
factors it sampled itself, builds the sample from them (``SampledPlant.of``),
forming only the factor sides its pairs read.  sigma_max Psi per point is
``margins.sigma_max``, the kernel the L-infinity iteration samples with: a
SISO pair's |Psi| from ``margins.modulus``, else the largest eigenvalue of
the smaller Gram.

``central_plant`` needs only min_i max_j delta_ij and its index, so it
prunes: the maximum of sigma_max Psi over any grid subset is a lower bound
on each delta (the refined peak never falls below the grid maximum, and a
pair failing the winding condition reads 1, which sigma_max Psi never
exceeds).  Rows are ranked once, on every ``COARSE_STRIDE``-th grid point,
and a row whose bound already loses to the best row found is never
evaluated exactly.  Row maxima within ``TIE_RTOL`` of the least one tie, so
the smallest tying index, not rounding, picks between equivalent members;
``central_from_matrix`` applies the same rule.  Pair (i, j), i < j, reads
only P_j's left factor and P_i's right one, so the first member needs no
left factor and the last no right one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationFailed, DetVanishesOnContour, DimensionMismatch
from .lti import (
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    cascade,
    eval_response,
    is_imag_axis,
)
from .margins import sigma_max, singular_values
from .sweep import grid_peak

# An eigenvalue of A_z this close (relative) to an imaginary-axis eigenvalue
# of A_x lies inside the contour's right indentation around that pole.
SHARED_AXIS_RTOL = 1e-6
# central_plant bounds each pair by sigma_max Psi at every this many points.
COARSE_STRIDE = 8
# Row maxima within this relative distance of the least one tie with it, and
# the smallest tying index is the central plant, whatever the rounding.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class VgapResult:
    value: float
    condition_met: bool


@dataclass(frozen=True)
class CentralPlantResult:
    index: int
    epsilon: float


@dataclass(frozen=True)
class SampledPlant:
    """A plant with its response on ``grid``, the per-point factors a pair
    needs, (I + P P*)^(-1/2) and (I + P* P)^(-1/2), and its ``pole_counts``.
    A factor no pair reads is None."""

    plant: StateSpacePlant
    grid: FrequencyGrid
    response: np.ndarray
    left: np.ndarray | None
    right: np.ndarray | None
    poles: tuple[int, int]

    @staticmethod
    def of(plant: StateSpacePlant, grid: FrequencyGrid, response: np.ndarray,
           poles: tuple[int, int], left: bool = True,
           right: bool = True) -> "SampledPlant":
        """``plant`` with ``response``, its value at 1j * grid.points, its
        ``pole_counts`` and the factors ``left`` and ``right`` ask for."""
        left, right = _factors(response, left, right, (plant,))
        return SampledPlant(plant, grid, response, left, right, poles)


def sample(plant: StateSpacePlant | SampledPlant,
           grid: FrequencyGrid) -> SampledPlant:
    """Evaluate ``plant`` once on ``grid`` for any number of nu-gap pairs; a
    plant already sampled on ``grid`` is returned as it is."""
    if isinstance(plant, SampledPlant):
        if plant.grid is not grid:
            raise DimensionMismatch("plant was sampled on a different grid")
        return plant
    return SampledPlant.of(plant, grid, eval_response(plant, 1j * grid.points),
                           pole_counts(plant))


def _rhp_count(eig: np.ndarray) -> int:
    return int(np.count_nonzero(~is_imag_axis(eig) & (eig.real > 0)))


def spectrum_counts(eig: np.ndarray) -> tuple[int, int]:
    """(open-RHP count, imaginary-axis count) of the eigenvalues ``eig``."""
    return _rhp_count(eig), int(np.count_nonzero(is_imag_axis(eig)))


def pole_counts(plant: StateSpacePlant) -> tuple[int, int]:
    """(open-RHP pole count, imaginary-axis pole count) from eigenvalues of A.

    No minimality reduction is attempted; non-minimal realizations count
    every A-eigenvalue.
    """
    if plant.n == 0:
        return 0, 0
    return spectrum_counts(np.linalg.eigvals(plant.A))


def paraconjugate(plant: StateSpacePlant) -> StateSpacePlant:
    """P~(s) = P(-s)^T as a state-space system (-A^T, C^T, -B^T, D^T)."""
    return StateSpacePlant(
        -plant.A.T, plant.C.T, -plant.B.T, plant.D.T, plant.label + "~"
    )


def winding_number_det(p1: StateSpacePlant, p2: StateSpacePlant) -> int:
    """Winding number (RHP zeros minus RHP poles) of det(I + P2~ P1).

    With X = P2~ P1 realized as one cascade (A_x, B_x, C_x, D_x),
    det(I + X(s)) = det(I + D_x) det(sI - A_z) / det(sI - A_x) with
    A_z = A_x - B_x (I + D_x)^(-1) C_x, so the count is
    #RHP eig(A_z) - #RHP eig(A_x) over the whole right half-plane.  The
    contour passes right of imaginary-axis eigenvalues of A_x: a zero there
    is a cancellation and is not counted.  Any other imaginary-axis
    eigenvalue of A_z, or a singular I + D_x, puts a zero of the
    determinant on the contour and raises DetVanishesOnContour.
    """
    if (p1.m, p1.r) != (p2.m, p2.r):
        raise DimensionMismatch("plants must share input/output dimensions")
    x = cascade(p1, paraconjugate(p2))
    ipd = np.eye(p1.m) + x.D
    if abs(np.linalg.det(ipd)) <= 1e-9 * (
            1.0 + singular_values(p1.D)[0] * singular_values(p2.D)[0]):
        raise DetVanishesOnContour("det(I + P2~ P1) vanishes at infinity")
    if x.n == 0:
        return 0
    poles = np.linalg.eigvals(x.A)
    zeros = np.linalg.eigvals(x.A - x.B @ np.linalg.solve(ipd, x.C))
    axis_poles = poles[is_imag_axis(poles)]
    indented = np.any(
        np.abs(zeros[:, None] - axis_poles[None, :])
        <= SHARED_AXIS_RTOL * np.maximum(1.0, np.abs(axis_poles)), axis=1)
    if np.any(is_imag_axis(zeros) & ~indented):
        raise DetVanishesOnContour("det(I + P2~ P1) vanishes on the imaginary axis")
    return _rhp_count(zeros[~indented]) - _rhp_count(poles)


def _ct(mats):
    return mats.conj().swapaxes(-1, -2)


def _factors(resp, left=True, right=True, plants=()):
    """(I + P P*)^(-1/2) and (I + P* P)^(-1/2) per point, from one eigh of
    the smaller Gram.  ``left`` and ``right`` each select the points whose
    factor is formed: all (True), a slice of them, or none (False), which
    makes the factor None.  Where |P|^2 overflows (the Gram's largest
    entry times its order, a bound on its trace, is not finite) it raises
    ComputationFailed naming ``plants``, whose responses ``resp`` holds;
    nothing downstream overflows otherwise.

    For a tall P, P* P = W diag(s^2) W* gives the small factor
    W diag((1 + s^2)^-1/2) W* and the large one
    I - (P W) diag(1/(mu + sqrt(mu))) (P W)* with mu = 1 + s^2, exact even
    where the large Gram's unit eigenvalues drown in eps |P|^2.  s^2 is read
    as the column norms of P W, which keeps it consistent with W.  A wide P
    swaps the two sides.
    """
    wide = resp.shape[1] < resp.shape[2]
    p = _ct(resp) if wide else resp
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _ct(p) @ p
    if not math.isfinite(float(gram.real.max()) * gram.shape[-1]):
        raise ComputationFailed(
            f"plant {' or '.join(repr(q.label) for q in plants)}: |P(jw)|^2 "
            "overflows in the nu-gap")
    w = np.linalg.eigh(gram)[1]
    pw = p @ w
    s2 = np.sum(np.abs(pw) ** 2, axis=1)
    root = np.sqrt(1.0 + s2)
    sides = (left, right) if wide else (right, left)
    want_small, want_large = (slice(None) if want is True else want
                              for want in sides)
    small = large = None
    if want_small is not False:
        ws, rs = w[want_small], root[want_small]
        small = (ws / rs[:, None, :]) @ _ct(ws)
    if want_large is not False:
        pl, rl = pw[want_large], root[want_large]
        large = np.eye(p.shape[1]) - (pl / (rl * (rl + 1.0))[:, None, :]) @ _ct(pl)
    return (small, large) if wide else (large, small)


def _grid_psi(s1: SampledPlant, s2: SampledPlant, points=slice(None)):
    """Psi(P1(jw), P2(jw)) at the grid points ``points`` selects, read from
    P2's left factor and P1's right one."""
    return (s2.left[points] @ (s1.response[points] - s2.response[points])
            @ s1.right[points])


def _grid_sigma(s1: SampledPlant, s2: SampledPlant):
    """sigma_max of Psi(P1(jw), P2(jw)) on the grid, read from the samples."""
    return sigma_max(_grid_psi(s1, s2))


def _coarse_sigma(samples, pairs) -> np.ndarray:
    """``_grid_sigma`` of each pair (i, j) of ``samples`` on every
    ``COARSE_STRIDE``-th grid point, one row per pair, from one stacked
    ``sigma_max``; each point's value does not depend on the others."""
    coarse = slice(None, None, COARSE_STRIDE)
    psi = np.concatenate([_grid_psi(samples[i], samples[j], coarse)
                          for i, j in pairs])
    return sigma_max(psi).reshape(len(pairs), -1)


def _psi_sigma(s1: SampledPlant, s2: SampledPlant):
    """sigma_max of Psi(P1(jw), P2(jw)) as a batch function of omega.

    The grid itself is read from the samples.  Refinement points off the
    grid are evaluated from state space, P2's left factor and P1's right one
    from one stacked eigh.
    """
    def fun(omegas):
        if omegas is s1.grid.points:
            return _grid_sigma(s1, s2)
        s = 1j * np.asarray(omegas, dtype=float)
        r1 = eval_response(s1.plant, s)
        r2 = eval_response(s2.plant, s)
        l2, m1 = _factors(np.concatenate([r1, r2]), slice(s.size, None),
                          slice(s.size), (s1.plant, s2.plant))
        return sigma_max(l2 @ (r1 - r2) @ m1)

    return fun


def _clip(value) -> float:
    return float(min(max(value, 0.0), 1.0))


def _pair_gap(s1: SampledPlant, s2: SampledPlant) -> VgapResult:
    """nu_gap of two samples; the condition is decided from eigenvalues
    alone, only the peak of Psi on the grid."""
    try:
        wno = winding_number_det(s1.plant, s2.plant)
    except DetVanishesOnContour:
        return VgapResult(1.0, False)
    # wno + eta(P1) - eta(P2) - eta_0(P2) must vanish
    if wno + s1.poles[0] - sum(s2.poles) != 0:
        return VgapResult(1.0, False)
    return VgapResult(_clip(grid_peak(_psi_sigma(s1, s2), s1.grid)[0]), True)


def nu_gap(p1: StateSpacePlant | SampledPlant, p2: StateSpacePlant | SampledPlant,
           grid: FrequencyGrid) -> VgapResult:
    """nu-gap metric between two plants sharing (m, r).

    Either plant may be passed already sampled on ``grid``.
    """
    return _pair_gap(sample(p1, grid), sample(p2, grid))


def gap_matrix(pset: PlantSet, grid: FrequencyGrid) -> np.ndarray:
    """Symmetric N x N matrix of pairwise nu-gaps (diagonal zero)."""
    samples = [sample(p, grid) for p in pset]
    n = len(pset)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = nu_gap(samples[i], samples[j], grid).value
    return mat


def _central(row_max) -> int:
    """The smallest index whose row maximum ties with the least one."""
    return int(np.argmax(row_max <= row_max.min() * (1.0 + TIE_RTOL)))


def central_from_matrix(mat: np.ndarray) -> CentralPlantResult:
    """The central row of a gap matrix: the first row whose maximum ties,
    within ``TIE_RTOL``, with the smallest."""
    row_max = mat.max(axis=1)
    index = _central(row_max)
    return CentralPlantResult(index, float(row_max[index]))


def central_plant(members, grid: FrequencyGrid) -> CentralPlantResult:
    """Plant with the smallest maximum nu-gap; rows within ``TIE_RTOL`` of it
    tie, and the smallest tying index wins.

    ``members``: plants, each a StateSpacePlant or already sampled on
    ``grid``.  Returns ``central_from_matrix(gap_matrix(members, grid))`` bit
    for bit, evaluating only the rows that can still decide it.  A pair's
    clipped maximum of sigma_max Psi on every ``COARSE_STRIDE``-th grid point
    is a lower bound on its gap, and a row's largest bound one on its
    maximum.  Rows are taken in ascending (bound, index) and each evaluates
    all its pairs exactly, in ``gap_matrix``'s operand order, so its maximum
    equals the matrix's; no pair is evaluated twice.  Once a bound exceeds
    the least maximum found by more than ``TIE_RTOL``, no later row can win
    or tie.  A pair failing the winding condition reads 1 while its bound
    may be far below, so sets holding such pairs evaluate more than one row.
    """
    samples = [sample(p, grid) for p in members]
    n = len(samples)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    low = np.zeros((n, n))
    if pairs:
        for (i, j), row in zip(pairs, _coarse_sigma(samples, pairs)):
            low[i, j] = low[j, i] = _clip(row.max())

    exact, row_max = {}, np.full(n, np.inf)  # rows not evaluated never tie
    for bound, i in sorted(zip(low.max(axis=1), range(n))):
        if bound > row_max.min() * (1.0 + TIE_RTOL):
            break
        row = [(min(i, j), max(i, j)) for j in range(n) if j != i]
        for a, b in row:
            if (a, b) not in exact:
                exact[a, b] = _pair_gap(samples[a], samples[b]).value
        row_max[i] = max((exact[p] for p in row), default=0.0)
    index = _central(row_max)
    return CentralPlantResult(index, float(row_max[index]))
