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
already has a member's grid response, such as a product of factors it
sampled itself, builds the sample from it (``SampledPlant.of``).

``central_plant`` needs only min_i max_j delta_ij and its index, so it
prunes: the maximum of sigma_max Psi over any grid subset is a lower bound
on each delta (the refined peak never falls below the grid maximum, and a
pair failing the winding condition reads 1, which sigma_max Psi never
exceeds).  Rows are ranked first on every ``COARSE_STRIDE``-th grid point,
a row's bound is retaken on the full grid only when it reaches the front,
and a row whose bound already loses to the best row found is never
evaluated exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DetVanishesOnContour, DimensionMismatch
from .lti import (
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    cascade,
    eval_response,
    is_imag_axis,
)
from .sweep import grid_peak

# An eigenvalue of A_z this close (relative) to an imaginary-axis eigenvalue
# of A_x lies inside the contour's right indentation around that pole.
SHARED_AXIS_RTOL = 1e-6
# central_plant first bounds each pair by sigma_max Psi at every this many
# grid points; most rows are never bounded on the full grid.
COARSE_STRIDE = 8


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
    A sample kept only for products of its response drops the factors
    (None)."""

    plant: StateSpacePlant
    grid: FrequencyGrid
    response: np.ndarray
    left: np.ndarray | None
    right: np.ndarray | None
    poles: tuple[int, int]

    @staticmethod
    def of(plant: StateSpacePlant, grid: FrequencyGrid,
           response: np.ndarray) -> "SampledPlant":
        """``plant`` with ``response``, its value at 1j * grid.points."""
        left, right = _factors(response)
        return SampledPlant(plant, grid, response, left, right,
                            pole_counts(plant))


def sample(plant: StateSpacePlant | SampledPlant,
           grid: FrequencyGrid) -> SampledPlant:
    """Evaluate ``plant`` once on ``grid`` for any number of nu-gap pairs; a
    plant already sampled on ``grid`` is returned as it is."""
    if isinstance(plant, SampledPlant):
        if plant.grid is not grid:
            raise DimensionMismatch("plant was sampled on a different grid")
        return plant
    return SampledPlant.of(plant, grid, eval_response(plant, 1j * grid.points))


def _rhp_count(eig: np.ndarray) -> int:
    return int(np.count_nonzero(~is_imag_axis(eig) & (eig.real > 0)))


def pole_counts(plant: StateSpacePlant) -> tuple[int, int]:
    """(open-RHP pole count, imaginary-axis pole count) from eigenvalues of A.

    No minimality reduction is attempted; non-minimal realizations count
    every A-eigenvalue.
    """
    if plant.n == 0:
        return 0, 0
    eig = np.linalg.eigvals(plant.A)
    return _rhp_count(eig), int(np.count_nonzero(is_imag_axis(eig)))


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
            1.0 + np.linalg.norm(p1.D, 2) * np.linalg.norm(p2.D, 2)):
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


def _factors(resp, left=True, right=True):
    """(I + P P*)^(-1/2) and (I + P* P)^(-1/2) per point, from one eigh of
    the smaller Gram.  A factor not asked for is None.

    For a tall P, P* P = W diag(s^2) W* gives the small factor
    W diag((1 + s^2)^-1/2) W* and the large one
    I - (P W) diag(1/(mu + sqrt(mu))) (P W)* with mu = 1 + s^2, exact even
    where the large Gram's unit eigenvalues drown in eps |P|^2.  s^2 is read
    as the column norms of P W, which keeps it consistent with W.  A wide P
    swaps the two sides.
    """
    wide = resp.shape[1] < resp.shape[2]
    p = _ct(resp) if wide else resp
    w = np.linalg.eigh(_ct(p) @ p)[1]
    pw = p @ w
    s2 = np.sum(np.abs(pw) ** 2, axis=1)
    root = np.sqrt(1.0 + s2)
    want_small, want_large = (left, right) if wide else (right, left)
    small = (w / root[:, None, :]) @ _ct(w) if want_small else None
    large = (np.eye(p.shape[1]) - (pw / (root * (root + 1.0))[:, None, :]) @ _ct(pw)
             if want_large else None)
    return (small, large) if wide else (large, small)


def _sigma_max(mats):
    """sigma_max per point from the eigenvalues of the smaller Gram."""
    gram = _ct(mats) @ mats if mats.shape[1] >= mats.shape[2] else mats @ _ct(mats)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _grid_sigma(s1: SampledPlant, s2: SampledPlant, points=slice(None)):
    """sigma_max of Psi(P1(jw), P2(jw)) at the grid points ``points`` selects,
    read from the samples; each point's value does not depend on the others
    selected."""
    return _sigma_max(s2.left[points] @ (s1.response[points] - s2.response[points])
                      @ s1.right[points])


def _psi_sigma(s1: SampledPlant, s2: SampledPlant):
    """sigma_max of Psi(P1(jw), P2(jw)) as a batch function of omega.

    The grid itself is read from the samples and evaluated once: later calls
    on the grid return the stored array.  Refinement points off the grid are
    evaluated from state space.
    """
    on_grid = []

    def fun(omegas):
        if omegas is s1.grid.points:
            if not on_grid:
                on_grid.append(_grid_sigma(s1, s2))
            return on_grid[0]
        s = 1j * np.asarray(omegas, dtype=float)
        r1 = eval_response(s1.plant, s)
        r2 = eval_response(s2.plant, s)
        l2, m1 = _factors(r2, right=False)[0], _factors(r1, left=False)[1]
        return _sigma_max(l2 @ (r1 - r2) @ m1)

    return fun


def _clip(value) -> float:
    return float(min(max(value, 0.0), 1.0))


def _pair_gap(s1: SampledPlant, s2: SampledPlant, psi) -> VgapResult:
    """nu_gap of two samples, with ``psi = _psi_sigma(s1, s2)``; the condition
    is decided from eigenvalues alone, only the peak of Psi on the grid."""
    try:
        wno = winding_number_det(s1.plant, s2.plant)
    except DetVanishesOnContour:
        return VgapResult(1.0, False)
    # wno + eta(P1) - eta(P2) - eta_0(P2) must vanish
    if wno + s1.poles[0] - sum(s2.poles) != 0:
        return VgapResult(1.0, False)
    return VgapResult(_clip(grid_peak(psi, s1.grid)[0]), True)


def nu_gap(p1: StateSpacePlant | SampledPlant, p2: StateSpacePlant | SampledPlant,
           grid: FrequencyGrid) -> VgapResult:
    """nu-gap metric between two plants sharing (m, r).

    Either plant may be passed already sampled on ``grid``.
    """
    s1, s2 = sample(p1, grid), sample(p2, grid)
    return _pair_gap(s1, s2, _psi_sigma(s1, s2))


def gap_matrix(pset: PlantSet, grid: FrequencyGrid) -> np.ndarray:
    """Symmetric N x N matrix of pairwise nu-gaps (diagonal zero)."""
    samples = [sample(p, grid) for p in pset]
    n = len(pset)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = nu_gap(samples[i], samples[j], grid).value
    return mat


def central_from_matrix(mat: np.ndarray) -> CentralPlantResult:
    """The first row of a gap matrix with the smallest maximum."""
    row_max = mat.max(axis=1)
    index = int(np.argmin(row_max))
    return CentralPlantResult(index, float(row_max[index]))


def central_plant(members, grid: FrequencyGrid) -> CentralPlantResult:
    """Plant with the smallest maximum nu-gap; ties break to smallest index.

    ``members``: plants, each a StateSpacePlant or already sampled on
    ``grid``.  Returns ``central_from_matrix(gap_matrix(members, grid))`` bit
    for bit, evaluating only the rows that can still decide it.  A pair's
    clipped maximum of sigma_max Psi over any grid points is a lower bound
    on its gap, and a row's largest bound one on its maximum.  Rows leave a
    queue in ascending (bound, index), first bounded on every
    ``COARSE_STRIDE``-th point.  A row leaving on that bound is queued anew
    on its full-grid bound (the values ``grid_peak`` starts from); a row
    leaving on its full-grid bound evaluates all its pairs exactly, in
    ``gap_matrix``'s operand order, so its maximum equals the matrix's.
    Once the front (bound, index) exceeds the best (row maximum, index)
    found, no queued row can win.  So rows are evaluated exactly in the
    order, and up to the row, that full-grid bounds alone would give.
    Exact values are kept, so no pair is evaluated twice.  A pair failing
    the winding condition reads 1 while its bound may be far below, so both
    of its rows can survive; sets holding such pairs do evaluate more than
    one row.
    """
    samples = [sample(p, grid) for p in members]
    n = len(samples)
    coarse = slice(None, None, COARSE_STRIDE)
    psi, low = {}, np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            psi[i, j] = _psi_sigma(samples[i], samples[j])
            low[i, j] = low[j, i] = _clip(
                _grid_sigma(samples[i], samples[j], coarse).max())
    queue = [(bound, i, False) for i, bound in enumerate(low.max(axis=1))]
    heapq.heapify(queue)

    best = (np.inf, n)  # (row maximum, index) of the best row so far
    exact = {}
    while queue:
        bound, i, full = heapq.heappop(queue)
        if (bound, i) > best:
            break
        pairs = [(min(i, j), max(i, j)) for j in range(n) if j != i]
        if not full:
            bound = max((_clip(psi[p](grid.points).max()) for p in pairs),
                        default=0.0)
            heapq.heappush(queue, (bound, i, True))
            continue
        for a, b in pairs:
            if (a, b) not in exact:
                exact[a, b] = _pair_gap(samples[a], samples[b], psi[a, b]).value
        best = min(best, (max((exact[p] for p in pairs), default=0.0), i))
    return CentralPlantResult(best[1], float(best[0]))
