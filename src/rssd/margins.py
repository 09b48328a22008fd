"""Closed-loop analysis: L-infinity norms, generalized stability margin,
sensitivity curves, uncertainty tolerance bounds, and multiloop disk margins.

``closed_loop`` builds a plant's loop once; every analysis entry point
(``gsm``, ``disk_margin``, ``sensitivity_curves``, ``uncertainty_bounds``)
takes that ``ClosedLoop``, and the loop evaluates P(jw), S_o and S_i at
most once per frequency grid.

L-infinity norms are certified upper bounds from a Hamiltonian iteration
over all of [0, inf], so the generalized stability margin and the disk
margin they give err low: on the safe side of the nu-gap certificate.

The positive-feedback convention u = K y is used throughout, so the output
sensitivity is S_o = (I - P K)^(-1) and closed-loop stability is decided by
the eigenvalues of A + B (I - K D)^(-1) K C.  The disk-margin loop is
L = -K P (input) or -P K (output) so classical negative-feedback margin
formulas apply; its sensitivities are blocks of the 4-block operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ComputationFailed, IllPosedLoop, UnstableLoop
from .lti import FrequencyGrid, StateSpacePlant, eval_response, is_imag_axis

# Hamiltonian eigenvalues with |Re| below this (relative) are axis crossings.
HAMILTONIAN_AXIS_RTOL = 1e-7
# linf_norm's bound is within 2 LINF_TOL (relative) above the norm.
LINF_TOL = 1e-10
LINF_MAX_ITER = 50


@dataclass(frozen=True)
class ClosedLoop:
    """Plant + static gain u = K y: M = (I - K D)^(-1), A_cl = A + B M K C."""

    plant: StateSpacePlant
    gain: np.ndarray
    M: np.ndarray
    a_cl: np.ndarray
    eigenvalues: np.ndarray  # of a_cl
    stable: bool
    _responses: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @cached_property
    def realization(self) -> StateSpacePlant:
        """The 4-block [P;I](I-KP)^(-1)[-I K]: inputs (w1, w2) of sizes
        (m, r), outputs (y, u)."""
        plant, K, M = self.plant, self.gain, self.M
        B, C, D = plant.B, plant.C, plant.D
        E = M @ np.hstack([-np.eye(plant.m), K])
        b_cl = B @ E
        c_cl = np.vstack([C + D @ M @ K @ C, M @ K @ C])
        d_cl = np.vstack([D @ E, E])
        return StateSpacePlant(self.a_cl, b_cl, c_cl, d_cl, plant.label + "_cl")

    def response(self, grid: FrequencyGrid) -> LoopResponse:
        """P(jw), S_o and S_i of this loop on ``grid``; one evaluation per grid."""
        key = grid.points.tobytes()
        if key not in self._responses:
            self._responses[key] = LoopResponse(self, grid.points)
        return self._responses[key]


class LoopResponse:
    """P(jw) of a loop on a grid; S_o = (I - P K)^(-1) and S_i = (I - K P)^(-1)
    are inverted on first use."""

    def __init__(self, loop: ClosedLoop, omega: np.ndarray):
        self.loop = loop
        self.plant = eval_response(loop.plant, 1j * omega)

    @cached_property
    def so(self) -> np.ndarray:
        return np.linalg.inv(np.eye(self.loop.plant.r)
                             - self.plant @ self.loop.gain)

    @cached_property
    def si(self) -> np.ndarray:
        return np.linalg.inv(np.eye(self.loop.plant.m)
                             - self.loop.gain @ self.plant)


@dataclass(frozen=True)
class MarginReport:
    gsm: float
    disk_alpha: float
    mdgm_db: float
    mdpm_deg: float
    worst_omega: dict
    degenerate: bool = False


@dataclass(frozen=True)
class SensitivityCurves:
    so_max: np.ndarray
    so_min: np.ndarray
    si_max: np.ndarray
    si_min: np.ndarray
    kso_max: np.ndarray
    kso_min: np.ndarray


@dataclass(frozen=True)
class UncertaintyBounds:
    output_mult: np.ndarray
    inverse_input: np.ndarray


def crossings(sys: StateSpacePlant, gamma: float) -> np.ndarray:
    """Sorted w >= 0 where gamma is a singular value of sys(jw): the imaginary
    eigenvalues of the Bruinsma-Steinbuch Hamiltonian H(gamma) (Syst. Control
    Lett. 14, 1990), with gamma^2 I - D^T D invertible.  H is real, so a
    crossing appears once per eigenvalue of its +-jw pair: twice, or more
    where the pair is repeated.  The axis test is looser than the pole test,
    so a near-touch of gamma counts as a crossing."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    try:
        r_inv = np.linalg.inv(gamma**2 * np.eye(sys.m) - D.T @ D)
        b_r = B @ r_inv
        ah = A + b_r @ D.T @ C
        n = sys.n
        H = np.empty((2 * n, 2 * n))
        H[:n, :n] = ah
        H[:n, n:] = b_r @ B.T
        H[n:, :n] = -C.T @ (np.eye(sys.r) + D @ r_inv @ D.T) @ C
        H[n:, n:] = -ah.T
        lam = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise ComputationFailed(f"Hamiltonian eigen-solve failed: {exc}") from exc
    return np.sort(np.abs(lam[is_imag_axis(lam, HAMILTONIAN_AXIS_RTOL)].imag))


def linf_norm(sys: StateSpacePlant, poles=None) -> tuple[float, float]:
    """Certified upper bound on sup sigma_max(sys(jw)) over w in [0, inf].

    Bruinsma-Steinbuch iteration: starting from the best of w = 0, |lambda|,
    |Im lambda| and infinity, the lower bound lb rises to sigma_max at the
    ``crossings`` of gamma = (1 + 2 LINF_TOL) lb and their midpoints until
    none beats it; gamma is then an upper bound on the norm.  Each distinct
    candidate frequency is sampled once, in increasing order: crossings come
    in +-jw pairs and poles in conjugate pairs.  Returns (gamma, frequency
    of lb).  Imaginary-axis poles make the norm infinite; the offending pole
    frequency is reported.  ``poles``: eig(sys.A) if known.
    """
    if poles is None:
        poles = np.linalg.eigvals(sys.A) if sys.n else np.zeros(0, complex)
    eig = np.asarray(poles)
    on_axis = is_imag_axis(eig)
    if np.any(on_axis):
        return np.inf, float(np.abs(eig[on_axis][0].imag))

    def peak(omegas):
        # never empty; np.unique would import numpy.ma
        w = np.sort(omegas)
        omegas = w[np.concatenate([[True], w[1:] != w[:-1]])]
        try:
            sig = np.linalg.svd(eval_response(sys, 1j * omegas),
                                compute_uv=False)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise ComputationFailed(f"singular values failed: {exc}") from exc
        i = int(np.argmax(sig))
        if not np.isfinite(sig[i]):
            raise ComputationFailed(f"sigma_max is {sig[i]} at w={omegas[i]}")
        return float(sig[i]), float(omegas[i])

    lb, omega = peak(np.concatenate([[0.0], np.abs(eig), np.abs(eig.imag)]))
    d_gain = np.linalg.norm(sys.D, ord=2) if sys.D.size else 0.0
    if d_gain > lb:
        lb, omega = float(d_gain), np.inf
    if lb == 0.0 and sys.n:
        # a nonzero strictly proper sys vanishes at fewer than n frequencies
        lb, omega = peak(np.arange(1.0, sys.n + 1) * max(1.0, np.abs(eig).max()))
    if lb == 0.0:
        return 0.0, 0.0
    if not sys.n:
        return lb, omega

    for _ in range(LINF_MAX_ITER):
        gamma = (1.0 + 2.0 * LINF_TOL) * lb
        w = crossings(sys, gamma)
        if w.size == 0:
            return gamma, omega
        value, w_best = peak(np.concatenate([w, 0.5 * (w[:-1] + w[1:])]))
        if value <= lb:
            return gamma, omega
        lb, omega = value, w_best
    raise ComputationFailed(
        f"L-infinity iteration did not settle in {LINF_MAX_ITER} steps")


def closed_loop(plant: StateSpacePlant, gain) -> ClosedLoop:
    """Well-posed positive-feedback loop, its state matrix and spectrum."""
    K = np.atleast_2d(np.asarray(gain, dtype=float))
    if K.shape != (plant.m, plant.r):
        raise IllPosedLoop(
            f"gain shape {K.shape} does not match plant (m={plant.m}, r={plant.r})"
        )
    ikd = np.eye(plant.m) - K @ plant.D
    if abs(np.linalg.det(ikd)) < 1e-12:
        raise IllPosedLoop("(I - K D) is singular")
    M = np.linalg.inv(ikd)
    if plant.n:
        a_cl = plant.A + plant.B @ M @ K @ plant.C
        eig = np.linalg.eigvals(a_cl)
    else:
        a_cl, eig = np.zeros((0, 0)), np.zeros(0, complex)
    return ClosedLoop(plant, K, M, a_cl, eig, bool(np.all(eig.real < 0)))


def gsm(cl: ClosedLoop) -> float:
    """Generalized stability margin b in [0, 1]; 0 when not internally stable."""
    if not cl.stable:
        return 0.0
    norm, _ = linf_norm(cl.realization, cl.eigenvalues)
    if not np.isfinite(norm) or norm <= 0:
        return 0.0
    return float(1.0 / norm)


def sensitivity_curves(cl: ClosedLoop, grid: FrequencyGrid) -> SensitivityCurves:
    """Per-frequency extreme singular values of S_o, S_I and K S_o."""
    if not cl.stable:
        raise UnstableLoop("sensitivity curves require a stable loop")
    resp = cl.response(grid)

    def ext(mats):
        sv = np.linalg.svd(mats, compute_uv=False)
        return sv[:, 0], sv[:, -1]

    so_hi, so_lo = ext(resp.so)
    si_hi, si_lo = ext(resp.si)
    kso_hi, kso_lo = ext(cl.gain @ resp.so)
    return SensitivityCurves(so_hi, so_lo, si_hi, si_lo, kso_hi, kso_lo)


def uncertainty_bounds(cl: ClosedLoop, grid: FrequencyGrid) -> UncertaintyBounds:
    """Output-multiplicative and inverse-input-multiplicative tolerance curves.

    output bound  = 1 / sigma_max(P K (I - P K)^(-1))
    inverse bound = 1 / sigma_max((I - K P)^(-1))
    """
    if not cl.stable:
        raise UnstableLoop("uncertainty bounds require a stable loop")
    resp = cl.response(grid)
    to = resp.plant @ cl.gain @ resp.so
    sig_to = np.linalg.norm(to, ord=2, axis=(1, 2))
    sig_si = np.linalg.norm(resp.si, ord=2, axis=(1, 2))
    with np.errstate(divide="ignore"):
        out_bound = np.where(sig_to > 0, 1.0 / sig_to, np.inf)
        inv_bound = np.where(sig_si > 0, 1.0 / sig_si, np.inf)
    return UncertaintyBounds(out_bound, inv_bound)


def disk_margin(cl: ClosedLoop) -> MarginReport:
    """Balanced (skew 0) disk margin at plant input and output, worst of both.

    alpha = 1 / ||(S - T)/2||_inf with L = -K P (input) or L = -P K (output);
    MDGM = +/-20 log10((2+alpha)/(2-alpha)) dB, MDPM = +/-2 atan(alpha/2).
    """
    if not cl.stable:
        raise UnstableLoop("disk margin requires a stable loop")
    real, m, r = cl.realization, cl.plant.m, cl.plant.r
    # (S - T)/2 = S - I/2, read off the 4-block: S_i = -(u <- w1) and
    # S_o = I + (y <- w2)
    halves = {
        "input": StateSpacePlant(real.A, -real.B[:, :m], real.C[r:],
                                 -real.D[r:, :m] - 0.5 * np.eye(m)),
        "output": StateSpacePlant(real.A, real.B[:, m:], real.C[:r],
                                  real.D[:r, m:] + 0.5 * np.eye(r)),
    }
    alpha = np.inf
    worst = {}
    for where, half in halves.items():
        norm, omega = linf_norm(half, cl.eigenvalues)
        a = 1.0 / norm if norm > 0 else np.inf
        worst[where] = {"alpha": float(a), "omega": float(omega)}
        if a < alpha:
            alpha = float(a)
            worst["worst"] = where
    degenerate = bool(np.allclose(cl.gain, 0.0))
    if alpha >= 2.0 - 1e-9:
        alpha = max(alpha, 2.0)
    if alpha < 2.0:
        mdgm = 20.0 * np.log10((2.0 + alpha) / (2.0 - alpha))
    else:
        mdgm = np.inf
    mdpm = np.degrees(2.0 * np.arctan(alpha / 2.0))
    return MarginReport(
        gsm=gsm(cl),
        disk_alpha=float(alpha),
        mdgm_db=float(mdgm),
        mdpm_deg=float(mdpm),
        worst_omega=worst,
        degenerate=degenerate,
    )
