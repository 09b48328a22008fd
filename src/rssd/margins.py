"""Closed-loop analysis: L-infinity norms, generalized stability margin,
sensitivity curves, uncertainty tolerance bounds, and multiloop disk margins.

``closed_loop`` builds a plant's loop once, and ``gsm``, ``disk_margin`` and
``sensitivity_curves`` take that ``ClosedLoop``.  ``sensitivity_curves``
forms every analysis curve of a loop in one pass: P(jw) on the grid once,
each sensitivity inverted once, and the tolerance bounds through
``uncertainty_bounds``.  The generalized stability margin (and J2) is the
norm of the 4-block's m-input factor, which has the 4-block's singular
values; the disk margin reads its two halves off the 4-block itself.

``singular_values`` gives singular values and ``sigma_max`` only the
largest: ``np.linalg.svd`` and the largest eigenvalue of each matrix's
smaller Gram, except that a stack of 1x1 matrices (a SISO loop) takes
|z| from ``modulus`` elementwise, without a LAPACK call per frequency, and
``singular_values`` gives an all-zero block zeros.  The L-infinity
iteration and the nu-gap grid engine sample through ``sigma_max``.

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ComputationFailed, IllPosedLoop, UnstableLoop
from .lti import FrequencyGrid, StateSpacePlant, eval_response, is_imag_axis

# Hamiltonian eigenvalues with |Re| below this (relative) are axis crossings.
HAMILTONIAN_AXIS_RTOL = 1e-7
# linf_norm's bound is within 2 LINF_TOL (relative) above the norm.
LINF_TOL = 1e-10
LINF_MAX_ITER = 50


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as hi sqrt(1 + (lo/hi)^2) with hi, lo = max, min(|Re z|,
    |Im z|) (LAPACK's dlapy3): the same bits on every numpy SIMD path, which
    np.abs of a complex array is not, and gesdd's own 1x1 singular value for
    |z| in (1e-130, 1e130).  Zeros give +0.0 and infinities inf; a NaN
    raises ComputationFailed."""
    re, im = np.abs(z.real), np.abs(z.imag)
    hi, lo = np.maximum(re, im), np.minimum(re, im)
    ratio = np.divide(lo, hi, out=np.ones_like(hi), where=lo < hi)
    with np.errstate(over="ignore"):
        mod = hi * np.sqrt(1.0 + ratio**2)
    if np.isnan(mod).any():
        raise ComputationFailed("a 1x1 singular value of a NaN entry")
    return mod


def singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or stack, descending along the last axis,
    as ``np.linalg.svd(mats, compute_uv=False)``; 1x1 matrices through
    ``modulus``, and an all-zero block of any shape (-0.0 included) zeros."""
    if mats.shape[-2:] == (1, 1):
        return modulus(mats[..., 0])
    if not mats.any():
        return np.zeros(mats.shape[:-2] + (min(mats.shape[-2:]),))
    return np.linalg.svd(mats, compute_uv=False)


def sigma_max(mats: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix in a stack: ``modulus`` of a 1x1 matrix, else
    the root of the largest eigenvalue of its smaller Gram (``eigvalsh``'s;
    a 1x1 Gram's is its entry).  Where a Gram overflows or is not finite
    (its largest entry times its order, a bound on its trace, is not) it
    raises ComputationFailed."""
    if mats.shape[-2:] == (1, 1):
        return modulus(mats[..., 0, 0])
    ct = mats.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = ct @ mats if mats.shape[-2] >= mats.shape[-1] else mats @ ct
    if not math.isfinite(float(gram.real.max()) * gram.shape[-1]):
        raise ComputationFailed("a Gram for sigma_max overflows or is not finite")
    top = (gram.real[..., 0, 0] if gram.shape[-1] == 1
           else np.linalg.eigvalsh(gram)[..., -1])
    return np.sqrt(np.maximum(top, 0.0))


@dataclass(frozen=True)
class ClosedLoop:
    """Plant + static gain u = K y: M = (I - K D)^(-1), A_cl = A + B M K C."""

    plant: StateSpacePlant
    gain: np.ndarray
    M: np.ndarray
    a_cl: np.ndarray
    eigenvalues: np.ndarray  # of a_cl
    stable: bool

    @cached_property
    def _c_cl(self) -> np.ndarray:
        """The 4-block's output map: (y, u) = [C + D M K C; M K C] x."""
        plant, K, M = self.plant, self.gain, self.M
        C, D = plant.C, plant.D
        return np.vstack([C + D @ M @ K @ C, M @ K @ C])

    @cached_property
    def realization(self) -> StateSpacePlant:
        """The 4-block [P;I](I-KP)^(-1)[-I K]: inputs (w1, w2) of sizes
        (m, r), outputs (y, u)."""
        plant, K, M = self.plant, self.gain, self.M
        E = M @ np.hstack([-np.eye(plant.m), K])
        d_cl = np.vstack([plant.D @ E, E])
        return StateSpacePlant(self.a_cl, plant.B @ E, self._c_cl, d_cl,
                               plant.label + "_cl")

    @cached_property
    def factor(self) -> StateSpacePlant:
        """The 4-block's m-input factor F = [P;I](I-KP)^(-1) L, with
        L L^T = I + K K^T: F F^H equals the 4-block times its conjugate
        transpose at every s, so the two share their singular values."""
        plant, K = self.plant, self.gain
        ml = self.M @ np.linalg.cholesky(np.eye(plant.m) + K @ K.T)
        return StateSpacePlant(self.a_cl, plant.B @ ml, self._c_cl,
                               np.vstack([plant.D @ ml, ml]),
                               plant.label + "_cl")


@dataclass(frozen=True)
class MarginReport:
    gsm: float
    disk_alpha: float
    mdgm_db: float
    mdpm_deg: float
    worst_omega: dict
    degenerate: bool = False


def crossings(sys: StateSpacePlant, gamma: float) -> np.ndarray:
    """Sorted w >= 0 where gamma is a singular value of sys(jw): the imaginary
    eigenvalues of the Bruinsma-Steinbuch Hamiltonian H(gamma) (Syst. Control
    Lett. 14, 1990), with gamma^2 I - D^T D invertible.  H is real, so a
    crossing appears once per eigenvalue of its +-jw pair: twice, or more
    where the pair is repeated.  The axis test is looser than the pole test,
    so a near-touch of gamma counts as a crossing."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    try:
        # an entry of H that overflows is refused by eigvals, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
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
    except OverflowError as exc:
        raise ComputationFailed(f"gamma^2 overflows at gamma={gamma:.6g}") from exc
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
        resp = eval_response(sys, 1j * omegas)
        sig = sigma_max(resp)
        i = int(np.argmax(sig))
        if not np.isfinite(sig[i]):
            raise ComputationFailed(f"sigma_max is {sig[i]} at w={omegas[i]}")
        return float(sig[i]), float(omegas[i])

    lb, omega = peak(np.concatenate([[0.0], np.abs(eig), np.abs(eig.imag)]))
    # sigma_max(D) <= |D|_F, so D's SVD is taken only where it could beat lb
    if (1.0 + 1e-12) * np.linalg.norm(sys.D) > lb and \
            (d_gain := singular_values(sys.D)[0]) > lb:
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
    norm, _ = linf_norm(cl.factor, cl.eigenvalues)
    if not np.isfinite(norm) or norm <= 0:
        return 0.0
    return float(1.0 / norm)


def sensitivity_curves(cl: ClosedLoop, grid: FrequencyGrid) -> dict:
    """A loop's analysis curves by column name: omega and the extreme singular
    values of P(jw); for a stable loop also those of S_o = (I - P K)^(-1),
    S_i = (I - K P)^(-1) and K S_o, and the two ``uncertainty_bounds``.
    P(jw) is evaluated once and each sensitivity inverted once."""
    P = eval_response(cl.plant, 1j * grid.points)
    sv = singular_values(P)
    curves = {"omega": grid.points, "sigma_max": sv[:, 0], "sigma_min": sv[:, -1]}
    if not cl.stable:
        return curves
    K = cl.gain
    pk = P @ K
    so = np.linalg.inv(np.eye(cl.plant.r) - pk)
    si = singular_values(np.linalg.inv(np.eye(cl.plant.m) - K @ P))
    for name, vals in (("so", singular_values(so)), ("si", si),
                       ("kso", singular_values(K @ so))):
        curves[f"{name}_max"], curves[f"{name}_min"] = vals[:, 0], vals[:, -1]
    curves["out_mult_bound"], curves["inv_input_bound"] = uncertainty_bounds(
        singular_values(pk @ so)[:, 0], si[:, 0])
    return curves


def uncertainty_bounds(to_max: np.ndarray, si_max: np.ndarray):
    """Output-multiplicative and inverse-input-multiplicative tolerance
    bounds 1 / sigma_max(P K S_o) and 1 / sigma_max(S_i) from those sigmas;
    inf where one is 0."""
    with np.errstate(divide="ignore"):
        return tuple(np.where(s > 0, 1.0 / s, np.inf) for s in (to_max, si_max))


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
