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
``hamiltonians`` builds the iteration's Hamiltonians, stacked, and
``crossings`` reads it for one system.  ``linf_norm`` also takes systems of
one (n, m, r) (J2 scores a chunk of GA candidates so): each round answers
the requests of every system's ``_iteration`` in one stacked call of each
kind, paying numpy's per-call cost once per round, not once per system.
Each system keeps its own special cases and its own failure, a
ComputationFailed in its result slot, which the one-system form raises.

The positive-feedback convention u = K y is used throughout, so the output
sensitivity is S_o = (I - P K)^(-1) and closed-loop stability is decided by
``lti.is_stable`` on the eigenvalues of A + B (I - K D)^(-1) K C.  The
disk-margin loop is L = -K P (input) or -P K (output) so classical
negative-feedback margin formulas apply; its sensitivities are blocks of
the 4-block operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ComputationFailed, DimensionMismatch, IllPosedLoop, UnstableLoop
from .lti import FrequencyGrid, StateSpacePlant, eval_response, is_imag_axis, is_stable

# Hamiltonian eigenvalues with |Re| below this (relative) are axis crossings.
HAMILTONIAN_AXIS_RTOL = 1e-7
# linf_norm's bound is within 2 LINF_TOL (relative) above the norm.
LINF_TOL = 1e-10
LINF_MAX_ITER = 50
# is_well_posed refuses an I + X whose sigma_min is at most this times
# max(1, sigma_max): forming I + X from I and X leaves rounding errors of
# about eps * max(1, |X|), a scale max(1, sigma_max) holds within 2.  Unlike
# a determinant the test does not shrink with m; past it (I + X)^(-1) may
# keep as few as 4 correct digits, and none when I + X is noise.
WELL_POSED_RTOL = 1e-12


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


def is_well_posed(mat: np.ndarray) -> bool:
    """Whether the square I + X ``mat`` (closed_loop's I - K D, the nu-gap's
    I + D_x) has sigma_min > ``WELL_POSED_RTOL`` * max(1, sigma_max); one
    without rows has nothing to invert and is."""
    sv = singular_values(mat)
    return not sv.size or sv[-1] > WELL_POSED_RTOL * max(1.0, sv[0])


def sigma_max(mats: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix in a stack: ``modulus`` of a 1x1 matrix, else
    the root of the largest eigenvalue of its smaller Gram (``eigvalsh``'s;
    a 1x1 Gram's is its entry).  Where a Gram overflows or is not finite
    (its largest entry times its order, a bound on its trace, is not) it
    raises ComputationFailed.  A stack of matrices without rows or columns
    gives zeros."""
    if mats.shape[-2:] == (1, 1):
        return modulus(mats[..., 0, 0])
    if not mats.size:
        return np.zeros(mats.shape[:-2])
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
    stable: bool  # lti.is_stable(eigenvalues)

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
    degenerate: bool = False


def hamiltonians(systems, gammas) -> np.ndarray:
    """The Bruinsma-Steinbuch Hamiltonian H(gamma) (Syst. Control Lett. 14,
    1990) of each system at its gamma, stacked: systems of one (n, m, r), each
    with R = gamma^2 I - D^T D invertible (LinAlgError where one is not).  A
    gamma^2 that overflows raises ComputationFailed; an entry of H that
    overflows is left for eigvals to refuse."""
    try:
        g2 = np.array([gamma**2 for gamma in gammas])
    except OverflowError as exc:
        raise ComputationFailed(
            f"gamma^2 overflows at gamma={max(gammas):.6g}") from exc
    A, B, C, D = (np.array([getattr(s, x) for s in systems]) for x in "ABCD")
    n, m, r = systems[0].n, systems[0].m, systems[0].r
    Bt, Ct, Dt = (x.swapaxes(-1, -2) for x in (B, C, D))
    with np.errstate(over="ignore", invalid="ignore"):
        r_inv = np.linalg.inv(g2[:, None, None] * np.eye(m) - Dt @ D)
        b_r = B @ r_inv
        ah = A + b_r @ Dt @ C
        H = np.empty((len(g2), 2 * n, 2 * n))
        H[:, :n, :n] = ah
        H[:, :n, n:] = b_r @ Bt
        H[:, n:, :n] = -Ct @ (np.eye(r) + D @ r_inv @ Dt) @ C
        H[:, n:, n:] = -ah.swapaxes(-1, -2)
    return H


def _crossings(pairs) -> list:
    """``crossings`` of each (system, gamma) of one shape, from one stacked
    ``hamiltonians`` and one eigvals."""
    try:
        lams = np.linalg.eigvals(hamiltonians(*zip(*pairs)))
    except np.linalg.LinAlgError as exc:
        raise ComputationFailed(f"Hamiltonian eigen-solve failed: {exc}") from exc
    return [np.sort(np.abs(lam[is_imag_axis(lam, HAMILTONIAN_AXIS_RTOL)].imag))
            for lam in lams]


def crossings(sys: StateSpacePlant, gamma: float) -> np.ndarray:
    """Sorted w >= 0 where gamma is a singular value of sys(jw): the imaginary
    eigenvalues of ``hamiltonians``' H(gamma), with gamma^2 I - D^T D
    invertible.  H is real, so a crossing appears once per eigenvalue of its
    +-jw pair: twice, or more where the pair is repeated.  The axis test is
    looser than the pole test, so a near-touch of gamma counts as a
    crossing."""
    return _crossings([(sys, gamma)])[0]


def _each(fn, items) -> list:
    """fn(items), one result per item, from one stacked call; where that
    raises, fn of each item alone, and an item whose call raises gets the
    ComputationFailed (a LinAlgError's message in one) in its place."""
    try:
        return fn(items)
    except (ComputationFailed, np.linalg.LinAlgError) as exc:
        if len(items) > 1:
            return [_each(fn, [item])[0] for item in items]
        return [exc if isinstance(exc, ComputationFailed)
                else ComputationFailed(str(exc))]


def _peaks(pairs) -> list:
    """Each (system, frequencies) pair's largest sigma_max over its distinct
    frequencies, sampled once each in increasing order, and where: one
    ``eval_response`` per system and one ``sigma_max`` over all samples.  A
    non-finite sigma_max raises ComputationFailed."""
    ws, resps = [], []
    for sys, w in pairs:
        w = np.sort(w)  # never empty; np.unique would import numpy.ma
        ws.append(w[np.concatenate([[True], w[1:] != w[:-1]])])
        resps.append(eval_response(sys, 1j * ws[-1]))
    sig = sigma_max(np.concatenate(resps))
    peaks, start = [], 0
    for w in ws:
        s, start = sig[start:start + w.size], start + w.size
        i = int(np.argmax(s))
        if not np.isfinite(s[i]):
            raise ComputationFailed(f"sigma_max is {s[i]} at w={w[i]}")
        peaks.append((float(s[i]), float(w[i])))
    return peaks


def _iteration(sys: StateSpacePlant, eig: np.ndarray):
    """``linf_norm`` of one system as a generator: where it samples or solves
    it yields the request (_peaks, frequencies) or (_crossings, gamma) and
    receives the answer, or has the answer's ComputationFailed thrown in.
    Returns (gamma, w) or raises ComputationFailed."""
    on_axis = is_imag_axis(eig)
    if np.any(on_axis):
        return np.inf, float(np.abs(eig[on_axis][0].imag))
    lb, omega = yield _peaks, np.concatenate([[0.0], np.abs(eig), np.abs(eig.imag)])
    # sigma_max(D) <= |D|_F, so D's SVD is taken only where it could beat lb
    if (1.0 + 1e-12) * np.linalg.norm(sys.D) > lb and \
            (d_gain := singular_values(sys.D)[0]) > lb:
        lb, omega = float(d_gain), np.inf
    if lb == 0.0 and sys.n:
        # a nonzero strictly proper sys vanishes at fewer than n frequencies
        lb, omega = yield _peaks, (np.arange(1.0, sys.n + 1)
                                   * max(1.0, np.abs(eig).max()))
    if lb == 0.0:
        return 0.0, 0.0
    if not sys.n:  # sigma_max(D) exactly: the iteration would add 2 LINF_TOL
        return lb, omega

    for _ in range(LINF_MAX_ITER):
        gamma = (1.0 + 2.0 * LINF_TOL) * lb
        w = yield _crossings, gamma
        if w.size == 0:
            return gamma, omega
        value, w_best = yield _peaks, np.concatenate([w, 0.5 * (w[:-1] + w[1:])])
        if value <= lb:
            return gamma, omega
        lb, omega = value, w_best
    raise ComputationFailed(
        f"L-infinity iteration did not settle in {LINF_MAX_ITER} steps")


def linf_norm(sys, poles=None):
    """Certified upper bound on sup sigma_max(sys(jw)) over w in [0, inf].

    Bruinsma-Steinbuch iteration: starting from the best of w = 0, |lambda|,
    |Im lambda| and infinity, the lower bound lb rises to sigma_max at the
    ``crossings`` of gamma = (1 + 2 LINF_TOL) lb and their midpoints until
    none beats it; gamma is then an upper bound on the norm.  Each distinct
    candidate frequency is sampled once, in increasing order: crossings come
    in +-jw pairs and poles in conjugate pairs.  Returns (gamma, frequency
    of lb).  Imaginary-axis poles make the norm infinite; the offending pole
    frequency is reported.  ``poles``: eig(sys.A) if known.

    ``sys`` may also be a sequence of systems of one (n, m, r), with
    ``poles`` a sequence of one entry per system (or None).  Each system's
    ``_iteration`` runs in lockstep with the others: each round answers
    every pending ``_peaks`` request in one stacked call and every pending
    ``_crossings`` request in another, so one ``hamiltonians`` call and one
    eigvals serve every system's H and one ``sigma_max`` all samples.  The
    result lists each system's (gamma, w), or the ComputationFailed it alone
    raises (a non-finite sigma_max, an overflowing gamma^2, a singular R, no
    settling in LINF_MAX_ITER steps): a stacked call that raises is
    repeated one system at a time.
    """
    single = isinstance(sys, StateSpacePlant)
    systems = [sys] if single else list(sys)
    poles = [poles] * len(systems) if single or poles is None else list(poles)
    if len(poles) != len(systems):
        raise DimensionMismatch(f"linf_norm: {len(poles)} pole sets "
                                f"for {len(systems)} systems")
    if len({(s.n, s.m, s.r) for s in systems}) > 1:
        raise DimensionMismatch("linf_norm: the systems differ in shape")
    runs = [_iteration(s, np.asarray(np.linalg.eigvals(s.A) if p is None else p))
            for s, p in zip(systems, poles)]
    out = [None] * len(runs)
    answers = dict.fromkeys(range(len(runs)))  # None starts a run
    while answers:
        requests = {}
        for i, answer in answers.items():
            step = runs[i].throw if isinstance(answer, ComputationFailed) else runs[i].send
            try:
                requests[i] = step(answer)
            except StopIteration as stop:
                out[i] = stop.value
            except ComputationFailed as exc:
                out[i] = exc
        answers = {}
        for fn in (_peaks, _crossings):
            ids = [i for i, (f, _) in requests.items() if f is fn]
            if ids:
                answers.update(zip(ids, _each(
                    fn, [(systems[i], requests[i][1]) for i in ids])))
    if single and isinstance(out[0], ComputationFailed):
        raise out[0]
    return out[0] if single else out


def closed_loop(plant: StateSpacePlant, gain) -> ClosedLoop:
    """Well-posed positive-feedback loop, its state matrix and spectrum."""
    K = np.atleast_2d(np.asarray(gain, dtype=float))
    if K.shape != (plant.m, plant.r):
        raise DimensionMismatch(
            f"gain shape {K.shape} does not match plant (m={plant.m}, r={plant.r})"
        )
    ikd = np.eye(plant.m) - K @ plant.D
    if not is_well_posed(ikd):
        raise IllPosedLoop("(I - K D) is singular")
    M = np.linalg.inv(ikd)
    a_cl = plant.A + plant.B @ M @ K @ plant.C
    eig = np.linalg.eigvals(a_cl)
    return ClosedLoop(plant, K, M, a_cl, eig, is_stable(eig))


def gsm(cl: ClosedLoop) -> float:
    """Generalized stability margin b in [0, 1]; 0 when not internally stable
    or when the loop has no inputs (a zero norm)."""
    if not cl.stable:
        return 0.0
    norm, _ = linf_norm(cl.factor, cl.eigenvalues)  # finite: no pole on the axis
    return 0.0 if norm == 0.0 else float(1.0 / norm)


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
    ``analyze`` writes the report's fields as the loop's ``margins.json`` entry.
    """
    if not cl.stable:
        raise UnstableLoop("disk margin requires a stable loop")
    real, m, r = cl.realization, cl.plant.m, cl.plant.r
    # (S - T)/2 = S - I/2, read off the 4-block: S_i = -(u <- w1) and
    # S_o = I + (y <- w2)
    halves = (StateSpacePlant(real.A, -real.B[:, :m], real.C[r:],
                              -real.D[r:, :m] - 0.5 * np.eye(m)),
              StateSpacePlant(real.A, real.B[:, m:], real.C[:r],
                              real.D[:r, m:] + 0.5 * np.eye(r)))
    norms = [linf_norm(half, cl.eigenvalues)[0] for half in halves]
    alpha = min(1.0 / norm if norm > 0 else np.inf for norm in norms)
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
        degenerate=degenerate,
    )
