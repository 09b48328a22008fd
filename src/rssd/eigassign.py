"""Output-feedback eigenstructure assignment.

For each desired closed-loop eigenvalue the achievable eigenvector/input
directions span the null space of [A - lambda I, B] (real-augmented for
complex pairs).  Constrained eigenvector entries are met in least squares
inside that subspace, and the static gain is K = W (CR)^(-1), guarded by a
condition-number limit so a search loop can resample instead of inverting
a near-singular CR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, DimensionMismatch, EmptySubspace, IllConditioned
from .margins import singular_values

COND_LIMIT = 1e5
NULLSPACE_RTOL = 1e-10


@dataclass(frozen=True)
class EntryConstraint:
    """Bound box for one constrained eigenvector entry (a state index)."""

    state: int
    re_lo: float
    re_hi: float
    im_lo: float = 0.0
    im_hi: float = 0.0

    def __post_init__(self):
        if self.state < 0:
            raise DimensionMismatch(f"entry state {self.state} is negative")
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise DimensionMismatch("empty bound box")

    def contains(self, value: complex, slack: float = 0.0) -> bool:
        re_w = slack * (self.re_hi - self.re_lo)
        im_w = slack * (self.im_hi - self.im_lo)
        return (self.re_lo - re_w <= value.real <= self.re_hi + re_w
                and self.im_lo - im_w <= value.imag <= self.im_hi + im_w)


@dataclass(frozen=True)
class ModeTarget:
    """One desired closed-loop mode: a real pole or a conjugate pair.

    wn bounds delimit the natural-frequency search range used by the
    synthesis search; entries are the constrained eigenvector elements.
    """

    kind: str  # "real" or "complex"
    wn_lo: float
    wn_hi: float
    entries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("real", "complex"):
            raise DimensionMismatch(f"unknown mode kind {self.kind!r}")
        if not (0 < self.wn_lo <= self.wn_hi):
            raise DimensionMismatch("natural-frequency bounds must be positive")
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True)
class EigTarget:
    """Desired mode list with the damping region defining admissibility."""

    modes: tuple
    zeta_min: float
    sigma_max: float | None = None

    def __post_init__(self):
        if not 0.0 < self.zeta_min < 1.0:
            raise DimensionMismatch("zeta_min must be in (0, 1)")
        object.__setattr__(self, "modes", tuple(self.modes))

    def require_states(self, n: int):
        """DimensionMismatch unless every constrained entry names one of the
        n states of the plant the modes are assigned to."""
        for mode in self.modes:
            for e in mode.entries:
                if e.state >= n:
                    raise DimensionMismatch(
                        f"entry state {e.state} is not below the augmented "
                        f"central plant's order {n}")

    def require_outputs(self, r: int):
        """DimensionMismatch unless the modes give one eigenvector column per
        output (1 per real mode, 2 per complex pair), so that CR is square."""
        cols = sum(2 if mode.kind == "complex" else 1 for mode in self.modes)
        if cols != r:
            raise DimensionMismatch(
                f"target modes give {cols} eigenvector columns for {r} outputs")


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of the allowable [R_l; W_l] directions.

    Real eigenvalue: rows are (n states + m inputs).  Complex eigenvalue:
    rows are the real-augmented stack (R_re, R_im, W_re, W_im).
    """

    eigenvalue: complex
    basis: np.ndarray
    n: int
    m: int

    @property
    def is_complex(self) -> bool:
        return self.eigenvalue.imag != 0.0


def allowable_subspace(A, B, lam: complex) -> SubspaceBasis:
    """Null space of [A - lambda I, B] (real-augmented for complex lambda)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    m = B.shape[1]
    if A.shape != (n, n) or B.shape[0] != n:
        raise DimensionMismatch("inconsistent (A, B) dimensions")
    lam = complex(lam)
    eye = np.eye(n)
    if lam.imag == 0.0:
        block = np.hstack([A - lam.real * eye, B])
    else:
        sig, wd = lam.real, lam.imag
        block = np.zeros((2 * n, 2 * (n + m)))
        block[:n, :n] = block[n:, n:2 * n] = A - sig * eye
        block[:n, n:2 * n] = wd * eye
        block[n:, :n] = -wd * eye
        block[:n, 2 * n:2 * n + m] = block[n:, 2 * n + m:] = B
    _, sv, vt = np.linalg.svd(block)
    tol = NULLSPACE_RTOL * (sv[0] if sv.size else 1.0)
    rank = int(np.count_nonzero(sv > tol))
    null = vt[rank:].T
    if null.shape[1] == 0:
        raise EmptySubspace(f"no allowable directions for lambda={lam}")
    return SubspaceBasis(lam, null, n, m)


def _normalize(vec: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        return vec
    vec = vec / nrm
    nz = np.nonzero(np.abs(vec) > 1e-12)[0]
    if nz.size and vec[nz[0]] < 0:
        vec = -vec
    return vec


def _pick_member(sub: SubspaceBasis, entries, values):
    """Subspace member whose constrained R-entries best match ``values``."""
    basis = sub.basis
    n = sub.n
    if not entries:
        return _normalize(basis[:, 0])
    if sub.is_complex:
        rows, targ = [], []
        for e, v in zip(entries, values):
            rows.extend([e.state, n + e.state])
            targ.extend([complex(v).real, complex(v).imag])
    else:
        rows = [e.state for e in entries]
        targ = [complex(v).real for v in values]
    sel = basis[rows, :]
    coef, *_ = np.linalg.lstsq(sel, np.asarray(targ, dtype=float), rcond=None)
    return basis @ coef


def _achieved_entries(vec, sub: SubspaceBasis, entries):
    n = sub.n
    if sub.is_complex:
        return [complex(vec[e.state], vec[n + e.state]) for e in entries]
    return [complex(vec[e.state], 0.0) for e in entries]


def select_vectors(subspaces, target: EigTarget, entry_values) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (W, R) from one subspace per desired mode.

    entry_values supplies one candidate value per constrained entry per
    mode (complex for complex modes).  Achieved entries that leave their
    bound boxes by more than 1% of the box width raise BoundViolation;
    they are reported, never silently clamped.
    """
    if len(subspaces) != len(target.modes):
        raise DimensionMismatch("one subspace required per desired mode")
    for sub in subspaces:
        target.require_states(sub.n)
    r_cols, w_cols = [], []
    for sub, mode, values in zip(subspaces, target.modes, entry_values):
        vec = _pick_member(sub, mode.entries, values)
        achieved = _achieved_entries(vec, sub, mode.entries)
        for e, got in zip(mode.entries, achieved):
            if not e.contains(got, slack=1e-2):
                raise BoundViolation(
                    f"entry at state {e.state} achieved {got:.4g}, "
                    f"outside box [{e.re_lo},{e.re_hi}]+j[{e.im_lo},{e.im_hi}]"
                )
        n, m = sub.n, sub.m
        if sub.is_complex:
            r_cols.append(vec[:n])
            r_cols.append(vec[n:2 * n])
            w_cols.append(vec[2 * n:2 * n + m])
            w_cols.append(vec[2 * n + m:])
        else:
            r_cols.append(vec[:n])
            w_cols.append(vec[n:])
    R = np.column_stack(r_cols)
    W = np.column_stack(w_cols)
    return W, R


def compute_gain(W, R, C) -> np.ndarray:
    """K = W (CR)^(-1); IllConditioned when cond(CR) reaches COND_LIMIT."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    CR = C @ R
    if CR.shape[0] != CR.shape[1]:
        raise DimensionMismatch(f"CR must be square, got {CR.shape}")
    sv = singular_values(CR)
    cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
    if cond >= COND_LIMIT:
        raise IllConditioned(f"cond(CR)={cond:.3e} >= {COND_LIMIT:.3e}")
    return np.linalg.solve(CR.T, W.T).T


def in_S1(eigenvalues, target: EigTarget) -> bool:
    """Whether every eigenvalue lies in the damping region: open left half
    plane, damping ratio at least zeta_min, real part at most sigma_max."""
    lam = np.asarray(eigenvalues, dtype=complex)
    if np.any(lam.real >= 0.0):
        return False
    # 0.1% slack so damping exactly on the constant-zeta line passes; hypot is
    # eigen_info's scalar |lambda| bit for bit, vectorized complex abs is not
    if np.any(-lam.real / np.hypot(lam.real, lam.imag)
              < target.zeta_min * (1.0 - 1e-3)):
        return False
    return target.sigma_max is None or not np.any(lam.real > target.sigma_max)
