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

from .errors import BoundViolation, DimensionMismatch, IllConditioned
from .lti import damping, is_stable
from .margins import singular_values

COND_LIMIT = 1e5
NULLSPACE_RTOL = 1e-10
ZETA_MAX = 0.999  # a pair's damping ratio stays below 1, where it turns real


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

    @property
    def width(self) -> int:
        """Real parts of the mode's eigenvalue, of each of its entries and of
        its R and W columns: 1 for a real pole, 2 for a conjugate pair."""
        return 2 if self.kind == "complex" else 1


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
        if self.zeta_min > ZETA_MAX and any(m.width == 2 for m in self.modes):
            raise DimensionMismatch(
                f"zeta_min {self.zeta_min} is above a conjugate pair's largest "
                f"damping ratio {ZETA_MAX}")

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
        output (``ModeTarget.width`` each), so that CR is square."""
        cols = sum(mode.width for mode in self.modes)
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

    @property
    def width(self) -> int:
        """Real parts per direction: 1 for a real eigenvalue, 2 for a complex one."""
        return 1 if self.eigenvalue.imag == 0.0 else 2

    def rows(self, state: int) -> list:
        """Rows of ``state``'s real (then imaginary) part, state + j n for j
        below ``width``; the width n state rows come before the input rows."""
        return [state + j * self.n for j in range(self.width)]


def allowable_subspace(A, B, lam: complex) -> SubspaceBasis:
    """Null space of [A - lambda I, B] (real-augmented for complex lambda).

    The block has n (2n) rows and n + m (2(n + m)) columns, so the basis has
    at least m (2m) columns: never none, since B must have a column.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    m = B.shape[1]
    if A.shape != (n, n) or B.shape[0] != n or not m:
        raise DimensionMismatch(
            f"inconsistent (A, B) shapes {A.shape}, {B.shape} (m must be > 0)")
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
    return SubspaceBasis(lam, vt[rank:].T, n)


def _normalize(vec: np.ndarray) -> np.ndarray:
    vec = vec / np.linalg.norm(vec)
    nz = np.nonzero(np.abs(vec) > 1e-12)[0]  # never empty: vec is a unit SVD row
    if vec[nz[0]] < 0:
        vec = -vec
    return vec


def _pick_member(sub: SubspaceBasis, entries, values):
    """Subspace member whose constrained R-entries best match ``values``."""
    if not entries:
        return _normalize(sub.basis[:, 0])
    rows = [row for e in entries for row in sub.rows(e.state)]
    targ = [part for v in values
            for part in (complex(v).real, complex(v).imag)[:sub.width]]
    coef, *_ = np.linalg.lstsq(sub.basis[rows, :], np.asarray(targ, dtype=float),
                               rcond=None)
    return sub.basis @ coef


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
    r_rows, w_rows = [], []
    for sub, mode, values in zip(subspaces, target.modes, entry_values):
        vec = _pick_member(sub, mode.entries, values)
        for e in mode.entries:
            got = complex(*vec[sub.rows(e.state)])
            if not e.contains(got, slack=1e-2):
                raise BoundViolation(
                    f"entry at state {e.state} achieved {got:.4g}, "
                    f"outside box [{e.re_lo},{e.re_hi}]+j[{e.im_lo},{e.im_hi}]"
                )
        w, n = sub.width, sub.n
        r_rows.append(vec[:w * n].reshape(w, n))
        w_rows.append(vec[w * n:].reshape(w, -1))
    # W and R hold the rows as columns, in C order for compute_gain
    return np.concatenate(w_rows).T.copy(), np.concatenate(r_rows).T.copy()


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
    """Whether every eigenvalue lies in the damping region: stable by
    ``is_stable``, damping ratio at least zeta_min, real part at most
    sigma_max."""
    lam = np.asarray(eigenvalues, dtype=complex)
    if not is_stable(lam):
        return False
    # 0.1% slack so damping exactly on the constant-zeta line passes
    if np.any(damping(lam)[0] < target.zeta_min * (1.0 - 1e-3)):
        return False
    return target.sigma_max is None or not np.any(lam.real > target.sigma_max)
