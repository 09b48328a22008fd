"""State-space LTI substrate: plants, frequency response, spectra, cascading.

All systems are continuous-time real state-space quadruples (A, B, C, D).
Types are immutable after construction and every operation is a pure
function; a frequency response is one batched solve over all its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ComputationFailed, DimensionMismatch, ImproperSection, UnstableSection

# Eigenvalues with |Re| below this (relative) threshold are treated as
# imaginary-axis.
IMAG_AXIS_RTOL = 1e-9


def _as_matrix(value, rows, cols, name):
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.size == 0:
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(
            f"{name}: expected shape {(rows, cols)}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name}: non-finite entries")
    return arr


@dataclass(frozen=True)
class StateSpacePlant:
    """Real state-space system  dx = A x + B u,  y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    label: str = ""

    def __post_init__(self):
        A, B, C = (np.atleast_2d(np.asarray(M, dtype=float))
                   for M in (self.A, self.B, self.C))
        n, m, r = A.shape[0], B.shape[1], C.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        object.__setattr__(self, "A", _as_matrix(A, n, n, "A"))
        object.__setattr__(self, "B", _as_matrix(B, n, m, "B"))
        object.__setattr__(self, "C", _as_matrix(C, r, n, "C"))
        object.__setattr__(self, "D", _as_matrix(self.D, r, m, "D"))
        for mat in ("A", "B", "C", "D"):
            getattr(self, mat).setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @staticmethod
    def from_gain(D, label: str = "") -> "StateSpacePlant":
        """Static system with no states (pure gain matrix)."""
        D = np.atleast_2d(np.asarray(D, dtype=float))
        r, m = D.shape
        return StateSpacePlant(
            np.zeros((0, 0)), np.zeros((0, m)), np.zeros((r, 0)), D, label
        )

    @staticmethod
    def siso(num_pole: float, gain: float = 1.0, label: str = "") -> "StateSpacePlant":
        """Scalar first-order system gain/(s - num_pole)."""
        return StateSpacePlant([[num_pole]], [[1.0]], [[gain]], [[0.0]], label)


@dataclass(frozen=True)
class PlantSet:
    """Ordered finite collection of plants sharing nonzero input/output dims."""

    plants: tuple

    def __post_init__(self):
        plants = tuple(self.plants)
        if not plants:
            raise DimensionMismatch("plant set must be nonempty")
        m, r = plants[0].m, plants[0].r
        if not (m and r):
            raise DimensionMismatch(
                f"plants need inputs and outputs, got (m, r) = ({m}, {r})")
        for p in plants:
            if (p.m, p.r) != (m, r):
                raise DimensionMismatch(
                    f"plant {p.label!r}: dims ({p.m},{p.r}) != shared ({m},{r})"
                )
        object.__setattr__(self, "plants", plants)

    def __len__(self):
        return len(self.plants)

    def __getitem__(self, i):
        return self.plants[i]

    def __iter__(self):
        return iter(self.plants)

    @property
    def m(self) -> int:
        return self.plants[0].m

    @property
    def r(self) -> int:
        return self.plants[0].r


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, nonnegative evaluation frequencies."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size < 2:
            raise DimensionMismatch("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)) or np.any(pts < 0):
            raise DimensionMismatch("grid points must be finite and >= 0")
        if np.any(np.diff(pts) <= 0):
            raise DimensionMismatch("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @staticmethod
    def default() -> "FrequencyGrid":
        return FrequencyGrid(np.logspace(-3.0, 5.0, 400))


@dataclass(frozen=True)
class EigenInfo:
    """Eigenvalue with its damping ratio and natural frequency."""

    value: complex
    damping: float
    natural_frequency: float


def eigen_info(lam: complex) -> EigenInfo:
    """Damping/natural frequency of a single eigenvalue.

    lam == 0 reports zeta=1, wn=0 (by convention, to avoid 0/0; origin
    poles are handled by the imaginary-axis logic in the nu-gap code, not by
    damping checks).
    """
    wn = abs(lam)
    if wn == 0.0:
        return EigenInfo(0j, 1.0, 0.0)
    return EigenInfo(complex(lam), -lam.real / wn, wn)


def sorted_spectrum(eig) -> list[EigenInfo]:
    """Damping info of already computed eigenvalues, conjugate pairs adjacent."""
    order = np.lexsort((np.sign(eig.imag), np.abs(eig.imag), eig.real))
    return [eigen_info(lam) for lam in eig[order]]


def is_imag_axis(lam, rtol: float = IMAG_AXIS_RTOL):
    """Whether each eigenvalue lies on the imaginary axis (elementwise)."""
    lam = np.asarray(lam)
    return np.abs(lam.real) <= rtol * np.maximum(1.0, np.abs(lam))


def eval_response(plant: StateSpacePlant, s_values) -> np.ndarray:
    """P(s) evaluated at an array of complex points; shape (k, r, m).

    Entries grow without bound near a pole; a point where sI - A is exactly
    singular (a pole on the sampled axis) raises ComputationFailed naming the
    plant, since no finite value is right there.
    """
    s = np.asarray(s_values, dtype=complex).ravel()
    if plant.n == 0:
        return np.broadcast_to(plant.D, (s.size, plant.r, plant.m)).astype(complex)
    eye = np.eye(plant.n)
    lhs = s[:, None, None] * eye - plant.A
    try:
        x = np.linalg.solve(lhs, np.broadcast_to(plant.B, (s.size,) + plant.B.shape))
    except np.linalg.LinAlgError as exc:
        raise ComputationFailed(
            f"plant {plant.label!r}: a frequency point is a pole ({exc})") from exc
    return plant.C @ x + plant.D


def cascade(first: StateSpacePlant, second: StateSpacePlant,
            label: str = "") -> StateSpacePlant:
    """Series connection u -> first -> second; transfer P2(s) P1(s)."""
    if second.m != first.r:
        raise DimensionMismatch(
            f"cascade: second.m={second.m} != first.r={first.r}"
        )
    n1, n2 = first.n, second.n
    A = np.block([
        [first.A, np.zeros((n1, n2))],
        [second.B @ first.C, second.A],
    ]) if n1 + n2 else np.zeros((0, 0))
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    return StateSpacePlant(A, B, C, D, label)


def augment_plant(w_out: "CompensatorBank", plant: StateSpacePlant,
                  w_in: "CompensatorBank") -> StateSpacePlant:
    """Series augmentation W_out(s) P(s) W_in(s) as one state-space plant."""
    win_ss, wout_ss = w_in.realization, w_out.realization
    if win_ss.r != plant.m:
        raise DimensionMismatch(
            f"w_in has {win_ss.r} channels, plant expects {plant.m} inputs"
        )
    if wout_ss.m != plant.r:
        raise DimensionMismatch(
            f"w_out has {wout_ss.m} channels, plant has {plant.r} outputs"
        )
    return cascade(cascade(win_ss, plant), wout_ss, label=plant.label)


@dataclass(frozen=True)
class FirstOrderSection:
    """Proper first-order rational section (a s + b) / (c s + d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for coef in (self.a, self.b, self.c, self.d):
            if not np.isfinite(coef):
                raise ImproperSection("section coefficients must be finite")
        if self.c == 0.0 and self.a != 0.0:
            raise ImproperSection(
                f"section ({self.a}s+{self.b})/({self.c}s+{self.d}) is improper"
            )
        if self.d == 0.0 and self.c == 0.0:
            raise ImproperSection("degenerate denominator (c=d=0)")

    @property
    def is_static(self) -> bool:
        return self.c == 0.0

    @property
    def pole(self) -> float:
        if self.is_static:
            raise ImproperSection("static section has no pole")
        return -self.d / self.c

    @property
    def zero(self):
        """Finite zero -b/a, or None for a constant numerator."""
        return None if self.a == 0.0 else -self.b / self.a

    def require_stable(self):
        if not self.is_static and self.pole >= 0.0:
            raise UnstableSection(f"section pole {self.pole:.6g} not in C-")


@dataclass(frozen=True)
class CompensatorBank:
    """Diagonal bank of first-order sections, one per channel."""

    sections: tuple
    side: str = "in"  # "in" (pre) or "out" (post)

    def __post_init__(self):
        if not self.sections:
            raise DimensionMismatch("compensator bank must be nonempty")
        object.__setattr__(self, "sections", tuple(self.sections))

    def __len__(self):
        return len(self.sections)

    @cached_property
    def realization(self) -> StateSpacePlant:
        """Diagonal state-space realization, formed once per bank.

        One state per dynamic section; static sections (c=0) contribute only a
        feedthrough entry. D entries are the high-frequency gains a/c.
        """
        k = len(self)
        n = sum(0 if s.is_static else 1 for s in self.sections)
        A = np.zeros((n, n))
        B = np.zeros((n, k))
        C = np.zeros((k, n))
        D = np.zeros((k, k))
        i = 0
        for ch, s in enumerate(self.sections):
            if s.is_static:
                D[ch, ch] = s.b / s.d
                continue
            # (a s + b)/(c s + d) = a/c + (b/c - a d/c^2) / (s + d/c)
            A[i, i] = -s.d / s.c
            B[i, ch] = 1.0
            C[ch, i] = s.b / s.c - s.a * s.d / s.c**2
            D[ch, ch] = s.a / s.c
            i += 1
        return StateSpacePlant(A, B, C, D, f"bank_{self.side}")

    @staticmethod
    def identity(channels: int, side: str = "in") -> "CompensatorBank":
        return CompensatorBank(
            tuple(FirstOrderSection(0.0, 1.0, 0.0, 1.0) for _ in range(channels)),
            side,
        )
