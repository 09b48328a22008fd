"""Linear closed-loop time simulation.

Simulates the compensated plant under the static output-feedback gain with
the loop convention u = K (y + d - r), so the steady-state tracking error
is governed by the output sensitivity (I - P K)^(-1).  Each signal is held
from one sample to the next (zero-order hold), under which the exact step
of the augmented state (plant, compensators, optional uncertainty weight)
is x_(k+1) = Phi x_k + Gamma w_k, and dt sets only the sample period.  The
recurrence runs as a blocked prefix scan (Hillis & Steele, CACM 1986):
each block of rows is a few batched matrix products, not one step per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationFailed, DimensionMismatch, DivergentTrace
from .lti import (
    CompensatorBank,
    FirstOrderSection,
    StateSpacePlant,
    augment_plant,
    cascade,
)
from .margins import closed_loop

DIVERGENCE_LIMIT = 1e9
DIVERGENCE_BLOCK = 256  # longest scan block: steps between divergence checks
POWER_LIMIT = 1e100  # largest entry of a power of Phi a scan block may use
# k dt can land a few ulps below the decimal time it stands for (3 * 0.3 =
# 0.8999999999999999); a time this close (relative) below an edge is at it
SAMPLE_RTOL = 1e-12


def at_or_after(t: np.ndarray, edge: float) -> np.ndarray:
    """Whether each time is at or after ``edge``, a time within SAMPLE_RTOL
    below it counting as on it: the one rule for signal edges and the steady
    window."""
    return t >= edge - SAMPLE_RTOL * abs(edge)


@dataclass(frozen=True)
class SignalSpec:
    """Per-channel scalar signal: zero, step, or doublet pulse pair."""

    kind: str = "zero"
    magnitude: float = 0.0
    start: float = 0.0
    width: float = 0.0  # doublet pulse width (each half)

    def __post_init__(self):
        if self.kind not in ("zero", "step", "doublet"):
            raise DimensionMismatch(f"unknown signal kind {self.kind!r}")
        if self.kind == "doublet" and self.width <= 0.0:
            raise DimensionMismatch("doublet needs a positive pulse width")

    def sample(self, t) -> np.ndarray:
        """The signal at times t; each edge acts from ``at_or_after`` it."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "step":
            return np.where(at_or_after(t, self.start), self.magnitude, 0.0)
        on, flip, off = (at_or_after(t, edge) for edge in (
            self.start, self.start + self.width, self.start + 2 * self.width))
        up, down = on & ~flip, flip & ~off
        return self.magnitude * up.astype(float) - self.magnitude * down.astype(float)


@dataclass(frozen=True)
class UncertaintyInjection:
    """Output-multiplicative perturbation (I + delta * G(s) on one channel)."""

    weight: FirstOrderSection
    channel: int
    delta: float = 1.0  # unit all-pass sample; run both +1 and -1


@dataclass(frozen=True)
class Scenario:
    reference: tuple
    disturbance: tuple = ()
    uncertainty: UncertaintyInjection | None = None
    dt: float = 1e-3
    duration: float = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise DimensionMismatch("dt must be positive and finite")
        if not np.isfinite(self.duration):
            raise DimensionMismatch("duration must be finite")
        if self.duration < 10.0 * self.dt:
            raise DimensionMismatch("duration must cover at least 10 steps")
        ref, dist = tuple(self.reference), tuple(self.disturbance)
        for s in ref + dist:
            if s.kind == "doublet" and s.width <= self.dt:
                raise DimensionMismatch("doublet pulse width must exceed dt")
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "disturbance", dist)


@dataclass(frozen=True)
class TraceSet:
    time: np.ndarray
    outputs: np.ndarray      # (len(time), r)
    inputs: np.ndarray       # (len(time), m)
    reference: np.ndarray    # (len(time), r)
    errors: np.ndarray       # outputs - reference
    diverged: bool = False
    divergence_time: float | None = None


def _uncertainty_plant(inj: UncertaintyInjection, channels: int) -> StateSpacePlant:
    """State-space form of I + delta * G(s) acting on one output channel."""
    g = CompensatorBank((inj.weight,)).realization
    e = np.zeros((channels, 1))
    e[inj.channel, 0] = 1.0
    A = g.A
    B = g.B @ e.T
    C = inj.delta * (e @ g.C)
    D = np.eye(channels) + inj.delta * float(g.D[0, 0]) * (e @ e.T)
    return StateSpacePlant(A, B, C, D, label="uncertainty")


def expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4),
    2005) of a degree-18 Taylor polynomial, with errors a small multiple of
    u (1 + |e^a|), u the unit roundoff.  ComputationFailed on overflow."""
    s = max(0, int(np.frexp(np.max(np.abs(a).sum(axis=0), initial=0.0))[1]))
    x = np.ldexp(a, -s)  # 1-norm below 1
    e = eye = np.eye(len(a))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(18, 1, -1):
            e = eye + x @ e / k
        e = x @ e  # e^x - I, squared as (e + I)^2 - I to keep its small entries
        for _ in range(s):
            e = 2 * e + e @ e
    if not np.all(np.isfinite(e)):
        raise ComputationFailed("the matrix exponential overflows")
    return e + eye


def _powers(phi: np.ndarray) -> np.ndarray:
    """Phi^1 ... Phi^L stacked, for the scan block length L.

    L starts at DIVERGENCE_BLOCK and halves while one of these powers has an
    entry that is non-finite or above POWER_LIMIT, so an explosive
    discretization gets shorter blocks instead of inf * 0 = NaN on rows that
    are exactly zero.  L = 1 is the plain step-by-step recurrence.
    """
    powers = phi[None]
    while len(powers) < DIVERGENCE_BLOCK:
        powers = np.concatenate([powers, powers @ powers[-1]])
    length = DIVERGENCE_BLOCK
    while length > 1 and not np.all(np.abs(powers[:length]) <= POWER_LIMIT):
        length //= 2
    return powers[:length]


def simulate(plant: StateSpacePlant, gain, w_in: CompensatorBank,
             w_out: CompensatorBank, scenario: Scenario) -> TraceSet:
    """Zero-order-hold trace of the augmented loop under a scenario.

    The controller sees y + d - r; with zero reference and disturbance from
    a zero initial state every trace is identically zero.  Each signal is
    sampled at t_k = k dt and held until t_(k+1) (an edge between samples
    acts at the next one); ComputationFailed if e^(A_cl dt) overflows.  The
    states are computed a scan block at a time (see _powers), and each block
    is checked before the next one starts.  From the first state that is
    non-finite or exceeds DIVERGENCE_LIMIT on, outputs and inputs are NaN,
    and divergence_time is that state's time.  The uncertainty channel must
    be one of the loop's outputs.
    """
    aug = augment_plant(w_out, plant, w_in)
    if scenario.uncertainty is not None:
        if not 0 <= scenario.uncertainty.channel < aug.r:
            raise DimensionMismatch(
                f"uncertainty channel {scenario.uncertainty.channel} is not "
                f"one of the {aug.r} output channels")
        aug = cascade(aug, _uncertainty_plant(scenario.uncertainty, aug.r))
    cl = closed_loop(aug, gain)  # IllPosedLoop on a singular I - K D
    if len(scenario.reference) != aug.r:
        raise DimensionMismatch("one reference spec per output channel required")
    if scenario.disturbance and len(scenario.disturbance) != aug.r:
        raise DimensionMismatch("one disturbance spec per output channel required")

    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    time = dt * np.arange(n_steps + 1)

    ref = np.column_stack([s.sample(time) for s in scenario.reference])
    dist = scenario.disturbance or (SignalSpec(),) * aug.r  # none: all zero
    w = np.column_stack([s.sample(time) for s in dist]) - ref  # forced by d - r

    # Phi and Gamma are blocks of one exponential (Van Loan, IEEE TAC 23(3), 1978)
    MK = cl.M @ cl.gain
    zoh = expm(dt * np.block([[cl.a_cl, aug.B @ MK],
                              [np.zeros((aug.r, aug.n + aug.r))]]))
    x = np.zeros((n_steps + 1, aug.n))
    x[1:] = w[:-1] @ zoh[:aug.n, aug.n:].T  # Gamma w_k
    end = n_steps + 1  # first divergent row, if any
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(zoh[:aug.n, :aug.n])  # of Phi
        for start in range(1, n_steps + 1, len(powers)):
            block = x[start:start + len(powers)]
            # Hillis-Steele doubling leaves sum_{i <= j} Phi^(j-i) f_i in
            # block row j; each product is formed before its in-place add,
            # so the overlapping rows are read as they were
            span = 1
            while span < len(block):
                block[span:] += block[:-span] @ powers[span - 1].T
                span *= 2
            block += powers[:len(block)] @ x[start - 1]  # + Phi^(j+1) x_prev
            bad = ~np.all(np.abs(block) <= DIVERGENCE_LIMIT, axis=1)
            if bad.any():
                end = start + int(np.argmax(bad))
                break

    outputs = np.full((n_steps + 1, aug.r), np.nan)
    inputs = np.full((n_steps + 1, aug.m), np.nan)
    cx = x[:end] @ aug.C.T
    inputs[:end] = (cx + w[:end]) @ MK.T
    outputs[:end] = cx + inputs[:end] @ aug.D.T
    diverged = end <= n_steps
    div_time = float(time[end]) if diverged else None
    errors = outputs - ref
    return TraceSet(time, outputs, inputs, ref, errors, diverged, div_time)


@dataclass(frozen=True)
class TrackingReport:
    passed: bool
    channels: tuple  # per-channel dicts


def tracking_metrics(traces: TraceSet, error_band: float = 0.0087,
                     rms_ceiling: float = 0.0873,
                     steady_after: float = 0.0) -> TrackingReport:
    """Per-channel max steady error and RMS deviation against ceilings: by
    default the paper's 0.5 deg error band and 5 deg RMS ceiling (in rad).

    steady_after masks the initial transient out of the max-error check and
    must leave a sample in it; RMS is taken over the whole trace.
    """
    if traces.diverged:
        raise DivergentTrace(traces.divergence_time)
    if not np.all(np.isfinite(traces.errors)):
        raise DivergentTrace(None)
    steady = at_or_after(traces.time, steady_after)
    if not steady.any():
        raise DimensionMismatch(f"no sample at or after steady_after {steady_after:g}")
    channels = []
    passed = True
    for ch in range(traces.errors.shape[1]):
        err = traces.errors[:, ch]
        max_err = float(np.max(np.abs(err[steady])))
        rms = float(np.sqrt(np.mean(err ** 2)))
        band_ok = max_err <= error_band
        rms_ok = rms <= rms_ceiling
        passed = passed and band_ok and rms_ok
        channels.append({
            "max_steady_error": max_err,
            "rms": rms,
            "band_ok": band_ok,
            "rms_ok": rms_ok,
        })
    return TrackingReport(passed, tuple(channels))
