"""Simultaneous-stabilization controller synthesis toolkit.

Given a finite family of LTI plants, the package finds diagonal pre/post
compensators and a single static output-feedback gain that stabilize every
member, using the nu-gap central-plant sufficiency condition and a
two-level genetic search, plus closed-loop analysis and linear simulation.
"""

from .errors import RssdError
from .lti import (
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
)
from .vgap import central_plant, gap_matrix, nu_gap
from .margins import closed_loop, disk_margin, gsm, linf_norm, sensitivity_curves
from .eigassign import EigTarget, EntryConstraint, ModeTarget
from .scp import ScpConstraints
from .nn_rssd import GaConfig, SynthesisReport, run_nn_rssd
from .sim import Scenario, SignalSpec, TraceSet, simulate

__version__ = "0.1.0"

__all__ = [
    "RssdError",
    "StateSpacePlant",
    "PlantSet",
    "FrequencyGrid",
    "FirstOrderSection",
    "CompensatorBank",
    "nu_gap",
    "gap_matrix",
    "central_plant",
    "linf_norm",
    "closed_loop",
    "gsm",
    "disk_margin",
    "sensitivity_curves",
    "EigTarget",
    "ModeTarget",
    "EntryConstraint",
    "ScpConstraints",
    "GaConfig",
    "run_nn_rssd",
    "SynthesisReport",
    "Scenario",
    "SignalSpec",
    "TraceSet",
    "simulate",
]
