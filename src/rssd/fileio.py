"""JSON/CSV file formats: plant sets, controllers, run configs, scenarios.

JSON is canonicalized (sorted keys, 2-space indent, trailing newline) so a
write -> read -> write round trip is byte-identical.  Matrices are stored
row-major with explicit dimensions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .eigassign import EigTarget, EntryConstraint, ModeTarget
from .lti import CompensatorBank, FirstOrderSection, FrequencyGrid, PlantSet, StateSpacePlant
from .nn_rssd import GaConfig
from .scp import ScpConstraints
from .sim import Scenario, SignalSpec, UncertaintyInjection

SCHEMA_VERSION = 1
CSV_CHUNK_ROWS = 512


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object, else ParseError."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {value!r}")
    return value


def _matrix_obj(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [float(v) for v in M.ravel(order="C")],
    }


def _matrix_from(obj, where: str) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = [float(v) for v in obj["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: malformed matrix ({exc})") from exc
    if len(data) != rows * cols:
        raise ParseError(
            f"{where}: expected {rows * cols} entries, got {len(data)}"
        )
    mat = np.asarray(data, dtype=float).reshape(rows, cols)
    if not np.all(np.isfinite(mat)):
        raise ParseError(f"{where}: non-finite entries")
    return mat


# --- plant sets -------------------------------------------------------------

def plantset_obj(pset: PlantSet) -> dict:
    plants = []
    for p in pset:
        entry = {
            "label": p.label,
            "n": p.n, "m": p.m, "r": p.r,
            "A": _matrix_obj(p.A) if p.n else _matrix_obj(np.zeros((0, 0))),
            "B": _matrix_obj(p.B),
            "C": _matrix_obj(p.C),
        }
        if np.any(p.D):
            entry["D"] = _matrix_obj(p.D)
        plants.append(entry)
    return {"schema": SCHEMA_VERSION, "plants": plants}


def plantset_from_obj(obj) -> PlantSet:
    try:
        raw = obj["plants"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"plant set: missing 'plants' list ({exc})") from exc
    if not isinstance(raw, list):
        raise ParseError(f"plant set: 'plants' must be a list, got {raw!r}")
    if not raw:
        raise ParseError("plant set: empty plant list")
    plants = []
    for i, entry in enumerate(raw):
        entry = _object(entry, f"plant {i}")
        where = f"plant {i} ({entry.get('label', '?')})"
        try:
            n, m, r = int(entry["n"]), int(entry["m"]), int(entry["r"])
            label = str(entry.get("label", "")) or f"plant{i}"
            A = _matrix_from(entry["A"], f"{where} A") if n else np.zeros((0, 0))
            B = _matrix_from(entry["B"], f"{where} B")
            C = _matrix_from(entry["C"], f"{where} C")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}: missing dimensions or matrix ({exc})") from exc
        D = (_matrix_from(entry["D"], f"{where} D")
             if "D" in entry else np.zeros((r, m)))
        try:
            plants.append(StateSpacePlant(A, B, C, D, label))
        except DimensionMismatch as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if plants[-1].n != n or plants[-1].m != m or plants[-1].r != r:
            raise ParseError(f"{where}: stated dims (n={n}, m={m}, r={r}) "
                             f"disagree with matrices")
    try:
        return PlantSet(tuple(plants))
    except DimensionMismatch as exc:
        raise ParseError(f"plant set: {exc}") from exc


def load_plantset(path) -> PlantSet:
    return plantset_from_obj(_load_json(path))


def save_plantset(pset: PlantSet, path):
    Path(path).write_text(canonical_json(plantset_obj(pset)))


# --- controllers ------------------------------------------------------------

def _bank_obj(bank: CompensatorBank) -> list:
    return [[s.a, s.b, s.c, s.d] for s in bank.sections]


def _bank_from(obj, side: str, where: str) -> CompensatorBank:
    try:
        sections = tuple(FirstOrderSection(*(float(v) for v in coeffs))
                         for coeffs in obj)
        return CompensatorBank(sections, side)
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"{where}: malformed compensator bank ({exc})") from exc


def controller_obj(gain, w_in: CompensatorBank, w_out: CompensatorBank) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "gain": _matrix_obj(gain),
        "w_in": _bank_obj(w_in),
        "w_out": _bank_obj(w_out),
    }


def controller_from_obj(obj):
    try:
        gain = _matrix_from(obj["gain"], "controller gain")
        w_in = _bank_from(obj["w_in"], "in", "controller w_in")
        w_out = _bank_from(obj["w_out"], "out", "controller w_out")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"controller: missing field ({exc})") from exc
    return gain, w_in, w_out


def load_controller(path):
    return controller_from_obj(_load_json(path))


def save_controller(gain, w_in, w_out, path):
    Path(path).write_text(canonical_json(controller_obj(gain, w_in, w_out)))


# --- run configuration ------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    grid: FrequencyGrid
    constraints: ScpConstraints | None
    target: EigTarget | None
    ga_scp: dict
    ga_rssd: dict
    seed: int | None


def _grid_from(obj) -> FrequencyGrid:
    if obj is None:
        return FrequencyGrid.default()
    try:
        if "points" in obj:
            return FrequencyGrid(np.asarray(obj["points"], dtype=float))
        return FrequencyGrid(np.logspace(
            float(obj["lo_exp"]), float(obj["hi_exp"]),
            _number(obj["count"], "config grid count", integer=True)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"config grid: {exc}") from exc


def _target_from(obj) -> EigTarget:
    try:
        modes = []
        for m in obj["modes"]:
            m = _object(m, "config target mode")
            entries = tuple(
                EntryConstraint(int(e["state"]), float(e["re_lo"]),
                                float(e["re_hi"]), float(e.get("im_lo", 0.0)),
                                float(e.get("im_hi", 0.0)))
                for e in m.get("entries", ())
            )
            modes.append(ModeTarget(str(m["kind"]), float(m["wn_lo"]),
                                    float(m["wn_hi"]), entries))
        sigma = obj.get("sigma_max")
        return EigTarget(tuple(modes), float(obj["zeta_min"]),
                         None if sigma is None else float(sigma))
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"config target: {exc}") from exc


def _constraints_from(obj) -> ScpConstraints:
    try:
        return ScpConstraints(
            tuple((float(a), float(b)) for a, b in obj["in_boxes"]),
            tuple((float(a), float(b)) for a, b in obj["out_boxes"]),
            float(obj["dc_floor_db"]),
            (float(obj["band"][0]), float(obj["band"][1])),
            float(obj.get("cancellation_tol", 1e-4)),
        )
    except (LookupError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"config constraints: {exc}") from exc


def config_from_obj(obj) -> RunConfig:
    obj = _object(obj or {}, "config")
    return RunConfig(
        grid=_grid_from(obj.get("grid")),
        constraints=(_constraints_from(obj["constraints"])
                     if "constraints" in obj else None),
        target=_target_from(obj["target"]) if "target" in obj else None,
        ga_scp=obj.get("ga_scp", {}),
        ga_rssd=obj.get("ga_rssd", {}),
        seed=(None if obj.get("seed") is None
              else _number(obj["seed"], "config seed", integer=True)),
    )


def load_config(path) -> RunConfig:
    return config_from_obj(_load_json(path))


def _number(value, where: str, integer: bool = False):
    """A finite JSON number (an integral one if ``integer``), else ParseError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value) or (integer and value != int(value))):
        kind = "an integer" if integer else "a finite number"
        raise ParseError(f"{where}: expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


def ga_config(options: dict, seed: int) -> GaConfig:
    """GaConfig from a config's ga_scp/ga_rssd object; ``seed`` replaces its seed."""
    _object(options, "config GA options")
    defaults = {f.name: f.default for f in fields(GaConfig)}
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise ParseError(f"config GA options {unknown} are unknown")
    opts = {key: _number(value, f"config GA option {key!r}",
                         isinstance(defaults[key], int))
            for key, value in options.items() if key != "seed"}
    try:
        return GaConfig(seed=seed, **opts)
    except DimensionMismatch as exc:
        raise ParseError(f"config GA options: {exc}") from exc


# --- scenarios --------------------------------------------------------------

def _signal_from(obj, where) -> SignalSpec:
    _object(obj, where)
    try:
        return SignalSpec(str(obj.get("kind", "zero")),
                          float(obj.get("magnitude", 0.0)),
                          float(obj.get("start", 0.0)),
                          float(obj.get("width", 0.0)))
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"{where}: bad signal spec ({exc})") from exc


# tracking_metrics' arguments, read from a scenario's "metrics" object
METRIC_DEFAULTS = {"error_band": 0.0087, "rms_ceiling": 0.0873,
                   "steady_after": 0.0}


def scenario_from_obj(obj) -> tuple[Scenario, dict]:
    """(scenario, tracking_metrics keyword arguments) from a scenario object."""
    try:
        reference = tuple(_signal_from(s, "scenario reference")
                          for s in obj["reference"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scenario: missing reference list ({exc})") from exc
    disturbance = tuple(_signal_from(s, "scenario disturbance")
                        for s in obj.get("disturbance", ()))
    uncertainty = None
    if obj.get("uncertainty") is not None:
        u = obj["uncertainty"]
        try:
            uncertainty = UncertaintyInjection(
                FirstOrderSection(*(float(v) for v in u["weight"])),
                int(u["channel"]), float(u.get("delta", 1.0)))
        except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
            raise ParseError(f"scenario uncertainty: {exc}") from exc
    try:
        scenario = Scenario(reference, disturbance, uncertainty,
                            float(obj.get("dt", 1e-3)),
                            float(obj.get("duration", 10.0)))
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"scenario: {exc}") from exc
    spec = _object(obj.get("metrics", {}), "scenario metrics")
    metrics = {key: _number(spec.get(key, default), f"scenario metric {key!r}")
               for key, default in METRIC_DEFAULTS.items()}
    return scenario, metrics


def load_scenario(path):
    return scenario_from_obj(_load_json(path))


# --- CSV curves/traces ------------------------------------------------------

def write_csv(path, header, columns):
    """Header row, then one %.12g row per sample, written in chunks."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise DimensionMismatch("one header per column required")
    fmt = ",".join(["%.12g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            rows = zip(*[c[i:i + CSV_CHUNK_ROWS].tolist() for c in columns])
            fh.write("".join([fmt % row for row in rows]))
