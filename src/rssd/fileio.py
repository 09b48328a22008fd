"""JSON/CSV file formats: plant sets, controllers, run configs, scenarios.

JSON is canonicalized (sorted keys, 2-space indent, trailing newline) so a
write -> read -> write round trip is byte-identical.  Matrices are stored
row-major with explicit dimensions.  A CSV curve or trace file is a
csv-quoted header row, then one CRLF-ended row of %.12g values per sample
(write_csv); a column that several files share is formatted once (CsvText).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, RssdError
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


# Every reader below takes its JSON objects through _object and its leaves
# through the four helpers after it alone.

REQUIRED = object()  # _field's default for a key that must be present


def _object(obj, where: str, keys) -> dict:
    """``obj`` if it is a JSON object whose every key is one of ``keys``, the
    keys its format defines: a typo is refused, never read as a default."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}")
    return obj


def _field(obj, key: str, where: str, default=REQUIRED, kind=object):
    """``obj[key]`` of the ``_object`` ``obj``, ``default`` if it is absent
    or null.  A present value must be a ``kind``; an int or a float one is
    read by _number."""
    value = obj.get(key)
    if value is None:
        if default is REQUIRED:
            raise ParseError(f"{where}: missing {key!r}")
        return default
    if kind in (int, float):
        return _number(value, f"{where} {key}", integer=kind is int)
    if not isinstance(value, kind):
        raise ParseError(f"{where} {key}: expected a {kind.__name__}, "
                         f"got {value!r}")
    return value


def _number(value, where: str, integer: bool = False):
    """A finite JSON number, else ParseError; with ``integer`` an integral
    one >= 0 (every integer in these formats is a count or an index)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, inf, huge ints
            or (integer and (value < 0 or value != int(value)))):
        kind = "a count or index" if integer else "a finite number"
        raise ParseError(f"{where}: expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _list(value, where: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list (of ``length`` items if given)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        kind = "a list" if length is None else f"a list of {length}"
        raise ParseError(f"{where}: expected {kind}, got {value!r}")
    return value


def _build(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``; the one place where a constructor's refusal
    of what was read becomes a ParseError."""
    try:
        return cls(*args, **kwargs)
    except RssdError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _matrix_obj(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [float(v) for v in M.ravel(order="C")],
    }


def _matrix_from(obj, where: str) -> np.ndarray:
    _object(obj, where, ("rows", "cols", "data"))
    rows, cols = (_field(obj, k, where, kind=int) for k in ("rows", "cols"))
    data = _list(_field(obj, "data", where), f"{where} data", rows * cols)
    return np.array([_number(v, f"{where} data") for v in data],
                    dtype=float).reshape(rows, cols)


# --- plant sets -------------------------------------------------------------

def plantset_obj(pset: PlantSet) -> dict:
    plants = []
    for p in pset:
        entry = {
            "label": p.label,
            "n": p.n, "m": p.m, "r": p.r,
            "A": _matrix_obj(p.A),
            "B": _matrix_obj(p.B),
            "C": _matrix_obj(p.C),
        }
        if np.any(p.D):
            entry["D"] = _matrix_obj(p.D)
        plants.append(entry)
    return {"schema": SCHEMA_VERSION, "plants": plants}


def plantset_from_obj(obj) -> PlantSet:
    """The plant set, with labels fit to key reports and name output files:
    unique and free of path separators."""
    _object(obj, "plant set", ("schema", "plants"))
    if _field(obj, "schema", "plant set", SCHEMA_VERSION, int) != SCHEMA_VERSION:
        raise ParseError(f"plant set: schema is not {SCHEMA_VERSION}")
    plants = []
    for i, entry in enumerate(_field(obj, "plants", "plant set", kind=list)):
        _object(entry, f"plant {i}", ("label", "n", "m", "r", "A", "B", "C", "D"))
        label = _field(entry, "label", f"plant {i}", "", str) or f"plant{i}"
        where = f"plant {i} ({label})"
        if "/" in label or "\\" in label:
            raise ParseError(f"{where}: label contains a path separator")
        if label in (p.label for p in plants):
            raise ParseError(f"{where}: duplicate plant label {label!r}")
        n, m, r = (_field(entry, k, where, kind=int) for k in "nmr")
        A, B, C = (_matrix_from(_field(entry, k, where), f"{where} {k}")
                   for k in "ABC")
        D = _field(entry, "D", where, None)
        D = np.zeros((r, m)) if D is None else _matrix_from(D, f"{where} D")
        plants.append(_build(StateSpacePlant, where, A, B, C, D, label))
        if (plants[-1].n, plants[-1].m, plants[-1].r) != (n, m, r):
            raise ParseError(f"{where}: stated dims (n={n}, m={m}, r={r}) "
                             f"disagree with matrices")
    return _build(PlantSet, "plant set", tuple(plants))


def load_plantset(path) -> PlantSet:
    return plantset_from_obj(_load_json(path))


def save_plantset(pset: PlantSet, path):
    Path(path).write_text(canonical_json(plantset_obj(pset)))


# --- controllers ------------------------------------------------------------

def _bank_obj(bank: CompensatorBank) -> list:
    return [[s.a, s.b, s.c, s.d] for s in bank.sections]


def _section_from(coeffs, where: str) -> FirstOrderSection:
    """(a s + b) / (c s + d) from its coefficient list [a, b, c, d]."""
    return _build(FirstOrderSection, where,
                  *(_number(v, where) for v in _list(coeffs, where, 4)))


def controller_obj(gain, w_in: CompensatorBank, w_out: CompensatorBank) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "gain": _matrix_obj(gain),
        "w_in": _bank_obj(w_in),
        "w_out": _bank_obj(w_out),
    }


def _bank_from(obj, key: str, side: str) -> CompensatorBank:
    where = f"controller {key}"
    return _build(CompensatorBank, where, tuple(
        _section_from(s, f"{where} section {i}")
        for i, s in enumerate(_field(obj, key, "controller", kind=list))), side)


def controller_from_obj(obj):
    """(gain, w_in, w_out) from a controller object."""
    _object(obj, "controller", ("schema", "gain", "w_in", "w_out"))
    if _field(obj, "schema", "controller", SCHEMA_VERSION, int) != SCHEMA_VERSION:
        raise ParseError(f"controller: schema is not {SCHEMA_VERSION}")
    return (_matrix_from(_field(obj, "gain", "controller"), "controller gain"),
            _bank_from(obj, "w_in", "in"), _bank_from(obj, "w_out", "out"))


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
    ga_scp: GaConfig  # budgets only: the run's seed replaces theirs
    ga_rssd: GaConfig
    seed: int | None


def _grid_from(obj, where: str = "config grid") -> FrequencyGrid:
    _object(obj, where, ("lo_exp", "hi_exp", "count"))
    return _build(FrequencyGrid, where,
                  np.logspace(_field(obj, "lo_exp", where, kind=float),
                              _field(obj, "hi_exp", where, kind=float),
                              _field(obj, "count", where, kind=int)))


def _target_from(obj, where: str = "config target") -> EigTarget:
    _object(obj, where, ("modes", "zeta_min", "sigma_max"))
    modes = []
    for i, mode in enumerate(_field(obj, "modes", where, kind=list)):
        mw = f"{where} mode {i}"
        _object(mode, mw, ("kind", "wn_lo", "wn_hi", "entries"))
        entries = []
        for j, e in enumerate(_field(mode, "entries", mw, [], list)):
            ew = f"{mw} entry {j}"
            _object(e, ew, ("state", "re_lo", "re_hi", "im_lo", "im_hi"))
            entries.append(_build(
                EntryConstraint, ew, _field(e, "state", ew, kind=int),
                _field(e, "re_lo", ew, kind=float),
                _field(e, "re_hi", ew, kind=float),
                _field(e, "im_lo", ew, 0.0, float),
                _field(e, "im_hi", ew, 0.0, float)))
        modes.append(_build(ModeTarget, mw, _field(mode, "kind", mw, kind=str),
                            _field(mode, "wn_lo", mw, kind=float),
                            _field(mode, "wn_hi", mw, kind=float),
                            tuple(entries)))
    return _build(EigTarget, where, tuple(modes),
                  _field(obj, "zeta_min", where, kind=float),
                  _field(obj, "sigma_max", where, None, float))


def _constraints_from(obj, where: str = "config constraints") -> ScpConstraints:
    def pair(value, key):
        return tuple(_number(v, f"{where} {key}")
                     for v in _list(value, f"{where} {key}", 2))

    _object(obj, where, ("in_boxes", "out_boxes", "dc_floor_db", "band"))
    return _build(ScpConstraints, where, *(
        tuple(pair(box, key) for box in _field(obj, key, where, kind=list))
        for key in ("in_boxes", "out_boxes")),
        _field(obj, "dc_floor_db", where, kind=float),
        pair(_field(obj, "band", where), "band"))


def _ga_from(obj, key: str) -> GaConfig:
    """A GA budget: the operators are constants and the seed is the run's,
    so a budget object holds these two keys alone."""
    where = f"config {key}"
    budget = _object(_field(obj, key, "config", {}), where,
                     ("population", "max_generations"))
    return _build(GaConfig, where,
                  **{k: _field(budget, k, where, kind=int) for k in budget})


def config_from_obj(obj) -> RunConfig:
    def optional(key, read):
        value = _field(obj, key, "config", None)
        return None if value is None else read(value)

    _object(obj, "config", ("grid", "constraints", "target", "ga_scp",
                            "ga_rssd", "seed"))
    return RunConfig(
        grid=optional("grid", _grid_from) or FrequencyGrid.default(),
        constraints=optional("constraints", _constraints_from),
        target=optional("target", _target_from),
        ga_scp=_ga_from(obj, "ga_scp"),
        ga_rssd=_ga_from(obj, "ga_rssd"),
        seed=_field(obj, "seed", "config", None, int),
    )


def load_config(path) -> RunConfig:
    return config_from_obj(_load_json(path))


# --- scenarios --------------------------------------------------------------

def _signal_from(obj, where: str) -> SignalSpec:
    _object(obj, where, ("kind", "magnitude", "start", "width"))
    return _build(SignalSpec, where, _field(obj, "kind", where, "zero", str),
                  *(_field(obj, k, where, 0.0, float)
                    for k in ("magnitude", "start", "width")))


# tracking_metrics' arguments, read from a scenario's "metrics" object
METRIC_DEFAULTS = {"error_band": 0.0087, "rms_ceiling": 0.0873,
                   "steady_after": 0.0}


def scenario_from_obj(obj) -> tuple[Scenario, dict]:
    """(scenario, tracking_metrics keyword arguments) from a scenario object."""
    _object(obj, "scenario", ("reference", "disturbance", "uncertainty", "dt",
                              "duration", "metrics"))
    reference, disturbance = (
        tuple(_signal_from(s, f"scenario {key} {i}") for i, s in
              enumerate(_field(obj, key, "scenario", default, list)))
        for key, default in (("reference", REQUIRED), ("disturbance", [])))
    u = _field(obj, "uncertainty", "scenario", None)
    where = "scenario uncertainty"
    uncertainty = None if u is None else UncertaintyInjection(
        _section_from(_field(_object(u, where, ("weight", "channel", "delta")),
                             "weight", where), f"{where} weight"),
        _field(u, "channel", where, kind=int),
        _field(u, "delta", where, 1.0, float))
    scenario = _build(Scenario, "scenario", reference, disturbance, uncertainty,
                      _field(obj, "dt", "scenario", 1e-3, float),
                      _field(obj, "duration", "scenario", 10.0, float))
    spec = _object(_field(obj, "metrics", "scenario", {}), "scenario metrics",
                   METRIC_DEFAULTS)
    metrics = {key: _field(spec, key, "scenario metrics", default, float)
               for key, default in METRIC_DEFAULTS.items()}
    if metrics["steady_after"] >= scenario.duration:
        raise ParseError("scenario metrics steady_after: must be below the duration")
    return scenario, metrics


def load_scenario(path):
    return scenario_from_obj(_load_json(path))


# --- CSV curves/traces ------------------------------------------------------

class CsvText(tuple):
    """A column formatted once, one %.12g bytes item per row, that write_csv
    writes as it stands: the text of a column that several files share."""

    def __new__(cls, values):
        return super().__new__(
            cls, [b"%.12g" % v for v in np.asarray(values).tolist()])


def write_csv(path, header, columns):
    """A csv-quoted header row, then one row per sample of each column's
    %.12g value, written as UTF-8 bytes in chunks with CRLF line ends.

    A column is numeric (an array or a list of numbers) or a CsvText, whose
    text is written unchanged; DimensionMismatch unless there is one header
    per column and every column has the same number of rows.
    """
    text = [isinstance(c, CsvText) for c in columns]
    columns = [c if t else np.asarray(c) for c, t in zip(columns, text)]
    if len(header) != len(columns):
        raise DimensionMismatch("one header per column required")
    if len({len(c) for c in columns}) > 1:
        raise DimensionMismatch("every column needs the same number of rows")
    fmt = b",".join([b"%s" if t else b"%.12g" for t in text]) + b"\r\n"
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for i in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            rows = zip(*[c[i:i + CSV_CHUNK_ROWS] if t else
                         c[i:i + CSV_CHUNK_ROWS].tolist()
                         for c, t in zip(columns, text)])
            fh.write(b"".join([fmt % row for row in rows]))
