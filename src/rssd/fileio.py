"""JSON/CSV file formats: plant sets, controllers, run configs, scenarios.

JSON is canonicalized (sorted keys, 2-space indent, trailing newline) so a
write -> read -> write round trip is byte-identical.  Matrices are stored
row-major with explicit dimensions.  A CSV curve or trace file is a
csv-quoted header row, then one CRLF-ended row of %.12g values per sample
(write_csv); a column that several files share is formatted once (CsvText).
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, RssdError
from .eigassign import EigTarget, EntryConstraint, ModeTarget
from .lti import CompensatorBank, FirstOrderSection, FrequencyGrid, PlantSet, StateSpacePlant
from .nn_rssd import GaConfig
from .scp import ScpConstraints
from .sim import Scenario, SignalSpec, UncertaintyInjection, tracking_metrics

SCHEMA_VERSION = 1
CSV_CHUNK_ROWS = 512


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs) -> dict:
    """json's object_pairs_hook: the object, or ParseError naming a key it
    holds twice (json alone keeps the last value without a word)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


# Every reader below takes its JSON objects through _object, each key
# through _field and each leaf through a reader(value, where) after them.

def _object(obj, where: str, keys) -> dict:
    """``obj`` if it is a JSON object whose every key is one of ``keys``, the
    keys its format defines: a typo is refused, never read as a default."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}")
    return obj


def _field(obj, key: str, where: str, read, required: bool = True):
    """``read(obj[key], "<where> <key>")`` of the ``_object`` ``obj``, or
    None if the key is absent or null, which a ``required`` key may not be."""
    value = obj.get(key)
    if value is None:
        if required:
            raise ParseError(f"{where}: missing {key!r}")
        return None
    return read(value, f"{where} {key}")


def _number(value, where: str, integer: bool = False):
    """A finite JSON number, else ParseError; with ``integer`` an integral
    one >= 0 (every integer in these formats is a count or an index)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, inf, huge ints
            or (integer and (value < 0 or value != int(value)))):
        kind = "a count or index" if integer else "a finite number"
        raise ParseError(f"{where}: expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


_count = partial(_number, integer=True)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a str, got {value!r}")
    return value


def _list(value, where: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list (of ``length`` items if given)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        kind = "a list" if length is None else f"a list of {length}"
        raise ParseError(f"{where}: expected {kind}, got {value!r}")
    return value


def _items(read):
    """The reader of a JSON list whose item i ``read`` reads as
    "<where> i": the tuple of what it reads."""
    return lambda value, where: tuple(
        read(item, f"{where} {i}") for i, item in enumerate(_list(value, where)))


def _pair(value, where: str) -> tuple:
    return tuple(_number(v, where) for v in _list(value, where, 2))


def _build(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``; the one place where a constructor's refusal
    of what was read becomes a ParseError."""
    try:
        return cls(*args, **kwargs)
    except RssdError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _schema(obj, where: str):
    """ParseError unless the ``_object`` ``obj`` omits its schema or states
    this one."""
    if _field(obj, "schema", where, _count, False) not in (None, SCHEMA_VERSION):
        raise ParseError(f"{where}: schema is not {SCHEMA_VERSION}")


def _matrix_obj(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [float(v) for v in M.ravel(order="C")],
    }


def _matrix_from(obj, where: str) -> np.ndarray:
    _object(obj, where, ("rows", "cols", "data"))
    rows, cols = (_field(obj, k, where, _count) for k in ("rows", "cols"))
    data = _field(obj, "data", where, partial(_list, length=rows * cols))
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
    _schema(_object(obj, "plant set", ("schema", "plants")), "plant set")
    plants = []
    for i, entry in enumerate(_field(obj, "plants", "plant set", _list)):
        _object(entry, f"plant {i}", ("label", *"nmrABCD"))
        label = _field(entry, "label", f"plant {i}", _text, False) or f"plant{i}"
        where = f"plant {i} ({label})"
        if "/" in label or "\\" in label:
            raise ParseError(f"{where}: label contains a path separator")
        if label in (p.label for p in plants):
            raise ParseError(f"{where}: duplicate plant label {label!r}")
        n, m, r = (_field(entry, k, where, _count) for k in "nmr")
        A, B, C, D = (_field(entry, k, where, _matrix_from, k != "D")
                      for k in "ABCD")
        D = np.zeros((r, m)) if D is None else D
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


def _bank_from(obj, key: str) -> CompensatorBank:
    where = f"controller {key}"
    return _build(CompensatorBank, where, tuple(
        _section_from(s, f"{where} section {i}")
        for i, s in enumerate(_field(obj, key, "controller", _list))))


def controller_from_obj(obj):
    """(gain, w_in, w_out) from a controller object."""
    _object(obj, "controller", ("schema", "gain", "w_in", "w_out"))
    _schema(obj, "controller")
    return (_field(obj, "gain", "controller", _matrix_from),
            _bank_from(obj, "w_in"), _bank_from(obj, "w_out"))


def load_controller(path):
    return controller_from_obj(_load_json(path))


def save_controller(gain, w_in, w_out, path):
    Path(path).write_text(canonical_json(controller_obj(gain, w_in, w_out)))


# --- run configurations and scenarios ---------------------------------------

@dataclass(frozen=True)
class RunConfig:
    grid: FrequencyGrid = field(default_factory=FrequencyGrid.default)
    constraints: ScpConstraints | None = None
    target: EigTarget | None = None
    ga_scp: GaConfig = GaConfig()  # budgets only: the run's seed replaces theirs
    ga_rssd: GaConfig = GaConfig()
    seed: int | None = None


def _grid_from(obj, where: str) -> FrequencyGrid:
    """``count`` points spaced evenly in log from 10^lo_exp to 10^hi_exp."""
    keys = {"lo_exp": _number, "hi_exp": _number, "count": _count}
    _object(obj, where, keys)
    return _build(FrequencyGrid, where, np.logspace(
        *(_field(obj, key, where, read) for key, read in keys.items())))


def _arguments(callee, obj, where: str) -> dict:
    """The keyword arguments of ``callee`` that the JSON object ``obj``
    holds, each key read by its ``TABLES[callee]`` reader.  An absent or null
    key is left out, so that ``callee``'s own default applies; one for a
    parameter without a default is refused as missing."""
    params = inspect.signature(callee).parameters
    _object(obj, where, TABLES[callee])
    args = {key: _field(obj, key, where, read,
                        params[key].default is params[key].empty)
            for key, read in TABLES[callee].items()}
    return {key: value for key, value in args.items() if value is not None}


def _reader(cls):
    """The reader of a JSON object of ``cls``'s ``_arguments``: the ``cls``
    built from them."""
    return lambda obj, where: _build(cls, where, **_arguments(cls, obj, where))


# Each constructor-read object's keys, with the reader of each one's value:
# the keys its format defines, each the name of a keyword argument.  A GA
# budget holds its two keys alone: the operators are constants, the seed the
# run's.
TABLES = {
    EntryConstraint: {"state": _count, "re_lo": _number, "re_hi": _number,
                      "im_lo": _number, "im_hi": _number},
    ModeTarget: {"kind": _text, "wn_lo": _number, "wn_hi": _number,
                 "entries": _items(_reader(EntryConstraint))},
    EigTarget: {"modes": _items(_reader(ModeTarget)), "zeta_min": _number,
                "sigma_max": _number},
    ScpConstraints: {"in_boxes": _items(_pair), "out_boxes": _items(_pair),
                     "dc_floor_db": _number, "band": _pair},
    GaConfig: {"population": _count, "max_generations": _count},
    RunConfig: {"grid": _grid_from, "constraints": _reader(ScpConstraints),
                "target": _reader(EigTarget), "ga_scp": _reader(GaConfig),
                "ga_rssd": _reader(GaConfig), "seed": _count},
    SignalSpec: {"kind": _text, "magnitude": _number, "start": _number,
                 "width": _number},
    UncertaintyInjection: {"weight": _section_from, "channel": _count,
                           "delta": _number},
    Scenario: {"reference": _items(_reader(SignalSpec)),
               "disturbance": _items(_reader(SignalSpec)),
               "uncertainty": _reader(UncertaintyInjection),
               "dt": _number, "duration": _number},
    tracking_metrics: {"error_band": _number, "rms_ceiling": _number,
                       "steady_after": _number},
}


def config_from_obj(obj) -> RunConfig:
    return _reader(RunConfig)(obj, "config")


def load_config(path) -> RunConfig:
    return config_from_obj(_load_json(path))


def scenario_from_obj(obj) -> tuple[Scenario, dict]:
    """(scenario, tracking_metrics keyword arguments) from a scenario object:
    a Scenario's keys and a "metrics" object of those arguments."""
    fields = dict(_object(obj, "scenario", [*TABLES[Scenario], "metrics"]))
    spec = fields.pop("metrics", None)
    scenario = _reader(Scenario)(fields, "scenario")
    metrics = {} if spec is None else _arguments(tracking_metrics, spec,
                                                 "scenario metrics")
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
