import csv
import json
from dataclasses import MISSING, fields, is_dataclass
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

from rssd import fileio
from rssd.eigassign import EigTarget, EntryConstraint, ModeTarget
from rssd.errors import DimensionMismatch, ParseError
from rssd.lti import FrequencyGrid, PlantSet, StateSpacePlant
from rssd.nn_rssd import GaConfig
from rssd.scp import ScpConstraints
from rssd.sim import (
    Scenario,
    SignalSpec,
    UncertaintyInjection,
    tracking_metrics,
)

FIXTURES = Path(__file__).resolve().parent.parent / "configs"


class TestPlantSetIO:
    def test_round_trip_byte_identical(self, tmp_path):
        pset = PlantSet((StateSpacePlant.siso(-1.0, 2.0, label="a"),
                         StateSpacePlant.siso(1.0, 0.5, label="b")))
        path = tmp_path / "ps.json"
        fileio.save_plantset(pset, path)
        text1 = path.read_text()
        loaded = fileio.load_plantset(path)
        text2 = fileio.canonical_json(fileio.plantset_obj(loaded))
        assert text1 == text2

    def test_malformed_matrix_named(self, tmp_path):
        obj = fileio.plantset_obj(PlantSet((StateSpacePlant.siso(-1.0, 1.0,
                                                                 label="bad"),)))
        obj["plants"][0]["A"]["data"] = [1.0, 2.0]  # wrong length
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="bad"):
            fileio.load_plantset(path)

    def test_non_finite_rejected(self, tmp_path):
        obj = fileio.plantset_obj(PlantSet((StateSpacePlant.siso(-1.0, 1.0),)))
        obj["plants"][0]["B"]["data"] = [float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError):
            fileio.load_plantset(path)

    @pytest.mark.parametrize("labels", [["x", "x"], ["a/b", "c"],
                                        ["a\\b", "c"]])
    def test_labels_checked_on_load(self, labels):
        obj = fileio.plantset_obj(PlantSet(tuple(
            StateSpacePlant.siso(-1.0, 1.0, label) for label in labels)))
        with pytest.raises(ParseError, match="label"):
            fileio.plantset_from_obj(obj)

    def test_schema_optional_but_checked(self):
        obj = fileio.plantset_obj(PlantSet((StateSpacePlant.siso(-1.0, 1.0),)))
        del obj["schema"]
        assert len(fileio.plantset_from_obj(obj)) == 1
        for schema in (2, "1", True):
            obj["schema"] = schema
            with pytest.raises(ParseError, match="schema"):
                fileio.plantset_from_obj(obj)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            fileio.load_plantset(path)


class TestControllerIO:
    def test_published_fixture_round_trip(self, tmp_path):
        src = FIXTURES / "nav_controller.json"
        gain, w_in, w_out = fileio.load_controller(src)
        path = tmp_path / "ctrl.json"
        fileio.save_controller(gain, w_in, w_out, path)
        assert path.read_bytes() == src.read_bytes()

    def test_gain_shape_preserved(self):
        gain, w_in, w_out = fileio.load_controller(FIXTURES / "nav_controller.json")
        assert gain.shape == (3, 5)
        assert len(w_in) == 3 and len(w_out) == 5


class TestConfig:
    def test_defaults_fixture_parses(self):
        cfg = fileio.load_config(FIXTURES / "nav_defaults.json")
        assert cfg.target.zeta_min == pytest.approx(0.3)
        assert cfg.constraints.dc_floor_db == pytest.approx(6.0)
        assert cfg.ga_scp.max_generations == 20
        assert cfg.ga_rssd.max_generations == 1000
        assert cfg.seed == 1

    def test_defaults_contain_published_coefficients(self):
        cfg = fileio.load_config(FIXTURES / "nav_defaults.json")
        gain, w_in, w_out = fileio.load_controller(FIXTURES / "nav_controller.json")
        coeffs = [c for s in w_in.sections for c in (s.a, s.b, s.c, s.d)]
        for value, (lo, hi) in zip(coeffs, cfg.constraints.in_boxes):
            assert lo <= value <= hi
        coeffs = [c for s in w_out.sections for c in (s.a, s.b, s.c, s.d)]
        for value, (lo, hi) in zip(coeffs, cfg.constraints.out_boxes):
            assert lo <= value <= hi

    def test_grid_spec(self):
        cfg = fileio.config_from_obj(
            {"grid": {"lo_exp": -1, "hi_exp": 2, "count": 10}})
        assert cfg.grid.points.size == 10
        assert cfg.grid.points[0] == pytest.approx(0.1)

    def test_empty_config_defaults(self):
        cfg = fileio.config_from_obj({})
        assert cfg.seed is None
        assert cfg.constraints is None
        assert cfg.grid.points.size == 400


class TestScenarioIO:
    def test_doublet_fixture(self):
        scenario, metrics = fileio.load_scenario(FIXTURES / "doublet_scenario.json")
        assert scenario.reference[0].kind == "doublet"
        assert scenario.reference[0].magnitude == pytest.approx(0.0873)
        assert scenario.reference[0].width == pytest.approx(2.0)
        assert metrics["error_band"] == pytest.approx(0.0087)

    def test_uncertainty_section(self):
        scenario, _ = fileio.scenario_from_obj({
            "reference": [{"kind": "zero"}],
            "uncertainty": {"weight": [3.0, 923.9, 1.0, 9239.0],
                            "channel": 0, "delta": -1.0},
        })
        assert scenario.uncertainty.delta == -1.0
        weight = scenario.uncertainty.weight
        assert weight.a / weight.c == pytest.approx(3.0)

    def test_bad_scenario_rejected(self):
        with pytest.raises(ParseError):
            fileio.scenario_from_obj({"reference": [{"kind": "spike"}]})


READERS = {
    "nav_defaults.json": fileio.config_from_obj,
    "three_plant_family.json": fileio.plantset_from_obj,
    "nav_controller.json": fileio.controller_from_obj,
    "paper_weight_scenario.json": fileio.scenario_from_obj,
}


class TestUnknownKeys:
    # a key its format does not define, a typo say, is refused by name:
    # ignored, it would leave its field at the default
    @pytest.mark.parametrize("fixture, path, typo", [
        pytest.param("nav_defaults.json", "", "ga_rsd", id="config"),
        pytest.param("nav_defaults.json", "grid", "cont", id="grid"),
        pytest.param("nav_defaults.json", "constraints", "dc_floor",
                     id="constraints"),
        pytest.param("nav_defaults.json", "target", "sigma_mx", id="target"),
        pytest.param("nav_defaults.json", "target.modes.0", "wn_high",
                     id="mode"),
        pytest.param("nav_defaults.json", "target.modes.1.entries.0",
                     "im_high", id="entry"),
        pytest.param("nav_defaults.json", "ga_scp", "populaton",
                     id="ga-budget"),
        pytest.param("three_plant_family.json", "", "schemas", id="plant-set"),
        pytest.param("three_plant_family.json", "plants.0", "d", id="plant"),
        pytest.param("three_plant_family.json", "plants.0.A", "colls",
                     id="matrix"),
        pytest.param("nav_controller.json", "", "w_inn", id="controller"),
        pytest.param("paper_weight_scenario.json", "", "disturbnce",
                     id="scenario"),
        pytest.param("paper_weight_scenario.json", "reference.0", "magnitud",
                     id="signal"),
        pytest.param("paper_weight_scenario.json", "uncertainty", "delt",
                     id="uncertainty"),
        pytest.param("paper_weight_scenario.json", "metrics", "steady",
                     id="metrics"),
    ])
    def test_typo_refused(self, fixture, path, typo):
        obj = json.loads((FIXTURES / fixture).read_text())
        READERS[fixture](obj)  # the fixture as committed parses
        inner = obj
        for key in filter(None, path.split(".")):
            inner = inner[int(key) if key.isdigit() else key]
        inner[typo] = 1.0
        with pytest.raises(ParseError, match=rf"unknown keys \['{typo}'\]"):
            READERS[fixture](obj)


# every key of every constructor-read object, each at a value other than
# its constructor's default
ENTRY = {"state": 1, "re_lo": -1.0, "re_hi": 1.0, "im_lo": -0.5, "im_hi": 0.5}
MODE = {"kind": "complex", "wn_lo": 1.0, "wn_hi": 2.0, "entries": [ENTRY]}
TARGET = {"modes": [MODE], "zeta_min": 0.3, "sigma_max": -0.5}
CONSTRAINTS = {"in_boxes": [[0.0, 1.0]] * 4, "out_boxes": [[0.0, 1.0]] * 4,
               "dc_floor_db": 6.0, "band": [0.1, 1.0]}
GA = {"population": 8, "max_generations": 3}
SIGNAL = {"kind": "step", "magnitude": 1.0, "start": 0.5, "width": 0.25}
UNCERTAINTY = {"weight": [3.0, 923.9, 1.0, 9239.0], "channel": 0, "delta": -1.0}
FULL = {
    EntryConstraint: ENTRY,
    ModeTarget: MODE,
    EigTarget: TARGET,
    ScpConstraints: CONSTRAINTS,
    GaConfig: GA,
    fileio.RunConfig: {"grid": {"lo_exp": -1, "hi_exp": 1, "count": 5},
                       "constraints": CONSTRAINTS, "target": TARGET,
                       "ga_scp": GA, "ga_rssd": GA, "seed": 3},
    SignalSpec: SIGNAL,
    UncertaintyInjection: UNCERTAINTY,
    Scenario: {"reference": [SIGNAL], "disturbance": [SIGNAL],
               "uncertainty": UNCERTAINTY, "dt": 0.01, "duration": 5.0},
    tracking_metrics: {"error_band": 0.1, "rms_ceiling": 0.2,
                       "steady_after": 1.0},
}


def defaults(callee) -> dict:
    """{argument: default} of each of callee's arguments that has one: a
    dataclass's from its fields, a function's from its signature."""
    if is_dataclass(callee):
        return {f.name: f.default_factory() if f.default is MISSING
                else f.default for f in fields(callee)
                if f.default is not MISSING or f.default_factory is not MISSING}
    return {name: p.default for name, p in signature(callee).parameters.items()
            if p.default is not p.empty}


def value_read(callee, obj, key):
    """The value that the JSON object obj gives callee's argument key."""
    if is_dataclass(callee):
        return getattr(fileio._reader(callee)(obj, "x"), key)
    return fileio._arguments(callee, obj, "x").get(key, defaults(callee)[key])


def same(a, b) -> bool:
    if isinstance(a, FrequencyGrid):
        return np.array_equal(a.points, b.points)
    return a == b


def keys(optional: bool) -> list:
    return [pytest.param(callee, key, id=f"{callee.__name__}-{key}")
            for callee, table in fileio.TABLES.items() for key in table
            if (key in defaults(callee)) is optional]


class TestReadingRule:
    # each constructor-read object is read through one rule: a present,
    # non-null key passes its value by name, an absent or null one takes
    # the constructor's default, and one with no default is missing
    def test_every_table_sampled(self):
        assert set(FULL) == set(fileio.TABLES)
        for callee, table in fileio.TABLES.items():
            assert set(FULL[callee]) == set(table), callee.__name__

    @pytest.mark.parametrize("callee, key", keys(optional=True))
    @pytest.mark.parametrize("absent", [True, False], ids=["omitted", "null"])
    def test_optional_key_takes_the_default(self, callee, key, absent):
        obj = json.loads(json.dumps(FULL[callee]))
        default = defaults(callee)[key]
        assert not same(value_read(callee, obj, key), default)
        if absent:
            del obj[key]
        else:
            obj[key] = None
        assert same(value_read(callee, obj, key), default)

    @pytest.mark.parametrize("callee, key", keys(optional=False))
    @pytest.mark.parametrize("absent", [True, False], ids=["omitted", "null"])
    def test_required_key_refused_by_name(self, callee, key, absent):
        obj = json.loads(json.dumps(FULL[callee]))
        if absent:
            del obj[key]
        else:
            obj[key] = None
        with pytest.raises(ParseError, match=rf"^x: missing '{key}'$"):
            value_read(callee, obj, key)

    def test_metrics_default_to_the_paper_ceilings(self):
        _, metrics = fileio.scenario_from_obj({"reference": []})
        assert metrics == {}
        assert defaults(tracking_metrics) == {
            "error_band": 0.0087, "rms_ceiling": 0.0873, "steady_after": 0.0}


def _plant_stating(n):
    obj = fileio.plantset_obj(PlantSet((StateSpacePlant.siso(-1.0, 1.0),)))
    obj["plants"][0]["n"] = n
    return obj


class TestRefusals:
    # each input guard refuses with its own typed error
    @pytest.mark.parametrize("build, error, match", [
        pytest.param(lambda tmp: fileio.plantset_from_obj(_plant_stating(2)),
                     ParseError, "stated dims", id="stated-order"),
        pytest.param(lambda tmp: fileio.controller_from_obj(dict(
            json.loads((FIXTURES / "nav_controller.json").read_text()),
            schema=2)), ParseError, "controller: schema", id="controller-schema"),
        pytest.param(lambda tmp: fileio.write_csv(tmp / "x.csv", ["a", "b"],
                                                  [[1.0]]),
                     DimensionMismatch, "one header per column",
                     id="csv-headers"),
    ])
    def test_refused(self, tmp_path, build, error, match):
        with pytest.raises(error, match=match):
            build(tmp_path)


def reference_csv(path, header, columns):
    """One csv.writer row per sample, each value through f"{v:.12g}"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*[np.asarray(c) for c in columns]):
            writer.writerow([f"{v:.12g}" for v in row])


class TestCsv:
    @pytest.mark.parametrize("columns", [
        [np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300,
                   5e-324, 2.2250738585072014e-308 / 3, 1 / 3, -2.5e17]),
         np.arange(11),
         np.array([7, -3, 0, 2**53 + 1, 123456789012345, -1, 1, 2, 3, 4, 5])],
        [np.arange(5), np.array([0, -1, 10**12, 999999999999, 1234567890123])],
        [np.array([]), np.array([])],
        [],
        # the eigenvalue table's plain lists of floats are numbers, not text
        [[-0.5, -1.25, 3.0], [0.0, 2.0000000000001, -2.0], [1.0, 0.5, np.nan]],
    ], ids=["specials", "ints", "empty-columns", "no-columns", "float-lists"])
    def test_bytes_match_reference_writer(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        fileio.write_csv(tmp_path / "a.csv", header, columns)
        reference_csv(tmp_path / "b.csv", header, columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_quoted_header_names(self, tmp_path):
        header = ["t", 'gain, "dB"', "y"]
        columns = [np.arange(3.0), np.array([1e-3, -2.5, np.nan]),
                   np.array([0.1, 0.2, 0.3])]
        fileio.write_csv(tmp_path / "a.csv", header, columns)
        reference_csv(tmp_path / "b.csv", header, columns)
        text = (tmp_path / "a.csv").read_bytes()
        assert text == (tmp_path / "b.csv").read_bytes()
        assert text.startswith(b't,"gain, ""dB""",y\r\n')

    def test_text_column_matches_its_numeric_twin(self, tmp_path):
        n = fileio.CSV_CHUNK_ROWS + 3
        columns = [np.arange(n) * 1e-3, np.where(np.arange(n) > 9, 0.0873, 0.0),
                   np.random.default_rng(6).normal(size=n)]
        shared = [fileio.CsvText(columns[0]), columns[1],
                  fileio.CsvText(columns[2])]
        fileio.write_csv(tmp_path / "a.csv", ["t", "r", "y"], shared)
        reference_csv(tmp_path / "b.csv", ["t", "r", "y"], columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 0)])
    def test_ragged_columns_refused(self, tmp_path, lengths):
        columns = [np.arange(float(n)) for n in lengths]
        with pytest.raises(DimensionMismatch, match="same number of rows"):
            fileio.write_csv(tmp_path / "a.csv",
                             [f"c{i}" for i in range(len(lengths))], columns)

    def test_rows_spanning_several_chunks(self, tmp_path):
        n = 2 * fileio.CSV_CHUNK_ROWS + 7
        rng = np.random.default_rng(5)
        columns = [np.arange(n) * 1e-3,
                   rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n),
                   np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n))]
        fileio.write_csv(tmp_path / "a.csv", ["t", "x", "y"], columns)
        reference_csv(tmp_path / "b.csv", ["t", "x", "y"], columns)
        text = (tmp_path / "a.csv").read_bytes()
        assert text == (tmp_path / "b.csv").read_bytes()
        assert text.count(b"\r\n") == n + 1

    def test_columns_written(self, tmp_path):
        path = tmp_path / "c.csv"
        fileio.write_csv(path, ["t", "y"], [np.array([0.0, 1.0]),
                                            np.array([2.0, 3.0])])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y"
        assert lines[1] == "0,2"
