import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import rssd.nn_rssd
from rssd import fileio
from rssd.cli import main
from rssd.lti import (
    CompensatorBank,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    augment_plant,
    eval_response,
)
from rssd.margins import closed_loop
from rssd.nn_rssd import SynthesisReport

FIXTURES = Path(__file__).resolve().parent.parent / "configs"
FAMILY = str(FIXTURES / "three_plant_family.json")
CONFIG = str(FIXTURES / "three_plant_config.json")
SCENARIO = str(FIXTURES / "doublet_scenario.json")
PAPER_SCENARIO = str(FIXTURES / "paper_weight_scenario.json")


def run(*argv):
    return main(list(argv))


def count_calls(monkeypatch, original, counts, key,
                counted=lambda *args, **kwargs: True):
    """Count calls of ``original`` from every rssd module that imported it;
    ``counted(*args)`` selects which calls count."""
    def wrapper(*args, **kwargs):
        if counted(*args, **kwargs):
            counts[key] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "rssd" or name.startswith("rssd.")) and \
                getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)


# SHA-256 of the fixture's analyze outputs; a change to them has to be
# declared here
ANALYZE_SHA256 = {
    "margins.json":
        "fd213d320ce2455c254c9ae04958a60783f380b0ce952a4e540b09eee3cd75e6",
    "curves_0_nominal.csv":
        "05be2638f8262d779774a34fe180313b84c9b44177317717382295eaa9641c44",
    "curves_1_fast.csv":
        "04b4c5fd78f5bb54c3f92268803ccc0fdaef86289005ed790501fb85536335e0",
    "curves_2_slow.csv":
        "f9e635ebb568b85f9d8600f3cb70ac98842929ca3436fad1b37298837d6efd65",
}

# synth writes only its report and controller; analyze writes the analysis
SYNTH_SHA256 = {
    "synthesis_report.json":
        "8ce3a645d678cf0751a9dac401ee320870f90c0824125c07ef9ddc4e9c9bbbe5",
    "controller.json":
        "d1f7b062633c737608efed174ebe7394f062b2c08421eee7ded292a09c4fcf81",
}

SIM_SHA256 = {
    "traces_0_nominal.csv":
        "502acd41d65bc1ce77e294b453f10546dae3966e4ed8beec9301eca365e59d1d",
    "traces_1_fast.csv":
        "e4600e16538a94439a3b6d4cadb98f6e4d013102d08fa220844d11dbea0a2eb3",
    "traces_2_slow.csv":
        "1ae2c716e1a38bbd56b7756985242f9e5c2c4e6247d3d5add05881321bfae0e7",
    "tracking_report.json":
        "fa8cdaf5cea7450b64f09b7a73406410722c38eb677cf7a6e536745b34e70f6f",
}


# SHA-256 of analyze on a seeded 3x2 MIMO set (mimo_analyze_inputs): three
# stable loops, one of them with D != 0, and one unstable loop
MIMO_ANALYZE_SHA256 = {
    "margins.json":
        "763d5afd6c007366fec69c61c4b62541a779f54e67b856e9e1fca1f3eeb12eee",
    "curves_0_a.csv":
        "44ba68d1cbe014c928ff5e79932889e00a25b5e55b4135a3b44d3de5830e338f",
    "curves_1_b.csv":
        "43cd9f8c2b304c2da705808bc463df8081a0b35369a723d0c4aac61236733261",
    "curves_2_c.csv":
        "288d72cf15971e7808f6b0aacc8489577cc4fb482b50fae3761dfec6a9169c0b",
    "curves_3_d.csv":
        "eff1e7f954c310dfbbb50e8fb3e344967b5c2a1e56f3d7662a3361a45d999b57",
}


# SHA-256 of sim on the same set (mimo_analyze_inputs, MIMO_SIM_SCENARIO):
# doublet, step and zero references sharing one time axis, a disturbance on
# channel 2, and loop d diverging into NaN rows at t = 24.7
MIMO_SIM_SHA256 = {
    "tracking_report.json":
        "3852f3dc4b6f554b69d09316a51a264e6139bd47bc362ae07f93e58cafc134f7",
    "traces_0_a.csv":
        "82f2cbc5e51fa0d1b2a5a5b244387bc33df5b5b7551d5036ec249f47bc6169b6",
    "traces_1_b.csv":
        "1735dca3078033914513c5c679fdac83bf4229ef5c144586632f3f85e853082a",
    "traces_2_c.csv":
        "25007af116fcc8227902a2aed819dc3e90a690c81001b2a0d7362db8548a5381",
    "traces_3_d.csv":
        "6e9be54ed44e86dac894f5b7359c90feea4d7267fcbea86211704650281b1608",
}

MIMO_SIM_SCENARIO = {
    "reference": [{"kind": "doublet", "magnitude": 0.2, "start": 1.0,
                   "width": 1.5},
                  {"kind": "step", "magnitude": -0.5, "start": 0.5},
                  {"kind": "zero"}],
    "disturbance": [{"kind": "zero"}, {"kind": "zero"},
                    {"kind": "step", "magnitude": 0.1, "start": 3.0}],
    "dt": 0.01, "duration": 40.0,
}


def mimo_analyze_inputs(tmp_path):
    """(plant set, controller) paths for four seeded 3x2 plants under one
    gain and dynamic banks: loops a, b (D != 0) and c stable, d unstable."""
    from rssd.lti import CompensatorBank, FirstOrderSection
    rng = np.random.default_rng(28)
    plants = []
    for label, feed, unstable in (("a", 0.0, False), ("b", 0.4, False),
                                  ("c", 0.0, False), ("d", 0.0, True)):
        poles = -rng.uniform(0.5, 4.0, 4)
        if unstable:
            poles[0] = 0.8
        plants.append(StateSpacePlant(np.diag(poles), rng.normal(size=(4, 2)),
                                      rng.normal(size=(3, 4)),
                                      feed * rng.normal(size=(3, 2)), label))
    plant_path, controller = tmp_path / "mimo.json", tmp_path / "mimo_k.json"
    fileio.save_plantset(PlantSet(tuple(plants)), plant_path)
    fileio.save_controller(
        -0.15 * rng.normal(size=(2, 3)),
        CompensatorBank(tuple(FirstOrderSection(*c) for c in (
            (1.0, 2.0, 1.0, 4.0), (0.0, 1.0, 0.0, 1.0)))),
        CompensatorBank(tuple(FirstOrderSection(*c) for c in (
            (0.0, 3.0, 1.0, 3.0), (0.5, 1.0, 1.0, 2.0),
            (0.0, 1.0, 0.0, 1.0)))), controller)
    return str(plant_path), str(controller)


def assert_pinned(out: Path, digests: dict):
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
            == digest, name


# SHA-256 of the fixture's gap matrix; plain labels are written unquoted
GAP_MATRIX_SHA256 = \
    "973011f12cfb9d6e73b3dbb64c1c1aea1a3f78f86cd91462099243e9c319ac60"


def relabelled(tmp_path, labels):
    """The fixture's plant set with its labels replaced by ``labels``."""
    obj = json.loads(Path(FAMILY).read_text())
    for entry, label in zip(obj["plants"], labels, strict=True):
        entry["label"] = label
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(obj))
    return str(path)


def command_args(command, tmp_path):
    """The arguments ``command`` needs besides the plant set and --out: the
    fixture's config for synth, a unit 1x1 controller for analyze and sim."""
    from rssd.lti import CompensatorBank
    controller = tmp_path / "unit.json"
    fileio.save_controller(np.ones((1, 1)), CompensatorBank.identity(1),
                           CompensatorBank.identity(1), controller)
    return {"vgap": [], "synth": ["--config", CONFIG],
            "analyze": ["--controller", str(controller)],
            "sim": ["--controller", str(controller),
                    "--scenario", SCENARIO]}[command]


class TestVgapCommand:
    def test_reports_central_plant(self, tmp_path, capsys):
        assert run("vgap", FAMILY, "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "vgap_report.json").read_text())
        assert report["central_label"] == "nominal"
        matrix = (tmp_path / "gap_matrix.csv").read_text().splitlines()
        assert matrix[0] == "label,nominal,fast,slow"
        assert len(matrix) == 4
        assert hashlib.sha256((tmp_path / "gap_matrix.csv").read_bytes()) \
            .hexdigest() == GAP_MATRIX_SHA256

    def test_labels_with_commas_quoted(self, tmp_path):
        labels = ["a,b", 'say "hi"', "c"]
        assert run("vgap", relabelled(tmp_path, labels),
                   "--out", str(tmp_path)) == 0
        with open(tmp_path / "gap_matrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", *labels]
        assert [row[0] for row in rows[1:]] == labels
        assert all(len(row) == 4 for row in rows)

    def test_single_plant_trivial(self, tmp_path):
        pset = fileio.load_plantset(FAMILY)
        solo = PlantSet((pset[0],))
        path = tmp_path / "solo.json"
        fileio.save_plantset(solo, path)
        assert run("vgap", str(path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "vgap_report.json").read_text())
        assert report["epsilon"] == 0.0

    @pytest.mark.parametrize("command", ["vgap", "synth"])
    def test_response_whose_square_overflows_exit_4(self, tmp_path, capsys,
                                                    command):
        path = tmp_path / "huge.json"
        fileio.save_plantset(PlantSet((
            StateSpacePlant.siso(-1.0, 1e160, "huge"),
            StateSpacePlant.siso(-1.0, 1.0, "lag"))), path)
        extra = ["--config", CONFIG] if command == "synth" else []
        out = tmp_path / "out"
        assert run(command, str(path), *extra, "--out", str(out)) == 4
        assert "plant 'huge': |P(jw)|^2 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_parse_exit(self, tmp_path):
        assert run("vgap", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 3

    def test_malformed_plant_parse_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plants": [{"label": "x", "n": 1}]}')
        assert run("vgap", str(path), "--out", str(tmp_path)) == 3


class TestSynthCommand:
    def test_feasible_writes_report_and_controller_only(self, tmp_path):
        out = tmp_path / "synth"
        assert run("synth", FAMILY, "--config", CONFIG,
                   "--out", str(out)) == 0
        report = json.loads((out / "synthesis_report.json").read_text())
        assert report["feasible"]
        assert {p.name for p in out.iterdir()} == {
            "synthesis_report.json", "controller.json"}

    def test_report_keys_are_the_report_fields(self, tmp_path):
        # the JSON object is SynthesisReport field for field
        assert run("synth", FAMILY, "--config", CONFIG,
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert set(report) == {f.name for f in dataclasses.fields(SynthesisReport)}

    def test_outputs_pinned(self, tmp_path):
        assert run("synth", FAMILY, "--config", CONFIG,
                   "--out", str(tmp_path)) == 0
        assert_pinned(tmp_path, SYNTH_SHA256)

    def test_scores_one_genome_in_j2(self, tmp_path, monkeypatch):
        # the fixture certifies on its first genome, which is the whole of
        # the inner search's first chunk
        chunks = []

        def spy(p_cp, genomes, target, _fn=rssd.nn_rssd.j2_fitness):
            chunks.append(len(genomes))
            return _fn(p_cp, genomes, target)

        monkeypatch.setattr(rssd.nn_rssd, "j2_fitness", spy)
        assert run("synth", FAMILY, "--config", CONFIG,
                   "--out", str(tmp_path)) == 0
        assert chunks == [1]

    def test_identical_invocations_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("synth", FAMILY, "--config", CONFIG, "--out", str(out1))
        run("synth", FAMILY, "--config", CONFIG, "--out", str(out2))
        assert ((out1 / "synthesis_report.json").read_bytes()
                == (out2 / "synthesis_report.json").read_bytes())
        assert ((out1 / "controller.json").read_bytes()
                == (out2 / "controller.json").read_bytes())

    def test_missing_seed_usage_error(self, tmp_path):
        cfg = json.loads(Path(CONFIG).read_text())
        del cfg["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg))
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("key", ["constraints", "target"])
    def test_missing_constraints_or_target_usage_error(self, tmp_path, capsys,
                                                       key):
        cfg = json.loads(Path(CONFIG).read_text())
        del cfg[key]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(out)) == 2
        assert "synth requires seed, constraints and target" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_entry_state_beyond_the_plant_exit_3(self, tmp_path, capsys):
        # the fixture's augmented plants have one state; state 5 was an
        # IndexError inside the inner search
        cfg = json.loads(Path(CONFIG).read_text())
        cfg["target"]["modes"][0]["entries"] = [
            {"state": 5, "re_lo": -1, "re_hi": 1}]
        path = tmp_path / "state5.json"
        path.write_text(json.dumps(cfg))
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(tmp_path)) == 3
        assert ("entry state 5 is not below the augmented central plant's "
                "order 1") in capsys.readouterr().err

    @pytest.mark.parametrize("outer_generations", [20, 0])
    def test_target_columns_not_outputs_exit_3(self, tmp_path, capsys,
                                               outer_generations):
        # two real modes give CR two columns against one output; that was
        # exit 3 from the inner search, and exit 0 with no search at all
        cfg = json.loads(Path(CONFIG).read_text())
        cfg["target"]["modes"] *= 2
        cfg["ga_scp"]["max_generations"] = outer_generations
        path = tmp_path / "two_modes.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(out)) == 3
        assert ("target modes give 2 eigenvector columns for 1 outputs"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_pair_damped_above_its_box_exit_3(self, tmp_path, capsys):
        # a pair's damping gene lies in (zeta_min, ZETA_MAX): above 0.999 that
        # box was inverted, and the search died in numpy with exit 1
        cfg = json.loads(Path(CONFIG).read_text())
        cfg["target"]["modes"][0]["kind"] = "complex"
        cfg["target"]["zeta_min"] = 0.9995
        path = tmp_path / "damped.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(out)) == 3
        assert ("zeta_min 0.9995 is above a conjugate pair's largest damping "
                "ratio 0.999" in capsys.readouterr().err)
        assert not out.exists()

    def test_singular_pencil_exit_4(self, tmp_path, capsys):
        # a 2x2 member whose B has rank 1 has no transmission zeros to
        # check against: every s drops its system pencil's rank
        rng = np.random.default_rng(5)
        A = -np.diag([1.0, 2.0, 3.0]) + 0.3 * rng.normal(size=(3, 3))
        C, B = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        rank1 = rng.normal(size=(3, 1)) @ rng.normal(size=(1, 2))
        plants = tmp_path / "plants.json"
        fileio.save_plantset(PlantSet((
            StateSpacePlant(A, B, C, np.zeros((2, 2)), "full"),
            StateSpacePlant(1.1 * A, rank1, C, np.zeros((2, 2)), "rank1"))),
            plants)
        cfg = json.loads(Path(CONFIG).read_text())
        for side in ("in_boxes", "out_boxes"):
            cfg["constraints"][side] *= 2
        cfg["target"]["modes"] *= 2
        path = tmp_path / "square2.json"
        path.write_text(json.dumps(cfg))
        assert run("synth", str(plants), "--config", str(path),
                   "--out", str(tmp_path)) == 4
        assert ("plant 'rank1': singular system pencil (normal rank below 2)"
                in capsys.readouterr().err)

    def test_zero_generations_infeasible_normal_exit(self, tmp_path):
        cfg = json.loads(Path(CONFIG).read_text())
        cfg["ga_scp"]["max_generations"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(path),
                   "--out", str(out)) == 0
        assert [p.name for p in out.iterdir()] == ["synthesis_report.json"]
        report = json.loads((out / "synthesis_report.json").read_text())
        assert not report["feasible"]
        assert report["j1_history"] == []


class TestAnalyzeCommand:
    # the tests only read the controller, so one synth serves the class
    @pytest.fixture(scope="class")
    def controller(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("synth")
        run("synth", FAMILY, "--config", CONFIG, "--out", str(out))
        return str(out / "controller.json")

    def test_curves_and_tables(self, tmp_path, controller):
        assert run("analyze", FAMILY, "--controller", controller,
                   "--out", str(tmp_path)) == 0
        curves = (tmp_path / "curves_0_nominal.csv").read_text().splitlines()
        assert curves[0].startswith("omega,sigma_max,sigma_min,so_max")
        eig = (tmp_path / "eigenvalues_0_nominal.csv").read_text().splitlines()
        assert eig[0] == "re,im,zeta,wn"
        margins = json.loads((tmp_path / "margins.json").read_text())
        assert set(margins) == {"nominal", "fast", "slow"}
        assert all(not margins[k]["unstable"] for k in margins)

    def test_unstable_pairing_flagged_but_continues(self, tmp_path, capsys):
        # zero gain does not stabilize the unstable family
        gain = np.zeros((1, 1))
        from rssd.lti import CompensatorBank
        fileio.save_controller(gain, CompensatorBank.identity(1),
                               CompensatorBank.identity(1),
                               tmp_path / "zero.json")
        assert run("analyze", FAMILY, "--controller",
                   str(tmp_path / "zero.json"), "--out", str(tmp_path)) == 0
        margins = json.loads((tmp_path / "margins.json").read_text())
        assert all(margins[k]["unstable"] for k in margins)

    def test_one_loop_and_one_response_per_plant(self, tmp_path, controller,
                                                  monkeypatch):
        counts = {"loops": 0, "responses": 0}
        points = FrequencyGrid.default().points.size
        count_calls(monkeypatch, closed_loop, counts, "loops")
        count_calls(monkeypatch, eval_response, counts, "responses",
                    lambda plant, s_values: np.size(s_values) == points)
        assert run("analyze", FAMILY, "--config", CONFIG, "--controller",
                   controller, "--out", str(tmp_path)) == 0
        assert counts == {"loops": 3, "responses": 3}

    def test_mimo_outputs_pinned(self, tmp_path, monkeypatch):
        # one loop and one grid-sized response per plant, unstable one included
        plants, controller = mimo_analyze_inputs(tmp_path)
        counts = {"loops": 0, "responses": 0}
        points = FrequencyGrid.default().points.size
        count_calls(monkeypatch, closed_loop, counts, "loops")
        count_calls(monkeypatch, eval_response, counts, "responses",
                    lambda plant, s_values: np.size(s_values) == points)
        out = tmp_path / "out"
        assert run("analyze", plants, "--controller", controller,
                   "--out", str(out)) == 0
        assert counts == {"loops": 4, "responses": 4}
        margins = json.loads((out / "margins.json").read_text())
        assert [margins[k]["unstable"] for k in "abcd"] == [False] * 3 + [True]
        assert_pinned(out, MIMO_ANALYZE_SHA256)

    def test_singular_sensitivity_exits_numeric(self, tmp_path, controller,
                                                monkeypatch, capsys):
        # an S_o or S_i that cannot be inverted ends analyze (exit 4)
        inv = np.linalg.inv

        def singular(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular)
        assert run("analyze", FAMILY, "--controller", controller,
                   "--out", str(tmp_path)) == 4
        assert "numeric failure: Singular matrix" in capsys.readouterr().err

    def test_nan_sensitivity_records_error(self, tmp_path, controller,
                                           monkeypatch):
        # a NaN sensitivity's singular value fails the plant's curves as a
        # NaN in P(jw) would: an error entry and no files, not exit 4
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) * (
            np.nan if np.ndim(a) == 3 else 1.0))
        assert run("analyze", FAMILY, "--controller", controller,
                   "--out", str(tmp_path)) == 0
        margins = json.loads((tmp_path / "margins.json").read_text())
        assert all(list(entry) == ["error"] for entry in margins.values())
        assert not list(tmp_path.glob("*.csv"))

    def test_margin_failure_records_error(self, tmp_path, capsys):
        # 1e160/(s + 1)'s Hamiltonian overflows, so its disk margin fails:
        # an error entry and no files for it, the other plant still written
        from rssd.lti import CompensatorBank
        plants, controller = tmp_path / "plants.json", tmp_path / "k.json"
        fileio.save_plantset(PlantSet((
            StateSpacePlant.siso(-1.0, 1e160, "big"),
            StateSpacePlant.siso(-1.0, 1.0, "unit"))), plants)
        fileio.save_controller(np.array([[-1.0]]),
                               CompensatorBank.identity(1),
                               CompensatorBank.identity(1), controller)
        out = tmp_path / "out"
        assert run("analyze", str(plants), "--controller", str(controller),
                   "--out", str(out)) == 0
        margins = json.loads((out / "margins.json").read_text())
        assert list(margins["big"]) == ["error"]
        assert not margins["unit"]["unstable"]
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "curves_1_unit.csv", "eigenvalues_1_unit.csv"]

    def test_outputs_pinned(self, tmp_path, controller):
        assert run("analyze", FAMILY, "--config", CONFIG, "--controller",
                   controller, "--out", str(tmp_path)) == 0
        assert_pinned(tmp_path, ANALYZE_SHA256)

    def test_no_lapack_call_on_a_1x1_stack(self, tmp_path, controller,
                                           monkeypatch):
        # a SISO loop's singular values come from margins.singular_values'
        # elementwise kernel, not from one LAPACK call per frequency
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert run("analyze", FAMILY, "--config", CONFIG, "--controller",
                   controller, "--out", str(tmp_path)) == 0
        assert shapes and not [s for s in shapes if s[-2:] == (1, 1)]

    def test_mimo_loop_takes_five_sigma_batches(self, tmp_path, monkeypatch):
        # P, S_o, S_i, K S_o and T_o: S_i's singular values serve both the
        # sensitivity curves and the inverse-input bound
        from rssd import cli
        from rssd.lti import CompensatorBank
        from rssd.margins import singular_values

        grid = FrequencyGrid.default()
        counts = {"batches": 0}
        count_calls(monkeypatch, singular_values, counts, "batches",
                    lambda mats: np.shape(mats)[0] == grid.points.size)
        plant = StateSpacePlant(-np.diag([1.0, 2.0, 3.0]),
                                [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                [[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]],
                                np.zeros((2, 2)), "mimo")
        summary = cli._analysis_bundle(
            PlantSet((plant,)), -0.2 * np.eye(2), CompensatorBank.identity(2),
            CompensatorBank.identity(2), grid, tmp_path)
        assert not summary["mimo"]["unstable"]
        assert counts == {"batches": 5}


class TestSimCommand:
    def test_traces_and_report(self, tmp_path):
        out = tmp_path / "synth"
        run("synth", FAMILY, "--config", CONFIG, "--out", str(out))
        sim_out = tmp_path / "sim"
        assert run("sim", FAMILY, "--controller", str(out / "controller.json"),
                   "--scenario", SCENARIO, "--out", str(sim_out)) == 0
        traces = (sim_out / "traces_0_nominal.csv").read_text().splitlines()
        assert traces[0] == "time,ref_0,y_0,err_0,u_0"
        report = json.loads((sim_out / "tracking_report.json").read_text())
        assert set(report) == {"nominal", "fast", "slow"}
        assert_pinned(sim_out, SIM_SHA256)

    def test_mimo_outputs_pinned(self, tmp_path):
        plants, controller = mimo_analyze_inputs(tmp_path)
        (tmp_path / "sc.json").write_text(json.dumps(MIMO_SIM_SCENARIO))
        out = tmp_path / "out"
        assert run("sim", plants, "--controller", controller, "--scenario",
                   str(tmp_path / "sc.json"), "--out", str(out)) == 0
        report = json.loads((out / "tracking_report.json").read_text())
        assert [report[k]["diverged"] for k in "abcd"] == [False] * 3 + [True]
        rows = list(csv.reader((out / "traces_3_d.csv").open()))
        assert rows[0][:4] == ["time", "ref_0", "y_0", "err_0"]
        assert rows[-1][0] == "40" and rows[-1][2] == "nan"
        assert_pinned(out, MIMO_SIM_SHA256)

    def test_paper_weight_scenario_tracks(self, tmp_path):
        # the doublet under the paper's (3s + 923.9)/(s + 9239) output weight:
        # every loop is stable (max Re lambda <= -19), and so is its trace
        out = tmp_path / "synth"
        run("synth", FAMILY, "--config", CONFIG, "--out", str(out))
        sim_out = tmp_path / "sim"
        assert run("sim", FAMILY, "--controller", str(out / "controller.json"),
                   "--scenario", PAPER_SCENARIO, "--out", str(sim_out)) == 0
        report = json.loads((sim_out / "tracking_report.json").read_text())
        assert set(report) == {"nominal", "fast", "slow"}
        for entry in report.values():
            assert entry["diverged"] is False and entry["passed"] is True

    def test_steady_window_at_the_last_sample(self, tmp_path):
        # steady_after = duration leaves the sample at t = duration alone in
        # the window, so each max steady error is that sample's |error|
        from rssd.lti import CompensatorBank
        fileio.save_controller(np.ones((1, 1)), CompensatorBank.identity(1),
                               CompensatorBank.identity(1), tmp_path / "unit.json")
        scenario = json.loads(Path(SCENARIO).read_text())
        _set(scenario, "metrics.steady_after", scenario["duration"])
        (tmp_path / "sc.json").write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert run("sim", FAMILY, "--controller", str(tmp_path / "unit.json"),
                   "--scenario", str(tmp_path / "sc.json"),
                   "--out", str(out)) == 0
        report = json.loads((out / "tracking_report.json").read_text())
        for idx, label in enumerate(("nominal", "fast", "slow")):
            last = list(csv.reader((out / f"traces_{idx}_{label}.csv").open()))[-1]
            assert last[0] == "10"
            (channel,) = report[label]["channels"]
            assert channel["max_steady_error"] == pytest.approx(
                abs(float(last[3])), rel=1e-11)

    def test_divergent_pairing_reported(self, tmp_path):
        from rssd.lti import CompensatorBank
        fileio.save_controller(np.array([[0.1]]),
                               CompensatorBank.identity(1),
                               CompensatorBank.identity(1),
                               tmp_path / "weak.json")
        scenario = {
            "reference": [{"kind": "step", "magnitude": 1.0}],
            "dt": 1e-3, "duration": 40.0,
        }
        (tmp_path / "sc.json").write_text(json.dumps(scenario))
        assert run("sim", FAMILY, "--controller", str(tmp_path / "weak.json"),
                   "--scenario", str(tmp_path / "sc.json"),
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "tracking_report.json").read_text())
        assert report == {
            label: {"diverged": True, "divergence_time": t}
            for label, t in (("nominal", 21.02), ("fast", 22.594),
                             ("slow", 19.496))}


class TestMisfitController:
    # a controller that does not fit the plant set is refused before any
    # plant is computed, by analyze and sim alike: exit 3 and no --out
    @pytest.fixture(params=["sections", "gain"])
    def misfit(self, request, tmp_path):
        if request.param == "sections":  # 3 input, 5 output sections
            return str(FIXTURES / "nav_controller.json")
        path = tmp_path / "k2x2.json"  # one section each, a 2x2 gain
        fileio.save_controller(np.eye(2), CompensatorBank.identity(1),
                               CompensatorBank.identity(1), path)
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "sim"])
    def test_refused_before_any_plant(self, tmp_path, capsys, monkeypatch,
                                      misfit, command):
        counts = {"augmented": 0}
        count_calls(monkeypatch, augment_plant, counts, "augmented")
        extra = ["--scenario", SCENARIO] if command == "sim" else []
        out = tmp_path / "out"
        assert run(command, FAMILY, "--controller", misfit, *extra,
                   "--out", str(out)) == 3
        assert "does not fit plants with m=1, r=1" in capsys.readouterr().err
        assert counts == {"augmented": 0}
        assert not out.exists()


class TestPlantLabels:
    # reports are keyed by label and output files named after it, so the
    # CLI refuses a set whose labels collide or name another directory
    @pytest.mark.parametrize("labels, message", [
        (["x", "x", "y"], "duplicate plant label 'x'"),
        (["a/b", "c", "d"], "path separator"),
        (["a\\b", "c", "d"], "path separator"),
    ])
    @pytest.mark.parametrize("command", ["vgap", "synth", "analyze", "sim"])
    def test_bad_labels_parse_exit(self, tmp_path, capsys, command, labels,
                                   message):
        extra = command_args(command, tmp_path)
        out = tmp_path / "out"
        assert run(command, relabelled(tmp_path, labels), *extra,
                   "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unlabelled_plants_named_by_position(self, tmp_path):
        from rssd.lti import PlantSet, StateSpacePlant
        plants = tmp_path / "unlabelled.json"
        fileio.save_plantset(PlantSet((StateSpacePlant.siso(-1.0, 1.0),
                                       StateSpacePlant.siso(-2.0, 1.0))), plants)
        assert run("vgap", str(plants), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "vgap_report.json").read_text())
        assert report["labels"] == ["plant0", "plant1"]


class TestNoChannels:
    # a plant set with no inputs or no outputs is refused (exit 3) by the
    # plant-set reader, before any command computes on it
    @pytest.mark.parametrize("m, r", [(0, 1), (1, 0)], ids=["m0", "r0"])
    @pytest.mark.parametrize("command", ["vgap", "synth", "analyze", "sim"])
    def test_parse_exit(self, tmp_path, capsys, command, m, r):
        plants = tmp_path / "plants.json"
        plants.write_text(json.dumps({"plants": [
            {"label": f"p{k}", "n": 1, "m": m, "r": r,
             "A": fileio._matrix_obj([[-1.0 - k]]),
             "B": fileio._matrix_obj(np.ones((1, m))),
             "C": fileio._matrix_obj(np.ones((r, 1)))} for k in range(2)]}))
        out = tmp_path / "out"
        assert run(command, str(plants), *command_args(command, tmp_path),
                   "--out", str(out)) == 3
        assert "plants need inputs and outputs" in capsys.readouterr().err
        assert not out.exists()


DROP = object()


def _set(obj, path, value):
    """``obj`` with the value at the dotted ``path`` replaced, or removed if
    ``value`` is DROP; a list item is named by its index."""
    keys = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in keys[:-1]:
        obj = obj[key]
    if value is DROP:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value


class TestBadValues:
    # every bad number in a config or scenario is a parse error (exit 3),
    # never a traceback or a silently crippled run
    # a GA option sets the budget only: the operators are constants and the
    # seed is the run's, so a config that sets one names an unknown key, as
    # does any other key the format does not define
    @pytest.mark.parametrize("changes, message", [
        pytest.param({"ga_scp.populaton": 20}, "unknown", id="unknown-key"),
        pytest.param({"ga_scp.population": "abc"}, "error: ",
                     id="population-string"),
        pytest.param({"ga_scp.population": 20.5}, "error: ",
                     id="population-fraction"),
        pytest.param({"ga_rssd.tournament": 0}, "unknown", id="tournament-0"),
        pytest.param({"ga_scp.population": 4, "ga_scp.elites": 10}, "unknown",
                     id="elites-above-population"),
        pytest.param({"ga_rssd.mutation_scale": float("nan")}, "unknown",
                     id="mutation-scale-nan"),
        pytest.param({"ga_scp.max_generations": -5}, "max_generations",
                     id="max-generations-negative"),
        pytest.param({"ga_scp.seed": 3}, "unknown", id="ga-seed-ignored"),
        pytest.param({"constraints.band": [0.01, float("inf")]}, "error: ",
                     id="band-infinite"),
        pytest.param({"constraints.band": [0.01]}, "error: ",
                     id="band-one-edge"),
        pytest.param({"constraints.cancellation_tol": float("nan")},
                     "unknown keys ['cancellation_tol']",
                     id="cancellation-tol-nan"),
        pytest.param({"constraints.cancellation_tol": -1e-4},
                     "unknown keys ['cancellation_tol']",
                     id="cancellation-tol-negative"),
        pytest.param({"constraints.in_boxes": [[0, 0], [5.0, 0.5], [0, 0], [1, 1]]},
                     "error: ", id="box-inverted"),
        pytest.param({"seed": "abc"}, "error: ", id="seed-string"),
        # numpy's generators take no negative seed
        pytest.param({"seed": -1}, "config seed: expected a count or index",
                     id="seed-negative"),
        pytest.param({"ga_scp": [20, 4]}, "error: ", id="ga-options-list"),
        pytest.param({"grid": {"points": [1.0, "x"]}},
                     "config grid: unknown keys ['points']",
                     id="grid-point-string"),
    ])
    def test_bad_config_parse_exit(self, tmp_path, capsys, changes, message):
        cfg = json.loads(Path(CONFIG).read_text())
        for path, value in changes.items():
            _set(cfg, path, value)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(tmp_path / "cfg.json"),
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "error: " in err and message in err
        assert not (out / "synthesis_report.json").exists()

    @pytest.mark.parametrize("duplicate, key", [
        pytest.param('"seed": 1, "seed": 2', "seed", id="top-level"),
        pytest.param('"ga_scp": {"population": 8, "population": 30}',
                     "population", id="nested"),
    ])
    def test_duplicate_key_parse_exit(self, tmp_path, capsys, duplicate, key):
        # json alone keeps the last of two equal keys, so the fixture's
        # config with its own key replaced so would run on the second value
        cfg = json.loads(Path(CONFIG).read_text())
        for replaced in json.loads("{" + duplicate + "}"):
            del cfg[replaced]
        (tmp_path / "cfg.json").write_text(
            "{" + duplicate + ", " + json.dumps(cfg)[1:])
        out = tmp_path / "out"
        assert run("synth", FAMILY, "--config", str(tmp_path / "cfg.json"),
                   "--out", str(out)) == 3
        assert f"duplicate key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, path", [
        pytest.param("plants", "plants.0.label", id="plant-label"),
        pytest.param("config", "target.modes.0.kind", id="mode-kind"),
        pytest.param("scenario", "reference.0.kind", id="signal-kind"),
    ])
    def test_non_string_text_parse_exit(self, tmp_path, capsys, kind, path):
        from rssd.lti import CompensatorBank
        controller = tmp_path / "unit.json"
        fileio.save_controller(np.ones((1, 1)), CompensatorBank.identity(1),
                               CompensatorBank.identity(1), controller)
        source = {"plants": FAMILY, "config": CONFIG, "scenario": SCENARIO}[kind]
        obj = json.loads(Path(source).read_text())
        _set(obj, path, 5)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(obj))
        argv = {"plants": ["vgap", str(edited)],
                "config": ["synth", FAMILY, "--config", str(edited)],
                "scenario": ["sim", FAMILY, "--controller", str(controller),
                             "--scenario", str(edited)]}[kind]
        assert run(*argv, "--out", str(tmp_path / "out")) == 3
        assert "expected a str, got 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes", [
        pytest.param({"metrics.error_band": "abc"}, id="error-band-string"),
        pytest.param({"dt": float("nan")}, id="dt-nan"),
        pytest.param({"duration": float("inf")}, id="duration-infinite"),
        pytest.param({"uncertainty": {"weight": [3.0, 923.9, 1.0, 9239.0],
                                      "channel": 3}}, id="channel-past-end"),
        pytest.param({"uncertainty": {"weight": [3.0, 923.9, 1.0, 9239.0],
                                      "channel": -1}}, id="channel-negative"),
        pytest.param({"uncertainty": {"weight": [3.0, 923.9, 1.0, 9239.0],
                                      "channel": 2.5}}, id="channel-fraction"),
        # a steady window with no sample in it would pass any error band
        pytest.param({"metrics.steady_after": 50.0}, id="steady-after-past-end"),
        # the last sample is at 10.0: refused before any trace is written
        pytest.param({"duration": 10.0004, "metrics.steady_after": 10.0002},
                     id="steady-after-past-last-sample"),
        pytest.param({"reference": [{"kind": "step", "magnitude": 1.0}] * 2},
                     id="two-references-one-output"),
    ])
    def test_bad_scenario_parse_exit(self, tmp_path, capsys, changes):
        from rssd.lti import CompensatorBank
        fileio.save_controller(np.ones((1, 1)),
                               CompensatorBank.identity(1),
                               CompensatorBank.identity(1),
                               tmp_path / "unit.json")
        scenario = json.loads(Path(SCENARIO).read_text())
        for path, value in changes.items():
            _set(scenario, path, value)
        (tmp_path / "sc.json").write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert run("sim", FAMILY, "--controller", str(tmp_path / "unit.json"),
                   "--scenario", str(tmp_path / "sc.json"),
                   "--out", str(out)) == 3
        assert "error: " in capsys.readouterr().err
        assert not out.exists()


class TestWrongShapes:
    # a JSON input of the wrong shape is a parse error (exit 3), never a
    # traceback; a fractional or string grid count or plant dimension is
    # refused, not truncated
    @pytest.mark.parametrize("kind, path, value", [
        pytest.param("plants", "plants", [1], id="plant-not-object"),
        pytest.param("plants", "plants", 5, id="plants-number"),
        pytest.param("plants", "plants", {"a": 1}, id="plants-object"),
        pytest.param("plants", "plants.0.A", DROP, id="plant-without-A"),
        pytest.param("plants", "plants.0.B", DROP, id="plant-without-B"),
        pytest.param("plants", "plants.0.C", DROP, id="plant-without-C"),
        pytest.param("plants", "plants.0.n", 1.7, id="n-fraction"),
        pytest.param("plants", "plants.0.A.rows", 1.9, id="rows-fraction"),
        pytest.param("plants", "plants.0.n", "1", id="n-string"),
        pytest.param("config", None, [1, 2], id="config-list"),
        pytest.param("config", "target.modes.0", 1, id="mode-not-object"),
        pytest.param("config", "grid", {"lo_exp": -2, "hi_exp": 3, "count": 2.5},
                     id="grid-count-fraction"),
        pytest.param("scenario", "reference.0", 1, id="signal-not-object"),
    ])
    def test_wrong_shape_parse_exit(self, tmp_path, capsys, kind, path, value):
        from rssd.lti import CompensatorBank
        controller = tmp_path / "unit.json"
        fileio.save_controller(np.ones((1, 1)),
                               CompensatorBank.identity(1),
                               CompensatorBank.identity(1), controller)
        source = {"plants": FAMILY, "config": CONFIG, "scenario": SCENARIO}[kind]
        obj = json.loads(Path(source).read_text())
        if path is None:
            obj = value
        else:
            _set(obj, path, value)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(obj))
        argv = {"plants": ["vgap", str(edited)],
                "config": ["synth", FAMILY, "--config", str(edited)],
                "scenario": ["sim", FAMILY, "--controller", str(controller),
                             "--scenario", str(edited)]}[kind]
        assert run(*argv, "--out", str(tmp_path / "out")) == 3
        assert "error: " in capsys.readouterr().err


class TestPoleOnGrid:
    # the config's three-point grid (w = 0.1, 1, 10) samples w = 1, the
    # undamped pole of 1/(s^2 + 1), where the response has no finite value
    @pytest.fixture
    def plants(self, tmp_path):
        from rssd.lti import PlantSet, StateSpacePlant
        osc = StateSpacePlant([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                              [[1.0, 0.0]], [[0.0]], "osc")
        path = tmp_path / "plants.json"
        fileio.save_plantset(PlantSet((osc, StateSpacePlant.siso(-1.0, 1.0,
                                                                 "lag"))), path)
        return str(path)

    @pytest.fixture
    def config(self, tmp_path):
        cfg = json.loads(Path(CONFIG).read_text())
        cfg["grid"] = {"lo_exp": -1, "hi_exp": 1, "count": 3}
        path = tmp_path / "grid3.json"
        path.write_text(json.dumps(cfg))
        np.testing.assert_array_equal(fileio.load_config(path).grid.points,
                                      [0.1, 1.0, 10.0])
        return str(path)

    def test_analyze_records_error_and_continues(self, tmp_path, plants, config):
        from rssd.lti import CompensatorBank
        controller = tmp_path / "half.json"
        fileio.save_controller(np.array([[0.5]]),
                               CompensatorBank.identity(1),
                               CompensatorBank.identity(1), controller)
        out = tmp_path / "out"
        assert run("analyze", plants, "--controller", str(controller),
                   "--config", config, "--out", str(out)) == 0
        margins = json.loads((out / "margins.json").read_text())
        assert list(margins["osc"]) == ["error"]
        assert "plant 'osc'" in margins["osc"]["error"]
        assert not margins["lag"]["unstable"]
        assert not (out / "curves_0_osc.csv").exists()
        assert (out / "curves_1_lag.csv").exists()

    @pytest.mark.parametrize("command", ["vgap", "synth"])
    def test_nu_gap_exits_numeric(self, tmp_path, capsys, plants, config,
                                  command):
        assert run(command, plants, "--config", config,
                   "--out", str(tmp_path / "out")) == 4
        assert "plant 'osc'" in capsys.readouterr().err


class TestFlags:
    # a command accepts only the flags it reads; one it would drop is a
    # usage error (exit 2), not silently ignored
    @pytest.mark.parametrize("command, flag", [
        pytest.param("vgap", "--seed=1", id="vgap-seed"),
        # the config's seed is the run's only seed
        pytest.param("synth", "--seed=1", id="synth-seed"),
        pytest.param("analyze", "--seed=1", id="analyze-seed"),
        pytest.param("sim", "--seed=1", id="sim-seed"),
        pytest.param("sim", f"--config={CONFIG}", id="sim-config"),
        pytest.param("sim", "--grid=-2:3:50", id="sim-grid"),
        # the config's grid is the run's only grid
        pytest.param("vgap", "--grid=-2:3:50", id="vgap-grid"),
        pytest.param("synth", "--grid=-2:3:50", id="synth-grid"),
        pytest.param("analyze", "--grid=-2:3:50", id="analyze-grid"),
    ])
    def test_unread_flag_usage_exit(self, tmp_path, capsys, command, flag):
        extra = command_args(command, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(command, FAMILY, *extra, flag, "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err


def numeric_leaves(value, path=""):
    """Dotted paths (as ``_set`` takes them) of every numeric leaf."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        return [path] if numeric else []
    return [leaf for key, item in items
            for leaf in numeric_leaves(item, f"{path}.{key}".lstrip("."))]


def _get(obj, path):
    for key in path.split("."):
        obj = obj[int(key) if key.isdigit() else key]
    return obj


def test_no_lapack_sigma_of_a_1x1_stack(tmp_path, monkeypatch):
    # every 1x1 sigma of the fixture's vgap, synth and analyze comes from
    # margins.modulus: no eigvalsh of a 1x1 Gram, no singular-value-only SVD
    shapes = []
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

    def eigvalsh_spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def svd_spy(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        if not compute_uv:
            shapes.append(np.shape(a))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    synth = tmp_path / "synth"
    assert run("vgap", FAMILY, "--config", CONFIG, "--out",
               str(tmp_path / "vgap")) == 0
    assert run("synth", FAMILY, "--config", CONFIG, "--out", str(synth)) == 0
    assert run("analyze", FAMILY, "--config", CONFIG, "--controller",
               str(synth / "controller.json"), "--out",
               str(tmp_path / "analyze")) == 0
    assert not [s for s in shapes if s[-2:] == (1, 1)]


@pytest.fixture(scope="module")
def synthesized(tmp_path_factory):
    """The controller that synth finds for the fixture family."""
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", FAMILY, "--config", CONFIG, "--out", str(out)) == 0
    return str(out / "controller.json")


class TestLeafSweep:
    # every numeric leaf of every committed input must be a finite JSON
    # number (an integer where the format says so), so each bad value is a
    # parse error (exit 3) that writes nothing
    UNCERTAINTY = {"weight": [3.0, 923.9, 1.0, 9239.0], "channel": 0,
                   "delta": -1.0}

    def inputs(self, kind, controller):
        """(input object, the leaves to spoil, argv with {} for its file)."""
        if kind == "plants":
            obj = json.loads(Path(FAMILY).read_text())
            return obj, numeric_leaves(obj), ["vgap", "{}"]
        if kind == "config":
            obj = json.loads(Path(CONFIG).read_text())
            return obj, numeric_leaves(obj), ["vgap", FAMILY, "--config", "{}"]
        if kind == "controller":
            obj = json.loads(Path(controller).read_text())
            return obj, numeric_leaves(obj), ["analyze", FAMILY,
                                              "--controller", "{}"]
        if kind == "scenario":
            obj = json.loads(Path(SCENARIO).read_text())
            obj["uncertainty"] = dict(self.UNCERTAINTY)
            return obj, numeric_leaves(obj), ["sim", FAMILY, "--controller",
                                              controller, "--scenario", "{}"]
        obj = json.loads((FIXTURES / "nav_defaults.json").read_text())
        leaves = [leaf for leaf in numeric_leaves(obj)
                  if leaf.startswith("target.") and ".entries." in leaf]
        return obj, leaves, ["vgap", FAMILY, "--config", "{}"]

    @pytest.mark.parametrize("kind", ["plants", "config", "controller",
                                      "scenario", "nav-target-entries"])
    def test_every_bad_leaf_parse_exit(self, tmp_path, capsys, synthesized,
                                       kind):
        obj, leaves, argv = self.inputs(kind, synthesized)
        assert leaves
        edited, out = tmp_path / "edited.json", tmp_path / "out"
        wrong = []
        for leaf in leaves:
            value = _get(obj, leaf)
            for bad in (float("nan"), float("inf"), "x", str(value), True):
                spoiled = json.loads(json.dumps(obj))
                _set(spoiled, leaf, bad)
                edited.write_text(json.dumps(spoiled))
                code = run(*(str(edited) if a == "{}" else a for a in argv),
                           "--out", str(out))
                if code != 3 or out.exists():
                    wrong.append((leaf, bad, code))
        capsys.readouterr()
        assert wrong == []

    @pytest.mark.parametrize("source, path, value, argv", [
        # an infinite frequency bound once reached the GA's sampler
        pytest.param(CONFIG, "target.modes.0.wn_hi", float("inf"),
                     ["synth", FAMILY, "--config"], id="wn-hi-infinite"),
        # a fractional state index was truncated to state 0
        pytest.param(str(FIXTURES / "nav_defaults.json"),
                     "target.modes.0.entries.0.state", 0.7,
                     ["vgap", FAMILY, "--config"], id="state-fraction"),
        # a section (0 s + 1) / (0 s + 0) was a numeric failure (exit 4)
        pytest.param(str(FIXTURES / "nav_controller.json"), "w_in.0",
                     [0, 1, 0, 0], ["analyze", FAMILY, "--controller"],
                     id="section-c-d-zero"),
        pytest.param(FAMILY, "schema", 2, ["vgap"], id="plants-schema-2"),
        pytest.param(CONFIG, "ga_scp.population", "abc",
                     ["vgap", FAMILY, "--config"], id="vgap-reads-ga-budget"),
    ])
    def test_named_defects_parse_exit(self, tmp_path, capsys, source, path,
                                      value, argv):
        obj = json.loads(Path(source).read_text())
        _set(obj, path, value)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert run(*argv, str(edited), "--out", str(out)) == 3
        assert "error: " in capsys.readouterr().err
        assert not out.exists()
