"""Command-line front end: vgap / synth / analyze / sim.

Exit codes: 0 success (including an infeasible synthesis, which is a
normal report), 2 usage, 3 parse or dimension errors, 4 internal numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import fileio
from .errors import DimensionMismatch, DivergentTrace, ParseError, RssdError
from .lti import augment_plant, damping, sorted_spectrum
from .margins import closed_loop, disk_margin, sensitivity_curves
from .nn_rssd import run_nn_rssd
from .sim import simulate, tracking_metrics
from .vgap import central_from_matrix, gap_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


_FLAGS = {
    "--config": {"help": "run-configuration JSON file"},
    "--controller": {"required": True, "help": "controller JSON file"},
    "--scenario": {"required": True, "help": "scenario JSON file"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssd",
        description="Simultaneous-stabilization controller synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("plantset", help="plant-set JSON file")
        cmd.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


class UsageError(Exception):
    pass


def _out_dir(path) -> Path:
    """``path``, created: a command calls this just before its first write."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config(args):
    return fileio.load_config(args.config) if args.config else fileio.RunConfig()


# the synthesis report's values JSON cannot hold as they are
_AS_JSON = {"gain": fileio._matrix_obj, "w_in": fileio._bank_obj,
            "w_out": fileio._bank_obj,
            "desired_eigenvalues": lambda eig: [[lam.real, lam.imag] for lam in eig]}


def _controller(args, pset):
    """--controller's (gain, w_in, w_out), refused before any plant is
    computed unless it fits ``pset``: m and r sections, an m x r gain."""
    gain, w_in, w_out = fileio.load_controller(args.controller)
    if (len(w_in), len(w_out), gain.shape) != (pset.m, pset.r, (pset.m, pset.r)):
        raise DimensionMismatch(
            f"controller (w_in {len(w_in)}, w_out {len(w_out)} sections, gain "
            f"{gain.shape}) does not fit plants with m={pset.m}, r={pset.r}")
    return gain, w_in, w_out


def cmd_vgap(args) -> int:
    pset = fileio.load_plantset(args.plantset)
    mat = gap_matrix(pset, _config(args).grid)
    result = central_from_matrix(mat)
    labels = [p.label for p in pset]
    out = _out_dir(args.out)
    with open(out / "gap_matrix.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", *labels])
        for lab, row in zip(labels, mat):
            writer.writerow([lab, *(f"{v:.12g}" for v in row)])
    report = {
        "labels": labels,
        "central_index": result.index,
        "central_label": labels[result.index],
        "epsilon": result.epsilon,
        "max_vgap": [float(m) for m in mat.max(axis=1)],
    }
    (out / "vgap_report.json").write_text(fileio.canonical_json(report))
    print(f"central plant: {labels[result.index]} (epsilon={result.epsilon:.6g})")
    return EXIT_OK


def cmd_synth(args) -> int:
    pset = fileio.load_plantset(args.plantset)
    cfg = _config(args)
    if any(v is None for v in (cfg.seed, cfg.constraints, cfg.target)):
        raise UsageError("synth requires seed, constraints and target in the config")
    report = run_nn_rssd(pset, cfg.constraints, cfg.target,
                         replace(cfg.ga_scp, seed=cfg.seed),
                         replace(cfg.ga_rssd, seed=cfg.seed + 1), cfg.grid)
    obj = {key: value if value is None or key not in _AS_JSON else
           _AS_JSON[key](value) for key, value in vars(report).items()}
    out = _out_dir(args.out)
    (out / "synthesis_report.json").write_text(fileio.canonical_json(obj))
    if report.feasible:
        fileio.save_controller(report.gain, report.w_in, report.w_out,
                               out / "controller.json")
        print(f"feasible controller found (J2={report.j2:.6g})")
    else:
        print("no feasible controller found")
    return EXIT_OK


def _analysis_bundle(pset, gain, w_in, w_out, grid, out) -> dict:
    eig_keys = ["re", "im", "zeta", "wn"]

    def one(plant):
        """(margins.json entry, curves by column); a plant whose loop,
        curves or margins fail gets an error entry and no files."""
        try:
            cl = closed_loop(augment_plant(w_out, plant, w_in), gain)
            curves = sensitivity_curves(cl, grid)
            margins = disk_margin(cl) if cl.stable else None
        except RssdError as exc:
            return {"error": str(exc)}, None
        eig = sorted_spectrum(cl.eigenvalues)
        zeta, wn = damping(eig)
        tables = {"eigenvalues": [
            {"re": lam.real, "im": lam.imag, "zeta": z, "wn": w}
            for lam, z, w in zip(eig.tolist(), zeta.tolist(), wn.tolist())
        ]}
        if margins is None:
            return {"unstable": True, **tables}, curves
        return {"unstable": False, **asdict(margins), **tables}, curves

    results = [one(plant) for plant in pset]
    out = _out_dir(out)
    summary = {}
    for idx, (plant, (tables, curves)) in enumerate(zip(pset, results)):
        label = plant.label
        summary[label] = tables
        if curves is None:
            continue
        fileio.write_csv(out / f"curves_{idx}_{label}.csv", list(curves),
                         list(curves.values()))
        eig = tables["eigenvalues"]
        fileio.write_csv(out / f"eigenvalues_{idx}_{label}.csv", eig_keys,
                         [[e[k] for e in eig] for k in eig_keys])
    (out / "margins.json").write_text(fileio.canonical_json(summary))
    return summary


def cmd_analyze(args) -> int:
    pset = fileio.load_plantset(args.plantset)
    gain, w_in, w_out = _controller(args, pset)
    summary = _analysis_bundle(pset, gain, w_in, w_out, _config(args).grid,
                               args.out)
    flagged = [lab for lab, t in summary.items() if t.get("unstable")]
    if flagged:
        print("unstable loops: " + ", ".join(flagged))
    print(f"analysis written to {Path(args.out)}")
    return EXIT_OK


def cmd_sim(args) -> int:
    pset = fileio.load_plantset(args.plantset)
    gain, w_in, w_out = _controller(args, pset)
    scenario, metric_args = fileio.load_scenario(args.scenario)

    results = [simulate(plant, gain, w_in, w_out, scenario) for plant in pset]
    # time and reference come from the scenario alone (a diverged trace keeps
    # both whole), so every trace file shares their text
    time = fileio.CsvText(results[0].time)
    refs = [fileio.CsvText(ref) for ref in results[0].reference.T]
    report = {}
    for plant, traces in zip(pset, results):
        try:  # before the first write: a steady window with no sample exits 3
            metrics = tracking_metrics(traces, **metric_args)
            report[plant.label] = {"diverged": False, "passed": metrics.passed,
                                   "channels": list(metrics.channels)}
        except DivergentTrace as exc:
            report[plant.label] = {"diverged": True,
                                   "divergence_time": exc.time}
    out = _out_dir(args.out)
    for idx, (plant, traces) in enumerate(zip(pset, results)):
        header, cols = ["time"], [time]
        for ch, ref in enumerate(refs):
            header += [f"ref_{ch}", f"y_{ch}", f"err_{ch}"]
            cols += [ref, traces.outputs[:, ch], traces.errors[:, ch]]
        header += [f"u_{ch}" for ch in range(traces.inputs.shape[1])]
        cols += list(traces.inputs.T)
        fileio.write_csv(out / f"traces_{idx}_{plant.label}.csv", header, cols)
    (out / "tracking_report.json").write_text(fileio.canonical_json(report))
    print(f"simulation written to {out}")
    return EXIT_OK


# each command takes a plant set, --out and only the flags it reads
_COMMANDS = {
    "vgap": (cmd_vgap, "pairwise nu-gap matrix and central-plant report",
             ("--config",)),
    "synth": (cmd_synth, "two-level GA synthesis of compensators and gain",
              ("--config",)),
    "analyze": (cmd_analyze, "closed-loop curves, eigenvalues, and margins",
                ("--config", "--controller")),
    "sim": (cmd_sim, "linear closed-loop time simulation",
            ("--controller", "--scenario")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RssdError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
