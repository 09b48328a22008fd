"""rssd benchmark: the CLI commands timed end to end, and a traced run per layer.

    python3 perfbench/run.py --workload fixture3 --seed 1 --seconds 30 --trace 0

Each pass runs the workload's CLI commands in-process through
``rssd.cli.main`` on JSON inputs written to disk, one after the other
(closed loop, one client), then checks every output from outside.  BLAS
threads are pinned to 1 and ``RSSD_THREADS`` is unset, so the CLI pool has
one worker.  Set-up (fresh interpreter: import, write inputs) is timed
SETUP_REPS times.  One untimed warm-up pass follows; then passes repeat until
``--seconds`` is used up, and every metric is the median over them.

Times are reported at reference machine speed.  A fixed kernel that does not
touch rssd (``calibrate``) runs before and after every timed block and, on
SIGALRM, every PROBE_INTERVAL_S inside it.  A block's time is its wall time,
less the kernel's CPU time inside it, scaled by CALIBRATION_REF_S over the
mean kernel CPU time per iteration around and inside it.  On the shared
two-core VM this was built on, the host's speed swings by 1.5x within seconds
and drifts as much from one minute to the next, so raw wall times are not
comparable across runs; the rescaled ones are.  Raw wall and kernel times
are kept in the detail record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; README.md in
this directory maps each to the end-to-end metric and workload it should
move.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  Inputs, outputs, the detail record and the
spans of the last traced pass go to perfbench/out/.
"""

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RSSD_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SETUP_REPS = 5
MIN_PASSES = 3
HARD_STOP_S = 140.0  # stop starting passes here, whatever --seconds says
CALIBRATION_REF_S = 0.00025  # kernel seconds per iteration at reference speed
BRACKET_ITERATIONS = 40  # kernel run before and after each timed block
PROBE_ITERATIONS = 2  # kernel run inside a block on every probe
PROBE_INTERVAL_S = 0.05
VERIFY_FLAGS = ("assigned_eigenvalues", "all_in_S1", "margin_exceeds_bound",
                "all_plants_stable")

END_TO_END = {
    "setup_s": "s", "vgap_s": "s", "synth_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Names without a span behind them are filled in
# by per_layer() and main(); a span that never ran reads 0.  Span times are
# raw wall times of the traced pass.
PER_LAYER = {
    "lti.eval_response.calls": "count",
    "lti.eval_response.points": "count",
    "lti.eval_response.self_s": "s",
    "lti.augment_plant.calls": "count",
    "lti.augment_plant.self_s": "s",
    "sweep.grid_peak.calls": "count",
    "sweep.grid_peak.self_s": "s",
    "sweep.grid_peak.refine_points": "count",
    "vgap.central_plant.calls": "count",
    "vgap.central_plant.s": "s",
    "vgap.nu_gap.calls": "count",
    "vgap.nu_gap.ms_p50": "ms",
    "vgap.nu_gap.self_s": "s",
    "vgap.winding_number_det.calls": "count",
    "vgap.winding_number_det.s": "s",
    "scp.check_constraints.calls": "count",
    "scp.check_constraints.rejects": "count",
    "scp.check_constraints.s": "s",
    "scp.j1_fitness.calls": "count",
    "scp.j1_fitness.ms_p50": "ms",
    "scp.j1_fitness.s": "s",
    "eigassign.allowable_subspace.calls": "count",
    "eigassign.allowable_subspace.s": "s",
    "eigassign.select_vectors.bound_violations": "count",
    "eigassign.compute_gain.ill_conditioned": "count",
    "eigassign.compute_gain.s": "s",
    "margins.linf_norm.calls": "count",
    "margins.linf_norm.ms_p50": "ms",
    "margins.linf_norm.s": "s",
    "margins.closed_loop.calls": "count",
    "margins.closed_loop.s": "s",
    "margins.disk_margin.s": "s",
    "margins.sensitivity_curves.s": "s",
    "margins.uncertainty_bounds.s": "s",
    "nn_rssd.outer.evals": "count",
    "nn_rssd.outer.generations": "count",
    "nn_rssd.inner.invocations": "count",
    "nn_rssd.inner.generations": "count",
    "nn_rssd.inner.evals": "count",
    "nn_rssd.j2_fitness.calls": "count",
    "nn_rssd.j2_fitness.penalized": "count",
    "nn_rssd.j2_fitness.ms_p50": "ms",
    "nn_rssd.j2_fitness.self_s": "s",
    "nn_rssd.ga_minimize.self_s": "s",
    "nn_rssd.verify_lemma.s": "s",
    "nn_rssd.inner.best_margin": "ratio",
    "nn_rssd.feasible": "count",
    "sim.simulate.calls": "count",
    "sim.simulate.steps": "count",
    "sim.simulate.us_per_step": "us",
    "sim.simulate.s": "s",
    "fileio.write_csv.rows": "count",
    "fileio.write_csv.s": "s",
    "synth.share.j1_fitness": "ratio",
    "synth.share.j2_fitness": "ratio",
    "synth.share.linf_norm": "ratio",
    "pipeline.share.simulate": "ratio",
    "analyze_s": "s",
    "sim_s": "s",
    "tracing_overhead_s": "s",
    "calibration_ms": "ms",
    "error_rate": "ratio",
}


class Checks:
    """Outside-in correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


@functools.cache
def _kernel_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.normal(size=(8, 8)), rng.normal(size=(64, 8, 8)) + 8.0 * np.eye(8),
            rng.normal(size=(64, 8, 3)), rng.normal(size=(64, 5, 3)))


def calibrate(iterations: int) -> float:
    """CPU seconds of this thread for a fixed mix of small numpy linear
    algebra and interpreter work, like the mix rssd runs, without calling
    rssd.  CPU time, because a probe that runs while the CLI's pool thread
    works would otherwise also count its waits for the interpreter lock."""
    import numpy as np

    a, batch, rhs, tall = _kernel_inputs()
    start = time.thread_time()
    for _ in range(iterations):
        np.linalg.eigvals(a)
        np.linalg.solve(batch, rhs)
        np.linalg.svd(tall, compute_uv=False)
        acc = 0.0
        for k in range(200):
            acc += 0.5 * k
    return time.thread_time() - start


class Timer:
    """Times blocks at reference speed (see the module docstring)."""

    def __init__(self):
        self.last_bracket = calibrate(BRACKET_ITERATIONS)
        self.samples = []  # (wall s without probes, kernel s per iteration)

    @contextlib.contextmanager
    def timed(self):
        probes = []
        previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: probes.append(calibrate(PROBE_ITERATIONS)))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        bracket = calibrate(BRACKET_ITERATIONS)
        kernel_s = self.last_bracket + bracket + sum(probes)
        iterations = 2 * BRACKET_ITERATIONS + PROBE_ITERATIONS * len(probes)
        self.samples.append((wall - sum(probes), kernel_s / iterations))
        self.last_bracket = bracket

    def scaled(self) -> float:
        """The last block's time at reference speed."""
        wall, per_iteration = self.samples[-1]
        return wall * CALIBRATION_REF_S / per_iteration


def timed_setup(workload: str, seed: int, out: Path, timer: Timer) -> float:
    """Time for a fresh interpreter to import rssd and write the inputs."""
    argv = [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out)]
    with timer.timed():
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return timer.scaled()


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def commands(workload: str, inputs: Path, out: Path) -> list:
    plants, config = str(inputs / "plants.json"), str(inputs / "config.json")
    cmds = [
        ("vgap", ["vgap", plants, "--config", config, "--out", str(out / "vgap")]),
        ("synth", ["synth", plants, "--config", config, "--out", str(out / "synth")]),
    ]
    if workload == "fixture3":
        controller = str(out / "synth" / "controller.json")
        cmds += [
            ("analyze", ["analyze", plants, "--config", config, "--controller",
                         controller, "--out", str(out / "analyze")]),
            ("sim", ["sim", plants, "--controller", controller, "--scenario",
                     str(inputs / "scenario.json"), "--out", str(out / "sim")]),
        ]
    return cmds


def run_pass(rssd, workload, inputs, out, checks, rec=None):
    """One closed-loop pass of the commands: time per command at reference
    speed plus raw wall times, or None when a command fails."""
    shutil.rmtree(out, ignore_errors=True)
    timer = Timer()
    times, wall = {}, {}
    for name, argv in commands(workload, inputs, out):
        span = rec.span(f"cli.{name}", root=True) if rec else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(io.StringIO()), timer.timed(), span:
                rc = rssd.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = "exception"
        if not checks.check(rc == 0, f"{name} exited with {rc}"):
            return None
        times[name] = timer.scaled()
        wall[name], times[f"{name}_cal"] = timer.samples[-1]
    times["pipeline"] = sum(times[name] for name in wall)
    times["pipeline_wall"] = sum(wall.values())
    times.update({f"{name}_wall": w for name, w in wall.items()})
    return times


def check_outputs(rssd, workload, inputs, out, checks) -> dict:
    """Correctness of one pass's outputs; returns its work counts."""
    cfg = json.loads((inputs / "config.json").read_text())
    report = json.loads((out / "synth" / "synthesis_report.json").read_text())
    epsilon = json.loads((out / "vgap" / "vgap_report.json").read_text())["epsilon"]
    hist = report["j1_history"]
    checks.check(hist and all(b < a for a, b in zip(hist, hist[1:])),
                 f"j1_history not strictly decreasing: {hist}")
    checks.check(hist and hist[0] < epsilon,
                 f"j1_history starts at {hist[:1]}, not below epsilon {epsilon}")
    checks.check(report["rssd_invocations"] == len(hist),
                 "rssd_invocations != len(j1_history)")
    if report["feasible"]:
        checks.check(all(report["verification"].get(f) is True for f in VERIFY_FLAGS),
                     f"verification flags {report['verification']}")
    else:
        checks.check(
            report["scp_generations"] == cfg["ga_scp"]["max_generations"]
            and report["rssd_generations"]
            == len(hist) * cfg["ga_rssd"]["max_generations"],
            "infeasible search ended before its budget")
    counts = {k: report[k] for k in
              ("feasible", "scp_generations", "rssd_invocations", "rssd_generations")}
    counts["j1_history"] = len(hist)
    if workload != "fixture3":
        return counts

    checks.check(report["feasible"], "fixture3 synthesis is not feasible")
    gain, w_in, w_out = rssd.fileio.load_controller(out / "synth" / "controller.json")
    for plant in rssd.fileio.load_plantset(inputs / "plants.json"):
        aug = rssd.lti.augment_plant(w_out, plant, w_in)
        checks.check(rssd.margins.closed_loop(aug, gain).stable,
                     f"loop with {plant.label} is unstable")
    margins = json.loads((out / "analyze" / "margins.json").read_text())
    checks.check(all(not t.get("unstable", True) for t in margins.values()),
                 f"margins.json flags a loop: {sorted(margins)}")
    tracking = json.loads((out / "sim" / "tracking_report.json").read_text())
    checks.check(len(tracking) == 3 and all(
        t.get("passed") is True and t.get("diverged") is False
        for t in tracking.values()), "a tracking_report entry fails")
    counts["trace_rows"] = sum(
        len(f.read_text().splitlines()) - 1 for f in (out / "sim").glob("traces_*.csv"))
    return counts


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "p25": q[0], "median": statistics.median(values),
            "p75": q[2], "max": max(values)}


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def per_layer(numbers: dict, report: dict) -> dict:
    """Span-derived PER_LAYER values of one traced pass."""
    def get(key):
        return numbers.get(key, 0)

    best = [j2 * jbar for j2, jbar in zip(numbers["inner_best"], report["j1_history"])]
    steps = get("sim.simulate.steps")
    synth = get("cli.synth.s")
    derived = {
        "eigassign.select_vectors.bound_violations":
            get("eigassign.select_vectors.raised.BoundViolation"),
        "eigassign.compute_gain.ill_conditioned":
            get("eigassign.compute_gain.raised.IllConditioned"),
        "nn_rssd.inner.best_margin": min(best) if best else 0.0,
        "nn_rssd.feasible": int(report["feasible"]),
        "sim.simulate.us_per_step": 1e6 * get("sim.simulate.s") / steps if steps else 0.0,
        "synth.share.j1_fitness": get("scp.j1_fitness.s") / synth,
        "synth.share.j2_fitness": get("nn_rssd.j2_fitness.s") / synth,
        "synth.share.linf_norm": get("margins.linf_norm.s") / synth,
        "pipeline.share.simulate":
            get("sim.simulate.s") / sum(get(f"cli.{c}.s") for c in
                                        ("vgap", "synth", "analyze", "sim")),
    }
    skip = ("analyze_s", "sim_s", "tracing_overhead_s", "calibration_ms", "error_rate")
    return {name: derived.get(name, get(name)) for name in PER_LAYER
            if name not in skip}


def main(argv=None) -> int:
    t_process = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_timer = Timer()
    setup = [timed_setup(args.workload, args.seed, work / f"inputs{k}", setup_timer)
             for k in range(SETUP_REPS)]
    rssd = workloads.import_rssd()
    import rssd.cli  # noqa: F401  (the package does not import its CLI)

    checks = Checks()
    inputs = work / "inputs0"
    input_digest = tree_digest(inputs)
    for k in range(1, SETUP_REPS):
        checks.check(tree_digest(work / f"inputs{k}") == input_digest,
                     "set-up wrote different inputs for the same seed")

    digests, counts_seen = set(), []

    def one_pass(rec=None):
        out = work / "pass"
        times = run_pass(rssd, args.workload, inputs, out, checks, rec)
        if times is None:
            return None
        counts_seen.append(check_outputs(rssd, args.workload, inputs, out, checks))
        digests.add(tree_digest(out))
        return times, json.loads((out / "synth" / "synthesis_report.json").read_text())

    first = one_pass()  # warm-up: checked, not timed into any metric
    if first is None:
        return finish(args, checks, {}, {"error": "warm-up pass failed"}, work)

    untraced, traced, layers, rec = [], [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = one_pass()
        if result is None:
            break
        untraced.append(result[0])
        if args.trace:
            rec = tracer.Recorder()
            with tracer.tracing(rec):
                result = one_pass(rec)
            if result is None:
                break
            times, report = result
            numbers = tracer.layer_numbers(rec)
            numbers["inner_best"] = rec.inner_best
            traced.append(times)
            layers.append(per_layer(numbers, report))
            has_controller = report["feasible"] and args.workload == "fixture3"
            for name in tracer.expected_spans(has_controller):
                checks.check(numbers.get(f"{name}.calls", 0) > 0,
                             f"{name} never called on {args.workload}")
        step = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
        if enough and (elapsed + step > args.seconds
                       or time.perf_counter() - t_process + step > HARD_STOP_S):
            break

    checks.check(len(digests) == 1,
                 f"{len(digests)} different output digests across repetitions")
    checks.check(all(c == counts_seen[0] for c in counts_seen),
                 "work counts differ between repetitions")
    detail = {"setup": {"s": setup, "wall_s": [w for w, _ in setup_timer.samples]},
              "work_counts": counts_seen[0],
              "passes": {"untraced": untraced, "traced": traced}}
    if not untraced or (args.trace and not traced):
        return finish(args, checks, {}, detail, work)

    def med(rows, key):
        return statistics.median(r.get(key, 0.0) for r in rows)

    detail["quartiles"] = {key: quartiles([t[key] for t in untraced])
                           for key in untraced[0]}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "vgap_s": med(untraced, "vgap"),
            "synth_s": med(untraced, "synth"),
            "pipeline_s": med(untraced, "pipeline"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return finish(args, checks, metrics, detail, work)

    report = first[1]
    counted = [k for k, unit in PER_LAYER.items() if unit == "count"]
    checks.check(all({k: l[k] for k in counted} == {k: layers[0][k] for k in counted}
                     for l in layers), "traced work counts differ between repetitions")
    tr = layers[0]
    checks.check(tr["nn_rssd.outer.generations"] == report["scp_generations"]
                 and tr["nn_rssd.inner.invocations"] == report["rssd_invocations"]
                 and tr["nn_rssd.inner.generations"] == report["rssd_generations"],
                 "traced GA counts differ from the untraced synthesis report")
    if "trace_rows" in counts_seen[0]:
        checks.check(tr["sim.simulate.steps"] + tr["sim.simulate.calls"]
                     == counts_seen[0]["trace_rows"],
                     "traced RK4 steps differ from the untraced trace rows")
    metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    metrics["analyze_s"] = med(untraced, "analyze")
    metrics["sim_s"] = med(untraced, "sim")
    metrics["tracing_overhead_s"] = med(traced, "synth") - med(untraced, "synth")
    metrics["calibration_ms"] = 1e3 * BRACKET_ITERATIONS * med(untraced, "synth_cal")
    rec.write(work / "spans.jsonl")
    return finish(args, checks, metrics, detail, work)


def finish(args, checks, metrics, detail, work) -> int:
    """Write the detail record, print its summary and, last, the result line."""
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["error_rate"] = len(checks.failures) / max(checks.attempted, 1)
    correct = not checks.failures and set(metrics) == set(units)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "machine": machine(),
                   "failures": checks.failures})
    (work / "detail.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": {k: detail[k] for k in
                                 ("machine", "failures", "work_counts") if k in detail}}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
