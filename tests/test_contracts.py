"""Contracts with code outside src/: the benchmark's tracer wraps rssd
functions by name, its set-up writes inputs through rssd.fileio, and
README's library example runs as written."""

import contextlib
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py imports the standard library only; a renamed or
    # deleted rssd function would fail its traced run, so it fails here
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    for module, name, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"rssd.{module}"), name, None)
        assert callable(fn), f"rssd.{module}.{name}"


def test_benchmark_inputs_written_and_read(monkeypatch, tmp_path):
    # perfbench/workloads.py writes every workload's inputs with rssd's own
    # constructors and writers; an API change that breaks it fails here
    # rather than in the benchmark's set-up run
    from rssd import fileio

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        out = tmp_path / name
        workloads.write_inputs(name, 1, out)
        pset = fileio.load_plantset(out / "plants.json")
        cfg = fileio.load_config(out / "config.json")
        assert cfg.constraints is not None and cfg.target is not None
        cfg.constraints.require_banks(pset.m, pset.r)
        if (out / "scenario.json").exists():
            fileio.load_scenario(out / "scenario.json")


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, printed = {}, io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.feasible
    np.testing.assert_allclose(report.gain, [[-1.11460837]], rtol=1e-8)
    assert printed.getvalue().startswith("True [[")
