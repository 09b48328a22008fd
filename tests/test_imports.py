"""Every name imported under src/rssd is used (checked with ast; no linter),
no module under src/rssd imports scipy, and running rssd loads numpy only:
scipy is never loaded, and numpy.ma is not loaded before a square plant's
transmission zeros."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rssd.lti import StateSpacePlant
from rssd.scp import transmission_zeros

SRC = Path(__file__).resolve().parents[1] / "src" / "rssd"
FIXTURES = SRC.parents[1] / "configs"

# Run in a fresh interpreter, since this one has scipy loaded already; prints
# whether scipy is loaded after each step, whether numpy.ma is before the
# square plant, and the zeros of a square plant.  argv: the committed
# fixture's plant set, config and scenario
SCIPY_PROBE = """
import json, sys, tempfile
from pathlib import Path

family, config, scenario = sys.argv[1:]

import rssd, rssd.cli
loaded = {"import": "scipy" in sys.modules}

import numpy as np
from rssd import fileio
from rssd.lti import CompensatorBank, FrequencyGrid, PlantSet, StateSpacePlant
from rssd.scp import (ScpConstraints, augment, check_constraints,
                      sampled_member, transmission_zeros)

rng = np.random.default_rng(3)
tall = PlantSet(tuple(
    StateSpacePlant(-np.diag([1.0, 2.0]) * (1 + 0.1 * k), rng.normal(size=(2, 2)),
                    rng.normal(size=(3, 2)), np.zeros((3, 2)), f"p{k}")
    for k in range(2)))
with tempfile.TemporaryDirectory() as tmp:
    fileio.save_plantset(tall, Path(tmp) / "plants.json")
    grid = {"grid": {"lo_exp": -2, "hi_exp": 2, "count": 40}}
    (Path(tmp) / "grid.json").write_text(json.dumps(grid))
    code = rssd.cli.main(["vgap", str(Path(tmp) / "plants.json"),
                          "--config", str(Path(tmp) / "grid.json"), "--out", tmp])
if code:
    sys.exit(f"vgap exited with {code}")
loaded["vgap"] = "scipy" in sys.modules

check_constraints(augment(CompensatorBank.identity(2),
                          CompensatorBank.identity(3),
                          [sampled_member(p, FrequencyGrid.default())
                           for p in tall]),
                  ScpConstraints((), (), -60.0, (0.1, 1.0)))
loaded["check_constraints"] = "scipy" in sys.modules

from rssd.margins import closed_loop, linf_norm
q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
loop = closed_loop(StateSpacePlant(q @ np.diag(-np.arange(1.0, 9.0)) @ q.T,
                                   rng.normal(size=(8, 3)),
                                   rng.normal(size=(5, 8)), np.zeros((5, 3))),
                   np.zeros((3, 5)))
assert loop.stable and loop.realization.n == 8 and linf_norm(loop.realization)[0] > 0
loaded["linf_norm"] = "scipy" in sys.modules
numpy_ma = "numpy.ma" in sys.modules

square = StateSpacePlant(np.diag([-1.0, -3.0]), np.ones((2, 1)),
                         np.array([[0.5, 0.5]]), np.zeros((1, 1)))
zeros = transmission_zeros(square)
loaded["transmission_zeros"] = "scipy" in sys.modules

with tempfile.TemporaryDirectory() as tmp:
    controller = str(Path(tmp) / "controller.json")
    for argv in (["vgap", family], ["synth", family, "--config", config],
                 ["analyze", family, "--controller", controller],
                 ["sim", family, "--controller", controller,
                  "--scenario", scenario]):
        code = rssd.cli.main(argv + ["--out", tmp])
        if code:
            sys.exit(f"{argv[0]} exited with {code}")
loaded["pipeline"] = "scipy" in sys.modules
print(json.dumps({"loaded": loaded, "numpy_ma": numpy_ma,
                  "zeros": [[z.real, z.imag] for z in zeros.tolist()]}))
"""


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads or lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d as e\n__all__ = ['c']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["e (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source: str) -> list[int]:
    """Lines of the imports that bind scipy or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_scipy_scanner():
    source = ("import numpy, scipy\nfrom scipy.linalg import eig\n"
              "import scipyx\nfrom .scipy import x\n"
              "def f():\n    import scipy.linalg as la\n")
    assert scipy_imports(source) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def test_scipy_never_loads():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    fixture = [str(FIXTURES / name) for name in (
        "three_plant_family.json", "three_plant_config.json",
        "doublet_scenario.json")]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *fixture],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded"] == {"import": False, "vgap": False,
                             "check_constraints": False, "linf_norm": False,
                             "transmission_zeros": False, "pipeline": False}
    # nor numpy.ma (np.unique imports it) before the square plant's zeros
    assert got["numpy_ma"] is False
    # (s + 2)/((s + 1)(s + 3)), and the same values in this interpreter
    square = StateSpacePlant(np.diag([-1.0, -3.0]), np.ones((2, 1)),
                             np.array([[0.5, 0.5]]), np.zeros((1, 1)))
    here = transmission_zeros(square)
    assert got["zeros"] == [[z.real, z.imag] for z in here.tolist()]
    assert here == pytest.approx([-2.0], abs=1e-12)
