"""Contracts with code outside src/: the benchmark's tracer wraps rssd
functions by name and fails a traced run in which one is never called, its
set-up writes inputs through rssd.fileio, and README's library example runs
as written.  Inside src/: the analysis layer takes singular values from one
kernel, which gives a zero block's without LAPACK, no module reads the
process environment, one rule decides stability, one code path serves
every system order, and one property reads a mode's width from its kind."""

import ast
import contextlib
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, registered for the test only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py imports the standard library only; a renamed or
    # deleted rssd function would fail its traced run, so it fails here
    tracer = load_perfbench(monkeypatch, "tracer")
    for module, name, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"rssd.{module}"), name, None)
        assert callable(fn), f"rssd.{module}.{name}"


def missing_spans(monkeypatch, tmp_path, workload, has_controller):
    """Names ``tracer.expected_spans(has_controller)`` requires that a traced
    run of the benchmark's commands on ``workload`` (seed 1) never calls."""
    from rssd import cli

    tracer = load_perfbench(monkeypatch, "tracer")
    workloads = load_perfbench(monkeypatch, "workloads")
    workloads.write_inputs(workload, 1, tmp_path)
    plants, config = str(tmp_path / "plants.json"), str(tmp_path / "config.json")
    controller = str(tmp_path / "synth" / "controller.json")
    extra = {"vgap": ["--config", config], "synth": ["--config", config],
             "analyze": ["--config", config, "--controller", controller],
             "sim": ["--controller", controller,
                     "--scenario", str(tmp_path / "scenario.json")]}
    commands = list(extra) if has_controller else ["vgap", "synth"]
    rec = tracer.Recorder()
    with tracer.tracing(rec), contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert cli.main([command, plants, *extra[command],
                             "--out", str(tmp_path / command)]) == 0
    calls = tracer.layer_numbers(rec)
    return [name for name in tracer.expected_spans(has_controller)
            if not calls.get(f"{name}.calls")]


def test_traced_names_all_called(monkeypatch, tmp_path):
    # a traced benchmark run fails when a wrapped name is never called, so
    # dropping the last call site of one (or calling it only through a
    # name the tracer does not patch) fails here: vgap and synth on the
    # mimo_outer inputs, which certify no controller
    assert not missing_spans(monkeypatch, tmp_path, "mimo_outer", False)


def test_traced_controller_names_all_called(monkeypatch, tmp_path):
    # the names only a controller's analysis or simulation calls: all four
    # commands on fixture3, whose synth certifies one
    assert not missing_spans(monkeypatch, tmp_path, "fixture3", True)


def test_benchmark_inputs_written_and_read(monkeypatch, tmp_path):
    # perfbench/workloads.py writes every workload's inputs with rssd's own
    # constructors and writers; an API change that breaks it fails here
    # rather than in the benchmark's set-up run
    from rssd import fileio

    workloads = load_perfbench(monkeypatch, "workloads")
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


def sigma_calls_outside_kernel(source: str, full_svd_ok=False) -> list[str]:
    """Calls of ``np.linalg.svd`` or ``np.linalg.norm(..., ord=2)`` outside
    a function named ``singular_values``, as 'line: name'.  With
    ``full_svd_ok`` an SVD counts only where it is asked for the singular
    values alone (``compute_uv=False``)."""
    found = []

    def any_false(values):
        return any(isinstance(v, ast.Constant) and v.value is False
                   for v in values)

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "singular_values"
        if isinstance(node, ast.Call) and not inside:
            name = ast.unparse(node.func)
            leaf = name.rsplit(".", 1)[-1]
            ords = [kw.value for kw in node.keywords if kw.arg == "ord"] \
                + node.args[1:2]
            values_only = any_false(
                [kw.value for kw in node.keywords if kw.arg == "compute_uv"]
                + node.args[2:3])
            if (leaf == "svd" and (values_only or not full_svd_ok)) or (
                    leaf == "norm" and
                    any(isinstance(v, ast.Constant) and v.value == 2
                        for v in ords)):
                found.append(f"{node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_analysis_sigma_through_one_kernel():
    # margins.singular_values gives a SISO loop |z| without a LAPACK call
    # per frequency; a direct SVD in the analysis layer would bypass it, as
    # would a singular-value-only SVD or an ord-2 norm elsewhere; full SVDs
    # whose U and V are used stay there
    for module in ("margins", "cli"):
        source = (ROOT / "src" / "rssd" / f"{module}.py").read_text()
        assert not sigma_calls_outside_kernel(source), module
    for module in ("scp", "eigassign", "vgap", "nn_rssd", "sim"):
        source = (ROOT / "src" / "rssd" / f"{module}.py").read_text()
        assert not sigma_calls_outside_kernel(source, full_svd_ok=True), module
    assert sigma_calls_outside_kernel(
        "def f(x):\n    return np.linalg.svd(x), np.linalg.norm(x, ord=2)\n"
        "def singular_values(x):\n    return np.linalg.svd(x)\n"
    ) == ["2: np.linalg.svd", "2: np.linalg.norm"]
    assert sigma_calls_outside_kernel(
        "u, s, vt = np.linalg.svd(x)\n"
        "s = np.linalg.svd(x, compute_uv=False)\n"
        "s = np.linalg.svd(x, True, False)\n"
        "n = np.linalg.norm(x, 2)\n", full_svd_ok=True
    ) == ["2: np.linalg.svd", "3: np.linalg.svd", "4: np.linalg.norm"]


@pytest.mark.parametrize("workload", ["fixture3", "mimo_outer"])
def test_no_lapack_call_on_a_zero_block(monkeypatch, tmp_path, workload):
    # a zero block's singular values are exactly +0.0 and its U and V^T
    # identities, so neither the kernel nor a transmission zero's deflation
    # takes an SVD of the D = 0 feedthroughs
    from rssd import cli

    workloads = load_perfbench(monkeypatch, "workloads")
    workloads.write_inputs(workload, 1, tmp_path)
    zero_calls = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        if not np.any(a):
            zero_calls.append(np.shape(a))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", str(tmp_path / "plants.json"), "--config",
                         str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "out")]) == 0
    assert zero_calls == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each name, attribute or import of ``os.environ`` or ``getenv`` (and
    their bytes twins) in ``source``, as 'line: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names]
                 if isinstance(node, ast.ImportFrom) else
                 [getattr(node, "id", None) or getattr(node, "attr", None)])
        found += [(node.lineno, name) for name in names
                  if name in ENVIRONMENT_NAMES]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_module_reads_the_environment():
    # README promises that a run's settings come from its input files
    # alone; a setting read from the environment would break it unseen
    for path in sorted((ROOT / "src" / "rssd").glob("*.py")):
        assert not environment_reads(path.read_text()), path.name
    assert environment_reads(
        "import os\nx = os.environ['A']\nfrom os import getenv\n"
        "y = getenv('B')\nz = os.getenvb(b'C')\n# environ in a comment\n"
    ) == ["2: environ", "3: getenv", "4: getenv", "5: getenvb"]


def sign_tests(source: str) -> list[str]:
    """Each comparison of a ``.real`` or ``.pole`` attribute with the
    constant 0 in ``source``, as 'function: line'."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr in ("real", "pole")
                    for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value == 0
                            and not isinstance(o.value, bool)
                            for o in operands)):
                found.append(f"{function}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_one_stability_rule():
    # lti.is_stable alone decides stability from a sign; vgap._rhp_count
    # counts the right-half-plane zeros of det(I + P2~ P1) and gives no verdict
    allowed = {"lti.py": {"is_stable"}, "vgap.py": {"_rhp_count"}}
    for path in sorted((ROOT / "src" / "rssd").glob("*.py")):
        functions = {site.split(":")[0] for site in sign_tests(path.read_text())}
        assert functions <= allowed.get(path.name, set()), path.name
    assert sign_tests(
        "def f(eig, sec):\n    return eig.real < 0 or sec.pole >= 0.0\n"
        "def g(x):\n    return 0 > x.real, x.real < 1, x.imag < 0\n"
    ) == ["f: 2", "f: 2", "g: 4"]


def kind_literals(source: str) -> list[str]:
    """Each string constant ``"complex"`` in ``source``, as 'class: line' of
    the innermost class holding it ('None: line' outside every class)."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Constant) and node.value == "complex":
            found.append(f"{cls}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(source), None)
    return found


def test_one_home_for_a_modes_width():
    # ModeTarget.width alone turns a mode's kind into its count of real
    # parts; every R/W column count and genome slot reads it, and a
    # subspace takes its width from its eigenvalue
    allowed = {"eigassign.py": {"ModeTarget"}}
    for path in sorted((ROOT / "src" / "rssd").glob("*.py")):
        classes = {site.split(":")[0] for site in kind_literals(path.read_text())}
        assert classes <= allowed.get(path.name, set()), path.name
    assert kind_literals(
        'WIDTH = {"real": 1, "complex": 2}\nclass T:\n    def cols(self, m):\n'
        '        return 2 if m.kind == "complex" else 1\nz = complex(1.0)\n'
    ) == ["None: 1", "T: 4"]


def _is_order(expr, names) -> bool:
    """Whether ``expr`` is a system's order: ``X.n``, a name in ``names`` or
    an arithmetic of those."""
    if isinstance(expr, ast.BinOp):
        return _is_order(expr.left, names) or _is_order(expr.right, names)
    return (isinstance(expr, ast.Attribute) and expr.attr == "n"
            or isinstance(expr, ast.Name) and expr.id in names)


def _tests_order(test, names) -> bool:
    """Whether the condition ``test`` takes an order's truth or compares
    one with 0."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _tests_order(test.operand, names)
    if isinstance(test, ast.BoolOp):
        return any(_tests_order(value, names) for value in test.values)
    if isinstance(test, ast.Compare):
        operands = [test.left, *test.comparators]
        return (any(_is_order(o, names) for o in operands)
                and any(isinstance(o, ast.Constant) and o.value == 0
                        for o in operands))
    return _is_order(test, names)


def order_tests(source: str) -> list[str]:
    """Each if, while, conditional expression, comprehension filter or
    boolean operand in ``source`` that tests a system's order, as
    'function: line'; within a function, a name assigned from ``X.n`` is
    an order too."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple)
                             and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                              and _is_order(v, set())}
        for node in ast.walk(fn):
            tests = ([node.test] if isinstance(node, (ast.If, ast.IfExp, ast.While))
                     else node.ifs if isinstance(node, ast.comprehension)
                     else node.values if isinstance(node, ast.BoolOp) else [])
            found |= {(t.lineno, fn.name) for t in tests if _tests_order(t, names)}
    return [f"{name}: {line}" for line, name in sorted(found)]


def test_one_path_per_system_size():
    # numpy carries a static system (n = 0) through the general code, so only
    # _iteration (sigma_max(D) exactly, without the iteration's 2 LINF_TOL)
    # and _band_violation (no crossing to test) take a branch on the order
    allowed = {"margins.py": {"_iteration"}, "scp.py": {"_band_violation"}}
    for path in sorted((ROOT / "src" / "rssd").glob("*.py")):
        functions = {site.split(":")[0] for site in order_tests(path.read_text())}
        assert functions <= allowed.get(path.name, set()), path.name
    assert order_tests(
        "def f(p, q):\n    n1, n2 = p.n, q.n\n    a = 1 if n1 + n2 else 0\n"
        "    if not q.n or p.m:\n        pass\n    while p.n == 0:\n        pass\n"
        "    b = [x for x in p.A if n2]\n    c = p.m and q.n\n"
        "    if p.n != (n1, 2) or p.n > 1 or p.m == 0:\n        pass\n"
    ) == ["f: 3", "f: 4", "f: 6", "f: 8", "f: 9"]
