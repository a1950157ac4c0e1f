"""The benchmark's layer tracer names only functions that exist, and
still sees the face and site layers; the builders sit on the diagram
layer alone, and it alone decides validity; every module reads all it
imports; the README's Python runs, and CI runs the README's test
command and one checked short benchmark run per workload."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from lzero import fixtures

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layer_names_resolve():
    """``--trace 1`` wraps every ``LAYERS`` name; a missing one breaks it."""
    tracer = _load_tracer()
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module("lzero." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), f"lzero.{mod}.{name}"


def test_tracer_counts_faces_and_site_listing():
    """Site listing reaches ``diagram.faces`` through a binding the
    tracer wraps, so the per-layer trace still counts both."""
    moves = importlib.import_module("lzero.moves")
    d = fixtures.load("borromean")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for kind in ("R2+", "R2-"):
            moves.enumerate_sites(d, kind)
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    assert counts["moves.enumerate_sites_calls"] == 2
    assert counts["diagram.faces_calls"] > 0
    assert counts["moves.sites_found"] == sum(
        len(moves.enumerate_sites(d, kind)) for kind in ("R2+", "R2-"))


def test_tracer_reaches_the_battery_walk_and_expansions():
    """``classify`` reaches ``milnor.wirtinger`` once and
    ``milnor.magnus_expand`` once per pair through bindings the tracer
    wraps, so ``--trace 1`` attributes the walk and the expansions."""
    classify = importlib.import_module("lzero.classify")
    d = fixtures.load("borromean")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        classify.classify(d)
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    assert counts["classify.classify_calls"] == 1
    assert counts["milnor.wirtinger_calls"] == 1
    assert counts["milnor.magnus_expand_calls"] == d.m * (d.m - 1) // 2
    assert counts["milnor.linking_number_calls"] == 0


def test_construct_imports_only_the_diagram_layer():
    """``lzero.construct`` builds codes; it needs no move, invariant or
    class layer."""
    tree = ast.parse((ROOT / "src" / "lzero" / "construct.py").read_text(
        encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # relative imports stay inside the package
            names.update([f"lzero.{node.module}"] if node.module
                         else [f"lzero.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert {n for n in names if n.split(".")[0] == "lzero"} == {"lzero.diagram"}


def test_validity_is_decided_in_the_diagram_layer_alone():
    """Only ``lzero.diagram`` builds a ``DiagramStructureError``, and no
    other module imports ``validate``, ``_face_count`` or a walk that
    skips the gate (the package only re-exports ``validate``), so every
    reader is refused by ``check_valid`` and nowhere else."""
    guarded = {"validate", "_face_count", "_cycles", "_wirtinger"}
    for path in sorted((ROOT / "src" / "lzero").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = path.relative_to(ROOT / "src").as_posix()
        if name == "lzero/diagram.py":
            continue
        built = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "DiagramStructureError"]
        assert built == [], name
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        allowed = {"validate"} if name == "lzero/__init__.py" else set()
        assert imported & guarded <= allowed, name


@pytest.mark.parametrize("path", [
    p for p in sorted((ROOT / "src" / "lzero").rglob("*.py"))
    if p != ROOT / "src" / "lzero" / "__init__.py"],
    ids=lambda p: p.relative_to(ROOT / "src").as_posix())
def test_every_imported_name_is_used(path):
    """A module imports only what it reads, so a removal leaves no
    stale import behind; the package ``__init__`` only re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_private_definition_is_referenced():
    """Each module-level ``_private`` function or class of ``src/lzero``,
    and each method of a class there, dunders aside, is named somewhere
    in ``src`` outside its own body, so a helper or a method that loses
    its last caller goes with it."""
    defined, named = {}, set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or isinstance(node, ast.alias) and node.name)
        if name and name not in owners:
            named.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in sorted((ROOT / "src" / "lzero").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if top.name.startswith("_") and not top.name.startswith("__"):
                defined[top.name] = path.name
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    defined[f"{top.name}.{node.name}"] = path.name
        visit(tree, frozenset())
    assert sorted(f"{path}: {name}" for name, path in defined.items()
                  if name.rpartition(".")[2] not in named) == []


def test_moves_leaves_the_dart_table_to_the_diagram_layer():
    """``lzero.moves`` reads faces through ``diagram``'s views; the dart
    numbering stays in ``diagram`` (and in ``conway``'s matrices), and
    so does the check of a rewrite, which certifies its patch.  The
    face-turn rule is written out once in ``src``."""
    tree = ast.parse((ROOT / "src" / "lzero" / "moves.py").read_text(
        encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "diagram"
             for alias in node.names}
    assert {"_triangles", "_is_face", "_patched"} <= names
    assert not names & {"_darts", "_orbits", "_check_slots"}
    text = "".join(p.read_text(encoding="utf-8")
                   for p in sorted((ROOT / "src").rglob("*.py")))
    rows = ("fwd[cr.over_out], back[cr.over_in],",
            "back[cr.over_in], fwd[cr.over_out],")
    assert [text.count(row) for row in rows] == [1, 1]


def test_readme_python_runs():
    """Every Python block of README.md, in order in one namespace, and
    every inline ``from lzero ... import ...`` it names."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    imports = re.findall(r"`(from lzero[\w.]* import [\w, ]+)`", text)
    assert len(blocks) >= 2 and imports
    namespace = {}
    for code in blocks + imports:
        exec(compile(code, "README.md", "exec"), namespace)
    # the value the README's comment gives for the Borromean rings
    assert namespace["g"] == namespace["parse_class"](
        "m=3; a=0,0,0; b=+1; c=0,0,0")


def test_ci_runs_the_readme_test_command():
    """The workflow installs exactly the tools of the ``test`` extra and
    runs the README's tier-1 command, unchanged, on Python 3.10 to
    3.13."""
    command = re.search(r"^## Install and test\n.*?^```sh\n(.*?)\n```",
                        (ROOT / "README.md").read_text(), re.M | re.S)[1]
    job, = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == [
        "3.10", "3.11", "3.12", "3.13"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert command in runs
    # tomllib is 3.11+, and the extra is one line of string literals
    extra = re.search(r"^test = (\[.*\])$",
                      (ROOT / "pyproject.toml").read_text(), re.M)[1]
    assert runs[0].split()[:2] == ["pip", "install"]
    assert sorted(runs[0].split()[2:]) == sorted(ast.literal_eval(extra))


def _bench_step() -> str:
    job, = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    step, = [s["run"] for s in job["steps"]
             if "bench/run.py" in s.get("run", "")]
    return step


def test_ci_runs_every_benchmark_workload():
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    step = _bench_step()
    assert f"for workload in {' '.join(names)}; do" in step
    assert ('python3 bench/run.py --workload "$workload" --seed 1 --seconds 1'
            in step)


# ``python3 bench/run.py`` answers with the line in $LAST and the exit
# code in $CODE; every other ``python3`` call runs the real interpreter.
_FAKE_BENCH = """python3() {
  if [ "$1" = bench/run.py ]; then
    echo 'warming up'; echo "$LAST"; return "$CODE"
  fi
  command "$PYTHON" "$@"
}
"""


@pytest.mark.parametrize("last, code, ok", [
    pytest.param('{"correct": true, "attempted": 5, "failed": 0}', 0, True,
                 id="clean"),
    pytest.param('{"correct": true, "attempted": 5, "failed": 2}', 0, False,
                 id="failed-ops"),
    pytest.param('{"correct": false, "attempted": 5, "failed": 0}', 0, False,
                 id="wrong-answer"),
    pytest.param('{"correct": true, "attempted": 5, "failed": 0}', 1, False,
                 id="run-error"),
    pytest.param("", 0, False, id="no-output"),
])
def test_ci_bench_step_fails_unless_correct_and_clean(last, code, ok):
    env = dict(os.environ, LAST=last, CODE=str(code), PYTHON=sys.executable)
    done = subprocess.run(["bash", "-e", "-c", _FAKE_BENCH + _bench_step()],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode == 0) == ok, done.stderr


def test_move_walk_skips_a_kind_with_no_site():
    """The CI move walk names and skips a step whose kind has no site
    (a crossing-free representative has none) instead of failing."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "move_walk.py"),
         "--moves", "2", "--components", "1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "step 1: no R1+ site, skipped" in done.stdout
    assert "0 moves, every result valid" in done.stdout
