"""End-to-end command line behavior: text, JSON, exit codes, color."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzero
from lzero import fixtures
from lzero.cli import main
from lzero.classify import parse_class
from lzero.construct import braid_closure
from lzero.diagram import parse_diagram, render_diagram
from lzero.errors import LZeroError, ResourceLimitError
from lzero.moves import parse_site
from util import (clasp_pair, corpus, presentation_reference, random_code,
                  random_walk)


@pytest.fixture
def fx(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.lz"
        p.write_text(fixtures.fixture_text(name), encoding="utf-8")
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text(fx, capsys):
    code, out, err = run(capsys, "invariants", fx("whitehead"))
    assert code == 0 and err == ""
    assert out == ("m: 2\n"
                   "lk(1,2): 0\n"
                   "arf(1): 0\n"
                   "arf(2): 0\n"
                   "sl(1,2): 1\n")


def test_invariants_json(fx, capsys):
    code, out, err = run(capsys, "invariants", "--json", fx("hopf+"))
    assert code == 0
    blob = json.loads(out)
    assert blob["m"] == 2
    assert blob["linking"] == {"(1,2)": 1}
    assert blob["triple"] is None and blob["sato_levine"] is None


def test_conway_text_and_json(fx, capsys):
    code, out, _ = run(capsys, "conway", fx("trefoil"))
    assert code == 0 and out == "1 + z^2\n"
    code, out, _ = run(capsys, "conway", "--json", fx("trefoil"))
    assert code == 0
    blob = json.loads(out)
    assert blob == {"conway": [[0, 1], [2, 1]], "text": "1 + z^2"}


def test_classify_text(fx, capsys):
    code, out, err = run(capsys, "classify", fx("borromean"))
    assert code == 0 and err == ""
    assert out == "m=3; a=0,0,0; b=+1; c=0,0,0\n"


def test_classify_refuses_linked_input(fx, capsys):
    code, out, err = run(capsys, "classify", fx("hopf+"))
    assert code == 1
    assert out == ""
    assert err == "error: not classifiable: lk(K_1,K_2)=1\n"


def test_solvable_text(fx, capsys):
    code, out, _ = run(capsys, "solvable", fx("whitehead"))
    assert code == 0
    assert out == ("solvable: no\n"
                   "grope_class_2: no\n"
                   "whitney_tower_order_2: no\n"
                   "obstruction: mubar(1,1,2,2)=1 (odd)\n")
    code, out, _ = run(capsys, "solvable", fx("unknot"))
    assert code == 0
    assert out == ("solvable: yes\n"
                   "grope_class_2: yes\n"
                   "whitney_tower_order_2: yes\n"
                   "obstruction: none\n")


def test_equiv_text(fx, capsys):
    code, out, _ = run(capsys, "equiv", fx("trefoil"), fx("fig8"))
    assert code == 0
    assert out == ("equivalent: yes\n"
                   "left: m=1; a=1; b=; c=\n"
                   "right: m=1; a=1; b=; c=\n")


@pytest.mark.parametrize("right, code, out, err", [
    pytest.param("whitehead", 0, "equivalent: no\n"
                 "left: m=1; a=0; b=; c=\n"
                 "right: m=2; a=0,0; b=; c=1\n", "", id="unknot-whitehead"),
    pytest.param("hopf+", 1, "",
                 "error: not classifiable: lk(K_1,K_2)=1\n", id="unknot-hopf"),
])
def test_equiv_across_component_counts(fx, capsys, right, code, out, err):
    # a component count decides nothing alone: a linked side is refused
    assert run(capsys, "equiv", fx("unknot"), fx(right)) == (code, out, err)


def test_rep_round_trips_through_classify(fx, capsys, tmp_path):
    target = tmp_path / "rep.lz"
    code, out, _ = run(capsys, "rep", "m=2; a=1,0; b=; c=1",
                       "--out", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "classify", str(target))
    assert code == 0
    assert parse_class(out.strip()) == parse_class("m=2; a=1,0; b=; c=1")


def test_rep_rejects_bad_class_strings(capsys):
    code, out, err = run(capsys, "rep", "m=2; a=1; b=; c=1")
    assert code == 2
    assert err.startswith("error:")


def test_move_applies_and_prints_a_diagram(fx, capsys):
    trefoil = fx("trefoil")
    code, out, _ = run(capsys, "move", trefoil,
                       "R1+ arcs=1 sign=+ variant=under")
    assert code == 0
    moved = parse_diagram(out)
    assert len(moved.crossings) == 4


def test_move_pattern_mismatch_is_a_domain_refusal(fx, capsys):
    code, out, err = run(capsys, "move", fx("trefoil"), "R1- crossings=1")
    assert code == 1
    assert err == "error: crossing 1 is not a kink\n"


# One case per refusal text of the removing and switching moves and
# the R2+ face check (the curl refusal is the test above); a source is a fixture name, "clasp",
# or a (braid word, strands) closure.  A pattern refusal exits 1; a
# site the parser refuses, given with its exit code, exits 2.
@pytest.mark.parametrize("source, site, message", [
    ("trefoil", "R1- crossings=1,2", "R1- needs exactly one crossing"),
    ("trefoil", "R1- crossings=9", "no crossing 9; diagram has 3"),
    ("trefoil", "R2- crossings=1,1", "R2- needs two distinct crossings"),
    ("trefoil", "R2- crossings=1,2",
     "crossings 1 and 2 do not share an over arc"),
    (((1, 2), 3), "R2- crossings=1,2",
     "crossings 1 and 2 have equal signs; not a bigon pair"),
    ("clasp", "R2- crossings=1,3",
     "crossings 1 and 3 do not share an under arc"),
    ("trefoil", "R3 crossings=1,1,2", "R3 needs three distinct crossings"),
    ("fig8", "R3 crossings=1,2,3",
     "the three crossings do not bound a triangle"),
    (((-2, -1, -2, -3, -2, 3), 4), "R3 crossings=1,3,5",
     "a strand runs straight through crossing 1; not a triangle"),
    ("borromean", "R3 crossings=1,2,3",
     "the three strands are cyclically stacked; the triangle cannot be "
     "slid"),
    ("borromean", "BANDPASS crossings=1,2,3",
     "BANDPASS needs four distinct crossings"),
    ("borromean", "BANDPASS crossings=1,2,3,4",
     "over strands must run first->second and third->fourth"),
    (((-3, 2, 3, 1), 4), "BANDPASS crossings=3,1,4,2",
     "under strands must run second->third and fourth->first"),
    (((2, 3, 3, 1, 2, -3, -3, -2), 4), "BANDPASS crossings=4,5,8,1",
     "signs must alternate around the pass (anti-parallel bands)"),
    (((1, -2, -1, 1, -2, -1), 3), "BANDPASS crossings=3,4,6,1",
     "the over band must lie on one component"),
    (((2, 1, -1, 2, 1, -2, -1), 3), "BANDPASS crossings=3,5,7,2",
     "the under band must lie on one component"),
    ("trefoil", "R2+ arcs=1,4 sign=+ variant=par",
     "arcs 1 and 4 do not bound one face in the directions this sign and "
     "variant need; the slide would not be planar"),
    (((1, -1, -1, -2, 1, 3, 2), 4), "R3 crossings=4,6,7",
     "the triangle is not a face; the slide would not be planar"),
    ("trefoil", "R1- crossings=2 crossings=3",
     (2, "duplicate site field 'crossings'")),
])
def test_move_refusal_texts(source, site, message, tmp_path, capsys):
    exit_code, message = message if isinstance(message, tuple) else (1, message)
    if source == "clasp":
        d = clasp_pair()
    elif isinstance(source, str):
        d = fixtures.load(source)
    else:
        d = braid_closure(*source)
    path = tmp_path / "host.lz"
    path.write_text(render_diagram(d), encoding="utf-8")
    code, out, err = run(capsys, "move", str(path), site)
    assert (code, out, err) == (exit_code, "", f"error: {message}\n")


def test_move_site_syntax_error(fx, capsys):
    code, _, err = run(capsys, "move", fx("trefoil"), "R1- crossings=")
    assert code == 2
    assert err.startswith("error:")


def test_missing_file(capsys):
    code, out, err = run(capsys, "conway", "/nonexistent/file.lz")
    assert code == 2
    assert err.startswith("error: cannot read")


def test_malformed_diagram_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.lz"
    bad.write_text("components 1\nx + 1 2 3 oops\n", encoding="utf-8")
    code, _, err = run(capsys, "conway", str(bad))
    assert code == 2
    assert "line 2" in err


def test_conway_refuses_a_non_planar_code(tmp_path, capsys):
    # one component, four crossings, two faces instead of six
    bad = tmp_path / "nonplanar.lz"
    bad.write_text("components 1\n"
                   "x - 8 1 5 2\nx - 2 3 7 4\nx - 4 5 3 6\nx - 1 7 6 8\n"
                   + "".join(f"a {arc} 1\n" for arc in range(1, 9)),
                   encoding="utf-8")
    code, out, err = run(capsys, "conway", str(bad))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not a planar diagram" in lines[0]


def test_an_unrealizable_component_count_is_refused_at_once(tmp_path,
                                                           capsys):
    big = tmp_path / "big.lz"
    big.write_text("components 1000000000000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", str(big))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) < 200


def test_structure_errors_list_at_most_21_violations(tmp_path, capsys):
    # 100 crossings whose 400 arcs dangle: 800 violations in all
    bad = tmp_path / "dangling.lz"
    bad.write_text("components 1\n" + "".join(
        f"x + {4 * k + 1} {4 * k + 2} {4 * k + 3} {4 * k + 4}\n"
        for k in range(100)), encoding="utf-8")
    code, out, err = run(capsys, "invariants", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    violations = err[len("error: "):-1].split("; ")
    assert len(violations) == 21
    assert violations[-1] == "... and 780 more"


@pytest.mark.parametrize("error, text", [
    (MemoryError, "error: out of memory\n"),
    (RecursionError, "error: out of recursion depth\n"),
])
def test_resource_failures_are_typed_refusals(fx, capsys, monkeypatch,
                                              error, text):
    def exhausted(d):
        raise error()
    monkeypatch.setattr(lzero.cli, "conway_polynomial", exhausted)
    code, out, err = run(capsys, "conway", fx("trefoil"))
    assert code == ResourceLimitError.exit_code == 3
    assert out == "" and err == text


def test_rep_refuses_a_class_over_the_crossing_budget(capsys, monkeypatch):
    # 20000 Borromean insertions of 6 crossings each, after a dive of 6;
    # nothing is built
    monkeypatch.setattr(sys.modules["lzero.classify"], "build_from_gadgets",
                        None)
    start = time.perf_counter()
    code, out, err = run(capsys, "rep", "m=3; a=0,0,0; b=20000; c=0,0,0")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == ("error: the representative of this class would have "
                   "120006 crossings, over the budget of 50000\n")


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_file_matches_stdout_bytes(fx, capsys, tmp_path):
    borromean = fx("borromean")
    _, out, _ = run(capsys, "invariants", "--json", borromean)
    target = tmp_path / "inv.json"
    code, silent, _ = run(capsys, "invariants", "--json", borromean,
                          "--out", str(target))
    assert code == 0 and silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_out_into_a_missing_directory_is_refused(fx, capsys, tmp_path):
    target = tmp_path / "missing" / "inv.json"
    code, out, err = run(capsys, "invariants", fx("borromean"),
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and not target.exists()


def test_output_is_deterministic(fx, capsys):
    whitehead = fx("whitehead")
    _, first, _ = run(capsys, "invariants", "--json", whitehead)
    _, second, _ = run(capsys, "invariants", "--json", whitehead)
    assert first == second


def test_color_env_toggles_ansi(fx, capsys, monkeypatch):
    unknot = fx("unknot")
    monkeypatch.setenv("LZERO_COLOR", "1")
    _, colored, _ = run(capsys, "solvable", unknot)
    assert "\x1b[32myes\x1b[0m" in colored
    monkeypatch.setenv("LZERO_COLOR", "0")
    _, plain, _ = run(capsys, "solvable", unknot)
    assert "\x1b[" not in plain
    monkeypatch.delenv("LZERO_COLOR")
    _, plain, _ = run(capsys, "solvable", unknot)
    assert "\x1b[" not in plain


def test_color_never_reaches_files_or_json(fx, capsys, tmp_path, monkeypatch):
    unknot = fx("unknot")
    monkeypatch.setenv("LZERO_COLOR", "1")
    _, js, _ = run(capsys, "solvable", "--json", unknot)
    assert "\x1b[" not in js
    target = tmp_path / "solvable.txt"
    run(capsys, "solvable", unknot, "--out", str(target))
    assert "\x1b[" not in target.read_text(encoding="utf-8")


def _source_env():
    """The environment with ``PYTHONPATH`` set to this ``lzero``'s tree."""
    return dict(os.environ,
                PYTHONPATH=str(Path(lzero.__file__).resolve().parent.parent))


def _console_script(argv):
    """Run ``argv`` through the ``lzero`` entry in ``[project.scripts]``.

    The child does what a generated console script does: import the
    entry's ``module:attr`` and pass its return value to ``sys.exit``.
    No install is needed, so the check runs from a source tree.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["lzero"]
    module, attr = entry.split(":")
    stub = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run([sys.executable, "-c", stub, *argv],
                          capture_output=True, text=True, env=_source_env())


def test_console_script_is_wired_up(fx, tmp_path):
    proc = _console_script(["classify", fx("borromean")])
    assert proc.returncode == 0
    assert proc.stdout == "m=3; a=0,0,0; b=+1; c=0,0,0\n"
    proc = _console_script(["classify", fx("hopf+")])
    assert proc.returncode == 1
    assert proc.stderr == "error: not classifiable: lk(K_1,K_2)=1\n"
    proc = _console_script(["conway", str(tmp_path / "missing.lz")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read")


def test_python_dash_m_runs_the_cli(tmp_path):
    env = _source_env()
    borromean = Path(fixtures.__file__).resolve().parent / "borromean.lz"
    proc = subprocess.run(
        [sys.executable, "-m", "lzero", "classify", str(borromean)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "m=3; a=0,0,0; b=+1; c=0,0,0\n"
    proc = subprocess.run(
        [sys.executable, "-m", "lzero", "classify", "missing.lz"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read missing.lz")


def test_classify_demo_runs_from_a_source_tree(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "classify_demo.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--trials", "3"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_calls_in_one_process_match_fresh_runs(fx, capsys, tmp_path):
    """The parser is built once per process, so each call must give the
    bytes and exit code it gives in a fresh interpreter, whatever ran
    before it, and no earlier ``--out`` may catch later output."""
    borromean = fx("borromean")
    target = tmp_path / "class.txt"
    calls = [["classify", "--out", str(target), borromean],
             ["classify", borromean],
             ["classify", "--bogus", borromean],
             ["classify", "--json", borromean]]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "lzero", *argv],
                              capture_output=True, text=True,
                              env=_source_env())
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    written = target.read_text(encoding="utf-8")
    assert written == "m=3; a=0,0,0; b=+1; c=0,0,0\n"

    target.write_text("stale\n", encoding="utf-8")
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
        if argv is calls[0]:
            assert target.read_text(encoding="utf-8") == written
            target.write_text("stale\n", encoding="utf-8")
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert target.read_text(encoding="utf-8") == "stale\n"


# ---------------------------------------------------------------------------
# The battery's subcommands on random codes of sound slots and on walked
# corpus diagrams, against the same commands with the presentation and
# its pair totals built by the multi-pass reference and the crossing
# scan.  Most random codes are not planar and stop at parse; the walked
# diagrams are, so they reach the battery and its linking refusals.


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # anything but an LZeroError propagates here
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _reference_presentation():
    module = sys.modules["lzero.invariants"]
    saved, module.wirtinger = module.wirtinger, presentation_reference
    try:
        yield
    finally:
        module.wirtinger = saved


def _battery_host(seed, crossings, walked):
    """A random code with ``crossings`` crossings, or a corpus diagram
    after a seeded Reidemeister walk of that many steps."""
    rng = random.Random(seed)
    if not walked:
        return random_code(rng, crossings)
    start = rng.choice([d for _, d in corpus() if d.crossings])
    walk = list(random_walk(start, rng, crossings,
                            max_crossings=len(start.crossings) + 4))
    return walk[-1][1] if walk else start


@given(seed=st.integers(0, 2**32 - 1), crossings=st.integers(1, 8),
       walked=st.booleans())
@settings(max_examples=150, deadline=None)
def test_battery_commands_on_random_codes(seed, crossings, walked):
    d = _battery_host(seed, crossings, walked)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.lz")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_diagram(d))
        for command in ("invariants", "classify", "solvable"):
            for flags in ([], ["--json"]):
                argv = [command, *flags, path]
                code, out, err = got = _outcome(argv)
                assert code in ((0, 1) if walked else (0, 1, 2)), (argv, got)
                if code:
                    assert out == "" and err.startswith("error: ")
                    assert err.count("\n") == 1, (argv, got)
                else:
                    assert err == "", (argv, got)
                with _reference_presentation():
                    assert _outcome(argv) == got, (argv, render_diagram(d))


# ---------------------------------------------------------------------------
# The three text parsers on arbitrary text: each returns a value or
# raises an LZeroError carrying exit code 2, never anything else.

_TOKENS = st.sampled_from([
    "components", "x", "a", "o", "+", "-", "#", "=", ";", ",", "m", "b",
    "c", "R1+", "R1-", "R2+", "R2-", "R3", "BANDPASS", "crossings", "arcs",
    "sign", "variant", "under", "par", "0", "1", "2", "3", "-1", "99",
    "10000000000000000000", "\n", " ", "\t"])
_TEXTS = st.one_of(st.text(max_size=200),
                   st.lists(_TOKENS, max_size=60).map("".join),
                   st.lists(_TOKENS, max_size=60).map(" ".join))


@pytest.mark.parametrize("parse", [parse_diagram, parse_site, parse_class])
@given(text=_TEXTS)
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_typed_errors(parse, text):
    try:
        parse(text)
    except LZeroError as exc:
        assert exc.exit_code == 2, (text, exc)
