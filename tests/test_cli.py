"""End-to-end command line behavior: text, JSON, exit codes, color."""

import contextlib
import hashlib
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
from lzero.classify import parse_class, render_class
from lzero.construct import braid_closure
from lzero.diagram import parse_diagram, render_diagram
from lzero.errors import LZeroError, ResourceLimitError
from lzero.moves import KINDS, enumerate_sites, parse_site, render_site
from util import (REFUSED_CODES, clasp_pair, corpus, presentation_reference,
                  random_class, random_code, random_walk)


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
    # b = 10^100 = p^2 with p = 10^50: one commutator of 8p letters,
    # after a dive of 6, counted exactly and never written out
    monkeypatch.setattr(sys.modules["lzero.classify"], "build_from_gadgets",
                        None)
    start = time.perf_counter()
    code, out, err = run(capsys, "rep", f"m=3; a=0,0,0; b={10**100}; c=0,0,0")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("error: the representative of this class would have "
                   f"{8 * 10**50 + 6} crossings, over the budget of 50000\n")


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


# ---------------------------------------------------------------------------
# One pinned matrix of calls: the bytes and exit codes of every
# subcommand on fixed inputs.  A change that alters output on purpose
# records the new digests here and says in CHANGES.md which calls
# changed and why.


def _cli_matrix() -> list[list[str]]:
    """Every subcommand on the six fixtures, ``equiv`` on every ordered
    pair, the first site of each kind on each fixture, ``rep`` on
    seeded classes, and the refusals; all text and ``--json``.  Paths
    are relative to a folder that ``_write_matrix_files`` fills."""
    files = [f"{name}.lz" for name in fixtures.NAMES]
    calls = [[cmd, f] for f in files
             for cmd in ("invariants", "conway", "classify", "solvable")]
    calls += [["equiv", f, g] for f in files for g in files]
    for f, name in zip(files, fixtures.NAMES):
        d = fixtures.load(name)
        calls += [["move", f, render_site(sites[0])] for kind in KINDS
                  if (sites := enumerate_sites(d, kind))]
    rng = random.Random(15)
    calls += [["rep", render_class(random_class(rng, rng.randint(1, 5)))]
              for _ in range(40)]
    calls += [["rep", "m=3; a=0,0,0; b=-8372; c=0,0,0"],
              ["rep", f"m=3; a=0,0,0; b={10**100}; c=0,0,0"],
              ["rep", "m=3; a=0,0; b=0; c=0,0,0"],
              ["rep", "m=x; a=; b=; c="],
              ["rep", "m=2; a=0,0; b=; c=0; d=1"],
              ["move", "trefoil.lz", "R2- crossings=1,2"],
              ["move", "trefoil.lz", "R9 crossings=1"],
              ["classify", "missing.lz"],
              ["classify", "hopf+.lz"]]
    calls += [[cmd, f"refused-{i}.lz"] for i in range(len(REFUSED_CODES))
              for cmd in ("invariants", "classify")]
    return [argv[:1] + flag + argv[1:] for argv in calls
            for flag in ([], ["--json"])]


def _write_matrix_files(folder: Path):
    for name in fixtures.NAMES:
        (folder / f"{name}.lz").write_text(fixtures.fixture_text(name),
                                           encoding="utf-8")
    for i, d in enumerate(REFUSED_CODES.values()):
        (folder / f"refused-{i}.lz").write_text(render_diagram(d),
                                                encoding="utf-8")


# sha256 of the per-call sha256 digests of (argv, exit code, stdout,
# stderr), in ``_cli_matrix`` order, and the first 8 hex digits of each.
CLI_MATRIX_SHA256 = (
    "5492c5e6ca1e70581c25761f750de2afd1e7eeb1ccc0001461d44892a18de6cf")
CLI_MATRIX_CALLS = """
b4fb1c3c 9f8fd286 0aae90e0 795242c5 a73f6557 8af13ceb 15da5071 3cf2633d
9307f530 e6e72ee3 7136fbba 57c99944 35042786 bfce8024 2be039e8 c1f3439e
468ea24f 4296e8dc 4f0f1695 83b2411a 9679fb14 fed9a067 7d4b65ef c99e393a
df50e57f ab310c69 f5339718 58e745b8 ee103cf9 804834fc 88470799 ce13cb55
11e9b2e4 6fcaca9f 5db9e467 e02907c6 ff8a8d4b cd8ef5d6 d8d77896 6c9673bc
f48d62a7 079d2de8 dab7931d c58a9bd2 00c44e69 0744835f f3681fbe c9630ffd
11880255 de725d36 e14d91c7 2af28d6b d6ed4bac dee56a4c 715f81e4 21aa1344
2fb95863 d824632a 3daf5d72 ebed4889 f5e33f10 890dc4e7 cd8a9616 259855f6
d533ece7 fc84abfc 526b9afe db393323 ca6f8de9 c13147d4 afd44996 82223d25
7527e177 7c65b0b0 7c30f98b ef421e41 19d478df 9ba60aee 61c028f6 d99f8657
844b9e93 fc7e683a 7acfe84f c32ae236 5e3ab83b bd126532 5222eef1 3763185c
79b158d9 ea1114d8 99fe083b 4609d0c4 7e6d452d c514f53c 0337665e 83764327
1887c111 a8934e39 62aa71ca 27fbc27f 4b243ffb 51ccd56b 59815231 2d302585
648b057a c44f4642 c7f0c580 f490eedf d940dfa4 b7c082bc c853693f ecca86bb
6eb327b6 b7c66d32 fb8c0aae 4812e5fe b9b15b7b 75a8f450 6d2df5f6 20f1501c
4934da60 72ce9d93 66754318 9c636126 a2f4a908 69473d14 ffa0584f 8bc630d6
6d1df2d3 25441e28 b653ab84 876d1929 73531b66 808376c3 db006e7b 639cc2e7
90f9ae1a d320e00e 595c8cbe 9d8bb8c5 c448a201 fa5b176d c448a201 fa5b176d
3adfd159 76799834 5e5c61a7 6dd7cc04 d22478a0 4b77aa9f e6e796e8 83163f32
a6b8d11a efc85220 406384da 7a827b5b 9262cff7 0fdc1b77 513b50d9 b129d8e4
321e502a b5e0f2d1 584acd97 697ffd0e 4c0ae65c 9cb6d6c8 c9be34ee aaa8efe4
1e50fc53 59b2ae04 f3c5a10a 4c1c7f2b 8bdcb253 69dd4ac0 6fbc0bb7 ac446100
8ae51c81 669ef53d 232958c5 9f4c2ead e3de50f5 3135bac5 43b46e29 f8d1b826
1e50fc53 59b2ae04 f3697be7 7aee3fb8 5d4ddf4b 44d58287 616dd3b0 90a67288
f3c5a10a 4c1c7f2b e64ae4e3 e3160c1a 4de76397 87e5571f b7153c9d f7aa102f
f3c5a10a 4c1c7f2b 7e1a83e6 438357cf 517fa935 7c6eec87 6a96c7b5 09619b8a
a70bf9b0 c2a32872 b7153c9d f7aa102f 5f26f5e5 23fbcd99 e30cec5e 2c0ed6c7
3381e084 326d53b1 7fee557c e8c669df 0b14d338 27ab59c4 4bd9cbce f7ee9ea5
29eba4b3 1563f339 f7ae5e58 8d213d17 8e071ff8 53ab7b32 1f39f10c 6905617b
8219717a 80210674 cdf23f6a 94ba2896 ee103cf9 804834fc 7b70c1d9 f3b3037b
22797520 590b985d 1842df6f ca0cdde4 807cc202 50ec7b4c ce0d1cdf f64a25db
c6a0f429 2302f398
""".split()


def _matrix_digests(capsys) -> list[str]:
    digests = []
    for argv in _cli_matrix():
        code = main(argv)
        captured = capsys.readouterr()
        text = repr((argv, code, captured.out, captured.err))
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return digests


def test_cli_matrix_is_pinned(capsys, monkeypatch, tmp_path):
    """Byte identity of the command line, held as one digest; on a
    mismatch the test names the first call whose bytes differ."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LZERO_COLOR", raising=False)
    _write_matrix_files(tmp_path)
    digests = _matrix_digests(capsys)
    whole = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    if whole != CLI_MATRIX_SHA256:
        calls = _cli_matrix()
        short = [d[:8] for d in digests]
        for i, (got, want) in enumerate(zip(short, CLI_MATRIX_CALLS)):
            if got != want:
                pytest.fail(f"call {i} changed: lzero {calls[i]!r}")
        pytest.fail(f"{len(calls)} calls, {len(CLI_MATRIX_CALLS)} pinned")
