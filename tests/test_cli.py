"""End-to-end command line behavior: text, JSON, exit codes, color."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lzero
from lzero import fixtures
from lzero.cli import main
from lzero.classify import parse_class
from lzero.diagram import parse_diagram


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
