import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hyperalg.cli import main
from hyperalg.core import InternalMismatch
from hyperalg.enumeration import relabel
from hyperalg.fileformat import (
    DuplicateCell,
    FormatSyntaxError,
    IndexOutOfRange,
    MissingCell,
    parse,
    read_table,
    serialize,
)
from hyperalg.groups import from_group, symmetric
from hyperalg.report import analyze, render_machine

SRC = str(Path(__file__).resolve().parents[1] / "src")

C2_TEXT = """hypergroup v1
name c2
order 2
cell 0 0 : 0
cell 0 1 : 1
cell 1 0 : 1
cell 1 1 : 0
"""

NONTHIN_TEXT = """hypergroup v1
name w2
order 2
cell 0 0 : 0
cell 0 1 : 1
cell 1 0 : 1
cell 1 1 : 0 1
"""


@pytest.fixture
def s3_file(tmp_path, s3):
    path = tmp_path / "s3.hg"
    path.write_text(serialize(s3, name="s3"))
    return str(path)


def test_parse_serialize_identity():
    name, h = parse(C2_TEXT)
    assert name == "c2" and h.order == 2
    assert serialize(h, name=name) == C2_TEXT
    name2, h2 = parse(serialize(h, name=name))
    assert h2.table == h.table


def test_parse_tolerates_comments_and_ordering():
    scrambled = """# a comment
hypergroup v1
name c2   # trailing comment
order 2

cell 1 1 : 0
cell 0 0 : 0
cell 1 0 : 1
cell 0 1 : 1
"""
    name, h = parse(scrambled)
    assert serialize(h, name=name) == C2_TEXT


def test_parse_errors():
    with pytest.raises(FormatSyntaxError):
        read_table("hypergroup v2\nname x\norder 1\ncell 0 0 : 0\n")
    with pytest.raises(FormatSyntaxError):
        read_table(C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 1 0"))  # not ascending
    with pytest.raises(MissingCell):
        read_table(C2_TEXT.replace("cell 1 1 : 0\n", ""))
    with pytest.raises(DuplicateCell) as err:
        read_table(C2_TEXT + "cell 1 1 : 0\n")
    assert err.value.line == 8
    with pytest.raises(IndexOutOfRange):
        read_table(C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 2"))
    with pytest.raises(IndexOutOfRange):
        read_table(C2_TEXT.replace("cell 1 1 : 0", "cell 1 2 : 0"))
    with pytest.raises(FormatSyntaxError):
        read_table("hypergroup v1\nname x\n")  # incomplete header


def test_check_command(tmp_path, capsys):
    good = tmp_path / "c2.hg"
    good.write_text(C2_TEXT)
    assert main(["check", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.hg"
    bad.write_text(C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 1"))
    assert main(["check", str(bad)]) == 1
    assert "row 1" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "nope.hg")]) == 1


def test_usage_errors_exit_2(tmp_path):
    for argv in (["frobnicate"], ["enumerate", "--order", "9"],
                 ["analyze"], ["verify", "--statements", "thm-bogus"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_analyze_text_and_machine(s3_file, capsys):
    assert main(["analyze", s3_file]) == 0
    text = capsys.readouterr().out
    assert "solvable: yes" in text and "valency 6" in text

    assert main(["analyze", s3_file, "--report", "machine"]) == 0
    machine = capsys.readouterr().out
    assert "nilpotent = false" in machine
    assert "solvable_orders = 3,2" in machine
    assert "statement_thm-ns = hypothesis-not-met" in machine


def test_analyze_deterministic(s3_file, capsys):
    main(["analyze", s3_file, "--report", "machine"])
    first = capsys.readouterr().out
    main(["analyze", s3_file, "--report", "machine"])
    assert capsys.readouterr().out == first


def test_quotient_command(s3_file, capsys):
    assert main(["quotient", s3_file, "--kernel", "0,3,4"]) == 0
    out = capsys.readouterr().out
    name, q = parse(out)
    assert q.order == 2 and q.is_thin()

    assert main(["quotient", s3_file, "--kernel", "0,3"]) == 1
    assert "closed" in capsys.readouterr().err


def test_quotient_kernel_index_is_bounded_before_use(s3_file, capsys):
    assert main(["quotient", s3_file, "--kernel", "0,1000000000000"]) == 1
    assert "exceed order 6" in capsys.readouterr().err


def test_huge_order_header_is_rejected_before_allocation(tmp_path, capsys):
    path = tmp_path / "huge.hg"
    path.write_text("hypergroup v1\nname huge\norder 1000000000\ncell 0 0 : 0\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 3: order must be in 1..64" in err


def test_enumerate_command(tmp_path, capsys):
    out_dir = tmp_path / "enum2"
    assert main(["enumerate", "--order", "2", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.strip() == "candidates=3 rejects=1 survivors=2"
    files = sorted(os.listdir(out_dir))
    assert files == ["order2_000.hg", "order2_001.hg"]
    for f in files:
        parse((out_dir / f).read_text())

    assert main(["enumerate", "--order", "3", "--canonical"]) == 0
    assert capsys.readouterr().out.strip() == \
        "candidates=2401 rejects=2386 survivors=15 canonical=10"


def test_from_group_command(tmp_path, capsys):
    path = tmp_path / "s3cayley.hg"
    path.write_text(serialize(from_group(symmetric(3)), name="s3"))
    assert main(["from-group", str(path)]) == 0
    name, h = parse(capsys.readouterr().out)
    assert name == "s3" and h.is_thin()

    bad = tmp_path / "notgroup.hg"
    bad.write_text(NONTHIN_TEXT)  # has a two-element cell
    assert main(["from-group", str(bad)]) == 1
    assert "single element" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["verify", "--order", "2", "--groups-up-to", "4",
                 "--statements", "thm-center,lem-com"]) == 0
    out = capsys.readouterr().out
    assert "statement thm-center:" in out and "violations = 0" in out


def test_console_script_and_jobs_determinism(s3_file):
    """The installed entry point exists and HYPERALG_JOBS never changes output."""
    outputs = []
    for jobs in ("1", "2"):
        env = dict(os.environ, HYPERALG_JOBS=jobs)
        r = subprocess.run(
            [sys.executable, "-m", "hyperalg.cli", "analyze", s3_file,
             "--report", "machine"],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]


def test_analyze_under_python_O_matches_in_process(tmp_path, thin_imports):
    """Result guards are raises, not asserts: `python -O` gives the same report."""
    d4 = thin_imports["d4"]
    path = tmp_path / "d4.hg"
    path.write_text(serialize(d4, name="d4"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run(
        [sys.executable, "-O", "-m", "hyperalg.cli", "analyze", str(path),
         "--report", "machine"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == render_machine(analyze(d4, name="d4"))


def test_no_assert_statement_in_src():
    """`python -O` drops asserts, so no result may rest on one."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(SRC, "hyperalg").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_inconsistent_report_raises(thin_imports):
    report = analyze(thin_imports["c4"], name="c4")
    with pytest.raises(InternalMismatch):
        replace(report, solvable=False).check_consistency()


def test_relabel_must_fix_the_identity(thin_imports):
    with pytest.raises(InternalMismatch):
        relabel(thin_imports["c2"], (1, 0))
