import ast
import contextlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cli_env import CLI_ENV, SRC
from hyperalg.cli import main
from hyperalg.core import HypergroupError, InternalMismatch
from hyperalg.enumeration import enumerate_hypergroups, relabel
from hyperalg.fileformat import (
    DuplicateCell,
    FileFormatError,
    FormatSyntaxError,
    IndexOutOfRange,
    MissingCell,
    parse,
    read_table,
    serialize,
)
from hyperalg.groups import from_group, symmetric
from hyperalg.report import analyze, render_machine


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


def test_serialize_rejects_names_that_do_not_round_trip():
    _, h = parse(C2_TEXT)
    for bad in ("", "a b", "a\tb", "a#b", "#"):
        with pytest.raises(ValueError, match="single token"):
            serialize(h, name=bad)


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


def test_console_script_analyze(s3_file, s3):
    """The installed entry point runs and prints the in-process report."""
    r = subprocess.run(
        [sys.executable, "-m", "hyperalg.cli", "analyze", s3_file,
         "--report", "machine"],
        capture_output=True, text=True, env=CLI_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout == render_machine(analyze(s3, name="s3"))


def test_analyze_under_python_O_matches_in_process(tmp_path, thin_imports):
    """Result guards are raises, not asserts: `python -O` gives the same report."""
    d4 = thin_imports["d4"]
    path = tmp_path / "d4.hg"
    path.write_text(serialize(d4, name="d4"))
    r = subprocess.run(
        [sys.executable, "-O", "-m", "hyperalg.cli", "analyze", str(path),
         "--report", "machine"],
        capture_output=True, text=True, env=CLI_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout == render_machine(analyze(d4, name="d4"))


def _src_nodes():
    """(file:line, node) for every ast node of `src/hyperalg/*.py`."""
    for path in sorted(Path(SRC, "hyperalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statement_in_src():
    """`python -O` drops asserts, so no result may rest on one."""
    assert [where for where, node in _src_nodes() if isinstance(node, ast.Assert)] == []


def test_no_environment_read_in_src():
    """Behaviour is chosen by arguments alone: no `os.environ` or `os.getenv`."""
    names = ("environ", "getenv")
    found = [where for where, node in _src_nodes()
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.alias) and node.name in names]
    assert found == []


def test_inconsistent_report_raises(thin_imports):
    report = analyze(thin_imports["c4"], name="c4")
    with pytest.raises(InternalMismatch):
        replace(report, solvable=False).check_consistency()


def test_relabel_must_fix_the_identity(thin_imports):
    with pytest.raises(InternalMismatch):
        relabel(thin_imports["c2"], (1, 0))


# --- fuzzing the input boundary ---------------------------------------------

BAD_LINES = ("", "# comment", "hypergroup v1", "hypergroup v2", "name", "name a b",
             "order 0", "order x", "order 99999999999", "cell 0 0 :", "cell 0 0 0",
             "cell 0 0 : 0", "cell 9 9 : 0", "cell -1 0 : 0", "cell 1 1 : 1 0",
             "cell 1 1 : 0 0", "cell 1 1 : 7", "cell a b : c", "frobnicate 1")


VALID_TABLES = [((1,),)] + [h.table for order in (2, 3)
                             for h in enumerate_hypergroups(order).survivors]


@st.composite
def table_texts(draw):
    """A `hypergroup v1` text of order <= 3: a valid table or random cells
    (empty ones included), up to two cells redrawn, then up to two lines
    deleted, replaced or appended."""
    table = draw(st.sampled_from(VALID_TABLES) | st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    table = [list(row) for row in table]
    n = len(table)
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.integers(0, (1 << n) - 1))
    lines = ["hypergroup v1", "name t", f"order {n}"]
    lines += [f"cell {i} {j} : {' '.join(str(k) for k in range(n) if cell >> k & 1)}"
              for i, row in enumerate(table) for j, cell in enumerate(row)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        new = draw(st.none() | st.sampled_from(BAD_LINES) | st.text(max_size=16))
        lines[at:at + 1] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(table_texts())
def test_fuzz_read_table_and_parse(text):
    """Any text either parses or raises a format or validation error."""
    try:
        name, order, table = read_table(text)
    except FileFormatError:
        return
    assert 1 <= order <= 3 and len(table) == order
    try:
        parse(text)
    except HypergroupError:
        pass


ARGS = (["--report", "text"], ["--report", "machine"], ["--report", "pdf"],
        ["--kernel", "0"], ["--kernel", "0,1"], ["--kernel", "0,7"], ["--kernel", "x"],
        ["--order", "2"], ["--order", "3"], ["--order", "5"], ["--order", "x"],
        ["--canonical"], ["--groups-up-to", "0"], ["--groups-up-to", "4"],
        ["--groups-up-to", "-1"], ["--statements", "thm-center,lem-com"],
        ["--statements", "thm-bogus"], ["--bogus"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["check", "analyze", "quotient", "enumerate",
                                "from-group", "verify", "bogus"]),
       file=st.sampled_from(["table", "missing", "dir", None]),
       flags=st.lists(st.sampled_from(ARGS), max_size=3),
       text=table_texts())
def test_fuzz_cli_exit_codes(tmp_path, command, file, flags, text):
    """Any argv (never `--out`) and any table file end in exit 0, 1 or 2,
    and a domain failure prints one line."""
    path = tmp_path / "t.hg"
    path.write_text(text)
    argv = [command]
    if file is not None and command not in ("enumerate", "verify"):
        argv.append({"table": str(path), "missing": str(tmp_path / "none.hg"),
                     "dir": str(tmp_path)}[file])
    argv += [arg for flag in flags for arg in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2), argv
    if code == 1 and "VIOLATED" not in out.getvalue():
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
