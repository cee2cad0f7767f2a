import ast
import contextlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

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
from hyperalg import fileformat, series
from hyperalg.groups import cyclic, direct_product, from_group, symmetric
from hyperalg.harness import build_corpus, run_harness
from hyperalg.report import analyze, render_machine
from hyperalg.series import HOLDS, HYPOTHESIS_NOT_MET, VIOLATED, verify_statement


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


READER_ERRORS = [
    # every `raise` in `read_table`, some lines behind comments and blanks
    ("hypergroup v2\nname x\norder 1\ncell 0 0 : 0\n",
     FormatSyntaxError, "expected header `hypergroup v1`", 1),
    ("# c\n\n  hypergroup v1 extra\n", FormatSyntaxError, "expected header `hypergroup v1`", 3),
    ("hypergroup v1\nname a b\norder 1\n", FormatSyntaxError, "expected `name <token>`", 2),
    ("hypergroup v1\n# c\ncell 0 0 : 0\n", FormatSyntaxError, "expected `name <token>`", 3),
    ("hypergroup v1\nname x\nsize 2\n", FormatSyntaxError, "expected `order <n>`", 3),
    ("hypergroup v1\nname x\n\norder\n", FormatSyntaxError, "expected `order <n>`", 4),
    ("hypergroup v1\nname x\norder two\n", FormatSyntaxError,
     "order is not an integer: 'two'", 3),
    ("hypergroup v1\nname x\norder 0\n", FormatSyntaxError, "order must be in 1..64, got 0", 3),
    ("hypergroup v1\nname x # c\norder 65  # c\ncell 0 0 : 0\n", FormatSyntaxError,
     "order must be in 1..64, got 65", 3),
    (C2_TEXT + "row 0 : 0\n", FormatSyntaxError, "unknown directive 'row'", 8),
    (C2_TEXT.replace("cell 0 1 : 1", "cell 0 1 1"), FormatSyntaxError,
     "expected `cell <i> <j> : <members...>`", 5),
    (C2_TEXT.replace("cell 0 1 : 1", "cell 0 1"), FormatSyntaxError,
     "expected `cell <i> <j> : <members...>`", 5),
    (C2_TEXT.replace("cell 0 1 : 1", "cell a 1 : 1"), FormatSyntaxError,
     "cell indices must be integers", 5),
    (C2_TEXT.replace("cell 0 1 : 1", "cell 0 1 : x"), FormatSyntaxError,
     "cell indices must be integers", 5),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 2 : 0"), IndexOutOfRange,
     "cell (1,2) outside order 2", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell -1 1 : 9"), IndexOutOfRange,
     "cell (-1,1) outside order 2", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 2"), IndexOutOfRange,
     "cell (1,1) lists a member outside 0..1", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 2 0"), IndexOutOfRange,
     "cell (1,1) lists a member outside 0..1", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 1 0"), FormatSyntaxError,
     "cell members must be strictly ascending", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 0 0"), FormatSyntaxError,
     "cell members must be strictly ascending", 7),
    (C2_TEXT.replace("cell 1 1 : 0", "cell 1 1 : 0 1 0"), FormatSyntaxError,
     "cell line lists more than 2 members", 7),
    (C2_TEXT + "cell 1 1 : 0\n", DuplicateCell, "cell (1,1) appears twice", 8),
    (C2_TEXT + "\ncell 1 1 : 0 1\n", DuplicateCell, "cell (1,1) appears twice", 9),
    (C2_TEXT.replace("cell 1 1 : 0\n", ""), MissingCell,
     "cell (1, 1) is missing (1 missing in total)", None),
    (C2_TEXT.replace("cell 0 1 : 1\n", "").replace("cell 1 1 : 0\n", ""), MissingCell,
     "cell (0, 1) is missing (2 missing in total)", None),
    ("hypergroup v1\nname x\norder 2\n", MissingCell,
     "cell (0, 0) is missing (4 missing in total)", None),
    # an incomplete header, with 0, 1 and 2 of its lines
    ("", FormatSyntaxError, "incomplete header", None),
    ("# c\n\n   \n", FormatSyntaxError, "incomplete header", None),
    ("\n# c\nhypergroup v1\n", FormatSyntaxError, "incomplete header", None),
    ("hypergroup v1\nname x\n", FormatSyntaxError, "incomplete header", None),
    ("hypergroup v1\n# c\n\nname x  # c\n# order 2\n", FormatSyntaxError,
     "incomplete header", None),
]


@pytest.mark.parametrize("text, cls, message, line", READER_ERRORS)
def test_reader_errors_are_pinned(text, cls, message, line):
    """Each reader error keeps its class, its message and its line number."""
    with pytest.raises(FileFormatError) as err:
        read_table(text)
    want = message if line is None else f"line {line}: {message}"
    assert (type(err.value), str(err.value), err.value.line) == (cls, want, line)


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


def test_input_longer_than_the_bound_is_refused(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c2.hg"
    path.write_text(C2_TEXT)
    monkeypatch.setattr("hyperalg.cli.MAX_CHARS", len(C2_TEXT))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("hyperalg.cli.MAX_CHARS", len(C2_TEXT) - 1)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} is longer than {len(C2_TEXT) - 1} characters\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_input_is_refused(capsys):
    assert main(["check", "/dev/zero"]) == 1
    assert capsys.readouterr().err == "error: /dev/zero is longer than 16777216 characters\n"


def test_longest_order_64_table_is_read_in_full(tmp_path, capsys):
    """A canonical order-64 file whose every cell lists all 64 members is the
    longest one there is; it passes the size bound and fails the axioms."""
    full = " ".join(str(k) for k in range(64))
    path = tmp_path / "w.hg"
    path.write_text("hypergroup v1\nname w\norder 64\n"
                    + "".join(f"cell {i} {j} : {full}\n" for i in range(64) for j in range(64)))
    assert path.stat().st_size == 797470
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: row 0: product with the identity")


def test_long_cell_line_is_refused_before_its_members_are_read():
    """A cell line of 700,000 members fails at once, holding under 5x its text."""
    text = "hypergroup v1\nname x\norder 2\ncell 0 0 :" + " 10" * 700_000 + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatSyntaxError) as err:
            read_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 4: cell line lists more than 2 members"
    assert peak < 5 * len(text), (peak, len(text))


LINE_ENDS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def reader_outcome(text):
    try:
        return read_table(text)
    except FileFormatError as err:
        return type(err), str(err), err.line


def test_reader_splits_lines_like_splitlines():
    """Every line end of str.splitlines, also across the reader's chunks of
    2^16 characters (a comment pads the text so that a chunk ends at each
    offset near a cell's line end): the same table, or the same error and
    line, as the text's lines joined by newlines."""
    rng = random.Random(28)
    cells = C2_TEXT.splitlines()[3:] + ["cell 1 1 : 0 1"]  # the last is a duplicate
    for pad in [0, *range(65500, 65540)]:
        for _ in range(3 if pad else 100):
            lines = [*C2_TEXT.splitlines()[:3], "#" * pad, *rng.sample(cells, rng.randint(3, 5))]
            text = "".join(line + rng.choice(LINE_ENDS) for line in lines)
            assert reader_outcome(text) == reader_outcome("\n".join(text.splitlines())), text[-60:]


@pytest.mark.parametrize("shape, unit, error", [
    ("short lines", "#a\n", "cell (0, 0) is missing (4 missing in total)"),
    ("blank lines", "\n", "cell (0, 0) is missing (4 missing in total)"),
    ("comment lines", "# " + "c" * 29 + "\n", "cell (0, 0) is missing (4 missing in total)"),
    ("long header line", "x", "line 2: expected `name <token>`"),
    ("long cell line", " 1", "line 4: cell line lists more than 2 members"),
])
def test_reader_memory_is_bounded_by_the_text(shape, unit, error):
    """The reader's worst shapes at 2^21 characters each peak under 5x the text."""
    header = "hypergroup v1\nname c2\norder 2\n"
    start = {"long header line": "hypergroup v1\nname x ", "long cell line": header + "cell 0 0 :"}
    text = start.get(shape, header) + unit * ((1 << 21) // len(unit)) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as err:
            read_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == error
    assert peak < 5 * len(text), (shape, peak, len(text))


def c2_5_lines():
    table = [[0]]
    for _ in range(5):
        table = direct_product(table, cyclic(2))
    return serialize(from_group(table), name="c2_5").splitlines()


# One fault of each reader error, made from the cell line "cell i j : k" that it
# replaces: (faulty line, class, message).
CELL_FAULTS = [
    ("row {i} {j} : {k}", FormatSyntaxError, "unknown directive 'row'"),
    ("cell {i} {j} {k}", FormatSyntaxError, "expected `cell <i> <j> : <members...>`"),
    ("cell {i} x : {k}", FormatSyntaxError, "cell indices must be integers"),
    ("cell {i} 32 : {k}", IndexOutOfRange, "cell ({i},32) outside order 32"),
    ("cell -1 {j} : {k}", IndexOutOfRange, "cell (-1,{j}) outside order 32"),
    ("cell {i} {j} : 32", IndexOutOfRange, "cell ({i},{j}) lists a member outside 0..31"),
    ("cell {i} {j} : -1", IndexOutOfRange, "cell ({i},{j}) lists a member outside 0..31"),
    ("cell {i} {j} : 1 0", FormatSyntaxError, "cell members must be strictly ascending"),
    ("cell {i} {j} : " + " ".join(map(str, range(32))) + " 0", FormatSyntaxError,
     "cell line lists more than 32 members"),
]


@pytest.mark.parametrize("place", ["first cell line", "second batch", "last line",
                                   "after a chunk boundary"])
def test_reader_batches_keep_the_line_loops_first_error(place, monkeypatch):
    """A fault of each kind planted in serialized C2^5 (cells on lines 4-1027,
    raw lines read 512 at a time): the batch pass raises the class, message
    and line that reading one line at a time gives.  In the second batch, the
    first batch is good and already written, so a re-read of it would raise
    DuplicateCell on line 4 instead."""
    lines = c2_5_lines()
    if place == "after a chunk boundary":  # a comment line moves the cells past 2^16 characters
        lines[3:3] = ["#" * 60_000]
        text = "\n".join(lines) + "\n"
        first_of_chunk = fileformat._CHUNK.match(text).end()
        at = text.count("\n", 0, first_of_chunk)  # index of the chunk's first line
        assert text[first_of_chunk - 1] == "\n" and 4 < at < len(lines) - 1
    else:
        at = {"first cell line": 3, "second batch": 699, "last line": 1026}[place]
    cells = [line.split() for line in lines]
    prev = at - 1 if place != "first cell line" else at + 1  # a duplicate of a neighbour
    cases = [(fault.format(i=cells[at][1], j=cells[at][2], k=cells[at][4]), cls,
              message.format(i=cells[at][1], j=cells[at][2]), at + 1)
             for fault, cls, message in CELL_FAULTS]
    cases.append((" ".join(cells[prev]), DuplicateCell,
                  f"cell ({cells[prev][1]},{cells[prev][2]}) appears twice", max(at, prev) + 1))
    for fault, cls, message, line in cases:
        text = "\n".join(lines[:at] + [fault] + lines[at + 1:]) + "\n"
        want = (cls, f"line {line}: {message}", line)
        assert reader_outcome(text) == want, (place, fault)
        with monkeypatch.context() as m:  # every line checked on its own
            m.setattr(fileformat, "_BATCH", 1)
            assert reader_outcome(text) == want, (place, fault)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@pytest.mark.parametrize("spelling", ["+1", "01", "non-ASCII digits", "tabs", "\\r\\n",
                                      "comment after the members", "all at once"])
def test_reader_accepts_the_int_spellings_of_the_line_loop(spelling, monkeypatch):
    """Indices and members are read with Python's int(), so each spelling reads
    to the table of the canonical text, in batches and one line at a time."""
    spell = {
        "+1": lambda line: " ".join("+" + t if t.isdigit() else t for t in line.split()),
        "01": lambda line: " ".join("0" + t if t.isdigit() else t for t in line.split()),
        "non-ASCII digits": lambda line: line.translate(ARABIC_INDIC),
        "tabs": lambda line: line.replace(" ", "\t"),
        "\\r\\n": lambda line: line + "\r",
        "comment after the members": lambda line: line + "  # a comment",
    }
    spell["all at once"] = lambda line: spell["\\r\\n"](spell["comment after the members"](
        spell["tabs"](spell["non-ASCII digits"](spell["01"](spell["+1"](line))))))
    for canonical in ("\n".join(c2_5_lines()) + "\n", NONTHIN_TEXT):
        lines = canonical.splitlines()
        text = "\n".join(lines[:3] + [spell[spelling](line) for line in lines[3:]]) + "\n"
        assert text != canonical
        want = read_table(canonical)
        assert read_table(text) == want
        with monkeypatch.context() as m:  # every line checked on its own
            m.setattr(fileformat, "_BATCH", 1)
            assert read_table(text) == want


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


def test_verify_reports_a_violation(monkeypatch, capsys):
    """A check that returns a witness is tallied VIOLATED, listed with it, and
    makes `verify` exit 1; its hypothesis still runs first."""
    hypothesis, _ = series.STATEMENTS["thm-center"]
    monkeypatch.setitem(series.STATEMENTS, "thm-center", (
        hypothesis, lambda h: f"planted, order {h.order}" if h.order == 4 else None))
    report = run_harness(build_corpus(max_enum_order=2, groups_up_to=4), ["thm-center"])
    assert report.tallies == {"thm-center": {HOLDS: 3, HYPOTHESIS_NOT_MET: 1, VIOLATED: 2}}
    assert report.violated
    want = ["corpus = 6",
            "statement thm-center: holds=3 hypothesis-not-met=1 VIOLATED=2",
            "violations = 2",
            "VIOLATED thm-center on c4: planted, order 4",
            "VIOLATED thm-center on v4: planted, order 4"]
    assert report.lines() == want
    assert main(["verify", "--order", "2", "--groups-up-to", "4",
                 "--statements", "thm-center"]) == 1
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_verify_repeated_statement_runs_once(capsys):
    assert main(["verify", "--order", "3", "--statements", "lem-cq"]) == 0
    once = capsys.readouterr().out
    assert main(["verify", "--order", "3", "--statements", "lem-cq,lem-cq"]) == 0
    assert capsys.readouterr().out == once
    assert once.count("statement lem-cq:") == 1


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


def _src_imports():
    """(file:line, module) for every import in `src/hyperalg/*.py`."""
    for where, node in _src_nodes():
        if isinstance(node, ast.Import):
            yield from ((where, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield where, "hyperalg" if node.level else node.module


def test_src_imports_only_stdlib():
    """hyperalg runs on the standard library alone."""
    allowed = {"hyperalg", *sys.stdlib_module_names}
    assert [(where, name) for where, name in _src_imports()
            if name.split(".")[0] not in allowed] == []


def test_public_surface_is_all():
    """`from hyperalg import *` works, and `__all__` names each public
    non-module attribute of the package once, with nothing stale in it."""
    import hyperalg

    exec("from hyperalg import *", {})  # an entry that does not resolve raises here
    names = hyperalg.__all__
    assert len(names) == len(set(names))
    public = {n for n, v in vars(hyperalg).items()
              if not n.startswith("_") and not isinstance(v, type(hyperalg))}
    assert set(names) == public


def test_no_environment_read_in_src():
    """Behaviour is chosen by arguments alone: no `os.environ` or `os.getenv`."""
    names = ("environ", "getenv")
    found = [where for where, node in _src_nodes()
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.alias) and node.name in names]
    assert found == []


def test_one_caching_mechanism_in_src():
    """`core.memo` is the one cache: no `cached_property`, `lru_cache` or
    `functools.cache`, whether imported or reached as an attribute."""
    names = ("cached_property", "lru_cache")
    found = [where for where, node in _src_nodes()
             if isinstance(node, ast.alias) and node.name in names
             or isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.ImportFrom) and node.module == "functools"
             and any(alias.name == "cache" for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "cache"
             and isinstance(node.value, ast.Name) and node.value.id == "functools"]
    assert found == []


def test_thm_ns_fault_is_reported_not_raised(thin_imports, monkeypatch):
    """A planted fault: with solvability patched to fail, c4 is nilpotent but
    not solvable.  `analyze` reports thm-ns VIOLATED with the witness that
    `verify_statement` gives, rather than raising on the same contradiction."""
    def never(h):
        return False, None, None

    monkeypatch.setattr("hyperalg.series.is_solvable", never)
    monkeypatch.setattr("hyperalg.report.is_solvable", never)
    c4 = thin_imports["c4"]
    want = ("VIOLATED", "no solvability chain exists")
    got = verify_statement(c4, "thm-ns")
    assert (got.status, got.witness) == want
    report = analyze(c4, name="c4")
    assert (report.nilpotency_class, report.solvable_chain) == (1, None)
    assert report.statements["thm-ns"] == want


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
    """Any text either parses or raises a format or validation error, and the
    reader gives the same table, or the same error and line, one line at a time."""
    with mock.patch.object(fileformat, "_BATCH", 1):
        one_at_a_time = reader_outcome(text)
    assert reader_outcome(text) == one_at_a_time
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
