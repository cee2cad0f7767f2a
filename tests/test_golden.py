"""Byte-level regression: reports and tallies must match the files in golden/.

The files were written by hyperalg 0.1.0: `render_machine(analyze(...))`
for every bundled group of order <= 12 and every enumerated hypergroup of
order 2..3 (raw sweep, entry names as in the harness), concatenated in
that order, and the stdout of `hyperalg verify --order 4 --groups-up-to 12`.
The SHA-256 of the machine reports of the whole corpus (every enumerated
hypergroup of order 2..4, then every bundled group up to order 60, a5
included) was taken before `lem-cq` read its commutators from position
tables, and pins them byte for byte; the SHA-256 of the text reports of
the same corpus, the CLI's default rendering, was taken before the report
record dropped its derived fields.
"""

import hashlib
from pathlib import Path

import pytest

from hyperalg.cli import main
from hyperalg.groups import cyclic, dihedral, direct_product, from_group
from hyperalg.harness import enumerated_entries, group_entries
from hyperalg.report import analyze, render_machine, render_text

GOLDEN = Path(__file__).with_name("golden")


def _reports(entries, render=render_machine) -> str:
    return "".join(render(analyze(e.hypergroup, name=e.name)) for e in entries)


def test_group_reports_match_golden():
    want = (GOLDEN / "groups_le12.txt").read_text(encoding="utf-8")
    assert _reports(group_entries(12)) == want


def test_enumerated_reports_match_golden():
    want = (GOLDEN / "enumerated_le3.txt").read_text(encoding="utf-8")
    assert _reports(enumerated_entries((2, 3))) == want


def _corpus_digest(render) -> str:
    entries = [*enumerated_entries((2, 3, 4)), *group_entries(60)]
    assert len(entries) == 459
    return hashlib.sha256(_reports(entries, render).encode("utf-8")).hexdigest()


def test_corpus_reports_match_digest():
    want = "76988043f501ae5aed617f992d34ee79365d454fca5bbf9af88218ea1f8b6eed"
    assert _corpus_digest(render_machine) == want


def test_corpus_text_reports_match_digest():
    """`--report text` is the CLI default; its bytes are pinned like the machine's."""
    want = "09e917864a6f25673433327ae32c6f46ac5d2b38b02329b15cc938cb6b5ac52f"
    assert _corpus_digest(render_text) == want


def _power_of_c2(table, n):
    for _ in range(n):
        table = direct_product(table, cyclic(2))
    return table


@pytest.mark.parametrize("name, table, want", [
    ("c2^5", _power_of_c2(cyclic(2), 4),
     "36ff3ccb2d41287f6d6b97c7fc0ca559098eefd4a12de884374b3f4ec4eca7f9"),
    ("d4xc2^3", _power_of_c2(dihedral(4), 3),
     "8dcc467aa04b4f5bf2e72cf6203dd90f9c839b33d825c633c034d2cc9c3d9d9e"),
])
def test_order32_and_64_reports_match_digest(name, table, want):
    """C2^5 (374 closed subsets) and D4×C2^3 (937), the inputs on which
    `lem-cq` dominates `analyze`; the digests were taken before `lem-cq`
    compared commutator rows instead of members."""
    text = render_machine(analyze(from_group(table), name=name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


def test_verify_tallies_match_golden(capsys):
    assert main(["verify", "--order", "4", "--groups-up-to", "12"]) == 0
    want = (GOLDEN / "verify_order4_groups12.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
