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
record dropped its derived fields.  Five order-32/64 machine reports, two
groups and three non-thin products, are pinned by SHA-256 the same way.
"""

import hashlib
from pathlib import Path

import pytest

from hyperalg.cli import main
from hyperalg.core import validate
from hyperalg.groups import cyclic, dihedral, direct_product, from_group
from hyperalg.harness import enumerated_entries, group_entries
from hyperalg.report import analyze, render_machine, render_text
from products import product_hypergroup

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


T = validate(2, [[1, 2], [2, 3]])  # the order-2 hypergroup with 1·1 = {0, 1}


def _power_of_t(n):
    h = T
    for _ in range(n - 1):
        h = product_hypergroup(h, T)
    return h


@pytest.mark.parametrize("name, build, want", [
    ("TxC2^5", lambda: product_hypergroup(T, from_group(_power_of_c2(cyclic(2), 4))),
     "074c64d467a8cfb68b7dddca32965c38ff9f2f50cda7f06be3f29457e9c9732f"),
    ("T^2xC2^4", lambda: product_hypergroup(_power_of_t(2), from_group(_power_of_c2(cyclic(2), 3))),
     "06111f92c82b857c29afeddf88a14e4e827fabb6f992f12cd3e253f70ec422ff"),
    ("T^6", lambda: _power_of_t(6),
     "eb82432fa4b3311be924c24e3de3851a13eb6937f71193cc6250b24f817d1cca"),
], ids=["TxC2^5", "T^2xC2^4", "T^6"])
def test_nonthin_order64_reports_match_digest(name, build, want):
    """Three non-thin products of order 64 (tests/products.py).  The first
    two have group quotients and non-thin ones, so both routes of the
    validator meet them; in T^6 every member has its own commutator vector.
    The digests were taken before the validator read singleton cells as bytes."""
    text = render_machine(analyze(build(), name=name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


def test_verify_tallies_match_golden(capsys):
    assert main(["verify", "--order", "4", "--groups-up-to", "12"]) == 0
    want = (GOLDEN / "verify_order4_groups12.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
