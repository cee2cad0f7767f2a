"""Corpus assembly and the statement-verification harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from hyperalg.core import Hypergroup
from hyperalg.enumeration import enumerate_hypergroups
from hyperalg.groups import builtin_groups, from_group
from hyperalg.series import (HOLDS, HYPOTHESIS_NOT_MET, VIOLATED, Verdict, statement_ids,
                             verify_statement)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    provenance: str
    hypergroup: Hypergroup


def enumerated_entries(orders=(2, 3)) -> list[CorpusEntry]:
    entries = []
    for order in orders:
        for i, h in enumerate(enumerate_hypergroups(order).survivors):
            entries.append(CorpusEntry(
                name=f"enum{order}_{i:03d}",
                provenance=f"enumerated, order {order}, raw index {i}",
                hypergroup=h))
    return entries


def group_entries(max_order: int = 8) -> list[CorpusEntry]:
    return [CorpusEntry(name=name, provenance=f"group import, order {len(t)}",
                        hypergroup=from_group(t))
            for name, t in builtin_groups(max_order)]


def build_corpus(max_enum_order: int = 3, groups_up_to: int = 8) -> list[CorpusEntry]:
    orders = range(2, max_enum_order + 1)
    return enumerated_entries(orders) + group_entries(groups_up_to)


@dataclass
class HarnessReport:
    statements: tuple[str, ...]
    corpus_size: int
    tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    violations: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def record(self, entry: CorpusEntry, verdict: Verdict) -> None:
        bucket = self.tallies.setdefault(verdict.statement, {})
        bucket[verdict.status] = bucket.get(verdict.status, 0) + 1
        if verdict.status == VIOLATED:
            self.violations.append(
                (verdict.statement, entry.name, verdict.witness or ""))

    def lines(self) -> list[str]:
        out = [f"corpus = {self.corpus_size}"]
        for sid in self.statements:
            bucket = self.tallies.get(sid, {})
            parts = " ".join(f"{status}={bucket.get(status, 0)}"
                             for status in (HOLDS, HYPOTHESIS_NOT_MET, VIOLATED))
            out.append(f"statement {sid}: {parts}")
        out.append(f"violations = {len(self.violations)}")
        for sid, name, witness in self.violations:
            out.append(f"VIOLATED {sid} on {name}: {witness}")
        return out


def run_harness(corpus, statements=None) -> HarnessReport:
    """Run every requested statement check over every corpus member.

    A VIOLATED verdict never raises here; it is tallied with its witness
    so the caller can fail loudly with the full picture.  A statement
    named twice runs once, at its first place.
    """
    if statements is None:
        statements = statement_ids()
    statements = tuple(dict.fromkeys(statements))
    report = HarnessReport(statements=statements, corpus_size=len(corpus))
    for entry in corpus:
        for sid in statements:
            report.record(entry, verify_statement(entry.hypergroup, sid))
    return report
