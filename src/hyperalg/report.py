"""Aggregated per-hypergroup analysis and its two renderings."""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.closed import all_closed_subsets, center
from hyperalg.core import Hypergroup, InternalMismatch, members
from hyperalg.series import (
    NotRT,
    RTReport,
    closed_center_series,
    inv_hypercenter,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    rt_analysis,
    statement_ids,
    thin_residue,
    verify_statement,
)


@dataclass(frozen=True)
class AnalysisReport:
    name: str
    order: int
    thin: bool
    thin_part: tuple[int, ...]
    closed_count: int
    lower_central: tuple[tuple[int, ...], ...]
    nilpotent: bool
    nilpotency_class: int | None
    center: tuple[int, ...]
    closed_center_series: tuple[tuple[int, ...], ...]
    inv_hypercenter: tuple[int, ...]
    thin_residue: tuple[int, ...]
    solvable: bool
    solvable_chain: tuple[tuple[int, ...], ...] | None
    solvable_orders: tuple[int, ...] | None
    rt: bool
    valency: int | None
    sylow: dict[int, tuple[tuple[int, ...], ...]]
    statements: dict[str, tuple[str, str | None]]

    def check_consistency(self) -> None:
        """Raise InternalMismatch when two fields of the report disagree."""
        full = tuple(range(self.order))
        if not (self.lower_central[0] == full
                and self.closed_center_series[-1] == self.inv_hypercenter
                and (not self.nilpotent or self.nilpotency_class is not None)
                and (not self.solvable or None not in (self.solvable_chain, self.solvable_orders))
                and (not self.rt or self.valency is not None)
                and (not self.thin or self.thin_part == full)):
            raise InternalMismatch(f"report {self.name} is inconsistent")


def analyze(h: Hypergroup, name: str = "h") -> AnalysisReport:
    """Compute every report field; the input is already validated."""
    solvable, chain, orders = is_solvable(h)
    try:
        rt: RTReport | None = rt_analysis(h)
    except NotRT:
        rt = None
    report = AnalysisReport(
        name=name,
        order=h.order,
        thin=h.is_thin(),
        thin_part=members(h.thin_part),
        closed_count=len(all_closed_subsets(h)),
        lower_central=tuple(members(m) for m in lower_central_series(h)),
        nilpotent=is_nilpotent(h)[0],
        nilpotency_class=is_nilpotent(h)[1],
        center=members(center(h)),
        closed_center_series=tuple(members(m) for m in closed_center_series(h)),
        inv_hypercenter=members(inv_hypercenter(h)),
        thin_residue=members(thin_residue(h)),
        solvable=solvable,
        solvable_chain=tuple(members(m) for m in chain) if chain else None,
        solvable_orders=orders,
        rt=rt is not None,
        valency=rt.valency if rt else None,
        sylow={p: tuple(members(c) for c in cs) for p, cs in rt.sylow.items()} if rt else {},
        statements={sid: (v.status, v.witness)
                    for sid in statement_ids()
                    for v in [verify_statement(h, sid)]},
    )
    report.check_consistency()
    return report


def _fmt_set(xs: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in xs)


def render_machine(r: AnalysisReport) -> str:
    """Line-oriented `key = value` rendering with deterministic ordering."""
    lines = [
        f"name = {r.name}",
        f"order = {r.order}",
        "axioms = ok",
        f"thin = {str(r.thin).lower()}",
        f"thin_part = {_fmt_set(r.thin_part)}",
        f"closed_count = {r.closed_count}",
    ]
    for i, term in enumerate(r.lower_central, start=1):
        lines.append(f"lower_central_{i} = {_fmt_set(term)}")
    lines.append(f"nilpotent = {str(r.nilpotent).lower()}")
    lines.append(f"nilpotency_class = "
                 f"{r.nilpotency_class if r.nilpotency_class is not None else 'none'}")
    lines.append(f"center = {_fmt_set(r.center)}")
    for i, term in enumerate(r.closed_center_series):
        lines.append(f"closed_center_{i} = {_fmt_set(term)}")
    lines.append(f"inv_hypercenter = {_fmt_set(r.inv_hypercenter)}")
    lines.append(f"thin_residue = {_fmt_set(r.thin_residue)}")
    lines.append(f"solvable = {str(r.solvable).lower()}")
    if r.solvable_chain is not None:
        for i, term in enumerate(r.solvable_chain):
            lines.append(f"solvable_chain_{i} = {_fmt_set(term)}")
        lines.append(f"solvable_orders = {_fmt_set(r.solvable_orders)}")
    lines.append(f"rt = {str(r.rt).lower()}")
    lines.append(f"valency = {r.valency if r.valency is not None else 'none'}")
    for p in sorted(r.sylow):
        lines.append(f"sylow_{p} = " + ";".join(_fmt_set(c) for c in r.sylow[p]))
    for sid, (status, _witness) in r.statements.items():
        lines.append(f"statement_{sid} = {status}")
    return "\n".join(lines) + "\n"


def render_text(r: AnalysisReport) -> str:
    def braces(xs):
        return "{" + ", ".join(str(x) for x in xs) + "}"

    lines = [
        f"{r.name}: hypergroup of order {r.order}, axioms ok",
        f"  thin: {'yes' if r.thin else 'no'}; thin part {braces(r.thin_part)}",
        f"  closed subsets: {r.closed_count}",
        f"  lower central series: " + " > ".join(braces(t) for t in r.lower_central),
        f"  nilpotent: {'yes, class ' + str(r.nilpotency_class) if r.nilpotent else 'no'}",
        f"  center: {braces(r.center)}",
        f"  closed center series: " + " < ".join(braces(t) for t in r.closed_center_series),
        f"  inv-hypercenter: {braces(r.inv_hypercenter)}",
        f"  thin residue: {braces(r.thin_residue)}",
    ]
    if r.solvable:
        chain = " < ".join(braces(t) for t in r.solvable_chain)
        lines.append(f"  solvable: yes, chain {chain}, quotient orders "
                     f"{list(r.solvable_orders)}")
    else:
        lines.append("  solvable: no (exhaustive chain search failed)")
    if r.rt:
        lines.append(f"  residually thin: yes, valency {r.valency}")
        for p in sorted(r.sylow):
            subsets = ", ".join(braces(c) for c in r.sylow[p])
            lines.append(f"    sylow {p}-subsets: {subsets}")
    else:
        lines.append("  residually thin: no")
    lines.append("  statement checks:")
    for sid, (status, witness) in r.statements.items():
        extra = f" [{witness}]" if witness else ""
        lines.append(f"    {sid}: {status}{extra}")
    return "\n".join(lines) + "\n"
