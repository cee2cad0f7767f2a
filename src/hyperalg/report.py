"""Aggregated per-hypergroup analysis and its two renderings."""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.closed import all_closed_subsets, center
from hyperalg.core import Hypergroup, members
from hyperalg.series import (
    NotRT,
    RTReport,
    closed_center_series,
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
    """Every fact `analyze` finds, each held once.

    `None` marks a nilpotency class, a solvability chain (with its quotient
    orders) or a valency that does not exist; thinness is `thin_part` having
    all `order` elements, the inverse hypercenter `closed_center_series[-1]`.
    """
    name: str
    order: int
    thin_part: tuple[int, ...]
    closed_count: int
    lower_central: tuple[tuple[int, ...], ...]
    nilpotency_class: int | None
    center: tuple[int, ...]
    closed_center_series: tuple[tuple[int, ...], ...]
    thin_residue: tuple[int, ...]
    solvable_chain: tuple[tuple[int, ...], ...] | None
    solvable_orders: tuple[int, ...] | None
    valency: int | None
    sylow: dict[int, tuple[tuple[int, ...], ...]]
    statements: dict[str, tuple[str, str | None]]


def analyze(h: Hypergroup, name: str = "h") -> AnalysisReport:
    """Compute every report field; the input is already validated."""
    _, chain, orders = is_solvable(h)
    try:
        rt: RTReport | None = rt_analysis(h)
    except NotRT:
        rt = None
    return AnalysisReport(
        name=name,
        order=h.order,
        thin_part=members(h.thin_part),
        closed_count=len(all_closed_subsets(h)),
        lower_central=tuple(members(m) for m in lower_central_series(h)),
        nilpotency_class=is_nilpotent(h)[1],
        center=members(center(h)),
        closed_center_series=tuple(members(m) for m in closed_center_series(h)),
        thin_residue=members(thin_residue(h)),
        solvable_chain=None if chain is None else tuple(members(m) for m in chain),
        solvable_orders=orders,
        valency=rt.valency if rt else None,
        sylow={p: tuple(members(c) for c in cs) for p, cs in rt.sylow.items()} if rt else {},
        statements={sid: (v.status, v.witness)
                    for sid in statement_ids()
                    for v in [verify_statement(h, sid)]},
    )


def _fmt_set(xs: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in xs)


def render_machine(r: AnalysisReport) -> str:
    """Line-oriented `key = value` rendering with deterministic ordering."""
    lines = [
        f"name = {r.name}",
        f"order = {r.order}",
        "axioms = ok",
        f"thin = {str(len(r.thin_part) == r.order).lower()}",
        f"thin_part = {_fmt_set(r.thin_part)}",
        f"closed_count = {r.closed_count}",
    ]
    for i, term in enumerate(r.lower_central, start=1):
        lines.append(f"lower_central_{i} = {_fmt_set(term)}")
    lines.append(f"nilpotent = {str(r.nilpotency_class is not None).lower()}")
    lines.append(f"nilpotency_class = "
                 f"{r.nilpotency_class if r.nilpotency_class is not None else 'none'}")
    lines.append(f"center = {_fmt_set(r.center)}")
    for i, term in enumerate(r.closed_center_series):
        lines.append(f"closed_center_{i} = {_fmt_set(term)}")
    lines.append(f"inv_hypercenter = {_fmt_set(r.closed_center_series[-1])}")
    lines.append(f"thin_residue = {_fmt_set(r.thin_residue)}")
    lines.append(f"solvable = {str(r.solvable_chain is not None).lower()}")
    if r.solvable_chain is not None:
        for i, term in enumerate(r.solvable_chain):
            lines.append(f"solvable_chain_{i} = {_fmt_set(term)}")
        lines.append(f"solvable_orders = {_fmt_set(r.solvable_orders)}")
    lines.append(f"rt = {str(r.valency is not None).lower()}")
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
        f"  thin: {'yes' if len(r.thin_part) == r.order else 'no'}; thin part {braces(r.thin_part)}",
        f"  closed subsets: {r.closed_count}",
        f"  lower central series: " + " > ".join(braces(t) for t in r.lower_central),
        f"  nilpotent: {'no' if r.nilpotency_class is None else f'yes, class {r.nilpotency_class}'}",
        f"  center: {braces(r.center)}",
        f"  closed center series: " + " < ".join(braces(t) for t in r.closed_center_series),
        f"  inv-hypercenter: {braces(r.closed_center_series[-1])}",
        f"  thin residue: {braces(r.thin_residue)}",
    ]
    if r.solvable_chain is not None:
        chain = " < ".join(braces(t) for t in r.solvable_chain)
        lines.append(f"  solvable: yes, chain {chain}, quotient orders "
                     f"{list(r.solvable_orders)}")
    else:
        lines.append("  solvable: no (exhaustive chain search failed)")
    if r.valency is not None:
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
