"""The benchmark workloads: which inputs, one pass over them, and its checks.

A pass calls the public functions the CLI uses on modules passed in as `hg`
(a namespace of freshly imported hyperalg modules) and returns plain data.
The checks reduce that data to facts that do not depend on the relabeling
and compare them with expected.json.  The facts about the groups come from
group theory; the enumeration counts and the harness tallies of the
enumerated corpus are frozen values of hyperalg 0.1.0.  An operation is one
input table or one corpus entry; it fails when the pass raises or when any
of its facts differs from the expected value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

EXPECTED_PATH = Path(__file__).with_name("expected.json")
STATUSES = ("holds", "hypothesis-not-met", "VIOLATED")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _elements(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _sylow_facts(sylow: dict, table) -> dict:
    """Count and sizes of the Sylow subsets per prime, and whether each is a subgroup."""
    return {
        "sylow": {str(p): [len(sets), sorted({len(s) for s in sets})]
                  for p, sets in sylow.items()},
        "sylow_closed": all(inputs.is_closed_under(table, s)
                            for sets in sylow.values() for s in sets),
    }


def _statement_verdicts(expected: dict, nilpotent: bool) -> dict:
    """On a group every statement holds; six need nilpotency as hypothesis."""
    skip = set() if nilpotent else set(expected["needs_nilpotent"])
    return {sid: "hypothesis-not-met" if sid in skip else "holds"
            for sid in expected["statements"]}


def _mismatches(got: dict, want: dict) -> list[str]:
    return [f"{key}: got {got.get(key, '<missing>')!r}, want {value!r}"
            for key, value in want.items() if got.get(key) != value]


def _check_each(outputs, wants, facts, tables) -> tuple[int, int, list[str]]:
    """One operation per input table: its facts must all match."""
    errors = []
    failed = len(wants) - len(outputs)
    for name, out in outputs:
        bad = _mismatches(facts(out, tables[name]), wants[name])
        failed += bool(bad)
        errors += [f"{name} {e}" for e in bad]
    return len(wants), failed, errors


# --- analyze-a5 -------------------------------------------------------------

def run_analyze(hg, parsed) -> list:
    return [(name, hg.report.render_machine(hg.report.analyze(h, name=name)))
            for name, h in parsed]


def report_facts(text: str, table) -> dict:
    """Relabeling-independent facts read back from a machine report."""
    kv = dict(line.split(" = ", 1) for line in text.splitlines())

    def elems(key):
        return [int(x) for x in kv[key].split(",")] if kv.get(key) else []

    def optional_int(key):
        return None if kv.get(key, "none") == "none" else int(kv[key])

    sylow = {k[len("sylow_"):]: [[int(x) for x in s.split(",")] for s in v.split(";")]
             for k, v in kv.items() if k.startswith("sylow_")}
    orders = kv.get("solvable_orders")
    return {
        "order": int(kv["order"]),
        "thin": kv["thin"] == "true",
        "closed_count": int(kv["closed_count"]),
        "lower_central_sizes": [len(elems(k)) for k in kv if k.startswith("lower_central_")],
        "nilpotent": kv["nilpotent"] == "true",
        "nilpotency_class": optional_int("nilpotency_class"),
        "center_size": len(elems("center")),
        "hypercenter_size": len(elems("inv_hypercenter")),
        "thin_residue_size": len(elems("thin_residue")),
        "solvable": kv["solvable"] == "true",
        "solvable_orders": sorted(int(x) for x in orders.split(",")) if orders else None,
        "rt": kv["rt"] == "true",
        "valency": optional_int("valency"),
        "statements": {k[len("statement_"):]: v for k, v in kv.items()
                       if k.startswith("statement_")},
        **_sylow_facts(sylow, table),
    }


def check_analyze(outputs, tables, expected) -> tuple[int, int, list[str]]:
    wants = {name: dict(w, statements=_statement_verdicts(expected, w["nilpotent"]))
             for name, w in expected["analyze-a5"].items()}
    return _check_each(outputs, wants, report_facts, tables)


# --- structure-elementary ---------------------------------------------------

def run_structure(hg, parsed) -> list:
    """Everything `analyze` computes except the statement checks."""
    closed, quotient, series = hg.closed, hg.quotient, hg.series
    out = []
    for name, h in parsed:
        lattice = closed.all_closed_subsets(h)
        kernels = [f for f in lattice.masks if closed.is_normal(h, f)]
        quotient_orders = [quotient.build_quotient(h, f).induced.order for f in kernels]
        lower = series.lower_central_series(h)
        nilpotent = series.is_nilpotent(h)
        upper = series.closed_center_series(h)
        residue = series.thin_residue(h)
        solvable = series.is_solvable(h)
        rt = series.rt_analysis(h)
        out.append((name, {
            "order": h.order,
            "closed": tuple(lattice.masks),
            "kernels": tuple(kernels),
            "quotient_orders": tuple(quotient_orders),
            "lower_central": tuple(lower),
            "nilpotent": tuple(nilpotent),
            "center_series": tuple(upper),
            "thin_residue": residue,
            "solvable": tuple(solvable),
            "valency": rt.valency,
            "sylow": {p: tuple(cs) for p, cs in rt.sylow.items()},
        }))
    return out


def structure_facts(d: dict, table) -> dict:
    n = d["order"]
    solvable, _chain, orders = d["solvable"]
    return {
        "order": n,
        "closed_count": len(d["closed"]),
        "normal_count": len(d["kernels"]),
        "quotient_index_ok": all(q * f.bit_count() == n
                                 for f, q in zip(d["kernels"], d["quotient_orders"])),
        "lower_central_sizes": [m.bit_count() for m in d["lower_central"]],
        "nilpotent": d["nilpotent"][0],
        "nilpotency_class": d["nilpotent"][1],
        "hypercenter_size": d["center_series"][-1].bit_count(),
        "thin_residue_size": d["thin_residue"].bit_count(),
        "solvable": solvable,
        "solvable_orders": sorted(orders) if orders else None,
        "valency": d["valency"],
        **_sylow_facts({p: [_elements(m) for m in cs] for p, cs in d["sylow"].items()},
                       table),
    }


def check_structure(outputs, tables, expected) -> tuple[int, int, list[str]]:
    return _check_each(outputs, expected["structure-elementary"], structure_facts, tables)


# --- verify-corpus ----------------------------------------------------------

def run_verify(hg, parsed) -> list:
    """Enumerate orders 2..4, then the 13 statements over the raw survivors
    and the relabeled groups, as `hyperalg verify` does."""
    out = []
    corpus = []
    for order in (2, 3, 4):
        result = hg.enumeration.enumerate_hypergroups(order, canonicalize=True)
        out.append((f"enumerate-{order}", {
            "candidates": result.candidates,
            "rejects": result.reject_total(),
            "survivors": len(result.survivors),
            "canonical": len(result.canonical),
        }))
        corpus += [hg.harness.CorpusEntry(f"enum{order}_{i:03d}", f"enumerated, order {order}", h)
                   for i, h in enumerate(result.survivors)]
    corpus += [hg.harness.CorpusEntry(name, "relabeled group", h) for name, h in parsed]
    report = hg.harness.run_harness(corpus)
    out.append(("harness", {
        "corpus": report.corpus_size,
        "tallies": {sid: dict(bucket) for sid, bucket in report.tallies.items()},
        "violations": len(report.violations),
    }))
    return out


def expected_tallies(expected: dict) -> dict:
    """Frozen tallies of the enumerated corpus plus the verdicts every group must get."""
    want = expected["verify-corpus"]
    tallies = {sid: dict(b) for sid, b in want["enumerated_tallies"].items()}
    for nilpotent in want["groups_nilpotent"].values():
        for sid, status in _statement_verdicts(expected, nilpotent).items():
            bucket = tallies.setdefault(sid, {})
            bucket[status] = bucket.get(status, 0) + 1
    return tallies


def check_verify(outputs, tables, expected) -> tuple[int, int, list[str]]:
    want = expected["verify-corpus"]
    corpus_size = (sum(e["survivors"] for e in want["enumeration"].values())
                   + len(want["groups_nilpotent"]))
    attempted = len(want["enumeration"]) + corpus_size
    got = dict(outputs)
    errors = []
    failed = 0
    for order, w in want["enumeration"].items():
        g = got.get(f"enumerate-{order}")
        bad = ["missing"] if g is None else _mismatches(g, w)
        if g is not None and g["candidates"] != g["rejects"] + g["survivors"]:
            bad.append("candidates != rejects + survivors")
        failed += bool(bad)
        errors += [f"enumerate-{order} {e}" for e in bad]
    harness = got.get("harness")
    if harness is None:
        return attempted, failed + corpus_size, errors + ["harness missing"]
    # A statement whose tallies differ by d verdicts has at least d entries
    # with a verdict other than the expected one.
    tallies = expected_tallies(expected)
    moved = 0
    for sid in set(tallies) | set(harness["tallies"]):
        have, need = harness["tallies"].get(sid, {}), tallies.get(sid, {})
        diffs = [have.get(st, 0) - need.get(st, 0) for st in STATUSES]
        moved += max(sum(d for d in diffs if d > 0), -sum(d for d in diffs if d < 0))
    if moved:
        errors.append(f"harness: {moved} verdicts differ from the expected tallies "
                      f"({harness['violations']} violations)")
    return attempted, failed + min(corpus_size, moved), errors


@dataclass(frozen=True)
class Workload:
    groups: tuple[str, ...]
    run: Callable
    check: Callable


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    "analyze-a5": Workload(("a5",), run_analyze, check_analyze),
    "structure-elementary": Workload(("c2x5", "c2x4xc3"), run_structure, check_structure),
    "verify-corpus": Workload(
        tuple(n for n in inputs.GROUPS if n not in ("a5", "c2x5", "c2x4xc3")),
        run_verify, check_verify),
}
