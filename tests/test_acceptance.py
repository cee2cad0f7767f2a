"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The corpus is every enumerated hypergroup of orders 2..4 (raw, not
deduplicated), every bundled group of order at most 8 as a thin import,
plus the order-60 simple group as the stress case.
"""

import subprocess
import sys
import time

import pytest

import group_oracle as oracle
from cli_env import CLI_ENV
from hyperalg.closed import (
    all_closed_subsets,
    closed_center,
    generated_closure,
    is_normal,
    is_strongly_normal,
)
from hyperalg.core import members
from hyperalg.enumeration import enumerate_hypergroups
from hyperalg.fileformat import parse, serialize
from hyperalg.groups import alternating, builtin_groups, from_group
from hyperalg.harness import CorpusEntry, run_harness
from hyperalg.quotient import build_quotient, project_subset
from hyperalg.report import analyze, render_machine
from hyperalg.series import (
    InternalMismatch,
    commutator_subset,
    inv_hypercenter,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    thin_residue,
    verify_statement,
)
from naive_enumeration import naive_enumerate
from set_products import set_product_many

ENUM_BUDGET_SECONDS = 600   # criterion 2: pruned sweep budget for order 4
A5_BUDGET_SECONDS = 300     # criterion 4: full analysis budget for a5


def _report(num: int, label: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {verdict}")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(problems[:10])


@pytest.fixture(scope="module")
def enum_corpus(enum2, enum3):
    t0 = time.perf_counter()
    enum4 = enumerate_hypergroups(4)
    elapsed = time.perf_counter() - t0
    assert elapsed < ENUM_BUDGET_SECONDS
    entries = []
    for result in (enum2, enum3, enum4):
        for i, h in enumerate(result.survivors):
            entries.append((f"enum{h.order}_{i:03d}", h))
    return entries


@pytest.fixture(scope="module")
def group_corpus():
    return [(name, from_group(t)) for name, t in builtin_groups(8)]


@pytest.fixture(scope="module")
def full_corpus(enum_corpus, group_corpus, a5):
    return enum_corpus + group_corpus + [("a5", a5)]


def test_criterion_1_order2_classification():
    t0 = time.perf_counter()
    pruned = enumerate_hypergroups(2)
    naive = naive_enumerate(2)
    elapsed = time.perf_counter() - t0

    problems = []
    want = [((1, 2), (2, 1)), ((1, 2), (2, 3))]  # the thin table and a·a = {1,a}
    if [h.table for h in pruned.survivors] != want:
        problems.append("pruned sweep does not yield the two known tables")
    if [h.table for h in naive.survivors] != want:
        problems.append("naive sweep disagrees")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, "order-2 classification", problems)


def _star_law_problems(h) -> list[str]:
    out = []
    for a in h.elements():
        if h.star[h.star[a]] != a:
            out.append(f"star not involutive at {a}")
        for b in h.elements():
            lhs = h.set_star(h.table[a][b])
            rhs = h.set_product(1 << h.star[b], 1 << h.star[a])
            if lhs != rhs:
                out.append(f"(ab)* != b*a* at ({a},{b})")
    for p in range(h.full + 1):
        for q in range(h.full + 1):
            if h.set_star(h.set_product(p, q)) != \
                    h.set_product(h.set_star(q), h.set_star(p)):
                out.append(f"(AB)* law fails at masks ({p},{q})")
    return out


def _identity_law_problems(h) -> list[str]:
    out = []
    for p in h.elements():
        if h.table[0][p] != 1 << p:
            out.append(f"left identity fails at {p}")
        for q in h.elements():
            if bool(h.table[p][q] & 1) != (q == h.star[p]):
                out.append(f"identity membership law fails at ({p},{q})")
            comm = set_product_many(h, 1 << h.star[p], 1 << h.star[q],
                                      1 << p, 1 << q)
            if h.commutes(p, q) and not comm & 1:
                out.append(f"commuting pair without identity in commutator ({p},{q})")
            if bool(comm & 1) != bool(h.table[p][q] & h.table[q][p]):
                out.append(f"intersection characterisation fails at ({p},{q})")
            if comm == 1 and not h.commutes(p, q):
                out.append(f"singleton commutator without commuting at ({p},{q})")
    neutrals = [e for e in h.elements()
                if all(h.table[s][e] == 1 << s and h.table[e][s] == 1 << s
                       for s in h.elements())]
    if neutrals != [0]:
        out.append(f"neutral elements are {neutrals}")
    return out


def _closure_law_problems(h) -> list[str]:
    out = []
    for s in range(1, h.full + 1):
        direct = h.set_product(h.set_star(s), s) & ~s == 0
        three = bool(s & 1) and h.set_star(s) == s and h.set_product(s, s) == s
        if direct != three:
            out.append(f"closedness characterisations disagree on {members(s)}")
    for f in all_closed_subsets(h).masks:
        if is_normal(h, f):
            for x in h.elements():
                if h.set_product(f, 1 << x) != h.set_product(1 << x, f):
                    out.append(f"normal subset {members(f)} without Fh = hF")
    return out


def _generated_closure_problems(h) -> list[str]:
    out = []
    for a in range(1, h.full + 1):
        if h.set_star(a) != a:
            continue
        clo = generated_closure(h, a)
        union = 1  # the zeroth power is the identity
        power = 1
        while True:
            power = h.set_product(power, a)
            if union | power == union:
                break
            union |= power
        if union != clo:
            out.append(f"closure of {members(a)} is not the union of powers")
        for x in h.elements():
            conj = set_product_many(h, 1 << h.star[x], a, 1 << x)
            if conj & ~clo == 0:
                big = set_product_many(h, 1 << h.star[x], clo, 1 << x)
                if big & ~clo:
                    out.append(f"conjugation escapes closure of {members(a)}")
    return out


def _quotient_lemma_problems(h) -> list[str]:
    out = []
    lat = all_closed_subsets(h)
    for f in lat.masks:
        q = build_quotient(h, f)
        for x in h.elements():
            if q.induced.set_star(q.block_bit[x]) != q.block_bit[h.star[x]]:
                out.append(f"quotient star transport fails, kernel {members(f)}")
        if q.induced.is_thin() != is_strongly_normal(h, f):
            out.append(f"thin quotient mismatch, kernel {members(f)}")
    normals = [m for m in lat.masks if is_normal(h, m)]
    for n in normals:
        q = build_quotient(h, n)
        for f in lat.masks:
            if n & ~f:
                continue
            if is_normal(q.induced, project_subset(q, f)) != is_normal(h, f):
                out.append(f"normality transport fails, kernel {members(n)}")
    return out


def test_criterion_2_lemma_suite(enum_corpus):
    harness_ids = ("lem-cen", "lem-qu", "lem-sn", "lem-main1", "lem-com",
                   "lem-cq", "cor-n")
    problems = []
    entries = [CorpusEntry(name, "enumerated", h) for name, h in enum_corpus]
    report = run_harness(entries, harness_ids)
    for sid, name, witness in report.violations:
        problems.append(f"{sid} on {name}: {witness}")
    for name, h in enum_corpus:
        for chunk in (_star_law_problems(h), _identity_law_problems(h),
                      _closure_law_problems(h), _generated_closure_problems(h),
                      _quotient_lemma_problems(h)):
            problems.extend(f"{name}: {p}" for p in chunk)
    _report(2, f"lemma suite over {len(enum_corpus)} enumerated members", problems)


def test_criterion_2_commutation_biconditional(enum_corpus):
    """The strong commutation characterisation, kept as stated: cell equality
    iff the identity lies in the elementwise commutator.

    EXPECTED RED.  The forward implication is a theorem and the converse
    holds through order 3, but the order-4 sweep produces tables where
    star(a)·star(b)·a·b meets the identity while a·b and b·a merely
    intersect without being equal (30 of the 420 raw survivors; see
    test_core.COMMUTATION_COUNTEREXAMPLE for a frozen instance).  What is
    true in general, and verified green in the lemma suite above, is:
    commuting implies identity in the commutator; identity in the
    commutator iff the two products intersect; a singleton commutator
    forces the products to commute.  This check is deliberately not
    weakened, so the failure stays visible.
    """
    problems = []
    for name, h in enum_corpus:
        for a in h.elements():
            for b in h.elements():
                comm = set_product_many(h, 1 << h.star[a], 1 << h.star[b],
                                          1 << a, 1 << b)
                if h.commutes(a, b) != bool(comm & 1):
                    problems.append(f"{name}: pair ({a},{b})")
    _report(2, "commutation biconditional (known-false converse)", problems)


def test_criterion_3_theorem_suite(enum_corpus, group_corpus):
    corpus = enum_corpus + group_corpus
    problems = []
    nilpotent_seen = 0
    hypercenter_seen = 0
    for name, h in corpus:
        if is_nilpotent(h)[0]:
            nilpotent_seen += 1
            for sid in ("thm-center", "thm-strongly", "thm-ns"):
                v = verify_statement(h, sid)
                if v.status != "holds":
                    problems.append(f"{sid} on {name}: {v.status} {v.witness}")
            ok, chain, orders = is_solvable(h)
            if not ok or chain is None:
                problems.append(f"{name}: nilpotent without a solvability witness")
        if inv_hypercenter(h) == h.full:
            hypercenter_seen += 1
            v = verify_statement(h, "thm-ct")
            if v.status != "holds":
                problems.append(f"thm-ct on {name}: {v.status} {v.witness}")
    if nilpotent_seen == 0:
        problems.append("no nilpotent corpus member exercised the theorems")
    if hypercenter_seen == 0:
        problems.append("no member with a full hypercenter")
    _report(3, f"theorem suite ({nilpotent_seen} nilpotent members)", problems)


def _oracle_agreement_problems(name, h, table) -> list[str]:
    out = []
    got = {frozenset(members(m)) for m in all_closed_subsets(h).masks}
    if got != oracle.all_subgroups(table):
        out.append(f"{name}: closed subsets != subgroups")
    if is_nilpotent(h)[0] != oracle.is_nilpotent(table):
        out.append(f"{name}: nilpotency disagrees")
    if is_solvable(h)[0] != oracle.is_solvable(table):
        out.append(f"{name}: solvability disagrees")
    if set(members(closed_center(h))) != set(oracle.center(table)):
        out.append(f"{name}: center disagrees")
    hyper = [set(members(m)) for m in lower_central_series(h)]
    if hyper != [set(s) for s in oracle.lower_central_series(table)]:
        out.append(f"{name}: lower central series disagrees")
    mask = h.full
    for want in oracle.derived_series(table):
        if set(members(mask)) != set(want):
            out.append(f"{name}: derived series disagrees")
            break
        mask = commutator_subset(h, mask, mask)
    return out


def test_criterion_4_thin_case_oracle(group_corpus, a5):
    problems = []
    tables = dict(builtin_groups(8))
    for name, h in group_corpus:
        problems.extend(_oracle_agreement_problems(name, h, tables[name]))

    t0 = time.perf_counter()
    problems.extend(_oracle_agreement_problems("a5", a5, alternating(5)))
    if len(all_closed_subsets(a5)) != 59:
        problems.append(f"a5: expected 59 closed subsets")
    if is_nilpotent(a5)[0]:
        problems.append("a5: should not be nilpotent")
    if is_solvable(a5)[0]:
        problems.append("a5: should not be solvable (exhaustive search)")
    analyze(a5, name="a5")  # the full report must also fit the budget
    elapsed = time.perf_counter() - t0
    if elapsed >= A5_BUDGET_SECONDS:
        problems.append(f"a5 analysis took {elapsed:.0f}s")
    _report(4, "thin-case oracle agreement incl. a5", problems)


def test_criterion_5_thin_residue_dual(full_corpus):
    problems = []
    mismatches = 0
    for name, h in full_corpus:
        try:
            res = thin_residue(h)
        except InternalMismatch as err:
            mismatches += 1
            problems.append(f"{name}: {err}")
            continue
        if not is_strongly_normal(h, res):
            problems.append(f"{name}: residue not strongly normal")
    if mismatches:
        problems.append(f"{mismatches} internal mismatches")
    _report(5, f"thin residue dual computation over {len(full_corpus)} members",
            problems)


def test_criterion_6_quotient_validity(full_corpus):
    problems = []
    pairs = 0
    for name, h in full_corpus:
        for f in all_closed_subsets(h).masks:
            pairs += 1
            try:
                q = build_quotient(h, f)  # runs the full validator internally
            except Exception as err:
                problems.append(f"{name} kernel {members(f)}: {err}")
                continue
            if q.induced.is_thin() != is_strongly_normal(h, f):
                problems.append(f"{name} kernel {members(f)}: thinness mismatch")
    _report(6, f"quotient validity over {pairs} (member, kernel) pairs", problems)


def test_criterion_7_separation_witness(enum2):
    problems = []
    witnesses = []
    for h in enum2.survivors:
        if closed_center(h) == h.full and not is_nilpotent(h)[0]:
            witnesses.append(h)
    if not witnesses:
        problems.append("no non-nilpotent member with a full closed center")
    else:
        h = witnesses[0]
        if inv_hypercenter(h) != h.full:
            problems.append("witness hypercenter is not everything")
        if verify_statement(h, "thm-ct").status != "holds":
            problems.append("witness does not exercise the residue-quotient theorem")
        if thin_residue(h) != h.full:
            problems.append("expected the whole set as thin residue")
    _report(7, "separation witness (full center, not nilpotent)", problems)


def test_criterion_8_cli_round_trip(full_corpus, tmp_path):
    problems = []
    for name, h in full_corpus:
        text = serialize(h, name=name)
        pname, back = parse(text)
        if pname != name or back.table != h.table:
            problems.append(f"{name}: parse(serialize) changed the table")
        if serialize(back, name=pname) != text:
            problems.append(f"{name}: serialisation is not canonical")

    h = full_corpus[20][1]
    sample = tmp_path / "sample.hg"
    sample.write_text(serialize(h, name="sample"))
    r = subprocess.run(
        [sys.executable, "-m", "hyperalg.cli", "analyze", str(sample),
         "--report", "machine"],
        capture_output=True, text=True, env=CLI_ENV)
    if r.returncode != 0:
        problems.append(f"analyze failed: {r.stderr}")
    elif r.stdout != render_machine(analyze(h, name="sample")):
        problems.append("analyze output differs from the in-process report")
    _report(8, f"round trip over {len(full_corpus)} members + deterministic analyze",
            problems)
