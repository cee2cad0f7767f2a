import pytest

import group_oracle as oracle
from hyperalg import series
from hyperalg.closed import all_closed_subsets, is_normal, is_strongly_normal
from hyperalg.core import mask_of, members, validate
from hyperalg.quotient import build_quotient, project_subset
from hyperalg.series import (
    InternalMismatch,
    NotRT,
    UnknownStatement,
    closed_center_series,
    commutator_elements,
    commutator_subset,
    inv_hypercenter,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    rt_analysis,
    statement_ids,
    thin_residue,
    valency,
    verify_statement,
)
from sub_masks import sub_hypergroup, to_sub_mask

A3 = mask_of([0, 3, 4])


def test_commutator_elements(nonthin2, s3, thin_imports, group_tables):
    c4 = thin_imports["c4"]
    for a in c4.elements():
        assert commutator_elements(c4, a, a) == 1
    assert commutator_elements(nonthin2, 1, 1) == 3  # (aa)(aa) = {1,a}
    want = oracle.commutator(group_tables["s3"], 1, 3)
    assert commutator_elements(s3, 1, 3) == 1 << want


def test_commutator_subset_examples(nonthin2, s3, thin_imports):
    v4 = thin_imports["v4"]
    assert commutator_subset(v4, v4.full, v4.full) == 1
    assert commutator_subset(nonthin2, nonthin2.full, 1) == 3
    assert commutator_subset(s3, s3.full, s3.full) == A3


def test_commutator_subset_is_minimal_closed_cover(enum2, enum3):
    for h in list(enum2.survivors) + list(enum3.survivors):
        closed = [m for m in range(1, h.full + 1)
                  if h.set_product(h.set_star(m), m) & ~m == 0]
        for a in range(1, h.full + 1):
            for b in range(1, h.full + 1):
                gen = 0
                for x in members(a):
                    for y in members(b):
                        gen |= commutator_elements(h, x, y)
                meet = h.full
                for c in closed:
                    if gen & ~c == 0:
                        meet &= c
                assert commutator_subset(h, a, b) == meet


def test_lower_central_series(s3, nonthin2, thin_imports):
    c4 = thin_imports["c4"]
    assert lower_central_series(c4) == (c4.full, 1)
    assert is_nilpotent(c4) == (True, 1)
    assert lower_central_series(s3) == (s3.full, A3)
    assert is_nilpotent(s3) == (False, None)
    assert lower_central_series(nonthin2) == (3,)
    assert is_nilpotent(nonthin2) == (False, None)


def test_nilpotency_class_two_groups(thin_imports, group_tables):
    for name in ("d4", "q8"):
        h = thin_imports[name]
        nil, cls = is_nilpotent(h)
        assert nil and cls == 2
        want = oracle.lower_central_series(group_tables[name])
        got = [set(members(m)) for m in lower_central_series(h)]
        assert got == [set(s) for s in want]


def test_trivial_hypergroup_class_zero():
    h = validate(1, [[1]])
    assert is_nilpotent(h) == (True, 0)
    assert is_solvable(h) == (True, (1,), ())


def test_closed_center_series(s3, nonthin2, thin_imports):
    v4 = thin_imports["v4"]
    assert closed_center_series(v4) == (1, v4.full)
    assert closed_center_series(nonthin2) == (1, 3)
    assert closed_center_series(s3) == (1,)
    assert inv_hypercenter(s3) == 1
    assert inv_hypercenter(nonthin2) == 3


def test_center_series_matches_group_hypercenter(thin_imports, group_tables):
    # for group imports the terms are the usual upper central series
    for name in ("d4", "q8", "s3", "c6", "c2xc2xc2"):
        h = thin_imports[name]
        table = group_tables[name]
        terms = closed_center_series(h)
        assert set(members(terms[1] if len(terms) > 1 else terms[0])) \
            == set(oracle.center(table)) | {0}


def test_series_stabilize_within_order(small_corpus):
    for h in small_corpus:
        assert len(lower_central_series(h)) <= h.order
        assert len(closed_center_series(h)) <= h.order + 1


def test_thin_residue(s3, nonthin2, thin_imports):
    for h in (s3, thin_imports["c8"], thin_imports["d4"]):
        assert thin_residue(h) == 1
    assert thin_residue(nonthin2) == 3


def test_thin_residue_of_product_is_nonthin_factor():
    # table of (thin C2) x (non-thin order 2); elements (c, m) -> 2c + m
    nonthin = validate(2, [[1, 2], [2, 3]])
    def cell(i, j):
        c = (i // 2) ^ (j // 2)
        out = 0
        for z in members(nonthin.table[i % 2][j % 2]):
            out |= 1 << (2 * c + z)
        return out
    prod = validate(4, [[cell(i, j) for j in range(4)] for i in range(4)])
    assert thin_residue(prod) == mask_of([0, 1])


def test_solvable(s3, nonthin2):
    ok, chain, orders = is_solvable(s3)
    assert ok and chain == (1, A3, s3.full) and orders == (3, 2)
    assert is_solvable(nonthin2) == (False, None, None)


def test_solvable_chain_steps_are_prime_thin(small_corpus):
    for h in small_corpus:
        ok, chain, orders = is_solvable(h)
        if not ok:
            continue
        assert chain[0] == 1 and chain[-1] == h.full
        for (small, big), order in zip(zip(chain, chain[1:]), orders):
            sub, elems = sub_hypergroup(h, big)
            q = build_quotient(sub, to_sub_mask(small, elems))
            assert q.induced.is_thin() and q.induced.order == order
            assert order in (2, 3, 5, 7)


def test_rt_analysis_c6(thin_imports):
    c6 = thin_imports["c6"]
    rt = rt_analysis(c6)
    assert rt.valency == 6
    assert rt.sylow[2] == (mask_of([0, 3]),)
    assert rt.sylow[3] == (mask_of([0, 2, 4]),)


def test_rt_thin_valency_is_order(thin_imports):
    for h in thin_imports.values():
        assert valency(h) == h.order


def test_not_rt(nonthin2):
    with pytest.raises(NotRT):
        rt_analysis(nonthin2)
    with pytest.raises(NotRT):
        valency(nonthin2)


def _chain_valencies(h, c) -> set[int]:
    """Valency oracle: walk every chain from the trivial subset to C.

    The walk runs inside the sub-hypergroup on C, on that sub-hypergroup's
    own lattice, and collects the product of the step-quotient orders of
    each complete chain whose steps are strongly normal.  The walk keeps
    no memo of its own and has no cap.
    """
    sub, _ = sub_hypergroup(h, c)
    masks = all_closed_subsets(sub).masks
    products = set()

    def walk(f: int, v: int) -> None:
        if f == sub.full:
            products.add(v)
            return
        for k in masks:
            if k == f or f & ~k:
                continue
            big, elems = sub_hypergroup(sub, k)
            small = to_sub_mask(f, elems)
            if is_strongly_normal(big, small):
                walk(k, v * len(build_quotient(big, small)))

    walk(1, 1)
    return products


def test_valencies_match_chain_walk(enum2, enum3, enum4, thin_imports):
    """Every closed subset of every order-2..4 survivor and bundled group <= 12."""
    corpus = [*enum2.survivors, *enum3.survivors, *enum4.survivors,
              *thin_imports.values()]
    for h in corpus:
        val = series._valencies(h)
        for c in all_closed_subsets(h).masks:
            want = _chain_valencies(h, c)
            assert want == ({val[c]} if c in val else set()), (h.table, members(c))


def test_non_descending_commutator_raises(s3, monkeypatch):
    """A result guard that survives `python -O`: not an assert."""
    monkeypatch.setattr(series, "commutator_subset",
                        lambda h, a, b: 1 if a == h.full else h.full)
    with pytest.raises(InternalMismatch):
        series._lower_central.__wrapped__(s3, s3.full)


def test_relative_lower_central_matches_sub_hypergroup(corpus, a5):
    """Every closed C of every order-2..4 survivor and every bundled group:
    the series of C on the ambient table, term by term, is the series of
    the sub-hypergroup on C."""
    checked = nilpotent = 0
    for h in [*corpus, a5]:
        for c in all_closed_subsets(h).masks:
            sub, elems = sub_hypergroup(h, c)
            got = tuple(to_sub_mask(x, elems) for x in series._lower_central(h, c))
            assert got == lower_central_series(sub), (h.table, members(c))
            checked += 1
            nilpotent += got[-1] == 1
    assert (checked, nilpotent) == (1324, 672)


def prop_s_by_sub_hypergroups(h):
    """`prop-s` oracle without its hypothesis: the first lattice member whose
    sub-hypergroup's lower central series misses 1; (status, witness)."""
    for m in all_closed_subsets(h).masks:
        if lower_central_series(sub_hypergroup(h, m)[0])[-1] != 1:
            return "VIOLATED", f"closed subset {members(m)} is not nilpotent"
    return "holds", None


def test_prop_s_witness_matches_sub_hypergroup_route(corpus, thin_imports, monkeypatch):
    """No corpus entry violates `prop-s`, so its hypothesis is patched away:
    every entry then counts as nilpotent, and the ambient route must name
    the same first non-nilpotent closed subset as the sub-hypergroup route."""
    monkeypatch.setattr(series, "is_nilpotent", lambda h: (True, 1))
    violated = proper = 0
    for h in corpus:
        got = verify_statement(h, "prop-s")
        assert (got.status, got.witness) == prop_s_by_sub_hypergroups(h), h.table
        violated += got.status == "VIOLATED"
        proper += got.status == "VIOLATED" and got.witness != (
            f"closed subset {members(h.full)} is not nilpotent")
    assert (violated, proper) == (435, 167)
    assert verify_statement(thin_imports["d6"], "prop-s").witness == \
        "closed subset (0, 2, 4, 6, 8, 10) is not nilpotent"


def lem_cq_by_triples(h):
    """`lem-cq` oracle: every (normal F, closed C, closed D) in lattice
    order, each quotient commutator taken on its own; (status, witness)."""
    lat = all_closed_subsets(h)
    for f in lat.masks:
        if not is_normal(h, f):
            continue
        q = build_quotient(h, f)
        for c in lat.masks:
            pc = project_subset(q, c)
            for d in lat.masks:
                lhs = series.commutator_subset(q.induced, pc, project_subset(q, d))
                rhs = project_subset(q, series.commutator_subset(h, c, d))
                if lhs != rhs:
                    return "VIOLATED", f"kernel {members(f)}, C {members(c)}, D {members(d)}"
    return "holds", None


def _lem_cq(h):
    got = verify_statement(h, "lem-cq")
    return got.status, got.witness


def test_lem_cq_matches_triple_loop(corpus):
    for h in corpus:
        assert _lem_cq(h) == lem_cq_by_triples(h) == ("holds", None), h.table


def test_lem_cq_witness_matches_triple_loop(thin_imports, monkeypatch):
    """A planted fault: on a proper quotient, [full, D] is full for every
    D other than the trivial and the full subset."""
    commutator_subset = series.commutator_subset
    groups = {name: thin_imports[name] for name in ("d4", "q8", "d6", "c12")}
    quotients = {build_quotient(h, f).induced
                 for h in groups.values() for f in all_closed_subsets(h).masks
                 if f not in (1, h.full) and is_normal(h, f)}

    def faulty(h, a, b):
        if h in quotients and a == h.full and b not in (1, h.full):
            return h.full
        return commutator_subset(h, a, b)

    monkeypatch.setattr(series, "commutator_subset", faulty)
    got = {name: _lem_cq(h) for name, h in groups.items()}
    for name, h in groups.items():
        assert got[name] == lem_cq_by_triples(h), name
    assert got["d4"] == ("VIOLATED", "kernel (0, 2), C (0, 1, 2, 3, 4, 5, 6, 7), D (0, 4)")
    assert got["c12"] == ("VIOLATED", "kernel (0, 6), C (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "
                                      "10, 11), D (0, 4, 8)")


PLANTED = ("d4", "q8", "d6", "c12", "a4")


def _planted(thin_imports, monkeypatch, name, fault, sid, normal_only=True):
    """Verdicts of `sid` on the PLANTED groups with `series.<name>` replaced
    by `fault(original, h, *args)` on their proper quotients (over normal
    kernels only, unless `normal_only` is false), and left alone elsewhere."""
    original = getattr(series, name)
    groups = {g: thin_imports[g] for g in PLANTED}
    quotients = {build_quotient(h, f).induced
                 for h in groups.values() for f in all_closed_subsets(h).masks
                 if f not in (1, h.full) and (not normal_only or is_normal(h, f))}

    def faulty(h, *args):
        if h in quotients:
            return fault(original, h, *args)
        return original(h, *args)

    monkeypatch.setattr(series, name, faulty)
    got = {g: verify_statement(h, sid) for g, h in groups.items()}
    return {g: v.witness if v.status == "VIOLATED" else v.status for g, v in got.items()}


def test_prop_nq_planted_witness(thin_imports, monkeypatch):
    """A planted fault: order-2 quotients are not nilpotent."""
    got = _planted(thin_imports, monkeypatch, "is_nilpotent",
                   lambda orig, h: (False, None) if h.order == 2 else orig(h), "prop-nq")
    assert got == {"d4": "quotient over (0, 1, 2, 3) is not nilpotent",
                   "q8": "quotient over (0, 1, 2, 3) is not nilpotent",
                   "d6": "hypothesis-not-met",
                   "c12": "quotient over (0, 2, 4, 6, 8, 10) is not nilpotent",
                   "a4": "hypothesis-not-met"}


def test_cor_n_planted_witness(thin_imports, monkeypatch):
    """A planted fault: the lower central series of an order-2 quotient
    stops at its first term."""
    got = _planted(thin_imports, monkeypatch, "lower_central_series",
                   lambda orig, h: (h.full,) if h.order == 2 else orig(h), "cor-n")
    assert got["d4"] == "kernel (0, 1, 2, 3), term 2"
    assert got["d6"] == "kernel (0, 1, 2, 3, 4, 5), term 2"
    assert got["a4"] == "holds"


def test_lem_qu_planted_witness(thin_imports, monkeypatch):
    """A planted fault: the thin residue of an order-2 quotient is all of it."""
    got = _planted(thin_imports, monkeypatch, "thin_residue",
                   lambda orig, h: h.full if h.order == 2 else orig(h), "lem-qu")
    assert got["d4"] == "kernel (0, 1, 2, 3)"
    assert got["c12"] == "kernel (0, 2, 4, 6, 8, 10)"
    assert got["a4"] == "holds"


def test_lem_sn_planted_witness(thin_imports, monkeypatch):
    """A planted fault: strong normalizers in non-thin quotients are trivial.
    Only quotients over kernels that are not normal are non-thin, so this
    pins that `lem-sn` visits them."""
    got = _planted(thin_imports, monkeypatch, "strong_normalizer",
                   lambda orig, h, f: orig(h, f) if h.is_thin() else 1, "lem-sn",
                   normal_only=False)
    assert got == {"d4": "kernel (0, 4), subset (0, 4)",
                   "q8": "holds",
                   "d6": "kernel (0, 6), subset (0, 6)",
                   "c12": "holds",
                   "a4": "kernel (0, 3), subset (0, 3)"}


def test_verify_statement_catalog(s3, nonthin2, thin_imports):
    assert len(statement_ids()) == 13
    with pytest.raises(UnknownStatement):
        verify_statement(s3, "thm-bogus")
    d4 = thin_imports["d4"]
    assert verify_statement(d4, "thm-center").status == "holds"
    assert verify_statement(nonthin2, "thm-ct").status == "holds"
    assert verify_statement(nonthin2, "thm-strongly").status == "hypothesis-not-met"
    trivial = validate(1, [[1]])
    assert verify_statement(trivial, "thm-ns").status == "holds"


def test_all_statements_hold_on_small_corpus(small_corpus):
    for h in small_corpus:
        for sid in statement_ids():
            assert verify_statement(h, sid).status != "VIOLATED"


def test_commutator_trivial_forces_commuting_all_subsets(enum2, enum3):
    """Exhaustive over arbitrary nonempty subsets at order <= 3."""
    for h in list(enum2.survivors) + list(enum3.survivors):
        for f in range(1, h.full + 1):
            if commutator_subset(h, h.full, f) != 1:
                continue
            for x in h.elements():
                for y in members(f):
                    assert h.commutes(x, y)


def test_nilpotent_members_are_solvable_and_strongly_subnormal(small_corpus):
    for h in small_corpus:
        if not is_nilpotent(h)[0]:
            continue
        assert is_solvable(h)[0]
        lat = all_closed_subsets(h)
        for m in lat.masks:
            if m != 1:
                assert lat.is_strongly_subnormal(m)


def test_hereditarity_on_nilpotent_members(small_corpus):
    for h in small_corpus:
        if not is_nilpotent(h)[0]:
            continue
        for m in all_closed_subsets(h).masks:
            sub, _ = sub_hypergroup(h, m)
            assert is_nilpotent(sub)[0]
            if is_normal(h, m):
                assert is_nilpotent(build_quotient(h, m).induced)[0]


def test_group_oracle_agreement(thin_imports, group_tables):
    for name, h in thin_imports.items():
        if h.order > 8:
            continue
        table = group_tables[name]
        assert is_nilpotent(h)[0] == oracle.is_nilpotent(table), name
        assert is_solvable(h)[0] == oracle.is_solvable(table), name
        got = [set(members(m)) for m in lower_central_series(h)]
        assert got == [set(s) for s in oracle.lower_central_series(table)], name
