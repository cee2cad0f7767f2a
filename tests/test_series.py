import json
from pathlib import Path

import pytest

import group_oracle as oracle
from hyperalg import series
from hyperalg.closed import (ClosedSubsetLattice, EmptySet, all_closed_subsets, is_closed, is_normal,
                             is_strongly_normal, strong_normalizer)
from hyperalg.core import mask_of, members, validate
from hyperalg.groups import alternating, cyclic, dihedral, direct_product, from_group, quaternion8
from hyperalg.quotient import build_quotient, project_subset
from hyperalg.report import analyze
from hyperalg.series import (
    HOLDS,
    InternalMismatch,
    NotRT,
    UnknownStatement,
    Verdict,
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
from products import product_hypergroup
from set_products import positions_by_pairs
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
    for a, b in ((0, s3.full), (s3.full, 0)):
        with pytest.raises(EmptySet):
            commutator_subset(s3, a, b)


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


def test_step_order_rejects_a_superset_that_is_not_a_union_of_blocks(s3, monkeypatch):
    """A planted fault: the lattice lists A3 plus one transposition above A3.  That set
    meets the block of the transpositions without holding it, so the lift of its image
    is not the set itself."""
    monkeypatch.setitem(vars(s3), "_memo", {})  # rebuild the rows under the fault
    monkeypatch.setattr(ClosedSubsetLattice, "supersets", lambda lat, f: (A3 | 1 << 1,))
    with pytest.raises(InternalMismatch) as err:
        series._supersets(s3, A3)
    assert str(err.value) == "(0, 1, 3, 4) is not a union of blocks over (0, 3, 4)"


def test_supersets_rejects_a_strong_step_whose_image_is_not_thin(s3, monkeypatch):
    """A planted fault: the strong normalizer of every subset is all of S3, so the step
    from the transposition subgroup (0, 1) to S3 counts as strongly normal, but its
    image in S3//(0, 1), a quotient of order 2 over a non-normal kernel, is not thin."""
    monkeypatch.setitem(vars(s3), "_memo", {})  # rebuild the rows under the fault
    monkeypatch.setattr(series, "strong_normalizer", lambda h, f: h.full)
    with pytest.raises(InternalMismatch) as err:
        series._supersets(s3, mask_of((0, 1)))
    assert str(err.value) == "step (0, 1) -> (0, 1, 2, 3, 4, 5) is not thin"


def test_valencies_reject_a_chain_dependent_valency(thin_imports, monkeypatch):
    """A planted fault: in C6 the step (0, 3) -> C6 reads one block instead of three.  The
    one-step chain {1} -> C6 records valency 6 first, and the chain through (0, 3) gives 2·1."""
    h = thin_imports["c6"]
    monkeypatch.setitem(vars(h), "_memo", {})  # recompute the valencies under the fault
    original = series._supersets

    def faulty(g, f):
        rows = original(g, f)
        if g is h and f == mask_of((0, 3)):
            return tuple((k, 1 if k == h.full else image, thin) for k, image, thin in rows)
        return rows

    monkeypatch.setattr(series, "_supersets", faulty)
    with pytest.raises(InternalMismatch) as err:
        series._valencies(h)
    assert str(err.value) == "valency of (0, 1, 2, 3, 4, 5) is chain dependent: 6 vs 2"


def test_lem_sn_projection_not_closed_raises(thin_imports, monkeypatch):
    """A planted fault: over d4's kernel (0, 2), every image is the lone block 1, which
    is not closed in the quotient, so its strong normalizer cannot be compared."""
    h = thin_imports["d4"]
    original = series._supersets

    def faulty(g, f):
        rows = original(g, f)
        return tuple((k, 2, thin) for k, _, thin in rows) if f == mask_of((0, 2)) else rows

    monkeypatch.setattr(series, "_supersets", faulty)
    with pytest.raises(InternalMismatch) as err:
        verify_statement(h, "lem-sn")
    assert str(err.value) == "projection of (0, 2) over (0, 2) is not closed"


def test_step_image_reads_block_representatives(quotient_kernels):
    """K & reps projects as K does for every closed K ⊇ F, and that image is the
    one `_supersets` keeps, F first and the rest in lattice order; for F = H that is
    the one row (H, 1, True)."""
    rows = 0
    for h, f in quotient_kernels:
        if f == h.full:
            assert series._supersets(h, f) == ((f, 1, True),)
        q, supersets = build_quotient(h, f), (f, *all_closed_subsets(h).supersets(f))
        assert [k for k, _, _ in series._supersets(h, f)] == list(supersets), (h.order, f)
        for k, image, thin in series._supersets(h, f):
            assert project_subset(q, k & q.reps) == project_subset(q, k) == image, (h.order, f, k)
            assert thin == (k & ~strong_normalizer(h, f) == 0), (h.order, f, k)
            rows += 1
    assert rows


def solvable_by_search(h):
    """A chain with thin quotients of prime order, by depth-first search in
    lattice order with memoised dead ends (oracle for `is_solvable`)."""
    dead = set()

    def extend(f):
        if f == h.full:
            return (f,), ()
        if f in dead:
            return None
        for k, image, thin in series._supersets(h, f)[1:]:
            n = image.bit_count()
            if not thin or series._prime_factors(n) != (n,):
                continue
            tail = extend(k)
            if tail is not None:
                return (f, *tail[0]), (n, *tail[1])
        dead.add(f)
        return None

    found = extend(1)
    return (False, None, None) if found is None else (True, *found)


def test_solvable_chain_steps_are_prime_thin(small_corpus, corpus, a5, order64,
                                            double_coset_quotients):
    for h in [*corpus, a5, *order64, *double_coset_quotients]:
        assert is_solvable(h) == solvable_by_search(h), h.table
    for h in [*small_corpus, *double_coset_quotients]:
        ok, chain, orders = is_solvable(h)
        if not ok:
            continue
        assert chain[0] == 1 and chain[-1] == h.full
        for (small, big), order in zip(zip(chain, chain[1:]), orders):
            sub, elems = sub_hypergroup(h, big)
            q = build_quotient(sub, to_sub_mask(small, elems))
            assert q.induced.is_thin() and q.induced.order == order
            assert order in (2, 3, 5, 7)


def test_order64_groups_match_group_theory(order64):
    """Six groups of order 64, checked against group theory, not this code.
    A 2-group is nilpotent and solvable, with six composition steps of order
    2; a group is thin with valency |G|, and a p-group is its one Sylow
    p-subset.  An abelian group has class 1 and is its own center.  D32, of
    order 2^6, has class 5, lower central terms <r^2>, <r^4>, ... of orders
    16, 8, 4, 2, 1 and center {1, r^16}.  Q8 and D4 have class 2, [G, G] and
    center of order 2, so their squares have class 2, [G, G] and center of
    order 4.  All thirteen statements hold."""
    q8, d4, c4 = quaternion8(), dihedral(4), cyclic(4)
    cases = {  # name: (group, nilpotency class, lower central orders, center order)
        "c64": (from_group(cyclic(64)), 1, (64, 1), 64),
        "c8xc8": (from_group(direct_product(cyclic(8), cyclic(8))), 1, (64, 1), 64),
        "d32": (order64[1], 5, (64, 16, 8, 4, 2, 1), 2),
        "c4^3": (from_group(direct_product(direct_product(c4, c4), c4)), 1, (64, 1), 64),
        "q8xq8": (from_group(direct_product(q8, q8)), 2, (64, 4, 1), 4),
        "d4xd4": (from_group(direct_product(d4, d4)), 2, (64, 4, 1), 4),
    }
    got, want = {}, {}
    for name, (h, nil_class, lower, center) in cases.items():
        r = analyze(h, name=name)
        got[name] = (r.nilpotency_class is not None, r.nilpotency_class,
                     tuple(len(t) for t in r.lower_central), len(r.center),
                     r.solvable_chain is not None, r.solvable_orders,
                     len(r.thin_part) == r.order, r.valency,
                     r.sylow, sorted(sid for sid, (status, _) in r.statements.items()
                                     if status == HOLDS))
        want[name] = (True, nil_class, lower, center, True, (2,) * 6, True, 64,
                      {2: (tuple(range(64)),)}, sorted(statement_ids()))
    assert got == want


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


def test_sylow_subsets_are_the_sylow_subgroups(group_tables):
    """On the bundled groups of order at most 12, D4×C2, S3×S3 and A5,
    `rt_analysis(G).sylow[p]` is exactly the subgroups of order p^a, p^a the full
    power of p in |G|, by the group oracle.  Each count is 1 mod p, and G is
    nilpotent iff every list has one member."""
    g = dict(group_tables, d4xc2=direct_product(group_tables["d4"], group_tables["c2"]),
             s3xs3=direct_product(group_tables["s3"], group_tables["s3"]), a5=alternating(5))
    assert len(g) >= 15
    for name, table in g.items():
        h, subgroups = from_group(table), oracle.all_subgroups(table)
        sylow = rt_analysis(h).sylow
        assert set(sylow) == set(series._prime_factors(h.order)), name
        for p, found in sylow.items():
            power = p ** next(a for a in range(h.order) if h.order % p ** (a + 1))
            assert {frozenset(members(c)) for c in found} == \
                {s for s in subgroups if len(s) == power}, (name, p)
            assert len(found) % p == 1, (name, p)
        assert is_nilpotent(h)[0] == all(len(found) == 1 for found in sylow.values()), name


def test_only_thin_hypergroups_are_nilpotent(corpus, double_coset_quotients, enum3, thin_imports):
    """Every lower-central term from the second on holds the thin residue, so
    `is_nilpotent(h)` implies that h is thin.

    Proof: the identity lies in every closed subset, and the commutator [1, a] is
    1*·a*·1·a = a*·a (and [a, 1] = a*·a).  So the term [X, H] after a closed X holds
    a*·a for every a in H; it is closed, so it holds their closure, the thin residue
    (`thin_residue`'s second route).  A series that ends at {1} then has thin
    residue {1}: a*·a = {1} for every a, and every element is thin."""
    products = [product_hypergroup(h, thin_imports[g]) for h in enum3.canonical[:4] for g in ("c2", "s3")]
    cases = [*corpus, *double_coset_quotients, *products]
    assert any(not h.is_thin() for h in products)
    for h in cases:
        residue = thin_residue(h)
        assert all(term & residue == residue for term in lower_central_series(h)[1:]), h.table
        assert h.is_thin() or not is_nilpotent(h)[0], h.table


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
                walk(k, v * build_quotient(big, small).induced.order)

    walk(1, 1)
    return products


def test_valencies_match_chain_walk(enum2, enum3, enum4, thin_imports, double_coset_quotients):
    """Every closed subset of every order-2..4 survivor, bundled group <= 12 and
    non-thin double-coset quotient of order 5 to 12."""
    corpus = [*enum2.survivors, *enum3.survivors, *enum4.survivors,
              *thin_imports.values(), *double_coset_quotients]
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


def test_skipped_kernels_give_h_itself_and_one_point(corpus, a5):
    """Why the quotient statements leave out the kernels {1} and H: over {1}
    the quotient is h itself and projects every member onto itself, and over H
    it has one element.  The kernels visited are the other normal members."""
    for h in (*corpus, a5):
        lat = all_closed_subsets(h)
        q = build_quotient(h, 1)
        assert q.induced is h, h.table
        assert all(project_subset(q, m) == m for m in lat.masks), h.table
        assert build_quotient(h, h.full).induced.order == 1, h.table
        want = [f for f in lat.masks if f not in (1, h.full) and is_normal(h, f)]
        assert [f for f, _ in series._normal_quotients(h)] == want, h.table


def test_lem_cq_builds_no_table_without_a_proper_kernel(a5, monkeypatch):
    """a5 has no normal closed subset but {1} and H, so `lem-cq` holds on it
    without building a commutator position table."""
    monkeypatch.setattr(series, "_commutator_positions", lambda g: pytest.fail("table built"))
    assert series._normal_quotients(a5) == ()
    assert verify_statement(a5, "lem-cq") == Verdict("lem-cq", "holds")


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

    def factored(g):
        """The faulty table in `_commutator_positions`' form: members classed by their
        row and column of the faulty matrix, one entry per pair of classes."""
        full = positions_by_pairs(g, faulty)
        keys = list(zip(full, zip(*full)))
        classes = list(dict.fromkeys(keys))
        first = [keys.index(c) for c in classes]
        return tuple(map(classes.index, keys)), tuple(tuple(full[i][j] for j in first)
                                                      for i in first)

    monkeypatch.setattr(series, "commutator_subset", faulty)
    monkeypatch.setattr(series, "_commutator_positions", factored)
    got = {name: _lem_cq(h) for name, h in groups.items()}
    for name, h in groups.items():
        assert got[name] == lem_cq_by_triples(h), name
    assert got["d4"] == ("VIOLATED", "kernel (0, 2), C (0, 1, 2, 3, 4, 5, 6, 7), D (0, 4)")
    assert got["c12"] == ("VIOLATED", "kernel (0, 6), C (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "
                                      "10, 11), D (0, 4, 8)")


def test_lem_cq_projection_not_closed_raises(thin_imports, monkeypatch):
    """A planted fault: over d4's kernel (0, 2), every projection is the
    lone block 1, which is not closed, so no position can be read.  The
    kernel is found by value, not by its place among the kernels."""
    h = thin_imports["d4"]
    target = dict(series._normal_quotients(h))[mask_of((0, 2))]
    original = series.project_subset
    monkeypatch.setattr(series, "project_subset",
                        lambda q, s: 2 if q is target else original(q, s))
    with pytest.raises(InternalMismatch) as err:
        verify_statement(h, "lem-cq")
    assert str(err.value) == "projection of (0,) over (0, 2) is not closed"


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


def lem_sn_over_every_kernel(h):
    """`lem-sn` oracle: every closed kernel K, {1} and H included, then every
    closed F containing K in lattice order, strong normalizers read through
    `series` so that a planted fault reaches them; (status, witness)."""
    lat, normalizer = all_closed_subsets(h), series.strong_normalizer
    for k in lat.masks:
        q = build_quotient(h, k)
        for f in (k, *lat.supersets(k)):
            pf = project_subset(q, f)
            if not is_closed(q.induced, pf):
                raise InternalMismatch(f"projection of {members(f)} over "
                                       f"{members(k)} is not closed")
            if normalizer(q.induced, pf) != project_subset(q, normalizer(h, f)):
                return "VIOLATED", f"kernel {members(k)}, subset {members(f)}"
    return "holds", None


def test_lem_sn_matches_every_kernel_loop(corpus, a5):
    for h in (*corpus, a5):
        got = verify_statement(h, "lem-sn")
        assert (got.status, got.witness) == lem_sn_over_every_kernel(h) == ("holds", None), h.table


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
    for name in PLANTED:  # skipping the kernels {1} and H changes no witness
        status, witness = lem_sn_over_every_kernel(thin_imports[name])
        assert got[name] == (witness if status == "VIOLATED" else status), name


def test_lem_main1_fault_raises_while_building_the_series(thin_imports, monkeypatch):
    """A planted fault: the whole set is not normal.  `closed_center_series`
    tests every term first, so `lem-main1` raises instead of returning a
    witness."""
    v4 = thin_imports["v4"]
    monkeypatch.setitem(vars(v4), "_memo", {})  # rebuild the series under the fault
    monkeypatch.setattr(series, "is_normal", lambda h, f: f != h.full and is_normal(h, f))
    with pytest.raises(InternalMismatch, match=r"term \(0, 1, 2, 3\) is not a normal") as err:
        verify_statement(v4, "lem-main1")
    assert err.traceback[-1].name == "closed_center_series"


def lem_cen_by_pairs(h):
    """`lem-cen` oracle: every closed F with [H, F] = 1, then every pair
    (x, y) in H x F in order; (status, witness)."""
    for f in all_closed_subsets(h).masks:
        if series.commutator_subset(h, h.full, f) != 1:
            continue
        for x in h.elements():
            for y in members(f):
                if not h.commutes(x, y):
                    return "VIOLATED", f"subset {members(f)}, pair ({x},{y})"
    return "holds", None


def test_lem_cen_planted_witness(corpus, thin_imports, monkeypatch):
    """Unpatched, every corpus entry holds by both routes.  A planted fault
    then makes [H, F] trivial for every F on d4, q8 and s3, and the
    centralizer route must name the pair the pair loop names."""
    for h in corpus:
        got = verify_statement(h, "lem-cen")
        assert (got.status, got.witness) == lem_cen_by_pairs(h) == ("holds", None), h.table
    commutator_subset = series.commutator_subset
    groups = {name: thin_imports[name] for name in ("d4", "q8", "s3")}
    faulted = set(groups.values())
    monkeypatch.setattr(series, "commutator_subset", lambda h, a, b: 1 if (
        h in faulted and a == h.full) else commutator_subset(h, a, b))
    got = {}
    for name, h in groups.items():
        v = verify_statement(h, "lem-cen")
        assert (v.status, v.witness) == lem_cen_by_pairs(h), name
        got[name] = v.witness
    assert got == {"d4": "subset (0, 4), pair (1,4)",
                   "q8": "subset (0, 1, 2, 3), pair (4,2)",
                   "s3": "subset (0, 1), pair (2,1)"}


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


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_statement_table_matches_benchmark_expectations():
    """The benchmark lists the ids in order and skips `needs_nilpotent` on
    groups that are not nilpotent.  On a group a full hypercenter is
    nilpotency, so those are exactly the ids with a hypothesis."""
    expected = json.loads(EXPECTED.read_text())
    assert statement_ids() == tuple(expected["statements"])
    assert [sid for sid, (hypothesis, _) in series.STATEMENTS.items()
            if hypothesis is not None] == expected["needs_nilpotent"]


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
        for m in all_closed_subsets(h).masks:
            if m != 1:
                assert m in series._strongly_subnormal(h)


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
