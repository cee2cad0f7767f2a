import pytest

import group_oracle as oracle
from hyperalg.closed import all_closed_subsets, is_closed, is_normal, is_strongly_normal
from hyperalg.core import Hypergroup, InternalMismatch, bits, mask_of, members, union_over, validate
from hyperalg.groups import cyclic, direct_product, from_group
from hyperalg.quotient import (
    NotClosed,
    build_quotient,
    lift_blocks,
    project_subset,
)
from hyperalg.report import analyze
from hyperalg.series import HOLDS, VIOLATED
from set_products import double_coset, set_product_many

A3 = mask_of([0, 3, 4])


def test_double_coset_examples(s3):
    assert double_coset(s3, 3, A3) == A3          # member of F stays in F
    assert double_coset(s3, 4, 1) == 1 << 4       # trivial kernel
    assert double_coset(s3, 1, A3) == mask_of([1, 2, 5])  # the transpositions


def test_double_coset_quotients_match_group_theory(double_coset_bases):
    """For every closed F of the double-coset bases, against group theory rather than
    this code: the lifts of the closed subsets of G//F are the subgroups that hold F,
    G//F is thin iff F is normal, and |G//F| is the number of distinct F·g·F, read from
    the Cayley table.  `analyze` finds no statement VIOLATED on any distinct G//F, and
    refuses only four from S3×S3, whose center is not closed."""
    pairs, tables, non_thin = 0, {}, set()
    for table in double_coset_bases:
        g, subgroups = from_group(table), oracle.all_subgroups(table)
        for f in all_closed_subsets(g).masks:
            q, kernel = build_quotient(g, f), frozenset(members(f))
            lifts = {frozenset(members(lift_blocks(q, c)))
                     for c in all_closed_subsets(q.induced).masks}
            assert lifts == {s for s in subgroups if kernel <= s}, (len(table), members(f))
            assert q.induced.is_thin() == oracle.is_normal_subgroup(table, kernel), members(f)
            cosets = {frozenset(table[table[a][x]][b] for a in kernel for b in kernel)
                      for x in range(len(table))}
            assert q.induced.order == len(cosets), (len(table), members(f))
            pairs += 1
            tables.setdefault(q.induced.table, (q.induced, set()))[1].add(len(table))
            if not q.induced.is_thin() and q.induced.order >= 5:
                non_thin.add(q.induced.table)
    assert (pairs, len(tables), len(non_thin)) == (216, 77, 40)
    statuses, refused = set(), []
    for q, base_orders in tables.values():
        try:
            statuses |= {status for status, _ in analyze(q).statements.values()}
        except InternalMismatch:
            refused.append((q.order, sorted(base_orders)))
    assert VIOLATED not in statuses and HOLDS in statuses
    assert sorted(refused) == [(8, [36]), (10, [36]), (10, [36]), (10, [36])]  # S3×S3


def test_quotient_matches_set_product_route(quotient_kernels):
    """Blocks are the double cosets F·x·F, and block i times block j is the
    set of blocks meeting rep_i·F·rep_j, both by chained set products."""
    for h, f in quotient_kernels:
        q = build_quotient(h, f)
        assert q.blocks == tuple(dict.fromkeys(double_coset(h, x, f) for x in h.elements()))
        reps = [b & -b for b in q.blocks]
        assert q.reps == sum(reps)
        assert q.induced.table == tuple(
            tuple(project_subset(q, set_product_many(h, a, f, b)) for b in reps)
            for a in reps), (h.table, f)


def quotient_by_coset_products(h, f):
    """Blocks, block_of and the induced table with every FxF as the OR of
    y·F over y in F·x and every row a as (a·F)·x (oracle for the row rule of
    `build_quotient`, which reads x·F and the base row a·x where F·x = x·F)."""
    fx, xf = h.left_products(f), h.right_products(f)
    blocks, block_of = [], [-1] * h.order
    for x in h.elements():
        if block_of[x] < 0:
            blocks.append(union_over(xf, fx[x]))
            for y in bits(blocks[-1]):
                block_of[y] = len(blocks) - 1
    block_bit = [1 << i for i in block_of]
    reps = [(b & -b).bit_length() - 1 for b in blocks]
    rows = [h.left_products(xf[a]) for a in reps]
    table = tuple(tuple(union_over(block_bit, row[b]) for b in reps) for row in rows)
    return tuple(blocks), tuple(block_of), table


def test_row_rule_matches_coset_product_routes(quotient_kernels):
    """The partition and the induced table equal the coset-product routes on
    every kernel, and both sides of the row rule (a·F = F·a or not) are taken."""
    sides = set()
    for h, f in quotient_kernels:
        q = build_quotient(h, f)
        block_of = tuple(b.bit_length() - 1 for b in q.block_bit)
        assert (q.blocks, block_of, q.induced.table) == quotient_by_coset_products(h, f), \
            (h.order, f)
        fx, xf = h.left_products(f), h.right_products(f)
        sides |= {fx[a] == xf[a] for a in bits(q.reps)}
    assert sides == {True, False}


def test_quotient_by_full_is_trivial(s3):
    q = build_quotient(s3, s3.full)
    assert len(q.blocks) == 1 and q.induced.order == 1


def test_quotient_by_trivial_is_same_table(s3):
    q = build_quotient(s3, 1)
    assert q.induced.table == s3.table
    assert q.induced is s3  # read off: the quotient shares every cached result



def test_trivial_kernels_are_read_off(a5, monkeypatch):
    """H//{1} and H//H take no vector product, and the kernel checks still run."""
    c2_5 = [[0]]
    for _ in range(5):
        c2_5 = direct_product(c2_5, cyclic(2))
    cases = [a5, from_group(c2_5)]
    point = validate(1, ((1,),))

    def fail(self, p):
        raise AssertionError("left_products called")

    monkeypatch.setattr(Hypergroup, "left_products", fail)
    for h in cases:
        monkeypatch.setitem(vars(h), "_memo", {})  # build both quotients afresh
        assert build_quotient(h, 1).induced is h
        q = build_quotient(h, h.full)
        assert q.induced is point and q.blocks == (h.full,)
        for f in (0, h.full & ~2):  # empty; H minus one element is no subgroup
            with pytest.raises(NotClosed):
                build_quotient(h, f)


def test_s3_mod_a3_is_c2(s3):
    q = build_quotient(s3, A3)
    assert len(q.blocks) == 2
    assert q.blocks == (A3, mask_of([1, 2, 5]))
    assert q.induced.table == ((1, 2), (2, 1))
    assert q.induced.is_thin()
    assert q.induced.is_thin() == is_strongly_normal(s3, A3)


def test_not_closed_kernel_rejected(s3):
    with pytest.raises(NotClosed):
        build_quotient(s3, mask_of([0, 3]))  # half of A3


def test_thinness_matches_strong_normality(small_corpus):
    for h in small_corpus:
        for f in all_closed_subsets(h).masks:
            q = build_quotient(h, f)
            assert q.induced.is_thin() == is_strongly_normal(h, f)


def test_project_and_lift(s3):
    q = build_quotient(s3, A3)
    assert project_subset(q, A3) == 1
    assert lift_blocks(q, 1) == A3
    assert project_subset(q, A3 | (1 << 1)) == 3
    for s in range(s3.full + 1):
        lifted = lift_blocks(q, project_subset(q, s))
        assert s & ~lifted == 0  # lift of the projection covers s
        if s in (0, A3, mask_of([1, 2, 5]), s3.full):
            assert lifted == s  # equality when s is a union of blocks


def test_induced_star_is_projected_star(small_corpus):
    for h in small_corpus:
        for f in all_closed_subsets(h).masks:
            q = build_quotient(h, f)
            for x in h.elements():
                assert q.induced.set_star(q.block_bit[x]) == q.block_bit[h.star[x]]


def test_block_product_independent_of_representatives(enum2, enum3):
    for h in list(enum2.survivors) + list(enum3.survivors):
        for f in all_closed_subsets(h).masks:
            q = build_quotient(h, f)
            for ba, blocka in enumerate(q.blocks):
                for bb, blockb in enumerate(q.blocks):
                    want = q.induced.table[ba][bb]
                    for a in bits(blocka):
                        for b in bits(blockb):
                            prod = set_product_many(h, 1 << a, f, 1 << b)
                            assert project_subset(q, prod) == want


def test_normality_transports_through_quotients(small_corpus):
    """F//N normal in H//N exactly when F is normal in H (N normal, N <= F)."""
    for h in small_corpus:
        masks = all_closed_subsets(h).masks
        normals = [m for m in masks if is_normal(h, m)]
        for n in normals:
            q = build_quotient(h, n)
            for f in masks:
                if n & ~f:
                    continue
                pf = project_subset(q, f)
                assert is_closed(q.induced, pf)
                assert is_normal(q.induced, pf) == is_normal(h, f)


def test_quotient_tower_block_counts(small_corpus):
    """(H//F)//(K//F) has as many blocks as H//K for normal F <= K."""
    for h in small_corpus:
        masks = all_closed_subsets(h).masks
        for f in masks:
            if not is_normal(h, f):
                continue
            qf = build_quotient(h, f)
            for k in masks:
                if f & ~k:
                    continue
                pk = project_subset(qf, k)
                assert is_closed(qf.induced, pk)
                tower = build_quotient(qf.induced, pk)
                assert len(tower.blocks) == len(build_quotient(h, k).blocks)


def test_projection_of_closed_is_closed(small_corpus):
    for h in small_corpus:
        masks = all_closed_subsets(h).masks
        for f in masks:
            q = build_quotient(h, f)
            for s in masks:
                if f & ~s == 0:  # F <= S
                    assert is_closed(q.induced, project_subset(q, s))


def test_projection_absorbs_the_kernel(enum2, enum3, enum4):
    """project(X·F) == project(X) for closed F and X: 1 in F, X·F within the FxF."""
    for h in enum2.survivors + enum3.survivors + enum4.survivors:
        masks = all_closed_subsets(h).masks
        for f in masks:
            q = build_quotient(h, f)
            for x in masks:
                assert project_subset(q, h.set_product(x, f)) == project_subset(q, x)
