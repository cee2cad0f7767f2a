"""Metamorphic checks: facts that must survive relabeling, hold of direct products,
and follow from the isomorphism theorems.  None needs a second implementation."""

import random
from math import prod

import pytest

from hyperalg.closed import all_closed_subsets, is_closed
from hyperalg.core import InternalMismatch, members, validate
from hyperalg.groups import builtin_groups, from_group
from hyperalg.quotient import build_quotient, project_subset
from hyperalg.report import analyze
from hyperalg.series import NotRT, _supersets, is_solvable, thin_residue, valency
from products import pair, product_hypergroup


@pytest.fixture(scope="module")
def canonical(enum2, enum3, enum4):
    """One survivor of orders 2 to 4 per relabeling class."""
    return [*enum2.survivors, *enum3.canonical, *enum4.canonical]


@pytest.fixture(scope="module")
def small_groups():
    """The bundled groups of order at most 24."""
    return [from_group(table) for _, table in builtin_groups(24)]


def relabeled(h, perm):
    """The table of h with element x renamed perm[x], written out cell by cell."""
    n = h.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = sum(1 << perm[z] for z in members(h.table[i][j]))
    return validate(n, table)


def label_free(h, perm):
    """What `analyze` and the lattice say of h, every element set renamed by perm;
    witnesses, which may depend on label order, are left out, and the solvability
    chain is kept as its existence and its order product, which is the valency."""
    def to(xs):
        return frozenset(perm[x] for x in xs)

    r = analyze(h)
    return (r.order, r.closed_count, r.nilpotency_class, r.valency, to(r.thin_part), to(r.center),
            to(r.thin_residue), tuple(map(to, r.lower_central)), tuple(map(to, r.closed_center_series)),
            r.solvable_chain is None, r.solvable_orders and prod(r.solvable_orders),
            {p: frozenset(map(to, cs)) for p, cs in r.sylow.items()},
            {sid: status for sid, (status, _) in r.statements.items()},
            frozenset(to(members(m)) for m in all_closed_subsets(h).masks))


def label_free_or_refused(h, perm):
    """`label_free`, or the exception class where `analyze` refuses a valid input
    (some double-coset quotients, whose center is not closed)."""
    try:
        return label_free(h, perm)
    except InternalMismatch as err:
        return type(err)


def test_analysis_does_not_depend_on_labels(canonical, small_groups, double_coset_quotients):
    """Each input against a copy relabeled by a seeded identity-fixing permutation:
    set-valued facts map by the permutation, and everything else is equal.  Only the
    double-coset quotients may be refused, on both sides alike."""
    rng = random.Random(32)
    cases = [*((h, label_free) for h in (*canonical, *small_groups)),
             *((h, label_free_or_refused) for h in double_coset_quotients)]
    assert len(cases) >= 150
    for h, facts in cases:
        rest = list(range(1, h.order))
        rng.shuffle(rest)
        perm = (0, *rest)
        assert facts(h, perm) == facts(relabeled(h, perm), range(h.order)), (h.table, perm)


def test_quotient_of_quotient_is_the_quotient(canonical, small_groups, double_coset_quotients):
    """For closed F ⊆ K, (H//F)//(K//F) is H//K: each block, lifted twice, is a block
    of H//K, and the tables agree cell by cell under that map.  K//F is projected
    member by member, and `_supersets` keeps the same image."""
    pairs = 0
    for h in [*canonical, *small_groups, *double_coset_quotients]:
        lat = all_closed_subsets(h)
        for f in lat.masks:
            q = build_quotient(h, f)
            rows = {k: image for k, image, _ in _supersets(h, f)}
            for k in (f, *lat.supersets(f)):
                kf = project_subset(q, k)
                assert f == h.full or rows[k] == kf, (h.table, f, k)
                qq, direct = build_quotient(q.induced, kf), build_quotient(h, k)
                lifted = [sum(q.blocks[i] for i in members(b)) for b in qq.blocks]
                to = [direct.blocks.index(b) for b in lifted]
                assert sorted(to) == list(range(len(direct.blocks))), (h.table, f, k)
                for i, row in enumerate(qq.induced.table):
                    for j, cell in enumerate(row):
                        assert sum(1 << to[z] for z in members(cell)) == \
                            direct.induced.table[to[i]][to[j]], (h.table, f, k)
                pairs += 1
    assert pairs >= 500, pairs


def rt_valency(h):
    try:
        return valency(h)
    except NotRT:
        return None


def test_products_factor(canonical, small_groups):
    """H × G for a seeded sample of small H and bundled G of order at most 7: the
    thin part and the thin residue are the products of the factors' ones, H × G is
    RT iff H is, with valency(H)·|G|, it is solvable iff both factors are, and every
    product of closed subsets is closed."""
    rng = random.Random(7)
    sample = rng.sample([(h, g) for h in canonical for g in small_groups if g.order <= 7], 100)
    for h, g in sample:
        hg, m = product_hypergroup(h, g), g.order
        assert hg.thin_part == pair(h.thin_part, g.thin_part, m), (h.table, g.order)
        assert thin_residue(hg) == pair(thin_residue(h), thin_residue(g), m), (h.table, g.order)
        v = rt_valency(h)
        assert rt_valency(hg) == (None if v is None else v * m), (h.table, g.order)
        assert is_solvable(hg)[0] == (is_solvable(h)[0] and is_solvable(g)[0]), (h.table, g.order)
        index = all_closed_subsets(hg).index
        for a in all_closed_subsets(h).masks:
            for b in all_closed_subsets(g).masks:
                ab = pair(a, b, m)
                assert ab in index and is_closed(hg, ab), (h.table, g.order, a, b)
