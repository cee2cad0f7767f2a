"""The lane-folding routes against their pair-by-pair oracles.

Set products, the packed commutator columns, lattice closure by position
bitsets and projection onto blocks are each compared with the loop they
replaced, on every corpus entry, a5, C2^6 and D32 (order 64: lane 63 is
used, and D32 does not commute) and the order-1 hypergroup.  The table of
commutator positions is compared with `commutator_subset` pair by pair.
"""

import random

import pytest

from hyperalg import series
from hyperalg.closed import EmptySet, all_closed_subsets
from hyperalg.core import union_over, validate
from hyperalg.groups import cyclic, direct_product, from_group
from hyperalg.quotient import build_quotient, project_subset
from hyperalg.series import commutator_elements, commutator_subset
from set_products import (
    closure_by_scan,
    commutator_generator_by_pairs,
    commutator_table_by_pairs,
    positions_by_pairs,
    project_by_members,
    set_product_by_pairs,
)

TRIVIAL = validate(1, [[1]])


@pytest.fixture(scope="module")
def hypergroups(corpus, a5, order64):
    return [TRIVIAL, *corpus, a5, *order64]


def _masks(h, rng, count=4):
    """Empty, identity, full, the top element alone, and random masks."""
    return (0, 1, h.full, 1 << (h.order - 1),
            *(rng.randrange(1, h.full + 1) for _ in range(count)))


def test_set_product_matches_pair_loop(hypergroups):
    rng = random.Random(1401)
    for h in hypergroups:
        masks = _masks(h, rng)
        for p in masks:
            assert h.set_product(0, p) == h.set_product(p, 0) == 0
            for q in masks:
                assert h.set_product(p, q) == set_product_by_pairs(h, p, q), (h.table, p, q)


def test_commutator_columns_match_pair_loop(hypergroups):
    rng = random.Random(1402)
    for h in hypergroups:
        table = commutator_table_by_pairs(h)
        assert tuple(tuple(commutator_elements(h, a, b) for b in h.elements())
                     for a in h.elements()) == table, h.table
        lat = all_closed_subsets(h)
        masks = [m for m in _masks(h, rng) if m]
        for a in masks:
            for b in masks:
                want = closure_by_scan(lat, commutator_generator_by_pairs(table, a, b))
                assert commutator_subset(h, a, b) == want, (h.table, a, b)


def test_lattice_closure_matches_member_scan(hypergroups):
    rng = random.Random(1403)
    for h in hypergroups:
        lat = all_closed_subsets(h)
        # Every non-identity element together closes to the whole set, the last member.
        assert lat.closure(h.full & ~1 or 1) == lat.masks[-1] == h.full
        for seed in (*lat.masks, *(m for m in _masks(h, rng, 16) if m)):
            assert lat.closure(seed) == closure_by_scan(lat, seed), (h.table, seed)
    with pytest.raises(EmptySet):
        lat.closure(0)


def test_projection_matches_member_loop(hypergroups):
    rng = random.Random(1404)
    for h in hypergroups:
        masks = all_closed_subsets(h).masks
        for f in {1, h.full, *rng.sample(masks, min(3, len(masks)))}:
            q = build_quotient(h, f)
            for s in _masks(h, rng):
                assert project_subset(q, s) == project_by_members(q, s), (h.table, f, s)


def test_commutator_positions_match_pair_route(corpus, a5, thin_imports):
    """Every entry, so [C, D] = [D, C], which the table shared by commutator
    vector relies on, is checked, not assumed."""
    c2_4_c3 = cyclic(3)
    for _ in range(4):
        c2_4_c3 = direct_product(c2_4_c3, cyclic(2))
    quotients = [build_quotient(h, f).induced for h in (thin_imports["d4"], thin_imports["c12"])
                 for f in all_closed_subsets(h).masks]
    big = from_group(c2_4_c3)
    assert len(all_closed_subsets(big)) == 134
    for h in (TRIVIAL, *corpus, a5, big, *quotients):
        want = positions_by_pairs(h, commutator_subset)
        row, table = series._commutator_positions(h)
        assert tuple(tuple(table[r][t] for t in row) for r in row) == want, h.table


def test_commutator_positions_sample_order64(order64):
    """A seeded sample of 200 entries of each order-64 table against
    `commutator_subset`; one row and column per distinct commutator vector."""
    rng = random.Random(1901)
    vector_counts = []
    for h in order64:
        lat, (row, table) = all_closed_subsets(h), series._commutator_positions(h)
        for _ in range(200):
            i, j = rng.randrange(len(lat)), rng.randrange(len(lat))
            want = lat.index[commutator_subset(h, lat.masks[i], lat.masks[j])]
            assert table[row[i]][row[j]] == want, (h.order, i, j)
        vectors = {union_over(series._commutator_columns(h), c) for c in lat.masks}
        assert len(table) == len(vectors) and {len(r) for r in table} == {len(vectors)}
        vector_counts.append(len(vectors))
    assert vector_counts[0] == 1  # C2^6 is abelian: every commutator is trivial


def test_order_one():
    lat = all_closed_subsets(TRIVIAL)
    assert TRIVIAL.set_product(1, 1) == 1 and TRIVIAL.set_product(0, 1) == 0
    assert lat.masks == (1,) and lat.closure(1) == 1
    assert commutator_subset(TRIVIAL, 1, 1) == 1
    assert project_subset(build_quotient(TRIVIAL, 1), 1) == 1
