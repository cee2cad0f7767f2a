"""Set products written out pair by pair: the oracles for the packed routes,
and chained products for tests that write out star(x)·A·x and the like."""

from hyperalg.closed import all_closed_subsets
from hyperalg.core import bits, members


def set_product_by_pairs(h, p: int, q: int) -> int:
    """Union of the cells a·b over every member pair, one table read each
    (oracle for `Hypergroup.set_product`)."""
    acc = 0
    for a in bits(p):
        row = h.table[a]
        for b in bits(q):
            acc |= row[b]
    return acc


def set_product_many(h, *sets: int) -> int:
    """Left-to-right chained set product of masks in h (associative by H1)."""
    acc = sets[0]
    for s in sets[1:]:
        acc = set_product_by_pairs(h, acc, s)
    return acc


def closure_by_elements(h, seed: int) -> int:
    """Smallest closed subset containing the seed, one element at a time: each
    element found is multiplied on the right by every member of
    G = {identity} | seed | star(seed), one table row OR each, which reaches
    every power of G (oracle for `generated_closure`; no set product)."""
    cur = todo = 1 | seed | h.set_star(seed)
    g_members = members(cur & ~1)  # e·1 = {e} adds nothing
    table, full = h.table, h.full
    while todo and cur != full:
        low = todo & -todo
        todo ^= low
        row = table[low.bit_length() - 1]
        new = 0
        for g in g_members:
            new |= row[g]
        new &= ~cur
        cur |= new
        todo |= new
    return cur


def double_coset(h, x: int, f: int) -> int:
    """F·x·F by two set products (oracle for the blocks of `build_quotient`)."""
    return set_product_many(h, f, 1 << x, f)


def left_products_by_element(h, p: int) -> list[int]:
    """p·x for every element x, one set product each (oracle for `left_products`)."""
    return [set_product_by_pairs(h, p, 1 << x) for x in h.elements()]


def right_products_by_element(h, p: int) -> list[int]:
    """x·p for every element x, one set product each (oracle for `right_products`)."""
    return [set_product_by_pairs(h, 1 << x, p) for x in h.elements()]


def commutator_table_by_pairs(h) -> tuple[tuple[int, ...], ...]:
    """star(a)·star(b)·a·b for every pair, row a, column b, by pair products
    (oracle for the packed commutator columns of `series`)."""
    return tuple(tuple(set_product_many(h, h.table[h.star[a]][h.star[b]], 1 << a, 1 << b)
                       for b in h.elements()) for a in h.elements())


def commutator_generator_by_pairs(table, amask: int, bmask: int) -> int:
    """Union of table[a][b] over A x B, pair by pair, for a table from
    `commutator_table_by_pairs`."""
    gen = 0
    for a in bits(amask):
        for b in bits(bmask):
            gen |= table[a][b]
    return gen


def positions_by_pairs(h, pair) -> tuple[tuple[int, ...], ...]:
    """Lattice position of ``pair(h, C, D)`` for every pair of lattice members,
    row C, column D, one call each (with `series.commutator_subset`, the
    oracle for `series._commutator_positions`, whose entry for C and D at
    positions i and j is `table[row[i]][row[j]]`)."""
    masks = all_closed_subsets(h).masks
    where = {m: i for i, m in enumerate(masks)}
    return tuple(tuple(where[pair(h, c, d)] for d in masks) for c in masks)


def closure_by_scan(lattice, seed: int) -> int:
    """The first lattice member holding the seed, by a scan of the members
    (oracle for `ClosedSubsetLattice.closure`)."""
    return next(m for m in lattice.masks if not seed & ~m)


def project_by_members(q, s: int) -> int:
    """Blocks met by an element set, one member at a time (oracle for
    `project_subset`)."""
    out = 0
    for x in bits(s):
        out |= q.block_bit[x]
    return out
