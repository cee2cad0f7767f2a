"""Cayley tables of small groups and their import as thin hypergroups.

Tables are lists of rows of element indices with the identity at index 0;
each bundled one is built from its multiplication rule, never typed out.
Bundled and user-supplied tables alike are checked by the hypergroup
validator, which is a group checker on singleton cells, so a wrong rule
cannot survive the test suite.
"""

from __future__ import annotations

from itertools import combinations, permutations

from hyperalg.core import Hypergroup, HypergroupError, InternalMismatch, validate


class NotAGroup(Exception):
    """A table that is not the Cayley table of a group with identity 0."""


def from_group(table: list[list[int]]) -> Hypergroup:
    """Import a Cayley table as the thin hypergroup with singleton products.

    On singleton cells H1-H3 are exactly the group axioms with identity 0,
    so the hypergroup validator is the group checker: its failures, and
    entries outside 0..n-1, raise NotAGroup.
    """
    n = len(table)
    for row in table:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"entry {v!r} out of range")
    try:
        h = validate(n, [[1 << v for v in row] for row in table])
    except (HypergroupError, ValueError) as err:
        raise NotAGroup(str(err)) from err
    if not h.is_thin():
        raise InternalMismatch("a group table imported as a non-thin hypergroup")
    return h


def cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    idx = lambda x, y: x * nb + y
    out = []
    for x1 in range(na):
        for y1 in range(nb):
            row = []
            for x2 in range(na):
                for y2 in range(nb):
                    row.append(idx(a[x1][x2], b[y1][y2]))
            out.append(row)
    return out


def dihedral(n: int) -> list[list[int]]:
    """Order-2n dihedral group: x = n·f + a is the rotation by a, followed by
    a reflection when f = 1, and (f, a)(g, b) = (f ^ g, b - a if g else a + b)."""
    def mul(x, y):
        (f, a), (g, b) = divmod(x, n), divmod(y, n)
        return n * (f ^ g) + (b - a if g else a + b) % n
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def quaternion8() -> list[list[int]]:
    """Unit quaternions 1,-1,i,-i,j,-j,k,-k: x = 2u + s is unit u of
    (1, i, j, k) with sign (-1)^s.  Units multiply as i·i = -1 and
    i·j = k, j·k = i, k·i = j, their reversals taking the minus sign."""
    def mul(x, y):
        (u, s), (v, t) = divmod(x, 2), divmod(y, 2)
        if not u or not v:
            return 2 * (u | v) + (s ^ t)
        if u == v:
            return s ^ t ^ 1
        return 2 * (u ^ v) + (s ^ t ^ ((v - u) % 3 != 1))
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def _perm_group(perms: list[tuple[int, ...]]) -> list[list[int]]:
    perms = sorted(perms)  # identity sorts first
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[x]] for x in range(len(p)))])
        table.append(row)
    return table


def symmetric(n: int) -> list[list[int]]:
    return _perm_group([tuple(p) for p in permutations(range(n))])


def alternating(n: int) -> list[list[int]]:
    return _perm_group([p for p in permutations(range(n))
                        if sum(a > b for a, b in combinations(p, 2)) % 2 == 0])


def _builtin_tables() -> list[tuple[str, list[list[int]]]]:
    c2 = cyclic(2)
    c4 = cyclic(4)
    return [
        ("c2", c2),
        ("c3", cyclic(3)),
        ("c4", c4),
        ("v4", direct_product(c2, c2)),
        ("c5", cyclic(5)),
        ("c6", cyclic(6)),
        ("s3", symmetric(3)),
        ("c7", cyclic(7)),
        ("c8", cyclic(8)),
        ("c4xc2", direct_product(c4, c2)),
        ("c2xc2xc2", direct_product(direct_product(c2, c2), c2)),
        ("d4", dihedral(4)),
        ("q8", quaternion8()),
        ("c9", cyclic(9)),
        ("c3xc3", direct_product(cyclic(3), cyclic(3))),
        ("c10", cyclic(10)),
        ("d5", dihedral(5)),
        ("c11", cyclic(11)),
        ("c12", cyclic(12)),
        ("d6", dihedral(6)),
        ("a4", alternating(4)),
        ("a5", alternating(5)),
    ]


def builtin_groups(max_order: int) -> list[tuple[str, list[list[int]]]]:
    """Bundled Cayley tables of order at most `max_order`.

    Covers every group of order <= 8, the usual suspects up to 12, and
    the order-60 simple group as the non-solvable stress case.
    """
    return [(name, t) for name, t in _builtin_tables() if len(t) <= max_order]
