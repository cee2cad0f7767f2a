"""Plain group-theory oracle computed directly from Cayley tables.

Deliberately independent of the hyperalg package: everything here works
on plain int sets and table lookups, so it can cross-check the
hypergroup route without sharing any code with it.
"""

from __future__ import annotations


def inverse(table: list[list[int]], x: int) -> int:
    return table[x].index(0)


def subgroup_closure(table, seed) -> frozenset[int]:
    cur = {0} | set(seed) | {inverse(table, s) for s in seed}
    while True:
        new = {table[a][b] for a in cur for b in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


def all_subgroups(table) -> set[frozenset[int]]:
    found: set[frozenset[int]] = set()
    work = []
    for x in range(len(table)):
        c = subgroup_closure(table, [x])
        if c not in found:
            found.add(c)
            work.append(c)
    while work:
        sub = work.pop()
        for x in range(len(table)):
            if x in sub:
                continue
            c = subgroup_closure(table, set(sub) | {x})
            if c not in found:
                found.add(c)
                work.append(c)
    return found


def is_normal_subgroup(table, sub) -> bool:
    return all(table[table[g][s]][inverse(table, g)] in sub
               for g in range(len(table)) for s in sub)


def center(table) -> frozenset[int]:
    n = len(table)
    return frozenset(x for x in range(n)
                     if all(table[x][y] == table[y][x] for y in range(n)))


def commutator(table, a, b) -> int:
    ia, ib = inverse(table, a), inverse(table, b)
    return table[table[table[ia][ib]][a]][b]


def commutator_subgroup(table, aset, bset) -> frozenset[int]:
    gens = {commutator(table, a, b) for a in aset for b in bset}
    return subgroup_closure(table, gens)


def lower_central_series(table) -> list[frozenset[int]]:
    whole = frozenset(range(len(table)))
    series = [whole]
    while True:
        nxt = commutator_subgroup(table, series[-1], whole)
        if nxt == series[-1]:
            return series
        series.append(nxt)


def derived_series(table) -> list[frozenset[int]]:
    series = [frozenset(range(len(table)))]
    while True:
        nxt = commutator_subgroup(table, series[-1], series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def is_nilpotent(table) -> bool:
    return lower_central_series(table)[-1] == frozenset({0})


def is_solvable(table) -> bool:
    return derived_series(table)[-1] == frozenset({0})


def is_group_check(cells) -> bool:
    """True when every cell of a mask table is a singleton and those form a group.

    Runs the plain group axioms on the collapsed table, independently of
    the thinness test; the two must agree on every valid hypergroup.
    """
    n = len(cells)
    cayley = []
    for row in cells:
        out = []
        for cell in row:
            if cell & (cell - 1):
                return False
            out.append(cell.bit_length() - 1)
        cayley.append(out)
    if any(cayley[i][0] != i or cayley[0][i] != i for i in range(n)):
        return False
    if any(0 not in cayley[i] for i in range(n)):
        return False
    return all(
        cayley[cayley[i][j]][k] == cayley[i][cayley[j][k]]
        for i in range(n) for j in range(n) for k in range(n)
    )
