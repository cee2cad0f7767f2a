"""Seeded benchmark inputs: group Cayley tables, relabeled, as `hypergroup v1` text.

The tables are built here from generators, not taken from hyperalg, so the
expected values the benchmark checks do not come from the code under test.
The seed picks one identity-fixing relabeling per table; relabeling moves
every element to another bit position, which bit-parallel kernels notice.
"""

from __future__ import annotations

import random
from itertools import product


def abelian(*ns: int) -> list[list[int]]:
    """Cayley table of C_n1 x C_n2 x ..., identity at index 0."""
    elems = list(product(*(range(n) for n in ns)))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple((x + y) % n for x, y, n in zip(a, b, ns))] for b in elems]
            for a in elems]


def perm_group(*gens: tuple[int, ...]) -> list[list[int]]:
    """Cayley table of the permutation group the generators span."""
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    index = {ident: 0}
    for g in elems:  # grows while iterating: breadth-first closure
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    return [[index[tuple(a[x] for x in b)] for b in elems] for a in elems]


def cycles(degree: int, *cs: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of 0..degree-1 given as disjoint cycles."""
    p = list(range(degree))
    for c in cs:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return tuple(p)


def dihedral(n: int) -> list[list[int]]:
    return perm_group(cycles(n, tuple(range(n))),
                      tuple((-x) % n for x in range(n)))


# Left-regular representation of the quaternions 1,-1,i,-i,j,-j,k,-k.
_Q8 = ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3))

# The groups hyperalg bundles up to order 12, then the three large inputs.
GROUPS = {
    "c2": lambda: abelian(2),
    "c3": lambda: abelian(3),
    "c4": lambda: abelian(4),
    "v4": lambda: abelian(2, 2),
    "c5": lambda: abelian(5),
    "c6": lambda: abelian(6),
    "s3": lambda: perm_group(cycles(3, (0, 1, 2)), cycles(3, (0, 1))),
    "c7": lambda: abelian(7),
    "c8": lambda: abelian(8),
    "c4xc2": lambda: abelian(4, 2),
    "c2xc2xc2": lambda: abelian(2, 2, 2),
    "d4": lambda: dihedral(4),
    "q8": lambda: perm_group(*_Q8),
    "c9": lambda: abelian(9),
    "c3xc3": lambda: abelian(3, 3),
    "c10": lambda: abelian(10),
    "d5": lambda: dihedral(5),
    "c11": lambda: abelian(11),
    "c12": lambda: abelian(12),
    "d6": lambda: dihedral(6),
    "a4": lambda: perm_group(cycles(4, (0, 1, 2)), cycles(4, (0, 1), (2, 3))),
    "a5": lambda: perm_group(cycles(5, (0, 1, 2, 3, 4)), cycles(5, (0, 1, 2))),
    "c2x5": lambda: abelian(2, 2, 2, 2, 2),
    "c2x4xc3": lambda: abelian(2, 2, 2, 2, 3),
}


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group under a random permutation that keeps 0 at 0."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def to_text(name: str, table: list[list[int]]) -> str:
    """A Cayley table as a thin hypergroup: every cell a singleton."""
    n = len(table)
    lines = ["hypergroup v1", f"name {name}", f"order {n}"]
    lines += [f"cell {i} {j} : {table[i][j]}" for i in range(n) for j in range(n)]
    return "\n".join(lines) + "\n"


def make_inputs(names, seed: int) -> list[tuple[str, list[list[int]], str]]:
    """(name, relabeled table, text) per group, all drawn from one seeded stream."""
    rng = random.Random(seed)
    out = []
    for name in names:
        table = relabel(GROUPS[name](), rng)
        out.append((name, table, to_text(name, table)))
    return out


def is_closed_under(table: list[list[int]], subset) -> bool:
    """Whether a set of elements is closed under the table's product."""
    s = set(subset)
    return all(table[a][b] in s for a in s for b in s)
