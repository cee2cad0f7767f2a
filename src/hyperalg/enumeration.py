"""Exhaustive enumeration of all hypergroups of a small order.

The candidate space is every assignment of nonempty subsets to the
(n-1)^2 free cells (identity row and column are forced).  Three facts
prune it without losing exactness:

  * a valid table has exactly one identity-bearing cell per row, and the
    induced row -> column map is an involution, so we branch on that
    involution first and discard the rest of the space arithmetically;
  * inside a branch the exchange axiom says the membership relation
    "k in cell(i,j)" is constant on orbits of (i,j,k) -> (i*,k,j) and
    (i,j,k) -> (k,j*,i), so only one bit per orbit is free;
  * associativity is decided for a whole branch at once, on truth tables
    over its assignments; every survivor still passes the full validator.

Counters are exact: candidates counts the whole space, pruned subsets
are added to the reject tallies in bulk, and candidates always equals
rejects plus survivors.  Bulk tallies attribute a filling to its pruning
reason (identity-membership pattern, exchange, then associativity), so
the per-category split can differ from the naive sweep's first-failing-axiom
attribution on fillings that break several axioms at once; survivor sets
and totals never differ.

A deliberately naive sweep (every filling through the validator,
`tests/naive_enumeration.py`) backs the pruned one as an oracle at
orders 2 and 3, and the per-assignment route there checks the
associativity pass branch by branch at orders 2 to 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations, product
from operator import and_, or_

from hyperalg.core import Hypergroup, HypergroupError, InternalMismatch, bits, union_over, validate


class OrderOutOfRange(Exception):
    pass


@dataclass(frozen=True)
class EnumerationResult:
    candidates: int
    rejects: dict[str, int]
    survivors: tuple[Hypergroup, ...]
    canonical: tuple[Hypergroup, ...] | None = None

    @property
    def hypergroups(self) -> tuple[Hypergroup, ...]:
        return self.canonical if self.canonical is not None else self.survivors

    def reject_total(self) -> int:
        return sum(self.rejects.values())


def _involutions(n: int) -> list[tuple[int, ...]]:
    """Permutations of 0..n-1 fixing 0 that square to the identity."""
    out = []
    for perm in permutations(range(1, n)):
        sigma = (0,) + perm
        if all(sigma[sigma[i]] == i for i in range(n)):
            out.append(sigma)
    return out


def _orbits(n: int, sigma: tuple[int, ...]) -> list[list[tuple[int, int, int]]]:
    """Orbits of the free triples under the exchange symmetry."""
    todo = {(i, j, k) for i in range(1, n) for j in range(1, n) for k in range(1, n)}
    orbits = []
    while todo:
        start = min(todo)
        orbit = {start}
        frontier = [start]
        while frontier:
            i, j, k = frontier.pop()
            for nxt in ((sigma[i], k, j), (k, sigma[j], i)):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        todo -= orbit
        orbits.append(sorted(orbit))
    return orbits


def _forced_table(n: int, sigma: tuple[int, ...]) -> list[list[int]]:
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = 1 << i
        table[i][sigma[i]] |= 1  # the identity-bearing cell of row i
    return table


def _search_branch(n: int, sigma: tuple[int, ...]):
    """Decide every assignment of one involution branch at once; assignment
    a sets orbit o iff bit o of a is set, and bit a of mem[i][j][k] says
    whether assignment a puts k in cell (i, j).  A reached candidate (no
    empty cell) can first fail only associativity, so those failures are
    tallied in bulk; each survivor still goes through the full validator.

    Returns (survivor tables, candidates reached, associativity failures).
    """
    orbits = _orbits(n, sigma)
    every = (1 << (1 << len(orbits))) - 1
    base = _forced_table(n, sigma)
    mem = [[[every * (cell >> k & 1) for k in range(n)] for cell in row] for row in base]
    for o, orbit in enumerate(orbits):  # truth: bit a set iff a sets orbit o
        truth = every // ((1 << (2 << o)) - 1) * (((1 << (1 << o)) - 1) << (1 << o))
        for i, j, k in orbit:
            mem[i][j][k] = truth
    reached = assoc = reduce(and_, [reduce(or_, cell) for row in mem for cell in row])
    for i, j, k in product(range(1, n), repeat=3):
        for m in range(n):  # m in (i·j)·k iff m in i·(j·k)
            left = reduce(or_, [mem[i][j][x] & mem[x][k][m] for x in range(n)])
            right = reduce(or_, [mem[j][k][x] & mem[i][x][m] for x in range(n)])
            assoc &= ~(left ^ right)
    survivors = []
    for a in bits(assoc):
        table = [row[:] for row in base]
        for o in bits(a):
            for i, j, k in orbits[o]:
                table[i][j] |= 1 << k
        try:
            survivors.append(validate(n, table))
        except HypergroupError as err:
            raise InternalMismatch(f"branch {sigma}: assignment {a} passed the "
                                   "associativity pass but not the validator") from err
    return survivors, reached.bit_count(), (reached & ~assoc).bit_count()


def enumerate_hypergroups(order: int, canonicalize: bool = False) -> EnumerationResult:
    """Every hypergroup of the given order, identity at index 0.

    Deterministic: survivors are sorted by their table.
    """
    if not isinstance(order, int) or not 2 <= order <= 4:
        raise OrderOutOfRange(f"enumeration supports orders 2..4, got {order!r}")

    t = (1 << order) - 1
    m = order - 1
    cells = m * m
    z = 1 << m          # cell values containing the identity
    w = z - 1           # nonempty cell values avoiding it
    total = t ** cells
    one_zero_per_row = (m * z * w ** (m - 1)) ** m
    branch_size = (z * w ** (m - 1)) ** m

    sigmas = _involutions(order)
    rejects = {"NoInverse": total - one_zero_per_row,
               "ExchangeViolation": one_zero_per_row - len(sigmas) * branch_size,
               "AssocViolation": 0}
    survivors: list[Hypergroup] = []
    for sigma in sigmas:
        branch_survivors, reached, failures = _search_branch(order, sigma)
        survivors.extend(branch_survivors)
        rejects["ExchangeViolation"] += branch_size - reached
        rejects["AssocViolation"] += failures
    rejects = {k: v for k, v in rejects.items() if v}
    survivors.sort(key=lambda h: h.table)

    result = EnumerationResult(
        candidates=total, rejects=rejects, survivors=tuple(survivors),
        canonical=tuple(canonical_representatives(survivors)) if canonicalize else None)
    if result.candidates != result.reject_total() + len(result.survivors):
        raise InternalMismatch("candidates must equal rejects plus survivors")
    return result


def relabel(h: Hypergroup, perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Table of the isomorphic copy under an identity-fixing relabeling."""
    if perm[0] != 0:
        raise InternalMismatch("a relabeling must fix the identity")
    n = h.order
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    moved = [1 << p for p in perm]  # element x goes to bit perm[x]
    return tuple(tuple(union_over(moved, h.table[inv[i]][inv[j]]) for j in range(n))
                 for i in range(n))


def canonical_representatives(hypergroups) -> list[Hypergroup]:
    """One validated representative (the minimal table) per relabeling class;
    each orbit is relabeled once, at the first of its members met, and its
    other members are then found among the tables met."""
    met = set()  # every table of each orbit met so far
    reps = []
    for h in hypergroups:
        if h.table not in met:
            orbit = [relabel(h, (0,) + perm) for perm in permutations(range(1, h.order))]
            met.update(orbit)
            reps.append(validate(h.order, min(orbit)))
    return sorted(reps, key=lambda h: h.table)
