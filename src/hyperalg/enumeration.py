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
  * what survives both is few enough to push through the full validator.

Counters are exact: candidates counts the whole space, pruned subsets
are added to the reject tallies in bulk, and candidates always equals
rejects plus survivors.  Bulk tallies attribute a filling to its pruning
reason (identity-membership pattern first, then exchange), so the
per-category split can differ from the naive sweep's first-failing-axiom
attribution on fillings that break several axioms at once; survivor sets
and totals never differ.

A deliberately naive sweep (every filling through the validator,
`tests/naive_enumeration.py`) backs the pruned one as an oracle at
orders 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from hyperalg.core import Hypergroup, HypergroupError, InternalMismatch, union_over, validate


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


def _forced_table(n: int) -> list[list[int]]:
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = 1 << i
        table[i][0] = 1 << i
    return table


def _search_branch(n: int, sigma: tuple[int, ...]):
    """Try every exchange-consistent assignment for one involution branch.

    Returns (survivor tables, candidates that reached the validator,
    reject tallies keyed by validator error class).
    """
    orbits = _orbits(n, sigma)
    survivors = []
    rejects: dict[str, int] = {}
    reached = 0
    plain_cells = [(i, j) for i in range(1, n) for j in range(1, n) if j != sigma[i]]
    for assignment in range(1 << len(orbits)):
        table = _forced_table(n)
        for i in range(1, n):
            table[i][sigma[i]] |= 1
        for o, orbit in enumerate(orbits):
            if (assignment >> o) & 1:
                for i, j, k in orbit:
                    table[i][j] |= 1 << k
        if any(table[i][j] == 0 for i, j in plain_cells):
            continue  # not a candidate: the space only contains nonempty cells
        reached += 1
        try:
            survivors.append(validate(n, table))
        except HypergroupError as err:
            key = type(err).__name__
            rejects[key] = rejects.get(key, 0) + 1
    return survivors, reached, rejects


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
               "ExchangeViolation": one_zero_per_row - len(sigmas) * branch_size}
    survivors: list[Hypergroup] = []
    for sigma in sigmas:
        branch_survivors, reached, branch_rejects = _search_branch(order, sigma)
        survivors.extend(branch_survivors)
        rejects["ExchangeViolation"] += branch_size - reached
        for key, count in branch_rejects.items():
            rejects[key] = rejects.get(key, 0) + count
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
