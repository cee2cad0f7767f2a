"""Unpruned enumeration: every candidate filling through the validator.

The independent oracle for `hyperalg.enumeration.enumerate_hypergroups`.
It shares only the validator and the result container with the code it
checks, so a pruning bug cannot hide in both.

`branch_candidates` and `validate_branch` are the per-assignment route
through one involution branch: every exchange-consistent assignment is
built as a table and, if no cell is empty, sent to the validator.  They
share the exchange orbits with the code they check, so they check what
the enumeration decides after the orbits (nonempty cells and
associativity, decided for a whole branch at once), at orders 2 to 4.
"""

from itertools import product

from hyperalg.core import HypergroupError, InternalMismatch, validate
from hyperalg.enumeration import EnumerationResult, OrderOutOfRange, _orbits


def naive_enumerate(order: int) -> EnumerationResult:
    """Every hypergroup of the given order, identity at index 0, no pruning.

    Refuses sizes whose candidate space exceeds ten million fillings.
    """
    if not isinstance(order, int) or order < 2:
        raise OrderOutOfRange(f"got {order!r}")
    t = (1 << order) - 1
    cells = (order - 1) ** 2
    if t ** cells > 10_000_000:
        raise OrderOutOfRange(f"naive sweep of order {order} is out of reach")
    free = [(i, j) for i in range(1, order) for j in range(1, order)]
    survivors = []
    rejects: dict[str, int] = {}
    for values in product(range(1, t + 1), repeat=cells):
        table = [[0] * order for _ in range(order)]
        for i in range(order):
            table[0][i] = table[i][0] = 1 << i  # the identity row and column
        for (i, j), v in zip(free, values):
            table[i][j] = v
        try:
            survivors.append(validate(order, table))
        except HypergroupError as err:
            key = type(err).__name__
            rejects[key] = rejects.get(key, 0) + 1
    survivors.sort(key=lambda h: h.table)
    if t ** cells != sum(rejects.values()) + len(survivors):
        raise InternalMismatch("candidates must equal rejects plus survivors")
    return EnumerationResult(candidates=t ** cells, rejects=rejects, survivors=tuple(survivors))


def branch_candidates(order: int, sigma: tuple[int, ...]) -> list[list[list[int]]]:
    """The tables with no empty cell among the exchange-consistent
    assignments of the branch of involution sigma, in assignment order
    (assignment a sets orbit o iff bit o of a is set)."""
    orbits = _orbits(order, sigma)
    out = []
    for assignment in range(1 << len(orbits)):
        table = [[0] * order for _ in range(order)]
        for i in range(order):
            table[0][i] = table[i][0] = 1 << i  # the identity row and column
        for i in range(1, order):
            table[i][sigma[i]] |= 1
        for o, orbit in enumerate(orbits):
            if (assignment >> o) & 1:
                for i, j, k in orbit:
                    table[i][j] |= 1 << k
        if all(all(row) for row in table):
            out.append(table)
    return out


def validate_branch(order: int, sigma: tuple[int, ...]):
    """(survivors, candidates reached, rejects by error class) of one branch,
    each reached candidate through the validator."""
    candidates = branch_candidates(order, sigma)
    survivors = []
    rejects: dict[str, int] = {}
    for table in candidates:
        try:
            survivors.append(validate(order, table))
        except HypergroupError as err:
            key = type(err).__name__
            rejects[key] = rejects.get(key, 0) + 1
    return survivors, len(candidates), rejects
