"""Unpruned enumeration: every candidate filling through the validator.

The independent oracle for `hyperalg.enumeration.enumerate_hypergroups`.
It shares only the validator and the result container with the code it
checks, so a pruning bug cannot hide in both.
"""

from itertools import product

from hyperalg.core import HypergroupError, InternalMismatch, validate
from hyperalg.enumeration import EnumerationResult, OrderOutOfRange


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
