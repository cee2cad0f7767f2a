"""Direct products H × G of hypergroups, written out from the factors' rows.

Element (a, b) is a·|G| + b, and (a, b)·(c, d) holds (x, y) for every x in a·c
and y in b·d: the product hypergroup, built without the package's set products.
"""

from hyperalg.core import members, validate


def pair(a: int, b: int, m: int) -> int:
    """The mask of A × B, with B a mask over m elements."""
    return sum(1 << x * m + y for x in members(a) for y in members(b))


def product_hypergroup(h, g):
    """H × G, validated."""
    m = g.order
    table = [[pair(h.table[a][c], g.table[b][d], m) for c in h.elements() for d in g.elements()]
             for a in h.elements() for b in g.elements()]
    return validate(h.order * m, table)
