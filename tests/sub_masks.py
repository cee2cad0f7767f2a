"""The sub-hypergroup on a closed subset, and masks translated into it.

The library decides every question about a closed subset on the ambient
table; these build the subset as a hypergroup of its own, so the oracles
in the tests can take that older, independent route.
"""

from hyperalg.core import bits, members, memo, validate


@memo
def sub_hypergroup(h, f: int):
    """Restrict the table to a closed subset, reindexed 0..|F|-1 ascending.

    Returns the induced hypergroup together with the ambient indices of
    its elements.  The restriction is revalidated in full; a failure
    would mean `f` was not closed or the table is corrupt.
    """
    if f == h.full:
        return h, tuple(h.elements())
    elems = members(f)
    pos = {e: i for i, e in enumerate(elems)}
    table = [[sum(1 << pos[x] for x in bits(h.table[a][b])) for b in elems]
             for a in elems]
    return validate(len(elems), table), elems


def to_sub_mask(mask: int, elems: tuple[int, ...]) -> int:
    """Bit i set iff elems[i] is in mask (`elems` as `sub_hypergroup` returns)."""
    m = 0
    for i, e in enumerate(elems):
        if (mask >> e) & 1:
            m |= 1 << i
    return m
