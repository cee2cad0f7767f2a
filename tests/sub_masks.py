"""Translate ambient masks into the sub-hypergroup on a closed subset.

Used by the oracles that take the old route through `sub_hypergroup`.
"""


def to_sub_mask(mask: int, elems: tuple[int, ...]) -> int:
    """Bit i set iff elems[i] is in mask (`elems` as `sub_hypergroup` returns)."""
    m = 0
    for i, e in enumerate(elems):
        if (mask >> e) & 1:
            m |= 1 << i
    return m
