"""Double cosets and quotient hypergroups.

The quotient of H over a closed subset F lives on the double cosets
F·h·F; the induced product of two blocks is the set of blocks meeting
a·F·b.  Normality of F is not required.  The induced table is run
through the full axiom validator (or matches a table that already passed
it): that is our strongest internal consistency check.  Over {1} and
over H the answer is read off: H itself, and the one-point hypergroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.closed import is_closed
from hyperalg.core import Hypergroup, InternalMismatch, bits, mask_of, memo, union_over, validate


class NotClosed(Exception):
    """Raised when a quotient kernel fails the closedness test."""


@dataclass(frozen=True)
class Quotient:
    """H//F: the double cosets, kernel first, and the induced hypergroup on their indices."""

    blocks: tuple[int, ...]
    block_bit: tuple[int, ...]  # element x -> 1 << the index of its block
    reps: int  # each block's smallest member; a union of blocks S projects as S & reps
    induced: Hypergroup


@memo
def build_quotient(h: Hypergroup, f: int) -> Quotient:
    """Partition into double cosets and validate the induced hypergroup.

    Blocks are ordered by smallest member, which puts the kernel first.
    Cached per (hypergroup, kernel).  Past the closedness test, {1} gives h
    itself and H the one-point hypergroup, with no check lost: singleton
    blocks, or one block, partition H and carry the star, and the rebuilt
    table would be h's own (which passed the validator) or ((1,),).

    Where a·F = F·a (every a when F is normal, the identity always), FaF is
    a·F, and a·F·b = F·(a·b) meets the blocks that a·b meets, since F·y lies
    in FyF: such a row is read from the base row of a.
    """
    if f == 0 or not is_closed(h, f):
        raise NotClosed(f"kernel {sorted(bits(f))} is not a closed subset")
    if f == 1:
        points = tuple(1 << x for x in h.elements())
        return Quotient(blocks=points, block_bit=points, reps=h.full, induced=h)
    if f == h.full:
        return Quotient(blocks=(f,), block_bit=(1,) * h.order, reps=1, induced=validate(1, ((1,),)))

    fx, xf = h.left_products(f), h.right_products(f)
    blocks: list[int] = []
    block_of = [-1] * h.order
    seen = 0
    for x in h.elements():
        if (seen >> x) & 1:
            continue
        b = xf[x] if fx[x] == xf[x] else union_over(xf, fx[x])  # FxF: y·F over y in F·x
        if b & seen:
            raise InternalMismatch("double cosets failed to partition")
        for y in bits(b):
            block_of[y] = len(blocks)
        blocks.append(b)
        seen |= b
    if seen != h.full or blocks[0] != f:
        raise InternalMismatch("double cosets must cover the base, kernel first")

    reps = [(b & -b).bit_length() - 1 for b in blocks]  # smallest member of each block
    block_bit = tuple([1 << i for i in block_of])
    nb = len(blocks)
    table = []
    for a in reps:
        row = h.table[a] if fx[a] == xf[a] else h.left_products(xf[a])  # a·x or (a·F)·x
        table.append([union_over(block_bit, row[b]) for b in reps])
    induced = validate(nb, table)

    # Blockwise star transport: the star of a block is the block of the star.
    if any(induced.star[block_of[x]] != block_of[h.star[x]] for x in h.elements()):
        raise InternalMismatch("the star of a block is not the block of the star")

    return Quotient(blocks=tuple(blocks), block_bit=block_bit, reps=mask_of(reps), induced=induced)


def project_subset(q: Quotient, s: int) -> int:
    """Image of an element set as a set of block indices."""
    return union_over(q.block_bit, s)


def lift_blocks(q: Quotient, bmask: int) -> int:
    """Union of the member blocks, as an element set of the base."""
    return union_over(q.blocks, bmask)
