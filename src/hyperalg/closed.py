"""Closed subsets: closure generation, normality, centralizers, the lattice.

A closed subset is represented by its bitmask; a mask F is closed when
F*F is contained in F (equivalently: contains the identity, star-stable,
and idempotent under the set product).  No sub-hypergroup is ever
built: the products and stars of a closed K's members stay in K, so a
question about K as a hypergroup in its own right (strong normality of F
in K, read off F's strong normalizer, or K's lower central series) is
decided on the ambient table.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.core import Hypergroup, InternalMismatch, bits, lanes, mask_of, members, memo, union_over


class EmptySet(Exception):
    """Raised when an operation requires a nonempty element set."""


def is_closed(h: Hypergroup, s: int) -> bool:
    """True iff star(S)·S stays inside S; cross-checked against the three-part test
    (identity, star-stable, S·S = S), whose S·S is star(S)·S once star(S) = S."""
    if s == 0:
        raise EmptySet("closedness is only defined for nonempty subsets")
    star = h.set_star(s)
    product = h.set_product(star, s)
    closed = product & ~s == 0
    three_part = (s & 1) and star == s and product == s
    if closed != bool(three_part):
        raise InternalMismatch(f"closedness tests disagree on {members(s)}")
    return closed


def generated_closure(h: Hypergroup, seed: int) -> int:
    """Smallest closed subset containing the seed: the fixed point of squaring
    G = {identity} | seed | star(seed).  Each square B·B holds B, as 1 is in G,
    and is star-stable, as star(B·B) = star(B)·star(B).  If G^k is the closure,
    that takes ceil(log2 k) + 1 `set_product` calls."""
    if seed == 0:
        raise EmptySet("cannot close an empty seed")
    prev, cur = 0, 1 | seed | h.set_star(seed)
    while cur != prev:
        prev, cur = cur, h.set_product(cur, cur)
    return cur


@memo
def is_normal(h: Hypergroup, f: int) -> bool:
    """F·x inside x·F for every element x, containment forcing equality: the
    ORs of F's packed rows and columns, lane x holding F·x and x·F."""
    fx, xf = union_over(h.packed_rows, f), union_over(h.packed_cols, f)
    if fx & ~xf:
        return False
    if fx != xf:
        raise InternalMismatch(f"F·x inside x·F but not equal for F = {members(f)}")
    return True


def is_strongly_normal(h: Hypergroup, f: int) -> bool:
    """star(x)·F·x inside F for every element x."""
    return strong_normalizer(h, f) == h.full


def centralizer(h: Hypergroup, f: int) -> int:
    """Elements commuting with every member of f (all of H when f is empty):
    the x whose packed row and column agree on the lanes of f's members."""
    of_f = lanes(f)
    rows, cols = h.packed_rows, h.packed_cols
    return mask_of(x for x in h.elements() if not (rows[x] ^ cols[x]) & of_f)


def center(h: Hypergroup) -> int:
    return centralizer(h, h.full)


def closed_center(h: Hypergroup) -> int:
    """The center Z, checked to be a normal closed subset, else `InternalMismatch`.

    H3 gives star(xy) = star(y)·star(x), so x commutes with every element iff
    star(x) does: Z is star-stable.  It is normal, as z·x = x·z.  Only
    closedness can fail, and does on non-thin inputs: on the order-20
    D4×D4//{0, 36}, 1 and 4 are central but 1·4 = {3, 5} is not.
    """
    out = center(h)
    if not (is_closed(h, out) and is_normal(h, out)):
        raise InternalMismatch(f"closed center {members(out)} is not normal and closed")
    return out


@memo
def strong_normalizer(h: Hypergroup, f: int) -> int:
    """All x with star(x)·F·x inside F.  Not closed in general.

    By H3, z lies in a·x iff a lies in z·star(x), so with y = star(x),
    star(x)·F·x leaves F exactly when y·F meets (H - F)·y: lane y of the
    vector products x·F and (H - F)·x.
    """
    yf, outside = h.right_products(f), h.left_products(h.full & ~f)
    return mask_of(h.star[y] for y in h.elements() if not yf[y] & outside[y])


@dataclass
class ClosedSubsetLattice:
    """Every closed subset of one hypergroup, in order: the members, which
    members hold each element, and closure by lookup.

    Members are sorted by (size, mask) so reports are deterministic.  The
    lattice keeps no reference to its hypergroup, which memoises it.
    """

    masks: tuple[int, ...]
    missing: tuple[int, ...]  # element x -> bit i set iff masks[i] lacks x
    index: dict[int, int]  # member mask -> its position in masks

    def __len__(self) -> int:
        return len(self.masks)

    def above(self, seed: int) -> int:
        """Bitset of the positions of the members holding the seed: every
        position but those lacking one of its members, an OR of bitsets."""
        return (1 << len(self.masks)) - 1 & ~union_over(self.missing, seed)

    def position(self, seed: int) -> int:
        """Position of the seed's closure: closed subsets meet, so it is the lowest above it."""
        if seed == 0:
            raise EmptySet("cannot close an empty seed")
        at = self.above(seed)
        return (at & -at).bit_length() - 1

    def closure(self, seed: int) -> int:
        """Smallest closed subset containing the seed, by lookup."""
        return self.masks[self.position(seed)]

    def supersets(self, f: int) -> tuple[int, ...]:
        """Strict supersets of the member f, in order: the positions above its own."""
        up, masks = self.above(f), self.masks
        return tuple(masks[i] for i in bits(up & (up - 1)))


@memo
def all_closed_subsets(h: Hypergroup) -> ClosedSubsetLattice:
    """Build (and memoise) the full lattice of closed subsets.

    From the trivial subset up, close F | {x} for one x in each double coset FxF ≠ F
    of every found F: any y in FxF gives the same closure, since x lies in F·y·F (H3,
    twice).  Complete, as any closed K is reached from a found F ⊂ K through some x in
    K - F, whose closure with F stays inside K; the 2^n subset space is never touched.

    As F is closed, that closure is F with every power of S = FxF | Fx*F (S is
    star-stable, F·S = S·F = S; Fx*F, with the same closure, is skipped), grown
    from F | S by multiplying the newest members by S.  Growth stops at the first
    found member, as each is closed and the growing set lies inside the closure:
    that member is the closure.  `missing` is one transpose of the members' complements.
    """
    found, work = {1}, [1]
    while work:
        f = work.pop()
        fx, xf = h.left_products(f), h.right_products(f)
        rest = h.full & ~f
        while rest:
            x = (rest & -rest).bit_length() - 1
            s = union_over(xf, fx[x])  # FxF, the OR of y·F over y in F·x
            if not s >> h.star[x] & 1:  # else Fx*F = FxF
                s |= union_over(xf, fx[h.star[x]])
            rest &= ~s
            if f | s in found:
                continue
            by_s, c, new = h.right_products(s), f | s, s  # entry y of by_s holds y·S
            while new and c not in found:
                new = union_over(by_s, new) & ~c
                c |= new
            if not new:  # grown to the end: a closure not found before
                found.add(c)
                work.append(c)
    masks = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    lacks = zip(*[format(h.full ^ m, f"0{h.order}b") for m in reversed(masks)])  # x = n-1..0
    missing = tuple(int("".join(col), 2) for col in lacks)[::-1]
    index = {m: i for i, m in enumerate(masks)}
    return ClosedSubsetLattice(masks=masks, missing=missing, index=index)
