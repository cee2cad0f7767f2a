"""Closed subsets: closure generation, normality, centralizers, the lattice.

A closed subset is represented by its bitmask; a mask F is closed when
F*F is contained in F (equivalently: contains the identity, star-stable,
and idempotent under the set product).  Normality of a smaller closed
subset inside a larger one is always evaluated in the sub-hypergroup the
larger one induces, because the chain definitions quantify there.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.core import Hypergroup, bits, members, memo, validate


class EmptySet(Exception):
    """Raised when an operation requires a nonempty element set."""


def is_closed(h: Hypergroup, s: int) -> bool:
    """True iff star(S)·S stays inside S; cross-checked against the
    three-part characterization (identity, star-stable, idempotent)."""
    if s == 0:
        raise EmptySet("closedness is only defined for nonempty subsets")
    closed = h.set_product(h.set_star(s), s) & ~s == 0
    three_part = (s & 1) and h.set_star(s) == s and h.set_product(s, s) == s
    assert closed == bool(three_part)
    return closed


@memo
def generated_closure(h: Hypergroup, seed: int) -> int:
    """Smallest closed subset containing the seed.

    Fixpoint of B -> B | B·B starting from {identity} | seed | star(seed).
    """
    if seed == 0:
        raise EmptySet("cannot close an empty seed")
    cur = 1 | seed | h.set_star(seed)
    new = cur
    full = h.full
    while new and cur != full:
        new = (h.set_product(cur, new) | h.set_product(new, cur)) & ~cur
        cur |= new
    return cur


@memo
def sub_hypergroup(h: Hypergroup, f: int) -> tuple[Hypergroup, tuple[int, ...]]:
    """Restrict the table to a closed subset, reindexed 0..|F|-1 ascending.

    Returns the induced hypergroup together with the ambient indices of
    its elements.  The restriction is revalidated in full; a failure
    would mean `f` was not closed or the table is corrupt.
    """
    if f == h.full:
        return h, tuple(h.elements())
    elems = members(f)
    pos = {e: i for i, e in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            cell = h.table[a][b]
            row.append(sum(1 << pos[x] for x in bits(cell)))
        table.append(row)
    return validate(len(elems), table), elems


def to_sub_mask(mask: int, elems: tuple[int, ...]) -> int:
    m = 0
    for i, e in enumerate(elems):
        if (mask >> e) & 1:
            m |= 1 << i
    return m


def is_normal(h: Hypergroup, f: int) -> bool:
    """F·x inside x·F for every element x; containment forces equality."""
    seen = []
    for x in h.elements():
        xm = 1 << x
        fx = h.set_product(f, xm)
        xf = h.set_product(xm, f)
        if fx & ~xf:
            return False
        seen.append((fx, xf))
    assert all(fx == xf for fx, xf in seen)
    return True


def is_strongly_normal(h: Hypergroup, f: int) -> bool:
    """star(x)·F·x inside F for every element x."""
    for x in h.elements():
        conj = h.set_product(h.set_product(1 << h.star[x], f), 1 << x)
        if conj & ~f:
            return False
    return True


def centralizer(h: Hypergroup, f: int) -> int:
    """Elements commuting with every member of f (all of H when f is empty)."""
    out = 0
    fm = members(f)
    for x in h.elements():
        if all(h.commutes(x, y) for y in fm):
            out |= 1 << x
    return out


def center(h: Hypergroup) -> int:
    return centralizer(h, h.full)


def closed_center(h: Hypergroup) -> int:
    """Members of the center whose star partner is also central.

    Always a normal closed subset; that fact is asserted, not assumed.
    """
    z = center(h)
    out = 0
    for x in bits(z):
        if (z >> h.star[x]) & 1:
            out |= 1 << x
    assert is_closed(h, out) and is_normal(h, out)
    return out


def strong_normalizer(h: Hypergroup, f: int) -> int:
    """All x with star(x)·F·x inside F.  Not closed in general."""
    out = 0
    for x in h.elements():
        conj = h.set_product(h.set_product(1 << h.star[x], f), 1 << x)
        if not conj & ~f:
            out |= 1 << x
    return out


@dataclass
class ClosedSubsetLattice:
    """Every closed subset of one hypergroup, with (strong) normality edges.

    Members are sorted by (size, mask) so reports are deterministic.
    Normality of K1 inside K2 is decided in the sub-hypergroup on K2.
    """

    hypergroup: Hypergroup
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index()

    @memo
    def _index(self) -> frozenset[int]:
        return frozenset(self.masks)

    @memo
    def supersets(self, f: int) -> tuple[int, ...]:
        """Strict supersets of f in lattice order, scanned once per f."""
        return tuple(m for m in self.masks if m != f and f & ~m == 0)

    @memo
    def normal_in(self, f: int, k: int) -> bool:
        """Is f normal inside the sub-hypergroup on k (f strictly within k)?"""
        sub, elems = sub_hypergroup(self.hypergroup, k)
        return is_normal(sub, to_sub_mask(f, elems))

    @memo
    def strongly_normal_in(self, f: int, k: int) -> bool:
        sub, elems = sub_hypergroup(self.hypergroup, k)
        return is_strongly_normal(sub, to_sub_mask(f, elems))

    def _reachable(self, f: int, edge) -> bool:
        full = self.hypergroup.full
        seen = {f}
        stack = [f]
        while stack:
            cur = stack.pop()
            if cur == full:
                return True
            for k in self.supersets(cur):
                if k not in seen and edge(cur, k):
                    seen.add(k)
                    stack.append(k)
        return False

    def is_subnormal(self, f: int) -> bool:
        return self._reachable(f, self.normal_in)

    def is_strongly_subnormal(self, f: int) -> bool:
        return self._reachable(f, self.strongly_normal_in)

    def maximal_members(self) -> list[int]:
        """Proper closed subsets with nothing strictly between them and H."""
        full = self.hypergroup.full
        out = []
        for m in self.masks:
            if m == full:
                continue
            if not any(k != full for k in self.supersets(m)):
                out.append(m)
        return out

    def strongly_normal_members(self) -> list[int]:
        h = self.hypergroup
        return [m for m in self.masks if is_strongly_normal(h, m)]


@memo
def all_closed_subsets(h: Hypergroup) -> ClosedSubsetLattice:
    """Build (and memoise) the full lattice of closed subsets.

    Seeds closures from single elements, then from found subsets extended
    by one extra element, iterating to a fixpoint.  Every closed subset is
    generated by itself, so this sweep finds them all without touching
    the 2^n subset space.
    """
    found: set[int] = set()
    work: list[int] = []
    for x in h.elements():
        c = generated_closure(h, 1 << x)
        if c not in found:
            found.add(c)
            work.append(c)
    while work:
        f = work.pop()
        rest = h.full & ~f
        for x in bits(rest):
            c = generated_closure(h, f | (1 << x))
            if c not in found:
                found.add(c)
                work.append(c)
    masks = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    return ClosedSubsetLattice(hypergroup=h, masks=masks)


def maximal_closed_subsets(h: Hypergroup) -> list[int]:
    return all_closed_subsets(h).maximal_members()
