"""Closed subsets: closure generation, normality, centralizers, the lattice.

A closed subset is represented by its bitmask; a mask F is closed when
F*F is contained in F (equivalently: contains the identity, star-stable,
and idempotent under the set product).  No sub-hypergroup is ever
built: the products and stars of a closed K's members stay in K, so a
question about K as a hypergroup in its own right (normality of F in K,
its lower central series) is decided on the ambient table.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperalg.core import Hypergroup, InternalMismatch, bits, members, memo


class EmptySet(Exception):
    """Raised when an operation requires a nonempty element set."""


def is_closed(h: Hypergroup, s: int) -> bool:
    """True iff star(S)·S stays inside S; cross-checked against the
    three-part characterization (identity, star-stable, idempotent)."""
    if s == 0:
        raise EmptySet("closedness is only defined for nonempty subsets")
    star = h.set_star(s)
    closed = h.set_product(star, s) & ~s == 0
    three_part = (s & 1) and star == s and h.set_product(s, s) == s
    if closed != bool(three_part):
        raise InternalMismatch(f"closedness tests disagree on {members(s)}")
    return closed


@memo
def generated_closure(h: Hypergroup, seed: int) -> int:
    """Smallest closed subset containing the seed.

    G = {identity} | seed | star(seed) holds the identity and is
    star-stable, so the union of its powers G^k is closed under products
    (set products are associative) and under star (star(G^k) = G^k), and
    every closed subset holding the seed holds it: it is the closure.
    G^(k+1) is the union of e·G over the members e of G^k, so multiplying
    each element found on the right by G reaches every power, at
    |closure|·|G| table reads.
    """
    if seed == 0:
        raise EmptySet("cannot close an empty seed")
    cur = todo = 1 | seed | h.set_star(seed)
    g_members = members(cur & ~1)  # e·1 = {e} adds nothing
    table, full = h.table, h.full
    while todo and cur != full:
        low = todo & -todo
        todo ^= low
        row = table[low.bit_length() - 1]
        new = 0
        for g in g_members:
            new |= row[g]
        new &= ~cur
        cur |= new
        todo |= new
    return cur


@memo
def _normalized_by(h: Hypergroup, f: int, xs: int) -> bool:
    """F·x inside x·F for every x in xs; containment forces equality.
    Memoised here, so `is_normal` (xs = H) and `normal_in` share one cache."""
    unequal = False
    for x in bits(xs):
        fx, xf = h.set_product(f, 1 << x), h.set_product(1 << x, f)
        if fx & ~xf:
            return False
        unequal |= fx != xf
    if unequal:
        raise InternalMismatch(f"F·x inside x·F but not equal for F = {members(f)}")
    return True


def is_normal(h: Hypergroup, f: int) -> bool:
    """F·x inside x·F for every element x; containment forces equality."""
    return _normalized_by(h, f, h.full)


def is_strongly_normal(h: Hypergroup, f: int) -> bool:
    """star(x)·F·x inside F for every element x."""
    return strong_normalizer(h, f) == h.full


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

    Always a normal closed subset; that fact is checked, not assumed.
    """
    z = center(h)
    out = 0
    for x in bits(z):
        if (z >> h.star[x]) & 1:
            out |= 1 << x
    if not (is_closed(h, out) and is_normal(h, out)):
        raise InternalMismatch(f"closed center {members(out)} is not normal and closed")
    return out


@memo
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
    Normality of F inside a member K is decided on the ambient table.
    """

    hypergroup: Hypergroup
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    def closure(self, seed: int) -> int:
        """Smallest closed subset containing the seed: closed subsets meet in
        closed subsets, so it is the first member in order that contains it."""
        if seed == 0:
            raise EmptySet("cannot close an empty seed")
        return next(m for m in self.masks if not seed & ~m)

    @memo
    def supersets(self, f: int) -> tuple[int, ...]:
        """Strict supersets of f in lattice order, scanned once per f."""
        return tuple(m for m in self.masks if m != f and f & ~m == 0)

    def normal_in(self, f: int, k: int) -> bool:
        """F·x inside x·F for every x in k: f normal in the sub-hypergroup on k."""
        return _normalized_by(self.hypergroup, f, k)

    def strongly_normal_in(self, f: int, k: int) -> bool:
        """Is star(x)·F·x inside F for every x in k?"""
        return k & ~strong_normalizer(self.hypergroup, f) == 0

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

    From the trivial subset up, close F | {x} for one x in each double
    coset FxF ≠ F of every found F: any y in FxF gives the same closure,
    since x lies in F·y·F (H3, twice).  Complete, as any closed K is
    reached from a found F ⊂ K through some x in K - F, whose closure
    with F stays inside K; the 2^n subset space is never touched.

    Each found F keeps the generating set it was first reached by:
    gens[{1}] = {1}, and gens[C] = gens[F] | {x} when C is first reached
    from F through x.  F is the closure of gens[F], so the closure of
    gens[F] | {x} is that of F | {x}, and `generated_closure` multiplies
    by that small set rather than by all of F.
    """
    gens = {1: 1}
    work = [1]
    while work:
        f = work.pop()
        rest = h.full & ~f
        while rest:
            x = rest & -rest
            rest &= ~h.set_product(h.set_product(f, x), f)
            seed = gens[f] | x
            c = generated_closure(h, seed)
            if c not in gens:
                gens[c] = seed
                work.append(c)
    masks = tuple(sorted(gens, key=lambda m: (m.bit_count(), m)))
    return ClosedSubsetLattice(hypergroup=h, masks=masks)


def maximal_closed_subsets(h: Hypergroup) -> list[int]:
    return all_closed_subsets(h).maximal_members()
