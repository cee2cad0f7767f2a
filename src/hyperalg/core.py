"""Finite hypergroups over bitmask element sets.

Elements are indices 0..order-1 with the identity pinned at index 0.
Subsets of elements are plain ints used as bit vectors (bit i set means
element i is a member), so all set algebra is bitwise arithmetic and a
table cell is just an int.  Orders above 64 are rejected; every target
computation lives at order <= 60.

A table is valid when

  (H1)  p(qr) = (pq)r          for all elements p, q, r,
  (H2)  s * 1 = {s}            for all s (column 0 forced),
  (H3)  r in pq  implies  q in p*r  and  p in rq*,

where p* is the inverse partner derived from the table: the unique q
with 1 in pq.  The left-identity row and the involutivity of * are
consequences of H2/H3 and are checked, never trusted.  Each hypergroup
packs its rows and columns once into 64-bit lanes; set products, vector
products and the H1 check (slabs of a few middle elements) read them.

Valid hypergroups are interned by table: validating a table seen before
returns the existing instance, so everything memoised on it (see
:func:`memo`) is shared by every route that arrives at that table.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass, field
from functools import partial, wraps
from itertools import chain
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 64
SLAB_LANES = 1 << 14  # lanes of one associativity slab: 128 KiB per side

# Normalized cell tuple -> the validated instance, while anything holds it.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_MISSING = object()


def memo(fn):
    """Cache ``fn(obj, *args)`` on ``obj``, keyed by the function and ``args``.

    The one memoisation mechanism of the package: results live in
    ``obj.__dict__`` and die with ``obj``.  An exception is not cached, so
    a failing call fails again every time.
    """
    @wraps(fn)
    def cached(obj, *args):
        store = obj.__dict__.get("_memo")
        if store is None:
            store = obj.__dict__["_memo"] = {}
        key = (fn, args)
        got = store.get(key, _MISSING)
        if got is _MISSING:
            got = store[key] = fn(obj, *args)
        return got
    return cached


def mask_of(members: Iterable[int]) -> int:
    """Pack an iterable of element indices into a bitmask."""
    m = 0
    for x in members:
        m |= 1 << x
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def union_over(vectors: Sequence[int], mask: int) -> int:
    """OR of ``vectors[i]`` over the members i of a mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= vectors[low.bit_length() - 1]
        mask ^= low
    return acc


def packed(lines: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Each line of cells as one int, cell x in 64-bit lane x."""
    return tuple([int.from_bytes(array("Q", cells), "little") for cells in lines])


LANE = (1 << 64) - 1  # one 64-bit lane of a packed line
_BYTE_LANES = [0]  # entry c: the lanes of the members of the byte c, all ones
for _bit in range(8):
    _BYTE_LANES += [v | LANE << 64 * _bit for v in _BYTE_LANES]


def lanes(mask: int) -> int:
    """All ones in lane x for every member x of a mask, 0 elsewhere."""
    acc = shift = 0
    while mask:
        acc |= _BYTE_LANES[mask & 255] << shift
        mask >>= 8
        shift += 512
    return acc


def fold_lanes(v: int, n: int) -> int:
    """OR of the first n lanes of v, which holds nothing above them: lane i
    takes in lane i + ceil(k/2) while k > 1 lanes are left."""
    while n > 1:
        n = (n + 1) >> 1
        v |= v >> 64 * n
    return v & LANE


class InternalMismatch(Exception):
    """Two routes to the same quantity disagreed; this is a bug, not data."""


class HypergroupError(Exception):
    """Base class for table-validation failures: the first witness (a bare index
    for a row, else a tuple), the count of all, and each subclass's message template."""

    message = ""

    def __init__(self, *witness: int, count: int = 1):
        self.witness = witness[0] if len(witness) == 1 else witness
        self.count = count
        super().__init__(self.message.format(*witness, count=count))

    def __reduce__(self):  # rebuilt from the witness and count, not from the message
        witness = self.witness if isinstance(self.witness, tuple) else (self.witness,)
        return partial(type(self), *witness, count=self.count), ()


class EmptyProduct(HypergroupError):
    message = "empty product at cell ({},{}); {count} empty cell(s) total"


class IdentityViolation(HypergroupError):
    message = "row {0}: product with the identity is not {{{0}}}; {count} row(s) violate"


class NoInverse(HypergroupError):
    message = "row {} has no cell containing the identity; {count} row(s) affected"


class AmbiguousInverse(HypergroupError):
    message = "row {} has several cells containing the identity; {count} row(s) affected"


class AssocViolation(HypergroupError):
    message = "associativity fails at triple ({},{},{}); {count} triple(s) fail"


class ExchangeViolation(HypergroupError):
    message = "exchange condition fails at triple ({},{},{}); {count} triple(s) fail"


@dataclass(frozen=True)
class Hypergroup:
    """A validated finite hypergroup.

    Instances are immutable: ``table`` is a tuple of row tuples of cell
    masks and ``star`` is the derived inverse permutation.  Construct via
    :func:`validate`; the constructor itself does not re-check anything.
    :func:`validate` interns instances by table, so one table has one
    instance per process while it is referenced.  Derived data (lattices,
    quotients, series, ...) is cached on the instance by :func:`memo`.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    # Row a, column b as one int of 64-bit lanes: lane x holds a·x, x·b.
    packed_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    packed_cols: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Mask of the thin elements s (s*·s = {1}); always holds the identity.
    thin_part: int = field(init=False, repr=False, compare=False)
    star_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)  # x: 1 << star(x)

    def __post_init__(self) -> None:
        rows, cols = packed(self.table), tuple(zip(*self.table))
        object.__setattr__(self, "packed_rows", rows)
        object.__setattr__(self, "packed_cols", rows if cols == self.table else packed(cols))
        object.__setattr__(self, "thin_part", mask_of(
            s for s, t in enumerate(self.star) if self.table[t][s] == 1))
        object.__setattr__(self, "star_bits", tuple(1 << t for t in self.star))

    def __reduce__(self):
        # Unpickling goes through the validator, so copies are interned too.
        return validate, (self.order, self.table)

    @property
    def full(self) -> int:
        return (1 << self.order) - 1

    def elements(self) -> range:
        return range(self.order)

    def set_product(self, p: int, q: int) -> int:
        """Union of the cells a·b over a in p, b in q (total, empty-safe): lane x
        of the OR of q's packed columns is x·q, and p's lanes are folded."""
        return fold_lanes(union_over(self.packed_cols, q) & lanes(p), self.order)

    def left_products(self, p: int) -> array:
        """p·x for every element x: the OR of the packed rows of p's members."""
        return array("Q", union_over(self.packed_rows, p).to_bytes(8 * self.order, "little"))

    def right_products(self, p: int) -> array:
        """x·p for every element x: the OR of the packed columns of p's members."""
        return array("Q", union_over(self.packed_cols, p).to_bytes(8 * self.order, "little"))

    def set_star(self, s: int) -> int:
        """star(x) for every member x of s: the OR of their star bits."""
        return union_over(self.star_bits, s)

    def is_thin(self) -> bool:
        return self.thin_part == self.full

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]


def _as_mask(cell, order: int) -> int:
    m = cell if isinstance(cell, int) else mask_of(cell)
    if m < 0 or m >> order:
        raise ValueError(f"cell mask {m:#x} has members outside 0..{order - 1}")
    return m


def _associativity_failures(h: Hypergroup) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with (ij)k != i(jk), ascending.

    For SLAB_LANES // n² middle elements j at a time (at least one), the
    slab (ij)k is joined from the OR of h's packed rows in each cell ij, and
    i(jk) from the OR of its packed columns in each cell jk; the slabs, of
    at most max(n², SLAB_LANES) lanes, are compared as bytes, and only
    their differing lanes are listed.
    """
    table, n, width = h.table, h.order, 8 * h.order
    rows, cols = h.packed_rows, h.packed_cols
    cells = {cell for row in table for cell in row}
    row_or = {c: union_over(rows, c).to_bytes(width, "little") for c in cells}  # c·k over k
    col_or = row_or if cols is rows else {  # i·c over i
        c: union_over(cols, c).to_bytes(width, "little") for c in cells}
    step = max(1, SLAB_LANES // (n * n))
    failures = []
    for j0 in range(0, n, step):
        g = min(step, n - j0)  # middle elements j0 .. j0 + g - 1
        left = b"".join(map(row_or.__getitem__, chain.from_iterable(
            [row[j0:j0 + g] for row in table])))  # (ij)k at (i·g + j - j0)·n + k
        right = array("Q", b"".join(map(col_or.__getitem__, chain.from_iterable(
            table[j0:j0 + g]))))  # i(jk) at ((j - j0)·n + k)·n + i
        right = b"".join([right[i::n] for i in range(n)])  # now as left
        if left != right:
            diff = int.from_bytes(left, "little") ^ int.from_bytes(right, "little")
            while diff:
                p = ((diff & -diff).bit_length() - 1) >> 6
                i, jk = divmod(p, g * n)
                failures.append((i, j0 + jk // n, jk % n))
                diff &= -1 << 64 * (p + 1)  # lanes below p are already clear
    return sorted(failures)


def validate(order: int, raw_table: Sequence[Sequence[int]] | Sequence[Sequence[Iterable[int]]]) -> Hypergroup:
    """Check the hypergroup axioms on a raw table and build the value.

    Cells may be given as masks or as iterables of indices.  Checks run
    in a fixed order (empties, right identity, inverse derivation,
    associativity, exchange) and the first failing check raises with its
    first witness plus the count of all violations of that check; for
    associativity that is the smallest failing (i, j, k), found a few
    middle elements at a time (see :func:`_associativity_failures`).  A
    table that passed before returns its interned instance without
    re-checking; an invalid table is never stored, so it raises on every call.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported maximum {MAX_ORDER}")
    if len(raw_table) != order or any(len(row) != order for row in raw_table):
        raise ValueError("table must be square of side `order`")

    shared: dict[int, int] = {}  # equal cells share one int: n per group table, not n²
    table = tuple(tuple(map(shared.setdefault, row, row)) for row in (
        row if set(map(type, row)) == {int} and min(row) >= 0 and not max(row) >> order
        else [_as_mask(c, order) for c in row] for row in raw_table))
    known = _INTERNED.get(table)
    if known is not None:
        return known

    if any(0 in row for row in table):
        empties = [(i, j) for i in range(order) for j in range(order) if table[i][j] == 0]
        raise EmptyProduct(*empties[0], count=len(empties))

    bad_id = [i for i in range(order) if table[i][0] != 1 << i]
    if bad_id:
        raise IdentityViolation(bad_id[0], count=len(bad_id))

    # Per row i, the j with the identity in i·j; star(i) is the only one.
    inverses = [[j for j in range(order) if table[i][j] & 1] for i in range(order)]
    bad = [i for i in range(order) if len(inverses[i]) != 1]
    if bad:
        error = AmbiguousInverse if inverses[bad[0]] else NoInverse
        raise error(bad[0], count=sum(bool(inverses[i]) == bool(inverses[bad[0]]) for i in bad))
    star = [js[0] for js in inverses]

    h = Hypergroup(order=order, table=table, star=tuple(star))

    assoc_bad = _associativity_failures(h)
    if assoc_bad:
        raise AssocViolation(*assoc_bad[0], count=len(assoc_bad))

    cols = [*zip(*table)]  # k in i·j needs j in star(i)·k and i in k·star(j)
    exch_bad = []
    for i, row in enumerate(table):
        row_si = table[star[i]]
        for j, cell in enumerate(row):
            col_sj = cols[star[j]]
            while cell:
                k = (cell & -cell).bit_length() - 1
                if not row_si[k] >> j & 1 or not col_sj[k] >> i & 1:
                    exch_bad.append((i, j, k))
                cell &= cell - 1
    if exch_bad:
        raise ExchangeViolation(*exch_bad[0], count=len(exch_bad))

    # Consequences of the axioms; a failure here is a validator bug.
    if (star[0] != 0 or any(star[star[i]] != i for i in range(order))
            or any(table[0][j] != 1 << j for j in range(order))):
        raise InternalMismatch("star(1) = 1, star(star(x)) = x or 1·x = {x} fails")
    _INTERNED[table] = h
    return h
