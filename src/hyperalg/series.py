"""Commutator series, centers, thin residue, solvability and RT structure.

Indexing convention for the lower central series: the first term is the
whole hypergroup, each later term is the commutator of its predecessor
with the whole hypergroup, and the nilpotency class is the least n whose
(n+1)-st term is trivial (so anything abelian-like has class 1).

Quantities that the theory presents as well defined are cross-checked.
The thin residue is computed as a lattice meet and as a closure.  RT and
valency come from one pass up the closed-subset lattice that gives every
RT closed subset its valency; every thin-quotient step into a subset must
reproduce the value already recorded there, so chain independence is
checked exactly without listing any chain.  A disagreement, or a broken
series invariant, raises InternalMismatch because it can only mean a bug.

Each kernel is worked out once per hypergroup: `_supersets` lists F and the closed K
above it with the image K/F in H//F and whether F ⊂ K is a strongly normal step, the one
home of that edge, read in place by `lem-sn`, strong subnormality (`thm-strongly`),
`is_solvable` and the valencies; `_normal_quotients` lists (F, H//F) over the proper
normal F for the other quotient statements.
Over {1} and H the quotient is H itself and a point: no statement fails there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from hyperalg.closed import (
    EmptySet,
    all_closed_subsets,
    centralizer,
    closed_center,
    generated_closure,
    is_closed,
    is_normal,
    is_strongly_normal,
    strong_normalizer,
)
from hyperalg.core import (LANE, Hypergroup, InternalMismatch, bits, fold_lanes, lanes, members,
                           memo, packed, union_over)
from hyperalg.quotient import Quotient, build_quotient, lift_blocks, project_subset

HOLDS = "holds"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VIOLATED = "VIOLATED"


class NotRT(Exception):
    """No chain of closed subsets with thin quotients exists."""


class UnknownStatement(Exception):
    pass


def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending (none for n = 1)."""
    out = []
    p = 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(out)


def commutator_elements(h: Hypergroup, a: int, b: int) -> int:
    """The element set star(a)·star(b)·a·b."""
    return _commutator_columns(h)[b] >> 64 * a & LANE


@memo
def _commutator_columns(h: Hypergroup) -> tuple[int, ...]:
    """Column b of the commutator table, packed: lane a holds
    star(a)·star(b)·a·b, the OR of the cells y·b over y in
    (star(a)·star(b))·a, read from the table's columns."""
    table, star, cols = h.table, h.star, tuple(zip(*h.table))
    return packed([[union_over(cols[b], union_over(cols[a], table[star[a]][star[b]]))
                    for a in h.elements()] for b in h.elements()])


def commutator_subset(h: Hypergroup, amask: int, bmask: int) -> int:
    """Smallest closed subset containing every elementwise commutator of A x B:
    the lanes of A's members in the OR of B's commutator columns, folded,
    then closed by lookup in h's lattice."""
    if amask == 0 or bmask == 0:
        raise EmptySet("commutator of an empty set")
    gen = fold_lanes(union_over(_commutator_columns(h), bmask) & lanes(amask), h.order)
    return all_closed_subsets(h).closure(gen)


@memo
def _commutator_positions(h: Hypergroup) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(row, table): the position of [C, D], C and D at positions i and j, is
    table[row[i]][row[j]].  `commutator_subset`'s fold reads D only through its commutator
    vector (the OR of its columns), and [C, D] = [D, C] (star reverses products by H3, and
    closed subsets are star-stable), so C too: U·U lookups for U distinct vectors, each
    taken at the first member with that vector, and `row` numbers every member's vector."""
    lat = all_closed_subsets(h)
    vectors = [union_over(_commutator_columns(h), c) for c in lat.masks]
    first: dict[int, int] = {}
    for v, c in zip(vectors, lat.masks):
        first.setdefault(v, c)
    number = {v: r for r, v in enumerate(first)}
    table = tuple(tuple(lat.position(fold_lanes(v & lanes(c), h.order)) for v in first)
                  for c in first.values())
    return tuple(number[v] for v in vectors), table


@memo
def _lower_central(h: Hypergroup, c: int) -> tuple[int, ...]:
    """Lower central series of the closed subset C, on h's own table.

    X1 = C and X(i+1) = [Xi, C] until stable.  C is closed, so the
    commutators and closures of its subsets, taken in h, are C's own.
    """
    series = [c]
    for _ in range(h.order + 1):
        nxt = commutator_subset(h, series[-1], c)
        if nxt & ~series[-1]:
            raise InternalMismatch("lower central series must be descending")
        if nxt == series[-1]:
            break
        series.append(nxt)
    else:
        raise InternalMismatch("lower central series failed to stabilise")
    return tuple(series)


def lower_central_series(h: Hypergroup) -> tuple[int, ...]:
    """Descending commutator series, first term the whole set, stabilised."""
    return _lower_central(h, h.full)


def is_nilpotent(h: Hypergroup) -> tuple[bool, int | None]:
    """Nilpotency verdict plus class (least n whose (n+1)-st term is trivial)."""
    series = lower_central_series(h)
    if series[-1] != 1:
        return False, None
    return True, series.index(1)


@memo
def closed_center_series(h: Hypergroup) -> tuple[int, ...]:
    """Ascending closed-center series from the trivial subset, stabilised.

    Each new term is the union of the blocks forming the closed center of
    the quotient over the previous term; every term is checked to be a
    normal closed subset.
    """
    series = [1]
    for _ in range(h.order + 1):
        q = build_quotient(h, series[-1])
        lifted = lift_blocks(q, closed_center(q.induced))
        if series[-1] & ~lifted:
            raise InternalMismatch("closed center series must be ascending")
        if not (is_closed(h, lifted) and is_normal(h, lifted)):
            raise InternalMismatch(f"center series term {members(lifted)} is not "
                                   "a normal closed subset")
        if lifted == series[-1]:
            break
        series.append(lifted)
    else:
        raise InternalMismatch("closed center series failed to stabilise")
    return tuple(series)


def inv_hypercenter(h: Hypergroup) -> int:
    return closed_center_series(h)[-1]


@memo
def thin_residue(h: Hypergroup) -> int:
    """Smallest strongly normal closed subset, computed two ways.

    Route one intersects all strongly normal members of the lattice;
    route two closes the union of the sets star(x)·x.  The two must agree
    and the result must itself be strongly normal.
    """
    meet = h.full
    for m in all_closed_subsets(h).masks:
        if is_strongly_normal(h, m):
            meet &= m
    gen = 0
    for x in h.elements():
        gen |= h.table[h.star[x]][x]
    closed_route = generated_closure(h, gen)
    if meet != closed_route:
        raise InternalMismatch(
            f"thin residue mismatch: lattice meet {members(meet)} vs "
            f"commutator closure {members(closed_route)}")
    if not is_strongly_normal(h, meet):
        raise InternalMismatch("thin residue is not strongly normal")
    return meet


@memo
def _supersets(h: Hypergroup, f: int) -> tuple[tuple[int, int, bool], ...]:
    """(K, K/F, thin) for F and then every closed K above it, in lattice order.

    A closed K ⊇ F is a union of blocks of H//F (FxF lies in K for x in K), the blocks of
    K//F with the same products: K projects as its block representatives do, in |K//F|
    steps, and the lift of the image must give K back.  `thin` marks a strongly normal
    step, K inside F's strong normalizer, whose image must be thin; else InternalMismatch."""
    q, normalizer = build_quotient(h, f), strong_normalizer(h, f)  # H//F, once
    rows = []
    for k in (f, *all_closed_subsets(h).supersets(f)):
        image, thin = project_subset(q, k & q.reps), k & ~normalizer == 0
        if lift_blocks(q, image) != k:
            raise InternalMismatch(f"{members(k)} is not a union of blocks over {members(f)}")
        if thin and image & ~q.induced.thin_part:
            raise InternalMismatch(f"step {members(f)} -> {members(k)} is not thin")
        rows.append((k, image, thin))
    return tuple(rows)


@memo
def _strongly_subnormal(h: Hypergroup) -> set[int]:
    """Members joined to H by strongly normal steps, in one pass down the lattice:
    f is in when a thin step out of it reaches a member already in."""
    found = {h.full}
    for f in reversed(all_closed_subsets(h).masks[:-1]):
        if any(thin and k in found for k, _, thin in _supersets(h, f)[1:]):
            found.add(f)
    return found


@memo
def is_solvable(h: Hypergroup) -> tuple[bool, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Find a chain with thin quotients of prime order, in one pass down the lattice.

    Returns (verdict, chain of masks from the trivial subset to the whole
    set, per-step quotient orders).  Members are visited largest first; each
    takes its first thin step of prime order, in lattice order, into a member
    already joined to the whole set, followed by that member's chain.  So the
    witness is the one a depth-first search in lattice order finds, and a
    failure is exhaustive.
    """
    chains = {h.full: ((h.full,), ())}
    for f in reversed(all_closed_subsets(h).masks[:-1]):
        for k, image, thin in _supersets(h, f)[1:]:
            if thin and k in chains and _prime_factors(n := image.bit_count()) == (n,):
                chains[f] = (f, *chains[k][0]), (n, *chains[k][1])
                break
    return (True, *chains[1]) if 1 in chains else (False, None, None)


@memo
def _valencies(h: Hypergroup) -> dict[int, int]:
    """Valency of every RT closed subset, in one pass up the lattice.

    A closed subset C is RT when some chain from the trivial subset to C
    has strongly normal steps (thin step quotients); its valency is the
    product of the step-quotient orders.  The closed subsets of C are
    exactly the closed subsets of h inside C, so one pass over h's lattice
    serves every C.  Masks are visited by size, so all steps into C are
    known when C is reached.  Every step must reproduce the value already
    recorded for its target: chain independence is checked, not assumed.
    """
    val = {1: 1}
    for f in all_closed_subsets(h).masks[:-1]:
        if f not in val:
            continue
        for k, image, thin in _supersets(h, f)[1:]:
            if thin and val.setdefault(k, v := val[f] * image.bit_count()) != v:
                raise InternalMismatch(
                    f"valency of {members(k)} is chain dependent: {val[k]} vs {v}")
    return val


def valency(h: Hypergroup) -> int:
    """Product of the step-quotient orders along any thin-quotient chain.

    Read off `_valencies` at the whole set.  Raises NotRT when no chain
    reaches it, InternalMismatch if two chains disagree on the product.
    """
    try:
        return _valencies(h)[h.full]
    except KeyError:
        raise NotRT("no chain of closed subsets with thin quotients") from None


@dataclass(frozen=True)
class RTReport:
    valency: int
    sylow: dict[int, tuple[int, ...]]


def rt_analysis(h: Hypergroup) -> RTReport:
    """Valency and the Sylow p-subsets, both from `_valencies`.

    A closed subset C is a Sylow p-subset when C is itself RT, its
    valency is a power of p (or 1), and it divides the valency of h with
    a quotient prime to p.  Sylow lists follow lattice order.
    """
    n_h = valency(h)
    val = _valencies(h)
    rt_closed = [c for c in all_closed_subsets(h).masks if c in val]
    sylow = {p: tuple(c for c in rt_closed
                      if _prime_factors(val[c]) in ((), (p,))
                      and n_h % val[c] == 0 and (n_h // val[c]) % p != 0)
             for p in _prime_factors(n_h)}
    return RTReport(valency=n_h, sylow=sylow)


# --- statement verification -------------------------------------------------
#
# A hypothesis returns why it fails, or None when it is met; a check returns
# its first witness, or None when the statement holds.  Only
# `verify_statement` turns those into a Verdict.

@dataclass(frozen=True)
class Verdict:
    statement: str
    status: str
    witness: str | None = None


def _nilpotent(h: Hypergroup) -> str | None:
    return None if is_nilpotent(h)[0] else "not nilpotent"


def _full_hypercenter(h: Hypergroup) -> str | None:
    return None if inv_hypercenter(h) == h.full else "hypercenter never reaches the whole set"


def _check_thm_center(h: Hypergroup) -> str | None:
    """Nilpotent implies the closed center series reaches the whole set."""
    top = inv_hypercenter(h)
    return None if top == h.full else f"hypercenter stalls at {members(top)}"


def _check_thm_ct(h: Hypergroup) -> str | None:
    """A full hypercenter forces the thin-residue quotient to be nilpotent."""
    q = build_quotient(h, thin_residue(h))
    if is_nilpotent(q.induced)[0]:
        return None
    return "quotient over the thin residue is not nilpotent"


def _check_thm_strongly(h: Hypergroup) -> str | None:
    """In a nilpotent hypergroup every nontrivial closed subset is strongly
    subnormal."""
    found = _strongly_subnormal(h)
    for m in all_closed_subsets(h).masks[1:]:
        if m not in found:
            return f"closed subset {members(m)} not strongly subnormal"
    return None


def _check_thm_ns(h: Hypergroup) -> str | None:
    """Nilpotent implies solvable."""
    return None if is_solvable(h)[0] else "no solvability chain exists"


def _check_prop_s(h: Hypergroup) -> str | None:
    """Closed subsets of a nilpotent hypergroup are nilpotent.

    Every closed subset C is nilpotent: its lower central series, taken on
    h's table (`_lower_central`), reaches the trivial subset.  The witness
    is the first member in lattice order that is not.
    """
    for m in all_closed_subsets(h).masks:
        if _lower_central(h, m)[-1] != 1:
            return f"closed subset {members(m)} is not nilpotent"
    return None


@memo
def _normal_quotients(h: Hypergroup) -> tuple[tuple[int, Quotient], ...]:
    """(F, H//F) for every proper normal closed F, in lattice order.

    1 is in F, so X <= X·F <= the union of the blocks FxF meeting X: X·F
    and X project alike, and `project_subset(q, X)` is the image X·F/F.
    """
    return tuple((f, build_quotient(h, f)) for f in all_closed_subsets(h).masks[1:-1]
                 if is_normal(h, f))


def _check_prop_nq(h: Hypergroup) -> str | None:
    """Quotients of a nilpotent hypergroup over normal closed subsets are
    nilpotent."""
    for f, q in _normal_quotients(h):
        if not is_nilpotent(q.induced)[0]:
            return f"quotient over {members(f)} is not nilpotent"
    return None


def _check_lem_cq(h: Hypergroup) -> str | None:
    """Commutators commute with quotients: [C, D] projects onto [CF/F, DF/F] for every
    proper normal F, closed C and D.  Per F, C is read only through its key (row of C,
    quotient row of CF/F) in `_commutator_positions` of h and H//F, so each ordered pair
    of distinct keys is compared once; a failing F is rescanned for (C, D)."""
    masks = all_closed_subsets(h).masks
    for f, q in _normal_quotients(h):
        at = all_closed_subsets(q.induced).index.get
        proj = [at(project_subset(q, m)) for m in masks]
        if None in proj:
            raise InternalMismatch(f"projection of {members(masks[proj.index(None)])} "
                                   f"over {members(f)} is not closed")
        (row, table), (qrow, qtable) = _commutator_positions(h), _commutator_positions(q.induced)
        keys = set(zip(row, map(qrow.__getitem__, proj)))
        if any(proj[table[r][t]] != qtable[s][u] for r, s in keys for t, u in keys):
            return next(f"kernel {members(f)}, C {members(c)}, D {members(d)}"
                        for c, r, p in zip(masks, row, proj) for d, t, pd in zip(masks, row, proj)
                        if proj[table[r][t]] != qtable[qrow[p]][qrow[pd]])
    return None


def _series_term(series: tuple[int, ...], s: int) -> int:
    """Term number s (1-based) of a stabilised series."""
    return series[min(s - 1, len(series) - 1)]


def _check_cor_n(h: Hypergroup) -> str | None:
    """Lower central terms of a quotient are the pushed-forward terms."""
    base = lower_central_series(h)
    for f, q in _normal_quotients(h):
        quo = lower_central_series(q.induced)
        for s in range(1, max(len(base), len(quo)) + 2):
            if _series_term(quo, s) != project_subset(q, _series_term(base, s)):
                return f"kernel {members(f)}, term {s}"
    return None


def _check_lem_cen(h: Hypergroup) -> str | None:
    """A trivial commutator subset forces elementwise commuting.

    Every closed F with [H, F] = 1 must have all of H as its centralizer.
    The witness is the least x outside it and the first member of F that
    x does not commute with.
    """
    for f in all_closed_subsets(h).masks:
        if commutator_subset(h, h.full, f) != 1:
            continue
        outside = h.full & ~centralizer(h, f)
        if outside:
            x = (outside & -outside).bit_length() - 1
            y = next(y for y in bits(f) if not h.commutes(x, y))
            return f"subset {members(f)}, pair ({x},{y})"
    return None


def _check_lem_qu(h: Hypergroup) -> str | None:
    """The thin residue pushes forward through quotients."""
    res = thin_residue(h)
    for f, q in _normal_quotients(h):
        if project_subset(q, res) != thin_residue(q.induced):
            return f"kernel {members(f)}"
    return None


def _check_lem_sn(h: Hypergroup) -> str | None:
    """Strong normalizers commute with quotients, over every proper kernel."""
    for k in all_closed_subsets(h).masks[1:-1]:
        q = build_quotient(h, k)
        for f, pf, _ in _supersets(h, k):
            if not is_closed(q.induced, pf):
                raise InternalMismatch(f"projection of {members(f)} over "
                                       f"{members(k)} is not closed")
            if strong_normalizer(q.induced, pf) != project_subset(q, strong_normalizer(h, f)):
                return f"kernel {members(k)}, subset {members(f)}"
    return None


def _check_lem_main1(h: Hypergroup) -> str | None:
    """Closed center series terms are normal closed subsets.  `closed_center_series`
    enforces this, so a fault raises InternalMismatch and never yields VIOLATED."""
    closed_center_series(h)
    return None


def _check_lem_com(h: Hypergroup) -> str | None:
    """Lower central terms are strongly normal."""
    for term in lower_central_series(h):
        if not is_strongly_normal(h, term):
            return f"series term {members(term)}"
    return None


# id -> (hypothesis or None, check), in report order.
STATEMENTS: dict[str, tuple[Callable | None, Callable]] = {
    "thm-center": (_nilpotent, _check_thm_center),
    "thm-ct": (_full_hypercenter, _check_thm_ct),
    "thm-strongly": (_nilpotent, _check_thm_strongly),
    "thm-ns": (_nilpotent, _check_thm_ns),
    "prop-s": (_nilpotent, _check_prop_s),
    "prop-nq": (_nilpotent, _check_prop_nq),
    "lem-cq": (None, _check_lem_cq),
    "cor-n": (None, _check_cor_n),
    "lem-cen": (None, _check_lem_cen),
    "lem-qu": (None, _check_lem_qu),
    "lem-sn": (None, _check_lem_sn),
    "lem-main1": (None, _check_lem_main1),
    "lem-com": (None, _check_lem_com),
}


def statement_ids() -> tuple[str, ...]:
    return tuple(STATEMENTS)


def verify_statement(h: Hypergroup, statement_id: str) -> Verdict:
    """HYPOTHESIS_NOT_MET with the reason, else HOLDS or VIOLATED with the
    check's first witness."""
    try:
        hypothesis, check = STATEMENTS[statement_id]
    except KeyError:
        raise UnknownStatement(statement_id) from None
    unmet = hypothesis(h) if hypothesis else None
    if unmet:
        return Verdict(statement_id, HYPOTHESIS_NOT_MET, unmet)
    witness = check(h)
    return Verdict(statement_id, HOLDS if witness is None else VIOLATED, witness)
