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

Each kernel is worked out once per hypergroup: `_thin_steps` lists the
strongly normal steps out of a closed subset, for `is_solvable` and the
valencies, and `_normal_quotients` lists (F, H//F) over the normal F for
every quotient statement but `lem-sn`, which visits every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from hyperalg.closed import (
    EmptySet,
    all_closed_subsets,
    closed_center,
    generated_closure,
    is_closed,
    is_normal,
    is_strongly_normal,
    strong_normalizer,
)
from hyperalg.core import Hypergroup, InternalMismatch, bits, members, memo
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
    m = h.table[h.star[a]][h.star[b]]
    m = h.set_product(m, 1 << a)
    return h.set_product(m, 1 << b)


@memo
def _commutator_table(h: Hypergroup) -> tuple[tuple[int, ...], ...]:
    """`commutator_elements(h, a, b)` for every pair, row a, column b."""
    return tuple(tuple(commutator_elements(h, a, b) for b in h.elements())
                 for a in h.elements())


@memo
def commutator_subset(h: Hypergroup, amask: int, bmask: int) -> int:
    """Smallest closed subset containing every elementwise commutator of A x B,
    read from `_commutator_table` and closed by lookup in h's lattice."""
    if amask == 0 or bmask == 0:
        raise EmptySet("commutator of an empty set")
    table = _commutator_table(h)
    bs = members(bmask)
    gen = 0
    for a in bits(amask):
        row = table[a]
        for b in bs:
            gen |= row[b]
    return all_closed_subsets(h).closure(gen)


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
    lat = all_closed_subsets(h)
    meet = h.full
    for m in lat.strongly_normal_members():
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


def _step_order(h: Hypergroup, f: int, k: int) -> int:
    """|K//F| for a strongly normal step F ⊂ K, read from H//F.

    K is closed and contains F, so every double coset FxF with x in K lies
    in K: the blocks of H//F meeting K are exactly the blocks of K//F, with
    the same products, and K projects onto |K//F| of them.  Strong
    normality makes them thin; a block that is not raises InternalMismatch.
    """
    q = build_quotient(h, f)
    image = project_subset(q, k)
    if image & ~q.induced.thin_part:
        raise InternalMismatch(f"step {members(f)} -> {members(k)} is not thin")
    return image.bit_count()


@memo
def _thin_steps(h: Hypergroup, f: int) -> tuple[tuple[int, int], ...]:
    """(K, |K//F|) for every strongly normal step F ⊂ K, K in lattice order."""
    lat = all_closed_subsets(h)
    return tuple((k, _step_order(h, f, k)) for k in lat.supersets(f)
                 if lat.strongly_normal_in(f, k))


@memo
def is_solvable(h: Hypergroup) -> tuple[bool, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Search the lattice for a chain with thin quotients of prime order.

    Returns (verdict, chain of masks from the trivial subset to the whole
    set, per-step quotient orders).  The search is depth-first in lattice
    order with memoised dead ends, so the witness is deterministic and a
    failure is exhaustive.
    """
    dead: set[int] = set()

    def extend(f: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if f == h.full:
            return (f,), ()
        if f in dead:
            return None
        for k, n in _thin_steps(h, f):
            if _prime_factors(n) != (n,):
                continue
            tail = extend(k)
            if tail is not None:
                return (f, *tail[0]), (n, *tail[1])
        dead.add(f)
        return None

    found = extend(1)
    if found is None:
        return False, None, None
    return True, *found


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
    for f in all_closed_subsets(h).masks:
        if f not in val:
            continue
        for k, n in _thin_steps(h, f):
            v = val[f] * n
            if val.setdefault(k, v) != v:
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

@dataclass(frozen=True)
class Verdict:
    statement: str
    status: str
    witness: str | None = None


def _holds(sid: str) -> Verdict:
    return Verdict(sid, HOLDS)


def _skip(sid: str, why: str) -> Verdict:
    return Verdict(sid, HYPOTHESIS_NOT_MET, why)


def _violated(sid: str, witness: str) -> Verdict:
    return Verdict(sid, VIOLATED, witness)


def _check_thm_center(h: Hypergroup, sid: str) -> Verdict:
    nil, _ = is_nilpotent(h)
    if not nil:
        return _skip(sid, "not nilpotent")
    if inv_hypercenter(h) == h.full:
        return _holds(sid)
    return _violated(sid, f"hypercenter stalls at {members(inv_hypercenter(h))}")


def _check_thm_ct(h: Hypergroup, sid: str) -> Verdict:
    if inv_hypercenter(h) != h.full:
        return _skip(sid, "hypercenter never reaches the whole set")
    q = build_quotient(h, thin_residue(h))
    if is_nilpotent(q.induced)[0]:
        return _holds(sid)
    return _violated(sid, "quotient over the thin residue is not nilpotent")


def _check_thm_strongly(h: Hypergroup, sid: str) -> Verdict:
    if not is_nilpotent(h)[0]:
        return _skip(sid, "not nilpotent")
    lat = all_closed_subsets(h)
    for m in lat.masks:
        if m != 1 and not lat.is_strongly_subnormal(m):
            return _violated(sid, f"closed subset {members(m)} not strongly subnormal")
    return _holds(sid)


def _check_thm_ns(h: Hypergroup, sid: str) -> Verdict:
    if not is_nilpotent(h)[0]:
        return _skip(sid, "not nilpotent")
    ok, _chain, _orders = is_solvable(h)
    if ok:
        return _holds(sid)
    return _violated(sid, "no solvability chain exists")


def _check_prop_s(h: Hypergroup, sid: str) -> Verdict:
    """Every closed subset C is nilpotent: its lower central series, taken
    on h's table (`_lower_central`), reaches the trivial subset.  The
    witness is the first member in lattice order that is not."""
    if not is_nilpotent(h)[0]:
        return _skip(sid, "not nilpotent")
    for m in all_closed_subsets(h).masks:
        if _lower_central(h, m)[-1] != 1:
            return _violated(sid, f"closed subset {members(m)} is not nilpotent")
    return _holds(sid)


@memo
def _normal_quotients(h: Hypergroup) -> tuple[tuple[int, Quotient], ...]:
    """(F, H//F) for every normal closed F, in lattice order.

    1 is in F, so X <= X·F <= the union of the blocks FxF meeting X: X·F
    and X project alike, and `project_subset(q, X)` is the image X·F/F.
    """
    return tuple((f, build_quotient(h, f)) for f in all_closed_subsets(h).masks
                 if is_normal(h, f))


def _check_prop_nq(h: Hypergroup, sid: str) -> Verdict:
    if not is_nilpotent(h)[0]:
        return _skip(sid, "not nilpotent")
    for f, q in _normal_quotients(h):
        if not is_nilpotent(q.induced)[0]:
            return _violated(sid, f"quotient over {members(f)} is not nilpotent")
    return _holds(sid)


def _check_lem_cq(h: Hypergroup, sid: str) -> Verdict:
    """[C, D] projects onto [CF/F, DF/F] for every normal F, closed C and D.

    [C, D] is indexed by lattice position once; per F, quotient commutators
    are taken over distinct projections only, and C's row over every D is
    one tuple (a scalar on a one-member lattice).  The witness is the first
    failing (F, C, D) in lattice order.
    """
    masks = all_closed_subsets(h).masks
    where = {m: i for i, m in enumerate(masks)}
    rows = [itemgetter(*(where[commutator_subset(h, c, d)] for d in masks)) for c in masks]
    for f, q in _normal_quotients(h):
        proj = [project_subset(q, m) for m in masks]
        at = {p: i for i, p in enumerate(dict.fromkeys(proj))}
        spread = itemgetter(*(at[p] for p in proj))
        quo = {pc: spread(tuple(commutator_subset(q.induced, pc, pd) for pd in at))
               for pc in at}
        for c, pc, row in zip(masks, proj, rows):
            if quo[pc] != row(proj):
                d = next(d for d, pd in zip(masks, proj)
                         if commutator_subset(q.induced, pc, pd)
                         != proj[where[commutator_subset(h, c, d)]])
                return _violated(
                    sid, f"kernel {members(f)}, C {members(c)}, D {members(d)}")
    return _holds(sid)


def _series_term(series: tuple[int, ...], s: int) -> int:
    """Term number s (1-based) of a stabilised series."""
    return series[min(s - 1, len(series) - 1)]


def _check_cor_n(h: Hypergroup, sid: str) -> Verdict:
    base = lower_central_series(h)
    for f, q in _normal_quotients(h):
        quo = lower_central_series(q.induced)
        for s in range(1, max(len(base), len(quo)) + 2):
            lhs = _series_term(quo, s)
            rhs = project_subset(q, _series_term(base, s))
            if lhs != rhs:
                return _violated(sid, f"kernel {members(f)}, term {s}")
    return _holds(sid)


def _check_lem_cen(h: Hypergroup, sid: str) -> Verdict:
    for f in all_closed_subsets(h).masks:
        if commutator_subset(h, h.full, f) != 1:
            continue
        for x in h.elements():
            for y in bits(f):
                if not h.commutes(x, y):
                    return _violated(sid, f"subset {members(f)}, pair ({x},{y})")
    return _holds(sid)


def _check_lem_qu(h: Hypergroup, sid: str) -> Verdict:
    res = thin_residue(h)
    for f, q in _normal_quotients(h):
        lhs = project_subset(q, res)
        rhs = thin_residue(q.induced)
        if lhs != rhs:
            return _violated(sid, f"kernel {members(f)}")
    return _holds(sid)


def _check_lem_sn(h: Hypergroup, sid: str) -> Verdict:
    lat = all_closed_subsets(h)
    for k in lat.masks:
        q = build_quotient(h, k)
        for f in (k, *lat.supersets(k)):
            pf = project_subset(q, f)
            if not is_closed(q.induced, pf):
                raise InternalMismatch(f"projection of {members(f)} over "
                                       f"{members(k)} is not closed")
            lhs = strong_normalizer(q.induced, pf)
            rhs = project_subset(q, strong_normalizer(h, f))
            if lhs != rhs:
                return _violated(sid, f"kernel {members(k)}, subset {members(f)}")
    return _holds(sid)


def _check_lem_main1(h: Hypergroup, sid: str) -> Verdict:
    for term in closed_center_series(h):
        if not is_closed(h, term) or not is_normal(h, term):
            return _violated(sid, f"series term {members(term)}")
    return _holds(sid)


def _check_lem_com(h: Hypergroup, sid: str) -> Verdict:
    for term in lower_central_series(h):
        if not is_strongly_normal(h, term):
            return _violated(sid, f"series term {members(term)}")
    return _holds(sid)


STATEMENTS: dict[str, tuple[str, object]] = {
    "thm-center": ("nilpotent implies the closed center series reaches the whole set",
                   _check_thm_center),
    "thm-ct": ("a full hypercenter forces the thin-residue quotient to be nilpotent",
               _check_thm_ct),
    "thm-strongly": ("in a nilpotent hypergroup every nontrivial closed subset is "
                     "strongly subnormal", _check_thm_strongly),
    "thm-ns": ("nilpotent implies solvable", _check_thm_ns),
    "prop-s": ("closed subsets of a nilpotent hypergroup are nilpotent", _check_prop_s),
    "prop-nq": ("quotients of a nilpotent hypergroup over normal closed subsets are "
                "nilpotent", _check_prop_nq),
    "lem-cq": ("commutators commute with quotients", _check_lem_cq),
    "cor-n": ("lower central terms of a quotient are the pushed-forward terms",
              _check_cor_n),
    "lem-cen": ("a trivial commutator subset forces elementwise commuting",
                _check_lem_cen),
    "lem-qu": ("the thin residue pushes forward through quotients", _check_lem_qu),
    "lem-sn": ("strong normalizers commute with quotients", _check_lem_sn),
    "lem-main1": ("closed center series terms are normal closed subsets",
                  _check_lem_main1),
    "lem-com": ("lower central terms are strongly normal", _check_lem_com),
}


def statement_ids() -> tuple[str, ...]:
    return tuple(STATEMENTS)


def verify_statement(h: Hypergroup, statement_id: str) -> Verdict:
    try:
        _desc, fn = STATEMENTS[statement_id]
    except KeyError:
        raise UnknownStatement(statement_id) from None
    return fn(h, statement_id)
