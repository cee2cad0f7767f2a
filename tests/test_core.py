import gc
import pickle
import random
import weakref
from collections import Counter
from itertools import product
from unittest import mock

import pytest

from group_oracle import is_group_check
from hyperalg import core, enumeration, series
from hyperalg.closed import all_closed_subsets
from hyperalg.core import (
    AmbiguousInverse,
    AssocViolation,
    EmptyProduct,
    ExchangeViolation,
    HypergroupError,
    IdentityViolation,
    InternalMismatch,
    NoInverse,
    mask_of,
    members,
    validate,
)
from hyperalg.groups import builtin_groups, cyclic, direct_product, from_group
from hyperalg.quotient import build_quotient
from hyperalg.report import analyze
from naive_enumeration import branch_candidates
from set_products import left_products_by_element, right_products_by_element, set_product_many

C2 = [[1, 2], [2, 1]]
NONTHIN2 = [[1, 2], [2, 3]]

# Order-3 tables that pass the early checks and die on one specific axiom,
# mined from the exhaustive sweep.
ASSOC_BAD3 = [[1, 2, 4], [2, 1, 2], [4, 1, 2]]
EXCH_BAD3 = [[1, 2, 4], [2, 2, 7], [4, 2, 5]]


def test_validate_c2():
    h = validate(2, C2)
    assert h.order == 2 and h.star == (0, 1)
    assert h.table == ((1, 2), (2, 1))


def test_validate_accepts_member_lists():
    h = validate(2, [[[0], [1]], [[1], [0, 1]]])
    assert h.table == ((1, 2), (2, 3))


def test_no_inverse_when_identity_never_appears():
    with pytest.raises(NoInverse) as err:
        validate(2, [[1, 2], [2, 2]])  # a·a = {a}
    assert err.value.witness == 1 and err.value.count == 1


def test_nonthin_order2_is_valid():
    h = validate(2, NONTHIN2)
    assert h.star == (0, 1)
    assert not h.thin_part >> 1 & 1


def test_empty_product_reported_with_count():
    with pytest.raises(EmptyProduct) as err:
        validate(2, [[1, 0], [2, 0]])
    assert err.value.witness == (0, 1) and err.value.count == 2


def test_identity_violation():
    with pytest.raises(IdentityViolation) as err:
        validate(2, [[1, 2], [3, 1]])
    assert err.value.witness == 1


def test_ambiguous_inverse():
    # row 1 sees the identity in two cells
    with pytest.raises(AmbiguousInverse) as err:
        validate(3, [[1, 2, 4], [2, 1, 1], [4, 4, 1]])
    assert err.value.witness == 1 and err.value.count == 1


@pytest.mark.parametrize("table, error", [
    ([[1, 2, 4], [2, 1, 1], [4, 4, 4]], AmbiguousInverse),  # row 2 has none
    ([[1, 2, 4], [2, 2, 2], [4, 1, 1]], NoInverse),         # row 2 has two
])
def test_first_row_without_one_inverse_names_the_error(table, error):
    """Rows with no identity-bearing cell and rows with several: the first
    such row names the error, and the count is of the rows like it."""
    with pytest.raises(error) as err:
        validate(3, table)
    assert err.value.witness == 1 and err.value.count == 1


def test_assoc_violation_witness():
    with pytest.raises(AssocViolation) as err:
        validate(3, ASSOC_BAD3)
    assert err.value.witness == (1, 1, 2) and err.value.count == 7


def test_exchange_violation_witness():
    with pytest.raises(ExchangeViolation) as err:
        validate(3, EXCH_BAD3)
    assert err.value.witness == (1, 0, 1) and err.value.count == 4


# (error class, witness, message with count=5) for the six validation errors.
VALIDATION_ERRORS = [
    (EmptyProduct, (1, 2), "empty product at cell (1,2); 5 empty cell(s) total"),
    (IdentityViolation, (3,), "row 3: product with the identity is not {3}; 5 row(s) violate"),
    (NoInverse, (2,), "row 2 has no cell containing the identity; 5 row(s) affected"),
    (AmbiguousInverse, (4,), "row 4 has several cells containing the identity; 5 row(s) affected"),
    (AssocViolation, (1, 2, 3), "associativity fails at triple (1,2,3); 5 triple(s) fail"),
    (ExchangeViolation, (0, 1, 2), "exchange condition fails at triple (0,1,2); 5 triple(s) fail"),
]


@pytest.mark.parametrize("exc, witness, message", VALIDATION_ERRORS)
def test_validation_error_messages(exc, witness, message):
    err = exc(*witness, count=5)
    assert isinstance(err, HypergroupError)
    assert err.args == (message,)
    assert err.witness == (witness[0] if len(witness) == 1 else witness)
    assert err.count == 5
    assert exc(*witness).count == 1


@pytest.mark.parametrize("exc, witness, message", VALIDATION_ERRORS)
def test_validation_errors_survive_pickling(exc, witness, message):
    """Unpickling rebuilds the error from its witness and count, not its message."""
    err = pickle.loads(pickle.dumps(exc(*witness, count=5)))
    assert type(err) is exc
    assert str(err) == message
    assert err.witness == (witness[0] if len(witness) == 1 else witness)
    assert err.count == 5


def test_order_bounds():
    with pytest.raises(ValueError):
        validate(0, [])
    with pytest.raises(ValueError):
        validate(65, [[1] * 65] * 65)
    with pytest.raises(ValueError):
        validate(2, [[1, 2]])  # not square


def test_trivial_hypergroup():
    h = validate(1, [[1]])
    assert h.is_thin() and h.star == (0,)


def test_set_product_basics(nonthin2):
    h = validate(2, C2)
    assert h.set_product(2, 1) == 2          # {a}·{1} = {a}
    assert h.set_product(0, 3) == 0          # empty operand
    assert nonthin2.set_product(3, 3) == 3   # {1,a}·{1,a} = {1,a}


def test_set_star():
    h = validate(2, C2)
    assert h.set_star(1) == 1
    assert h.set_star(2) == 2


def test_set_star_is_involution(small_corpus):
    for h in small_corpus:
        for s in range(h.full + 1):
            assert h.set_star(h.set_star(s)) == s


def test_thin_parts(c2_thin, nonthin2, s3):
    assert c2_thin.thin_part == c2_thin.full and c2_thin.is_thin()
    assert nonthin2.thin_part == 1 and not nonthin2.is_thin()
    assert s3.is_thin()
    for h in (c2_thin, nonthin2, s3):
        assert h.thin_part & 1


def test_is_group_check_agrees_with_thinness(small_corpus):
    for h in small_corpus:
        assert is_group_check(h.table) == h.is_thin()


def test_star_antihomomorphism_exhaustive(small_corpus):
    """star(A·B) = star(B)·star(A), checked over every subset pair."""
    for h in small_corpus:
        if h.order > 3:
            continue
        for a in range(h.full + 1):
            for b in range(h.full + 1):
                assert h.set_star(h.set_product(a, b)) == \
                    h.set_product(h.set_star(b), h.set_star(a))


def test_identity_membership_characterises_inverses(small_corpus):
    for h in small_corpus:
        for p in h.elements():
            for q in h.elements():
                has_identity = bool(h.table[p][q] & 1)
                assert has_identity == (q == h.star[p])
                assert has_identity == (p == h.star[q])


# A valid order-4 hypergroup falsifying "identity in the commutator implies
# commuting": cells (1,2) = {2} and (2,1) = {1,2} intersect without being
# equal, yet 1 ∈ [1,2].  Found by the exhaustive order-4 sweep and pinned
# here; re-validated from scratch on every run.
COMMUTATION_COUNTEREXAMPLE = [
    [1, 2, 4, 8],
    [2, 2, 4, 15],
    [4, 6, 15, 4],
    [8, 11, 12, 8],
]


def _commutator(h, a, b):
    return set_product_many(h, 1 << h.star[a], 1 << h.star[b], 1 << a, 1 << b)


def test_commuting_implies_identity_in_commutator(small_corpus):
    for h in small_corpus:
        for a in h.elements():
            for b in h.elements():
                if h.commutes(a, b):
                    assert _commutator(h, a, b) & 1


def test_identity_in_commutator_iff_products_intersect(small_corpus):
    for h in small_corpus + [validate(4, COMMUTATION_COUNTEREXAMPLE)]:
        for a in h.elements():
            for b in h.elements():
                meets = bool(h.table[a][b] & h.table[b][a])
                assert bool(_commutator(h, a, b) & 1) == meets


def test_singleton_commutator_forces_commuting(small_corpus):
    for h in small_corpus + [validate(4, COMMUTATION_COUNTEREXAMPLE)]:
        for a in h.elements():
            for b in h.elements():
                if _commutator(h, a, b) == 1:
                    assert h.commutes(a, b)


def test_commutation_biconditional_holds_up_to_order_3(small_corpus):
    for h in small_corpus:
        if h.order > 3:
            continue
        for a in h.elements():
            for b in h.elements():
                assert h.commutes(a, b) == bool(_commutator(h, a, b) & 1)


def test_commutation_biconditional_fails_at_order_4():
    h = validate(4, COMMUTATION_COUNTEREXAMPLE)  # passes all axioms
    assert h.star == (0, 3, 2, 1)
    assert h.table[1][2] == 4 and h.table[2][1] == 6  # {2} vs {1,2}
    assert not h.commutes(1, 2)
    assert _commutator(h, 1, 2) & 1  # identity in the commutator anyway


def test_revalidation_reproduces_star(small_corpus):
    for h in small_corpus:
        again = validate(h.order, h.table)
        assert again.star == h.star and again.table == h.table


def test_validate_interns_by_table():
    h = validate(2, NONTHIN2)
    assert validate(2, [[{0}, {1}], [{1}, {0, 1}]]) is h  # same table, other spelling
    assert validate(2, C2) is not h


def test_pickle_round_trip_is_the_interned_instance(thin_imports):
    """Pickling drops the memo store (its keys are functions): the copy is
    rebuilt by the validator and so is the interned instance itself."""
    d4 = thin_imports["d4"]
    analyze(d4, name="d4")
    assert pickle.loads(pickle.dumps(d4)) is d4


@pytest.mark.parametrize("raw, exc, witness, count", [
    (ASSOC_BAD3, AssocViolation, (1, 1, 2), 7),
    (EXCH_BAD3, ExchangeViolation, (1, 0, 1), 4),
    ([[1, 2], [2, 0]], EmptyProduct, (1, 1), 1),
])
def test_invalid_tables_are_never_interned(raw, exc, witness, count):
    key = tuple(tuple(row) for row in raw)
    for _ in range(2):
        with pytest.raises(exc) as err:
            validate(len(raw), raw)
        assert (err.value.witness, err.value.count) == (witness, count)
        assert key not in core._INTERNED


def test_intern_entry_dies_with_last_reference():
    """The memo's lattice and quotients point back at the instance, so a
    filled memo is a reference cycle: the entry goes once it is collected."""
    n = 13  # no fixture keeps a cyclic group of this order alive
    raw = [[1 << (i + j) % n for j in range(n)] for i in range(n)]
    key = tuple(tuple(row) for row in raw)
    h = validate(n, raw)
    assert core._INTERNED[key] is h
    all_closed_subsets(h)
    build_quotient(h, h.full)
    series._supersets(h, 1)
    assert len(h._memo) >= 3
    del h
    gc.collect()
    assert key not in core._INTERNED


def test_subset_associativity_exhaustive(enum2, enum3):
    for h in list(enum2.survivors) + list(enum3.survivors):
        full = h.full
        for a, b, c in product(range(full + 1), repeat=3):
            assert h.set_product(a, h.set_product(b, c)) == \
                h.set_product(h.set_product(a, b), c)


def fresh_result(order, raw):
    """validate against a fresh intern store: ("valid", table, cell type names)
    or (error class name, message)."""
    with mock.patch.object(core, "_INTERNED", weakref.WeakValueDictionary()):
        try:
            h = validate(order, raw)
        except (HypergroupError, ValueError, TypeError) as err:
            return type(err).__name__, str(err)
    return "valid", h.table, tuple(type(c).__name__ for row in h.table for c in row)


@pytest.mark.parametrize("order, raw, want", [
    # A bool is an int: it is kept as given, and False is an empty cell.
    (2, [[True, 2], [2, True]], ("valid", ((1, 2), (2, 1)), ("bool", "int", "int", "bool"))),
    (2, [[1, 2], [2, False]], ("EmptyProduct", "empty product at cell (1,1); 1 empty cell(s) total")),
    (2, [[1, 2], [2, -1]], ("ValueError", "cell mask -0x1 has members outside 0..1")),
    (2, [[1, 2], [2, 4]], ("ValueError", "cell mask 0x4 has members outside 0..1")),
    (3, [[1, 2, 4], [2, 9, -1], [4, 1, 2]], ("ValueError", "cell mask 0x9 has members outside 0..2")),
    (2, [[[0], [1]], [[1], (0, 1)]], ("valid", ((1, 2), (2, 3)), ("int",) * 4)),
    (2, [[1, 2], [2, [2]]], ("ValueError", "cell mask 0x4 has members outside 0..1")),
    (2, [[1, 2], [2, [-1]]], ("ValueError", "negative shift count")),
    (2, [[1, 2], [2, 1.0]], ("TypeError", "'float' object is not iterable")),
    (2, [[1, [1]], [2, 8]], ("ValueError", "cell mask 0x8 has members outside 0..1")),
    (3, [[1, 2, [2]], [[1], 4, 1], [4, {0}, 2]], ("valid", ((1, 2, 4), (2, 4, 1), (4, 1, 2)), ("int",) * 9)),
    (3, [[1, 2, [2]], [[1], 1, 4], [4, {2}, 1]],
     ("AssocViolation", "associativity fails at triple (1,2,2); 2 triple(s) fail")),
])
def test_cells_that_are_not_plain_masks(order, raw, want):
    """Bools, out-of-range ints, member iterables and rows mixing them: the
    table, or the first failing cell's error in row-major order."""
    assert fresh_result(order, raw) == want


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert members(0b100101) == (0, 2, 5)
    assert members(0) == ()


def triple_loop_failures(h):
    """Every (i, j, k) with (ij)k != i(jk), ascending, one triple at a time
    (oracle for the validator's slab comparison)."""
    table, n = h.table, h.order
    failures = []
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            ij = row_i[j]
            row_j = table[j]
            for k in range(n):
                left = 0
                jk = row_j[k]
                while jk:
                    lo = jk & -jk
                    left |= row_i[lo.bit_length() - 1]
                    jk ^= lo
                right = 0
                m = ij
                while m:
                    lo = m & -m
                    right |= table[lo.bit_length() - 1][k]
                    m ^= lo
                if left != right:
                    failures.append((i, j, k))
    return failures


def outcome(order, raw, failures):
    """(error class, witness, count) of a full validation with `failures` as
    the associativity route, or None for a valid table.  A fresh intern store
    makes every call run every check."""
    with mock.patch.multiple(core, _INTERNED=weakref.WeakValueDictionary(),
                             _associativity_failures=failures):
        try:
            validate(order, raw)
        except HypergroupError as err:
            return type(err).__name__, err.witness, err.count
    return None


def check_against_oracle(order, raw):
    """The slab route lists the oracle's triples, and validate reports the
    oracle's outcome; returns that outcome."""
    table = tuple(tuple(row) for row in raw)
    unchecked = core.Hypergroup(order=order, table=table, star=(0,) * order)
    assert core._associativity_failures(unchecked) == triple_loop_failures(unchecked)
    got = outcome(order, raw, core._associativity_failures)
    assert got == outcome(order, raw, triple_loop_failures), table
    return got


def random_cell(rng, order):
    """A nonempty cell: a singleton or a random mask, equally often."""
    if rng.random() < 0.5:
        return 1 << rng.randrange(order)
    return rng.randrange(1, 1 << order)


def random_free_cell(rng, order):
    """A nonempty cell avoiding the identity (order >= 2)."""
    return random_cell(rng, order) & ~1 or 1 << rng.randrange(1, order)


def test_validate_matches_oracle_on_random_tables():
    rng = random.Random(20261018)
    reached = Counter()
    for order in range(1, 8):
        for _ in range(40):
            # Any cells: most tables fail before associativity.
            check_against_oracle(order, [[random_cell(rng, order) for _ in range(order)]
                                         for _ in range(order)])
            # Forced identity row and column and one identity-bearing cell per
            # row along a random involution: every table reaches associativity.
            others = list(range(1, order))
            rng.shuffle(others)
            sigma = list(range(order))
            for a, b in zip(others[::2], others[1::2]):
                sigma[a], sigma[b] = b, a
            raw = [[1 << (i + j) if 0 in (i, j) else random_free_cell(rng, order)
                    for j in range(order)] for i in range(order)]
            for i in range(1, order):
                raw[i][sigma[i]] |= 1
            got = check_against_oracle(order, raw)
            reached[got[0] if got else "valid"] += 1
    assert set(reached) == {"valid", "AssocViolation", "ExchangeViolation"}
    assert reached["AssocViolation"] > sum(reached.values()) / 2


def test_validate_matches_oracle_on_order4_candidates():
    # Every reached order-4 candidate, built assignment by assignment (the
    # enumeration itself sends only the associativity survivors to validate).
    seen = [t for sigma in enumeration._involutions(4) for t in branch_candidates(4, sigma)]
    outcomes = [check_against_oracle(4, t) for t in seen]
    assert len(seen) == 1010
    assert Counter(o and o[0] for o in outcomes) == {None: 420, "AssocViolation": 590}


def elementary_abelian(rank):
    table = [[0]]
    for _ in range(rank):
        table = direct_product(table, cyclic(2))
    return table


def test_validate_matches_oracle_on_quotient_tables(corpus, a5):
    tables = {}
    for h in [*corpus, a5, from_group(elementary_abelian(5))]:
        for f in all_closed_subsets(h).masks:
            q = build_quotient(h, f).induced
            tables[q.table] = q.order
    assert len(tables) == 487  # 458 corpus entries, a5, C2^5 and their quotients
    for table, order in tables.items():
        assert check_against_oracle(order, table) is None


def test_validate_at_max_order_uses_the_top_bit():
    c2_6 = from_group(elementary_abelian(6))
    assert c2_6.order == core.MAX_ORDER and c2_6.table[63][0] == 1 << 63
    assert check_against_oracle(64, c2_6.table) is None
    raw = [list(row) for row in c2_6.table]
    raw[63][1] |= 1 << 63
    got = check_against_oracle(64, raw)
    assert got == ("AssocViolation", (1, 62, 1), 250)
    with pytest.raises(AssocViolation) as err:
        validate(64, raw)
    assert (err.value.witness, err.value.count) == got[1:]


def test_assoc_fault_past_the_first_slab(order64):
    """D32 with 22 added to 35·39: the smallest failing triple has middle
    element 35, so the validator must reach past the slabs of the first
    middle elements; rows and columns differ, as D32 does not commute."""
    d32 = order64[1]
    raw = [list(row) for row in d32.table]
    raw[35][39] |= 1 << 22
    got = check_against_oracle(64, raw)
    assert got == ("AssocViolation", (1, 35, 39), 250)


def planted_faults(rng, table):
    """Copies of a group table (masks, order >= 3), one fault each: a cell
    set to another singleton, two rows swapped, two columns swapped, a cell
    given a member other than the identity (the table stays thin but is
    multi-valued) and a cell given the identity."""
    n = len(table)
    i, j = rng.randrange(1, n), rng.randrange(1, n)
    x, y = rng.sample(range(1, n), 2)
    cell, rows, extra, ident = ([list(row) for row in table] for _ in range(4))
    cell[i][j] = 1 << (cell[i][j].bit_length() - 1 + x) % n
    rows[x], rows[y] = rows[y], rows[x]
    cols = [[row[y] if c == x else row[x] if c == y else row[c] for c in range(n)] for row in table]
    extra[i][j] |= rng.choice([c for c in table[i] if c not in (1, table[i][j])])
    ident[i][j if table[i][j] != 1 else j % (n - 1) + 1] |= 1
    return {"cell": cell, "rows": rows, "cols": cols, "extra": extra, "ident": ident}


def steiner_loop10():
    """The Steiner loop of the affine plane over Z3: the identity and the
    nine points of Z3², x·x = 1 and x·y the third point of the line through
    x and y.  Singleton cells, all thin, and x(xy) = y = (yx)x, so the byte
    form of H3 holds; but no group has order 10 and every element of order
    2, so H1 fails, and only its byte comparison sees that on the route."""
    points = [(a, b) for a in range(3) for b in range(3)]

    def mul(x, y):
        if x == 0 or y == 0:
            return x + y
        if x == y:
            return 0
        (a, b), (c, d) = points[x - 1], points[y - 1]
        return points.index(((-a - c) % 3, (-b - d) % 3)) + 1

    return [[1 << mul(x, y) for y in range(10)] for x in range(10)]


def test_byte_route_names_what_the_general_checks_name(enum4):
    """Seeded faults in the 22 bundled group tables, plus multi-valued
    tables, give the same class, message and table with the byte route of
    H1 and H3 on and with it off (`core._INDEX` emptied, so no cell counts
    as a singleton).  A5
    gets no column swap: about 14000 triples fail, and listing them takes
    the general route over a second."""
    rng = random.Random(20261022)
    tables = [(2, NONTHIN2), (2, C2), (3, ASSOC_BAD3), (3, EXCH_BAD3), (10, steiner_loop10())]
    tables += [(h.order, h.table) for h in enum4.survivors[::20]]
    for _, group in builtin_groups(60):
        masks = [[1 << v for v in row] for row in group]
        tables.append((len(masks), masks))
        for _ in range(2 if len(masks) > 2 else 0):
            tables += [(len(masks), raw) for kind, raw in planted_faults(rng, masks).items()
                       if kind != "cols" or len(masks) <= 12]
    reached, verdicts, hold = Counter(), Counter(), core._translations_hold

    def spy(table, star):
        verdict = hold(table, star)
        verdicts[verdict] += 1
        return verdict

    with mock.patch.object(core, "_translations_hold", spy):
        for order, raw in tables:
            got = fresh_result(order, raw)
            with mock.patch.object(core, "_INDEX", {}):
                assert fresh_result(order, raw) == got, raw
            reached[got[0]] += 1
    assert reached == {"valid": 45, "IdentityViolation": 42, "AmbiguousInverse": 48,
                       "NoInverse": 10, "AssocViolation": 110, "ExchangeViolation": 1}
    assert verdicts == {True: 23, False: 41}  # the 22 groups and C2; 41 faults refused


def test_byte_route_disagreeing_with_general_checks_raises(thin_imports):
    with mock.patch.multiple(core, _INTERNED=weakref.WeakValueDictionary(),
                             _translations_hold=lambda table, star: False):
        with pytest.raises(InternalMismatch, match="byte translation fails"):
            validate(6, thin_imports["s3"].table)
        assert validate(2, NONTHIN2).table == ((1, 2), (2, 3))  # not thin: never asked


def test_group_tables_skip_the_general_h1_route(enum4):
    """The 22 bundled groups and every (normal) quotient of C2^5 take H1 and
    H3 by byte translation; non-thin tables take the slab route."""
    tables = [(len(t), [[1 << v for v in row] for row in t]) for _, t in builtin_groups(60)]
    c2_5 = from_group(elementary_abelian(5))
    tables += [(q.order, q.table) for q in (build_quotient(c2_5, f).induced
                                             for f in all_closed_subsets(c2_5).masks)]
    assert len(tables) == 22 + 374
    spy = mock.MagicMock(wraps=core._associativity_failures)
    with mock.patch.multiple(core, _INTERNED=weakref.WeakValueDictionary(),
                             _associativity_failures=spy):
        kept = [validate(order, raw) for order, raw in tables]
        assert spy.call_count == 0 and all(h.is_thin() for h in kept)
        validate(2, NONTHIN2)
        validate(4, next(h for h in enum4.survivors if not h.is_thin()).table)
        assert spy.call_count == 2


def test_vector_products_match_set_products(corpus, a5, order64):
    """p·x and x·p for every x, one packed OR chain each, against one set
    product per x; C2^6 and D32 use lane 63, D32 and a5 do not commute."""
    rng = random.Random(20261018)
    for h in [*corpus, a5, *order64]:
        for p in (0, 1, h.full, *(rng.randrange(1, h.full + 1) for _ in range(3))):
            assert list(h.left_products(p)) == left_products_by_element(h, p), (h.table, p)
            assert list(h.right_products(p)) == right_products_by_element(h, p), (h.table, p)
