import hashlib
import random
from itertools import permutations

import pytest

import group_oracle as oracle
from hyperalg import enumeration
from hyperalg.closed import all_closed_subsets, closed_center
from hyperalg.core import AssocViolation, InternalMismatch, members
from hyperalg.enumeration import (
    OrderOutOfRange,
    canonical_representatives,
    enumerate_hypergroups,
    relabel,
)
from hyperalg.fileformat import serialize
from hyperalg.groups import (
    NotAGroup,
    builtin_groups,
    cyclic,
    from_group,
    symmetric,
)
from hyperalg.series import thin_residue
from naive_enumeration import naive_enumerate, validate_branch


def canonical_table(h):
    """Minimal relabeled table over all identity-fixing permutations, entry
    by entry (oracle for the once-per-orbit `canonical_representatives`)."""
    return min(relabel(h, (0,) + perm) for perm in permutations(range(1, h.order)))


# Golden survivor counts.  Orders 2 and 3 are re-derived by the naive
# no-pruning sweep (naive_enumeration.py) on every run; order 4 comes
# from the pruned sweep (the naive space, 15^9 fillings, is out of
# reach) with every survivor revalidated by the full axiom checker, and
# its whole-branch associativity pass is checked against the validator
# on each of the 1010 reached candidates (`validate_branch`).
RAW_COUNTS = {2: 2, 3: 15, 4: 420}
CANONICAL_COUNTS = {2: 2, 3: 10, 4: 102}
# SHA-256 over `serialize` of every canonical representative of orders 2, 3, 4.
CANONICAL_DIGEST = "fbbf99f880273782d63941ae7abecc00bd01426fa949d2d75e67695693bdc0d1"
# Rejects by the validator's failure class (bulk tallies included).
REJECTS = {
    2: {"NoInverse": 1},
    3: {"NoInverse": 1825, "ExchangeViolation": 561},
    4: {"NoInverse": 36816979599, "ExchangeViolation": 1626378766, "AssocViolation": 590},
}


def test_order2_classification(enum2):
    assert enum2.candidates == 3
    assert enum2.rejects == {"NoInverse": 1}
    tables = [h.table for h in enum2.survivors]
    assert tables == [((1, 2), (2, 1)), ((1, 2), (2, 3))]


def test_pruned_equals_naive_order2(enum2):
    naive = naive_enumerate(2)
    assert [h.table for h in naive.survivors] == [h.table for h in enum2.survivors]
    assert naive.candidates == enum2.candidates == 3


def test_pruned_equals_naive_order3(enum3):
    naive = naive_enumerate(3)
    assert [h.table for h in naive.survivors] == [h.table for h in enum3.survivors]
    assert naive.candidates == enum3.candidates == 7 ** 4


@pytest.mark.parametrize("order", [2, 3, 4])
def test_golden_counts_and_counter_identity(order, enum2, enum3, enum4):
    result = {2: enum2, 3: enum3, 4: enum4}[order]
    assert len(result.survivors) == RAW_COUNTS[order]
    if result.canonical is not None:
        assert len(result.canonical) == CANONICAL_COUNTS[order]
    assert result.candidates == result.reject_total() + len(result.survivors)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_rejects_by_reason(order, enum2, enum3, enum4):
    assert {2: enum2, 3: enum3, 4: enum4}[order].rejects == REJECTS[order]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_branch_pass_matches_per_assignment_route(order):
    """Per involution branch: the survivors, the reached count and the
    associativity failures equal the validator's, candidate by candidate;
    the validator rejects a reached candidate for nothing else."""
    for sigma in enumeration._involutions(order):
        survivors, reached, failures = enumeration._search_branch(order, sigma)
        want_survivors, want_reached, want_rejects = validate_branch(order, sigma)
        assert [h.table for h in survivors] == [h.table for h in want_survivors]
        assert reached == want_reached
        assert want_rejects == ({"AssocViolation": failures} if failures else {})


def test_validator_refusing_a_survivor_is_a_mismatch(monkeypatch):
    """A survivor of the associativity pass that the validator refuses means
    the two routes disagree: the sweep raises instead of tallying it."""
    real = enumeration.validate
    planted = []

    def refuse_one(n, table):
        if not planted:
            planted.append(table)
            raise AssocViolation(1, 1, 1)
        return real(n, table)

    monkeypatch.setattr(enumeration, "validate", refuse_one)
    with pytest.raises(InternalMismatch):
        enumerate_hypergroups(4)
    assert len(planted) == 1


def test_canonicalization_idempotent(enum3, enum4):
    for result in (enum3, enum4):
        for h in result.canonical:
            assert canonical_table(h) == h.table
        again = canonical_representatives(result.canonical)
        assert [h.table for h in again] == [h.table for h in result.canonical]


def test_canonical_classes_partition_survivors(enum3):
    keys = {canonical_table(h) for h in enum3.survivors}
    assert len(keys) == len(enum3.canonical)
    # no two canonical representatives are relabelings of each other
    reps = enum3.canonical
    for a in reps:
        copies = {relabel(a, (0,) + p) for p in permutations(range(1, a.order))}
        for b in reps:
            if b.table != a.table:
                assert b.table not in copies


def test_canonical_tables_are_pinned(enum2, enum3, enum4):
    text = "".join(serialize(h) for result in (enum2, enum3, enum4)
                   for h in canonical_representatives(result.survivors))
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_DIGEST


def test_representatives_match_per_entry_route(enum2, enum3, enum4):
    """A shuffled survivor list with duplicates gives the minimal table of
    each orbit, as `canonical_table` finds it entry by entry."""
    rng = random.Random(25)
    for result in (enum2, enum3, enum4):
        survivors = [*result.survivors, *rng.sample(result.survivors, len(result.survivors) // 3)]
        rng.shuffle(survivors)
        want = sorted({canonical_table(h) for h in survivors})
        assert [h.table for h in canonical_representatives(survivors)] == want


def test_each_orbit_is_relabeled_once(enum2, enum3, enum4, monkeypatch):
    """relabel runs once per member of each orbit: 2·1 + 10·2 + 102·6 calls,
    not once per permutation of each of the 437 survivors (2552)."""
    calls = []

    def counted(h, perm):
        calls.append(perm)
        return relabel(h, perm)

    monkeypatch.setattr("hyperalg.enumeration.relabel", counted)
    for result in (enum2, enum3, enum4):
        canonical_representatives(result.survivors)
    assert len(calls) == 634


def test_order_out_of_range():
    for bad in (1, 5, "3"):
        with pytest.raises(OrderOutOfRange):
            enumerate_hypergroups(bad)
    with pytest.raises(OrderOutOfRange):
        naive_enumerate(4)  # naive space too large by design


def test_from_group_roundtrip(group_tables):
    h = from_group(group_tables["c2"])
    assert h.table == ((1, 2), (2, 1))
    s3 = from_group(symmetric(3))
    assert len(all_closed_subsets(s3)) == 6


def test_from_group_rejects_broken_tables():
    with pytest.raises(NotAGroup):
        from_group([[0, 1], [1, 1]])              # 1 has no inverse
    with pytest.raises(NotAGroup):
        from_group([[1, 0], [0, 1]])              # identity not at 0
    broken = cyclic(3)
    broken[1][1] = 1                              # breaks associativity
    with pytest.raises(NotAGroup) as err:
        from_group(broken)
    assert "associativity" in str(err.value) or "inverse" in str(err.value)
    with pytest.raises(NotAGroup):
        from_group([[0, 1], [1, 0], [0, 1]])      # not square
    for entry in (2, -1, "1"):                    # not an index of the table
        with pytest.raises(NotAGroup, match=f"^entry {entry!r} out of range$"):
            from_group([[0, 1], [1, entry]])


def test_builtin_groups_classification():
    names4 = [name for name, _ in builtin_groups(4)]
    assert names4 == ["c2", "c3", "c4", "v4"]
    for name, table in builtin_groups(60):
        from_group(table)


def test_every_import_is_thin_with_trivial_residue(thin_imports):
    for name, h in thin_imports.items():
        assert h.is_thin(), name
        assert thin_residue(h) == 1, name


def test_import_centers_match_group_centers(thin_imports, group_tables):
    for name, h in thin_imports.items():
        assert set(members(closed_center(h))) == set(oracle.center(group_tables[name]))
