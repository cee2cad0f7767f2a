"""Property-based tests over randomly drawn structures and subsets."""

from hypothesis import given, strategies as st

from group_oracle import is_group_check
from hyperalg.closed import all_closed_subsets, generated_closure, is_closed, is_strongly_normal
from hyperalg.core import HypergroupError, validate
from hyperalg.enumeration import enumerate_hypergroups
from hyperalg.groups import builtin_groups, from_group
from hyperalg.quotient import build_quotient, lift_blocks, project_subset
from hyperalg.series import commutator_subset
from set_products import (
    closure_by_scan,
    commutator_generator_by_pairs,
    commutator_table_by_pairs,
    set_product_by_pairs,
)

POOL = (list(enumerate_hypergroups(2).survivors)
        + list(enumerate_hypergroups(3).survivors)
        + [from_group(t) for _, t in builtin_groups(6)])

hypergroups = st.sampled_from(POOL)


@st.composite
def hypergroup_and_masks(draw, count=1):
    h = draw(hypergroups)
    masks = tuple(draw(st.integers(0, h.full)) for _ in range(count))
    return (h,) + masks


@st.composite
def hypergroup_and_closed(draw):
    h = draw(hypergroups)
    masks = all_closed_subsets(h).masks
    return h, draw(st.sampled_from(masks))


@st.composite
def raw_tables(draw):
    order = draw(st.sampled_from([2, 3]))
    table = [[0] * order for _ in range(order)]
    for i in range(order):
        table[0][i] = 1 << i
        table[i][0] = 1 << i
    for i in range(1, order):
        for j in range(1, order):
            table[i][j] = draw(st.integers(1, (1 << order) - 1))
    return order, table


@given(raw_tables())
def test_validator_accepts_only_lawful_tables(case):
    order, table = case
    try:
        h = validate(order, table)
    except HypergroupError:
        return
    assert h.star[0] == 0
    assert all(h.star[h.star[i]] == i for i in h.elements())
    assert all(h.table[0][j] == 1 << j for j in h.elements())
    for s in h.elements():
        assert h.table[h.star[s]][s] & 1  # identity inside star(s)·s


@given(hypergroup_and_masks(count=2))
def test_star_antihomomorphism(case):
    h, a, b = case
    assert h.set_star(h.set_product(a, b)) == h.set_product(h.set_star(b), h.set_star(a))


@given(hypergroup_and_masks(count=3))
def test_set_product_associative(case):
    h, a, b, c = case
    assert h.set_product(a, h.set_product(b, c)) == h.set_product(h.set_product(a, b), c)


@given(hypergroup_and_masks(count=2))
def test_set_product_empty_iff_empty_operand(case):
    h, a, b = case
    assert (h.set_product(a, b) == 0) == (a == 0 or b == 0)


@given(hypergroup_and_masks(count=2))
def test_closure_laws(case):
    h, a, b = case
    if a == 0:
        return
    c = generated_closure(h, a)
    assert a & ~c == 0
    assert is_closed(h, c)
    assert generated_closure(h, c) == c
    if b:
        assert c & ~generated_closure(h, a | b) == 0


@given(hypergroup_and_masks(count=2))
def test_commutator_subset_symmetric(case):
    h, a, b = case
    if a == 0 or b == 0:
        return
    assert commutator_subset(h, a, b) == commutator_subset(h, b, a)


@given(hypergroup_and_masks(count=2))
def test_lane_folding_matches_pair_loops(case):
    """Set product, commutator subset and lattice closure by folded lanes and
    position bitsets, against their pair-by-pair oracles."""
    h, a, b = case
    assert h.set_product(a, b) == set_product_by_pairs(h, a, b)
    if a == 0 or b == 0:
        return
    lat = all_closed_subsets(h)
    gen = commutator_generator_by_pairs(commutator_table_by_pairs(h), a, b)
    assert commutator_subset(h, a, b) == closure_by_scan(lat, gen)
    assert lat.closure(a) == closure_by_scan(lat, a)


@given(hypergroup_and_closed())
def test_quotient_laws(case):
    h, f = case
    q = build_quotient(h, f)
    assert q.induced.is_thin() == is_strongly_normal(h, f)
    all_blocks = (1 << len(q.blocks)) - 1
    assert project_subset(q, lift_blocks(q, all_blocks)) == all_blocks
    assert lift_blocks(q, project_subset(q, f)) == f


@given(hypergroup_and_closed(), st.integers(0, 63))
def test_lift_of_projection_covers(case, raw):
    h, f = case
    s = raw & h.full
    q = build_quotient(h, f)
    lifted = lift_blocks(q, project_subset(q, s))
    assert s & ~lifted == 0
    assert project_subset(q, lifted) == project_subset(q, s)


@given(hypergroups)
def test_thinness_is_groupness(h):
    assert h.thin_part & 1
    assert is_group_check(h.table) == h.is_thin()
