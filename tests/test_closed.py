import random
from math import gcd, prod

import pytest

import group_oracle as oracle
from hyperalg import closed, series
from hyperalg.closed import (
    EmptySet,
    all_closed_subsets,
    center,
    centralizer,
    closed_center,
    generated_closure,
    is_closed,
    is_normal,
    is_strongly_normal,
    strong_normalizer,
)
from hyperalg.core import Hypergroup, InternalMismatch, mask_of, members
from hyperalg.groups import cyclic, dihedral, direct_product, from_group
from hyperalg.quotient import build_quotient
from hyperalg.report import analyze
from hyperalg.series import _supersets
from set_products import closure_by_elements, double_coset, set_product_many
from sub_masks import sub_hypergroup, to_sub_mask

# S3 element indices (permutations in lexicographic order):
# 0 identity, 1/2/5 transpositions, 3/4 three-cycles.
A3 = mask_of([0, 3, 4])
T12 = mask_of([0, 1])


def brute_closed_subsets(h):
    """All closed subsets by sweeping every nonempty subset (oracle)."""
    out = []
    for s in range(1, h.full + 1):
        if h.set_product(h.set_star(s), s) & ~s == 0:
            out.append(s)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def test_is_closed_basics(c2_thin, s3):
    assert is_closed(c2_thin, 1)
    assert is_closed(c2_thin, c2_thin.full)
    assert not is_closed(c2_thin, 2)  # {a} misses 1 from a*a
    assert is_closed(s3, A3)
    with pytest.raises(EmptySet):
        is_closed(s3, 0)


def test_is_closed_cross_check_raises(s3, monkeypatch):
    """With the identity dropped from every product, star(H)·H stays inside H
    but H·H is no longer H: the two closedness tests disagree on H."""
    product = Hypergroup.set_product
    monkeypatch.setattr(Hypergroup, "set_product", lambda h, p, q: product(h, p, q) & ~1)
    with pytest.raises(InternalMismatch,
                       match=r"^closedness tests disagree on \(0, 1, 2, 3, 4, 5\)$"):
        is_closed(s3, s3.full)


def test_generated_closure_examples(nonthin2, s3):
    assert generated_closure(nonthin2, 1) == 1
    assert generated_closure(nonthin2, 2) == 3  # a generates everything
    assert generated_closure(s3, 1 << 3) == A3  # a three-cycle generates A3
    with pytest.raises(EmptySet):
        generated_closure(s3, 0)


def test_closure_operator_laws(small_corpus):
    for h in small_corpus:
        if h.order > 3:
            continue
        for seed in range(1, h.full + 1):
            c = generated_closure(h, seed)
            assert seed & ~c == 0                       # extensive
            assert generated_closure(h, c) == c         # idempotent
            bigger = seed | (1 << (h.order - 1))
            assert c & ~generated_closure(h, bigger) == 0  # monotone


def test_closure_equals_intersection_of_closed_supersets(enum2, enum3):
    for h in list(enum2.survivors) + list(enum3.survivors):
        closed = brute_closed_subsets(h)
        for seed in range(1, h.full + 1):
            meet = h.full
            for c in closed:
                if seed & ~c == 0:
                    meet &= c
            assert generated_closure(h, seed) == meet


def test_conjugation_stays_inside_closure(enum2, enum3):
    """If x*Ax lands in <A> for star-invariant A, so does x*<A>x."""
    for h in list(enum2.survivors) + list(enum3.survivors):
        for a in range(1, h.full + 1):
            if h.set_star(a) != a:
                continue
            clo = generated_closure(h, a)
            for x in h.elements():
                conj = set_product_many(h, 1 << h.star[x], a, 1 << x)
                if conj & ~clo:
                    continue
                conj_clo = set_product_many(h, 1 << h.star[x], clo, 1 << x)
                assert conj_clo & ~clo == 0


def test_normality_examples(s3, nonthin2, c2_thin):
    assert is_normal(s3, s3.full)
    assert is_normal(s3, A3)
    assert not is_normal(s3, T12)
    assert is_strongly_normal(s3, A3)
    assert not is_strongly_normal(nonthin2, 1)  # a*·1·a = {1,a}
    assert is_strongly_normal(c2_thin, 1)
    assert is_strongly_normal(s3, s3.full)


def test_strong_normality_implies_normality(small_corpus):
    for h in small_corpus:
        for m in all_closed_subsets(h).masks:
            if is_strongly_normal(h, m):
                assert is_normal(h, m)


def test_lattice_small_cases(c2_thin, nonthin2, s3):
    assert all_closed_subsets(c2_thin).masks == (1, 3)
    assert all_closed_subsets(nonthin2).masks == (1, 3)
    assert len(all_closed_subsets(s3)) == 6


def test_lattice_closed_under_intersection(small_corpus):
    for h in small_corpus:
        masks = all_closed_subsets(h).masks
        assert 1 in masks and h.full in masks
        for a in masks:
            for b in masks:
                assert a & b in masks


def test_lattice_matches_brute_force(enum2, enum3, enum4, double_coset_quotients):
    """Every survivor of orders 2 to 4, and non-thin quotients up to order 12."""
    assert len(double_coset_quotients) == 25
    for h in [*enum2.survivors, *enum3.survivors, *enum4.survivors, *double_coset_quotients]:
        assert list(all_closed_subsets(h).masks) == brute_closed_subsets(h), h.table


def test_lattice_does_not_call_generated_closure(corpus, double_coset_quotients, monkeypatch):
    """The lattice grows without `generated_closure`, so the thin residue's two
    routes (lattice lookup and `generated_closure`) stay independent."""
    def refuse(h, seed):
        raise AssertionError("all_closed_subsets called generated_closure")

    monkeypatch.setattr(closed, "generated_closure", refuse)
    for h in [*corpus, *double_coset_quotients]:
        monkeypatch.delitem(h.__dict__, "_memo", raising=False)
        assert all_closed_subsets(h).masks[-1] == h.full


def test_generated_closure_does_not_call_the_lattice(corpus, double_coset_quotients, monkeypatch):
    """`generated_closure` closes seeds without `all_closed_subsets`: the
    mirror of the guard above."""
    def refuse(h):
        raise AssertionError("generated_closure called all_closed_subsets")

    monkeypatch.setattr(closed, "all_closed_subsets", refuse)
    rng = random.Random(29)
    for h in [*corpus, *double_coset_quotients]:
        for seed in {1, h.full, *(rng.randint(1, h.full) for _ in range(6))}:
            assert generated_closure(h, seed) == closure_by_elements(h, seed), (h.table, seed)


def test_generated_closure_matches_element_loop(enum2, enum3, corpus, a5, order64,
                                                double_coset_quotients):
    """Squaring against the element-at-a-time loop, which reads table rows and
    calls no set product: every seed of the order-2..3 survivors, and 16
    random seeds, 8 random elements, {1} and H of the corpus, a5, order 64
    and the double-coset quotients."""
    for h in [*enum2.survivors, *enum3.survivors]:
        for seed in range(1, h.full + 1):
            assert generated_closure(h, seed) == closure_by_elements(h, seed), (h.table, seed)
    rng = random.Random(12)
    for h in [*corpus, a5, *order64, *double_coset_quotients]:
        seeds = {1, h.full, *(rng.randint(1, h.full) for _ in range(16)),
                 *(1 << rng.randrange(h.order) for _ in range(8))}
        for seed in seeds:
            assert generated_closure(h, seed) == closure_by_elements(h, seed), (h.table, seed)


def single_extension_lattice(h):
    """All closed subsets by closing F | {x} for every found F and every x
    outside it (oracle: about L·n closures by the element loop, no double
    cosets, no set products)."""
    found = {closure_by_elements(h, 1 << x) for x in h.elements()}
    work = list(found)
    while work:
        f = work.pop()
        for x in members(h.full & ~f):
            c = closure_by_elements(h, f | (1 << x))
            if c not in found:
                found.add(c)
                work.append(c)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def test_lattice_matches_single_extension_sweep(corpus):
    for h in corpus:
        assert list(all_closed_subsets(h).masks) == single_extension_lattice(h), h.table


def supersets_by_scan(lat, f):
    """Strict supersets of f in lattice order, by a scan over every member
    (oracle for `ClosedSubsetLattice.supersets`)."""
    return tuple(m for m in lat.masks if m != f and f & ~m == 0)


def lattice_cases(corpus, a5, order64):
    """(h, its lattice, members in lattice order): every member for the corpus
    and a5; for each order-64 lattice, {1}, H and a seeded sample of 32
    members, sampled only to keep the scans short."""
    rng = random.Random(16)
    for h in [*corpus, a5]:
        lat = all_closed_subsets(h)
        yield h, lat, lat.masks
    for h in order64:
        lat = all_closed_subsets(h)
        sample = {1, h.full, *rng.sample(lat.masks, min(32, len(lat)))}
        yield h, lat, sorted(sample, key=lat.masks.index)


def test_lattice_closure_matches_element_loop(corpus, a5, order64):
    """Closure and position of random seeds against the element loop; position,
    index and supersets of members against scans of the member list."""
    rng = random.Random(6)
    for h in [*corpus, a5, *order64]:
        lat = all_closed_subsets(h)
        for seed in {rng.randint(1, h.full) for _ in range(16)}:
            want = closure_by_elements(h, seed)
            assert lat.closure(seed) == want, (h.table, seed)
            assert lat.position(seed) == lat.masks.index(want), (h.table, seed)
    with pytest.raises(EmptySet):
        lat.closure(0)
    with pytest.raises(EmptySet):
        lat.position(0)
    for h, lat, sample in lattice_cases(corpus, a5, order64):
        assert len(lat.index) == len(lat), h.table
        for m in sample:
            where = (h.table, m)
            assert lat.index[m] == lat.position(m) == lat.masks.index(m), where
            assert lat.supersets(m) == supersets_by_scan(lat, m), where


def above_by_scan(lat, seed):
    """Positions of the members holding the seed, by a scan over every member
    (oracle for `ClosedSubsetLattice.above`)."""
    return mask_of(i for i, m in enumerate(lat.masks) if seed & ~m == 0)


def test_lattice_above_matches_member_scan(enum2, enum3, corpus, a5, order64,
                                           double_coset_quotients):
    """Every seed of the order-2..3 survivors; 16 random seeds, {1} and H of
    the corpus, a5, order 64 and the double-coset quotients."""
    for h in [*enum2.survivors, *enum3.survivors]:
        lat = all_closed_subsets(h)
        for seed in range(1, h.full + 1):
            assert lat.above(seed) == above_by_scan(lat, seed), (h.table, seed)
    rng = random.Random(30)
    for h in [*corpus, a5, *order64, *double_coset_quotients]:
        lat = all_closed_subsets(h)
        for seed in {1, h.full, *(rng.randint(1, h.full) for _ in range(16))}:
            assert lat.above(seed) == above_by_scan(lat, seed), (h.table, seed)


def test_lattice_missing_matches_its_definition(corpus, a5, order64, double_coset_quotients):
    """Bit i of missing[x] is set iff masks[i] lacks x, for every element x of the
    corpus, a5, order 64, D4×C2^3 and the double-coset quotients."""
    c2_3 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    d4xc2_3 = from_group(direct_product(dihedral(4), c2_3))
    for h in [*corpus, a5, *order64, d4xc2_3, *double_coset_quotients]:
        lat = all_closed_subsets(h)
        assert len(lat.missing) == h.order, h.table
        for x in h.elements():
            want = mask_of(i for i, m in enumerate(lat.masks) if not m >> x & 1)
            assert lat.missing[x] == want, (h.table, x)


def test_lattice_grows_no_found_member_again(monkeypatch):
    """C2^5's walk calls `right_products` once per found F and once per new
    member, 2·374 - 1 = 747 times: a closure stops at the first found member
    it reaches, before growing it (2451 calls when every closure ran to the end)."""
    c2_5 = [[0]]
    for _ in range(5):
        c2_5 = direct_product(c2_5, cyclic(2))
    h = from_group(c2_5)
    monkeypatch.delitem(h.__dict__, "_memo", raising=False)
    calls = []
    right_products = Hypergroup.right_products

    def counted(self, p):
        calls.append(p)
        return right_products(self, p)

    monkeypatch.setattr(Hypergroup, "right_products", counted)
    assert len(all_closed_subsets(h)) == 374
    assert len(calls) == 2 * 374 - 1


def test_closed_subsets_are_subgroups_for_imports(thin_imports, group_tables):
    for name, h in thin_imports.items():
        if h.order > 8:
            continue
        got = {frozenset(members(m)) for m in all_closed_subsets(h).masks}
        assert got == oracle.all_subgroups(group_tables[name]), name


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def subspaces(k):
    """Subspaces of GF(2)^k, the subgroups of C2^k: the sum over the dimensions
    j of the Gaussian binomials [k j]_2."""
    return sum(prod(2 ** (k - i) - 1 for i in range(j)) // prod(2 ** (i + 1) - 1 for i in range(j))
               for j in range(k + 1))


def test_lattice_counts_match_group_theory(order64):
    """Closed subsets of a group are its subgroups, counted by formula at orders
    32 and 64: tau(n) for C_n; the sum of gcd(a, b) over a, b | n for C_n × C_n;
    tau(n) + sigma(n) for D_n, the rotation subgroups <r^d> and the d dihedral
    subgroups <r^d, r^i s> per divisor d of n; subspaces for C2^k."""
    c2_6, d32 = order64
    c2_5 = [[0]]
    for _ in range(5):
        c2_5 = direct_product(c2_5, cyclic(2))
    cases = {
        "c64": (from_group(cyclic(64)), len(divisors(64))),  # 7
        "c8xc8": (from_group(direct_product(cyclic(8), cyclic(8))),
                  sum(gcd(a, b) for a in divisors(8) for b in divisors(8))),  # 37
        "d16": (from_group(dihedral(16)), len(divisors(16)) + sum(divisors(16))),  # 36
        "d32": (d32, len(divisors(32)) + sum(divisors(32))),  # 69
        "c2^5": (from_group(c2_5), subspaces(5)),  # 374
        "c2^6": (c2_6, subspaces(6)),  # 2825
    }
    got = {name: len(all_closed_subsets(h)) for name, (h, _) in cases.items()}
    assert got == {name: want for name, (_, want) in cases.items()}


def test_normality_matches_group_oracle(thin_imports, group_tables):
    for name, h in thin_imports.items():
        if h.order > 8:
            continue
        table = group_tables[name]
        for m in all_closed_subsets(h).masks:
            want = oracle.is_normal_subgroup(table, set(members(m)))
            assert is_normal(h, m) == want
            # in the thin case strong normality is plain normality
            assert is_strongly_normal(h, m) == want


def strongly_normal_in(h, f, k):
    """Is star(x)·F·x inside F for every x in K?  K inside F's strong normalizer."""
    return k & ~strong_normalizer(h, f) == 0


def reachable_by_search(lat, f, edge):
    """Is H reached from the member f by steps f -> k with edge(f, k), k a strict
    superset?  A depth-first search per member (oracle for
    `series._strongly_subnormal`, which reads the steps off `series._supersets`)."""
    full = lat.masks[-1]
    seen = {f}
    stack = [f]
    while stack:
        cur = stack.pop()
        if cur == full:
            return True
        for k in lat.supersets(cur):
            if k not in seen and edge(cur, k):
                seen.add(k)
                stack.append(k)
    return False


def test_subnormality(s3, thin_imports, corpus, a5, order64, double_coset_quotients):
    assert A3 in series._strongly_subnormal(s3)
    assert T12 not in series._strongly_subnormal(s3)
    d4 = thin_imports["d4"]
    for m in all_closed_subsets(d4).masks:
        assert m in series._strongly_subnormal(d4)
    non_thin = [(h, all_closed_subsets(h), all_closed_subsets(h).masks)
                for h in double_coset_quotients]
    for h, lat, sample in [*lattice_cases(corpus, a5, order64), *non_thin]:
        for m in sample:
            strongly = reachable_by_search(lat, m, lambda f, k: strongly_normal_in(h, f, k))
            assert (m in series._strongly_subnormal(h)) == strongly, (h.table, m)


def test_thm_strongly_witness_matches_search(thin_imports, monkeypatch):
    """A planted fault: every 2-element F is strongly normal only in itself,
    so none is strongly subnormal.  The witness is the first member after {1}
    that the search oracle, under the same faulty edge, cannot join to H."""
    def faulty(h, f):
        return f if f.bit_count() == 2 else strong_normalizer(h, f)

    monkeypatch.setattr(series, "strong_normalizer", faulty)
    want = {"c8": (0, 4), "c4xc2": (0, 1), "d4": (0, 2), "q8": (0, 1), "c12": (0, 6)}
    for name, witness in want.items():
        h = thin_imports[name]
        monkeypatch.delitem(h.__dict__, "_memo", raising=False)
        lat = all_closed_subsets(h)
        first = next(m for m in lat.masks[1:]
                     if not reachable_by_search(lat, m, lambda f, k: k & ~faulty(h, f) == 0))
        assert members(first) == witness, name
        assert series.verify_statement(h, "thm-strongly") == series.Verdict(
            "thm-strongly", "VIOLATED", f"closed subset {witness} not strongly subnormal"), name


def test_centralizer(s3, thin_imports, group_tables):
    assert centralizer(s3, 0) == s3.full
    c6 = thin_imports["c6"]
    assert centralizer(c6, c6.full) == c6.full
    assert centralizer(s3, 1 << 3) == A3
    want = oracle.center(group_tables["s3"])
    assert set(members(center(s3))) == set(want)


def centralizer_by_pairs(h, f):
    """Elements commuting with every member of f, pair by pair (oracle)."""
    return mask_of(x for x in h.elements() if all(h.commutes(x, y) for y in members(f)))


def test_centralizer_matches_pair_loop(corpus, a5):
    rng = random.Random(20261018)
    for h in [*corpus, a5]:
        subsets = {0, h.full, *all_closed_subsets(h).masks,
                   *(rng.randrange(1, h.full + 1) for _ in range(4))}
        for f in subsets:
            assert centralizer(h, f) == centralizer_by_pairs(h, f), (h.table, f)


def test_strong_normalizer_matches_conjugation_loop(corpus, a5):
    """star(x)·F·x inside F, written out, for closed and for random F."""
    rng = random.Random(20261018)
    for h in [*corpus, a5]:
        subsets = {h.full, *all_closed_subsets(h).masks,
                   *(rng.randrange(1, h.full + 1) for _ in range(4))}
        for f in subsets:
            want = mask_of(x for x in h.elements()
                           if not set_product_many(h, 1 << h.star[x], f, 1 << x) & ~f)
            assert strong_normalizer(h, f) == want, (h.table, f)


def test_centralizer_symmetry(small_corpus):
    for h in small_corpus:
        if h.order > 4:
            continue
        for e in range(1, h.full + 1):
            for f in range(1, h.full + 1):
                left = e & ~centralizer(h, f) == 0
                right = f & ~centralizer(h, e) == 0
                assert left == right


def test_centers(s3, nonthin2, thin_imports):
    assert center(s3) == 1 and closed_center(s3) == 1
    assert center(nonthin2) == 3 and closed_center(nonthin2) == 3
    v4 = thin_imports["v4"]
    assert center(v4) == v4.full and closed_center(v4) == v4.full


def test_closed_center_guard_raises(thin_imports, monkeypatch):
    """A result guard that survives `python -O`: not an assert."""
    c4 = thin_imports["c4"]
    monkeypatch.setattr(closed, "center", lambda h: mask_of([0, 1, 3]))  # 1·1 = 2
    with pytest.raises(InternalMismatch):
        closed_center(c4)


@pytest.fixture(scope="module")
def d4xd4_over_involution():
    """D4×D4//{0, 36}: a valid order-20 double-coset hypergroup over a
    non-normal subgroup of order 2, on which `closed_center` raises."""
    h = from_group(direct_product(dihedral(4), dihedral(4)))
    f = mask_of([0, 36])
    blocks = list(dict.fromkeys(double_coset(h, x, f) for x in h.elements()))
    reps = [b & -b for b in blocks]
    table = tuple(tuple(mask_of(i for i, c in enumerate(blocks) if c & set_product_many(h, a, f, b))
                        for b in reps) for a in reps)
    q = build_quotient(h, f).induced
    assert q.table == table
    return q


def test_d4xd4_over_involution_is_pinned(d4xd4_over_involution):
    """The center Z holds 1 and 4, but 1·4 = {3, 5}, and 3 is not central
    (3·7 ≠ 7·3): Z is not closed, so the closed-center guard must raise."""
    q = d4xd4_over_involution
    assert q.order == 20 and members(q.thin_part) == (0, 2, 3, 5, 14, 16, 17, 19)
    assert members(center(q)) == (0, 1, 2, 4, 6, 8, 10, 12, 14, 15, 16, 18)
    assert (members(q.table[1][4]), q.table[3][7], q.table[7][3]) == ((3, 5), 1 << 11, 1 << 13)
    with pytest.raises(InternalMismatch, match=r"closed center \(0, 1, 2, 4, 6, 8, 10, 12"):
        closed_center(q)


@pytest.mark.xfail(strict=True, raises=InternalMismatch,
                   reason="the closed center of a non-thin input need not be closed")
def test_analyze_completes_on_d4xd4_over_involution(d4xd4_over_involution):
    assert analyze(d4xd4_over_involution, name="d4xd4//{0,36}").order == 20


def test_center_is_star_stable_and_normal(corpus, a5, order64, double_coset_quotients,
                                          d4xd4_over_involution):
    """By H3, (xy)* = y*x*, so x commutes with every element iff x* does: the
    center Z is star-stable, and normal as z·x = x·z.  So the closed center
    is Z itself wherever it is closed.  It is not on the order-20 table, nor on
    four quotients of S3×S3 (orders 10, 10, 10 and 8)."""
    raised = []
    for h in [*corpus, a5, *order64, *double_coset_quotients, d4xd4_over_involution]:
        z = center(h)
        assert h.set_star(z) == z, h.table
        assert is_normal(h, z), h.table
        try:
            assert closed_center(h) == z, h.table
        except InternalMismatch:
            assert not is_closed(h, z), h.table
            raised.append(h.order)
    assert raised == [10, 10, 10, 8, 20]


def test_strong_normalizer(s3, c2_thin):
    assert strong_normalizer(s3, s3.full) == s3.full
    assert strong_normalizer(c2_thin, 1) == c2_thin.full
    assert strong_normalizer(s3, T12) == T12  # self-normalizing


def test_sub_hypergroup_revalidates(small_corpus):
    for h in small_corpus:
        for m in all_closed_subsets(h).masks:
            sub, elems = sub_hypergroup(h, m)
            assert sub.order == m.bit_count()
            assert to_sub_mask(m, elems) == sub.full
            # identity of the sub is the ambient identity
            assert elems[0] == 0


def test_sub_hypergroup_of_full_is_identity(s3):
    sub, elems = sub_hypergroup(s3, s3.full)
    assert sub is s3 and elems == tuple(range(6))


def _strongly_normal_by_loop(sub, f) -> bool:
    """star(x)·F·x inside F for every x of `sub`, written out on its own."""
    for x in sub.elements():
        if set_product_many(sub, 1 << sub.star[x], f, 1 << x) & ~f:
            return False
    return True


def normalized_by_loop(h, f, xs):
    """F·x inside x·F for every x in xs, one element at a time, raising on
    containment without equality (oracle for `is_normal`)."""
    fx, xf = h.left_products(f), h.right_products(f)
    unequal = False
    for x in members(xs):
        if fx[x] & ~xf[x]:
            return False
        unequal |= fx[x] != xf[x]
    if unequal:
        raise InternalMismatch(f"F·x inside x·F but not equal for F = {members(f)}")
    return True


def test_lattice_edges_match_sub_hypergroup_route(corpus, a5):
    """Every pair f ⊆ k of closed subsets, over all order-2..4 survivors, the
    bundled groups <= 12 and a5: normality in H against the element loop, and
    for f ⊂ k normality inside the sub-hypergroup on k against that loop, and
    the strong edge decided on the ambient table and again inside that
    sub-hypergroup; for a strong edge, |K//F| read from `series._supersets` against
    that sub-hypergroup's own quotient."""
    for h in [*corpus, a5]:
        lat = all_closed_subsets(h)
        rows = {f: {k: row for k, *row in _supersets(h, f)} for f in lat.masks}
        for k in lat.masks:
            sub, elems = sub_hypergroup(h, k)
            for f in lat.masks:
                if f & ~k:
                    continue
                where = (h.table, members(f), members(k))
                if k == h.full:
                    assert is_normal(h, f) == normalized_by_loop(h, f, k), where
                if f == k:
                    continue
                small = to_sub_mask(f, elems)
                assert is_normal(sub, small) == normalized_by_loop(h, f, k), where
                strong = _strongly_normal_by_loop(sub, small)
                assert strongly_normal_in(h, f, k) == strong, where
                image, thin = rows[f][k]
                assert thin == strong, where
                if strong:
                    assert image.bit_count() == len(build_quotient(sub, small).blocks), where


def test_normality_guard_raises():
    """F = {0, 1} has F·x inside x·F for every x, but F·2 = {2} is not
    2·F = {1, 2}.  The table is no hypergroup, so it is built without the
    validator; the guard, not a verdict, must answer."""
    h = Hypergroup(order=3, table=((1, 2, 4), (2, 1, 4), (4, 6, 1)), star=(0, 1, 2))
    message = "F·x inside x·F but not equal for F = (0, 1)"
    with pytest.raises(InternalMismatch) as err:
        is_normal(h, 0b011)
    assert str(err.value) == message
    with pytest.raises(InternalMismatch) as err:
        normalized_by_loop(h, 0b011, h.full)
    assert str(err.value) == message
