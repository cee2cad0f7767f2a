import random

import pytest

from hyperalg.closed import all_closed_subsets
from hyperalg.enumeration import enumerate_hypergroups
from hyperalg.groups import alternating, builtin_groups, cyclic, dihedral, direct_product, from_group
from hyperalg.quotient import build_quotient
from set_products import double_coset


@pytest.fixture(scope="session")
def enum2():
    return enumerate_hypergroups(2)


@pytest.fixture(scope="session")
def enum3():
    return enumerate_hypergroups(3, canonicalize=True)


@pytest.fixture(scope="session")
def enum4():
    return enumerate_hypergroups(4, canonicalize=True)


@pytest.fixture(scope="session")
def c2_thin(enum2):
    return enum2.survivors[0]


@pytest.fixture(scope="session")
def nonthin2(enum2):
    """The unique non-thin hypergroup of order 2 (a·a = {1, a})."""
    h = enum2.survivors[1]
    assert not h.is_thin()
    return h


@pytest.fixture(scope="session")
def group_tables():
    return dict(builtin_groups(12))


@pytest.fixture(scope="session")
def thin_imports(group_tables):
    return {name: from_group(t) for name, t in group_tables.items()}


@pytest.fixture(scope="session")
def s3(thin_imports):
    return thin_imports["s3"]


@pytest.fixture(scope="session")
def a5():
    return from_group(alternating(5))


@pytest.fixture(scope="session")
def corpus(enum2, enum3, enum4, thin_imports):
    """Every order-2..4 survivor plus the bundled groups <= 12."""
    return [*enum2.survivors, *enum3.survivors, *enum4.survivors, *thin_imports.values()]


@pytest.fixture(scope="session")
def small_corpus(enum2, enum3, thin_imports):
    """Every enumerated hypergroup of order <= 3 plus group imports <= 8."""
    out = list(enum2.survivors) + list(enum3.survivors)
    out += [h for h in thin_imports.values() if h.order <= 8]
    return out


@pytest.fixture(scope="session")
def order64():
    """C2^6 and D32: order 64 uses lane 63, and D32 does not commute."""
    c2_6 = [[0]]
    for _ in range(6):
        c2_6 = direct_product(c2_6, cyclic(2))
    return from_group(c2_6), from_group(dihedral(32))


@pytest.fixture(scope="session")
def quotient_kernels(corpus, a5, order64):
    """(h, F) for every closed F of the corpus, a5, C2^4 and C2^3×C3 (whose
    kernels are all normal), and for a seeded sample of 32 closed F of each
    order-64 hypergroup, sampled only to keep the run short."""
    c2_3 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    small = [*corpus, a5, from_group(direct_product(c2_3, cyclic(2))),
             from_group(direct_product(c2_3, cyclic(3)))]
    cases = [(h, f) for h in small for f in all_closed_subsets(h).masks]
    rng = random.Random(18)
    for h in order64:
        cases += [(h, f) for f in rng.sample(all_closed_subsets(h).masks, 32)]
    return cases


@pytest.fixture(scope="session")
def double_coset_bases(group_tables):
    """Cayley tables of A5, A4×C2, S3×S3, D4×C2, S3×C3 and D5×C2."""
    g = group_tables
    return [alternating(5), *(direct_product(g[a], g[b]) for a, b in
                              [("a4", "c2"), ("s3", "s3"), ("d4", "c2"), ("s3", "c3"), ("d5", "c2")])]


@pytest.fixture(scope="session")
def double_coset_quotients(double_coset_bases):
    """The distinct non-thin quotients G//F of order 5 to 12 over non-normal F,
    for the double-coset bases; each one's blocks are checked against
    `double_coset`."""
    found = {}
    for base in map(from_group, double_coset_bases):
        for f in all_closed_subsets(base).masks:
            quotient = build_quotient(base, f)
            q = quotient.induced
            if 5 <= q.order <= 12 and not q.is_thin() and q.table not in found:
                assert quotient.blocks == tuple(dict.fromkeys(
                    double_coset(base, x, f) for x in base.elements())), (base.table, f)
                found[q.table] = q
    return list(found.values())
