import pytest

from hyperalg.enumeration import enumerate_hypergroups
from hyperalg.groups import alternating, builtin_groups, cyclic, dihedral, direct_product, from_group


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
