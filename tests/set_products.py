"""Chained set products, for tests that write out star(x)·A·x and the like."""


def set_product_many(h, *sets: int) -> int:
    """Left-to-right chained set product of masks in h (associative by H1)."""
    acc = sets[0]
    for s in sets[1:]:
        acc = h.set_product(acc, s)
    return acc


def double_coset(h, x: int, f: int) -> int:
    """F·x·F by two set products (oracle for the blocks of `build_quotient`)."""
    return h.set_product(h.set_product(f, 1 << x), f)


def left_products_by_element(h, p: int) -> list[int]:
    """p·x for every element x, one set product each (oracle for `left_products`)."""
    return [h.set_product(p, 1 << x) for x in h.elements()]


def right_products_by_element(h, p: int) -> list[int]:
    """x·p for every element x, one set product each (oracle for `right_products`)."""
    return [h.set_product(1 << x, p) for x in h.elements()]
