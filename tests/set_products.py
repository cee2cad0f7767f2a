"""Chained set products, for tests that write out star(x)·A·x and the like."""


def set_product_many(h, *sets: int) -> int:
    """Left-to-right chained set product of masks in h (associative by H1)."""
    acc = sets[0]
    for s in sets[1:]:
        acc = h.set_product(acc, s)
    return acc
