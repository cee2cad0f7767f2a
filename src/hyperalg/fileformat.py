"""The `hypergroup v1` text format.

    hypergroup v1
    name <token>
    order <n>
    cell <i> <j> : <k1> <k2> ...

Exactly n^2 cell lines, 0-based indices, members strictly ascending.
`#` starts a comment, blank lines are ignored.  Serialisation is
canonical (header then cells in row-major order), so parse-serialise-
parse is the identity on any ordering the parser accepts.
"""

from __future__ import annotations

import re

from hyperalg.core import MAX_ORDER, Hypergroup, bits, mask_of, validate

MAX_CHARS = 1 << 24  # longest text the CLI reads; canonical order-64 tables stay under 800k
# 2^16 characters and on through the next line end of str.splitlines, or the
# rest: the reader splits one chunk at a time, never holding every line at once.
_CHUNK = re.compile("(?s).{65536}.*?(?:\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029])|.+")


class FileFormatError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatSyntaxError(FileFormatError):
    pass


class DuplicateCell(FileFormatError):
    pass


class MissingCell(FileFormatError):
    pass


class IndexOutOfRange(FileFormatError):
    pass


# The header lines in order: each one's keyword, and what its error says is expected.
_HEADER = (("hypergroup", "header `hypergroup v1`"), ("name", "`name <token>`"),
           ("order", "`order <n>`"))


def read_table(text: str) -> tuple[str, int, list[list[int]]]:
    """Parse header and cells into (name, order, mask table), no validation."""
    lines = ((lineno, line) for lineno, raw in enumerate(
        (raw for chunk in _CHUNK.finditer(text) for raw in chunk[0].splitlines()), start=1)
        if raw and (line := raw.partition("#")[0]) and not line.isspace())
    values = []
    for (keyword, expected), (lineno, line) in zip(_HEADER, lines):
        tokens = line.split(None, 2)
        if len(tokens) != 2 or tokens[0] != keyword or keyword == "hypergroup" and tokens[1] != "v1":
            raise FormatSyntaxError(f"expected {expected}", lineno)
        values.append(tokens[1])
    if len(values) < 3:
        raise FormatSyntaxError("incomplete header", None)
    _, name, order_text = values
    try:
        order = int(order_text)
    except ValueError:
        raise FormatSyntaxError(f"order is not an integer: {order_text!r}", lineno) from None
    if not 1 <= order <= MAX_ORDER:
        raise FormatSyntaxError(f"order must be in 1..{MAX_ORDER}, got {order}", lineno)

    table = [[-1] * order for _ in range(order)]  # -1: not filled yet
    for lineno, line in lines:
        tokens = line.split(None, order + 4)  # a valid cell line has at most order + 4 tokens
        if tokens[0] != "cell":
            raise FormatSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
        if len(tokens) < 4 or tokens[3] != ":":
            raise FormatSyntaxError("expected `cell <i> <j> : <members...>`", lineno)
        if len(tokens) > order + 4:
            raise FormatSyntaxError(f"cell line lists more than {order} members", lineno)
        try:
            i, j = int(tokens[1]), int(tokens[2])
            ks = list(map(int, tokens[4:]))
        except ValueError:
            raise FormatSyntaxError("cell indices must be integers", lineno) from None
        if not (0 <= i < order and 0 <= j < order):
            raise IndexOutOfRange(f"cell ({i},{j}) outside order {order}", lineno)
        if any(not 0 <= k < order for k in ks):
            raise IndexOutOfRange(f"cell ({i},{j}) lists a member outside 0..{order - 1}", lineno)
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise FormatSyntaxError("cell members must be strictly ascending", lineno)
        if table[i][j] >= 0:
            raise DuplicateCell(f"cell ({i},{j}) appears twice", lineno)
        table[i][j] = mask_of(ks)

    missing = [(i, j) for i in range(order) for j in range(order) if table[i][j] < 0]
    if missing:
        raise MissingCell(f"cell {missing[0]} is missing ({len(missing)} missing in total)", None)
    return name, order, table


def parse(text: str) -> tuple[str, Hypergroup]:
    """Parse and fully validate; returns (name, hypergroup)."""
    name, order, table = read_table(text)
    return name, validate(order, table)


def serialize(h: Hypergroup, name: str = "h") -> str:
    if not name or "#" in name or any(c.isspace() for c in name):
        raise ValueError(f"name must be a single token, got {name!r}")
    lines = ["hypergroup v1", f"name {name}", f"order {h.order}"]
    for i in range(h.order):
        for j in range(h.order):
            ks = " ".join(str(k) for k in bits(h.table[i][j]))
            lines.append(f"cell {i} {j} : {ks}".rstrip())
    return "\n".join(lines) + "\n"
