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

from hyperalg.core import MAX_ORDER, Hypergroup, bits, validate


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


def read_table(text: str) -> tuple[str, int, list[list[int]]]:
    """Parse header and cells into (name, order, mask table), no validation."""
    name = None
    order = None
    table: list[list[int]] | None = None
    filled: set[tuple[int, int]] = set()
    stage = 0  # 0: expect magic, 1: expect name, 2: expect order, 3: cells

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if stage == 0:
            if tokens != ["hypergroup", "v1"]:
                raise FormatSyntaxError("expected header `hypergroup v1`", lineno)
            stage = 1
            continue
        if stage == 1:
            if len(tokens) != 2 or tokens[0] != "name":
                raise FormatSyntaxError("expected `name <token>`", lineno)
            name = tokens[1]
            stage = 2
            continue
        if stage == 2:
            if len(tokens) != 2 or tokens[0] != "order":
                raise FormatSyntaxError("expected `order <n>`", lineno)
            try:
                order = int(tokens[1])
            except ValueError:
                raise FormatSyntaxError(f"order is not an integer: {tokens[1]!r}",
                                        lineno) from None
            if not 1 <= order <= MAX_ORDER:
                raise FormatSyntaxError(f"order must be in 1..{MAX_ORDER}, got {order}",
                                        lineno)
            table = [[0] * order for _ in range(order)]
            stage = 3
            continue
        if tokens[0] != "cell":
            raise FormatSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
        if len(tokens) < 4 or tokens[3] != ":":
            raise FormatSyntaxError("expected `cell <i> <j> : <members...>`", lineno)
        try:
            i, j = int(tokens[1]), int(tokens[2])
            ks = [int(tok) for tok in tokens[4:]]
        except ValueError:
            raise FormatSyntaxError("cell indices must be integers", lineno) from None
        if not (0 <= i < order and 0 <= j < order):
            raise IndexOutOfRange(f"cell ({i},{j}) outside order {order}", lineno)
        if any(not 0 <= k < order for k in ks):
            raise IndexOutOfRange(f"cell ({i},{j}) lists a member outside "
                                  f"0..{order - 1}", lineno)
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise FormatSyntaxError("cell members must be strictly ascending", lineno)
        if (i, j) in filled:
            raise DuplicateCell(f"cell ({i},{j}) appears twice", lineno)
        filled.add((i, j))
        table[i][j] = sum(1 << k for k in ks)

    if stage != 3:
        raise FormatSyntaxError("incomplete header", None)
    missing = [(i, j) for i in range(order) for j in range(order)
               if (i, j) not in filled]
    if missing:
        raise MissingCell(f"cell {missing[0]} is missing "
                          f"({len(missing)} missing in total)", None)
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
