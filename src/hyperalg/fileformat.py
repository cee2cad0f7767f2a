"""The `hypergroup v1` text format.

    hypergroup v1
    name <token>
    order <n>
    cell <i> <j> : <k1> <k2> ...

Exactly n^2 cell lines, 0-based indices read with Python's `int()`,
members strictly ascending.  `#` starts a comment, blank lines are
ignored.  After the header one checker takes cells a batch of 512 raw
lines at a time, each check of a cell line over the whole batch at once.  A
batch at fault writes nothing, and the same checker reads it again one line
at a time, so the first line at fault raises with its own message and line.
Serialisation is canonical (header then cells in row-major order), so
parse-serialise-parse is the identity on any ordering the parser accepts.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from operator import add, ge, itemgetter, lshift, methodcaller, mul

from hyperalg.core import MAX_ORDER, Hypergroup, bits, mask_of, validate

MAX_CHARS = 1 << 24  # longest text the CLI reads; canonical order-64 tables stay under 800k
# 2^16 characters and on through the next line end of str.splitlines, or the
# rest: the reader splits one chunk at a time, never holding every line at once.
_CHUNK = re.compile("(?s).{65536}.*?(?:\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029])|.+")
# A comment up to its line end: one space replaces it, so "\r#c\n" stays two line ends.
_COMMENT = re.compile("#[^\r\n\v\f\x1c-\x1e\x85\u2028\u2029]*")
_BATCH = 512  # raw lines per batch of the cell pass


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


def _batches(text: str):
    """(first line's number, raw lines) per run of _BATCH lines of a chunk, comments cut."""
    start = 1
    for chunk in _CHUNK.finditer(text):
        raws = (_COMMENT.sub(" ", chunk[0]) if "#" in chunk[0] else chunk[0]).splitlines()
        for at in range(0, len(raws), _BATCH):
            yield start + at, raws[at:at + _BATCH]
        start += len(raws)


def _nonblank(start: int, raws: list[str]):
    return ((n, line) for n, line in enumerate(raws, start) if line and not line.isspace())


def _fill(flat: list[int], order: int, raws: list[str], line: int) -> None:
    """Write a batch's cells into the row-major table, or write none and raise the
    first failing check, named by the batch's first row and `line`: exact for one line."""
    rows = [*map(methodcaller("split", None, order + 4), filter(str.strip, raws))]
    if not rows:
        return
    lengths = [*map(len, rows)]
    if [*map(itemgetter(0), rows)].count("cell") < len(rows):
        raise FormatSyntaxError(f"unknown directive {rows[0][0]!r}", line)
    if min(lengths) < 4 or [*map(itemgetter(3), rows)].count(":") < len(rows):
        raise FormatSyntaxError("expected `cell <i> <j> : <members...>`", line)
    if max(lengths) > order + 4:  # a valid cell line has at most order + 4 tokens
        raise FormatSyntaxError(f"cell line lists more than {order} members", line)
    try:
        rs, cs = ([*map(int, map(itemgetter(at), rows))] for at in (1, 2))
        ks = [*map(int, chain.from_iterable(map(itemgetter(slice(4, None)), rows)))]
    except ValueError:
        raise FormatSyntaxError("cell indices must be integers", line) from None
    if min(chain(rs, cs)) < 0 or max(chain(rs, cs)) >= order:
        raise IndexOutOfRange(f"cell ({rs[0]},{cs[0]}) outside order {order}", line)
    if min(ks, default=0) < 0 or max(ks, default=0) >= order:
        raise IndexOutOfRange(f"cell ({rs[0]},{cs[0]}) lists a member outside 0..{order - 1}", line)
    if min(lengths) == max(lengths) == 5:  # one member per cell, as in a group table
        masks = map(lshift, repeat(1), ks)
    else:
        members = [[*map(int, tokens[4:])] for tokens in rows]
        if any(any(map(ge, m, m[1:])) for m in members if len(m) > 1):
            raise FormatSyntaxError("cell members must be strictly ascending", line)
        masks = map(mask_of, members)
    cells = [*map(add, map(mul, rs, repeat(order)), cs)]
    if len(set(cells)) < len(cells) or max(map(flat.__getitem__, cells)) >= 0:
        raise DuplicateCell(f"cell ({rs[0]},{cs[0]}) appears twice", line)
    for cell, mask in zip(cells, masks):
        flat[cell] = mask


def read_table(text: str) -> tuple[str, int, list[list[int]]]:
    """Parse header and cells into (name, order, mask table), no validation."""
    batches = _batches(text)
    lines = ((lineno, line, batch) for batch in batches for lineno, line in _nonblank(*batch))
    values = []
    for (keyword, expected), (lineno, line, batch) in zip(_HEADER, lines):
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

    flat = [-1] * (order * order)  # row-major; -1: not filled yet
    for start, raws in chain([(lineno + 1, batch[1][lineno + 1 - batch[0]:])], batches):
        try:
            _fill(flat, order, raws, start)
        except FileFormatError:  # the batch wrote nothing: its first line at fault raises
            for lineno, raw in enumerate(raws, start):
                _fill(flat, order, [raw], lineno)

    if -1 in flat:
        missing = [divmod(cell, order) for cell, mask in enumerate(flat) if mask < 0]
        raise MissingCell(f"cell {missing[0]} is missing ({len(missing)} missing in total)", None)
    return name, order, [flat[at:at + order] for at in range(0, order * order, order)]


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
