"""Command line surface: the only I/O boundary of the package.

Exit codes: 0 success, 1 domain failure (invalid hypergroup, violated
statement, failing group import, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from hyperalg.closed import EmptySet
from hyperalg.core import HypergroupError, InternalMismatch, mask_of
from hyperalg.enumeration import OrderOutOfRange, enumerate_hypergroups
from hyperalg.fileformat import MAX_CHARS, FileFormatError, parse, read_table, serialize
from hyperalg.groups import NotAGroup, from_group
from hyperalg.harness import build_corpus, run_harness
from hyperalg.quotient import NotClosed, build_quotient
from hyperalg.report import analyze, render_machine, render_text
from hyperalg.series import statement_ids

_DOMAIN_ERRORS = (FileFormatError, HypergroupError, NotClosed, NotAGroup,
                  OrderOutOfRange, EmptySet, InternalMismatch, OSError,
                  ValueError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_CHARS + 1)
    if len(text) > MAX_CHARS:
        raise FileFormatError(f"{path} is longer than {MAX_CHARS} characters")
    return text


def _indices(text: str) -> list[int]:
    try:
        out = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated indices, got {text!r}") from None
    if not out or any(i < 0 for i in out):
        raise argparse.ArgumentTypeError(
            f"indices must be non-negative and non-empty, got {text!r}")
    return out


def _cmd_check(args) -> int:
    name, h = parse(_read(args.file))
    print(f"ok: {name} is a hypergroup of order {h.order}")
    return 0


def _cmd_analyze(args) -> int:
    name, h = parse(_read(args.file))
    report = analyze(h, name=name)
    render = render_machine if args.report == "machine" else render_text
    sys.stdout.write(render(report))
    return 0


def _cmd_quotient(args) -> int:
    name, h = parse(_read(args.file))
    if any(i >= h.order for i in args.kernel):
        raise NotClosed(f"kernel indices exceed order {h.order}")
    q = build_quotient(h, mask_of(args.kernel))
    label = f"{name}_mod_" + "-".join(str(i) for i in args.kernel)
    sys.stdout.write(serialize(q.induced, name=label))
    return 0


def _cmd_enumerate(args) -> int:
    result = enumerate_hypergroups(args.order, canonicalize=args.canonical)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for i, h in enumerate(result.hypergroups):
            label = f"order{args.order}_{i:03d}"
            with open(os.path.join(args.out, label + ".hg"), "w",
                      encoding="utf-8") as fh:
                fh.write(serialize(h, name=label))
    summary = (f"candidates={result.candidates} rejects={result.reject_total()} "
               f"survivors={len(result.survivors)}")
    if result.canonical is not None:
        summary += f" canonical={len(result.canonical)}"
    print(summary)
    return 0


def _cmd_from_group(args) -> int:
    name, order, table = read_table(_read(args.file))
    cayley = []
    for i in range(order):
        row = []
        for j in range(order):
            cell = table[i][j]
            if cell == 0 or cell & (cell - 1):
                raise NotAGroup(f"cell ({i},{j}) is not a single element")
            row.append(cell.bit_length() - 1)
        cayley.append(row)
    h = from_group(cayley)
    sys.stdout.write(serialize(h, name=name))
    return 0


def _cmd_verify(args) -> int:
    corpus = build_corpus(max_enum_order=args.order, groups_up_to=args.groups_up_to)
    report = run_harness(corpus, args.statements)
    for line in report.lines():
        print(line)
    return 1 if report.violated else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperalg",
        description="Finite hypergroups: axioms, closed subsets, quotients, "
                    "nilpotency and solvability analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of a hypergroup file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("analyze", help="full analysis report for one file")
    p.add_argument("file")
    p.add_argument("--report", choices=("text", "machine"), default="text")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("quotient", help="quotient over a closed kernel")
    p.add_argument("file")
    p.add_argument("--kernel", type=_indices, required=True,
                   metavar="I,J,...", help="member indices of the kernel")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("enumerate", help="all hypergroups of a small order")
    p.add_argument("--order", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--canonical", action="store_true",
                   help="deduplicate under identity-fixing relabelings")
    p.add_argument("--out", metavar="DIR", help="write one file per survivor")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("from-group", help="import a Cayley table as a thin hypergroup")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_from_group)

    p = sub.add_parser("verify", help="run the statement harness over a corpus")
    p.add_argument("--order", type=int, choices=(2, 3, 4), default=3,
                   help="enumerate all hypergroups up to this order")
    p.add_argument("--groups-up-to", type=int, default=8, metavar="M",
                   help="import bundled groups of order at most M")
    p.add_argument("--statements", type=lambda s: s.split(","), default=None,
                   metavar="LIST", help="comma-separated statement ids")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "statements", None) is not None:
        known = set(statement_ids())
        bad = [sid for sid in args.statements if sid not in known]
        if bad:
            parser.error(f"unknown statement ids: {', '.join(bad)}")
    try:
        return args.fn(args)
    except _DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
