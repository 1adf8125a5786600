"""Command-line surface: validate, gaps, agg, roll, print.

Each command is a thin composition of library calls: ingest a CSV, run the
operation, serialize the result.  Data goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 validity error, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import sys

from . import aggregates, gaps, rolling, verbs
from .display import render_summary
from .errors import (
    DuplicateIndexError,
    PreconditionError,
    SchemaError,
    TemporalTableError,
    UsageError,
)
from .granularity import Granularity
from .ingest import IngestConfig, ingest, read_cell, table_to_csv, write_csv
from .table import TemporalTable, as_kind
from .timepoint import parse_timepoint

_TIME_FORMATS = {g.value for g in Granularity} | {"guess"}


def _add_ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("csv", help="input CSV file with a header row")
    p.add_argument("--index", required=True, help="index column name")
    p.add_argument("--key", default="", help="comma-separated key column names")
    p.add_argument("--irregular", action="store_true",
                   help="declare the spacing irregular instead of inferring an interval")
    p.add_argument("--zone", default=None, help="time zone label for sub-daily columns")
    p.add_argument("--time-format", action="append", default=[], metavar="COL=GRAN",
                   help="parse COL as time at a granularity (year..millisecond, "
                        "ordinal, or guess); repeatable")
    p.add_argument("--delimiter", default=",", help="field delimiter (default comma)")


def _split_key(text: str) -> tuple[str, ...]:
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _pairs(raw: list[str], flag: str) -> list[tuple[str, str]]:
    out = []
    for item in raw:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"{flag} expects COL=VALUE, got {item!r}")
        out.append((name, value))
    return out


def _per_column(raw: list[str], flag: str) -> dict[str, str]:
    """``_pairs`` for a flag that sets one value per column: a column given
    twice is refused, not overwritten."""
    out = {}
    for name, value in _pairs(raw, flag):
        if name in out:
            raise UsageError(f"{flag} names column {name!r} more than once")
        out[name] = value
    return out


def _config(args) -> IngestConfig:
    formats = _per_column(args.time_format, "--time-format")
    for col, gran in formats.items():
        if gran not in _TIME_FORMATS:
            raise UsageError(
                f"--time-format {col}={gran}: unknown granularity; expected one "
                f"of {', '.join(sorted(_TIME_FORMATS))}"
            )
    if len(args.delimiter) != 1:
        raise UsageError(f"--delimiter must be one character, got {args.delimiter!r}")
    key = _split_key(args.key)
    if args.index in key:
        raise UsageError("--index column cannot appear in --key")
    return IngestConfig(
        path=args.csv,
        index=args.index,
        key=key,
        regular=not args.irregular,
        time_format=formats,
        zone=args.zone,
        delimiter=args.delimiter,
    )


def _parse_agg_spec(spec: str) -> None:
    try:
        aggregates.parse_spec(spec)
    except SchemaError as exc:
        raise UsageError(str(exc)) from None


# --- commands ---------------------------------------------------------------


def _cmd_validate(args) -> int:
    t = ingest(_config(args))
    print(render_summary(t))
    return 0


def _fill_policy(t: TemporalTable, col: str, text: str):
    """A constant of the column's kind when the text reads as one, the way
    a CSV cell of that column is read, otherwise an aggregate name.  A
    column of kind None (no present cell) reads any text as a constant."""
    kind = t.kind_of(col)
    if kind == "text":
        return text
    try:
        if kind == "time":
            sample = next(v for v in t.column(col) if v is not None)
            return parse_timepoint(text, sample.granularity, sample.zone)
        return as_kind(read_cell(text), kind)
    except TemporalTableError:
        pass
    try:
        return aggregates.Aggregate(text)
    except TemporalTableError:
        raise UsageError(
            f"--fill-with {col}={text}: neither a {kind} constant nor an aggregate"
        ) from None


def _cmd_gaps(args) -> int:
    t = ingest(_config(args))
    out = sys.stdout
    if args.mode == "has":
        result = gaps.has_gaps(t, full=args.full)
        write_csv(out, list(t.key) + ["has_gaps"], ([*kt, flag] for kt, flag in result))
    elif args.mode == "scan":
        result = gaps.scan_gaps(t, full=args.full)
        write_csv(out, list(t.key) + [t.index], ([*kt, v] for kt, v in result))
    elif args.mode == "count":
        report = gaps.count_gaps(t, full=args.full)
        write_csv(out, list(report.key_names) + ["from", "to", "n"],
                  ([*kt, lo, hi, n] for kt, lo, hi, n in report.entries))
    else:
        fills = {col: _fill_policy(t, col, text)
                 for col, text in _per_column(args.fill_with, "--fill-with").items()}
        filled = gaps.fill_gaps(t, fills, full=args.full)
        table_to_csv(filled, out)
    return 0


def _cmd_agg(args) -> int:
    try:
        by = Granularity(args.by)
    except ValueError:
        raise UsageError(f"--by {args.by}: unknown granularity") from None
    fns = _pairs(args.fn, "--fn")
    if not fns:
        raise UsageError("agg needs at least one --fn COL=FN")
    for col, spec in fns:
        _parse_agg_spec(spec)

    t = ingest(_config(args))
    if args.group:
        t = verbs.group_by(t, *_split_key(args.group))
    t = verbs.index_by(t, by)
    aggs = {
        f"{col}_{spec.replace(':', '_')}": (spec, col) for col, spec in fns
    }
    result = verbs.summarize(t, **aggs)
    table_to_csv(result, sys.stdout)
    return 0


def _cmd_roll(args) -> int:
    _parse_agg_spec(args.fn)
    # Each window flag has one meaning: stretch's first prefix is --init,
    # and slide and tile have a --size; the other flag is refused.
    flag, size, other, unused = (
        ("--init", args.init, "--size", args.size) if args.op == "stretch"
        else ("--size", args.size, "--init", args.init)
    )
    if unused is not None:
        raise UsageError(f"{args.op} takes {flag}, not {other}")
    if size is None:
        raise UsageError(f"{args.op} needs {flag}")
    try:
        w = rolling.check_window(
            args.op, rolling.Window(size=size, step=args.step, partial=args.partial)
        )
    except PreconditionError as exc:
        raise UsageError(str(exc)) from None
    t = ingest(_config(args))
    result = rolling.roll_by_key(t, args.col, args.op, args.fn, w)
    table_to_csv(result, sys.stdout)
    return 0


# --- dispatch ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttab", description="temporal table toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", aliases=["print"],
                       help="build a table and report its summary")
    _add_ingest_args(p)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("gaps", help="analyze or fill implicit missing rows")
    p.add_argument("mode", choices=("has", "scan", "count", "fill"))
    _add_ingest_args(p)
    p.add_argument("--full", action="store_true",
                   help="span the global time range instead of each key's own")
    p.add_argument("--fill-with", action="append", default=[], metavar="COL=VALUE",
                   help="fill policy: a constant of the column's kind, or an "
                        "aggregate (sum, mean, min, max, count); repeatable")
    p.set_defaults(run=_cmd_gaps)

    p = sub.add_parser("agg", help="aggregate to a coarser time granularity")
    _add_ingest_args(p)
    p.add_argument("--by", required=True, help="target granularity")
    p.add_argument("--fn", action="append", default=[], metavar="COL=FN",
                   help="aggregate FN over COL (sum, mean, min, max, count, "
                        "quantile:p); repeatable")
    p.add_argument("--group", default="", help="comma-separated grouping columns")
    p.set_defaults(run=_cmd_agg)

    p = sub.add_parser("roll", help="rolling computation within each key")
    _add_ingest_args(p)
    p.add_argument("--op", required=True, choices=("slide", "tile", "stretch"))
    p.add_argument("--col", required=True, help="numeric column to roll over")
    p.add_argument("--fn", required=True, help="window aggregate (sum, mean, ...)")
    p.add_argument("--size", type=int, default=None, help="window size")
    p.add_argument("--step", type=int, default=1, help="stride between windows")
    p.add_argument("--init", type=int, default=None,
                   help="initial prefix length (stretch)")
    p.add_argument("--partial", action="store_true",
                   help="emit growing partial windows before the first full one")
    p.set_defaults(run=_cmd_roll)

    return parser


def _report_duplicates(exc: DuplicateIndexError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    report = exc.report
    if report.rows:
        names = list(report.rows[0])
        write_csv(sys.stderr, names, ([row[c] for c in names] for row in report.rows))


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DuplicateIndexError as exc:
        _report_duplicates(exc)
        return 1
    except TemporalTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
