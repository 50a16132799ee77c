"""
Command-line surface tying the library together.

Subcommands: count, enumerate, construct {s3,prop2,connolly}, lambda, wilf,
check (a permutation pattern in a square's rows and columns), rect-check (a
rectangle pattern in a square), verify {theorem6,corollary6,remark4,es}.

Exit codes: 0 success, 1 internal error or failed verification, 2 invalid
input, 3 feasibility refusal.  Output goes to stdout as JSON by default
(`--format table|csv` for humans and spreadsheets); progress and cache
chatter goes to stderr so stdout stays byte-deterministic: for fixed inputs
and flags, the output never depends on --jobs.  Every report reaches this
module as one JSON-ready dict, computed or read from the cache, and is
rendered here in each format.

Counting results can be cached in a JSON-lines file under --cache-dir (or
$LATINPAT_CACHE_DIR); --no-cache disables it and --verify-cache recomputes
every hit and fails loudly on any mismatch.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import Callable, Iterator

from . import __version__, analysis, construct, rectpat
from .enumeration import (
    ENGINE_VERSION,
    FeasibilityError,
    count_squares,
    render_squares,
)
from .perm import find_occurrence, parse_perm
from .square import (
    AvoidanceSpec,
    column_permutations,
    load_rectangle,
    load_square,
    row_permutations,
    serialize_square,
    square_to_json,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

CACHE_ENV_VAR = "LATINPAT_CACHE_DIR"
CACHE_FILE = "cache.jsonl"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _is_grid(v) -> bool:
    return (
        isinstance(v, list)
        and bool(v)
        and all(
            isinstance(row, list) and row and not any(isinstance(x, (dict, list)) for x in row)
            for row in v
        )
    )


def _table_lines(obj, indent: str = "") -> Iterator[str]:
    # keys in sorted order, as --format json and the cache store them, so a
    # cache hit prints as its miss did; each dict in a list opens with "- ",
    # so one record's keys do not run into the next one's
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            if _is_grid(v):
                yield f"{indent}{k}:"
                for row in v:
                    yield f"{indent}  {' '.join(str(x) for x in row)}"
            elif isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _table_lines(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, dict):
                for j, line in enumerate(_table_lines(v, indent + "  ")):
                    yield line if j else f"{indent}- {line[len(indent) + 2:]}"
            elif isinstance(v, list):
                yield from _table_lines(v, indent + "  ")
            else:
                yield f"{indent}- {v}"
    else:
        yield f"{indent}{obj}"


def _emit(value: dict, fmt: str, csv: Callable[[dict], str] | None = None) -> None:
    """Write a result dict to stdout as JSON, as CSV (rendered by csv) or as a table."""
    if fmt == "json":
        sys.stdout.write(json.dumps(value, sort_keys=True) + "\n")
    elif fmt == "csv":
        sys.stdout.write(csv(value))
    else:
        sys.stdout.write("".join(line + "\n" for line in _table_lines(value)))


def _count_csv(value: dict) -> str:
    return f"order,count,nodes_explored\n{value['order']},{value['count']},{value['nodes_explored']}\n"


def _wilf_csv(d: dict) -> str:
    """CSV of a wilf_classes dict: one row per pattern with its class id."""
    class_of = {}
    for cid, cls in enumerate(d["classes"], start=1):
        for p in cls["patterns"]:
            class_of[p] = cid
    lines = ["pattern,count,class_id"]
    for p in sorted(d["counts"]):
        lines.append(f"{p},{d['counts'][p]},{class_of[p]}")
    return "\n".join(lines) + "\n"


def _lambda_csv(d: dict) -> str:
    """CSV of a lambda report dict: a header and one row."""
    head = "order,lower_bound,exact_value,witness_cap,method"
    row = (
        f"{d['order']},{d['lower_bound']},"
        f"{'' if d['exact_value'] is None else d['exact_value']},"
        f"{'' if d['witness_cap'] is None else d['witness_cap']},{d['method']}"
    )
    return head + "\n" + row + "\n"


def _progress_emitter(args) -> Callable[[int, int, int], None] | None:
    if args.progress != "json":
        return None

    def emit(done: int, total: int, states: int) -> None:
        event = {"event": "progress", "rows_done": done, "rows_total": total, "states": states}
        sys.stderr.write(json.dumps(event) + "\n")
        sys.stderr.flush()

    return emit


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class CacheStore:
    """
    Append-only JSON-lines cache; the last valid entry for a key wins.

    `store` writes each entry as `json.dumps(entry, sort_keys=True)`, so
    `"key"` comes first and every entry for a key is a line starting with
    `{"key": <the key's sorted dump>, `.  `lookup` searches the file for the
    last line with that head and parses only it, stepping back past lines
    that do not parse.  Lines in any other form are never served.
    """

    def __init__(self, directory: Path):
        self.path = directory / CACHE_FILE

    def lookup(self, key: dict) -> dict | None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        wanted = json.dumps(key, sort_keys=True)
        head = b'{"key": ' + wanted.encode() + b", "
        found, skipped, end = None, 0, len(data)
        while (at := data.rfind(head, 0, end)) >= 0:
            end = at + len(head) - 1
            if at and data[at - 1] != ord("\n"):
                continue  # not at the start of a line
            stop = data.find(b"\n", at)
            try:
                entry = json.loads(data[at:stop if stop >= 0 else None])
            except ValueError:
                skipped += 1
                continue
            if json.dumps(entry.get("key"), sort_keys=True) == wanted:
                found = entry.get("value")
                break
        if skipped:
            sys.stderr.write(f"cache: skipped {skipped} unreadable entries for this key\n")
        return found

    def store(self, key: dict, value: dict) -> None:
        entry = {
            "key": key,
            "value": value,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode()
        # the directory is made here, at the first entry, so a command that
        # fails before it computes anything leaves no directory behind
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # unbuffered, so the entry goes out in one write; a file whose last
        # line was torn by a writer that died gets the entry on a new line
        with self.path.open("ab+", buffering=0) as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)


def _cache_store(args) -> CacheStore | None:
    if getattr(args, "no_cache", False):
        return None
    directory = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    return CacheStore(Path(directory))


def _cached(args, key: dict, compute: Callable[[], dict]) -> dict:
    """
    Fetch from the cache or compute and store.  Every key carries
    ENGINE_VERSION, so an entry stored by another engine is never served.
    With --verify-cache a hit is recomputed and any discrepancy aborts the
    program.
    """
    store = _cache_store(args)
    if store is None:
        return compute()
    key = {**key, "engine": ENGINE_VERSION}
    hit = store.lookup(key)
    if hit is not None:
        if getattr(args, "verify_cache", False):
            fresh = compute()
            if json.dumps(fresh, sort_keys=True) != json.dumps(hit, sort_keys=True):
                raise RuntimeError(
                    f"cache verification failed for key {json.dumps(key, sort_keys=True)}: "
                    f"cached {hit} != recomputed {fresh}"
                )
            sys.stderr.write("cache entry verified\n")
        return hit
    value = compute()
    store.store(key, value)
    return value


def _spec_digest(spec: AvoidanceSpec) -> str:
    return hashlib.sha256(
        json.dumps(spec.to_dict(), sort_keys=True).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------

def _add_avoid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--avoid", action="append", default=[], metavar="P",
                   help="pattern to avoid in all rows and all columns (repeatable)")
    p.add_argument("--avoid-rows", action="append", default=[], metavar="P",
                   help="pattern to avoid in rows only")
    p.add_argument("--avoid-cols", action="append", default=[], metavar="P",
                   help="pattern to avoid in columns only")
    p.add_argument("--avoid-symbols", action="append", default=[], metavar="P",
                   help="pattern the symbol permutations must avoid")


def _add_common_flags(p: argparse.ArgumentParser, formats=("json", "csv", "table"),
                      *, progress: bool = False) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (affects wall time only, never output)")
    if progress:
        p.add_argument("--progress", choices=["json"],
                       help="emit machine-readable progress lines on stderr")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", help=f"cache directory (default: ${CACHE_ENV_VAR})")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--verify-cache", action="store_true",
                   help="recompute cache hits and fail on mismatch")


def _build_spec(args) -> AvoidanceSpec:
    rows = [parse_perm(p) for p in args.avoid] + [parse_perm(p) for p in args.avoid_rows]
    cols = [parse_perm(p) for p in args.avoid] + [parse_perm(p) for p in args.avoid_cols]
    syms = [parse_perm(p) for p in args.avoid_symbols]
    return AvoidanceSpec(tuple(rows), tuple(cols), tuple(syms))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    spec = _build_spec(args)
    progress = _progress_emitter(args)

    def compute() -> dict:
        result = count_squares(args.order, spec, force=args.force, progress=progress)
        return result.to_dict()

    key = {"op": "count", "order": args.order, "spec": _spec_digest(spec)}
    value = _cached(args, key, compute)
    _emit(value, args.format, _count_csv)
    return EXIT_OK


class _SquareLines(dict):
    """
    The parts of an enumerate line, json.dumps(square_to_json(sq),
    sort_keys=True) and a newline: head, then each row's JSON text joined
    by sep, then tail.  render_squares grows the text of a square's rows
    above the walk's leaf row once per row step and keeps the text of each
    ending, its last two rows each after sep and then the tail, so a line
    is one concatenation: the 161,280 lines of order 5 take about 0.09 s
    at one job.  A row's text is made on first lookup and kept in this
    dict, 120 of them at order 5 and 720 at order 6.  Picklable, so a
    worker process renders its own tasks' lines and keeps its copy of the
    texts across them.
    """

    head, sep = '{"grid": [', ", "

    def __init__(self, n: int):
        super().__init__()
        self.tail = f'], "order": {n}}}\n'

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = json.dumps(list(row))
        return text

    def __call__(self, grid) -> str:
        return self.head + self.sep.join(map(self.__getitem__, grid)) + self.tail


def _cmd_enumerate(args) -> int:
    spec = _build_spec(args)
    progress = args.progress == "json"
    seen = 0
    # lines arrive in pieces of at most RENDER_PIECE_SQUARES squares, made
    # where their task runs; progress reports every 10,000 a piece's end
    # crossed
    texts = render_squares(args.order, spec, _SquareLines(args.order), jobs=args.jobs, force=args.force)
    with closing(texts):
        for text in texts:
            sys.stdout.write(text)
            if progress:
                done = seen + text.count("\n")
                for squares in range((seen // 10000 + 1) * 10000, done + 1, 10000):
                    sys.stderr.write(json.dumps({"event": "progress", "squares": squares}) + "\n")
                sys.stderr.flush()
                seen = done
    if progress:
        sys.stderr.write(json.dumps({"event": "done", "squares": seen}) + "\n")
    return EXIT_OK


def _emit_square(sq, fmt: str) -> None:
    if fmt == "json":
        _emit(square_to_json(sq), fmt)
    else:
        sys.stdout.write(serialize_square(sq))


def _cmd_construct_s3(args) -> int:
    sq = construct.construct_s3_avoider(args.order, parse_perm(args.pattern), args.start)
    _emit_square(sq, args.format)
    return EXIT_OK


def _cmd_construct_prop2(args) -> int:
    sq = construct.complete_columns_avoiding(parse_perm(args.first_row), parse_perm(args.pattern))
    _emit_square(sq, args.format)
    return EXIT_OK


def _cmd_construct_connolly(args) -> int:
    if args.root < 1:
        raise ValueError(f"root must be >= 1, got {args.root}")
    _emit_square(construct.connolly_square(args.root), args.format)
    return EXIT_OK


def _cmd_lambda(args) -> int:
    if args.exhaustive:
        key = {"op": "lambda-exhaustive", "order": args.order}
        value = _cached(args, key, lambda: analysis.compute_lambda_exhaustive(args.order))
    else:
        value = analysis.lambda_bound_report(args.order)
    _emit(value, args.format, _lambda_csv)
    return EXIT_OK


def _cmd_wilf(args) -> int:
    key = {"op": "wilf", "length": args.length, "order": args.order, "mode": args.mode}

    def compute() -> dict:
        return analysis.wilf_classes(args.length, args.order, mode=args.mode, force=args.force)

    value = _cached(args, key, compute)
    _emit(value, args.format, _wilf_csv)
    return EXIT_OK


def _cmd_check(args) -> int:
    sq = load_square(Path(args.square).read_text())
    pattern = parse_perm(args.pattern)
    witness = None
    for kind, lines in (("row", row_permutations(sq)), ("column", column_permutations(sq))):
        for idx, line in enumerate(lines, start=1):
            pos = find_occurrence(line, pattern)
            if pos is not None:
                witness = {"line_kind": kind, "line_index": idx, "positions": list(pos)}
                break
        if witness:
            break
    result = {
        "order": sq.order,
        "pattern": "".join(map(str, pattern)) if len(pattern) <= 9 else list(pattern),
        "contained": witness is not None,
        "witness": witness,
    }
    _emit(result, args.format)
    return EXIT_OK


def _cmd_rect_check(args) -> int:
    sq = load_square(Path(args.square).read_text())
    rect = load_rectangle(Path(args.rectangle).read_text())
    witness = rectpat.contains_rectangle(sq, rect)
    result = {
        "order": sq.order,
        "pattern_rows": rect.rows,
        "pattern_cols": rect.cols,
        "contained": witness is not None,
        "witness": None if witness is None else {"rows": list(witness[0]), "cols": list(witness[1])},
    }
    _emit(result, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "theorem6":
        pats = [parse_perm(p) for p in args.patterns] if args.patterns else None
        report = analysis.verify_full_length_counts(args.order, pats)
    elif args.what == "corollary6":
        report = analysis.verify_triple_containment(args.order)
    elif args.what == "remark4":
        report = analysis.verify_cyclic_structure(args.order)
    else:  # es
        report = analysis.verify_erdos_szekeres(args.p, args.q)
    _emit(report, args.format)
    return EXIT_OK if report["ok"] else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinpat",
        description="Exact pattern-avoidance computations over Latin squares.",
    )
    parser.add_argument("--version", action="version", version=f"latinpat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count squares satisfying an avoidance spec")
    p.add_argument("--order", type=int, required=True)
    _add_avoid_flags(p)
    p.add_argument("--force", action="store_true", help="run above order 6 without sizing the search")
    _add_common_flags(p, progress=True)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream satisfying squares as JSON lines")
    p.add_argument("--order", type=int, required=True)
    _add_avoid_flags(p)
    p.add_argument("--force", action="store_true", help="run above order 6 without sizing the search")
    _add_common_flags(p, formats=("json",), progress=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("construct", help="emit squares built in closed form")
    csub = p.add_subparsers(dest="generator", required=True)

    g = csub.add_parser("s3", help="the unique avoider of a length-3 pattern with a chosen top-left entry")
    g.add_argument("--order", type=int, required=True)
    g.add_argument("--pattern", required=True)
    g.add_argument("--start", type=int, required=True, help="top-left symbol, 1..order")
    g.add_argument("--format", choices=("grid", "json"), default="grid")
    g.set_defaults(func=_cmd_construct_s3)

    g = csub.add_parser(
        "prop2",
        help="the unique column-avoiding completion of an anchor row "
             "(top row; for patterns 231 and 213 the anchor is the bottom row)",
    )
    g.add_argument("--first-row", required=True, dest="first_row")
    g.add_argument("--pattern", required=True)
    g.add_argument("--format", choices=("grid", "json"), default="grid")
    g.set_defaults(func=_cmd_construct_prop2)

    g = csub.add_parser("connolly", help="the order-root^2 modular square with small line-monotone length")
    g.add_argument("--root", type=int, required=True)
    g.add_argument("--format", choices=("grid", "json"), default="grid")
    g.set_defaults(func=_cmd_construct_connolly)

    p = sub.add_parser("lambda", help="monotone-subsequence minimax analysis")
    p.add_argument("--order", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true", help="exact value by pruned search (sized above order 6)")
    mode.add_argument("--bounds", action="store_true", help="lower bound plus witness cap, no scan")
    _add_common_flags(p)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("wilf", help="partition patterns of one length by avoider count")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=("filter", "pruned"), default="filter")
    p.add_argument("--force", action="store_true", help="lift the default feasibility box")
    _add_common_flags(p)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_wilf)

    p = sub.add_parser("check", help="test a square's rows and columns for a permutation pattern")
    p.add_argument("--square", required=True, help="square file (text grid or JSON)")
    p.add_argument("--pattern", required=True, help="permutation pattern")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rect-check", help="test a square for a rectangle pattern")
    p.add_argument("--square", required=True, help="square file (text grid or JSON)")
    p.add_argument("--rectangle", required=True, help="rectangle pattern file (text grid or JSON)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_rect_check)

    p = sub.add_parser("verify", help="re-derive structural facts by enumeration; exit 1 on violation")
    vsub = p.add_subparsers(dest="what", required=True)

    v = vsub.add_parser("theorem6", help="full-length pattern counts match their closed forms")
    v.add_argument("--order", type=int, required=True)
    v.add_argument("--patterns", nargs="*", help="full-length patterns to sample")
    _add_common_flags(v, formats=("json", "table"))
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("corollary6", help="all-or-none containment of the two length-3 triples")
    v.add_argument("--order", type=int, required=True)
    v.add_argument("--format", choices=("json", "table"), default="json")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("remark4", help="avoiders of 123 are the n cyclic-decreasing squares")
    v.add_argument("--order", type=int, required=True)
    v.add_argument("--format", choices=("json", "table"), default="json")
    v.set_defaults(func=_cmd_verify)

    v = vsub.add_parser("es", help="exhaustive monotone-subsequence guarantee over a small symmetric group")
    v.add_argument("--p", type=int, required=True, dest="p")
    v.add_argument("--q", type=int, required=True, dest="q")
    v.add_argument("--format", choices=("json", "table"), default="json")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (`latinpat enumerate ... | head`): not an
        # error.  Point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except FeasibilityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - safety net
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
