"""Command-line front end: list / count / map / check / render / series / verify.

Each subcommand's runner yields records lazily; :func:`main` alone parses,
dispatches, writes the records and chooses the exit code.  Output is
line-oriented and byte-deterministic for a fixed invocation, so commands
compose in shell pipelines.  Exit codes: 0 success, 1 invalid input object
(or standard input that cannot be read, or standard output that cannot be
written or is closed by its reader), 2 precondition violation,
3 verification failure, 64 usage error (including an --out path that cannot
be written).
"""

import argparse
import itertools
import json
import os
import sys
from contextlib import nullcontext

from . import bijections, enumeration, partitions, paths, rendering, verify
from .errors import (
    InvalidObjectError,
    LibraryError,
    LimitExceededError,
    PreconditionError,
)

# The largest n that list and count enumerate unless --max-n says otherwise;
# the library's generators take any size.
DEFAULT_LIMIT = 12
USAGE_ERROR = 64
_CHUNK = 1 << 16  # characters of stdin read at a time
# the exit code of each library error
EXIT_CODES = {
    InvalidObjectError: 1,
    PreconditionError: 2,
    LimitExceededError: USAGE_ERROR,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _ChecksFailed(Exception):
    """Raised by a runner after its last record when a check failed (exit 3)."""


def _selection_misuse(args):
    if args.n < 0:
        return "n must be non-negative"
    if args.kind == "paths" and args.pattern is not None:
        return "--pattern applies only to partitions"
    if args.kind == "partitions" and args.path_class is not None:
        return "--class applies only to paths"


def _non_negative(dest, flag):
    return lambda a: f"{flag} must be non-negative" if getattr(a, dest) < 0 else None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partition-paths",
        description="Pattern-avoiding set partitions, restricted Schroder "
        "paths, the bijections between them, and exact counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, misuse=lambda args: None, formats=("text", "json")):
        # run(args) yields the records; misuse(args) names a misuse, or is None
        sp.set_defaults(run=run, misuse=misuse)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", metavar="PATH", help="write output to a file")

    for cmd, run in (("list", _run_list), ("count", _run_count)):
        sp = sub.add_parser(cmd, help=f"{cmd} partitions or paths of a given size")
        sp.add_argument("kind", choices=("partitions", "paths"))
        sp.add_argument("n", type=int)
        sp.add_argument("--pattern", help="keep only partitions avoiding this word")
        sp.add_argument(
            "--class",
            dest="path_class",
            choices=paths.PATH_CLASSES,
            help="path class (default: schroder)",
        )
        sp.add_argument(
            "--max-n",
            type=int,
            default=DEFAULT_LIMIT,
            help="exhaustive limit (default: %(default)s)",
        )
        common(sp, run, _selection_misuse)

    sp = sub.add_parser("map", help="apply a bijection to each input object")
    sp.add_argument("name", choices=tuple(bijections.MAPS))
    sp.add_argument(
        "objects",
        nargs="*",
        help="optional leading 'forward' (the default) or 'inverse', then "
        "objects; objects are read from stdin when none are given",
    )
    common(sp, _run_map)

    sp = sub.add_parser("check", help="report the predicate record of each object")
    sp.add_argument("kind", choices=("partition", "path"))
    sp.add_argument("objects", nargs="*")
    common(sp, _run_check)

    sp = sub.add_parser("render", help="draw each input path")
    sp.add_argument("objects", nargs="*")
    sp.add_argument("--class", dest="path_class", choices=paths.PATH_CLASSES)
    common(sp, _run_render, formats=tuple(rendering.RENDERERS))

    sp = sub.add_parser("series", help="print counting-series coefficients")
    sp.add_argument("identifier", choices=tuple(enumeration.SERIES))
    sp.add_argument("--order", type=int, default=32)
    common(sp, _run_series, _non_negative("order", "--order"))

    sp = sub.add_parser("verify", help="run the cross-module identity suite")
    sp.add_argument("--max-n", type=int, default=6)
    common(sp, _run_verify, _non_negative("max_n", "--max-n"))

    # the subcommands' own parsers, which main parses with: options may stand
    # among the objects, and a misuse is reported with its command's usage
    parser.commands = sub.choices
    return parser


def _input_objects(args):
    """The objects on argv, or else an iterator over the lines of stdin."""
    return args.objects or itertools.chain.from_iterable(_stdin_lines())


def _stdin_lines():
    """The lines of stdin, each without its "\\n", as one list per chunk read,
    so that memory stays flat and a pipeline's stages overlap.  A line ends
    at "\\n" alone: \\x0c, \\x1e and the other str.splitlines separators stay in
    the line, for its parser to report.  A line that spans chunks is joined
    once from its pieces."""
    pieces = []
    try:
        stream = sys.stdin or open(0, closefd=False, newline="\n")
        while chunk := stream.read(_CHUNK):
            lines = chunk.split("\n")
            pieces.append(lines[0])
            if len(lines) > 1:
                lines[0] = "".join(pieces)
                pieces = [lines.pop()]
                yield lines
    except OSError as exc:  # as a LibraryError, so main reports no failed write
        message = f"cannot read standard input: {exc.strerror}"
        raise InvalidObjectError(message) from None
    if tail := "".join(pieces):
        yield [tail]


def _infer_path_class(text: str) -> str:
    """schroder unless the text has a left step L, skew_dyck if it has an L
    but no horizontal step H; other characters are left for parse_path."""
    if "L" not in text:
        return "schroder"
    if "H" not in text:
        return "skew_dyck"
    raise InvalidObjectError(
        "path mixes horizontal and left steps; no class allows both"
    )


def _selected(args):
    """The objects a list or count command selects, lazily; the one place
    that holds n to the exhaustive limit."""
    pattern = None if args.pattern is None else partitions.parse_partition(args.pattern)
    if args.n > args.max_n:
        raise LimitExceededError(
            f"n={args.n} exceeds the exhaustive limit {args.max_n}"
        )
    if args.kind == "paths":
        return paths.generate_paths(args.n, args.path_class or "schroder")
    return partitions.generate_partitions(args.n, avoiding=pattern)


def _run_list(args):
    return map(str, _selected(args))


def _run_count(args):
    yield sum(1 for _ in _selected(args))


def _run_map(args):
    # popped first, so that _input_objects streams stdin when no object is left
    direction = "forward"
    if args.objects and args.objects[0] in bijections.MAPS[args.name]:
        direction = args.objects.pop(0)
    return map(str, map(bijections.MAPS[args.name][direction], _input_objects(args)))


def _run_check(args):
    fast = [(f"avoids_{k}", v.avoids_fast) for k, v in partitions.FAST_PATTERNS.items()]
    for text in _input_objects(args):
        if args.kind == "partition":
            p = partitions.parse_partition(text)
            record = {"object": str(p), "n": p.n, "blocks": p.block_count}
            for key, avoids_fast in fast:
                record[key] = avoids_fast(p)
            record["irreducible"] = bool(p) and partitions.is_irreducible_char(p)
        else:
            cls = _infer_path_class(text)
            p = paths.parse_path(text, cls)
            record = {
                "object": str(p),
                "family": cls if "H" in p or "L" in p else "dyck",
                "semilength": p.semilength,
                "peaks": len(paths.peaks(p)),
                **vars(paths.classify(p)),
            }
        yield record


def _run_render(args):
    for i, text in enumerate(_input_objects(args)):
        p = paths.parse_path(text, args.path_class or _infer_path_class(text))
        if i:
            yield ""  # a blank line between two drawings
        yield rendering.render(p, args.format)


def _run_series(args):
    coefficients = enumeration.series(args.identifier, args.order).coefficients
    if args.format == "json":
        yield list(coefficients)
    else:
        yield from (f"{i} {value}" for i, value in enumerate(coefficients))


def _run_verify(args):
    results = verify.run_checks(args.max_n)
    passed = sum(r.ok for r in results)
    if args.format == "json":
        yield [
            {"name": r.name, "max_n": r.max_n, "ok": r.ok, "failure": r.failure}
            for r in results
        ]
    else:
        for r in results:
            if r.ok:
                yield f"PASS {r.name} (n <= {r.max_n})"
            else:
                yield f"FAIL {r.name}: {r.failure}"
        yield f"{passed}/{len(results)} checks passed"
    if passed < len(results):
        raise _ChecksFailed


def _write(records, out, fmt) -> None:
    """The one writer: each record and a newline, as JSON, or as text with a
    dict as key=value pairs and lower-case booleans, told from ints by
    identity, as 1 == True.  The closing flush reports a reader that closed
    stdout while main can still handle it."""
    try:
        for record in records:
            if fmt == "json":
                record = json.dumps(record)
            elif isinstance(record, dict):
                record = " ".join([
                    f"{k}={'true' if v is True else 'false' if v is False else v}"
                    for k, v in record.items()
                ])
            # two writes, not one f"{record}\n": the join copies each drawing,
            # and into an in-memory stdout it raised the render stage's peak
            # memory by a fifth; so _run_render's blank line is a record too
            out.write(str(record))
            out.write("\n")
    finally:
        out.flush()


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # --help, or a missing or unknown subcommand
        command, args = parser, parser.parse_args(argv)
    else:
        args = command.parse_intermixed_args(argv[1:])
    if misuse := args.misuse(args):
        command.error(misuse)
    try:
        if args.out:
            output = open(args.out, "w")
        else:  # sys.stdout is None when the shell closed it; opening fd 1 says why
            output = nullcontext(sys.stdout or open(1, "w", closefd=False))
        with output as out:
            # called only now, so that no runner starts before the output is open
            _write(args.run(args), out, args.format)
    except _ChecksFailed:
        return 3
    except LibraryError as exc:
        print(f"partition-paths: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except OSError as exc:
        # Only the output raises one here, as _stdin_lines turns a failed
        # read of stdin into a LibraryError.  Point stdout at devnull, so that
        # the interpreter's final flush cannot fail again; a reader that
        # closed it (as `| head` does) gets a quiet 1, as the Python docs on
        # SIGPIPE advise.
        if not args.out and sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if args.out or not isinstance(exc, BrokenPipeError):
            message = f"cannot write {args.out or 'standard output'}: {exc.strerror}"
            print(f"partition-paths: {message}", file=sys.stderr)
        return USAGE_ERROR if args.out else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
