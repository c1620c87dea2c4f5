"""Command-line front end: list / count / map / check / render / series / verify.

Output is line-oriented and byte-deterministic for a fixed invocation, so
commands compose in shell pipelines.  Exit codes: 0 success, 1 invalid input
object (or standard output closed by its reader), 2 precondition violation,
3 verification failure, 64 usage error (including an --out path that cannot
be written).
"""

import argparse
import json
import os
import sys

from . import bijections, enumeration, partitions, paths, rendering, verify
from .errors import (
    DEFAULT_LIMIT,
    InvalidObjectError,
    LimitExceededError,
    PreconditionError,
)

USAGE_ERROR = 64
LIMIT_ENV_VAR = "PARTITION_PATHS_MAX_N"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partition-paths",
        description="Pattern-avoiding set partitions, restricted Schroder "
        "paths, the bijections between them, and exact counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json")):
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", metavar="PATH", help="write output to a file")

    for cmd in ("list", "count"):
        sp = sub.add_parser(cmd, help=f"{cmd} partitions or paths of a given size")
        sp.add_argument("kind", choices=("partitions", "paths"))
        sp.add_argument("n", type=int)
        sp.add_argument("--pattern", help="keep only partitions avoiding this word")
        sp.add_argument(
            "--class",
            dest="path_class",
            choices=paths.PATH_CLASSES,
            default=None,
            help="path class (default: schroder)",
        )
        sp.add_argument("--max-n", type=int, default=None, help="exhaustive limit")
        common(sp)

    sp = sub.add_parser("map", help="apply a bijection to each input object")
    sp.add_argument("name", choices=tuple(bijections.MAPS))
    sp.add_argument(
        "objects",
        nargs="*",
        help="optional leading 'forward' or 'inverse', then objects; "
        "objects are read from stdin when none are given",
    )
    sp.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    common(sp)

    sp = sub.add_parser("check", help="report the predicate record of each object")
    sp.add_argument("kind", choices=("partition", "path"))
    sp.add_argument("objects", nargs="*")
    common(sp)

    sp = sub.add_parser("render", help="draw each input path")
    sp.add_argument("objects", nargs="*")
    sp.add_argument(
        "--class", dest="path_class", choices=paths.PATH_CLASSES, default=None
    )
    common(sp, formats=tuple(rendering.RENDERERS))

    sp = sub.add_parser("series", help="print counting-series coefficients")
    sp.add_argument("identifier", choices=tuple(enumeration.SERIES))
    sp.add_argument("--order", type=int, default=32)
    common(sp)

    sp = sub.add_parser("verify", help="run the cross-module identity suite")
    sp.add_argument("--max-n", type=int, default=6)
    common(sp)

    # each subcommand's own parser, so that a misused option is reported
    # with that subcommand's usage line
    parser.commands = sub.choices
    return parser


def _limit(args) -> int:
    if getattr(args, "max_n", None) is not None:
        return args.max_n
    env = os.environ.get(LIMIT_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise LimitExceededError(
                f"{LIMIT_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_LIMIT


def _input_objects(args) -> list:
    if args.objects:
        return list(args.objects)
    return sys.stdin.read().splitlines()


_STEP_LETTERS = set("".join(r.alphabet for r in paths.CLASS_RULES.values()))
_INFERRED = [(c, set(paths.CLASS_RULES[c].alphabet)) for c in ("schroder", "skew_dyck")]


def _infer_path_class(text: str) -> str:
    """schroder or skew_dyck, the first whose alphabet holds every step
    letter of the text; other characters are left for parse_path to report."""
    letters = set(text) & _STEP_LETTERS
    for cls, alphabet in _INFERRED:
        if letters <= alphabet:
            return cls
    raise InvalidObjectError(
        "path mixes horizontal and left steps; no class allows both"
    )


def _selected(args):
    """The objects a list or count command selects, lazily."""
    if args.kind == "paths":
        return paths.generate_paths(
            args.n, args.path_class or "schroder", limit=_limit(args)
        )
    if args.pattern is None:
        return partitions.generate_partitions(args.n, limit=_limit(args))
    pattern = partitions.parse_partition(args.pattern)
    for name, entry in partitions.FAST_PATTERNS.items():
        if entry.word == pattern:
            # a registered pattern prunes the generation by its prefix rule,
            # however its word is spelled
            return partitions.generate_partitions(
                args.n, limit=_limit(args), avoiding=name
            )
    return (
        p
        for p in partitions.generate_partitions(args.n, limit=_limit(args))
        if partitions.avoids(p, pattern)
    )


def _run_list(args, out) -> int:
    for obj in _selected(args):
        text = str(obj)
        out.write(json.dumps(text) if args.format == "json" else text)
        out.write("\n")
    return 0


def _run_count(args, out) -> int:
    out.write(f"{sum(1 for _ in _selected(args))}\n")
    return 0


def _run_map(args, out) -> int:
    direction = args.direction
    if args.objects and args.objects[0] in ("forward", "inverse"):
        direction = args.objects.pop(0)
    bijection = bijections.MAPS[args.name]
    if direction == "forward":
        fn, takes = bijection.forward, bijection.forward_input
    else:
        fn, takes = bijection.inverse, "path"
    parse = partitions.parse_partition if takes == "partition" else paths.parse_path
    for text in _input_objects(args):
        result = str(fn(parse(text)))
        out.write(json.dumps(result) if args.format == "json" else result)
        out.write("\n")
    return 0


def _run_check(args, out) -> int:
    fast = [(f"avoids_{k}", v.avoids_fast) for k, v in partitions.FAST_PATTERNS.items()]
    for text in _input_objects(args):
        if args.kind == "partition":
            p = partitions.parse_partition(text)
            record = {"object": str(p), "n": p.n, "blocks": p.block_count}
            for key, avoids_fast in fast:
                record[key] = avoids_fast(p)
            record["irreducible"] = bool(p.word) and partitions.is_irreducible(p)
        else:
            cls = _infer_path_class(text)
            p = paths.parse_path(text, cls)
            flags = paths.classify(p)
            record = {
                "object": str(p),
                "family": (
                    "dyck"
                    if set(p.steps) <= set(paths.CLASS_RULES["dyck"].alphabet)
                    else cls
                ),
                "semilength": p.semilength,
                "peaks": len(paths.peaks(p)),
                "uh_free": flags.uh_free,
                "no_even_peak": flags.no_even_peak,
                "no_level_one_peak": flags.no_level_one_peak,
                "ends_with_down": flags.ends_with_down,
            }
        if args.format == "json":
            out.write(json.dumps(record))
        else:
            out.write(
                " ".join(
                    f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                    for k, v in record.items()
                )
            )
        out.write("\n")
    return 0


def _run_render(args, out) -> int:
    first = True
    for text in _input_objects(args):
        cls = args.path_class or _infer_path_class(text)
        p = paths.parse_path(text, cls)
        if not first:
            out.write("\n")
        out.write(rendering.render(p, args.format))
        out.write("\n")
        first = False
    return 0


def _run_series(args, out) -> int:
    table = enumeration.series(args.identifier, args.order)
    if args.format == "json":
        out.write(json.dumps(list(table.coefficients)))
        out.write("\n")
    else:
        for i, value in enumerate(table.coefficients):
            out.write(f"{i} {value}\n")
    return 0


def _run_verify(args, out) -> int:
    results = verify.run_checks(args.max_n)
    failed = [r for r in results if not r.ok]
    if args.format == "json":
        out.write(
            json.dumps(
                [
                    {"name": r.name, "max_n": r.max_n, "ok": r.ok, "failure": r.failure}
                    for r in results
                ]
            )
        )
        out.write("\n")
    else:
        for r in results:
            if r.ok:
                out.write(f"PASS {r.name} (n <= {r.max_n})\n")
            else:
                out.write(f"FAIL {r.name}: {r.failure}\n")
        out.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return 3 if failed else 0


_RUNNERS = {
    "list": _run_list,
    "count": _run_count,
    "map": _run_map,
    "check": _run_check,
    "render": _run_render,
    "series": _run_series,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse will not resume a positional list after an interleaved
        # option ("map psi --direction inverse UHD"); fold the stragglers in
        if hasattr(args, "objects") and all(not t.startswith("-") for t in extra):
            args.objects = list(args.objects) + extra
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    usage_error = parser.commands[args.command].error
    if args.command in ("list", "count"):
        if args.n < 0:
            usage_error("n must be non-negative")
        if args.kind == "paths" and args.pattern is not None:
            usage_error("--pattern applies only to partitions")
        if args.kind == "partitions" and args.path_class is not None:
            usage_error("--class applies only to paths")
    if args.command == "series" and args.order < 0:
        usage_error("--order must be non-negative")
    if args.command == "verify" and args.max_n < 0:
        usage_error("--max-n must be non-negative")
    runner = _RUNNERS[args.command]
    try:
        if args.out:
            try:
                out = open(args.out, "w")
            except OSError as exc:
                print(
                    f"partition-paths: cannot write {args.out}: {exc.strerror}",
                    file=sys.stderr,
                )
                return USAGE_ERROR
            with out:
                return runner(args, out)
        code = runner(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point stdout at
        # devnull so that the interpreter's final flush cannot fail again,
        # and exit 1 quietly, as the Python docs on SIGPIPE recommend.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except LimitExceededError as exc:
        print(f"partition-paths: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PreconditionError as exc:
        print(f"partition-paths: {exc}", file=sys.stderr)
        return 2
    except InvalidObjectError as exc:
        print(f"partition-paths: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
