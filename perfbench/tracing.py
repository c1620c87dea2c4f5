"""Spans around calls into the library's layers, kept in memory.

A span records a name, its start and end (``perf_counter_ns``) and the span
that was open when it started.  Spans come from two places, both in the
benchmark's own files:

* the worker opens one around every call it makes itself (``cli.main``,
  ``verify.run_checks`` and each large-object call);
* :func:`install` replaces the module attributes listed in ``WRAPPED`` with
  timing wrappers, so calls that ``cli.main``, ``verify.run_checks`` and the
  library make through those attributes get spans of their own.

A call made through a reference bound at import time is not seen and stays
in its caller's self time; ``UNWRAPPED`` lists the ones that matter.
Recursive functions are never wrapped, so tracing adds no stack depth to a
recursion and cannot change which calls fail.
"""

import gzip
import time
from array import array
from collections import Counter

from partition_paths import (
    bijections,
    cli,
    enumeration,
    partitions,
    paths,
    rendering,
    verify,
)
from partition_paths.errors import (
    InvalidObjectError,
    LimitExceededError,
    PreconditionError,
)

LIBRARY_ERRORS = (InvalidObjectError, LimitExceededError, PreconditionError)

MODULES = {
    "partitions": partitions,
    "paths": paths,
    "bijections": bijections,
    "enumeration": enumeration,
    "rendering": rendering,
    "verify": verify,
    "cli": cli,
}

# (module, function, kind): "gen" times every next() and counts the items,
# "text" also adds the length of the returned string to ``bytes_out``.
WRAPPED = (
    ("partitions", "generate_partitions", "gen"),
    ("partitions", "parse_partition", "call"),
    ("partitions", "avoids_12312_fast", "call"),
    ("partitions", "avoids_12321_fast", "call"),
    ("partitions", "decompose", "call"),
    ("partitions", "find_pattern", "call"),
    ("partitions", "is_irreducible", "call"),
    ("partitions", "is_irreducible_char", "call"),
    ("paths", "generate_paths", "gen"),
    ("paths", "parse_path", "call"),
    ("paths", "peaks", "call"),
    ("bijections", "encode", "call"),
    ("bijections", "decode", "call"),
    ("bijections", "to_odd_peaks", "call"),
    ("bijections", "to_uh_free", "call"),
    ("bijections", "encode_to_odd_peaks", "call"),
    ("bijections", "decode_from_odd_peaks", "call"),
    ("enumeration", "series_f", "call"),
    ("enumeration", "series_f_prime", "call"),
    ("rendering", "render", "text"),
)

UNWRAPPED = (
    "bijections._FAST_CHECK holds avoids_12312_fast/avoids_12321_fast: "
    "their time in encode stays in bijections.encode",
    "cli._MAP_FN binds to_odd_peaks/to_uh_free for psi at import: "
    "psi maps stay in cli.main (the full12312 maps are seen)",
    "enumeration.large_schroder is recursive: timed only where the "
    "benchmark calls it; inside verify it stays in verify.run_checks",
    "enumeration counts other than the two series: stay in their caller",
    "verify.CHECKS and its cached generators: stay in verify.run_checks",
    "rendering.render_ascii/render_svg: stay in rendering.render",
    "SetPartition/LatticePath constructors: stay in their callers",
)


class Tracer:
    """Spans of one worker run, stored column-wise in integer arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.failed = Counter()
        self.objects = Counter()
        self.bytes_out = 0

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid, failed=False):
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()
        if failed:
            self.failed[self.name[sid]] += 1

    def table(self):
        """Per span name: self seconds (duration minus child spans), calls,
        generator items and failed calls."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = Counter()
        calls = Counter()
        for i, nid in enumerate(name):
            self_ns[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
        return {
            self.names[nid]: {
                "self_s": self_ns[nid] / 1e9,
                "calls": calls[nid],
                "objects": self.objects[nid],
                "failed": self.failed[nid],
            }
            for nid in calls
        }

    def write(self, path, run_id):
        """Write every span as a tab-separated row under a header, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# run {run_id}\nid\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (nid, p, s, e) in enumerate(
                zip(self.name, self.parent, self.start, self.end)
            ):
                fh.write(f"{i}\t{p}\t{names[nid]}\t{s}\t{e}\n")


def _wrap_call(tracer, nid, fn, text):
    def wrapper(*args, **kwargs):
        sid = tracer.open(nid)
        failed = False
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            failed = not isinstance(exc, LIBRARY_ERRORS)
            raise
        finally:
            tracer.close(sid, failed)
        if text:
            tracer.bytes_out += len(result)
        return result

    return wrapper


def _wrap_gen(tracer, nid, fn):
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            sid = tracer.open(nid)
            failed = False
            try:
                item = next(items)
            except StopIteration:
                return
            except Exception as exc:
                failed = not isinstance(exc, LIBRARY_ERRORS)
                raise
            finally:
                tracer.close(sid, failed)
            tracer.objects[nid] += 1
            yield item

    return wrapper


def install(tracer):
    """Put a wrapper on every module attribute that refers to a function in
    ``WRAPPED``, including names one module imported from another.  Returns
    the (module, attribute, original) triples that :func:`uninstall` needs."""
    wrappers = {}
    for module, attr, kind in WRAPPED:
        fn = getattr(MODULES[module], attr)
        nid = tracer.name_id(f"{module}.{attr}")
        if kind == "gen":
            wrappers[fn] = _wrap_gen(tracer, nid, fn)
        else:
            wrappers[fn] = _wrap_call(tracer, nid, fn, kind == "text")
    saved = []
    for mod in MODULES.values():
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    return saved


def uninstall(saved):
    for mod, attr, fn in saved:
        setattr(mod, attr, fn)
