"""The four workloads: their inputs, their timed work and their correctness
gates.

Each workload has ``prepare(name, seed, size)``, which builds its inputs
(part of set-up); ``run(state, tracer, calibration)``, which does the fixed
work once and returns a :class:`Rep`; and ``check(state, rep, full)``, which
runs after the timed region, raises :class:`WrongAnswer` on any output that
is not correct and returns a digest of the outputs.  ``run`` pauses the
``calibration`` (a :class:`reference.Calibration` made with the workload's
``CALIBRATION`` settings, when given) before, between and after its timed
segments, so that run.py can scale the times by the host's speed at the
time; no timed segment includes a pause.  Outputs are deterministic for a
seed, so run.py checks one repetition in full and requires every other
repetition of the run to produce the same digest.
"""

import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from partition_paths import bijections, cli, enumeration, partitions, paths, verify
from partition_paths.paths import LatticePath
from partition_paths.partitions import SetPartition
from tracing import LIBRARY_ERRORS

DIGESTS = Path(__file__).with_name("digests.json")

SIZES = {
    "full": {
        "forward_n": 10,
        "inverse_n": 9,
        "verify_max_n": 8,
        "semilengths": (1000, 1500, 2500),
        "series_order": 150,
        "schroder_n": 600,
    },
    # Tiny sizes for the smoke check; no call is deep enough to fail there.
    "tiny": {
        "forward_n": 5,
        "inverse_n": 4,
        "verify_max_n": 3,
        "semilengths": (12, 24),
        "series_order": 12,
        "schroder_n": 20,
    },
}

VERIFY_CHECKS = len(verify.CHECKS)


class WrongAnswer(Exception):
    """An output failed a correctness gate; the run is void."""


@dataclass
class Rep:
    """One execution of a workload's fixed work."""

    wall_s: float = 0.0
    objects: int = 0
    # (label, span name, seconds, error): error is None on success,
    # "library" for one of the package's own errors, else the exception class
    ops: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    listed_partitions: int = 0
    outputs: dict = field(default_factory=dict)
    paused_s: float = 0.0  # seconds spent in calibration pauses
    op_speed: dict = field(default_factory=dict)  # op label -> its own speed factor

    def pause(self, calibration, worked_s, tracer=None):
        """A point between timed segments, ``worked_s`` seconds of work after
        the previous one.  Traced, the pause is a span of its own, outside
        every layer, so that no layer's self time includes it."""
        if calibration:
            sid = tracer.open(tracer.name_id("reference.calibrate")) if tracer else None
            self.paused_s += calibration.pause(worked_s)
            if tracer:
                tracer.close(sid)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digests(size):
    return json.loads(DIGESTS.read_text())[size]


def _timed(tracer, nid, fn, args):
    """``fn(*args)`` timed at this call site, inside a span when traced.
    Returns (result or exception, error, seconds)."""
    sid = tracer.open(nid) if tracer else None
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except LIBRARY_ERRORS as exc:
        result, error = exc, "library"
    except Exception as exc:
        result, error = None, type(exc).__name__
    t1 = time.perf_counter()
    if tracer:
        tracer.close(sid, failed=error not in (None, "library"))
    return result, error, t1 - t0


# --- CLI streams -----------------------------------------------------------

STREAMS = {
    "stream_forward": lambda s: (
        ("list", ["list", "partitions", str(s["forward_n"]), "--pattern", "12312"]),
        ("map", ["map", "full12312", "forward"]),
        ("render", ["render"]),
    ),
    "stream_inverse": lambda s: (
        ("list", ["list", "paths", str(s["inverse_n"]), "--class", "no_even_peak"]),
        ("map", ["map", "full12312", "inverse"]),
        ("check", ["check", "partition"]),
    ),
}


PAUSE_EVERY = 8192  # stdout writes between two calibration pauses


class _PausingStdout(io.StringIO):
    """In-memory stdout that pauses the calibration every ``PAUSE_EVERY``
    writes, so that the host's speed is sampled during a long CLI stage."""

    def __init__(self, rep, calibration, tracer):
        super().__init__()
        self.pause_args = rep, calibration, tracer
        self.writes = 0
        self.mark = time.perf_counter()

    def write(self, text):
        self.writes += 1
        if self.writes % PAUSE_EVERY == 0:
            self.pause()
        return super().write(text)

    def pause(self):
        rep, calibration, tracer = self.pause_args
        rep.pause(calibration, time.perf_counter() - self.mark, tracer)
        self.mark = time.perf_counter()


def _cli_stage(argv, text, rep, calibration, tracer, nid):
    """``cli.main(argv)`` with stdin and stdout bound to in-memory text, as
    one stage of a shell pipeline.  Returns (error, stdout, seconds, speed
    factor of the pauses during and after it); error is None when the stage
    exited 0, and the seconds leave out the pauses."""
    saved = sys.stdin, sys.stdout
    stdout = _PausingStdout(rep, calibration, tracer) if calibration else io.StringIO()
    sys.stdin, sys.stdout = io.StringIO(text), stdout
    error = None
    before = rep.paused_s
    mark = calibration.mark() if calibration else None
    sid = tracer.open(nid) if tracer else None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback a CLI user would see
        code, error = 1, type(exc).__name__
    t1 = time.perf_counter()
    if tracer:
        tracer.close(sid, failed=code != 0)
    seconds = t1 - t0 - (rep.paused_s - before)
    sys.stdin, sys.stdout = saved
    speed = None
    if calibration:
        stdout.pause()
        speed = calibration.factor(mark)
    if code != 0 and error is None:
        error = f"exit {code}"
    return error, stdout.getvalue(), seconds, speed


def stream_prepare(name, seed, size):
    return {"name": name, "size": size, "stages": STREAMS[name](SIZES[size])}


def stream_run(state, tracer, calibration=None):
    rep = Rep()
    nid = tracer.name_id("cli.main") if tracer else None
    text = ""
    rep.pause(calibration, 0.0, tracer)
    for stage, argv in state["stages"]:
        if rep.ops and rep.ops[-1][3] is not None:
            rep.ops.append((f"cli {stage}", "cli.main", 0.0, "upstream failed"))
            continue
        error, text, seconds, speed = _cli_stage(argv, text, rep, calibration, tracer, nid)
        rep.ops.append((f"cli {stage}", "cli.main", seconds, error))
        rep.op_speed[f"cli {stage}"] = speed
        rep.stages[stage] = seconds
        rep.outputs[stage] = text
        rep.wall_s += seconds
        if stage == "list":
            rep.objects = text.count("\n")
            if argv[1] == "partitions":
                rep.listed_partitions = rep.objects
    return rep


def stream_check(state, rep, full):
    want = expected_digests(state["size"])[state["name"]]
    digests = []
    for (stage, _), (_, _, _, error) in zip(state["stages"], rep.ops):
        digests.append(error or sha256(rep.outputs[stage]))
        if error is None and digests[-1] != want[stage]:
            raise WrongAnswer(f"{state['name']} stage {stage}: stdout digest differs")
    return " ".join(digests)


# --- verify ----------------------------------------------------------------


def verify_prepare(name, seed, size):
    return {"size": size, "max_n": SIZES[size]["verify_max_n"]}


def _paused(fn, rep, calibration, tracer):
    """``fn`` with a calibration pause after each call."""

    def check(bound):
        t0 = time.perf_counter()
        try:
            return fn(bound)
        finally:
            rep.pause(calibration, time.perf_counter() - t0, tracer)

    return check


def verify_run(state, tracer, calibration=None):
    """One ``verify.run_checks`` call.  With a calibration, ``verify.CHECKS``
    is replaced for the call by the same checks with a pause after each, and
    the pauses are taken off the call's time."""
    rep = Rep()
    nid = tracer.name_id("verify.run_checks") if tracer else None
    checks = verify.CHECKS
    if calibration:
        rep.pause(calibration, 0.0, tracer)
        verify.CHECKS = tuple(
            (name, cap, _paused(fn, rep, calibration, tracer)) for name, cap, fn in checks
        )
    before = rep.paused_s
    try:
        results, error, seconds = _timed(tracer, nid, verify.run_checks, (state["max_n"],))
    finally:
        verify.CHECKS = checks
    seconds -= rep.paused_s - before
    rep.wall_s = seconds
    rep.ops.append(("verify.run_checks", "verify.run_checks", seconds, error))
    rep.objects = VERIFY_CHECKS
    rep.outputs["results"] = results
    return rep


def verify_report(results):
    """The text ``partition-paths verify`` prints for these results."""
    lines = [
        f"PASS {r.name} (n <= {r.max_n})" if r.ok else f"FAIL {r.name}: {r.failure}"
        for r in results
    ]
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def verify_check(state, rep, full):
    results = rep.outputs["results"]
    error = rep.ops[0][3]
    if error == "library":
        raise WrongAnswer(f"verify raised {results!r}")
    if error is not None:
        return error
    failed = [r.name for r in results if not r.ok]
    if failed or len(results) != VERIFY_CHECKS:
        raise WrongAnswer(
            f"verify: {len(results) - len(failed)}/{len(results)} checks "
            f"passed, failing: {', '.join(failed)}"
        )
    digest = sha256(verify_report(results))
    if digest != expected_digests(state["size"])["verify_n8"]:
        raise WrongAnswer("verify: report digest differs")
    return digest


# --- large objects ---------------------------------------------------------

PATTERNS = bijections.PATTERNS
FAST = {"12312": partitions.avoids_12312_fast, "12321": partitions.avoids_12321_fast}


@dataclass(frozen=True)
class Op:
    label: str
    span: str
    fn: object
    args: tuple
    check: object  # result -> None or the reason a round trip was skipped


def _require(cond, label, what):
    if not cond:
        raise WrongAnswer(f"{label}: {what}")


def _round_trip(label, inverse, result, source):
    """Require ``inverse(result) == source``.  A non-library exception from
    the inverse (such as RecursionError) means the round trip cannot be
    checked; that is reported, not treated as a wrong answer."""
    try:
        back = inverse(result)
    except LIBRARY_ERRORS as exc:
        raise WrongAnswer(f"{label}: inverse raised {exc!r}") from None
    except Exception as exc:
        return type(exc).__name__
    _require(back == source, label, "round trip does not return the input")
    return None


def _check_partition(label, q, pattern, expected):
    """A decode result: [semilength + 1], blocks == peaks + 1, and the known
    word when there is one, else encode(result) == q."""

    def check(p):
        _require(isinstance(p, SetPartition), label, "not a partition")
        _require(len(p) == q.semilength + 1, label, "size is not semilength + 1")
        _require(p.block_count == len(paths.peaks(q)) + 1, label, "blocks != peaks + 1")
        if expected is not None:
            _require(list(p.word) == expected, label, "differs from the known answer")
            return None
        return _round_trip(label, lambda r: bijections.encode(r, pattern), p, q)

    return check


def _check_path(label, source, cls, size, blocks, inverse, expected):
    """A path result: a member of ``cls`` by parse_path, semilength ``size``,
    peaks + 1 == ``blocks`` when given, and the known steps when there are
    some, else ``inverse(result) == source``."""

    def check(q):
        _require(isinstance(q, LatticePath), label, "not a path")
        try:
            paths.parse_path(q.steps, cls)
        except LIBRARY_ERRORS as exc:
            raise WrongAnswer(f"{label}: result is not {cls}: {exc}") from None
        _require(q.semilength == size, label, "semilength changed")
        if blocks is not None:
            _require(len(paths.peaks(q)) + 1 == blocks, label, "peaks + 1 != blocks")
        if expected is not None:
            _require(q.steps == expected, label, "differs from the known answer")
            return None
        return _round_trip(label, inverse, q, source)

    return check


def _check_equal(label, want):
    def check(got):
        _require(got == want, label, f"expected {want!r}")

    return check


def _reference_f(order):
    """Coefficients of f from f = 1 + x f + x f^2 - x^2 f^2, one
    coefficient at a time."""
    f = [1]
    for n in range(1, order + 1):
        sq1 = sum(f[i] * f[n - 1 - i] for i in range(n))
        sq2 = sum(f[i] * f[n - 2 - i] for i in range(n - 1))
        f.append(f[n - 1] + sq1 - sq2)
    return f


def _check_series_f(label, order):
    def check(table):
        _require(isinstance(table, enumeration.SeriesTable), label, "not a series table")
        _require(list(table.coefficients) == _reference_f(order), label, "coefficients differ")

    return check


def _check_series_f_prime(label, order):
    """f' (1 - x(1-x) f) = 1, with f from the reference recurrence."""

    def check(table):
        _require(isinstance(table, enumeration.SeriesTable), label, "not a series table")
        fp = list(table.coefficients)
        _require(len(fp) == order + 1, label, "wrong length")
        f = _reference_f(order)
        g = [1] + [-(f[n - 1] - (f[n - 2] if n >= 2 else 0)) for n in range(1, order + 1)]
        prod = [sum(fp[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)]
        _require(prod == [1] + [0] * order, label, "f' (1 - x(1-x) f) != 1")

    return check


def _reference_schroder(n):
    """Large Schroder numbers by (k+1) r(k) = 3(2k-1) r(k-1) - (k-2) r(k-2)."""
    r = [1, 2]
    for k in range(2, n + 1):
        r.append((3 * (2 * k - 1) * r[k - 1] - (k - 2) * r[k - 2]) // (k + 1))
    return r[n]


def _path_ops(n, rng):
    """decode (both patterns) and to_odd_peaks on UH-free paths, to_uh_free
    on no-even-peak paths, all of semilength n."""
    b = bijections
    uh_free = (
        ("H", inputs.horizontal(n), inputs.ones(n + 1)),
        ("UD", inputs.zigzag(n), inputs.singletons(n + 1)),
        ("ramp", inputs.ramp(n), None),
        ("rnd1", inputs.random_path(rng, n, False), None),
        ("rnd2", inputs.random_path(rng, n, False), None),
    )
    for fam, steps, known in uh_free:
        q = LatticePath(steps)
        for pat in PATTERNS:
            label = f"decode[{pat}] {fam}^{n}"
            check = _check_partition(label, q, pat, known)
            yield Op(label, "bijections.decode", b.decode, (q, pat), check)
        label = f"to_odd_peaks {fam}^{n}"
        check = _check_path(label, q, "no_even_peak", n, None, b.to_uh_free, None)
        yield Op(label, "bijections.to_odd_peaks", b.to_odd_peaks, (q,), check)
    no_even = (
        ("H", inputs.horizontal(n)),
        ("UD", inputs.zigzag(n)),
        ("rnd1", inputs.random_path(rng, n, True)),
        ("rnd2", inputs.random_path(rng, n, True)),
    )
    for fam, steps in no_even:
        q = LatticePath(steps)
        label = f"to_uh_free {fam}^{n}"
        check = _check_path(label, q, "uh_free", n, None, b.to_odd_peaks, None)
        yield Op(label, "bijections.to_uh_free", b.to_uh_free, (q,), check)


def _partition_ops(m, rng):
    """encode (both patterns) on partitions of [m], and the fast predicates
    on words whose answer is known by construction."""
    b = bijections
    for pat in PATTERNS:
        words = (
            ("ones", inputs.ones(m), inputs.horizontal(m - 1)),
            ("singletons", inputs.singletons(m), inputs.zigzag(m - 1)),
            ("staircase", inputs.staircase(m), inputs.staircase_path(m)),
            (f"rnd{pat}-1", inputs.random_avoider(rng, m, pat), None),
            (f"rnd{pat}-2", inputs.random_avoider(rng, m, pat), None),
        )
        for fam, word, known in words:
            p = SetPartition(word)
            label = f"encode[{pat}] {fam} of [{m}]"
            check = _check_path(
                label, p, "uh_free", m - 1, p.block_count,
                lambda q, pat=pat: b.decode(q, pat), known,
            )
            yield Op(label, "bijections.encode", b.encode, (p, pat), check)
            if fam.startswith("rnd"):
                yield _predicate_op(pat, fam, p, True)
    predicates = (
        ("ones", inputs.ones(m), True, True),
        ("staircase", inputs.staircase(m), True, True),
        ("staircase_12", inputs.staircase_12(m), False, True),
        ("staircase_21", inputs.staircase_21(m), True, False),
    )
    for fam, word, *answers in predicates:
        p = SetPartition(word)
        for pat, want in zip(PATTERNS, answers):
            yield _predicate_op(pat, fam, p, want)


def _predicate_op(pat, fam, p, want):
    fn = FAST[pat]
    label = f"{fn.__name__} {fam} of [{len(p)}]"
    return Op(label, f"partitions.{fn.__name__}", fn, (p,), _check_equal(label, want))


def large_prepare(name, seed, size):
    """Build the call list.  Every input is made from its definition or from
    ``random.Random(seed)``, never from another call's result."""
    sizes = SIZES[size]
    rng = random.Random(seed)
    e = enumeration
    ops = []
    for n in sizes["semilengths"]:
        ops.extend(_path_ops(n, rng))
        ops.extend(_partition_ops(n + 1, rng))
    order, sn = sizes["series_order"], sizes["schroder_n"]
    label = f"series_f({order})"
    check = _check_series_f(label, order)
    ops.append(Op(label, "enumeration.series_f", e.series_f, (order,), check))
    label = f"series_f_prime({order})"
    check = _check_series_f_prime(label, order)
    ops.append(Op(label, "enumeration.series_f_prime", e.series_f_prime, (order,), check))
    label = f"large_schroder({sn})"
    check = _check_equal(label, _reference_schroder(sn))
    ops.append(Op(label, "enumeration.large_schroder", e.large_schroder, (sn,), check))
    return {"ops": ops}


def large_run(state, tracer, calibration=None):
    """One call per op, each timed at this call site.  The same code runs
    traced and untraced, so the stack depth at every call is the same.  With
    a calibration, each call's speed factor comes from the pauses just before
    and just after it."""
    rep = Rep()
    nids = {op.span: tracer.name_id(op.span) for op in state["ops"]} if tracer else {}
    results = []
    before = calibration.mark() if calibration else None
    rep.pause(calibration, 0.0, tracer)
    for op in state["ops"]:
        result, error, seconds = _timed(tracer, nids.get(op.span), op.fn, op.args)
        rep.ops.append((op.label, op.span, seconds, error))
        results.append(result)
        rep.wall_s += seconds
        if calibration:
            after = calibration.mark()
            rep.pause(calibration, seconds, tracer)
            rep.op_speed[op.label] = calibration.factor(before)
            before = after
    rep.objects = len(state["ops"])
    rep.outputs["results"] = results
    return rep


def large_check(state, rep, full):
    unchecked = []
    lines = []
    for op, (_, _, _, error), result in zip(state["ops"], rep.ops, rep.outputs["results"]):
        if error == "library":
            raise WrongAnswer(f"{op.label}: valid input rejected: {result!r}")
        if error is None and full:
            skipped = op.check(result)
            if skipped:
                unchecked.append(f"{op.label} (inverse raised {skipped})")
        lines.append(f"{op.label}\t{error}\t{result}")
    rep.outputs["unchecked"] = unchecked
    return sha256("\n".join(lines))


# reference.Calibration settings: small chunks on both sides of every
# large-object call, whose calls are too short for the default chunk
CALIBRATION = {"large_objects": {"n": 8, "share": 0.25, "every_pause": True}}

WORKLOADS = {
    "verify_n8": (verify_prepare, verify_run, verify_check),
    "stream_forward": (stream_prepare, stream_run, stream_check),
    "stream_inverse": (stream_prepare, stream_run, stream_check),
    "large_objects": (large_prepare, large_run, large_check),
}
