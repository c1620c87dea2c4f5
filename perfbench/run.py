"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  Workloads (BENCHMARK.json says why each exists):

* ``verify_n8``       ``verify.run_checks(8)``, i.e. ``verify --max-n 8``;
* ``stream_forward``  ``list partitions 10 --pattern 12312 | map full12312
  forward | render``;
* ``stream_inverse``  ``list paths 9 --class no_even_peak | map full12312
  inverse | check partition``;
* ``large_objects``   single calls on objects of semilength 1000..2500.

Load is a closed loop with one client: run.py starts one worker
interpreter at a time (worker.py), so at most two processes run.  Each worker
is a fresh interpreter, so memo tables are cold in every repetition, as a
CLI user finds them.  run.py first spends a tenth of ``--seconds`` on
workers that only set up, so that ``setup_s`` is a median of many set-ups
(set-up time is noisy from process to process), then repeats the workload
until ``--seconds`` would be exceeded: at least two untraced repetitions,
or with ``--trace 1`` untraced and traced repetitions in turn, at least one
of each.

Every time is reported in reference seconds.  The host is shared and its
speed drifts by up to a factor of two over minutes, so each worker also runs
a fixed reference task between its timed segments, and every time the
worker measured is multiplied by the host speed factor that the task gave
next to it (reference.py says how).  Set-up times are multiplied by the
median factor of the run's repetitions.  The report prints each
repetition's factor and the unscaled wall time.

Outputs are checked outside the timed region: the first repetition in full,
every later one by requiring the same output digest (the inputs depend only
on the seed).  A wrong answer stops the run with exit code 3 and no result.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before it
are a readable report.  Each traced repetition writes its spans to
``.perfbench/spans/<workload>-<size>.tsv.gz``, replacing the previous one.
"""

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench" / "spans"
WORKLOADS = ("verify_n8", "stream_forward", "stream_inverse", "large_objects")
SETUP_SHARE = 0.1  # share of --seconds spent on set-up-only workers
SETUP_MIN = 5  # and at least this many of them
HARD_LIMIT_S = 170  # no run takes longer than this
WRONG_ANSWER, USAGE, WORKER_FAILED = 3, 2, 4
LAYERS = ("partitions", "paths", "bijections", "enumeration", "rendering", "verify", "cli")
OBJECTS = {
    "verify_n8": "identity checks",
    "stream_forward": "partitions listed",
    "stream_inverse": "paths listed",
    "large_objects": "library calls",
}


class BenchError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def spawn(cfg, deadline):
    """Run one worker; return (set-up seconds, its JSON result or None).
    Set-up runs from just before the process starts to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},  # same hashing in every worker
    )
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().strip()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code == WRONG_ANSWER:
        raise BenchError(f"{cfg['workload']}: wrong answer (see stderr)", WRONG_ANSWER)
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"{cfg['workload']}: worker exited with {code}", WORKER_FAILED)
    return setup_s, (json.loads(rest.splitlines()[-1]) if rest else None)


def scale(result):
    """Turn a repetition's times into reference seconds, in place: each op
    by its own speed factor when it has one (a CLI stage or a large-object
    call), else by the repetition's.  The wall time is the sum of the ops' times, as measured;
    the unscaled one stays in ``wall_raw_s``."""
    factor = result["speed"]
    speed = {label: f or factor for label, f in result["op_speed"].items()}
    result["ops"] = [(label, span, seconds * speed.get(label, factor), error)
                     for label, span, seconds, error in result["ops"]]
    result["wall_raw_s"] = result["wall_s"]
    result["wall_s"] = sum(seconds for _, _, seconds, _ in result["ops"])
    result["stages"] = {k: v * speed.get(f"cli {k}", factor)
                        for k, v in result["stages"].items()}
    for row in result.get("table", {}).values():
        row["self_s"] *= factor


def quantile(values, q):
    """Nearest-rank quantile of a sorted list."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def end_to_end(plain, setups, workload):
    """Medians over the run's untraced repetitions.  Per-call latency takes
    each call's median over the repetitions, then percentiles over calls.
    Returns the metrics and a note on how each was formed."""
    calls = {}
    failed = attempted = 0
    for r in plain:
        for label, _, seconds, error in r["ops"]:
            attempted += 1
            if error is None:
                calls.setdefault(label, []).append(seconds)
            else:
                failed += 1
    latency = sorted(statistics.median(v) for v in calls.values())
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "objects_per_s": plain[0]["objects"] / wall,
        "op_p50_ms": 1e3 * quantile(latency, 0.5),
        "op_p90_ms": 1e3 * quantile(latency, 0.9),
        "failed_share": failed / attempted,
        "ok_share": 1 - failed / attempted,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": "median of " + ", ".join(f"{r['wall_s']:.3f}" for r in plain),
        "objects_per_s": f"{plain[0]['objects']} {OBJECTS[workload]} per repetition / wall_s",
        "op_p50_ms": f"over {len(latency)} calls, each its median of {len(plain)} repetitions",
        "op_p90_ms": f"{len(latency) - math.ceil(0.9 * len(latency))} calls beyond it",
        "failed_share": f"{failed}/{attempted} operations",
        "ok_share": "1 - failed_share",
        "peak_rss_mb": "worker high-water RSS, median",
    }
    return metrics, notes


def per_layer_value(name, rep, stages, overhead):
    """One per-layer metric of a traced repetition, or None for a name this
    benchmark does not produce.  ``<layer>.self_s`` and ``<layer>.failed``
    sum over the layer's spans; ``<layer>.<function>.<stat>`` reads one."""
    table = rep["table"]
    parts = name.split(".")
    if name == "trace.overhead_share":
        return overhead
    if name == "partitions.keep_ratio":
        made = table.get("partitions.generate_partitions", {}).get("objects", 0)
        return rep["listed_partitions"] / made if made else 0.0
    if name == "rendering.bytes_out":
        return rep["bytes_out"]
    if parts[0] == "cli" and len(parts) == 3 and parts[2] == "s":
        return stages.get(parts[1], 0.0)
    if parts[0] not in LAYERS:
        return None
    if len(parts) == 2 and parts[1] in ("self_s", "failed"):
        return sum(v[parts[1]] for k, v in table.items() if k.split(".", 1)[0] == parts[0])
    if len(parts) == 3 and parts[2] in ("self_s", "calls", "objects", "failed"):
        return table.get(f"{parts[0]}.{parts[1]}", {}).get(parts[2], 0)
    return None


def per_layer(spec, plain, traced):
    """Per-layer metrics: medians over the traced repetitions, except the
    per-stage CLI times, which come from the untraced ones."""
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    overhead = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
    stages = {
        stage: statistics.median(r["stages"].get(stage, 0.0) for r in plain)
        for stage in plain[0]["stages"]
    }
    values = {}
    for m in spec:
        per_rep = [per_layer_value(m["name"], r, stages, overhead) for r in traced]
        if None in per_rep:
            raise BenchError(f"BENCHMARK.json names an unknown metric {m['name']}", USAGE)
        values[m["name"]] = statistics.median(per_rep)
    return values


def report_layers(traced, overhead):
    rep = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    table = rep["table"]
    wall = rep["wall_raw_s"] * rep["speed"]  # scaled as the table is
    print(f"per-layer self time, one traced repetition "
          f"(wall {wall:.4f} s, {rep['spans']} spans):")
    covered = 0.0
    for layer in LAYERS:
        rows = {k: v for k, v in table.items() if k.split(".", 1)[0] == layer}
        self_s = sum(v["self_s"] for v in rows.values())
        covered += self_s
        print(f"  {layer:<12} {self_s:10.4f} s")
        for k, v in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            extra = f" objects={v['objects']}" if v["objects"] else ""
            extra += f" failed={v['failed']}" if v["failed"] else ""
            print(f"      {k:<36} {v['self_s']:10.4f} s  calls={v['calls']}{extra}")
    print(f"  {'(no span)':<12} {wall - covered:10.4f} s")
    print(f"trace.overhead_share {overhead:.4f} (traced wall / untraced wall - 1)")
    print("not wrapped, so their time stays in the caller:")
    for line in rep["unwrapped"]:
        print(f"  {line}")


def measure(args, cfg):
    """Start the workers; return (set-up times, untraced reps, traced reps,
    elapsed seconds)."""
    start = time.perf_counter()
    budget_end = start + args.seconds
    deadline = start + HARD_LIMIT_S
    setups = []
    while len(setups) < SETUP_MIN or time.perf_counter() < start + SETUP_SHARE * args.seconds:
        setups.append(spawn({**cfg, "mode": "setup", "full_check": False}, deadline)[0])
    plain, traced = [], []
    need = {"plain": 1 if args.trace else 2, "traced": args.trace}
    longest = {}
    for i, kind in enumerate(itertools.cycle(("plain", "traced") if args.trace else ("plain",))):
        done = len(plain) >= need["plain"] and len(traced) >= need["traced"]
        estimate = longest.get(kind, max(longest.values(), default=0.0))
        if done and time.perf_counter() + estimate > budget_end:
            break
        t0 = time.perf_counter()
        setup_s, result = spawn(
            {
                **cfg,
                "mode": kind,
                "full_check": i == 0,
                "run_id": f"{cfg['workload']}-{cfg['size']}-seed{cfg['seed']}-rep{i}",
                "spans": str(SPANS_DIR / f"{cfg['workload']}-{cfg['size']}.tsv.gz"),
            },
            deadline,
        )
        longest[kind] = max(longest.get(kind, 0.0), time.perf_counter() - t0)
        if result["digest"] != (plain or traced or [result])[0]["digest"]:
            raise BenchError(f"repetition {i} gave different outputs", WRONG_ANSWER)
        scale(result)
        setups.append(setup_s)
        (traced if kind == "traced" else plain).append(result)
    speed = statistics.median(r["speed"] for r in plain + traced)
    return [s * speed for s in setups], plain, traced, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs, for the smoke check",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partition_paths" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return USAGE
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = {"workload": args.workload, "seed": args.seed, "size": args.size}
    try:
        setups, plain, traced, elapsed = measure(args, cfg)
        e2e, notes = end_to_end(plain, setups, args.workload)
        if args.trace:
            wanted = spec["per_layer"]
            values = per_layer(wanted, plain, traced)
        else:
            wanted = spec["end_to_end"]
            values = e2e
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"BENCHMARK.json names unknown metrics {missing}", USAGE)
    except BenchError as exc:
        print(f"perfbench {args.workload}: {exc}", file=sys.stderr)
        return exc.code

    reps = plain + traced
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced "
          f"repetitions, {len(setups)} set-ups, {elapsed:.1f} s")
    print("times in reference seconds; host speed factors "
          + ", ".join(f"{r['speed']:.3f}" for r in reps)
          + f"; unscaled wall_s median {statistics.median(r['wall_raw_s'] for r in plain):.4f} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:14.6g} {units.get(name, 'share'):<6} {notes[name]}")
    failures = sorted(f"{label} ({err})" for label, _, _, err in plain[0]["ops"] if err)
    if failures:
        print(f"failed calls, {len(failures)} per repetition: " + "; ".join(failures))
    unchecked = sorted({u for r in reps for u in r["unchecked"]})
    if unchecked:
        print("round trips not checked: " + "; ".join(unchecked))
    if args.trace:
        report_layers(traced, values["trace.overhead_share"])

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(err is not None for r in reps for *_, err in r["ops"])
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
