"""One repetition of one workload, in a fresh interpreter.

Started by run.py with a JSON config as its only argument.  It prints
``ready`` once the package is imported and the inputs are built (the end of
set-up), then, unless the mode is ``setup``, does the workload's fixed work
once, with the reference task (reference.py) between its timed segments,
checks the outputs outside the timed region (in full when the config says
so) and prints one JSON line of results, including a digest of the outputs
and the host speed factor that the reference task measured.
A wrong answer exits with code 3 and a message on stderr.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WRONG_ANSWER = 3


def main():
    cfg = json.loads(sys.argv[1])
    prepare, run, check = workloads.WORKLOADS[cfg["workload"]]
    state = prepare(cfg["workload"], cfg["seed"], cfg["size"])
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return 0

    tracer = tracing.Tracer() if cfg["mode"] == "traced" else None
    saved = tracing.install(tracer) if tracer else []
    calibration = reference.Calibration(**workloads.CALIBRATION.get(cfg["workload"], {}))
    rep = run(state, tracer, calibration)
    tracing.uninstall(saved)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        digest = check(state, rep, cfg["full_check"])
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return WRONG_ANSWER

    out = {
        "digest": digest,
        "wall_s": rep.wall_s,
        "objects": rep.objects,
        "ops": rep.ops,
        "stages": rep.stages,
        "listed_partitions": rep.listed_partitions,
        "unchecked": rep.outputs.get("unchecked", []),
        "rss_mb": rss_mb,
        "speed": calibration.factor(),
        "op_speed": rep.op_speed,
    }
    if tracer:
        out["table"] = tracer.table()
        out["bytes_out"] = tracer.bytes_out
        out["spans"] = len(tracer.start)
        out["unwrapped"] = tracing.UNWRAPPED
        Path(cfg["spans"]).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(cfg["spans"], cfg["run_id"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
