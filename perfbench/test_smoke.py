"""Smoke check of the benchmark at tiny sizes; not a timing gate.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Runs every workload untraced and traced with ``--size tiny``, and checks
that each metric of BENCHMARK.json is emitted with its unit, that the
correctness gates pass, and that they fail on wrong outputs.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from partition_paths import LatticePath, SeriesTable, SetPartition  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("setup_s", "wall_s", "objects_per_s", "op_p50_ms", "op_p90_ms",
            "failed_share", "peak_rss_mb")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        report = "\n".join(lines[:-1])
        for name in REPORTED:
            self.assertIn(f"  {name} ", report)
        if trace:
            self.assertIn("per-layer self time", report)

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_fails_without_the_package(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = bench("--workload", "verify_n8", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


def plausible_but_wrong(result):
    """An object of the same kind and size as ``result`` that differs from it."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if isinstance(result, SeriesTable):
        *head, last = result.coefficients
        return SeriesTable(result.identifier, (*head, last + 1))
    if isinstance(result, LatticePath):
        n = result.semilength
        flat = LatticePath("H" * n)
        return flat if flat != result else LatticePath("UD" * n)
    size = len(result)
    ones = SetPartition([1] * size)
    return ones if ones != result else SetPartition(range(1, size + 1))


class Gates(unittest.TestCase):
    def run_workload(self, name, seed=1):
        prepare, run_rep, check = workloads.WORKLOADS[name]
        state = prepare(name, seed, "tiny")
        return state, run_rep(state, None), check

    def test_stream_digest_gate(self):
        state, rep, check = self.run_workload("stream_forward")
        check(state, rep, True)
        rep.outputs["map"] += "UD\n"
        with self.assertRaises(workloads.WrongAnswer):
            check(state, rep, True)

    def test_verify_gate(self):
        state, rep, check = self.run_workload("verify_n8")
        check(state, rep, True)
        rep.outputs["results"] = rep.outputs["results"][:-1]
        with self.assertRaises(workloads.WrongAnswer):
            check(state, rep, True)

    def test_large_object_gates(self):
        state, rep, check = self.run_workload("large_objects")
        self.assertEqual(check(state, rep, True), check(state, rep, False))
        for op, result in zip(state["ops"], rep.outputs["results"]):
            with self.subTest(op=op.label):
                with self.assertRaises(workloads.WrongAnswer):
                    op.check(plausible_but_wrong(result))

    def test_inputs_come_from_the_seed(self):
        def inputs(seed):
            ops = workloads.large_prepare("large_objects", seed, "tiny")["ops"]
            return [(o.label, o.args) for o in ops]

        self.assertEqual(inputs(5), inputs(5))
        self.assertNotEqual(inputs(5), inputs(6))


class Calibration(unittest.TestCase):
    def test_pauses_sample_in_proportion_to_work(self):
        cal = reference.Calibration(n=8)
        cal.pause(0.0)
        self.assertEqual(cal.chunks, 1)  # the first pause always samples
        mark = cal.mark()
        cal.pause(0.0)
        self.assertIsNone(cal.factor(mark))  # nothing owed, no chunk
        cal.pause(0.2)
        self.assertGreaterEqual(cal.seconds, 0.5 * 0.2)
        self.assertGreater(cal.factor(mark), 0)

    def test_every_pause_samples_once_at_least(self):
        cal = reference.Calibration(n=8, share=0.0, every_pause=True)
        for _ in range(3):
            cal.pause(1.0)
        self.assertEqual(cal.chunks, 3)


if __name__ == "__main__":
    unittest.main()
