"""Benchmark self-check: every workload end to end at tiny size, twice.

    python3 perfbench/run.py --selfcheck

Each workload runs with ``--trace 0`` and ``--trace 1``, two times with the
same seed.  The check asserts that

* every run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with no failed operation;
* every end-to-end metric (trace 0) and every per-layer metric (trace 1)
  named in ``BENCHMARK.json`` is emitted, with its unit, as a finite
  number, and the end-to-end ones are positive;
* the two repetitions saw identical input digests and identical counts.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Counts that must repeat exactly between two runs of one seed.
COUNTS = ("detector.races", "detector.conflict_checks", "predict.validated",
          "runtime.events_emitted", "service.streams_completed")
#: The workload on which each count has to be non-zero.
EXERCISED = {"detector.races": "offline-contended",
             "detector.conflict_checks": "offline-contended",
             "predict.validated": "predict-synthetic",
             "runtime.events_emitted": "live-table2",
             "service.streams_completed": "daemon-ingest"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = (ROOT / ".perfbench_work" / f"{workload}-s{seed}-tiny"
                   / f"run-t{trace}.json")
    with open(record_path, encoding="utf-8") as stream:
        record = json.load(stream)
    return {"result": result, "digest": record["input_sha256"]}


def _check_result(label: str, result: dict, units: dict,
                  positive: bool) -> None:
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} "
                             f"attempted={result['attempted']} "
                             f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise AssertionError(f"{label}: missing "
                             f"{sorted(set(units) - set(metrics))}, extra "
                             f"{sorted(set(metrics) - set(units))}")
    for name, metric in metrics.items():
        value = metric["value"]
        if metric["unit"] != units[name]:
            raise AssertionError(f"{label}: {name} unit {metric['unit']!r}, "
                                 f"expected {units[name]!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {value!r}")
        if positive and value <= 0:
            raise AssertionError(f"{label}: {name} = {value!r} is not > 0")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        spec = json.load(stream)
    with open(HERE / "pins.json", encoding="utf-8") as stream:
        seed = json.load(stream)["default_seed"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            runs = [{trace: _run(workload, seed, trace) for trace in (0, 1)}
                    for _ in range(2)]
            for rep, run in enumerate(runs):
                _check_result(f"{workload} rep{rep} trace=0",
                              run[0]["result"], e2e, positive=True)
                _check_result(f"{workload} rep{rep} trace=1",
                              run[1]["result"], layers, positive=False)
            digests = {run[trace]["digest"] for run in runs
                       for trace in (0, 1)}
            if len(digests) != 1:
                raise AssertionError(f"{workload}: input digests differ: "
                                     f"{sorted(digests)}")
            counts = [{name: run[1]["result"]["metrics"][name]["value"]
                       for name in COUNTS} for run in runs]
            if counts[0] != counts[1]:
                raise AssertionError(f"{workload}: counts differ: {counts}")
            for name, where in EXERCISED.items():
                if where == workload and not counts[0][name]:
                    raise AssertionError(f"{workload}: {name} is 0")
            print(f"selfcheck: {workload}: ok (input {digests.pop()[:12]}, "
                  f"counts {counts[0]})", flush=True)
        except (AssertionError, subprocess.TimeoutExpired,
                json.JSONDecodeError, OSError, KeyError) as exc:
            problems.append(f"{workload}: {exc}")
            print(f"selfcheck: {workload}: FAILED: {exc}", flush=True)
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
