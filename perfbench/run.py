"""The repository's benchmark: five workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark generates every input itself from ``--seed`` (``gen.py``),
refuses to time an input whose SHA-256 differs from the one recorded for
that seed in ``pins.json``, runs the workload in its own process
(``worker.py``) for ``--seconds``, checks every output, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The failure ratio is ``failed / attempted``.

Workloads (each is the only one that exercises its group of modules):

``offline-contended``  ``repro-analyze`` on a 64-thread, 8-dictionary,
    ~27k-event contended trace: parse, HB stamping, the check loop.
``sharded-fanout``  ``repro-analyze --workers 2 --backend auto`` on a
    768-thread butterfly fan-out trace (30k churn actions): parallel,
    shmem, backend, supervise.
``predict-synthetic``  ``repro-analyze --predict 64`` in whole passes over
    twelve 8-thread, ~2.2k-event traces drawn from the seed: prediction
    dominates.
``live-table2``  ``run_row("ComplexConcurrency", seed, scale=4)`` under
    ``rd2`` and ``uninstrumented``: app, runtime, scheduler, detector.
``daemon-ingest``  an in-process daemon fed by 2 client threads in a
    closed loop; every third stream is cut mid-frame and resumed.

End-to-end metrics (every workload).  Timings are ratios to a baseline
measured next to each operation, because host speed on a shared machine
drifts by a quarter or more over tens of seconds and a ratio cancels the
drift; absolute events/s, operations/s and latencies in ms are printed on
``raw:`` lines and kept in the run record.

``overhead_x``  summed wall time of the operations over that of their
    baselines.  On live-table2 the baseline is the same circuit
    uninstrumented (the paper's Table 2 shape); elsewhere it is the
    benchmark JSON-decoding the same input, the least any consumer of it
    pays.
``verdict_latency_p50_x`` / ``verdict_latency_p95_x``  median and 95th
    percentile over operations of that ratio, where an operation runs
    from handing the input to the program to its verdict: one CLI run,
    one rd2 circuit run, or a stream's first byte to its ``DONE``.
``peak_rss_mb``  peak RSS of the process that ran the workload.
``setup_s``  median of seven fresh-interpreter measurements of the
    imports and construction done before the first timed operation.

Other modes: ``--selfcheck`` (``selfcheck.py``) and ``--record SEEDS``,
which regenerates ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
WORKLOADS = ("offline-contended", "sharded-fanout", "predict-synthetic",
             "live-table2", "daemon-ingest")
SETUP_PROBES = 7
#: Child processes get this long; the whole run must end within 180 s.
WORKER_GRACE_S = 120


def metric_units() -> tuple:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        spec = json.load(stream)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "free_threaded": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str, run_dir: Path) -> float:
    samples = []
    for index in range(SETUP_PROBES):
        directory = run_dir / f"probe{index}"
        directory.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload,
             os.path.relpath(directory, ROOT)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_worker(manifest: dict, run_dir: Path, seconds: float, trace: int,
               fixed) -> dict:
    manifest_path = run_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as out:
        json.dump(manifest, out)
    out_path = run_dir / f"result-t{trace}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--manifest", str(manifest_path), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out_path)]
    if fixed is not None:
        command += ["--fixed", str(fixed)]
    # A session of its own, so that a timeout also takes down the pool
    # workers the program forked.
    worker = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                              start_new_session=True)
    try:
        code = worker.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(out_path, encoding="utf-8") as stream:
        return json.load(stream)


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as stream:
        return json.load(stream)


def prepare(workload: str, seed: int, size: str, run_dir: Path) -> dict:
    """Generate the inputs; attach the pins recorded for this seed."""
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = gen.build(workload, seed, size,
                         os.path.relpath(run_dir, ROOT))
    manifest["workdir"] = os.path.relpath(run_dir, ROOT)
    if size == "full":
        manifest["pins"] = load_pins()["workloads"][workload].get(str(seed))
    return manifest


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("perfbench: no program to measure: src/repro is missing",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    run_dir = WORK / f"{args.workload}-s{args.seed}-{args.size}"
    manifest = prepare(args.workload, args.seed, args.size, run_dir)
    pins = manifest.get("pins")
    digest = manifest["input_sha256"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    if pins is not None and pins["input_sha256"] != digest:
        print(f"perfbench: refused: input sha256 {digest} differs from the "
              f"recorded {pins['input_sha256']} for seed {args.seed}",
              file=sys.stderr)
        return 3
    print(f"input: sha256={digest} "
          f"({'matches pins.json' if pins else 'seed not pinned'})")
    host = machine()
    print("machine: " + " ".join(f"{key}={value}"
                                 for key, value in host.items()))

    fixed = None
    if args.size == "tiny":
        fixed = 6 if args.workload == "daemon-ingest" else 1
    setup_s = measure_setup(args.workload, run_dir)
    result = run_worker(manifest, run_dir, args.seconds, args.trace, fixed)

    flags = []
    selected = result["info"].get("backend_auto")
    if selected is not None:
        recorded = load_pins()["backend_auto"]
        host["backend_auto"] = selected
        print(f"backend: --backend auto selected {selected} "
              f"(recorded: {recorded})")
        if selected != recorded:
            flags.append(f"--backend auto selected {selected}, "
                         f"recorded {recorded}")
            print(f"FLAG: {flags[-1]}")
    for name, count in sorted(result["checks_ran"].items()):
        print(f"check: {name} ran {count}x")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    attempted, failed = result["attempted"], result["failed"]
    raw = result["info"]["raw"]
    print(f"samples: {raw.pop('samples')} operations timed")
    for name, value in raw.items():
        print(f"raw: {name} = {value:.6g}")
    print(f"failure_ratio: {failed}/{attempted} = "
          f"{failed / attempted:.4f}")

    if args.trace:
        values = result["layers"]
        units = layer_units
    else:
        values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"],
                      setup_s=setup_s)
        units = e2e_units
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric: {name} = {metric['value']:.6g} {metric['unit']}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "input_sha256": digest,
              "pinned": pins is not None, "machine": host, "flags": flags,
              "setup_s": setup_s, "worker": result, "metrics": metrics}
    with open(run_dir / f"run-t{args.trace}.json", "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_pins(seeds, workloads) -> int:
    """Run workloads once per seed at full size and write pins.json."""
    pins = load_pins() if PINS.exists() else {}
    pins.setdefault("workloads", {name: {} for name in WORKLOADS})
    for seed in seeds:
        for workload in workloads:
            run_dir = WORK / f"record-{workload}-s{seed}"
            manifest = prepare(workload, seed, "full", run_dir)
            manifest["pins"] = None
            result = run_worker(manifest, run_dir, 0, 0,
                                len(manifest.get("traces", [None])))
            if result["failed"]:
                print(f"{workload} seed {seed}: checks failed: "
                      f"{result['failures']}", file=sys.stderr)
                return 1
            info = result["info"]
            entry = {"input_sha256": manifest["input_sha256"]}
            if "report_sha256" in info:
                entry["report_sha256"] = info["report_sha256"]
            if "tally" in info:
                entry["tally"], entry["events"] = info["tally"], info["events"]
            if "offline_report_sha256" in info:
                entry["expected_sha256"] = info["offline_report_sha256"]
            if "backend_auto" in info:
                pins["backend_auto"] = info["backend_auto"]
            pins["workloads"][workload][str(seed)] = entry
            print(f"recorded {workload} seed {seed}: {entry}", flush=True)
        pins["recorded_on"] = machine()
        with open(PINS, "w", encoding="utf-8") as out:
            json.dump(pins, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: pins.json default)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at tiny size twice and "
                             "assert metrics, digests and counts")
    parser.add_argument("--record", metavar="SEEDS",
                        help="record pins for comma-separated seeds or "
                             "ranges (0-31,7919), for --workload or all")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import selfcheck
        return selfcheck.main()
    if args.record:
        seeds = []
        for part in args.record.split(","):
            low, _, high = part.partition("-")
            seeds.extend(range(int(low), int(high or low) + 1))
        return record_pins(seeds, [args.workload] if args.workload
                           else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = load_pins()["default_seed"]
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
