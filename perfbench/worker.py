"""Run one benchmark workload in a fresh process and report what it saw.

``run.py`` builds the inputs, then starts this module as its own process
so that ``peak_rss_mb`` is the peak RSS of the process that ran the
workload and nothing else.  The workload drives the program only through
its public entry points:

* ``repro.cli.main`` (the ``repro-analyze`` command), in-process;
* ``repro.bench.table2.run_row``;
* ``repro.service`` with ``ServerThread``, ``ServiceClient`` and
  ``ControlClient``.

The traced run (``--trace 1``) additionally reads what the program
already exports -- ``repro-analyze --stats-json`` and ``--spans``, a
``repro.obs.Registry(sample_interval=1)`` handed to constructors that take
one, ``DetectorStats`` and the daemon's ``STATS`` -- and times analyzer
and socket calls through subclasses defined here.  Spans are recorded
only in this file, kept in memory and written out at the end.

Every operation's output is checked; an operation with a failed check
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

OBJECT_FLAGS = [f"--object=d{index}=dictionary" for index in range(8)]


# -- spans --------------------------------------------------------------------

class Spans:
    """Completed spans (name, start, end, parent), in memory until dumped."""

    def __init__(self):
        self.records: List[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None) -> int:
        with self._lock:
            span_id = len(self.records)
            self.records.append({"id": span_id, "name": name,
                                 "start_ns": start_ns, "end_ns": end_ns,
                                 "parent": parent})
        return span_id

    def adopt_program_spans(self, path: str, parent: int) -> Dict[str, float]:
        """Attach the spans ``repro-analyze --spans`` wrote as children of
        ``parent``; their durations in seconds, summed by name."""
        durations: Dict[str, float] = {}
        if not os.path.exists(path):
            return durations
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                record = json.loads(line)
                start = record["ts_ns"]
                self.add(record["name"], start, start + record["dur_ns"],
                         parent)
                durations[record["name"]] = (durations.get(record["name"], 0.0)
                                             + record["dur_ns"] / 1e9)
        return durations

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")


# -- shared helpers -----------------------------------------------------------

class Checks:
    """Names of the checks that ran, and the failures per operation."""

    def __init__(self):
        self.ran: Dict[str, int] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def op(self, results: Dict[str, bool], label: str) -> None:
        """Record one operation's check results."""
        self.attempted += 1
        bad = [name for name, ok in results.items() if not ok]
        for name in results:
            self.ran[name] = self.ran.get(name, 0) + 1
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {', '.join(bad)}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation; needs one value)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(walls: List[float], bases: List[float], events: int,
                   ops: int, elapsed: float) -> tuple:
    """(end-to-end metrics, raw wall-clock figures) of one run.

    Each operation's wall time is divided by the wall time of a baseline
    measured next to it.  Host speed on a shared machine drifts by a
    quarter or more over tens of seconds, and the ratio cancels that drift
    where raw seconds cannot; the raw figures are reported alongside.
    """
    ratios = [wall / base for wall, base in zip(walls, bases)]
    millis = [wall * 1e3 for wall in walls]
    metrics = {"overhead_x": sum(walls) / sum(bases),
               "verdict_latency_p50_x": statistics.median(ratios),
               "verdict_latency_p95_x": quantile(ratios, 95)}
    raw = {"events_per_s": events / elapsed, "ops_per_s": ops / elapsed,
           "verdict_latency_p50_ms": statistics.median(millis),
           "verdict_latency_p95_ms": quantile(millis, 95),
           "samples": len(walls)}
    return metrics, raw


def decode_floor(lines: List[str], budget: float = 0.1) -> float:
    """Seconds to JSON-decode ``lines``: the least any consumer of the
    input has to pay, measured by the benchmark.  Repeated within
    ``budget`` seconds and the fastest pass kept, so that a small input is
    not dominated by timer noise."""
    best, spent = None, 0.0
    while best is None or spent < budget:
        start = time.perf_counter()
        for line in lines:
            json.loads(line)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        spent += elapsed
    return best


def run_cli(argv: List[str]):
    """``repro-analyze argv`` in-process: (wall s, exit code, out, err)."""
    from repro.cli import main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def until(deadline: float, fixed: Optional[int], count: int) -> bool:
    """Loop condition: a fixed operation count, else the time budget."""
    if fixed is not None:
        return count < fixed
    return count == 0 or time.perf_counter() < deadline


# -- offline workloads (repro-analyze) ----------------------------------------

def _witnessed(stdout: str) -> str:
    """The witnessed section of a ``--predict`` report."""
    lines = stdout.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if "predicted race(s) in sound reorderings" in line:
            return "".join(lines[:index])
    return stdout


def _unsharded(stdout: str, workers: int) -> str:
    """A sharded report with its ``[N workers]`` tally tag removed -- the
    only bytes by which it may differ from the sequential report."""
    return stdout.replace(f" [{workers} workers]:", ":")


def _timer_s(stats: dict, name: str) -> float:
    return stats["timers"].get(name, {}).get("total_ns", 0) / 1e9


def offline(manifest: dict, seconds: float, trace: bool,
            fixed: Optional[int], spans: Spans) -> dict:
    import repro.core.detector  # noqa: F401  (lazy import, paid up front)
    workload = manifest["workload"]
    inputs = manifest["traces"]
    flags: List[str] = []
    workers = 1
    if workload == "sharded-fanout":
        import repro.core.parallel  # noqa: F401
        workers = 2
        flags = ["--workers", str(workers), "--backend", "auto"]
    elif workload == "predict-synthetic":
        import repro.core.predict  # noqa: F401
        flags = ["--predict", "64"]
    pinned = (manifest.get("pins") or {}).get("report_sha256")
    checks = Checks()
    info: dict = {"reference_s": []}
    for entry in inputs:
        with open(entry["path"], encoding="utf-8") as stream:
            entry["lines"] = stream.read().splitlines()
        shape = entry["shape"]
        entry["loaded"] = (f"loaded {shape['events']} events "
                           f"({shape['actions']} actions, "
                           f"{shape['threads']} threads)\n")

    # The reference each operation is compared with: the sequential CLI
    # for the sharded run, the same run without --predict for prediction.
    if flags:
        for index, entry in enumerate(inputs):
            wall, code, out, _ = run_cli([entry["path"], *OBJECT_FLAGS])
            info["reference_s"].append(wall)
            entry["reference"] = out
            checks.op({"reference-exit": code in (0, 1),
                       "reference-loaded": out.startswith(entry["loaded"])},
                      f"reference{index}")

    work = manifest["workdir"]

    def operation(label: str, index: int, traced: bool) -> dict:
        entry = inputs[index]
        argv = [entry["path"], *OBJECT_FLAGS, *flags]
        stats_path = f"{work}/{workload}.stats.json"
        spans_path = f"{work}/{workload}.spans.jsonl"
        if traced:
            for stale in (stats_path, spans_path):
                if os.path.exists(stale):
                    os.remove(stale)
            argv = argv + ["--stats-json", stats_path, "--spans", spans_path]
        # The baseline brackets the operation, so that a change of host
        # speed during it weighs on both sides of the ratio.
        floor = decode_floor(entry["lines"], budget=0.05)
        start_ns = time.time_ns()
        wall, code, out, err = run_cli(argv)
        end_ns = time.time_ns()
        floor = (floor + decode_floor(entry["lines"], budget=0.05)) / 2
        results = {"exit": code in (0, 1),
                   "loaded": out.startswith(entry["loaded"]),
                   "deterministic": entry.setdefault("out", out) == out}
        if pinned is not None:
            results["pinned-report"] = sha256(out) == pinned[index]
        if workload == "sharded-fanout":
            results["equals-sequential"] = (
                _unsharded(out, workers) == entry["reference"])
            for line in err.splitlines():
                if line.startswith("backend: auto -> "):
                    info["backend_auto"] = line.split(" -> ", 1)[1].split()[0]
        if workload == "predict-synthetic":
            results["witnessed-unchanged"] = (
                _witnessed(out) == entry["reference"])
        checks.op(results, label)
        events = entry["shape"]["events"]
        record = {"wall": wall, "floor": floor, "index": index,
                  "events": events, "rate": events / wall}
        if traced:
            span = spans.add("repro-analyze", start_ns, end_ns)
            record["spans"] = spans.adopt_program_spans(spans_path, span)
            with open(stats_path, encoding="utf-8") as stream:
                record["stats"] = json.load(stream)["stats"]
        return record

    ops: List[dict] = []
    traced_ops: List[dict] = []
    deadline = time.perf_counter() + seconds
    count = 0
    # Whole passes over the trace set, so that every trace weighs the same
    # in the run's figures.
    while until(deadline, fixed, count) or count % len(inputs):
        index = count % len(inputs)
        ops.append(operation(f"op{count}", index, traced=False))
        if trace:
            traced_ops.append(operation(f"traced{count}", index, traced=True))
        count += 1

    walls = [op["wall"] for op in ops]
    metrics, info["raw"] = timing_metrics(
        walls, [op["floor"] for op in ops],
        sum(op["events"] for op in ops), len(ops), sum(walls))
    info["report_sha256"] = [sha256(entry["out"]) if "out" in entry else None
                             for entry in inputs]
    result = {"checks": checks, "metrics": metrics, "info": info}
    if trace:
        chosen = sorted(traced_ops, key=lambda op: op["wall"])[
            len(traced_ops) // 2]
        entry = inputs[chosen["index"]]
        parse_s, stamp_s = _serialize_split(entry["path"], spans)
        layers = _offline_layers(chosen, parse_s, stamp_s, entry["bytes"],
                                 workload)
        if workload == "sharded-fanout":
            layers["parallel.run_s"] = statistics.median(walls)
            layers["parallel.sequential_s"] = info["reference_s"][0]
        _tracing_overhead(layers, [op["rate"] for op in ops],
                          [op["rate"] for op in traced_ops])
        result["layers"] = layers
    return result


def _serialize_split(path: str, spans: Spans):
    """Time the two halves of the CLI's load through the public calls:
    ``loads_trace(stamp=False)`` (parse) and ``Trace.stamp()`` (HB)."""
    from repro.core.serialize import loads_trace
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    start = time.time_ns()
    parsed = loads_trace(text, stamp=False)
    middle = time.time_ns()
    parsed.stamp()
    end = time.time_ns()
    spans.add("serialize.parse", start, middle)
    spans.add("serialize.stamp", middle, end)
    return (middle - start) / 1e9, (end - middle) / 1e9


def _offline_layers(op: dict, parse_s: float, stamp_s: float,
                    bytes_in: int, workload: str) -> Dict[str, float]:
    stats, spans = op["stats"], op["spans"]
    counters, gauges = stats["counters"], stats["gauges"]
    sharded = workload == "sharded-fanout"
    load = spans.get("load", 0.0)
    report = spans.get("report", 0.0)
    # The load span is a parse followed by a full HB stamping pass; split
    # it in the proportion the two public calls took on their own.
    parse_share = parse_s / (parse_s + stamp_s)
    in_load_stamp = load * (1 - parse_share)
    detector_stamp = (spans.get("stamp", 0.0) if sharded
                      else _timer_s(stats, "stamp"))
    check = _timer_s(stats, "check")
    predict = _timer_s(stats, "predict")
    actions = counters.get("actions", 0)
    candidates = counters.get("predict_candidates", 0)
    layers = {
        "serialize.parse_s": parse_s,
        "serialize.stamp_s": stamp_s,
        "serialize.bytes_in": bytes_in,
        "hb.observe_s": in_load_stamp + detector_stamp,
        "hb.threads": gauges.get("hb_threads", 0),
        "hb.locks": gauges.get("hb_locks", 0),
        "detector.stamp_s": detector_stamp,
        "detector.check_s": check,
        "detector.actions": actions,
        "detector.conflict_checks": counters.get("conflict_checks", 0),
        "detector.checks_per_action": (counters.get("conflict_checks", 0)
                                       / actions if actions else 0.0),
        "detector.races": counters.get("races", 0),
        "detector.epoch_promotions": counters.get("epoch_promotions", 0),
        "detector.active_points": gauges.get("active_points", 0),
        "detector.interned_points": gauges.get("interned_points", 0),
        "cli.report_s": report,
        "predict.s": predict,
        "predict.candidates": candidates,
        "predict.validated": counters.get("predict_validated", 0),
        "predict.dropped_ordered": counters.get("predict_dropped_ordered", 0),
        "predict.dropped_stuck": counters.get("predict_dropped_stuck", 0),
        "predict.dropped_unvalidated": counters.get(
            "predict_dropped_unvalidated", 0),
        "predict.yield": (counters.get("predict_validated", 0) / candidates
                          if candidates else 0.0),
        "parallel.stamp_s": spans.get("stamp", 0.0) if sharded else 0.0,
        "parallel.fanout_s": spans.get("fanout", 0.0),
        "parallel.merge_s": spans.get("merge", 0.0),
        "parallel.ipc_bytes_pickled": counters.get("ipc_bytes_pickled", 0),
        "shmem.bytes_written": counters.get("shm_bytes_written", 0),
        "shmem.encode_s": _timer_s(stats, "shm_encode"),
        "shmem.ring_hwm": gauges.get("shm_ring_hwm", 0),
        "supervise.shard_faults": counters.get("shard_faults", 0),
    }
    # Self time of each layer inside the repro-analyze call.  On the
    # sharded path the per-shard check runs in the workers, inside the
    # fan-out span, so it is not added again.
    self_times = {
        "serialize": load - in_load_stamp,
        "hb": in_load_stamp + detector_stamp,
        "detector": 0.0 if sharded else check,
        "predict": predict,
        "parallel": (spans.get("fanout", 0.0) + spans.get("merge", 0.0)
                     if sharded else 0.0),
        "cli_report": report,
    }
    _self_layers(layers, self_times, op["wall"])
    return layers


SELF_LAYERS = ("serialize", "hb", "detector", "cli_report", "predict",
               "parallel", "runtime", "apps", "service")


def _self_layers(layers: dict, self_times: Dict[str, float],
                 wall: float) -> None:
    """Fill ``self.<layer>_s`` for every layer, plus the ``other``
    remainder, so that they sum to ``trace.wall_s``."""
    total = 0.0
    for name in SELF_LAYERS:
        value = self_times.get(name, 0.0)
        layers[f"self.{name}_s"] = value
        total += value
    layers["self.other_s"] = wall - total
    layers["trace.wall_s"] = wall


def _tracing_overhead(layers: dict, untraced: List[float],
                      traced: List[float]) -> None:
    fast = statistics.median(untraced)
    slow = statistics.median(traced)
    layers["trace.untraced_rate"] = fast
    layers["trace.traced_rate"] = slow
    layers["trace.overhead"] = fast - slow
    layers["trace.overhead_share"] = (fast - slow) / fast


# -- live-table2 (repro.bench.table2.run_row) ---------------------------------

def live(manifest: dict, seconds: float, trace: bool,
         fixed: Optional[int], spans: Spans) -> dict:
    from repro.bench.table2 import run_row
    params = manifest["params"]
    pinned = manifest.get("pins") or {}
    checks = Checks()
    first: Dict[str, tuple] = {}

    def verdict_checks(tally: str, events: int) -> Dict[str, bool]:
        results = {"deterministic":
                   first.setdefault("verdict", (tally, events))
                   == (tally, events)}
        if "tally" in pinned:
            results["pinned-tally"] = (tally == pinned["tally"]
                                       and events == pinned["events"])
        return results

    def operation(label: str) -> dict:
        start_ns = time.time_ns()
        row = run_row(params["benchmark"], seed=params["seed"],
                      scale=params["scale"],
                      configs=("uninstrumented", "rd2"))
        spans.add("run_row", start_ns, time.time_ns())
        rd2 = row.measurements["rd2"]
        bare = row.measurements["uninstrumented"]
        checks.op(verdict_checks(str(rd2.commutativity_races), rd2.events),
                  label)
        return {"wall": rd2.elapsed, "bare": bare.elapsed,
                "events": rd2.events, "ops": rd2.operations,
                "rate": rd2.events / rd2.elapsed, "qps": rd2.qps}

    ops: List[dict] = []
    traced_ops: List[dict] = []
    deadline = time.perf_counter() + seconds
    count = 0
    while until(deadline, fixed, count) or (trace and not traced_ops):
        ops.append(operation(f"op{count}"))
        if trace:
            traced_ops.append(_live_traced(params, checks, verdict_checks,
                                           spans, f"traced{count}"))
        count += 1

    walls = [op["wall"] for op in ops]
    metrics, raw = timing_metrics(
        walls, [op["bare"] for op in ops], sum(op["events"] for op in ops),
        sum(op["ops"] for op in ops), sum(walls))
    tally, events = first["verdict"]
    result = {"checks": checks, "metrics": metrics,
              "info": {"tally": tally, "events": events, "raw": raw}}
    if trace:
        chosen = sorted(traced_ops, key=lambda op: op["wall"])[
            len(traced_ops) // 2]
        layers = chosen["layers"]
        _tracing_overhead(layers, [op["qps"] for op in ops],
                          [op["qps"] for op in traced_ops])
        result["layers"] = layers
    return result


def _timed_analyzer(inner):
    """An ``Analyzer`` that delegates to ``inner`` and sums the time its
    ``process`` calls take (the scheduler runs one thread at a time, so
    the sum is wall time spent in the analyzer)."""
    from repro.runtime.analyzers import Analyzer

    class TimedAnalyzer(Analyzer):
        name = inner.name

        def __init__(self):
            self.inner = inner
            self.seconds = 0.0

        def register_object(self, obj_id, *, representation=None,
                            commutes=None):
            self.inner.register_object(obj_id, representation=representation,
                                       commutes=commutes)

        def release_object(self, obj_id):
            self.inner.release_object(obj_id)

        def process(self, event):
            start = time.perf_counter()
            self.inner.process(event)
            self.seconds += time.perf_counter() - start

        def races(self):
            return self.inner.races()

    return TimedAnalyzer()


def _live_traced(params: dict, checks: Checks, verdict_checks, spans: Spans,
                 label: str) -> dict:
    """One traced ComplexConcurrency run: the circuit under an empty
    monitor, then under timed RD2 + null analyzers with exact obs."""
    from repro.apps.polepos.circuits import (CIRCUITS, CircuitConfig,
                                             run_circuit)
    from repro.core.races import tally
    from repro.obs import Registry
    from repro.runtime.analyzers import NullAnalyzer, Rd2Analyzer
    from repro.runtime.monitor import Monitor

    circuit = CIRCUITS[params["benchmark"]]
    circuit = CircuitConfig(**{**circuit.__dict__, "ops_per_worker": max(
        1, int(circuit.ops_per_worker * params["scale"]))})

    start_ns = time.time_ns()
    bare_start = time.perf_counter()
    run_circuit(circuit, Monitor(analyzers=[]), seed=params["seed"])
    bare = time.perf_counter() - bare_start
    bare_ns = time.time_ns()
    spans.add("apps.uninstrumented", start_ns, bare_ns)

    registry = Registry(sample_interval=1)
    rd2 = _timed_analyzer(Rd2Analyzer(obs=registry))
    null = _timed_analyzer(NullAnalyzer())
    monitor = Monitor(analyzers=[rd2, null], obs=registry)
    run_start = time.perf_counter()
    result = run_circuit(circuit, monitor, seed=params["seed"])
    wall = time.perf_counter() - run_start
    spans.add("runtime.rd2", bare_ns, time.time_ns())

    events = monitor.events_emitted
    checks.op(verdict_checks(str(tally(rd2.races())), events), label)
    snapshot = registry.snapshot()
    by_kind = snapshot["breakdowns"].get("events_by_kind", {})
    stats = rd2.inner.detector.stats
    dispatch = wall - bare - rd2.seconds - null.seconds
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({
        "runtime.events_emitted": events,
        "runtime.action_events": by_kind.get("action", 0),
        "runtime.memory_events": (by_kind.get("read", 0)
                                  + by_kind.get("write", 0)),
        "runtime.rd2_process_s": rd2.seconds,
        "runtime.null_process_s": null.seconds,
        "runtime.dispatch_s": dispatch,
        "apps.uninstrumented_s": bare,
        "detector.stamp_s": _timer_s(snapshot, "stamp"),
        "detector.check_s": _timer_s(snapshot, "check"),
        "detector.actions": stats.actions,
        "detector.conflict_checks": stats.conflict_checks,
        "detector.checks_per_action": stats.checks_per_action(),
        "detector.races": stats.races,
        "detector.epoch_promotions": stats.epoch_promotions,
        "detector.active_points": rd2.inner.detector.active_point_count(),
        "detector.interned_points":
            rd2.inner.detector.interned_point_count(),
        "hb.observe_s": _timer_s(snapshot, "stamp"),
        "hb.threads": len(rd2.inner.detector.happens_before.known_threads()),
        "hb.locks": len(rd2.inner.detector.happens_before.known_locks()),
    })
    # The bare run stands in for app + scheduler time inside the
    # monitored run; what is left after the analyzers is dispatch.
    _self_layers(layers, {"apps": bare, "detector": rd2.seconds,
                          "runtime": null.seconds + dispatch}, wall)
    return {"wall": wall, "qps": result.operations / wall,
            "layers": layers}


# -- daemon-ingest (repro.service) --------------------------------------------

def _load_streams(path: str) -> List[dict]:
    from repro.core.serialize import loads_trace
    from repro.service.chaos import offline_race_lines
    streams = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            record["expected"] = offline_race_lines(
                loads_trace(record["text"]), record["bindings"])
            record["lines"] = record["text"].splitlines()
            streams.append(record)
    return streams


def _timed_client_class():
    """A ``ServiceClient`` whose sockets note when their last byte went
    out, so each stream splits into send time and wait-for-DONE time."""
    from repro.service.client import ServiceClient

    class TimedSocket(socket.socket):
        sent_at = None

        def sendall(self, data, *flags):
            super().sendall(data, *flags)
            self.sent_at = time.perf_counter()

    class TimedClient(ServiceClient):
        def __init__(self, socket_path: str):
            super().__init__(socket_path)
            self.path = socket_path
            self.connections: List[tuple] = []

        def _connect(self):
            sock = TimedSocket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30.0)
            sock.connect(self.path)
            self.connections.append((time.perf_counter(), sock))
            return sock

        def stream_text(self, *args, **kwargs):
            result = super().stream_text(*args, **kwargs)
            opened, sock = self.connections[-1]
            self.connections[-1] = (opened, sock.sent_at or opened,
                                    time.perf_counter())
            return result

    return TimedClient


def _serve(streams: List[dict], directory: str, seconds: float,
           fixed: Optional[int], traced: bool, checks: Checks,
           spans: Spans) -> dict:
    """One closed-loop session against a fresh in-process daemon."""
    from repro.service.client import ControlClient, ServerThread, ServiceClient
    from repro.service.server import ServiceConfig
    from repro.service.session import SessionConfig

    # A checkpoint left by an earlier run would make this run's tenants
    # resume someone else's analysis.
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    config = ServiceConfig(
        socket_path=f"{directory}/ingest.sock",
        control_path=f"{directory}/control.sock",
        session=SessionConfig(checkpoint_dir=f"{directory}/checkpoints"))
    client_class = _timed_client_class() if traced else ServiceClient
    clients = 2
    records: List[List[dict]] = [[] for _ in range(clients)]
    loop_walls = [0.0] * clients
    lock = threading.Lock()
    errors: List[BaseException] = []

    with ServerThread(config) as host:
        control = ControlClient(config.control_path)
        deadline = time.perf_counter() + seconds

        def drive(index: int) -> None:
            client = client_class(config.socket_path)
            started = time.perf_counter()
            sent = 0
            # Client i sends streams i, i + clients, ... of the pool; every
            # third of its streams is first cut mid-frame and re-sent, so
            # the server fast-forwards from the checkpoint it cut.
            while (sent < fixed if fixed is not None
                   else time.perf_counter() < deadline):
                position = index + clients * sent
                record = streams[position % len(streams)]
                tenant = f"c{index}-{sent}"
                cut = sent % 3 == 2
                floor = decode_floor(record["lines"], budget=0.0005)
                stream_start_ns = time.time_ns()
                start = time.perf_counter()
                if cut:
                    client.stream_text(tenant, record["bindings"],
                                       record["text"],
                                       truncate_at=record["cut"])
                attempts = client.stream_until_done(
                    tenant, record["bindings"], record["text"])
                done = time.perf_counter()
                observed = control.races(tenant)
                checked = time.perf_counter()
                if observed == ["(no races)"]:
                    observed = []
                ok = {"done": attempts[-1].status == "done",
                      "races-equal-offline": observed == record["expected"]}
                if cut:
                    ok["resumed"] = any(a.resumed > 0 for a in attempts)
                with lock:
                    checks.op(ok, tenant)
                entry = {"latency": done - start, "events": record["events"],
                         "floor": floor, "ok": all(ok.values()),
                         "races_s": checked - done}
                if traced:
                    parent = spans.add("stream", stream_start_ns,
                                       time.time_ns())
                    entry["send"] = sum(sent_at - opened for opened, sent_at,
                                        _ in client.connections)
                    entry["ack_wait"] = sum(closed - sent_at for _, sent_at,
                                            closed in client.connections)
                    for opened, sent_at, closed in client.connections:
                        base = stream_start_ns - int(start * 1e9)
                        spans.add("service.send", base + int(opened * 1e9),
                                  base + int(sent_at * 1e9), parent)
                        spans.add("service.ack_wait",
                                  base + int(sent_at * 1e9),
                                  base + int(closed * 1e9), parent)
                    client.connections.clear()
                records[index].append(entry)
                sent += 1
            loop_walls[index] = time.perf_counter() - started

        def guarded(index: int) -> None:
            try:
                drive(index)
            except BaseException as exc:  # reported after the join
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(index,))
                   for index in range(clients)]
        loop_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - loop_start
        stats = control.stats()
        control.shutdown()
    if errors:
        raise errors[0]
    if host.error is not None:
        raise host.error
    return {"records": [entry for per in records for entry in per],
            "wall": wall, "loop_walls": loop_walls, "stats": stats}


def daemon(manifest: dict, seconds: float, trace: bool,
           fixed: Optional[int], spans: Spans) -> dict:
    streams = _load_streams(manifest["streams"])
    checks = Checks()
    pinned = manifest.get("pins") or {}
    expected_digest = sha256(json.dumps([s["expected"] for s in streams]))
    if "expected_sha256" in pinned:
        checks.op({"pinned-offline-report":
                   expected_digest == pinned["expected_sha256"]},
                  "offline-reference")
    work = manifest["workdir"]
    budget = seconds / 2 if trace else seconds
    plain = _serve(streams, f"{work}/serve", budget, fixed, False, checks,
                   spans)
    records = plain["records"]
    metrics, raw = timing_metrics(
        [entry["latency"] for entry in records],
        [entry["floor"] for entry in records],
        sum(entry["events"] for entry in records if entry["ok"]),
        sum(entry["ok"] for entry in records), plain["wall"])
    result = {"checks": checks, "metrics": metrics,
              "info": {"raw": raw, "offline_report_sha256": expected_digest}}
    if trace:
        traced = _serve(streams, f"{work}/serve-traced", budget, fixed, True,
                        checks, spans)
        result["layers"] = _daemon_layers(traced, raw["events_per_s"])
    return result


def _daemon_layers(traced: dict, untraced_rate: float) -> Dict[str, float]:
    records = traced["records"]
    counters = traced["stats"].get("counters", {})
    gauges = traced["stats"].get("gauges", {})
    send = sum(entry["send"] for entry in records)
    ack_wait = sum(entry["ack_wait"] for entry in records)
    # Everything inside the client calls is the service's: sends, waits
    # for DONE, the client's reconnect back-off, and the RACES query.
    in_service = sum(entry["latency"] + entry["races_s"] for entry in records)
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({
        "service.streams_completed": counters.get("streams_completed", 0),
        "service.resumes": counters.get("tenants_resumed", 0),
        "service.checkpoints_written": counters.get(
            "tenant_checkpoints_written", 0),
        "service.checkpoints_rejected": counters.get(
            "tenant_checkpoints_rejected", 0),
        "service.budget_forced_windows": counters.get(
            "budget_forced_windows", 0),
        "service.queue_hwm": max(
            [value for name, value in gauges.items()
             if name.startswith("tenant_queue_hwm[")] or [0]),
        "service.send_s": send,
        "service.ack_wait_s": ack_wait,
    })
    # Two client threads run at once, so the traced wall is client-thread
    # time: the sum of both loops.
    _self_layers(layers, {"service": in_service}, sum(traced["loop_walls"]))
    traced_rate = (sum(entry["events"] for entry in records if entry["ok"])
                   / traced["wall"])
    _tracing_overhead(layers, [untraced_rate], [traced_rate])
    return layers


# -- the per-layer metric table -----------------------------------------------

#: name -> (unit, better); BENCHMARK.json lists the same table.
PER_LAYER = {
    "serialize.parse_s": ("s", "lower"),
    "serialize.stamp_s": ("s", "lower"),
    "serialize.bytes_in": ("bytes", "lower"),
    "hb.observe_s": ("s", "lower"),
    "hb.threads": ("count", "lower"),
    "hb.locks": ("count", "lower"),
    "detector.stamp_s": ("s", "lower"),
    "detector.check_s": ("s", "lower"),
    "detector.actions": ("count", "higher"),
    "detector.conflict_checks": ("count", "lower"),
    "detector.checks_per_action": ("ratio", "lower"),
    "detector.races": ("count", "higher"),
    "detector.epoch_promotions": ("count", "lower"),
    "detector.active_points": ("count", "lower"),
    "detector.interned_points": ("count", "lower"),
    "cli.report_s": ("s", "lower"),
    "predict.s": ("s", "lower"),
    "predict.candidates": ("count", "lower"),
    "predict.validated": ("count", "higher"),
    "predict.dropped_ordered": ("count", "lower"),
    "predict.dropped_stuck": ("count", "lower"),
    "predict.dropped_unvalidated": ("count", "lower"),
    "predict.yield": ("ratio", "higher"),
    "parallel.run_s": ("s", "lower"),
    "parallel.sequential_s": ("s", "lower"),
    "parallel.stamp_s": ("s", "lower"),
    "parallel.fanout_s": ("s", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "parallel.ipc_bytes_pickled": ("bytes", "lower"),
    "shmem.bytes_written": ("bytes", "lower"),
    "shmem.encode_s": ("s", "lower"),
    "shmem.ring_hwm": ("count", "lower"),
    "supervise.shard_faults": ("count", "lower"),
    "runtime.events_emitted": ("count", "lower"),
    "runtime.action_events": ("count", "lower"),
    "runtime.memory_events": ("count", "lower"),
    "runtime.rd2_process_s": ("s", "lower"),
    "runtime.null_process_s": ("s", "lower"),
    "runtime.dispatch_s": ("s", "lower"),
    "apps.uninstrumented_s": ("s", "lower"),
    "service.streams_completed": ("count", "higher"),
    "service.resumes": ("count", "higher"),
    "service.checkpoints_written": ("count", "lower"),
    "service.checkpoints_rejected": ("count", "lower"),
    "service.budget_forced_windows": ("count", "lower"),
    "service.queue_hwm": ("count", "lower"),
    "service.send_s": ("s", "lower"),
    "service.ack_wait_s": ("s", "lower"),
    **{f"self.{name}_s": ("s", "lower")
       for name in (*SELF_LAYERS, "other")},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_rate": ("1/s", "higher"),
    "trace.traced_rate": ("1/s", "higher"),
    "trace.overhead": ("1/s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

WORKLOADS: Dict[str, Callable] = {
    "offline-contended": offline,
    "sharded-fanout": offline,
    "predict-synthetic": offline,
    "live-table2": live,
    "daemon-ingest": daemon,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed", type=int, default=None,
                        help="run exactly this many operations (per client "
                             "on the daemon) instead of --seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as stream:
        manifest = json.load(stream)
    spans = Spans()
    result = WORKLOADS[manifest["workload"]](
        manifest, args.seconds, bool(args.trace), args.fixed, spans)
    checks: Checks = result.pop("checks")
    if "layers" in result:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(result["layers"])
        result["layers"] = layers
    result.update({
        "attempted": checks.attempted, "failed": checks.failed,
        "checks_ran": checks.ran, "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    spans_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
    spans.dump(spans_path)
    result["spans"] = spans_path
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
