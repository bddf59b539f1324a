"""The ``repro-analyze`` command: offline analysis of saved traces.

Record a trace in a monitored run (``Monitor(record_trace=True)``), park it
with :func:`repro.core.serialize.dump_trace`, then analyze it later::

    repro-analyze trace.jsonl --object o=dictionary --object s=set
    repro-analyze trace.jsonl --object o=dictionary --workers 4
    repro-analyze trace.jsonl --object o=dictionary --detector direct
    repro-analyze trace.jsonl --detector fasttrack
    repro-analyze trace.jsonl --object o=dictionary --atomicity
    repro-analyze trace.jsonl --spec-report dictionary
    repro-analyze --verify-specs dictionary

``--object NAME=KIND`` binds a shared object in the trace to a bundled
specification kind; the commutativity detectors need at least one binding,
the read/write detectors none.

Observability sinks (see :mod:`repro.obs`):

* ``--stats`` prints the per-phase/per-object/per-method-pair table to
  **stderr** (stdout keeps carrying only the race report, so scripted
  comparisons of the analysis output are unaffected),
* ``--stats-json PATH`` writes the frozen JSON report schema,
* ``--spans PATH`` appends coarse spans (load/stamp/fanout/merge/report)
  as JSONL for offline flamegraph-style analysis.

Fault tolerance (see ``docs/robustness.md``): multi-worker rd2 runs are
supervised (``--shard-timeout``, ``--shard-retries``), long phase-A passes
can checkpoint (``--checkpoint``, ``--checkpoint-interval``) and a killed
run resumes with ``--resume-from``.  Tolerated faults are summarized on
stderr and recorded under ``"faults"`` in the ``--stats-json`` report.

Exit codes are part of the scripting interface (see ``EXIT_*``): 0 clean,
1 reports found, 2 usage error, 3 unreadable/invalid input, 130
interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core.errors import ReproError
from .core.races import group_races, tally
from .core.serialize import load_trace
from .obs import (NULL_REGISTRY, Registry, SpanStream, build_report,
                  publish_detector_stats, render_table, write_report)
from .specs import bundled_objects

__all__ = ["main", "EXIT_CLEAN", "EXIT_REPORTS", "EXIT_USAGE", "EXIT_DATA",
           "EXIT_INTERRUPT"]

#: No reports found, analysis completed.
EXIT_CLEAN = 0
#: Analysis completed and found race/atomicity reports.
EXIT_REPORTS = 1
#: Bad invocation: unknown flags or invalid option values.
EXIT_USAGE = 2
#: Input problem: unreadable or malformed trace file.
EXIT_DATA = 3
#: Interrupted by the user (128 + SIGINT, the shell convention).
EXIT_INTERRUPT = 130

_EXIT_CODE_HELP = """\
exit codes:
  0   analysis completed, no reports
  1   analysis completed, race/atomicity reports found
  2   usage error (bad flag or option value)
  3   input error (unreadable or invalid trace file)
  130 interrupted (SIGINT)
"""


def _fail(message: str, code: int) -> "SystemExit":
    """Exit with a clean one-line diagnostic on stderr (no traceback)."""
    print(f"repro-analyze: error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _parse_bindings(pairs: Sequence[str]) -> List[Tuple[str, str]]:
    registry = bundled_objects()
    bindings = []
    for pair in pairs:
        if "=" not in pair:
            _fail(f"--object expects NAME=KIND, got {pair!r}", EXIT_USAGE)
        name, kind = pair.split("=", 1)
        if kind not in registry:
            _fail(f"unknown object kind {kind!r}; available: "
                  f"{sorted(registry)}", EXIT_USAGE)
        bindings.append((name, kind))
    return bindings


def _parse_workers(raw: str) -> int:
    """Validate ``--workers`` (kept a string so non-integers get our
    one-line diagnostic instead of argparse's usage dump)."""
    try:
        workers = int(raw)
    except ValueError:
        _fail(f"--workers expects a positive integer, got {raw!r}",
              EXIT_USAGE)
    if workers < 1:
        _fail(f"--workers must be >= 1, got {workers}", EXIT_USAGE)
    return workers


def _parse_prune_interval(args) -> int:
    """Validate ``--prune-interval`` (0 = pruning off, the default)."""
    if args.prune_interval is None:
        return 0
    try:
        interval = int(args.prune_interval)
    except ValueError:
        _fail(f"--prune-interval expects a positive integer, got "
              f"{args.prune_interval!r}", EXIT_USAGE)
    if interval < 1:
        _fail(f"--prune-interval must be >= 1, got {interval}", EXIT_USAGE)
    return interval


def _parse_predict(args) -> int:
    """Validate ``--predict[=WINDOW]`` (0 = prediction off, the default)."""
    if args.predict is None:
        return 0
    try:
        window = int(args.predict)
    except ValueError:
        _fail(f"--predict expects a positive integer window, got "
              f"{args.predict!r}", EXIT_USAGE)
    if window < 1:
        _fail(f"--predict window must be >= 1, got {window}", EXIT_USAGE)
    return window


def _parse_follow_window(args) -> Optional[int]:
    """Validate ``--window`` (None when the flag was not given)."""
    if args.window is None:
        return None
    try:
        window = int(args.window)
    except ValueError:
        _fail(f"--window expects a positive integer, got {args.window!r}",
              EXIT_USAGE)
    if window < 1:
        _fail(f"--window must be >= 1, got {window}", EXIT_USAGE)
    return window


def _parse_follow_timeout(args) -> Optional[float]:
    """Validate ``--follow-timeout`` (None when the flag was not given)."""
    if args.follow_timeout is None:
        return None
    try:
        timeout = float(args.follow_timeout)
    except ValueError:
        _fail(f"--follow-timeout expects a number of seconds, got "
              f"{args.follow_timeout!r}", EXIT_USAGE)
    if timeout <= 0:
        _fail(f"--follow-timeout must be > 0, got {timeout:g}", EXIT_USAGE)
    return timeout


def _load_trace_file(path: str):
    """Load a JSONL trace, turning format problems into clean exits.

    A malformed line (invalid JSON) or an unknown event kind is a user
    input problem, not a bug — report which file failed and why instead
    of letting the traceback escape.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return load_trace(stream)
    except OSError as exc:
        _fail(f"cannot read trace {path!r}: {exc}", EXIT_DATA)
    except (ReproError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError on malformed lines;
        # ReproError covers unknown event kinds, bad sentinels, and
        # truncated traces.
        _fail(f"invalid trace file {path!r}: {exc}", EXIT_DATA)


def _analyze_commutativity(trace, bindings, detector_kind: str,
                           workers: int = 1, obs=NULL_REGISTRY,
                           supervisor=None, checkpoint=None,
                           resume_from: Optional[str] = None,
                           prune_interval: int = 0,
                           backend: str = "auto",
                           predict_window: int = 0,
                           ) -> Tuple[int, Optional[Dict[str, Any]],
                                      Optional[List[Any]]]:
    registry = bundled_objects()
    if not bindings:
        _fail("commutativity analysis needs at least one --object NAME=KIND",
              EXIT_USAGE)
    sharded = (workers > 1 or supervisor is not None
               or checkpoint is not None or resume_from is not None)
    if detector_kind == "rd2" and sharded:
        from .core.parallel import ShardedDetector
        detector = ShardedDetector(root=trace.root, workers=workers,
                                   prune_interval=prune_interval,
                                   obs=obs, supervisor=supervisor,
                                   checkpoint=checkpoint,
                                   resume_from=resume_from,
                                   backend=backend,
                                   predict_window=predict_window)
        if workers > 1 and detector.backend.reason is not None:
            print(f"backend: {detector.backend.requested} -> "
                  f"{detector.backend.describe()}", file=sys.stderr)
    elif detector_kind == "rd2":
        from .core.detector import CommutativityRaceDetector
        detector = CommutativityRaceDetector(root=trace.root,
                                             prune_interval=prune_interval,
                                             obs=obs,
                                             predict_window=predict_window)
    else:
        from .core.direct import DirectDetector
        detector = DirectDetector(root=trace.root)
    for name, kind in bindings:
        if detector_kind == "rd2":
            detector.register_object(name, registry[kind].representation())
        else:
            detector.register_object(name, registry[kind].spec().commutes)
    detector.run(trace)
    publish_detector_stats(obs, detector.stats)
    hb = getattr(detector, "happens_before", None)
    if hb is not None:
        obs.gauge("hb_threads", len(hb.known_threads()))
        obs.gauge("hb_locks", len(hb.known_locks()))
    if hasattr(detector, "interned_point_count"):
        # Sequential rd2 only: the sharded detector's per-object state
        # lives (and dies) in its workers.
        obs.gauge("active_points", detector.active_point_count())
        obs.gauge("interned_points", detector.interned_point_count())
    races = detector.races
    predicted = (list(detector.predicted) if predict_window else None)
    suffix = f" [{workers} workers]" if workers > 1 else ""
    with obs.span("report"):
        print(f"{detector_kind}{suffix}: {tally(races)} "
              f"commutativity race report(s)")
        for group in group_races(races):
            print(f"  {group}")
        if predicted is not None:
            print(f"{detector_kind}{suffix}: {len(predicted)} predicted "
                  f"race(s) in sound reorderings")
            for prediction in predicted:
                print(f"  {prediction}")
    fault_log = getattr(detector, "faults", None)
    faults = fault_log.snapshot() if fault_log else None
    code = EXIT_REPORTS if (races or predicted) else EXIT_CLEAN
    return code, faults, predicted


def _analyze_follow(path: str, bindings, obs=NULL_REGISTRY,
                    prune_interval: int = 0,
                    window: int = 1024, idle_timeout: float = 10.0,
                    stats_json: Optional[str] = None,
                    meta_base: Optional[Dict[str, Any]] = None,
                    poll_interval: float = 0.05,
                    predict_window: int = 0,
                    ) -> Tuple[int, int, Optional[List[Any]]]:
    """Stream a trace that may still be growing; returns (code, events).

    Races print the moment phase 1 reports them (the whole point of
    following a live trace), and every maintenance window rewrites the
    ``--stats-json`` snapshot so an operator can watch the memory gauges
    of a run that never ends.  The snapshot is built from a throwaway
    merged registry — publishing cumulative detector counters into ``obs``
    every window would double-count them.
    """
    from .core.serialize import TailReader
    from .core.stream import StreamAnalyzer, follow_analyze
    registry = bundled_objects()
    if not bindings:
        _fail("commutativity analysis needs at least one --object NAME=KIND",
              EXIT_USAGE)

    def on_race(race) -> None:
        print(f"race: {race}", flush=True)

    def snapshot(analyzer: "StreamAnalyzer") -> None:
        if not stats_json:
            return
        merged = Registry(sample_interval=1)
        merged.absorb(obs)
        publish_detector_stats(merged, analyzer.stats)
        meta = dict(meta_base or {})
        meta["events"] = analyzer.events_processed
        meta["windows"] = analyzer.windows_completed
        report = build_report(merged, meta=meta)
        if predict_window:
            report["predicted"] = [prediction.snapshot()
                                   for prediction in analyzer.predicted]
        # Write-then-rename so a reader polling the snapshot never sees a
        # half-written report.
        tmp = f"{stats_json}.tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            write_report(report, out)
        os.replace(tmp, stats_json)

    def build(root) -> "StreamAnalyzer":
        analyzer = StreamAnalyzer(root=root, on_race=on_race,
                                  prune_interval=prune_interval,
                                  window=window,
                                  obs=obs, on_window=snapshot,
                                  predict_window=predict_window)
        for name, kind in bindings:
            analyzer.register_object(name, registry[kind].representation())
        return analyzer

    try:
        # The reader carries the obs handle so frame-cap violations are
        # counted (stream_frame_errors) before the error surfaces.
        reader = TailReader(path, obs=obs)
        analyzer, status = follow_analyze(path, build,
                                          poll_interval=poll_interval,
                                          idle_timeout=idle_timeout,
                                          reader=reader)
    except (ReproError, ValueError) as exc:
        _fail(f"invalid trace file {path!r}: {exc}", EXIT_DATA)
    if analyzer is None:
        _fail(f"cannot read trace {path!r}: no complete header after "
              f"{idle_timeout:g}s", EXIT_DATA)
    if not status.complete:
        declared = ("?" if status.declared_events is None
                    else status.declared_events)
        print(f"repro-analyze: follow: no new events for {idle_timeout:g}s; "
              f"trace incomplete ({status.events_read} of {declared} events, "
              f"resume offset {status.resume_offset})", file=sys.stderr)
    if meta_base is not None:
        # Keep the final report on the follow-mode snapshot schema: the
        # periodic snapshots carry a "windows" count, and so must the
        # closing rewrite (an idle timeout inside a maintenance window
        # still flushed that window via finish()).
        meta_base["windows"] = analyzer.windows_completed
    publish_detector_stats(obs, analyzer.stats)
    hb = analyzer.detector.happens_before
    obs.gauge("hb_threads", len(hb.known_threads()))
    obs.gauge("hb_locks", len(hb.known_locks()))
    races = analyzer.races
    predicted = (list(analyzer.predicted) if predict_window else None)
    with obs.span("report"):
        print(f"rd2 [follow]: {tally(races)} commutativity race report(s)")
        for group in group_races(races):
            print(f"  {group}")
        if predicted is not None:
            print(f"rd2 [follow]: {len(predicted)} predicted race(s) in "
                  f"sound reorderings")
            for prediction in predicted:
                print(f"  {prediction}")
    code = EXIT_REPORTS if (races or predicted) else EXIT_CLEAN
    return code, status.events_read, predicted


def _analyze_memory(trace, detector_kind: str, obs=NULL_REGISTRY,
                    ) -> Tuple[int, Optional[Dict[str, Any]]]:
    if detector_kind == "fasttrack":
        from .baselines.fasttrack import FastTrack
        detector = FastTrack(root=trace.root, obs=obs)
        detector.run(trace)
        reports = detector.races
    else:
        from .baselines.eraser import Eraser
        detector = Eraser(root=trace.root, obs=obs)
        detector.run(trace)
        reports = detector.warnings
    with obs.span("report"):
        print(f"{detector_kind}: {tally(reports)} report(s)")
        for group in group_races(reports):
            print(f"  {group}")
    return (EXIT_REPORTS if reports else EXIT_CLEAN), None


def _analyze_atomicity(trace, bindings, obs=NULL_REGISTRY,
                       ) -> Tuple[int, Optional[Dict[str, Any]]]:
    from .atomicity import AtomicityChecker, ConflictMode
    registry = bundled_objects()
    checker = AtomicityChecker(ConflictMode.COMMUTATIVITY)
    for name, kind in bindings:
        checker.register_object(name, registry[kind].representation())
    with obs.span("check"):
        report = checker.analyze(trace)
    obs.add("transactions", len(report.transactions))
    obs.add("conflict_edges", report.conflict_edges)
    obs.add("violations", len(report.violations))
    with obs.span("report"):
        print(f"atomicity: {len(report.transactions)} transactions, "
              f"{report.conflict_edges} conflict edges, "
              f"{len(report.violations)} violation(s)")
        for violation in report.violations:
            print(f"  {violation}")
    return (EXIT_REPORTS if report.violations else EXIT_CLEAN), None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Analyze a saved trace (JSONL) for commutativity "
                    "races, read/write races, or atomicity violations.",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?",
                        help="path to a trace written by dump_trace()")
    parser.add_argument("--object", action="append", default=[],
                        metavar="NAME=KIND", dest="objects",
                        help="bind a shared object to a bundled spec kind")
    parser.add_argument("--detector", default="rd2",
                        choices=("rd2", "direct", "fasttrack", "eraser"),
                        help="which analysis to run (default rd2)")
    parser.add_argument("--workers", default="1", metavar="N",
                        help="fan the rd2 per-object race checks out to N "
                             "worker processes (two-phase sharded pipeline; "
                             "default 1 = sequential)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "shm"],
                        help="shard fan-out transport for --workers > 1: "
                             "shared-memory record rings, one worker "
                             "process per shard (default auto; shm asks "
                             "for the same transport); a host without "
                             "shared memory replays the shards in-process "
                             "instead, with the reason logged to stderr")
    parser.add_argument("--shard-timeout", default=None, metavar="SECONDS",
                        help="per-shard supervision timeout for --workers "
                             "runs (default 120)")
    parser.add_argument("--shard-retries", default=None, metavar="N",
                        help="worker retries per failed shard before "
                             "falling back to in-process replay (default 2)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="periodically checkpoint phase-A stamping "
                             "state to PATH (rd2 only)")
    parser.add_argument("--checkpoint-interval", default="10000", metavar="N",
                        help="events between checkpoints (default 10000)")
    parser.add_argument("--resume-from", metavar="PATH", dest="resume_from",
                        help="resume phase-A stamping from a checkpoint "
                             "written by a previous run on the same trace "
                             "(a rejected checkpoint degrades to a full "
                             "restamp)")
    parser.add_argument("--prune-interval", default=None, metavar="N",
                        dest="prune_interval",
                        help="rd2: every N actions, reclaim active points "
                             "(and their interned entries) ordered before "
                             "every live thread — bounds memory by the "
                             "concurrent footprint (verdict-preserving; "
                             "works sequentially and with --workers)")
    parser.add_argument("--predict", nargs="?", const="256", default=None,
                        metavar="WINDOW",
                        help="rd2: additionally report *predicted* "
                             "commutativity races — conflicting pairs at "
                             "most WINDOW same-object actions apart "
                             "(default 256) that some sound reordering of "
                             "the trace makes concurrent; each prediction "
                             "ships with a concrete witness reordering, "
                             "validated by replay through the standard "
                             "detector (strictly more races, never "
                             "different ones)")
    parser.add_argument("--follow", action="store_true",
                        help="stream the trace as it is being written: "
                             "analyze incrementally, print races as they "
                             "are found, tolerate a partially written "
                             "tail, stop when the declared event count is "
                             "reached or no data arrives for "
                             "--follow-timeout seconds (rd2, sequential)")
    parser.add_argument("--window", default=None, metavar="N",
                        help="events per --follow maintenance cycle: dead "
                             "threads retire, memory gauges sample and "
                             "--stats-json rewrites (default 1024)")
    parser.add_argument("--follow-timeout", default=None, metavar="SECONDS",
                        dest="follow_timeout",
                        help="give up on --follow after this long without "
                             "a new complete event — a writer killed "
                             "mid-record cannot wedge the reader "
                             "(default 10)")
    parser.add_argument("--atomicity", action="store_true",
                        help="run the atomicity checker instead")
    parser.add_argument("--spec-report", metavar="KIND",
                        help="print the Fig. 6/7-style report of a bundled "
                             "spec and exit")
    parser.add_argument("--verify-specs", nargs="?", const="all",
                        metavar="KIND", dest="verify_specs",
                        help="exhaustively verify a bundled spec (or all "
                             "of them) against its executable semantics "
                             "and exit; see repro-verify-specs for the "
                             "full interface")
    parser.add_argument("--stats", action="store_true",
                        help="print the observability table (per-phase "
                             "timings, per-object and per-method-pair "
                             "attribution) to stderr")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write the structured observability report "
                             "as JSON")
    parser.add_argument("--spans", metavar="PATH",
                        help="append coarse pipeline spans to PATH as JSONL "
                             "(flamegraph-style offline analysis)")
    args = parser.parse_args(argv)

    if args.spec_report:
        registry = bundled_objects()
        if args.spec_report not in registry:
            _fail(f"unknown kind {args.spec_report!r}; "
                  f"available: {sorted(registry)}", EXIT_USAGE)
        from .logic.pretty import spec_report
        print(spec_report(registry[args.spec_report].spec()))
        return EXIT_CLEAN

    if args.verify_specs:
        from .verify.cli import main as verify_main
        kinds = [] if args.verify_specs == "all" else [args.verify_specs]
        return verify_main(kinds)

    if not args.trace:
        _fail("a trace file is required (or use --spec-report)", EXIT_USAGE)

    workers = _parse_workers(args.workers)
    supervisor = _parse_supervisor(args)
    checkpoint = _parse_checkpoint(args)
    rd2_only = (workers > 1 or supervisor is not None
                or checkpoint is not None or args.resume_from)
    if rd2_only and (args.detector != "rd2" or args.atomicity):
        _fail("--workers, --shard-*, --checkpoint and --resume-from apply "
              "only to the rd2 detector", EXIT_USAGE)
    prune_interval = _parse_prune_interval(args)
    if prune_interval and (args.detector != "rd2" or args.atomicity):
        _fail("--prune-interval applies only to the rd2 detector", EXIT_USAGE)
    if args.backend != "auto":
        if args.detector != "rd2" or args.atomicity:
            _fail("--backend applies only to the rd2 detector", EXIT_USAGE)
        if workers <= 1:
            _fail("--backend selects the shard fan-out transport; it "
                  "requires --workers > 1", EXIT_USAGE)
    if prune_interval and (checkpoint is not None or args.resume_from):
        # Phase-A prune-boundary snapshots are not part of the checkpoint
        # format; a resumed run would skip worker-side pruning and diverge
        # from the original's stats.
        _fail("--prune-interval cannot be combined with --checkpoint or "
              "--resume-from", EXIT_USAGE)
    predict_window = _parse_predict(args)
    if predict_window and (args.detector != "rd2" or args.atomicity):
        _fail("--predict applies only to the rd2 detector", EXIT_USAGE)
    if predict_window and (checkpoint is not None or args.resume_from):
        # Prediction replays the full stamped event log, which is not
        # part of the checkpoint format.
        _fail("--predict cannot be combined with --checkpoint or "
              "--resume-from", EXIT_USAGE)
    window = _parse_follow_window(args)
    follow_timeout = _parse_follow_timeout(args)
    if args.follow:
        if args.detector != "rd2" or args.atomicity:
            _fail("--follow applies only to the rd2 detector", EXIT_USAGE)
        if rd2_only:
            _fail("--follow is a sequential streaming mode; it cannot be "
                  "combined with --workers, --shard-*, --checkpoint or "
                  "--resume-from", EXIT_USAGE)
    elif window is not None or follow_timeout is not None:
        _fail("--window and --follow-timeout require --follow", EXIT_USAGE)

    want_obs = args.stats or args.stats_json or args.spans
    stream = SpanStream(args.spans) if args.spans else None
    # Offline analysis can afford exact attribution (sample every event);
    # the sampled default only matters for live runtime monitoring.
    obs = (Registry(sample_interval=1, stream=stream) if want_obs
           else NULL_REGISTRY)

    mode = "atomicity" if args.atomicity else args.detector
    meta_base = {"detector": mode, "workers": workers,
                 "trace": os.path.basename(args.trace)}
    if predict_window:
        # Conditional, like "faults": witnessed-mode reports stay on the
        # frozen schema byte for byte when --predict is off.
        meta_base["predict_window"] = predict_window
    faults: Optional[Dict[str, Any]] = None
    predicted: Optional[List[Any]] = None
    try:
        bindings = _parse_bindings(args.objects)
        if args.follow:
            code, events_total, predicted = _analyze_follow(
                args.trace, bindings, obs=obs,
                prune_interval=prune_interval,
                window=window if window is not None else 1024,
                idle_timeout=(follow_timeout if follow_timeout is not None
                              else 10.0),
                stats_json=args.stats_json, meta_base=meta_base,
                predict_window=predict_window)
        else:
            with obs.span("load"):
                trace = _load_trace_file(args.trace)
            events_total = len(trace)
            print(f"loaded {len(trace)} events "
                  f"({len(trace.actions())} actions, "
                  f"{len(trace.threads())} threads)")

            if args.atomicity:
                code, faults = _analyze_atomicity(trace, bindings, obs=obs)
            elif args.detector in ("rd2", "direct"):
                code, faults, predicted = _analyze_commutativity(
                    trace, bindings, args.detector, workers=workers, obs=obs,
                    supervisor=supervisor, checkpoint=checkpoint,
                    resume_from=args.resume_from,
                    prune_interval=prune_interval, backend=args.backend,
                    predict_window=predict_window)
            else:
                code, faults = _analyze_memory(trace, args.detector, obs=obs)
    except KeyboardInterrupt:
        # The shm round already tore its workers and rings down on the way
        # out (no orphans); the span stream is closed by the finally, so
        # partial --spans output stays valid JSONL.
        print("repro-analyze: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    finally:
        if stream is not None:
            stream.close()

    if faults and faults.get("counts"):
        total = sum(faults["counts"].values())
        summary = ", ".join(f"{kind}×{count}" for kind, count
                            in sorted(faults["counts"].items()))
        print(f"repro-analyze: tolerated {total} fault(s): {summary}",
              file=sys.stderr)

    if want_obs:
        report = build_report(obs, meta=dict(meta_base, events=events_total),
                              faults=faults)
        if predicted is not None:
            # Frozen-schema extension, conditional like "faults": present
            # only when --predict ran.
            report["predicted"] = [prediction.snapshot()
                                   for prediction in predicted]
        if args.stats_json:
            # Write-then-rename, like the periodic --follow snapshots: a
            # reader polling the report must never observe a half-written
            # file, least of all from the final rewrite on exit.
            tmp = f"{args.stats_json}.tmp"
            with open(tmp, "w", encoding="utf-8") as out:
                write_report(report, out)
            os.replace(tmp, args.stats_json)
        if args.stats:
            print(render_table(report), file=sys.stderr)
    return code


def _parse_supervisor(args):
    """Build a SupervisorConfig iff a supervision flag was given."""
    if args.shard_timeout is None and args.shard_retries is None:
        return None
    from .core.supervise import SupervisorConfig
    kwargs: Dict[str, Any] = {}
    if args.shard_timeout is not None:
        try:
            timeout = float(args.shard_timeout)
        except ValueError:
            _fail(f"--shard-timeout expects a number of seconds, got "
                  f"{args.shard_timeout!r}", EXIT_USAGE)
        if timeout <= 0:
            _fail(f"--shard-timeout must be > 0, got {timeout:g}", EXIT_USAGE)
        kwargs["shard_timeout"] = timeout
    if args.shard_retries is not None:
        try:
            retries = int(args.shard_retries)
        except ValueError:
            _fail(f"--shard-retries expects a non-negative integer, got "
                  f"{args.shard_retries!r}", EXIT_USAGE)
        if retries < 0:
            _fail(f"--shard-retries must be >= 0, got {retries}", EXIT_USAGE)
        kwargs["max_retries"] = retries
    return SupervisorConfig(**kwargs)


def _parse_checkpoint(args):
    """Build a CheckpointConfig iff --checkpoint was given.

    Wires in the fault harness's kill hook (``REPRO_CHECKPOINT_KILL_AFTER``)
    so resume tests can SIGKILL a real CLI run at an exact write.
    """
    try:
        interval = int(args.checkpoint_interval)
    except ValueError:
        interval = 0
    if interval < 1:
        _fail(f"--checkpoint-interval must be a positive integer, got "
              f"{args.checkpoint_interval!r}", EXIT_USAGE)
    if not args.checkpoint:
        return None
    from .core.checkpoint import CheckpointConfig
    from .testing.faults import checkpoint_kill_hook
    return CheckpointConfig(path=args.checkpoint, interval=interval,
                            after_write=checkpoint_kill_hook())


if __name__ == "__main__":
    raise SystemExit(main())
