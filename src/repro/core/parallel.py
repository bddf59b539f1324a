"""Sharded offline trace analysis: the two-phase HB/check pipeline.

Algorithm 1's per-event work factors into (a) a *global* happens-before
update — Table 1 bookkeeping that inherently serializes on the thread and
lock clocks — and (b) a *per-object* race check and state update: phases 1
and 2 touch only ``active(o)`` and the point clocks of the one object the
action invokes.  Two actions on distinct objects therefore never read or
write common detector state, so once every event carries its ``vc(e)``,
the per-object work can be replayed in any interleaving — in particular,
object-by-object on separate CPUs — without changing a single verdict.

:class:`ShardedDetector` exploits that factoring for offline analysis:

Phase A (sequential)
    One pass over the trace drives :class:`~repro.core.hb.
    HappensBeforeTracker`, stamping every event with ``vc(e)`` and
    bucketing each registered object's actions (in compact wire form, see
    :func:`~repro.core.events.pack_stamped_action`).

Phase B (parallel)
    Objects are partitioned into ``workers`` shards (greedy
    longest-processing-time on action counts, deterministic), and each
    shard replays its objects' stamped actions through an ordinary
    :class:`~repro.core.detector.CommutativityRaceDetector` via
    :meth:`~repro.core.detector.CommutativityRaceDetector.process_stamped`
    in one worker process per shard, fed through a shared-memory record
    ring (:mod:`repro.core.shmem`).  Race reports come back tagged with
    their trace index and are merged in stable event-index order; shard
    stats merge via :meth:`~repro.core.detector.DetectorStats.absorb`.

The merged ``races`` list is *identical* — report for report, in the same
order — to what the sequential detector produces on the same trace, and
the merged ``stats`` agree on every per-action counter (``events`` is
taken from the phase-A pass over the whole trace).  The differential
property suite in ``tests/integration/test_sharded_differential.py``
checks exactly that across randomized multi-object traces.

Both phases are fault-tolerant.  Phase B runs under a
:class:`~repro.core.supervise.ShardSupervisor` (timeouts, bounded retry,
in-process fallback — the identity guarantee above holds even when shard
workers crash, hang, or return unpicklable results), and phase A can
periodically checkpoint its state (:mod:`repro.core.checkpoint`) so a
killed run resumes via ``resume_from`` without restamping the prefix.
Every tolerated failure lands in :attr:`ShardedDetector.faults`.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pickle
import time
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .backend import BackendChoice, resolve_backend
from .checkpoint import (CHECKPOINT_VERSION, Checkpoint, CheckpointConfig,
                         CheckpointWriter, event_fingerprint, load_checkpoint)
from .detector import CommutativityRaceDetector, DetectorStats, Strategy
from .plan import compile_check_plan
from .errors import CheckpointError, MonitorError
from .events import (Action, Event, EventKind, ObjectId,
                     pack_stamped_action, unpack_stamped_action)
from .faults import FaultLog
from .hb import HappensBeforeTracker
from .races import CommutativityRace
from .shmem import (DEFAULT_RING_SLOTS, DEFAULT_SIDE_BYTES, RecordRing,
                    StampedDecoder, StampedEncoder, feed_shard)
from .supervise import ShardSupervisor, SupervisorConfig
from .vector_clock import Tid

__all__ = ["ShardedDetector", "ShmRounds", "partition_by_load"]


def partition_by_load(loads: Sequence[Tuple[ObjectId, int]],
                      shards: int) -> List[List[ObjectId]]:
    """Split objects into ``shards`` balanced groups, deterministically.

    Greedy longest-processing-time: objects sorted by descending load
    (ties broken by their position in ``loads``, i.e. first-touch order)
    are assigned to the currently lightest shard (ties to the lowest shard
    index).  Empty shards are dropped, so at most ``len(loads)`` groups
    come back.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    order = sorted(range(len(loads)), key=lambda i: (-loads[i][1], i))
    bins: List[List[ObjectId]] = [[] for _ in range(shards)]
    weights = [0] * shards
    for i in order:
        obj, load = loads[i]
        target = min(range(shards), key=lambda b: (weights[b], b))
        bins[target].append(obj)
        weights[target] += load
    return [group for group in bins if group]


# One shard's inputs: detector knobs plus, per object, the registration
# (representation, per-object strategy, pre-compiled check plan) and the
# object's stamped actions.  ``obs_interval`` is None when observability
# is off; otherwise the worker builds its own registry (sampling at that
# interval) and ships it back for the merge.  Plans are compiled once in
# the facade and shipped, not recompiled per shard; pickle memoization
# dedups the plan's references into the representation riding alongside.
# ``prune_snaps`` are the phase-A prune boundaries: ``(trace index of the
# triggering action, live-thread clocks at that moment)`` — what a shard
# worker needs to prune exactly where (and with exactly the clocks) the
# sequential detector's ``prune_interval`` counter would.
_ShardPayload = Tuple[bool, Strategy, bool, Optional[int], bool,
                      List[Tuple[int, List[Any]]],
                      List[Tuple[ObjectId, Any, Optional[Strategy], Any,
                                 List[Tuple[Any, ...]]]]]


def _analyze_shard(payload: _ShardPayload):
    """The shard function: replay each object's stamped actions.

    Every path runs this one function — the inline path, the supervisor's
    in-process fallback and the shm worker process; only the carrier of
    the stamped actions differs (lists in-process, ring sections in a
    worker).  Returns ``(triples, stats, obs)`` where each triple is
    ``(event_index, seq_within_event, race)`` — actions touch exactly one
    object, so per-object replay preserves the sequential within-event
    report order, and sorting the merged triples by ``(index, seq)``
    reconstructs the sequential global order exactly.  ``obs`` is the
    shard's metric registry (None with observability off); the facade
    absorbs it next to the shard's stats, so per-object and per-method-
    pair attribution survives the fan-out.

    When the facade neither keeps reports nor has an ``on_race`` callback
    (``need_reports`` false), races are only counted: shipping tens of
    thousands of report objects back over the pipe would dominate the
    fan-out's cost for report-dense traces, mirroring why the sequential
    detector grew ``keep_reports=False`` for long benchmark runs.
    """
    (adaptive, strategy, need_reports, obs_interval, compiled,
     prune_snaps, objects) = payload
    obs = None
    if obs_interval is not None:
        from ..obs.registry import Registry
        obs = Registry(sample_interval=obs_interval)
    detector = CommutativityRaceDetector(strategy=strategy, adaptive=adaptive,
                                         keep_reports=False, obs=obs,
                                         compiled=compiled)
    for obj, representation, obj_strategy, plan, _ in objects:
        detector.register_object(obj, representation, obj_strategy, plan=plan)
    triples = _replay_stamped(detector, obs, need_reports, prune_snaps,
                              ((obj, packed_actions)
                               for obj, _, _, _, packed_actions in objects))
    return triples, detector.stats, obs


def _replay_stamped(detector, obs, need_reports, prune_snaps,
                    streams) -> List[Tuple[int, int, CommutativityRace]]:
    """Replay per-object stamped-action streams through Algorithm 1.

    ``streams`` yields ``(obj, iterable_of_packed_actions)`` — a list per
    object in-process, a live ring section in a shm worker; the replay is
    oblivious to which, so every path runs the *identical* code and stays
    byte-identical by construction.  Returns the races as ``(trace index,
    seq, race)`` triples, the merge format (empty unless ``need_reports``).
    """
    triples: List[Tuple[int, int, CommutativityRace]] = []
    # One reusable Event shell per shard: the detector reads (and the race
    # reports capture) only the per-iteration action/tid/clock values, so
    # rebuilding the carrier dataclass per event is avoidable overhead.
    shell = unpack_stamped_action(None, (0, 0, "", (), (), None))
    stats = detector.stats
    snap_count = len(prune_snaps)
    replay_start = perf_counter_ns() if obs is not None else 0
    for obj, packed_actions in streams:
        # The sequential detector prunes *all* objects after the action at
        # each boundary index; this object's state at that moment is fully
        # determined by its own actions with index <= boundary, so
        # applying each snapshot between the surrounding actions replays
        # the sequential prune (and its stats) exactly.
        snap_at = 0
        for packed in packed_actions:
            index, shell.tid, method, args, returns, shell.clock = packed
            while snap_at < snap_count and prune_snaps[snap_at][0] < index:
                detector.prune_object_with_clocks(
                    obj, prune_snaps[snap_at][1])
                snap_at += 1
            shell.action = Action(obj, method, args, returns)
            shell.index = index
            stats.events += 1
            if obs is not None:
                detector._obs_advance()
            found = detector._process_action(shell, shell.clock)
            if found and need_reports:
                triples.extend((index, seq, race)
                               for seq, race in enumerate(found))
        while snap_at < snap_count:
            detector.prune_object_with_clocks(obj, prune_snaps[snap_at][1])
            snap_at += 1
    if obs is not None:
        # One exact span per shard: merged, the "shard" timer sums replay
        # CPU time across shards (vs. the facade's "fanout" wall clock).
        obs.timer("shard").record(perf_counter_ns() - replay_start)
    return triples


def _shard_job(index: int, payload: _ShardPayload, attempt: int):
    """Supervised-worker adapter: ignores the supervision bookkeeping.

    The supervisor's worker contract is ``worker(index, payload, attempt)``
    so retries are distinguishable (and so the fault harness can key on
    shard and attempt); the shard computation itself depends only on the
    payload — every attempt, in a worker or inline, replays identically.
    """
    return _analyze_shard(payload)


# -- the shm transport --------------------------------------------------------

def _ring_section(streams, position: int):
    """One object's actions, read off the ring once first advanced.

    Sections must be consumed in ring order, each to its end before the
    next — exactly what :func:`_replay_stamped` does.
    """
    at, actions = next(streams)
    if at != position:
        raise ValueError(f"ring section {at} arrived where {position} "
                         f"was expected")
    yield from actions


def _shm_child(worker, index: int, attempt: int, ring_name: str,
               head_blob: bytes, conn) -> None:
    """Process target of the shm transport: one supervised shard job.

    Rebuilds the shard payload from the pickled head (knobs plus
    registrations) and the ring (one section of stamped actions per
    object), runs ``worker(index, payload, attempt)`` — the supervisor's
    worker, fault wrapping included — then drains whatever the worker left unread up
    to the ring's END record.  The result (or a classified failure) goes
    back over ``conn`` as ``("ok", result)`` / ``("error", kind, detail)``.
    """
    try:
        ring = RecordRing.attach(ring_name)
        try:
            streams = StampedDecoder(ring).streams()
            head = pickle.loads(head_blob)
            payload = head[:6] + ([
                registration + (_ring_section(streams, position),)
                for position, registration in enumerate(head[6])],)
            result = worker(index, payload, attempt)
            for _ in streams:
                pass
        finally:
            ring.close()
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("error", "result-unpicklable",
                       f"{type(exc).__name__}: {exc}"))
    except Exception as exc:
        try:
            conn.send(("error", "worker-raised",
                       f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _ShmJob:
    """Parent-side state for one in-flight shm job."""

    __slots__ = ("index", "attempt", "ring", "conn", "proc", "encoder",
                 "feeder", "failure")

    def __init__(self, index, attempt, ring):
        self.index = index
        self.attempt = attempt
        self.ring = ring
        self.conn = None
        self.proc = None
        self.encoder = None
        self.feeder = None
        self.failure = None

    def fail(self, kind: str, detail: str, retryable: bool) -> None:
        self.failure = (self.index, self.attempt, kind, detail, retryable)


class ShmRounds:
    """The shm transport, as a :class:`~repro.core.supervise.ShardSupervisor`
    round runner.

    Each job gets a private record ring and a worker process running
    :func:`_shm_child`; the parent round-robins the sections' encoding
    across all rings (a full ring yields the CPU to other jobs, then to
    the consumer) and collects results over a pipe.  Payloads are shard
    payloads: each object's stamped actions stream through the ring, and
    only the *head* — the knobs plus the registrations — is pickled, once
    per job index, and reused verbatim on retry.  Call as
    ``runner(worker, payloads, jobs, results)``; returns the round's
    failures.
    """

    def __init__(self, config: SupervisorConfig,
                 mp_context: Optional[str] = None, obs=None,
                 ring_slots: Optional[int] = None,
                 ring_side_bytes: Optional[int] = None):
        self._config = config
        self._ctx = multiprocessing.get_context(mp_context)
        self._obs = obs if (obs is not None and obs.enabled) else None
        self._ring_slots = ring_slots or DEFAULT_RING_SLOTS
        self._ring_side_bytes = ring_side_bytes or DEFAULT_SIDE_BYTES
        self._heads: Dict[int, Tuple[bytes, List[Any]]] = {}
        self._hwm = 0

    def _head(self, index: int, payload) -> Tuple[bytes, List[Any]]:
        cached = self._heads.get(index)
        obs = self._obs
        if cached is not None:
            if obs is not None:
                obs.add("shard_payload_reuse")
            return cached
        start = perf_counter_ns()
        objects = payload[6]
        blob = pickle.dumps(payload[:6] + ([entry[:4] for entry in objects],),
                            protocol=pickle.HIGHEST_PROTOCOL)
        sections = [entry[4] for entry in objects]
        if obs is not None:
            obs.add("ipc_bytes_pickled", len(blob))
            obs.timer("ipc_serialize").record(perf_counter_ns() - start)
        self._heads[index] = (blob, sections)
        return blob, sections

    def __call__(self, worker, payloads, jobs, results):
        config = self._config
        ctx = self._ctx
        obs = self._obs
        failures = []
        states: List[_ShmJob] = []
        encode_ns = 0
        try:
            for index, attempt in jobs:
                try:
                    blob, sections = self._head(index, payloads[index])
                except Exception as exc:
                    # Deterministic, so never retried: the in-process
                    # fallback needs no pickling.
                    failures.append((index, attempt, "task-unpicklable",
                                     f"{type(exc).__name__}: {exc}", False))
                    continue
                job = _ShmJob(index, attempt,
                              RecordRing.create(self._ring_slots,
                                                self._ring_side_bytes))
                # Tracked from the moment the segment exists, so the
                # finally below unlinks it whatever fails next.
                states.append(job)
                job.conn, send_conn = ctx.Pipe(duplex=False)
                try:
                    proc = ctx.Process(
                        target=_shm_child,
                        args=(worker, index, attempt, job.ring.name, blob,
                              send_conn),
                        daemon=True)
                    proc.start()
                finally:
                    send_conn.close()
                job.proc = proc
                job.encoder = StampedEncoder(job.ring)
                job.feeder = feed_shard(job.encoder, sections)
            deadline = (time.monotonic() + config.shard_timeout
                        if config.shard_timeout is not None else None)
            # Feed phase: interleave all jobs' encodes; a blocked ring
            # never busy-waits while another job could progress.
            active = list(states)
            while active:
                if deadline is not None and time.monotonic() > deadline:
                    for job in active:
                        job.fail("timeout",
                                 f"ring not drained within "
                                 f"{config.shard_timeout:g}s "
                                 f"(stalled worker)", True)
                    break
                progressed = False
                for job in list(active):
                    start = perf_counter_ns()
                    try:
                        step = next(job.feeder)
                    except StopIteration:
                        step = None
                    encode_ns += perf_counter_ns() - start
                    occupancy = job.ring.occupancy_bytes()
                    if occupancy > self._hwm:
                        self._hwm = occupancy
                    if step is None:
                        active.remove(job)
                        progressed = True
                    elif step:
                        progressed = True
                    elif not job.proc.is_alive():
                        # Dead consumer: stop feeding; the collect phase
                        # reads its (possibly classified) last words.
                        active.remove(job)
                if not progressed and active:
                    time.sleep(0.0005)
            # Collect phase.
            for job in states:
                if job.failure is None:
                    remaining = (max(0.0, deadline - time.monotonic())
                                 if deadline is not None else None)
                    try:
                        msg = (job.conn.recv() if job.conn.poll(remaining)
                               else None)
                    except (EOFError, OSError):
                        # The pipe closed without a word: the worker died.
                        job.proc.join(1.0)
                        msg = ("error", "worker-raised",
                               f"shard worker died "
                               f"(exitcode {job.proc.exitcode})")
                    if msg is None:
                        job.fail("timeout",
                                 f"no result within "
                                 f"{config.shard_timeout:g}s "
                                 f"(hung worker)", True)
                    elif msg[0] == "ok":
                        results[job.index] = msg[1]
                    else:
                        _, kind, detail = msg
                        job.fail(kind, detail, kind != "result-unpicklable")
                if job.failure is not None:
                    failures.append(job.failure)
        finally:
            for job in states:
                if job.proc is not None:
                    if job.proc.is_alive():
                        job.proc.terminate()
                    job.proc.join()
                if job.conn is not None:
                    job.conn.close()
                job.ring.close()
                job.ring.unlink()
            if obs is not None:
                obs.add("shm_bytes_written",
                        sum(job.encoder.bytes_written for job in states
                            if job.encoder is not None))
                obs.timer("shm_encode").record(encode_ns)
                obs.gauge("shm_ring_hwm", self._hwm)
        return failures


class ShardedDetector:
    """Offline commutativity race detection, fanned out by object shard.

    Mirrors :class:`~repro.core.detector.CommutativityRaceDetector`'s
    offline API (``register_object`` / ``release_object`` / ``run`` /
    ``races`` / ``stats``) but requires the whole trace up front — there is
    no single-event ``process``, because the happens-before pass must
    complete before per-object work can be distributed.

    Parameters
    ----------
    root:
        Thread id of the initial thread.
    strategy / adaptive / keep_reports / on_race:
        As for the sequential detector; ``on_race`` fires during the merge,
        in stable event-index order.
    workers:
        Shard count for phase B, one worker process each.  ``None`` uses
        the machine's CPU count; ``0`` or ``1`` runs the shard work inline
        (no subprocesses, but the same pack/replay/merge pipeline — handy
        for tests and for unpicklable custom representations).
    mp_context:
        Optional ``multiprocessing`` start-method name (``"fork"``,
        ``"spawn"``...); default lets the platform choose.
    obs:
        Optional :class:`~repro.obs.registry.Registry`.  The facade times
        the pipeline's phases exactly (``stamp`` = phase A, ``fanout`` =
        phase B wall clock, ``merge``); each worker builds a private
        registry (per-object and per-method-pair attribution plus a
        per-shard ``shard`` replay span) that is shipped back with the
        shard's stats and absorbed here, alongside the existing
        ``DetectorStats.absorb`` merge.
    supervise / supervisor:
        With ``supervise`` (the default) phase B runs under a
        :class:`~repro.core.supervise.ShardSupervisor` — per-shard
        timeout, bounded retry, in-process fallback — configured by the
        optional ``supervisor`` :class:`SupervisorConfig`.
        ``supervise=False`` runs one bare shm round instead and raises
        :class:`~repro.core.errors.MonitorError` on any shard failure (the
        overhead gate in ``bench/parallel_scaling.py`` compares the two).
    checkpoint:
        Optional :class:`~repro.core.checkpoint.CheckpointConfig`; phase A
        then snapshots its state every ``interval`` events so a killed run
        can resume.
    resume_from:
        Optional path to a checkpoint written by a previous run over the
        same trace and registrations.  A checkpoint that fails any
        validity check is *rejected, not fatal*: the rejection is recorded
        in :attr:`faults` and the run restamps from the beginning.
    compiled:
        As for the sequential detector.  Check plans are compiled once at
        registration in this facade and shipped inside the shard payloads,
        so workers skip recompilation.
    prune_interval:
        As for the sequential detector: every N actions, reclaim active
        points (and their interned entries) that are ordered before every
        live thread.  Phase A records the live-thread clocks at each
        boundary and ships them to the shard workers, which apply them
        between the surrounding actions — verdicts, ``points_pruned`` and
        ``interned_points_evicted`` all match the sequential detector's.
        Not combinable with ``checkpoint``/``resume_from`` (the boundary
        snapshots are not checkpointed).
    backend:
        Phase-B transport request, ``"auto"`` (the default) or ``"shm"``:
        stamped actions stream through per-shard
        ``multiprocessing.shared_memory`` record rings to one worker
        process per shard, and only the per-worker registrations/knobs
        are pickled, once.  On a host without shared memory the shards
        replay in-process instead — the outcome, with its reason, is in
        :attr:`backend`, a :class:`~repro.core.backend.BackendChoice`.
        Both produce byte-identical merged reports.
    ring_slots / ring_side_bytes:
        shm backend ring geometry (records per ring / side-region bytes);
        defaults suit typical shards.  A full ring blocks the producer
        (and interleaves other shards' feeds), never drops records.
    predict_window:
        When > 0, a predictive pass (:mod:`repro.core.predict`) runs
        after the merge: per-object candidate pairs fan out over the
        same greedy load split as phase B (thread pool — candidate
        resolution is pure Python over the shared immutable dependence
        index) and validated predictions land in :attr:`predicted`,
        sorted by original-index pair so every backend and worker count
        agrees byte for byte.  Incompatible with checkpoint/resume
        (the event log prediction needs is not part of the checkpoint
        format).
    """

    def __init__(
        self,
        root: Tid = 0,
        strategy: Strategy = Strategy.AUTO,
        on_race: Optional[Callable[[CommutativityRace], None]] = None,
        keep_reports: bool = True,
        adaptive: bool = True,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        obs=None,
        supervise: bool = True,
        supervisor: Optional[SupervisorConfig] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        resume_from: Optional[str] = None,
        compiled: bool = True,
        prune_interval: int = 0,
        backend: str = "auto",
        ring_slots: Optional[int] = None,
        ring_side_bytes: Optional[int] = None,
        predict_window: int = 0,
    ):
        if predict_window < 0:
            raise MonitorError(
                f"predict_window must be >= 0, got {predict_window}")
        if prune_interval and (checkpoint is not None
                               or resume_from is not None):
            raise MonitorError(
                "prune_interval cannot be combined with checkpointing: "
                "phase-A prune-boundary snapshots are not part of the "
                "checkpoint format, so a resumed run would prune "
                "differently than the run it resumes")
        if predict_window and (checkpoint is not None
                               or resume_from is not None):
            raise MonitorError(
                "predict_window cannot be combined with checkpointing: "
                "prediction needs the full stamped event log, which is "
                "not part of the checkpoint format")
        self._root = root
        self._prune_interval = prune_interval
        self._prune_snaps: List[Tuple[int, List[Any]]] = []
        self._strategy = strategy
        self._on_race = on_race
        self._keep_reports = keep_reports
        self._adaptive = adaptive
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.workers = multiprocessing.cpu_count() if workers is None else workers
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._mp_context = mp_context
        self._supervise = supervise
        self._supervisor_config = supervisor
        self._checkpoint = checkpoint
        self._resume_from = resume_from
        self._compiled = compiled
        #: Resolved execution backend for phase B (request, selection,
        #: fallback reason) — resolved eagerly so callers can log the
        #: outcome before the first run.
        self.backend: BackendChoice = resolve_backend(backend)
        self._ring_slots = ring_slots or DEFAULT_RING_SLOTS
        self._ring_side_bytes = ring_side_bytes or DEFAULT_SIDE_BYTES
        self._registrations: Dict[
            ObjectId, Tuple[Any, Optional[Strategy], Any]] = {}
        self._hb: Optional[HappensBeforeTracker] = None
        self.races: List[CommutativityRace] = []
        self.stats = DetectorStats()
        self._predict_window = predict_window
        #: Validated predictive races from the most recent :meth:`run`
        #: (``predict_window > 0``), sorted by original-index pair.
        self.predicted: List = []
        #: Tolerated failures from the most recent :meth:`run` (shard
        #: supervision and checkpoint rejection; cleared per run).
        self.faults = FaultLog()

    # -- object lifecycle ------------------------------------------------------

    def register_object(self, obj: ObjectId, representation,
                        strategy: Optional[Strategy] = None) -> None:
        """Attach an access point representation to a shared object."""
        if obj in self._registrations:
            raise MonitorError(f"object {obj!r} registered twice")
        # Worker processes receive registrations in their pickled init
        # payload; in-process replay never pickles them.
        if self.workers > 1 and self.backend.selected == "shm":
            try:
                pickle.dumps(representation)
            except Exception as exc:
                raise MonitorError(
                    f"object {obj!r}: representation {representation!r} is "
                    f"not picklable, so it cannot be shipped to worker "
                    f"processes; use workers<=1 (inline sharding) or the "
                    f"sequential CommutativityRaceDetector") from exc
        # Compile the ENUMERATE fast path once, here in the facade: every
        # worker receives the finished plan in its payload instead of
        # re-deriving it per shard (per-object strategy resolution mirrors
        # CommutativityRaceDetector.register_object).
        plan = None
        if self._compiled:
            chosen = strategy or self._strategy
            if chosen is Strategy.AUTO:
                chosen = (Strategy.ENUMERATE if representation.bounded
                          else Strategy.SCAN)
            if chosen is Strategy.ENUMERATE:
                plan = compile_check_plan(representation)
        self._registrations[obj] = (representation, strategy, plan)

    def release_object(self, obj: ObjectId) -> None:
        """Drop a registration before analysis (mirrors the sequential API)."""
        self._registrations.pop(obj, None)

    def registered_objects(self):
        return self._registrations.keys()

    # -- the two-phase pipeline ------------------------------------------------

    def run(self, events) -> List[CommutativityRace]:
        """Analyze a whole trace; returns (and stores) the merged reports.

        Re-running replaces ``races`` and ``stats`` — each call analyzes
        one complete trace, like a fresh sequential detector would.
        """
        self.faults.clear()
        self.predicted = []
        if self._predict_window:
            # Phase A stamps events in place; keep the stamped list so
            # the post-merge predictive pass can replay it.
            events = list(events)
        obs = self._obs
        if obs is None:
            groups, total_events = self._stamp_and_partition(events)
            results = self._fan_out(groups)
            self._merge(results, total_events)
            if self._predict_window:
                self._run_predict(events)
            return self.races
        with obs.span("stamp"):
            groups, total_events = self._stamp_and_partition(events)
        obs.gauge("hb_threads", len(self._hb.known_threads()))
        obs.gauge("hb_locks", len(self._hb.known_locks()))
        with obs.span("fanout"):
            results = self._fan_out(groups)
        obs.gauge("shards", len(results))
        with obs.span("merge"):
            self._merge(results, total_events)
        if self._predict_window:
            with obs.span("predict"):
                self._run_predict(events)
        return self.races

    def _run_predict(self, stamped_events) -> None:
        """Post-merge predictive pass, sharded like phase B.

        The dependence index is built once, sequentially (it is cheap —
        one pass over the already-stamped events); candidate resolution
        is the expensive part (closures + witness replays), so *that*
        fans out per object over the phase-B greedy load split.  Worker
        counters come back as local dicts — the obs registry is not
        thread-safe — and merge here.
        """
        from concurrent.futures import ThreadPoolExecutor
        from .predict import Predictor
        predictor = Predictor(
            {obj: registration[0]
             for obj, registration in self._registrations.items()},
            window=self._predict_window, root=self._root, obs=self._obs)
        predictor.feed_many(stamped_events)
        loads = predictor.pending_loads()
        shard_count = min(self.workers or 1, len(loads)) or 1
        results: List = []
        if shard_count <= 1:
            outcome, counts = predictor.process_objects(
                [obj for obj, _ in loads])
            results.extend(outcome)
            predictor.absorb_counts(counts)
        else:
            shards = partition_by_load(loads, shard_count)
            with ThreadPoolExecutor(max_workers=shard_count) as pool:
                futures = [pool.submit(predictor.process_objects, shard)
                           for shard in shards if shard]
                for future in futures:
                    outcome, counts = future.result()
                    results.extend(outcome)
                    predictor.absorb_counts(counts)
        results.sort(key=lambda prediction: prediction.pair)
        self.predicted = results

    # Phase A: one sequential happens-before pass over the full trace.
    def _stamp_and_partition(self, events):
        writer = (CheckpointWriter(self._checkpoint)
                  if self._checkpoint is not None else None)
        resumed = None
        if self._resume_from is not None:
            # Resume validation reads the trace prefix and may still have
            # to restart from event zero, so it needs a re-iterable trace.
            if not isinstance(events, (list, tuple)):
                events = list(events)
            resumed = self._try_resume(events)
        if resumed is not None:
            snapshot, hasher = resumed
            self._hb = snapshot.hb
            groups = snapshot.groups
            start = snapshot.next_index
        else:
            self._hb = HappensBeforeTracker(root=self._root)
            groups = {obj: [] for obj in self._registrations}
            start = 0
            hasher = hashlib.sha256() if writer is not None else None
        total = start
        iterator = (itertools.islice(iter(events), start, None)
                    if start else iter(events))
        # Prune boundaries: the sequential detector counts *actions* (all
        # ACTION events, registered or not) and prunes after every
        # interval-th one; record that action's trace index and the live
        # clocks at that instant for the shard workers.  clock_of()
        # freezes, so the snapshots cannot be corrupted by later stamping.
        interval = self._prune_interval
        snaps: List[Tuple[int, List[Any]]] = []
        self._prune_snaps = snaps
        actions_seen = 0
        if writer is None:
            for index, event in enumerate(iterator, start):
                clock = self._hb.observe(event)
                total += 1
                if event.kind is EventKind.ACTION:
                    bucket = groups.get(event.action.obj)
                    if bucket is not None:
                        bucket.append(pack_stamped_action(event, index, clock))
                    if interval:
                        actions_seen += 1
                        if actions_seen >= interval:
                            actions_seen = 0
                            snaps.append((index, [
                                self._hb.clock_of(tid)
                                for tid in self._hb.live_threads()]))
            return groups, total
        for index, event in enumerate(iterator, start):
            clock = self._hb.observe(event)
            total += 1
            if event.kind is EventKind.ACTION:
                bucket = groups.get(event.action.obj)
                if bucket is not None:
                    bucket.append(pack_stamped_action(event, index, clock))
            hasher.update(event_fingerprint(event))
            stamped = index + 1
            if writer.maybe_write(stamped, lambda: Checkpoint(
                    version=CHECKPOINT_VERSION, root=self._root,
                    next_index=stamped, prefix_digest=hasher.hexdigest(),
                    objects=self._registration_ids(), hb=self._hb,
                    groups=groups)):
                if self._obs is not None:
                    self._obs.add("checkpoint_writes")
        return groups, total

    def _registration_ids(self) -> List[str]:
        """Canonical registered-object identity list for checkpoint guards."""
        return sorted(repr(obj) for obj in self._registrations)

    def _try_resume(self, events):
        """Load and validate ``resume_from``; ``(Checkpoint, hasher)`` or None.

        Every defect — unreadable/corrupt file, version skew, different
        root or registrations, or a trace whose stamped prefix does not
        reproduce the checkpoint's fingerprint digest — degrades to a full
        restamp, recorded as a ``checkpoint/rejected`` fault.  On success
        the returned hasher has absorbed the verified prefix, so
        checkpoint writing can continue the same running digest.
        """
        try:
            snapshot = load_checkpoint(self._resume_from)
            if snapshot.root != self._root:
                raise CheckpointError(
                    f"checkpoint was taken with root thread "
                    f"{snapshot.root!r}, this run uses {self._root!r}")
            if snapshot.objects != self._registration_ids():
                raise CheckpointError(
                    "checkpoint was taken with a different set of "
                    "registered objects")
            if snapshot.next_index > len(events):
                raise CheckpointError(
                    f"checkpoint is ahead of this trace "
                    f"({snapshot.next_index} stamped events, trace has "
                    f"{len(events)})")
            hasher = hashlib.sha256()
            for event in itertools.islice(iter(events), snapshot.next_index):
                hasher.update(event_fingerprint(event))
            if hasher.hexdigest() != snapshot.prefix_digest:
                raise CheckpointError(
                    "trace prefix does not match the checkpoint's "
                    "fingerprint digest (different or modified trace)")
        except CheckpointError as exc:
            self.faults.record(site="checkpoint", kind="rejected",
                               detail=str(exc))
            if self._obs is not None:
                self._obs.add("checkpoint_rejected")
                self._obs.count_in("faults_by_kind", "checkpoint/rejected")
            return None
        if self._obs is not None:
            self._obs.add("checkpoint_resumes")
        return snapshot, hasher

    # Phase B: shard the objects and fan the per-object replay out.
    def _payloads(self, groups: Dict[ObjectId, List[Tuple[Any, ...]]]
                  ) -> List[_ShardPayload]:
        loads = [(obj, len(bucket)) for obj, bucket in groups.items()]
        shard_count = max(1, min(self.workers, len(loads)))
        need_reports = self._keep_reports or self._on_race is not None
        obs_interval = (self._obs.sample_interval
                        if self._obs is not None else None)
        payloads = []
        for shard_objs in partition_by_load(loads, shard_count):
            objects = [(obj,) + self._registrations[obj] + (groups[obj],)
                       for obj in shard_objs]
            payloads.append((self._adaptive, self._strategy, need_reports,
                             obs_interval, self._compiled,
                             self._prune_snaps, objects))
        return payloads

    def _fan_out(self, groups: Dict[ObjectId, List[Tuple[Any, ...]]]):
        payloads = self._payloads(groups)
        if (self.workers <= 1 or len(payloads) <= 1
                or self.backend.selected != "shm"):
            return [_analyze_shard(payload) for payload in payloads]
        config = self._supervisor_config or SupervisorConfig()
        runner = ShmRounds(config, mp_context=self._mp_context, obs=self._obs,
                           ring_slots=self._ring_slots,
                           ring_side_bytes=self._ring_side_bytes)
        if self._supervise:
            supervisor = ShardSupervisor(_shard_job, config=config,
                                         obs=self._obs, faults=self.faults)
            return supervisor.run_rounds(payloads, runner)
        # Unsupervised reference (the supervisor-overhead gate's baseline):
        # one bare shm round, and any shard failure takes the run down.
        results: Dict[int, Any] = {}
        failures = runner(_shard_job, payloads,
                          [(index, 0) for index in range(len(payloads))],
                          results)
        if failures:
            index, _, kind, detail, _ = failures[0]
            raise MonitorError(f"shard {index} failed without supervision "
                               f"({kind}): {detail}")
        return [results[index] for index in range(len(payloads))]

    # Merge: stable event-index order, summed counters.
    def _merge(self, results, total_events: int) -> None:
        self.stats = DetectorStats()
        triples: List[Tuple[int, int, CommutativityRace]] = []
        for shard_triples, shard_stats, shard_obs in results:
            triples.extend(shard_triples)
            self.stats.absorb(shard_stats)
            if shard_obs is not None and self._obs is not None:
                self._obs.absorb(shard_obs)
        # Workers count only their shard's events; the trace-wide total
        # comes from the phase-A pass (sync events included, once).
        self.stats.events = total_events
        triples.sort(key=lambda t: (t[0], t[1]))
        merged = [race for _, _, race in triples]
        self.races = merged if self._keep_reports else []
        if self._on_race is not None:
            for race in merged:
                self._on_race(race)

    # -- convenience -----------------------------------------------------------

    @property
    def happens_before(self) -> HappensBeforeTracker:
        """The phase-A happens-before state (available after :meth:`run`)."""
        if self._hb is None:
            raise MonitorError("run() has not been called yet")
        return self._hb
