#!/usr/bin/env python
"""Parallel scaling: throughput of the two-phase sharded analyzer.

Generates a synthetic multi-object trace (default 100k events: dictionary
shards under put/get/size churn from several unordered threads), runs the
sequential :class:`CommutativityRaceDetector` as the baseline, then the
:class:`ShardedDetector` at increasing worker counts, and reports
events/second plus speedup over the sequential pass.  The differential
guarantee is asserted on the way: every configuration must report the
same number of races and conflict checks.

The pipeline's phase A (the happens-before pass) is inherently
sequential, so Amdahl bounds the speedup by the phase-B share of the
sequential runtime — the report prints that share so the measured
scaling can be judged against the ceiling.  On a single-CPU container the
pool configurations show overhead, not speedup; run on >=4 cores to see
the paper-style scaling (>=1.8x at 4 workers is typical, since phase B
dominates at realistic object counts).

``--smoke`` runs a scaled-down sweep plus the CI smoke job's gates (each
fails the run with exit 1 on a breach): two 5%-overhead-budget gates —
the *observability overhead gate* (detector timed with metrics disabled
vs. the sampled registry enabled) and the *supervisor overhead gate*
(the shm fan-out timed with shard supervision on vs. one bare
unsupervised shm round, on the fault-free path) — plus the *hot-path
gate*: the detector (check plans + interned points + CoW stamping) must
be >=1.3x a bench-local replay of the seed detector end-to-end, and
copy-on-write stamping >=1.5x the copying freeze on the Phase-A
microbench.

``--hotpath`` runs the hot-path microbench suite on its own (stamping,
end-to-end detector, golden-trace corpus replay, and the PR 7
epoch-adaptive leg) and writes the machine-readable results to
``BENCH_PR4.json`` / ``BENCH_PR7.json`` (see ``--hotpath-json`` /
``--epoch-json``).  The epoch leg compares the full-vector-clock
detector against epoch-adaptive clocks, both per event, on a
wide-clock, mostly-thread-local workload and is gated at >=3.0x.
It then runs the PR 9 *backend fan-out leg*: the shm transport vs. a
pickle baseline — a bench-local ``multiprocessing.Pool.map`` of the
shard function over the same payloads — end to end at 8 workers on a
wide-clock butterfly workload, gated at >=2.0x and recorded in
``BENCH_PR9.json`` (see ``--backend-json``) next to the sequential
detector's time on the same trace (reported, not gated).  ``--ipc``
prints the same workload's transport story — bytes on the wire and
serialization seconds for pickle and shm.

Run:  PYTHONPATH=src python bench/parallel_scaling.py [--events N]
          [--objects K] [--threads T] [--workers 1,2,4]
      PYTHONPATH=src python bench/parallel_scaling.py --smoke
      PYTHONPATH=src python bench/parallel_scaling.py --hotpath
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import pathlib
import pickle
import random
import time

from repro.core.detector import CommutativityRaceDetector
from repro.core.events import EventKind
from repro.core.hb import HappensBeforeTracker
from repro.core.parallel import ShardedDetector, _analyze_shard
from repro.core.races import CommutativityRace
from repro.core.serialize import load_trace
from repro.core.trace import TraceBuilder
from repro.core.vector_clock import MutableVectorClock, VectorClock
from repro.obs import Registry, build_report, write_report
from repro.specs import bundled_objects
from repro.specs.dictionary import dictionary_representation

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def synthetic_trace(events: int, objects: int, threads: int, seed: int = 0,
                    keys: int = 64, lock_rate: float = 0.05):
    """A put/get/size workload spread over ``objects`` dictionaries.

    Returns come from a per-object shadow dict, so the trace is a
    consistent execution.  ``keys`` sizes each object's key space and
    ``lock_rate`` the fraction of operations done under a shared lock —
    together they set the race density (smaller key space, less locking:
    more races).
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    shadow = [dict() for _ in range(objects)]
    from repro.core.events import NIL
    budget = events - threads  # forks already emitted
    for _ in range(budget):
        tid = rng.choice(worker_tids)
        index = rng.randrange(objects)
        obj = f"d{index}"
        locked = rng.random() < lock_rate
        if locked:
            builder.acquire(tid, "L")
        roll = rng.random()
        if roll < 0.6:
            key = f"k{rng.randrange(keys)}"
            value = rng.randrange(8)
            prev = shadow[index].get(key, NIL)
            shadow[index][key] = value
            builder.invoke(tid, obj, "put", key, value, returns=prev)
        elif roll < 0.9:
            key = f"k{rng.randrange(keys)}"
            builder.invoke(tid, obj, "get", key,
                           returns=shadow[index].get(key, NIL))
        else:
            size = sum(1 for v in shadow[index].values() if v is not NIL)
            builder.invoke(tid, obj, "size", returns=size)
        if locked:
            builder.release(tid, "L")
    return builder.build(stamp=False)


def register_all(detector, objects: int):
    for index in range(objects):
        detector.register_object(f"d{index}", dictionary_representation())
    return detector


def timed_run(detector, trace):
    start = time.perf_counter()
    detector.run(trace)
    return time.perf_counter() - start


def overhead_gate(trace, objects: int, repeats: int = 12,
                  threshold: float = 0.05) -> bool:
    """Time the detector with obs off vs. sampled obs on; gate at 5%.

    One warmup run of each mode first (the first runs after startup pay
    allocator growth and code warmup that would otherwise be charged to
    whichever mode goes first), then the modes alternate and the
    best-of-``repeats`` wall times are compared, so slow outliers and
    machine drift don't decide the verdict.
    """
    def run_once(obs):
        detector = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False, obs=obs),
            objects)
        return timed_run(detector, trace)

    def measure(rounds):
        run_once(None), run_once(Registry())        # warmup, discarded
        off, on = [], []
        for _ in range(rounds):
            off.append(run_once(None))
            on.append(run_once(Registry()))
        return min(on) / min(off) - 1.0, min(off), min(on)

    overhead, best_off, best_on = measure(repeats)
    if overhead > threshold:
        # One noise spike shouldn't fail CI: confirm with a longer rerun.
        print(f"\nobservability overhead gate: {overhead:+.1%} over a "
              f"{threshold:.0%} budget on the first attempt; re-measuring")
        overhead, best_off, best_on = measure(2 * repeats)
    verdict = "PASS" if overhead <= threshold else "FAIL"
    print(f"\nobservability overhead gate: disabled {best_off:.3f}s, "
          f"enabled {best_on:.3f}s -> {overhead:+.1%} "
          f"(budget {threshold:.0%}) [{verdict}]")
    return overhead <= threshold


def supervisor_overhead_gate(trace, objects: int, workers: int = 2,
                             repeats: int = 5,
                             threshold: float = 0.05) -> bool:
    """Time the shm fan-out with supervision on vs. off; gate at 5%.

    ``supervise=False`` runs one bare shm round; supervision wraps the
    same round in fault accounting, retry bookkeeping and the fallback
    check, which on the fault-free path must be noise, not a tax.  Worker
    startup dominates these runs (and is identical in both modes), so
    fewer repeats suffice than for the in-process observability gate; the
    same warmup / alternate / best-of-N / re-measure discipline applies.
    """
    def run_once(supervise):
        detector = register_all(
            ShardedDetector(root=0, workers=workers, keep_reports=False,
                            supervise=supervise),
            objects)
        return timed_run(detector, trace)

    def measure(rounds):
        run_once(False), run_once(True)             # warmup, discarded
        bare, supervised = [], []
        for _ in range(rounds):
            bare.append(run_once(False))
            supervised.append(run_once(True))
        return min(supervised) / min(bare) - 1.0, min(bare), min(supervised)

    overhead, best_bare, best_sup = measure(repeats)
    if overhead > threshold:
        print(f"\nsupervisor overhead gate: {overhead:+.1%} over a "
              f"{threshold:.0%} budget on the first attempt; re-measuring")
        overhead, best_bare, best_sup = measure(2 * repeats)
    verdict = "PASS" if overhead <= threshold else "FAIL"
    print(f"\nsupervisor overhead gate ({workers} workers): unsupervised "
          f"shm {best_bare:.3f}s, supervised {best_sup:.3f}s -> "
          f"{overhead:+.1%} "
          f"(budget {threshold:.0%}) [{verdict}]")
    return overhead <= threshold


# -- streaming memory gate (PR 5) -------------------------------------------


def phased_trace(events: int, objects: int = 8, threads: int = 8,
                 phases: int = 20, seed: int = 0, keys: int = 16):
    """A joinall-heavy workload: fork/churn/join-all phases, fresh every time.

    Each phase forks ``threads`` *new* tids, churns put/get/size over the
    shared objects with *phase-scoped* keys, then joins everything back
    into the root.  Once a phase's threads are joined, all of its access
    points are ordered before every live thread — so a pruning analyzer's
    footprint is one phase, while an unpruned one accumulates all of
    them: dead points, dead threads' clocks, and (the PR 4 leak) one
    interned ``(schema, value)`` entry per phase-scoped key it ever saw.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    from repro.core.events import NIL
    churn = max(1, events // phases - 2 * threads)
    next_tid = 1
    emitted = 0
    phase = 0
    while emitted < events:
        tids = list(range(next_tid, next_tid + threads))
        next_tid += threads
        for tid in tids:
            builder.fork(0, tid)
        shadow = [dict() for _ in range(objects)]
        for _ in range(min(churn, max(1, events - emitted - 2 * threads))):
            tid = rng.choice(tids)
            index = rng.randrange(objects)
            obj = f"d{index}"
            key = f"p{phase}k{rng.randrange(keys)}"
            roll = rng.random()
            if roll < 0.6:
                value = rng.randrange(8)
                prev = shadow[index].get(key, NIL)
                shadow[index][key] = value
                builder.invoke(tid, obj, "put", key, value, returns=prev)
            elif roll < 0.9:
                builder.invoke(tid, obj, "get", key,
                               returns=shadow[index].get(key, NIL))
            else:
                size = sum(1 for v in shadow[index].values() if v is not NIL)
                builder.invoke(tid, obj, "size", returns=size)
        for tid in tids:
            builder.join(0, tid)
        emitted += 2 * threads + churn
        phase += 1
    return builder.build(stamp=False)


def streaming_memory_gate(events: int = 200_000, objects: int = 8,
                          threads: int = 8, phases: int = 20, seed: int = 0,
                          prune_interval: int = 256, window: int = 512,
                          max_ratio: float = 0.10) -> bool:
    """Bounded-memory gate: streaming peak footprint vs. unpruned total.

    Runs the phased joinall workload twice — batch with pruning off, then
    :class:`~repro.core.stream.StreamAnalyzer` with pruning/eviction on —
    and requires the streaming peak (active + interned points, sampled at
    every maintenance window) to stay under ``max_ratio`` of the unpruned
    final count.  Race verdicts are asserted identical first, so the gate
    cannot pass by dropping work.
    """
    from repro.core.stream import StreamAnalyzer

    print(f"\nstreaming memory gate: {events} events, {phases} fork/join "
          f"phases over {objects} objects ...")
    trace = phased_trace(events, objects=objects, threads=threads,
                         phases=phases, seed=seed)
    baseline = register_all(
        CommutativityRaceDetector(root=0, keep_reports=False), objects)
    baseline.run(trace)
    unpruned = (baseline.active_point_count()
                + baseline.interned_point_count())

    analyzer = register_all(
        StreamAnalyzer(root=0, keep_reports=False,
                       prune_interval=prune_interval, window=window),
        objects)
    analyzer.run(trace)
    assert analyzer.stats.races == baseline.stats.races, (
        f"verdict drift under streaming: {analyzer.stats.races} != "
        f"{baseline.stats.races}")

    peak = analyzer.peak_active + analyzer.peak_interned
    ratio = peak / unpruned if unpruned else 0.0
    verdict = "PASS" if ratio < max_ratio else "FAIL"
    print(f"  unpruned final footprint: "
          f"{baseline.active_point_count()} active + "
          f"{baseline.interned_point_count()} interned = {unpruned} points")
    print(f"  streaming peak footprint: {analyzer.peak_active} active + "
          f"{analyzer.peak_interned} interned = {peak} points "
          f"({analyzer.stats.points_pruned} pruned, "
          f"{analyzer.stats.interned_points_evicted} evicted, "
          f"{analyzer.threads_retired} threads retired)")
    print(f"streaming memory gate: {ratio:.1%} of unpruned "
          f"(budget {max_ratio:.0%}) [{verdict}]")
    return ratio < max_ratio


# -- hot-path microbench (PR 4) ---------------------------------------------


def _seed_stamp_next(self, tid):
    """The pre-CoW per-event stamp: advance, then copy the whole dict.

    Monkeypatched over ``MutableVectorClock.stamp_next`` for the seed
    baselines of the hot-path benchmarks.  The guarded invalidation keeps
    the CoW bookkeeping of the *other* operations (fork/join/acq/rel still
    run the real handlers) consistent, so verdicts are unchanged.
    """
    entries = self._entries
    entries[tid] = entries.get(tid, 0) + 1
    if self._base is not None:
        self._invalidate()
    return VectorClock._trusted(dict(entries))


@contextlib.contextmanager
def _seed_stamping():
    """Run the enclosed block under the seed's always-copy stamping."""
    saved = MutableVectorClock.stamp_next
    MutableVectorClock.stamp_next = _seed_stamp_next
    try:
        yield
    finally:
        MutableVectorClock.stamp_next = saved


def _interleaved_best(run_fast, run_seed, repeats: int):
    """Warm both modes up once, then alternate and keep best-of-N times.

    The same discipline as the overhead gates: interleaving means machine
    drift hits both modes alike, and the minimum discards GC/scheduler
    outliers.
    """
    run_fast(), run_seed()                          # warmup, discarded
    fast, seed = [], []
    for _ in range(repeats):
        fast.append(run_fast())
        seed.append(run_seed())
    return min(fast), min(seed)


def stamping_bench(events: int, threads: int, seed: int = 0,
                   repeats: int = 5) -> dict:
    """Phase-A stamping alone: copy-on-write freeze vs. per-event copy.

    Runs just the happens-before tracker over a synthetic trace — the
    sequential Phase A of the sharded pipeline is exactly this loop — and
    compares the fused CoW ``stamp_next`` against the seed's
    advance-then-copy-the-dict stamp.
    """
    trace = synthetic_trace(events, objects=4, threads=threads, seed=seed)

    def observe_all():
        tracker = HappensBeforeTracker(root=trace.root)
        start = time.perf_counter()
        for event in trace:
            tracker.observe(event)
        return time.perf_counter() - start

    def run_seed():
        with _seed_stamping():
            return observe_all()

    best_cow, best_seed = _interleaved_best(observe_all, run_seed, repeats)
    return {
        "events": len(trace),
        "threads": threads,
        "cow_seconds": best_cow,
        "seed_seconds": best_seed,
        "cow_events_per_s": len(trace) / best_cow,
        "seed_events_per_s": len(trace) / best_seed,
        "speedup": best_seed / best_cow,
    }


def seed_replay(trace, representations) -> tuple:
    """The seed detector, replayed bench-locally: the hot-path baseline.

    Algorithm 1 the way the seed ran it: a happens-before tracker (run
    it under :func:`_seed_stamping` for the seed's copying stamp), ηo
    through ``rep.points_of`` and ``Co(pt)`` through the
    ``rep.conflicting_candidates`` generator on every action, and plain
    ``VectorClock.leq``/``join`` point clocks.  Races are built and
    dropped, as a detector with ``keep_reports=False`` does.  Returns
    ``(races, conflict_checks)`` so each leg can assert both sides did
    the same work before any timing counts.
    """
    tracker = HappensBeforeTracker(root=trace.root)
    point_clocks = {obj: {} for obj in representations}
    races = checks = 0
    for event in trace:
        clock = tracker.observe(event)
        if event.kind is not EventKind.ACTION:
            continue
        action = event.action
        rep = representations.get(action.obj)
        if rep is None:
            continue
        clocks = point_clocks[action.obj]
        points = rep.points_of(action)
        for pt in points:
            for candidate in rep.conflicting_candidates(pt):
                checks += 1
                prior = clocks.get(candidate)
                if prior is not None and not prior.leq(clock):
                    CommutativityRace(
                        obj=action.obj, current=action, current_clock=clock,
                        current_tid=event.tid, point=pt,
                        prior_point=candidate, prior_clock=prior)
                    races += 1
        for pt in points:
            prior = clocks.get(pt)
            clocks[pt] = clock if prior is None else prior.join(clock)
    return races, checks


def timed_seed_replay(trace, representations) -> tuple:
    """``(seconds, (races, conflict_checks))`` of one seed replay."""
    with _seed_stamping():
        start = time.perf_counter()
        verdict = seed_replay(trace, representations)
        return time.perf_counter() - start, verdict


def detector_bench(trace, objects: int, repeats: int = 5) -> dict:
    """End-to-end detector throughput against the seed replay.

    The detector runs check plans + interned access points + CoW
    stamping (the default); the baseline is :func:`seed_replay` under
    the seed's copying stamp.  Race and conflict-check counts are
    asserted equal before any timing counts.
    """
    representations = {f"d{index}": dictionary_representation()
                       for index in range(objects)}

    def run_once():
        # adaptive is pinned off so this leg keeps measuring exactly the
        # PR 4 delta (plan compilation + interning + CoW stamping) now
        # that epoch-adaptive clocks are the constructor default; the
        # epoch win has its own leg and gate (epoch_bench).
        detector = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False,
                                      adaptive=False),
            objects)
        return timed_run(detector, trace), detector

    _, fast = run_once()
    got = (fast.stats.races, fast.stats.conflict_checks)
    _, want = timed_seed_replay(trace, representations)
    assert got == want, f"verdict drift against the seed: {got} != {want}"

    best_fast, best_seed = _interleaved_best(
        lambda: run_once()[0],
        lambda: timed_seed_replay(trace, representations)[0], repeats)
    return {
        "events": len(trace),
        "objects": objects,
        "races": fast.stats.races,
        "compiled_seconds": best_fast,
        "seed_seconds": best_seed,
        "compiled_events_per_s": len(trace) / best_fast,
        "seed_events_per_s": len(trace) / best_seed,
        "speedup": best_seed / best_fast,
    }


def golden_corpus_bench(repeats: int = 5, passes: int = 20) -> dict:
    """Replay the frozen golden traces (``tests/data``) both ways.

    The traces are small, so each timed run replays the whole corpus
    ``passes`` times.  Race and check counts are asserted identical
    between the detector and the seed replay before timing (the
    byte-level report identity is the test suite's job; the bench only
    needs to not time a lie).
    """
    registry = bundled_objects()
    cases = []
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        expected_path = GOLDEN_DIR / "expected" / f"{path.stem}.json"
        with open(expected_path, encoding="utf-8") as stream:
            bindings = json.load(stream)["bindings"]
        with open(path, encoding="utf-8") as stream:
            trace = load_trace(stream)
        cases.append((path.stem, trace, bindings))
    if not cases:
        raise SystemExit(f"no golden traces found under {GOLDEN_DIR}")
    events_per_pass = sum(len(trace) for _, trace, _ in cases)

    # Time only the replay itself: the corpus traces are tiny, so
    # detector construction and plan compilation (both once-per-object
    # setup, not per-event work) would otherwise swamp the hot path.
    def replay_detector():
        verdicts = []
        total = 0.0
        for _ in range(passes):
            verdicts.clear()
            for _, trace, bindings in cases:
                # adaptive pinned off for the same reason as detector_bench:
                # this leg times the PR 4 delta in isolation.
                detector = CommutativityRaceDetector(
                    root=trace.root, keep_reports=False, adaptive=False)
                for obj, kind in bindings.items():
                    detector.register_object(
                        obj, registry[kind].representation())
                start = time.perf_counter()
                detector.run(trace)
                total += time.perf_counter() - start
                verdicts.append((detector.stats.races,
                                 detector.stats.conflict_checks))
        return total, verdicts

    def replay_seed():
        verdicts = []
        total = 0.0
        for _ in range(passes):
            verdicts.clear()
            for _, trace, bindings in cases:
                representations = {obj: registry[kind].representation()
                                   for obj, kind in bindings.items()}
                seconds, verdict = timed_seed_replay(trace, representations)
                total += seconds
                verdicts.append(verdict)
        return total, verdicts

    _, fast_verdicts = replay_detector()
    _, seed_verdicts = replay_seed()
    assert fast_verdicts == seed_verdicts, (
        "verdict drift on the golden corpus: "
        f"{fast_verdicts} != {seed_verdicts}")

    best_fast, best_seed = _interleaved_best(
        lambda: replay_detector()[0], lambda: replay_seed()[0], repeats)
    total = events_per_pass * passes
    return {
        "traces": [name for name, _, _ in cases],
        "events_per_pass": events_per_pass,
        "passes": passes,
        "compiled_seconds": best_fast,
        "seed_seconds": best_seed,
        "compiled_events_per_s": total / best_fast,
        "seed_events_per_s": total / best_seed,
        "speedup": best_seed / best_fast,
    }


# -- epoch-adaptive leg (PR 7) -----------------------------------------------


def contended_trace(events: int, objects: int = 8, threads: int = 64,
                    seed: int = 0, keys: int = 2, lock_rate: float = 0.05,
                    shared_share: float = 0.02, put_share: float = 0.9):
    """Thread-partitioned keys under a shared lock: the epoch sweet spot.

    Every thread owns a private slice of each object's key space and only
    ``shared_share`` of its operations stray into a common pool, so most
    access points are only ever touched (or re-touched in order) by one
    thread — exactly what an epoch certificate covers.  The shared lock,
    taken on ``lock_rate`` of the operations, meanwhile mixes every
    thread's component into every other thread's clock, so the
    full-vector-clock mode pays O(threads) per phase-2 join and per
    phase-1 candidate comparison where the epoch mode pays O(1).  This is
    the realistic shape the paper's Section 6 workloads have: wide clocks,
    mostly thread-local data, occasional genuine sharing (the unlocked
    shared-pool touches keep real races — and promotions — in the trace).
    ``put_share`` skews the mix toward writes, whose conflict degree is 2
    (w conflicts with r and w), doubling the phase-1 comparisons the
    full-VC mode pays per action.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(root=0)
    worker_tids = list(range(1, threads + 1))
    for tid in worker_tids:
        builder.fork(0, tid)
    shadow = [dict() for _ in range(objects)]
    from repro.core.events import NIL
    budget = events - threads  # forks already emitted
    for _ in range(budget):
        tid = rng.choice(worker_tids)
        index = rng.randrange(objects)
        obj = f"d{index}"
        locked = rng.random() < lock_rate
        if locked:
            builder.acquire(tid, "L")
        if rng.random() < shared_share:
            key = f"s{rng.randrange(keys)}"
        else:
            key = f"t{tid}k{rng.randrange(keys)}"
        if rng.random() < put_share:
            value = rng.randrange(8)
            prev = shadow[index].get(key, NIL)
            shadow[index][key] = value
            builder.invoke(tid, obj, "put", key, value, returns=prev)
        else:
            builder.invoke(tid, obj, "get", key,
                           returns=shadow[index].get(key, NIL))
        if locked:
            builder.release(tid, "L")
    return builder.build(stamp=False)


def epoch_bench(trace, objects: int, threads: int,
                repeats: int = 5) -> dict:
    """Epoch-adaptive clocks vs. the PR 4 hot path, both per event.

    Both sides run the detector's one check loop; the baseline pins
    ``adaptive=False`` (exactly the configuration the PR 4 gate froze)
    and the candidate runs epochs.  Race and conflict-check counts are
    asserted identical before any timing counts — the speedup cannot
    come from dropping work.
    """
    def run_once(adaptive):
        detector = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False,
                                      adaptive=adaptive),
            objects)
        return timed_run(detector, trace), detector

    _, fast = run_once(True)
    _, slow = run_once(False)
    got = (fast.stats.races, fast.stats.conflict_checks)
    want = (slow.stats.races, slow.stats.conflict_checks)
    assert got == want, f"verdict drift on epoch path: {got} != {want}"

    best_fast, best_base = _interleaved_best(
        lambda: run_once(True)[0], lambda: run_once(False)[0], repeats)
    return {
        "events": len(trace),
        "objects": objects,
        "threads": threads,
        "races": fast.stats.races,
        "epoch_promotions": fast.stats.epoch_promotions,
        "epoch_seconds": best_fast,
        "fullvc_seconds": best_base,
        "epoch_events_per_s": len(trace) / best_fast,
        "fullvc_events_per_s": len(trace) / best_base,
        "speedup": best_base / best_fast,
    }


def hotpath_suite(events: int, objects: int, threads: int, seed: int = 0,
                  repeats: int = 5, corpus_passes: int = 20) -> dict:
    """All four hot-path legs; returns the machine-readable result dict."""
    trace = synthetic_trace(events, objects, threads, seed)
    # The epoch leg pins its own workload shape (64 threads, thread-local
    # keys, write-heavy) regardless of the sweep arguments: wide clocks
    # are what make the O(threads)-vs-O(1) delta the story, and the run
    # must be long enough that per-event costs, not one-off interning,
    # decide the ratio — hence the 100k-event floor even in smoke mode
    # (trace generation is a one-off outside the timers).
    epoch_threads = 64
    epoch_trace = contended_trace(max(events, 100_000), objects=8,
                                  threads=epoch_threads, seed=seed)
    return {
        "benchmark": "hotpath",
        "config": {"events": events, "objects": objects, "threads": threads,
                   "seed": seed, "repeats": repeats,
                   "corpus_passes": corpus_passes},
        # The stamping leg has the same floor rationale: 100k events so
        # startup noise can't decide it.
        "stamping": stamping_bench(max(events, 100_000),
                                   threads=max(threads, 16),
                                   seed=seed, repeats=repeats),
        "detector": detector_bench(trace, objects, repeats=repeats),
        "golden_corpus": golden_corpus_bench(repeats=repeats,
                                             passes=corpus_passes),
        "epoch": epoch_bench(epoch_trace, 8, epoch_threads,
                             repeats=repeats),
    }


def hotpath_gate(events: int, objects: int, threads: int, seed: int = 0,
                 repeats: int = 5, corpus_passes: int = 20,
                 json_path: str | None = None,
                 epoch_json_path: str | None = None,
                 stamping_min: float = 1.5,
                 detector_min: float = 1.3,
                 epoch_min: float = 3.0) -> bool:
    """Run the suite, print it, gate on the speedup floors, write the JSON.

    Floors (from the PR acceptance criteria): CoW stamping must be
    >=1.5x the seed stamp on the Phase-A microbench, the detector
    >=1.3x the bench-local seed replay end-to-end (both PR 4), and the
    epoch-adaptive detector >=3.0x the full-vector-clock detector
    on the contended workload (PR 7).  As with the overhead gates, a
    first-attempt breach triggers one longer re-measurement before the
    verdict sticks.
    """
    def passed(results):
        return (results["stamping"]["speedup"] >= stamping_min
                and results["detector"]["speedup"] >= detector_min
                and results["epoch"]["speedup"] >= epoch_min)

    results = hotpath_suite(events, objects, threads, seed,
                            repeats=repeats, corpus_passes=corpus_passes)
    if not passed(results):
        print(f"\nhot-path gate: stamping {results['stamping']['speedup']:.2f}x "
              f"/ detector {results['detector']['speedup']:.2f}x "
              f"/ epochs {results['epoch']['speedup']:.2f}x below "
              f"the {stamping_min:.1f}x/{detector_min:.1f}x/{epoch_min:.1f}x "
              f"floors on the first attempt; re-measuring")
        results = hotpath_suite(events, objects, threads, seed,
                                repeats=2 * repeats,
                                corpus_passes=corpus_passes)
    ok = passed(results)
    results["gates"] = {
        "stamping_min": stamping_min,
        "detector_min": detector_min,
        "epoch_min": epoch_min,
        "pass": ok,
    }

    stamping, detector, corpus = (results["stamping"], results["detector"],
                                  results["golden_corpus"])
    epoch = results["epoch"]
    print("\nhot-path microbench (interleaved, best of "
          f"{results['config']['repeats']})")
    print(f"  stamping   ({stamping['threads']} threads): "
          f"CoW {stamping['cow_events_per_s']:>9.0f} ev/s, "
          f"seed {stamping['seed_events_per_s']:>9.0f} ev/s -> "
          f"{stamping['speedup']:.2f}x (floor {stamping_min:.1f}x)")
    print(f"  detector   ({detector['objects']} objects): "
          f"compiled {detector['compiled_events_per_s']:>9.0f} ev/s, "
          f"seed {detector['seed_events_per_s']:>9.0f} ev/s -> "
          f"{detector['speedup']:.2f}x (floor {detector_min:.1f}x)")
    print(f"  golden corpus ({len(corpus['traces'])} traces): "
          f"compiled {corpus['compiled_events_per_s']:>9.0f} ev/s, "
          f"seed {corpus['seed_events_per_s']:>9.0f} ev/s -> "
          f"{corpus['speedup']:.2f}x")
    print(f"  epochs     ({epoch['threads']} threads): "
          f"epochs {epoch['epoch_events_per_s']:>9.0f} ev/s, "
          f"full VC {epoch['fullvc_events_per_s']:>9.0f} ev/s -> "
          f"{epoch['speedup']:.2f}x (floor {epoch_min:.1f}x, "
          f"{epoch['epoch_promotions']} promotions)")
    print(f"hot-path gate: [{'PASS' if ok else 'FAIL'}]")

    if json_path:
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(results, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"hot-path results written to {json_path}")
    if epoch_json_path:
        # The PR 7 record stands alone: the epoch leg plus its gate, in
        # the same machine-readable shape as the PR 4 file.
        pr7 = {
            "benchmark": "epoch",
            "config": results["config"],
            "epoch": epoch,
            "gates": {"epoch_min": epoch_min,
                      "pass": epoch["speedup"] >= epoch_min},
        }
        with open(epoch_json_path, "w", encoding="utf-8") as out:
            json.dump(pr7, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"epoch results written to {epoch_json_path}")
    return ok


# -- predictive overhead leg (PR 10) -----------------------------------------


def predict_overhead_gate(repeats: int = 5, passes: int = 10,
                          predict_window: int = 64,
                          max_ratio: float = 2.0,
                          json_path: str | None = None) -> bool:
    """Predictive overhead on the golden corpus, gated at < ``max_ratio``.

    Replays the frozen golden traces witnessed-only and with
    ``predict_window`` set, interleaved best-of-N; the predictive run
    (candidate closures + witness scheduling + validation replays) must
    stay under ``max_ratio`` times the witnessed-only wall time.
    Witnessed verdicts are asserted identical between the modes first —
    the contract says prediction only *adds* — so the gate cannot pass
    by dropping work.  A first-attempt breach triggers one longer
    re-measurement before the verdict sticks.
    """
    registry = bundled_objects()
    cases = []
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        expected_path = GOLDEN_DIR / "expected" / f"{path.stem}.json"
        with open(expected_path, encoding="utf-8") as stream:
            bindings = json.load(stream)["bindings"]
        with open(path, encoding="utf-8") as stream:
            trace = load_trace(stream)
        cases.append((path.stem, trace, bindings))
    if not cases:
        raise SystemExit(f"no golden traces found under {GOLDEN_DIR}")
    events_per_pass = sum(len(trace) for _, trace, _ in cases)

    def replay_all(window):
        verdicts = []
        predictions = 0
        total = 0.0
        for _ in range(passes):
            verdicts.clear()
            predictions = 0
            for _, trace, bindings in cases:
                detector = CommutativityRaceDetector(
                    root=trace.root, predict_window=window)
                for obj, kind in bindings.items():
                    detector.register_object(
                        obj, registry[kind].representation())
                start = time.perf_counter()
                detector.run(trace)
                total += time.perf_counter() - start
                verdicts.append((detector.stats.races,
                                 detector.stats.conflict_checks))
                predictions += len(detector.predicted)
        return total, verdicts, predictions

    print(f"\npredictive overhead gate: {len(cases)} golden traces, "
          f"{events_per_pass} events/pass x {passes} passes, "
          f"window {predict_window} ...")
    _, plain_verdicts, _ = replay_all(0)
    _, predict_verdicts, predicted = replay_all(predict_window)
    assert predict_verdicts == plain_verdicts, (
        "witnessed verdict drift under prediction: "
        f"{predict_verdicts} != {plain_verdicts}")

    def measure(rounds):
        best_plain, best_predict = _interleaved_best(
            lambda: replay_all(0)[0],
            lambda: replay_all(predict_window)[0], rounds)
        return best_plain, best_predict, best_predict / best_plain

    best_plain, best_predict, ratio = measure(repeats)
    if ratio >= max_ratio:
        print(f"  predictive overhead {ratio:.2f}x over the "
              f"{max_ratio:.1f}x budget on the first attempt; re-measuring")
        best_plain, best_predict, ratio = measure(2 * repeats)
    ok = ratio < max_ratio

    print(f"  witnessed-only: {best_plain:.3f}s "
          f"({events_per_pass * passes / best_plain:,.0f} ev/s)")
    print(f"  predictive:     {best_predict:.3f}s "
          f"({events_per_pass * passes / best_predict:,.0f} ev/s, "
          f"{predicted} predicted race(s)/pass)")
    print(f"predictive overhead gate: {ratio:.2f}x of witnessed-only "
          f"(budget {max_ratio:.1f}x) [{'PASS' if ok else 'FAIL'}]")

    if json_path:
        record = {
            "benchmark": "predict_overhead",
            "config": {"traces": [name for name, _, _ in cases],
                       "events_per_pass": events_per_pass,
                       "passes": passes,
                       "predict_window": predict_window,
                       "repeats": repeats},
            "witnessed_seconds": best_plain,
            "predict_seconds": best_predict,
            "predicted_per_pass": predicted,
            "ratio": ratio,
            "gates": {"max_ratio": max_ratio, "pass": ok},
        }
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"predictive results written to {json_path}")
    return ok


# -- shared-memory transport fan-out leg (PR 9) ------------------------------


def fanout_trace(events: int, objects: int = 8, threads: int = 768,
                 put_share: float = 0.9, seed: int = 0):
    """Wide-clock fan-out workload: butterfly mixing, then lock-free churn.

    A hypercube gossip prologue (``log2(threads)`` rounds of pairwise
    lock handoffs — concurrent pairs, never a total order, so the
    epoch-adaptive stamping cannot collapse the clocks) leaves every
    thread with a full-width vector clock.  The churn phase then runs
    sync-free put/get rounds on thread-private keys: each stamped action
    carries an O(threads) clock but opens no new synchronization window.
    This is the shape that separates the transports — pickling
    re-serializes the wide clock mapping on every single action,
    while the shm rings ship each clock base once per shard and stream
    8-byte stamps after that.
    """
    builder = TraceBuilder(root=0)
    tids = list(range(1, threads + 1))
    for tid in tids:
        builder.fork(0, tid)
    rounds = max(1, (threads - 1).bit_length())
    for r in range(rounds):
        step = 1 << r
        for i in range(threads):
            j = i ^ step
            if j >= threads or i > j:
                continue
            lock = f"m{r}.{i}"
            a, b = tids[i], tids[j]
            builder.acquire(a, lock)
            builder.release(a, lock)
            builder.acquire(b, lock)      # b inherits a's clock
            builder.release(b, lock)
            builder.acquire(a, lock)      # a inherits b's in return
            builder.release(a, lock)
    from repro.core.events import NIL
    rng = random.Random(seed)
    shadow: dict = {}
    for n in range(events):
        tid = tids[n % threads]
        obj = f"d{n % objects}"
        key = f"t{tid}"
        if rng.random() < put_share:
            builder.invoke(tid, obj, "put", key, n, returns=NIL)
            shadow[(obj, key)] = n
        else:
            builder.invoke(tid, obj, "get", key,
                           returns=shadow.get((obj, key), NIL))
    return builder.build(stamp=False)


class PoolMapBaseline(ShardedDetector):
    """The pickle transport, unsupervised: phase B as one
    ``multiprocessing.Pool.map`` of the shard function over the very
    payloads the shm transport ships.

    Every stamped action and its O(threads) clock is pickled across the
    pipe.  An instrumented run also pickles each payload once up front to
    report its wire size and serialization time; timed runs (obs off) pay
    only the pool's own pickling.
    """

    def _fan_out(self, groups):
        payloads = self._payloads(groups)
        if self._obs is not None:
            for payload in payloads:
                start = time.perf_counter_ns()
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                self._obs.add("ipc_bytes_pickled", len(blob))
                self._obs.timer("ipc_serialize").record(
                    time.perf_counter_ns() - start)
        with multiprocessing.get_context().Pool(len(payloads)) as pool:
            return pool.map(_analyze_shard, payloads)


def backend_fanout_bench(events: int = 60_000, objects: int = 8,
                         threads: int = 768, workers: int = 8,
                         repeats: int = 2, seed: int = 0) -> dict:
    """End-to-end pickle ``Pool.map`` vs. shm vs. sequential on the
    8-worker fan-out workload.

    Each sharded mode's warmup run carries an exact-sampling obs
    registry, so the IPC story (bytes on the wire, serialization seconds)
    comes out of the same suite without ever instrumenting a timed run.
    Verdicts are asserted identical across all three modes before any
    time is believed.
    """
    trace = fanout_trace(events, objects=objects, threads=threads, seed=seed)
    factories = {
        "pickle": lambda obs: PoolMapBaseline(
            root=0, workers=workers, keep_reports=False, obs=obs),
        "shm": lambda obs: ShardedDetector(
            root=0, workers=workers, keep_reports=False, obs=obs),
        "sequential": lambda obs: CommutativityRaceDetector(
            root=0, keep_reports=False, obs=obs),
    }

    def run_once(mode, obs=None):
        detector = register_all(factories[mode](obs), objects)
        return timed_run(detector, trace), detector

    ipc: dict = {}
    verdicts = {}

    def instrumented(mode):
        obs = Registry(sample_interval=1)
        seconds, detector = run_once(mode, obs=obs)
        snap = obs.snapshot()
        counters, timers = snap["counters"], snap["timers"]
        ipc[mode] = {
            "ipc_bytes_pickled": counters.get("ipc_bytes_pickled", 0),
            "shm_bytes_written": counters.get("shm_bytes_written", 0),
            "serialize_seconds": round(
                timers.get("ipc_serialize", {}).get("total_ns", 0) / 1e9, 4),
            "shm_encode_seconds": round(
                timers.get("shm_encode", {}).get("total_ns", 0) / 1e9, 4),
            "shm_ring_hwm": snap["gauges"].get("shm_ring_hwm", 0),
        }
        verdicts[mode] = (detector.stats.races,
                          detector.stats.conflict_checks)
        return detector

    # Warmup (discarded, doubles as the IPC measurement), then alternate.
    shm_detector = instrumented("shm")
    instrumented("pickle")
    sequential = register_all(factories["sequential"](None), objects)
    sequential.run(trace)
    verdicts["sequential"] = (sequential.stats.races,
                              sequential.stats.conflict_checks)
    assert verdicts["pickle"] == verdicts["shm"] == verdicts["sequential"], (
        f"verdict drift between modes: {verdicts}")
    times: dict = {mode: [] for mode in factories}
    for _ in range(repeats):
        for mode in factories:
            times[mode].append(run_once(mode)[0])
    best = {mode: min(samples) for mode, samples in times.items()}
    return {
        "events": len(trace),
        "churn_events": events,
        "objects": objects,
        "threads": threads,
        "workers": workers,
        "repeats": repeats,
        "selected": {"pickle": "pool-map",
                     "shm": shm_detector.backend.selected},
        "races": verdicts["shm"][0],
        "pickle_seconds": best["pickle"],
        "shm_seconds": best["shm"],
        "sequential_seconds": best["sequential"],
        "pickle_events_per_s": len(trace) / best["pickle"],
        "shm_events_per_s": len(trace) / best["shm"],
        "ipc": ipc,
        "speedup": best["pickle"] / best["shm"],
        "shm_vs_sequential": best["sequential"] / best["shm"],
    }


def backend_gate(events: int = 60_000, objects: int = 8, threads: int = 768,
                 workers: int = 8, repeats: int = 2, seed: int = 0,
                 fanout_min: float = 2.0,
                 json_path: str | None = "BENCH_PR9.json") -> bool:
    """The PR 9 acceptance gate: shm >=2x a pickle ``Pool.map``, end to
    end, 8 workers.

    Skips (passing, recorded as skipped) when the host cannot create
    shared memory at all — the shm side would silently replay in-process.
    A first-attempt breach triggers one longer re-measurement before the
    verdict sticks, mirroring the other gates.  ``shm_vs_sequential`` is
    reported next to it, not gated.
    """
    from repro.core.backend import shm_available
    if not shm_available():
        print("backend fan-out gate: [SKIP] no shared memory on this host")
        if json_path:
            record = {"benchmark": "backend_fanout",
                      "skipped": "no shared memory on this host"}
            with open(json_path, "w", encoding="utf-8") as out:
                json.dump(record, out, indent=2, sort_keys=True)
                out.write("\n")
        return True

    results = backend_fanout_bench(events, objects, threads, workers,
                                   repeats=repeats, seed=seed)
    if results["speedup"] < fanout_min:
        print(f"\nbackend fan-out gate: {results['speedup']:.2f}x below the "
              f"{fanout_min:.1f}x floor on the first attempt; re-measuring")
        results = backend_fanout_bench(events, objects, threads, workers,
                                       repeats=2 * repeats, seed=seed)
    ok = results["speedup"] >= fanout_min
    results["gates"] = {"fanout_min": fanout_min, "pass": ok}
    record = {"benchmark": "backend_fanout", "fanout": results,
              "gates": results.pop("gates")}

    ipc = results["ipc"]
    print(f"\nbackend fan-out ({results['threads']} threads, "
          f"{results['workers']} workers, {results['events']} events, "
          f"best of {results['repeats']})")
    print(f"  pickle Pool.map: {results['pickle_seconds']:>7.3f}s "
          f"{results['pickle_events_per_s']:>9.0f} ev/s  "
          f"({ipc['pickle']['ipc_bytes_pickled']:>11,} B pickled, "
          f"{ipc['pickle']['serialize_seconds']:.3f}s serialize)")
    print(f"  shm:             {results['shm_seconds']:>7.3f}s "
          f"{results['shm_events_per_s']:>9.0f} ev/s  "
          f"({ipc['shm']['shm_bytes_written']:>11,} B rings, "
          f"{ipc['shm']['ipc_bytes_pickled']:,} B init pickles)")
    print(f"  sequential:      {results['sequential_seconds']:>7.3f}s "
          f"(shm vs sequential {results['shm_vs_sequential']:.2f}x, "
          f"reported only)")
    print(f"  speedup: {results['speedup']:.2f}x (floor {fanout_min:.1f}x)")
    print(f"backend fan-out gate: [{'PASS' if ok else 'FAIL'}]")

    if json_path:
        with open(json_path, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"backend fan-out results written to {json_path}")
    return ok


def ipc_report(events: int = 60_000, objects: int = 8, threads: int = 768,
               workers: int = 8, seed: int = 0) -> None:
    """The ``--ipc`` leg: bytes on the wire and serialization seconds.

    One instrumented run per transport over the fan-out workload — the
    shm rings and the pickle ``Pool.map`` baseline — printed as a
    transport table: the IPC contract (init pickles stay constant, ring
    bytes carry the stream) stated in numbers.
    """
    results = backend_fanout_bench(events, objects, threads, workers,
                                   repeats=1, seed=seed)
    ipc = results["ipc"]
    header = (f"{'transport':>9} {'wall s':>8} {'pickled B':>12} "
              f"{'ring B':>12} {'serialize s':>12} {'encode s':>9}")
    print(f"\nIPC transport report ({results['events']} events, "
          f"{threads} threads, {workers} workers)")
    print(header)
    print("-" * len(header))
    for transport in ("pickle", "shm"):
        stats = ipc[transport]
        wall = results[f"{transport}_seconds"]
        print(f"{transport:>9} {wall:>8.3f} "
              f"{stats['ipc_bytes_pickled']:>12,} "
              f"{stats['shm_bytes_written']:>12,} "
              f"{stats['serialize_seconds']:>12.3f} "
              f"{stats['shm_encode_seconds']:>9.3f}")
    print(f"speedup: {results['speedup']:.2f}x "
          f"(shm ring high-water mark {ipc['shm']['shm_ring_hwm']:,} B)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--objects", type=int, default=32)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts to sweep")
    parser.add_argument("--keys", type=int, default=64,
                        help="key space per object (smaller = racier)")
    parser.add_argument("--lock-rate", type=float, default=0.05,
                        help="fraction of ops under a shared lock")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: scaled-down sweep plus the overhead "
                             "and hot-path gates (exit 1 on any breach)")
    parser.add_argument("--hotpath", action="store_true",
                        help="run only the hot-path microbench suite "
                             "(stamping, end-to-end detector, golden "
                             "corpus), write the results JSON, and gate "
                             "on the speedup floors (exit 1 on a breach)")
    parser.add_argument("--stream", action="store_true",
                        help="run only the streaming memory gate: peak "
                             "active+interned points of a pruning "
                             "StreamAnalyzer over a joinall-heavy phased "
                             "trace must stay under 10%% of the unpruned "
                             "footprint (exit 1 on a breach)")
    parser.add_argument("--predict", action="store_true",
                        help="run only the predictive overhead gate: the "
                             "golden corpus with --predict-style analysis "
                             "must stay under 2x the witnessed-only wall "
                             "time (exit 1 on a breach)")
    parser.add_argument("--predict-json", metavar="PATH",
                        default="BENCH_PR10.json",
                        help="where --predict writes the predictive leg's "
                             "record (default: %(default)s)")
    parser.add_argument("--ipc", action="store_true",
                        help="run only the IPC transport report: one "
                             "instrumented fan-out run each for the shm "
                             "transport and a pickle Pool.map baseline, "
                             "printing bytes on the wire and "
                             "serialization seconds for each")
    parser.add_argument("--hotpath-json", metavar="PATH",
                        default="BENCH_PR4.json",
                        help="where --hotpath/--smoke write the hot-path "
                             "results (default: %(default)s)")
    parser.add_argument("--epoch-json", metavar="PATH",
                        default="BENCH_PR7.json",
                        help="where --hotpath/--smoke write the "
                             "epoch leg's standalone record "
                             "(default: %(default)s)")
    parser.add_argument("--backend-json", metavar="PATH",
                        default="BENCH_PR9.json",
                        help="where --hotpath/--smoke write the backend "
                             "fan-out leg's record "
                             "(default: %(default)s)")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write the sequential run's observability "
                             "report (exact sampling) to PATH")
    args = parser.parse_args(argv)
    if args.smoke:
        args.events = min(args.events, 20_000)
        args.objects = min(args.objects, 8)
        args.threads = min(args.threads, 4)
        args.workers = "2"
    worker_counts = [int(w) for w in args.workers.split(",")]

    if args.stream:
        # The gate's default workload is 200k events (the acceptance
        # criterion's size); an explicit --events overrides it.
        import sys
        given = argv if argv is not None else sys.argv[1:]
        events = args.events if "--events" in given else 200_000
        ok = streaming_memory_gate(events=events, seed=args.seed)
        return 0 if ok else 1

    if args.predict:
        ok = predict_overhead_gate(repeats=3 if args.smoke else 5,
                                   passes=5 if args.smoke else 10,
                                   json_path=args.predict_json)
        return 0 if ok else 1

    if args.ipc:
        ipc_report(seed=args.seed)
        return 0

    if args.hotpath:
        ok = hotpath_gate(args.events, args.objects, args.threads,
                          seed=args.seed,
                          repeats=3 if args.smoke else 5,
                          corpus_passes=10 if args.smoke else 25,
                          json_path=args.hotpath_json,
                          epoch_json_path=args.epoch_json)
        ok = backend_gate(seed=args.seed,
                          repeats=1 if args.smoke else 2,
                          json_path=args.backend_json) and ok
        return 0 if ok else 1

    print(f"generating {args.events} events over {args.objects} objects, "
          f"{args.threads} threads ...")
    trace = synthetic_trace(args.events, args.objects, args.threads,
                            args.seed, keys=args.keys,
                            lock_rate=args.lock_rate)

    # Throughput mode: count races, don't materialize reports (the same
    # keep_reports=False knob the long sequential benchmarks use).
    sequential = register_all(
        CommutativityRaceDetector(root=0, keep_reports=False), args.objects)
    seq_seconds = timed_run(sequential, trace)
    baseline = (len(trace) / seq_seconds, seq_seconds)
    reference = (sequential.stats.races, sequential.stats.conflict_checks)

    # Phase-A share of the sequential cost bounds the parallel speedup.
    probe = ShardedDetector(root=0, workers=0)
    start = time.perf_counter()
    probe._stamp_and_partition(trace)
    phase_a_seconds = time.perf_counter() - start
    serial_share = min(1.0, phase_a_seconds / seq_seconds)
    amdahl = 1.0 / (serial_share + (1 - serial_share) / max(worker_counts))

    header = f"{'config':>12} {'seconds':>9} {'events/s':>10} {'speedup':>8}"
    print(f"\n{header}\n{'-' * len(header)}")
    print(f"{'sequential':>12} {seq_seconds:>9.3f} "
          f"{baseline[0]:>10.0f} {'1.00x':>8}")
    for workers in worker_counts:
        detector = register_all(
            ShardedDetector(root=0, workers=workers, keep_reports=False),
            args.objects)
        seconds = timed_run(detector, trace)
        got = (detector.stats.races, detector.stats.conflict_checks)
        assert got == reference, (
            f"verdict drift at workers={workers}: {got} != {reference}")
        speedup = seq_seconds / seconds
        print(f"{f'{workers} workers':>12} {seconds:>9.3f} "
              f"{len(trace) / seconds:>10.0f} {speedup:>7.2f}x")
    print(f"\nphase A (sequential HB pass): {phase_a_seconds:.3f}s "
          f"({serial_share:.0%} of sequential run)")
    print(f"Amdahl ceiling at {max(worker_counts)} workers: "
          f"{amdahl:.2f}x; races found: {reference[0]}")

    if args.stats_json:
        obs = Registry(sample_interval=1)
        instrumented = register_all(
            CommutativityRaceDetector(root=0, keep_reports=False, obs=obs),
            args.objects)
        instrumented.run(trace)
        from repro.obs import publish_detector_stats
        publish_detector_stats(obs, instrumented.stats)
        report = build_report(obs, meta={
            "detector": "rd2", "workers": 1, "events": len(trace),
            "trace": "synthetic", "seed": args.seed,
        })
        with open(args.stats_json, "w", encoding="utf-8") as out:
            write_report(report, out)
        print(f"observability report written to {args.stats_json}")

    if args.smoke:
        # The observability gate times the default detector, so its one
        # check loop is also held to the existing 5% obs budget.
        ok = overhead_gate(trace, args.objects)
        ok = supervisor_overhead_gate(trace, args.objects) and ok
        ok = hotpath_gate(args.events, args.objects, args.threads,
                          seed=args.seed, repeats=3, corpus_passes=10,
                          json_path=args.hotpath_json,
                          epoch_json_path=args.epoch_json) and ok
        ok = backend_gate(seed=args.seed, repeats=1,
                          json_path=args.backend_json) and ok
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
