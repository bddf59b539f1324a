"""Differential sweep on the contention-adversarial corpus (PR 7).

``tests.support.build_contention_trace`` manufactures the epoch
machinery's worst case — cross-thread argument re-targeting (forcing
promotions and races on shared points) plus tid churn (forcing dead
clock components into carried epochs, so deflation, compaction and
pruning all do real work).  This sweep runs that corpus through every
PR 7 execution mode and demands byte-identical reports against the
plain full-vector-clock batch detector:

* the streaming analyzer with epochs, pruning and windowed maintenance
  all on at once;
* the sharded two-phase pipeline with epochs on, under real worker
  processes;
* the sequential detector with epochs, as the control that isolates the
  sharding axis.

Counter caveat: the stream/sharded paths may legitimately differ from
the sequential run in *epoch counters* (a deflation can be followed by a
re-promotion the uninterrupted run never needed), so the sweep compares
race snapshots — the paper-visible output — not epoch bookkeeping.
"""

from repro.core.detector import CommutativityRaceDetector
from repro.core.parallel import ShardedDetector
from repro.core.stream import StreamAnalyzer

from tests.support import (build_contention_trace, contention_program,
                           race_snapshot, register_bindings)

DIFFERENTIAL_SEEDS = range(120)


def corpus():
    for seed in DIFFERENTIAL_SEEDS:
        yield seed, build_contention_trace(contention_program(seed))


def plain_run(trace, bindings):
    detector = register_bindings(
        CommutativityRaceDetector(root=trace.root, adaptive=False), bindings)
    detector.run(trace)
    return detector


def snapshots(detector_or_analyzer):
    return [race_snapshot(r) for r in detector_or_analyzer.races]


class TestContentionCorpus:
    def test_streaming_epochs_byte_identical_across_120_seeds(self):
        """Epochs + pruning + deflation change nothing."""
        nonempty = promotions = 0
        for seed, (trace, bindings) in corpus():
            plain = plain_run(trace, bindings)
            streamed = register_bindings(
                StreamAnalyzer(root=trace.root, adaptive=True, window=5,
                               prune_interval=3), bindings)
            streamed.run(trace)
            assert snapshots(streamed) == snapshots(plain), f"seed {seed}"
            nonempty += bool(plain.races)
            promotions += streamed.stats.epoch_promotions
        # The corpus must genuinely exercise the adversarial paths: races
        # found on a healthy share of seeds, and real epoch promotions.
        assert nonempty >= 40
        assert promotions >= 100

    def test_sharded_epochs_byte_identical_across_120_seeds(self):
        """The two-phase pipeline with epochs, worker processes on,
        against the sequential plain detector."""
        for seed, (trace, bindings) in corpus():
            plain = plain_run(trace, bindings)
            sharded = register_bindings(
                ShardedDetector(root=trace.root, workers=2, adaptive=True),
                bindings)
            sharded.run(trace)
            assert snapshots(sharded) == snapshots(plain), f"seed {seed}"
            assert sharded.stats.races == plain.stats.races, f"seed {seed}"

    def test_sequential_epochs_match_stats_too(self):
        """Without maintenance windows the uninterrupted sequential run
        must match the plain detector's *checking* counters exactly —
        epochs change representation, never which pairs are checked."""
        for seed, (trace, bindings) in corpus():
            plain = plain_run(trace, bindings)
            adaptive = register_bindings(
                CommutativityRaceDetector(root=trace.root, adaptive=True),
                bindings)
            adaptive.run(trace)
            assert snapshots(adaptive) == snapshots(plain), f"seed {seed}"
            assert adaptive.stats.races == plain.stats.races
            assert adaptive.stats.conflict_checks == plain.stats.conflict_checks
