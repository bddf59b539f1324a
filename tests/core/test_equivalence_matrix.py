"""Cross-configuration verdict preservation on one randomized corpus.

The detector docstring promises that its configuration knobs change cost,
never verdicts: adaptive point epochs vs plain vector clocks, and the
ENUMERATE vs SCAN phase-1 strategies (Section 5.4), must agree race for
race.  This suite pins that promise on the same randomized multi-object
corpus the sharded differential harness uses, for both the sequential
detector and the sharded pipeline.

Comparison granularity differs deliberately:

* ENUMERATE vs SCAN visit the same (point, candidate) pairs in different
  orders, so reports are compared as sorted full snapshots (clocks
  included) — content must match exactly, order may not.
* adaptive (epoch) mode carries the exact accumulated clock inside each
  epoch, so adaptive-vs-plain is compared **byte-identically** — same
  reports, same clocks, same order.  (Before clock-carrying epochs this
  suite had to fall back to verdict keys; the stronger identity is the
  point of the representation.)
* the compiled hot path (check plans + interned access points) is a pure
  execution strategy: it enumerates the same candidates in the same
  order as representation dispatch, so compiled-vs-uncompiled is the
  *strictest* comparison — reports equal in content **and order**, stats
  equal counter for counter.

The full-matrix test closes the loop: every configuration on the
compiled × adaptive × (sequential|sharded) axes — 8 configurations —
must report **byte-identically** to the one reference everything is
defined against, the sequential uncompiled plain detector.
"""

import os

import pytest

from repro.core.backend import shm_available
from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.parallel import ShardedDetector

from tests.support import (build_multi_object_trace, race_snapshot,
                           random_multi_object_program, register_bindings,
                           verdict_keys)

CORPUS_SEEDS = range(40)

# The CI matrix reruns this suite under both multiprocessing start
# methods (fork and spawn): worker transport must not perturb a verdict.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


def corpus():
    for seed in CORPUS_SEEDS:
        yield build_multi_object_trace(random_multi_object_program(seed))


def run_detector(trace, bindings, factory, **kw):
    if factory is ShardedDetector and START_METHOD:
        kw.setdefault("mp_context", START_METHOD)
    detector = register_bindings(factory(root=0, **kw), bindings)
    detector.run(trace)
    return detector


def snapshots(detector):
    """Race snapshots as sortable tuples (order-insensitive comparison)."""
    return sorted(tuple(sorted(race_snapshot(race).items()))
                  for race in detector.races)


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestStrategyEquivalence:
    def test_enumerate_vs_scan_same_reports(self, factory):
        for trace, bindings in corpus():
            enum = run_detector(trace, bindings, factory,
                                strategy=Strategy.ENUMERATE)
            scan = run_detector(trace, bindings, factory,
                                strategy=Strategy.SCAN)
            assert snapshots(enum) == snapshots(scan)
            assert enum.stats.races == scan.stats.races

    def test_auto_matches_enumerate_for_bundled_reps(self, factory):
        # Every bundled representation is bounded, so AUTO must resolve to
        # ENUMERATE — identical reports *and* identical check counts.
        for trace, bindings in corpus():
            auto = run_detector(trace, bindings, factory)
            enum = run_detector(trace, bindings, factory,
                                strategy=Strategy.ENUMERATE)
            assert auto.races == enum.races
            assert auto.stats == enum.stats


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestAdaptiveEquivalence:
    def test_adaptive_vs_plain_byte_identical(self, factory):
        for trace, bindings in corpus():
            plain = run_detector(trace, bindings, factory, adaptive=False)
            adaptive = run_detector(trace, bindings, factory, adaptive=True)
            assert ([race_snapshot(r) for r in adaptive.races]
                    == [race_snapshot(r) for r in plain.races])
            assert adaptive.stats.races == plain.stats.races


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestCompiledEquivalence:
    def test_compiled_vs_uncompiled_identical(self, factory):
        """The strict identity: same reports in the same order, same stats."""
        for trace, bindings in corpus():
            compiled = run_detector(trace, bindings, factory)
            dispatch = run_detector(trace, bindings, factory, compiled=False)
            assert compiled.races == dispatch.races
            assert compiled.stats == dispatch.stats

    def test_compiled_composes_with_adaptive_and_scan(self, factory):
        # The plan axis must be invisible whatever it is combined with:
        # under SCAN no plan compiles (the flag is a no-op), under
        # adaptive the epoch bookkeeping rides the compiled loop.
        for trace, bindings in corpus():
            for adaptive in (False, True):
                for strategy in (Strategy.ENUMERATE, Strategy.SCAN):
                    compiled = run_detector(trace, bindings, factory,
                                            adaptive=adaptive,
                                            strategy=strategy)
                    dispatch = run_detector(trace, bindings, factory,
                                            adaptive=adaptive,
                                            strategy=strategy,
                                            compiled=False)
                    assert compiled.races == dispatch.races
                    assert compiled.stats == dispatch.stats


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestPruneEquivalence:
    def test_pruning_byte_identical_to_reference(self, factory):
        # Reclaimed points can never race again, so pruning every few
        # actions must leave the reports exactly as the reference has them.
        for trace, bindings in corpus():
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     compiled=False, adaptive=False)
            pruned = run_detector(trace, bindings, factory,
                                  prune_interval=3)
            assert ([race_snapshot(r) for r in pruned.races]
                    == [race_snapshot(r) for r in reference.races])


PREDICT_SEEDS = list(CORPUS_SEEDS)[:12]


@pytest.mark.parametrize("factory", [CommutativityRaceDetector,
                                     ShardedDetector],
                         ids=["sequential", "sharded"])
class TestPredictiveEquivalence:
    """The predictive pass rides every engine without perturbing it.

    Witnessed reports must stay byte-identical with prediction on, and
    the prediction list itself must be engine-independent: sequential
    and sharded (and, via its own suite, streaming) agree pair for pair,
    race for race.
    """

    def test_witnessed_reports_unchanged_by_prediction(self, factory):
        for seed in PREDICT_SEEDS:
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            plain = run_detector(trace, bindings, factory)
            predictive = run_detector(trace, bindings, factory,
                                      predict_window=32)
            assert ([race_snapshot(r) for r in predictive.races]
                    == [race_snapshot(r) for r in plain.races]), seed
            assert predictive.stats.races == plain.stats.races

    def test_predictions_match_the_sequential_reference(self, factory):
        for seed in PREDICT_SEEDS:
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     predict_window=32)
            kw = ({"workers": 2} if factory is ShardedDetector else {})
            det = run_detector(trace, bindings, factory,
                               predict_window=32, **kw)
            assert ([(p.pair, race_snapshot(p.race)) for p in det.predicted]
                    == [(p.pair, race_snapshot(p.race))
                        for p in reference.predicted]), seed

    def test_prediction_composes_with_batch_and_adaptive(self, factory):
        for seed in PREDICT_SEEDS[:6]:
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     predict_window=32)
            det = run_detector(trace, bindings, factory, predict_window=32,
                               adaptive=False)
            assert ([(p.pair, race_snapshot(p.race)) for p in det.predicted]
                    == [(p.pair, race_snapshot(p.race))
                        for p in reference.predicted]), seed


class TestFullMatrix:
    def test_all_eight_configurations_byte_identical(self):
        """compiled × adaptive × (sequential|sharded).

        Every one of the 8 configurations must report byte-identically
        (clocks included, order included) to the reference everything is
        specified against: the sequential uncompiled plain detector.
        """
        for trace, bindings in corpus():
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     compiled=False, adaptive=False)
            want = [race_snapshot(r) for r in reference.races]
            for factory in (CommutativityRaceDetector, ShardedDetector):
                for compiled in (False, True):
                    for adaptive in (False, True):
                        det = run_detector(trace, bindings, factory,
                                           compiled=compiled,
                                           adaptive=adaptive)
                        got = [race_snapshot(r) for r in det.races]
                        assert got == want, (
                            f"{factory.__name__} compiled={compiled} "
                            f"adaptive={adaptive}")

    def test_scan_matrix_agrees_on_verdicts(self):
        """The SCAN strategy reorders reports, so its matrix leg is
        compared on verdict keys (the old 16-config identity)."""
        for trace, bindings in corpus():
            verdicts = set()
            for factory in (CommutativityRaceDetector, ShardedDetector):
                for compiled in (False, True):
                    for adaptive in (False, True):
                        for strategy in (Strategy.ENUMERATE, Strategy.SCAN):
                            det = run_detector(trace, bindings, factory,
                                               compiled=compiled,
                                               adaptive=adaptive,
                                               strategy=strategy)
                            verdicts.add(tuple(verdict_keys(det.races)))
            assert len(verdicts) == 1


# Shard-transport axis.  ``shm`` is the one cross-process transport and
# is expected everywhere CI runs (a host without shared memory replays
# shards in-process, the inline path the sharded axes above already
# cover).  The CI matrix reruns this file under both fork and spawn
# (``REPRO_TEST_START_METHOD``), so the axis is proven under both start
# methods.
BACKEND_AXES = [
    pytest.param("shm", marks=pytest.mark.skipif(
        not shm_available(), reason="no shared memory on this host")),
]

BACKEND_SEEDS = list(CORPUS_SEEDS)[:16]


@pytest.mark.parametrize("backend", BACKEND_AXES)
class TestBackendEquivalence:
    """The execution backend must be invisible, byte for byte.

    Worker processes fed through shared-memory rings replay the same
    stamped actions through the same shard function as in-process
    replay, so reports must match the sequential uncompiled plain
    reference exactly: same races, same clocks, same order.
    """

    def test_byte_identical_to_sequential_reference(self, backend):
        for seed in BACKEND_SEEDS:
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     compiled=False, adaptive=False)
            det = run_detector(trace, bindings, ShardedDetector,
                               workers=2, backend=backend)
            assert det.backend.selected == backend, det.backend
            assert ([race_snapshot(r) for r in det.races]
                    == [race_snapshot(r) for r in reference.races]), seed

    def test_stats_match_inline_sharding(self, backend):
        # Same transport-invisibility claim for the counters: whatever
        # crosses the process boundary, the detector work is identical to
        # replaying the same shards in-process.
        for seed in BACKEND_SEEDS[:6]:
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            inline = run_detector(trace, bindings, ShardedDetector,
                                  workers=1)
            other = run_detector(trace, bindings, ShardedDetector,
                                 workers=2, backend=backend)
            assert other.races == inline.races
            assert other.stats == inline.stats

    def test_composes_with_prune_batch_and_adaptive(self, backend):
        for seed in (3, 17, 41):
            program = random_multi_object_program(seed)
            trace, bindings = build_multi_object_trace(program)
            reference = run_detector(trace, bindings,
                                     CommutativityRaceDetector,
                                     compiled=False, adaptive=False)
            det = run_detector(trace, bindings, ShardedDetector,
                               workers=2, backend=backend, adaptive=True,
                               prune_interval=7)
            assert ([race_snapshot(r) for r in det.races]
                    == [race_snapshot(r) for r in reference.races]), seed

