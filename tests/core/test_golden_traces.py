"""Golden-trace regression corpus: frozen verdicts for frozen traces.

The traces and expected reports under ``tests/data/`` were produced by
``tests/data/generate_golden.py``.  Any refactor that changes a verdict —
a race appearing, disappearing, reordering, or changing its clocks —
fails here and must be an explicit, reviewed regeneration of the corpus,
never a silent drift.
"""

import json
import pathlib

import pytest

from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.parallel import ShardedDetector
from repro.core.serialize import load_trace
from repro.specs import bundled_objects

from tests.support import race_snapshot, verdict_keys

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
EXPECTED_DIR = DATA_DIR / "expected"
GOLDEN_NAMES = sorted(path.stem for path in DATA_DIR.glob("*.jsonl"))


def load_case(name):
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as stream:
        expected = json.load(stream)
    with open(DATA_DIR / expected["trace"], encoding="utf-8") as stream:
        trace = load_trace(stream)
    return trace, expected


def test_corpus_is_present():
    assert len(GOLDEN_NAMES) >= 6
    racy = sum(bool(load_case(name)[1]["races"]) for name in GOLDEN_NAMES)
    clean = len(GOLDEN_NAMES) - racy
    assert racy >= 4 and clean >= 1  # both verdict polarities covered


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sequential_detector_matches_snapshot(name):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = CommutativityRaceDetector(root=trace.root)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_detector_matches_snapshot(name, workers):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = ShardedDetector(root=trace.root, workers=workers)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


# -- strategy and clock axes: same frozen snapshots, never regenerated -------
#
# The default sequential/sharded tests above already run ENUMERATE through
# its check plan, so the corpus pins the one check loop byte for byte.
# These variants pin the remaining axes against the *same* disk snapshots:
# SCAN, an independent phase 1 whose probe order differs (so its reports
# are compared sorted, clocks included), and plain vector clocks through
# the sharded pipeline.

def sorted_snapshots(snapshots):
    return sorted(tuple(sorted(snapshot.items())) for snapshot in snapshots)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_scan_axis_matches_sorted_snapshot(name):
    trace, expected = load_case(name)
    registry = bundled_objects()
    want = sorted_snapshots(expected["races"])
    for detector in (
            CommutativityRaceDetector(root=trace.root, strategy=Strategy.SCAN),
            ShardedDetector(root=trace.root, workers=2,
                            strategy=Strategy.SCAN)):
        for obj, kind in expected["bindings"].items():
            detector.register_object(obj, registry[kind].representation())
        detector.run(trace)
        assert sorted_snapshots(race_snapshot(race)
                                for race in detector.races) == want
        assert detector.stats.races == len(expected["races"])


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_plain_clock_axis_matches_snapshot(name):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = ShardedDetector(root=trace.root, workers=2, adaptive=False)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


# -- streaming axes (PR 5): same frozen snapshots, never regenerated ---------

@pytest.mark.parametrize("prune_interval", [0, 1, 3],
                         ids=["noprune", "prune1", "prune3"])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_streaming_axis_matches_snapshot(name, prune_interval):
    # Streaming (incremental processing + pruning + intern eviction +
    # thread retirement) must be byte-identical to the frozen corpus —
    # clocks included.
    from repro.core.stream import StreamAnalyzer
    trace, expected = load_case(name)
    registry = bundled_objects()
    analyzer = StreamAnalyzer(root=trace.root,
                              prune_interval=prune_interval, window=4)
    for obj, kind in expected["bindings"].items():
        analyzer.register_object(obj, registry[kind].representation())
    analyzer.run(trace)
    assert [race_snapshot(race) for race in analyzer.races] \
        == expected["races"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_compact_clocks_axis_matches_snapshot_verdicts(name):
    # Dead-component compaction narrows reported clocks (like adaptive),
    # so the equivalence is on verdict keys.
    from repro.core.stream import StreamAnalyzer
    trace, expected = load_case(name)
    registry = bundled_objects()
    analyzer = StreamAnalyzer(root=trace.root, prune_interval=1, window=2,
                              compact_clocks=True)
    for obj, kind in expected["bindings"].items():
        analyzer.register_object(obj, registry[kind].representation())
    analyzer.run(trace)
    assert verdict_keys(analyzer.races) == sorted(
        (race["obj"], race["current"], race["point"], race["prior_point"])
        for race in expected["races"])


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_plain_clock_axis_matches_snapshot(name):
    # adaptive=True is the default (and covered byte-for-byte by every
    # test above); this pins the opt-out full-vector-clock path against
    # the same frozen snapshots.
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = CommutativityRaceDetector(root=trace.root, adaptive=False)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


# -- epoch axes (PR 7): same frozen snapshots, never regenerated -----------
#
# Clock-carrying epochs report the exact accumulated clock, so adaptive
# mode is pinned byte-identically (the PR 5 verdict-key fallback above
# became the plain-clock opt-out test).  The sequential epoch path is the
# default, pinned by the first test above; these pin it through the
# sharded pipeline and the streaming analyzer.

@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_sharded_epoch_batch_axis_matches_snapshot(name):
    trace, expected = load_case(name)
    registry = bundled_objects()
    detector = ShardedDetector(root=trace.root, workers=2, adaptive=True)
    for obj, kind in expected["bindings"].items():
        detector.register_object(obj, registry[kind].representation())
    detector.run(trace)
    assert [race_snapshot(race) for race in detector.races] \
        == expected["races"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_streaming_epoch_batch_axis_matches_snapshot(name):
    # The full PR 7 stack — epochs, pruning, deflation windows — against
    # the frozen corpus, byte for byte.
    from repro.core.stream import StreamAnalyzer
    trace, expected = load_case(name)
    registry = bundled_objects()
    analyzer = StreamAnalyzer(root=trace.root, adaptive=True, window=3,
                              prune_interval=2)
    for obj, kind in expected["bindings"].items():
        analyzer.register_object(obj, registry[kind].representation())
    analyzer.run(trace)
    assert [race_snapshot(race) for race in analyzer.races] \
        == expected["races"]
