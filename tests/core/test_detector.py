"""Algorithm 1: the commutativity race detector."""

import pytest

from repro.core.access_points import (AccessPoint, AccessPointRepresentation,
                                      NaiveRepresentation)
from repro.core.detector import (CommutativityRaceDetector, DetectorStats,
                                 Strategy)
from repro.core.errors import MonitorError
from repro.core.events import NIL, Action
from repro.core.parallel import ShardedDetector
from repro.core.trace import TraceBuilder
from repro.logic.translate import translate
from repro.specs.dictionary import dictionary_representation, dictionary_spec


def race_trace():
    """Two unordered same-key puts, then a joined size()."""
    return (TraceBuilder(root=0)
            .fork(0, 1).fork(0, 2)
            .invoke(1, "o", "put", "a.com", "c1", returns=NIL)
            .invoke(2, "o", "put", "a.com", "c2", returns="c1")
            .join_all(0, [1, 2])
            .invoke(0, "o", "size", returns=1)
            .build())


class BoundedKeyRepresentation(AccessPointRepresentation):
    """A bounded representation outside the schema factoring: every action
    touches one point per key argument, same-key points conflict, and
    ``Co(pt)`` is enumerable — but no check plan compiles from it."""

    kind = "keyed"

    def points_of(self, action):
        return tuple(AccessPoint(action.obj, "k", key)
                     for key in action.args[:1])

    def conflicts(self, pt1, pt2):
        return pt1.obj == pt2.obj and pt1.value == pt2.value

    @property
    def bounded(self):
        return True

    def conflicting_candidates(self, pt):
        yield AccessPoint(pt.obj, "k", pt.value)


def detector(strategy=Strategy.AUTO, **kwargs):
    det = CommutativityRaceDetector(root=0, strategy=strategy, **kwargs)
    det.register_object("o", dictionary_representation())
    return det


class TestDetection:
    def test_reports_the_put_put_race(self):
        det = detector()
        races = det.run(race_trace())
        assert len(races) == 1
        race = races[0]
        assert race.obj == "o"
        assert race.current.method == "put"
        assert race.current_clock.parallel(race.prior_clock)

    def test_joined_size_does_not_race(self):
        det = detector()
        for race in det.run(race_trace()):
            assert race.current.method != "size"

    def test_unjoined_size_races_with_resizing_put(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1)
                 .invoke(1, "o", "put", "k", "v", returns=NIL)
                 .invoke(0, "o", "size", returns=0)
                 .build())
        races = detector().run(trace)
        assert len(races) == 1
        assert races[0].current.method == "size"

    def test_nonresizing_put_does_not_race_with_size(self):
        # Overwriting a key does not change the size (the a2/a3 point of
        # the paper's Fig. 3 discussion).
        trace = (TraceBuilder(root=0)
                 .invoke(0, "o", "put", "k", "v1", returns=NIL)
                 .fork(0, 1)
                 .invoke(1, "o", "put", "k", "v2", returns="v1")
                 .invoke(0, "o", "size", returns=1)
                 .build())
        assert detector().run(trace) == []

    def test_different_keys_do_not_race(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o", "put", "a", 1, returns=NIL)
                 .invoke(2, "o", "put", "b", 2, returns=NIL)
                 .build())
        assert detector().run(trace) == []

    def test_lock_ordering_suppresses_race(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .acquire(1, "L")
                 .invoke(1, "o", "put", "k", 1, returns=NIL)
                 .release(1, "L")
                 .acquire(2, "L")
                 .invoke(2, "o", "put", "k", 2, returns=1)
                 .release(2, "L")
                 .build())
        assert detector().run(trace) == []

    def test_reads_commute(self):
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o", "get", "k", returns=NIL)
                 .invoke(2, "o", "get", "k", returns=NIL)
                 .invoke(0, "o", "size", returns=0)
                 .build())
        assert detector().run(trace) == []

    def test_unregistered_objects_ignored(self):
        det = CommutativityRaceDetector(root=0)
        trace = race_trace()
        assert det.run(trace) == []
        assert det.stats.actions == 0

    def test_multiple_objects_tracked_independently(self):
        det = CommutativityRaceDetector(root=0)
        det.register_object("o1", dictionary_representation())
        det.register_object("o2", dictionary_representation())
        trace = (TraceBuilder(root=0)
                 .fork(0, 1).fork(0, 2)
                 .invoke(1, "o1", "put", "k", 1, returns=NIL)
                 .invoke(2, "o2", "put", "k", 2, returns=NIL)
                 .build())
        assert det.run(trace) == []


class TestStrategies:
    def test_auto_picks_enumerate_for_bounded(self):
        det = detector(Strategy.AUTO)
        assert det._objects["o"].strategy is Strategy.ENUMERATE

    def test_auto_picks_scan_for_unbounded(self):
        det = CommutativityRaceDetector(root=0)
        det.register_object("o", NaiveRepresentation(
            "dictionary", dictionary_spec().commutes))
        assert det._objects["o"].strategy is Strategy.SCAN

    def test_enumerate_requires_bounded(self):
        det = CommutativityRaceDetector(root=0, strategy=Strategy.ENUMERATE)
        with pytest.raises(MonitorError):
            det.register_object("o", NaiveRepresentation(
                "dictionary", dictionary_spec().commutes))

    def test_enumerate_requires_a_check_plan(self):
        # ENUMERATE runs only through a check plan: a bounded
        # representation that cannot compile one is rejected at
        # registration, AUTO resolves it to SCAN, and the sharded facade
        # agrees on both.
        rep = BoundedKeyRepresentation()
        for factory in (CommutativityRaceDetector, ShardedDetector):
            explicit = factory(root=0, strategy=Strategy.ENUMERATE)
            with pytest.raises(MonitorError, match="check plan"):
                explicit.register_object("o", rep)
            per_object = factory(root=0)
            with pytest.raises(MonitorError, match="check plan"):
                per_object.register_object("o", rep, Strategy.ENUMERATE)
        auto = CommutativityRaceDetector(root=0)
        auto.register_object("o", rep)
        state = auto._objects["o"]
        assert state.strategy is Strategy.SCAN and state.plan is None
        sharded = ShardedDetector(root=0, workers=1)
        sharded.register_object("o", rep)
        trace = race_trace()
        auto.run(trace)
        sharded.run(trace)
        assert len(auto.races) == 1
        assert sharded.races == auto.races
        assert sharded.stats == auto.stats

    def test_scan_and_enumerate_agree_on_races(self):
        trace = race_trace()
        enum_races = detector(Strategy.ENUMERATE).run(trace)
        scan_races = detector(Strategy.SCAN).run(trace)
        keyed = lambda races: {(r.current, r.point, r.prior_point)
                               for r in races}
        assert keyed(enum_races) == keyed(scan_races)

    def test_translated_representation_works_with_both(self):
        rep = translate(dictionary_spec())
        for strategy in (Strategy.ENUMERATE, Strategy.SCAN):
            det = CommutativityRaceDetector(root=0, strategy=strategy)
            det.register_object("o", rep, strategy=strategy)
            assert len(det.run(race_trace())) >= 1


class TestLifecycle:
    def test_double_registration_rejected(self):
        det = detector()
        with pytest.raises(MonitorError):
            det.register_object("o", dictionary_representation())

    def test_release_object_reclaims_state(self):
        det = detector()
        trace = race_trace()
        for event in list(trace)[:4]:
            det.process(event)
        det.release_object("o")
        assert "o" not in det.registered_objects()
        # Further actions on the dead object are simply ignored.
        for event in list(trace)[4:]:
            det.process(event)
        assert det.stats.actions == 2  # only the two pre-release puts

    def test_release_unknown_object_is_noop(self):
        detector().release_object("ghost")


class TestReporting:
    def test_on_race_callback(self):
        seen = []
        det = CommutativityRaceDetector(root=0, on_race=seen.append)
        det.register_object("o", dictionary_representation())
        det.run(race_trace())
        assert len(seen) == 1

    def test_keep_reports_false_counts_only(self):
        det = CommutativityRaceDetector(root=0, keep_reports=False)
        det.register_object("o", dictionary_representation())
        det.run(race_trace())
        assert det.races == []
        assert det.stats.races == 1

    def test_process_returns_races_found_on_event(self):
        det = detector()
        events = list(race_trace())
        results = [det.process(event) for event in events]
        per_event = [r for r in results if r]
        assert len(per_event) == 1
        assert len(per_event[0]) == 1


class TestStats:
    def test_counters_accumulate(self):
        det = detector()
        det.run(race_trace())
        stats = det.stats
        assert stats.events == len(race_trace())
        assert stats.actions == 3
        assert stats.points_touched >= 3
        assert stats.conflict_checks >= 1

    def test_checks_per_action_handles_zero(self):
        assert DetectorStats().checks_per_action() == 0.0

    def test_enumerate_checks_bounded_per_action(self):
        # Even with many prior actions, each new action performs at most
        # (max degree × points touched) checks.
        builder = TraceBuilder(root=0)
        for worker in range(1, 21):
            builder.fork(0, worker)
            builder.invoke(worker, "o", "put", f"k{worker}", worker,
                           returns=NIL)
        det = detector(Strategy.ENUMERATE)
        det.run(builder.build())
        assert det.stats.checks_per_action() <= 6
