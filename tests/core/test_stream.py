"""Streaming analysis: TailReader, StreamAnalyzer, follow_analyze.

The contract under test is the streaming pipeline's three-way split of
"trace that ends badly": a *partial tail* (writer still flushing or
killed mid-record) parks the reader at a resume offset, a *complete but
malformed* line raises (real corruption), and a finished trace reports
``done``.  On top of that, :class:`StreamAnalyzer` must report races
byte-identically to the batch detector — streaming changes *when* work
happens, never *what* is found.
"""

import io
import json

import pytest

from repro.core.detector import CommutativityRaceDetector
from repro.core.errors import ReproError
from repro.core.serialize import (TailReader, dump_trace, dumps_trace,
                                  follow_trace)
from repro.core.stream import FollowStatus, StreamAnalyzer, follow_analyze

from tests.support import (build_multi_object_trace,
                           random_multi_object_program, race_snapshot,
                           register_bindings, verdict_keys)


def write_trace(tmp_path, trace, name="trace.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as stream:
        dump_trace(trace, stream)
    return str(path)


def sample_trace(seed=3):
    return build_multi_object_trace(random_multi_object_program(seed))


class TestTailReader:
    def test_reads_a_complete_trace(self, tmp_path):
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        reader = TailReader(path)
        events = reader.poll()
        assert len(events) == len(trace)
        assert reader.done
        assert not reader.truncated
        assert reader.root == trace.root
        assert reader.declared_events == len(trace)
        assert [e.kind for e in events] == [e.kind for e in trace]

    def test_missing_file_polls_empty(self, tmp_path):
        reader = TailReader(str(tmp_path / "nope.jsonl"))
        assert reader.poll() == []
        assert not reader.header_ready
        assert not reader.done

    def test_partial_tail_parks_and_resumes(self, tmp_path):
        trace, _ = sample_trace()
        assert len(trace) >= 4
        text = dumps_trace(trace)
        lines = text.splitlines(keepends=True)
        half = len(lines) // 2
        # A prefix ending mid-record: half the lines plus a torn one.
        torn = "".join(lines[:half]) + lines[half][:5]
        path = tmp_path / "grow.jsonl"
        path.write_text(torn, encoding="utf-8")
        reader = TailReader(str(path))
        first = reader.poll()
        assert len(first) == half - 1  # header consumed separately
        assert reader.truncated
        assert not reader.done
        assert reader.offset == sum(len(l.encode()) for l in lines[:half])
        # The writer finishes; the next poll picks up at the torn record.
        path.write_text(text, encoding="utf-8")
        rest = reader.poll()
        assert len(first) + len(rest) == len(trace)
        assert reader.done
        assert not reader.truncated

    def test_resume_offset_constructor(self, tmp_path):
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        first = TailReader(path, chunk_size=64)
        first.poll()
        assert first.done
        # A fresh process resumes from the recorded position: nothing is
        # re-read, and the header fields come from the caller.
        resumed = TailReader(path, resume_offset=first.offset,
                             root=first.root,
                             declared_events=first.declared_events)
        assert resumed.header_ready
        assert resumed.poll() == []
        assert resumed.offset == first.offset

    def test_from_status_round_trips_resume_metadata(self, tmp_path):
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        first = TailReader(path, chunk_size=64)
        first.poll()
        status = FollowStatus(complete=first.done,
                              events_read=first.events_read,
                              declared_events=first.declared_events,
                              resume_offset=first.offset,
                              truncated_tail=first.truncated,
                              root=first.root)
        resumed = TailReader.from_status(path, status)
        assert resumed.header_ready
        assert resumed.root == trace.root
        assert resumed.declared_events == len(trace)
        assert resumed.poll() == []
        assert resumed.done

    def test_from_status_before_the_header_reads_from_scratch(self,
                                                              tmp_path):
        # A follow that died before the header appeared has offset 0 and
        # no root: the resumed reader must parse the header itself.
        status = FollowStatus(complete=False, events_read=0,
                              declared_events=None, resume_offset=0,
                              truncated_tail=False, root=None)
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        resumed = TailReader.from_status(path, status)
        assert len(resumed.poll()) == len(trace)
        assert resumed.done
        assert resumed.root == trace.root

    def test_blank_lines_are_skipped(self, tmp_path):
        trace, _ = sample_trace()
        text = dumps_trace(trace).replace("\n", "\n\n")
        path = tmp_path / "gappy.jsonl"
        path.write_text(text, encoding="utf-8")
        reader = TailReader(str(path))
        assert len(reader.poll()) == len(trace)
        assert reader.done

    def test_complete_malformed_line_raises(self, tmp_path):
        trace, _ = sample_trace()
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_trace(trace) + "{not json}\n",
                        encoding="utf-8")
        reader = TailReader(str(path))
        with pytest.raises(ValueError):
            reader.poll()

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"some-other-format": 2}\n', encoding="utf-8")
        with pytest.raises(ReproError):
            TailReader(str(path)).poll()

    def test_small_chunks_cross_record_boundaries(self, tmp_path):
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        reader = TailReader(path, chunk_size=7)
        assert len(reader.poll()) == len(trace)
        assert reader.done


class TestFollowTrace:
    def test_yields_every_event_of_a_finished_trace(self, tmp_path):
        trace, _ = sample_trace()
        path = write_trace(tmp_path, trace)
        events = list(follow_trace(path, poll_interval=0.001))
        assert len(events) == len(trace)

    def test_idle_timeout_releases_an_abandoned_trace(self, tmp_path):
        trace, _ = sample_trace()
        text = dumps_trace(trace)
        path = tmp_path / "dead.jsonl"
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        reader = TailReader(str(path))
        events = list(follow_trace(str(path), poll_interval=0.001,
                                   idle_timeout=0.01, reader=reader))
        assert 0 < len(events) < len(trace)
        assert not reader.done
        assert 0 < reader.offset < len(text.encode())


def batch_races(trace, bindings, **kw):
    detector = register_bindings(
        CommutativityRaceDetector(root=trace.root, **kw), bindings)
    detector.run(trace)
    return detector


class TestStreamAnalyzer:
    def test_byte_identical_to_batch(self, tmp_path):
        trace, bindings = sample_trace(seed=0)
        batch = batch_races(trace, bindings)
        analyzer = register_bindings(
            StreamAnalyzer(root=trace.root, prune_interval=2, window=3),
            bindings)
        analyzer.run(trace)
        assert ([race_snapshot(r) for r in analyzer.races]
                == [race_snapshot(r) for r in batch.races])

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamAnalyzer(window=0)

    def test_on_race_fires_incrementally(self):
        trace, bindings = sample_trace(seed=0)
        seen = []
        analyzer = register_bindings(
            StreamAnalyzer(root=trace.root, on_race=seen.append,
                           prune_interval=2, window=4),
            bindings)
        for i, event in enumerate(trace):
            analyzer.process(event)
            assert len(seen) == len(analyzer.races)  # no batching at the end
        analyzer.finish()
        assert seen == analyzer.races

    def test_on_window_cadence(self):
        trace, bindings = sample_trace()
        calls = []
        analyzer = register_bindings(
            StreamAnalyzer(root=trace.root, window=5,
                           on_window=lambda a: calls.append(
                               a.events_processed)),
            bindings)
        analyzer.run(trace)
        # One call per full window plus the finish() cycle.
        assert len(calls) == len(trace) // 5 + 1
        assert analyzer.windows_completed == len(calls)

    def test_retires_joined_threads(self):
        # A joinall program leaves only the root live at the end.
        program = (("dictionary", "set"), 11, 3, 20, 0.0, True)
        trace, bindings = build_multi_object_trace(program)
        analyzer = register_bindings(
            StreamAnalyzer(root=trace.root, prune_interval=1, window=2),
            bindings)
        analyzer.run(trace)
        hb = analyzer.detector.happens_before
        assert analyzer.threads_retired == 3
        assert hb.known_threads() == {trace.root}

    def test_compact_clocks_preserves_verdicts(self):
        for seed in range(25):
            trace, bindings = build_multi_object_trace(
                random_multi_object_program(seed))
            batch = batch_races(trace, bindings)
            compacting = register_bindings(
                StreamAnalyzer(root=trace.root, prune_interval=1, window=2,
                               compact_clocks=True),
                bindings)
            compacting.run(trace)
            # Compaction narrows reported clocks, so equivalence is on
            # verdict keys, not clock bytes.
            assert (verdict_keys(compacting.races)
                    == verdict_keys(batch.races)), f"seed {seed}"

    def test_peaks_track_footprint(self):
        program = (("dictionary",), 5, 3, 30, 0.0, True)
        trace, bindings = build_multi_object_trace(program)
        analyzer = register_bindings(
            StreamAnalyzer(root=trace.root, prune_interval=1, window=2),
            bindings)
        analyzer.run(trace)
        detector = analyzer.detector
        assert analyzer.peak_active >= detector.active_point_count()
        assert analyzer.peak_interned >= detector.interned_point_count()


class TestFollowAnalyze:
    def test_finished_trace_analyzes_completely(self, tmp_path):
        trace, bindings = sample_trace(seed=0)
        path = write_trace(tmp_path, trace)
        batch = batch_races(trace, bindings)
        analyzer, status = follow_analyze(
            path,
            lambda root: register_bindings(
                StreamAnalyzer(root=root, prune_interval=2, window=3),
                bindings),
            poll_interval=0.001)
        assert status.complete
        assert status.events_read == len(trace)
        assert not status.truncated_tail
        assert ([race_snapshot(r) for r in analyzer.races]
                == [race_snapshot(r) for r in batch.races])

    def test_killed_writer_resume_still_recognizes_completion(self,
                                                              tmp_path):
        # Regression: a writer killed mid-record leaves the follower
        # timing out on a torn tail.  Resuming with only resume_offset
        # used to lose declared_events, so the resumed reader could
        # never report ``complete`` even after the trace finished.  The
        # status now carries full resume metadata (root + declared
        # count) and ``TailReader.from_status`` threads it through.
        trace, bindings = sample_trace(seed=0)
        text = dumps_trace(trace)
        lines = text.splitlines(keepends=True)
        half = len(lines) // 2
        path = tmp_path / "killed.jsonl"
        path.write_text("".join(lines[:half]) + lines[half][:5],
                        encoding="utf-8")

        analyzer, status = follow_analyze(
            str(path),
            lambda root: register_bindings(
                StreamAnalyzer(root=root, window=3), bindings),
            poll_interval=0.001, idle_timeout=0.01)
        assert not status.complete
        assert status.truncated_tail
        assert status.declared_events == len(trace)
        assert status.root == trace.root
        assert status.events_read == half - 1

        # A restarted writer finishes the file; a fresh process resumes
        # the same analysis from the recorded metadata alone.
        path.write_text(text, encoding="utf-8")
        resumed_reader = TailReader.from_status(str(path), status)
        analyzer2, status2 = follow_analyze(
            str(path), lambda root: analyzer,
            poll_interval=0.001, reader=resumed_reader)
        assert analyzer2 is analyzer
        assert status2.complete
        assert not status2.truncated_tail
        assert status2.events_read == len(trace)

        batch = batch_races(trace, bindings)
        assert ([race_snapshot(r) for r in analyzer2.races]
                == [race_snapshot(r) for r in batch.races])

    def test_headerless_file_times_out_without_an_analyzer(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        analyzer, status = follow_analyze(
            str(path), lambda root: pytest.fail("no header, no analyzer"),
            poll_interval=0.001, idle_timeout=0.01)
        assert analyzer is None
        assert not status.complete
        assert status.events_read == 0
