"""The shared-memory transport layer: rings and the stamped-action codec.

The backend equivalence suites prove the *pipeline* is verdict-preserving;
this suite pins the transport invariants those proofs stand on:

* records and side bytes round-trip bit-exactly through a
  :class:`~repro.core.shmem.RecordRing`, including across wraparound of
  both the slot array and the byte side-region;
* a full ring **blocks** the producer (``try_put`` → False, ``RingFull``
  with nothing staged) — records are never dropped or overwritten, even
  against a deliberately slow concurrent consumer;
* the :class:`~repro.core.shmem.StampedEncoder` /
  :class:`~repro.core.shmem.StampedDecoder` pair reproduces packed
  stamped actions *value- and type-identically* — exact clocks included —
  through interning, delta-encoded clock bases, and the SPILL/WIDE
  spill paths;
* :class:`~repro.core.shmem.ByteRing` delivers an exact byte stream with
  the writer-close EOF contract the service ingest path relies on.
"""

import threading

import pytest

from repro.core.events import (decode_value, encode_value,
                               pack_stamped_action, REC_ACTION)
from repro.core.shmem import (ByteRing, RecordRing, RingFull, StampedDecoder,
                              StampedEncoder, feed_shard)
from repro.core.vector_clock import MutableVectorClock, VectorClock
from repro.core.backend import shm_available

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory on this host")


@pytest.fixture
def ring():
    ring = RecordRing.create(slots=8, side_bytes=64)
    yield ring
    ring.close()
    ring.unlink()


class TestValueCodec:
    CASES = [None, True, False, 0, 1, -1, 2 ** 62, -(2 ** 62), "", "héllo",
             "a" * 300, b"", b"\x00\xff raw", 0.0, -1.5, float("inf"),
             (), (1, "two", (3.0, None)), ((True,), (1,)), "\udcff"]

    def test_round_trip_preserves_value_and_type(self):
        for value in self.CASES:
            back = decode_value(encode_value(value))
            assert back == value
            assert type(back) is type(value)

    def test_equal_values_of_distinct_types_stay_distinct(self):
        # 1 / True / 1.0 compare equal; race reports must not conflate them.
        for a, b in [(1, True), (1, 1.0), ((1,), (True,))]:
            assert type(decode_value(encode_value(a))) is type(a)
            assert type(decode_value(encode_value(b))) is type(b)

    def test_pickle_fallback_for_exotic_values(self):
        value = frozenset({1, 2})
        assert decode_value(encode_value(value)) == value


class TestRecordRing:
    def test_record_and_side_round_trip(self, ring):
        assert ring.try_put(REC_ACTION, 0x21, 3, 7, 2 ** 40, 2 ** 33, 5, 8, 9,
                            b"side-bytes")
        ring.publish()
        rec = ring.get()
        assert rec == (REC_ACTION, 0x21, 3, 7, 2 ** 40, 2 ** 33, 5, 8, 9,
                       b"side-bytes")
        assert ring.get() is None

    def test_full_ring_refuses_without_staging(self, ring):
        for i in range(ring.slots):
            assert ring.try_put(1, 0, 0, 0, i, 0, 0, 0, 0)
        assert not ring.try_put(1, 0, 0, 0, 99, 0, 0, 0, 0)
        ring.publish()
        # Nothing was staged by the refused put: exactly `slots` records.
        seen = [ring.get()[4] for _ in range(ring.slots)]
        assert seen == list(range(ring.slots))
        assert ring.get() is None

    def test_side_region_overflow_refuses_whole_record(self, ring):
        assert ring.try_put(1, 0, 0, 0, 0, 0, 0, 0, 0, b"x" * 60)
        assert not ring.try_put(1, 0, 0, 0, 1, 0, 0, 0, 0, b"y" * 10)
        ring.publish()
        assert ring.get()[9] == b"x" * 60
        # Space acked back: the refused record now fits and is intact.
        assert ring.try_put(1, 0, 0, 0, 1, 0, 0, 0, 0, b"y" * 10)
        ring.publish()
        assert ring.get()[9] == b"y" * 10

    def test_wraparound_with_slow_consumer_never_drops_or_corrupts(self):
        """The property the backpressure story rests on: a tiny ring, a
        deliberately lagging consumer thread, thousands of records with
        position-derived payloads — every record arrives once, in order,
        byte-exact.  Producer blocks; nothing is ever dropped."""
        ring = RecordRing.create(slots=4, side_bytes=32)
        total = 3000
        received = []

        def consume():
            import time
            while len(received) < total:
                rec = ring.get()
                if rec is None:
                    time.sleep(0.0002)
                    continue
                received.append(rec)
                if len(received) % 7 == 0:
                    time.sleep(0.001)  # lag: force producer stalls

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            import time
            for i in range(total):
                side = (b"%06d" % i) * (i % 3)   # 0, 6 or 12 side bytes
                while not ring.try_put(1, i % 256, i % 65536, i, i, i * 3,
                                       i % 97, i + 1, i + 2, side):
                    ring.publish()
                    time.sleep(0.0002)
                if i % 5 == 0:
                    ring.publish()
            ring.publish()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            ring.close()
            ring.unlink()
        assert len(received) == total
        for i, rec in enumerate(received):
            assert rec == (1, i % 256, i % 65536, i, i, i * 3, i % 97,
                           i + 1, i + 2, (b"%06d" % i) * (i % 3)), i

    def test_occupancy_tracks_queued_bytes(self, ring):
        assert ring.occupancy_bytes() == 0
        ring.try_put(1, 0, 0, 0, 0, 0, 0, 0, 0, b"abcd")
        assert ring.occupancy_bytes() == 40 + 4
        ring.publish()
        ring.get()
        assert ring.occupancy_bytes() == 0
        assert ring.capacity_bytes() == 8 * 40 + 64

    def test_attach_sees_creators_records(self, ring):
        ring.try_put(1, 0, 0, 0, 42, 0, 0, 0, 0, b"hello")
        ring.publish()
        peer = RecordRing.attach(ring.name)
        try:
            assert peer.get()[4] == 42
        finally:
            peer.close()


class TestByteRing:
    def test_stream_round_trip_across_wraparound(self):
        ring = ByteRing.create(capacity=16)
        payload = bytes(range(256)) * 40
        out = []

        def consume():
            import time
            while not ring.eof:
                chunk = ring.read()
                if chunk:
                    out.append(chunk)
                else:
                    time.sleep(0.0002)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            ring.write_all(payload, timeout=30)
            ring.close_write()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            ring.close()
            ring.unlink()
        assert b"".join(out) == payload

    def test_write_all_times_out_on_stalled_consumer(self):
        ring = ByteRing.create(capacity=8)
        try:
            with pytest.raises(TimeoutError):
                ring.write_all(b"0123456789", timeout=0.05)
        finally:
            ring.close()
            ring.unlink()

    def test_eof_needs_close_and_drain(self):
        ring = ByteRing.create(capacity=64)
        try:
            ring.write_all(b"tail")
            assert not ring.eof
            ring.close_write()
            assert ring.closed and not ring.eof
            assert ring.read() == b"tail"
            assert ring.eof
        finally:
            ring.close()
            ring.unlink()


def _packed_corpus():
    """Hand-built packed stamped actions exercising every encoder path."""
    base = MutableVectorClock({"t1": 3, "t2": 5})
    stepped_a = base.stamp_next("t1")         # window 1, stamp 4
    stepped_b = base.stamp_next("t1")         # window 1 again, stamp 5
    base.inc_in_place("t2")
    stepped_c = base.stamp_next("t1")         # new base identity → re-ship
    plain = VectorClock({"t2": 7})            # no own component for t1
    wide_args = tuple(range(20))              # SPILL + WIDE
    return [
        (0, "t1", "put", ("k", 1), (None,), stepped_a),
        (1, "t1", "put", ("k", True), (None,), stepped_b),   # type-distinct
        (2, "t1", "get", ("k",), (1.0,), stepped_c),
        (3, "t1", "size", (), (2,), plain),
        (4, "t1", "batch", wide_args, wide_args, stepped_c),
        (5, "t1", "raw", (b"\x00\xff", ("nested", -9)), (), stepped_c),
    ]


class TestStampedCodec:
    def _round_trip(self, packed_actions, slots=256, side=4096):
        ring = RecordRing.create(slots=slots, side_bytes=side)
        try:
            encoder = StampedEncoder(ring)
            encoder.begin_object(0)
            for packed in packed_actions:
                encoder.encode_action(packed)
            encoder.end()
            encoder.publish()
            decoder = StampedDecoder(ring)
            out = [(pos, list(actions))
                   for pos, actions in decoder.streams()]
        finally:
            ring.close()
            ring.unlink()
        assert [pos for pos, _ in out] == [0]
        return out[0][1]

    def test_round_trip_is_value_and_type_identical(self):
        packed_actions = _packed_corpus()
        decoded = self._round_trip(packed_actions)
        assert len(decoded) == len(packed_actions)
        for want, got in zip(packed_actions, decoded):
            index, tid, method, args, returns, clock = want
            assert got[:5] == (index, tid, method, args, returns)
            assert got[5] == clock                         # exact clock
            assert got[5]._mapping() == clock._mapping()
            for w, g in zip(args + returns, got[3] + got[4]):
                assert type(g) is type(w)

    def test_round_trip_via_pack_stamped_action(self):
        # The real producer path: events stamped by phase A.
        from repro.core.events import action_event, Action
        clock = MutableVectorClock({"t": 1})
        packed = [pack_stamped_action(
            action_event("t", Action(obj="o", method="put",
                                     args=("k", i), returns=(None,))),
            i, clock.stamp_next("t")) for i in range(10)]
        decoded = self._round_trip(packed)
        assert decoded == packed

    def test_interning_dedups_repeats_but_not_types(self):
        ring = RecordRing.create(slots=256, side_bytes=4096)
        try:
            encoder = StampedEncoder(ring)
            clock = MutableVectorClock({"t": 1})
            packed = (0, "t", "put", (1,), (), clock.stamp_next("t"))
            encoder.begin_object(0)
            encoder.encode_action(packed)
            first = encoder.bytes_written
            encoder.encode_action((1, "t", "put", (1,), (),
                                   clock.stamp_next("t")))
            repeat_cost = encoder.bytes_written - first
            encoder.encode_action((2, "t", "put", (True,), (),
                                   clock.stamp_next("t")))
            distinct_cost = encoder.bytes_written - first - repeat_cost
            # Fully interned repeat: exactly one 40-byte ACTION record.
            assert repeat_cost == 40
            # True interns fresh even though True == 1.
            assert distinct_cost > 40
        finally:
            ring.close()
            ring.unlink()

    def test_ring_full_encode_is_retry_safe(self):
        """RingFull must leave the encoder idempotent: retrying after a
        drain produces the same stream as an unconstrained encode."""
        packed_actions = _packed_corpus()
        reference = self._round_trip(packed_actions)
        # Absurdly tight, but any *single* record still fits (the widest
        # SPILL side here is 164 bytes) — a too-small side region would
        # deadlock rather than block, by design.
        ring = RecordRing.create(slots=2, side_bytes=256)
        try:
            encoder = StampedEncoder(ring)
            decoder = StampedDecoder(ring)
            decoded = []
            feeder = feed_shard(encoder, [packed_actions], chunk=1)
            consumer = decoder.streams()
            stalls = 0

            def drain_some():
                rec = ring.get()
                drained = rec is not None
                while rec is not None:
                    decoded.append(rec)
                    rec = ring.get()
                return drained

            while True:
                try:
                    progressed = next(feeder)
                except StopIteration:
                    break
                if not progressed:
                    stalls += 1
                    assert drain_some(), "blocked without queued records"
            drain_some()
            assert stalls > 0, "ring too large to exercise RingFull"
        finally:
            ring.close()
            ring.unlink()
        # Replay the raw drained records through a fresh decoder ring.
        replay = RecordRing.create(slots=len(decoded) + 1,
                                   side_bytes=1 << 16)
        try:
            for rec in decoded:
                assert replay.try_put(*rec[:9], side=rec[9])
            replay.publish()
            out = [(pos, list(actions))
                   for pos, actions in StampedDecoder(replay).streams()]
        finally:
            replay.close()
            replay.unlink()
        assert out[0][1] == reference
