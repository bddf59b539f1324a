"""Shard supervision semantics, one failure mode at a time.

Each test drives :class:`ShardSupervisor` directly over the shm transport
(:class:`~repro.core.parallel.ShmRounds`, one worker process and one
shared-memory ring per job) with real shard payloads from a tiny trace, a
trivial worker that reads them and a deterministic fault plan, asserting
three things: the results are the fault-free
results, the recovery path taken is the intended one (retry vs.
in-process fallback), and the failure is accounted for in the fault log
and obs counters.  The plans fire inside the shm worker processes; a host
without shared memory has no worker processes for them to fire in, so
those tests skip there.
"""

import multiprocessing

import pytest

from repro.core import parallel
from repro.core.backend import shm_available
from repro.core.errors import MonitorError
from repro.core.faults import FaultLog
from repro.core.parallel import ShardedDetector, ShmRounds
from repro.core.shmem import RecordRing
from repro.core.supervise import ShardSupervisor, SupervisorConfig
from repro.core.trace import TraceBuilder
from repro.obs.registry import Registry
from repro.specs.dictionary import dictionary_representation
from repro.testing.faults import FaultPlan, FaultSpec

from tests.faults._workers import actions, boom
from tests.faults.conftest import FAST_TIMEOUT, HANG_SECONDS, START_METHOD


def shard_payloads(count=2):
    """The shard payloads of a tiny trace: ``count`` objects, one a shard."""
    detector = ShardedDetector(workers=count)
    builder = TraceBuilder(root=0).fork(0, 1)
    for shard in range(count):
        obj = f"d{shard}"
        detector.register_object(obj, dictionary_representation())
        builder.invoke(0, obj, "put", "k", shard, returns=None)
        builder.invoke(1, obj, "get", "k", returns=shard)
    groups, _ = detector._stamp_and_partition(builder.build())
    return detector._payloads(groups)


def expected(payloads):
    """The fault-free results: the worker run in-process on each payload."""
    return [actions(index, payload, 0)
            for index, payload in enumerate(payloads)]


needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared memory on this host")


class Supervised:
    """A supervisor plus its shm round runner, run as one unit."""

    def __init__(self, worker, config, obs, faults):
        self.sup = ShardSupervisor(worker, config=config, obs=obs,
                                   faults=faults)
        self.runner = ShmRounds(config, mp_context=START_METHOD, obs=obs)
        self.faults = self.sup.faults

    def run(self, payloads):
        return self.sup.run_rounds(payloads, self.runner)


def supervisor(worker=actions, plan=None, retries=2, timeout=60.0, obs=None,
               faults=None):
    config = SupervisorConfig(
        shard_timeout=timeout, max_retries=retries, backoff_base=0.0,
        wrap=plan.wrap if plan is not None else None)
    return Supervised(worker, config, obs, faults)


def segment_names(monkeypatch):
    """Record the name of every ring the shm transport creates."""
    names = []
    create = RecordRing.create.__func__

    def recording(cls, *args, **kwargs):
        ring = create(cls, *args, **kwargs)
        names.append(ring.name)
        return ring

    monkeypatch.setattr(RecordRing, "create", classmethod(recording))
    return names


def assert_unlinked(names):
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            RecordRing.attach(name)


@needs_shm
def test_fault_free_run_in_payload_order():
    sup = supervisor()
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    assert not sup.faults


@needs_shm
def test_worker_exception_retried_then_succeeds():
    plan = FaultPlan.build({0: FaultSpec("raise", times=1)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=2, obs=obs)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(site="shard", kind="worker-raised") == 1
    assert sup.faults.count(kind="fallback") == 0
    snapshot = obs.snapshot()
    assert snapshot["counters"]["shard_worker_errors"] == 1
    assert snapshot["counters"]["shard_retries"] == 1
    assert snapshot["breakdowns"]["faults_by_kind"] == {
        "shard/worker-raised": 1}


@needs_shm
def test_exhausted_retries_fall_back_in_process():
    # The shard fails on every worker attempt; only the in-process replay
    # (where injected faults never fire) can complete it.
    plan = FaultPlan.build({1: FaultSpec("raise", times=99)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=1, obs=obs)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(kind="worker-raised") == 2  # attempts 0 and 1
    assert sup.faults.count(kind="fallback") == 1
    assert obs.snapshot()["counters"]["shard_fallbacks"] == 1


@needs_shm
def test_hung_worker_times_out_and_recovers():
    plan = FaultPlan.build({0: FaultSpec("hang", times=99,
                                         seconds=HANG_SECONDS)})
    sup = supervisor(plan=plan, retries=0, timeout=FAST_TIMEOUT)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(kind="timeout") == 1
    assert sup.faults.count(kind="fallback") == 1
    assert not multiprocessing.active_children()


@needs_shm
def test_killed_worker_detected_then_retries():
    # os._exit takes the worker down without an exception or a result;
    # its result pipe closes unanswered, which the round reports as a
    # dead worker — no need to wait out the shard deadline.
    plan = FaultPlan.build({0: FaultSpec("exit", times=1)})
    sup = supervisor(plan=plan, retries=1, timeout=FAST_TIMEOUT)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    [record] = [fault for fault in sup.faults
                if fault.kind == "worker-raised"]
    assert "died" in record.detail
    assert sup.faults.count(kind="timeout") == 0
    assert sup.faults.count(kind="fallback") == 0  # retry succeeded


@needs_shm
def test_unpicklable_result_degrades_without_retry():
    # A result that cannot cross the pipe fails identically on every
    # worker attempt, so the supervisor must skip straight to the inline
    # fallback instead of burning retries.
    plan = FaultPlan.build({0: FaultSpec("bad-result", times=99)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=2, obs=obs)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(kind="result-unpicklable") == 1
    assert sup.faults.count(kind="fallback") == 1
    assert "shard_retries" not in obs.snapshot()["counters"]


@needs_shm
def test_every_shard_faulting_still_completes():
    plan = FaultPlan(default=FaultSpec("raise", times=1))
    sup = supervisor(plan=plan, retries=1)
    payloads = shard_payloads(3)
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(kind="worker-raised") == 3


@needs_shm
def test_shared_fault_log_and_private_default():
    log = FaultLog()
    plan = FaultPlan.build({0: FaultSpec("raise", times=1)})
    sup = supervisor(plan=plan, faults=log)
    sup.run(shard_payloads())
    assert sup.faults is log and log.count(kind="worker-raised") == 1
    assert isinstance(supervisor().faults, FaultLog)


@needs_shm
def test_keyboard_interrupt_terminates_pool_without_orphans(monkeypatch):
    # Ctrl-C while the round feeds its rings: every worker process of the
    # round is terminated and every ring segment unlinked on the way out.
    def interrupt(encoder, sections):
        raise KeyboardInterrupt
        yield

    names = segment_names(monkeypatch)
    monkeypatch.setattr(parallel, "feed_shard", interrupt)
    sup = supervisor()
    with pytest.raises(KeyboardInterrupt):
        sup.run(shard_payloads())
    assert not multiprocessing.active_children()
    assert_unlinked(names)


@needs_shm
def test_failed_worker_start_unlinks_its_segment(monkeypatch):
    # The ring exists before the worker process does; a start that fails
    # (too many open files, an unpicklable worker under spawn) must not
    # leak the segment.
    def refuse(self):
        raise OSError("injected: cannot start worker")

    names = segment_names(monkeypatch)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    with pytest.raises(OSError, match="injected"):
        supervisor().run(shard_payloads())
    assert_unlinked(names)


@needs_shm
def test_unsupervised_round_fails_loudly(monkeypatch):
    # supervise=False is one bare shm round: no retry, no fallback, and a
    # failing shard surfaces as a MonitorError instead of a wrong report.
    monkeypatch.setattr(parallel, "_shard_job", boom)
    detector = ShardedDetector(workers=2, mp_context=START_METHOD,
                               supervise=False)
    for obj in ("a", "b"):
        detector.register_object(obj, dictionary_representation())
    trace = (TraceBuilder(root=0).fork(0, 1)
             .invoke(0, "a", "size", returns=0)
             .invoke(1, "b", "size", returns=0).build())
    with pytest.raises(MonitorError, match="worker-raised"):
        detector.run(trace)
    assert not detector.faults
    assert not multiprocessing.active_children()


def test_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(shard_timeout=0)
    with pytest.raises(ValueError):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorConfig(backoff_factor=0.5)
    assert SupervisorConfig(shard_timeout=None).shard_timeout is None


def test_backoff_schedule_is_exponential():
    config = SupervisorConfig(backoff_base=0.1, backoff_factor=2.0)
    assert [config.backoff(i) for i in range(3)] == [0.1, 0.2, 0.4]


@needs_shm
def test_payloads_serialize_once_across_retries():
    # Retried shards must reuse the payload bytes pickled on attempt 0 —
    # the serialize-once contract, visible as the shard_payload_reuse
    # counter and an ipc_bytes_pickled volume that does not grow.
    plan = FaultPlan.build({0: FaultSpec("raise", times=2)})
    obs = Registry(sample_interval=1)
    sup = supervisor(plan=plan, retries=3, obs=obs)
    payloads = shard_payloads()
    assert sup.run(payloads) == expected(payloads)
    counters = obs.snapshot()["counters"]
    assert counters["shard_retries"] == 2
    assert counters["shard_payload_reuse"] == 2     # one per retry
    assert counters["ipc_bytes_pickled"] > 0
    # A fault-free run pickles each payload exactly once: same volume.
    clean_obs = Registry(sample_interval=1)
    clean = supervisor(obs=clean_obs)
    assert clean.run(payloads) == expected(payloads)
    clean_counters = clean_obs.snapshot()["counters"]
    assert "shard_payload_reuse" not in clean_counters
    assert counters["ipc_bytes_pickled"] \
        == clean_counters["ipc_bytes_pickled"]


@needs_shm
def test_unpicklable_task_degrades_without_retry():
    # A payload that cannot pickle can never reach a worker process; the
    # supervisor must complete it via the inline fallback, no retries.
    payloads = shard_payloads()
    obj, _, strategy, packed = payloads[1][5][0]
    payloads[1] = payloads[1][:5] + (
        [(obj, lambda: None, strategy, packed)],)  # lambdas cannot pickle
    sup = supervisor()
    assert sup.run(payloads) == expected(payloads)
    assert sup.faults.count(kind="task-unpicklable") == 1
    assert sup.faults.count(kind="fallback") == 1
