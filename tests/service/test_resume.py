"""Crash-resume: fast-forward validation, degradation, kill -9 writers.

The resume design under test: a reconnecting tenant re-streams its trace
from event zero, the server fast-forwards through the checkpointed
prefix while recomputing the fingerprint digest, and only a digest match
lets the checkpointed analyzer continue — any defect (edited trace,
corrupt file, version skew such as a version-2 file) degrades to a fresh analysis, never a wrong
one.  The kill -9 test is the satellite-3 acceptance: two tenants
writing *concurrently* into one shared checkpoint directory, both
clients SIGKILLed mid-stream, both resumed byte-identically — under
whatever multiprocessing start method ``REPRO_TEST_START_METHOD``
selects.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.core.checkpoint import read_sealed_payload
from repro.core.errors import CheckpointError
from repro.service import ControlClient, ServiceClient, SessionConfig
from repro.service.chaos import offline_race_lines
from repro.service.checkpoints import (TENANT_CHECKPOINT_VERSION,
                                       TENANT_MAGIC, load_tenant_checkpoint,
                                       save_tenant_checkpoint,
                                       tenant_checkpoint_path)
from repro.testing.workloads import tenant_trace_text

RACY_SEED = 18          # single dictionary, 133 events, many races
SECOND_SEED = 9         # msetlog + counter, different shape
KILL_OPS = 120          # ops per thread for the kill -9 workloads


def resume_session_config(tmp_path) -> SessionConfig:
    return SessionConfig(window=8, checkpoint_dir=str(tmp_path / "ckpt"),
                         checkpoint_interval=16)


def served_races(control, tenant):
    lines = control.races(tenant)
    return [] if lines == ["(no races)"] else lines


def stream_past_busy(client, tenant, bindings, text, **kw):
    """One real attempt, skipping the short busy window while the server
    is still winding down this tenant's previous (killed) connection."""
    for _ in range(100):
        result = client.stream_text(tenant, bindings, text, **kw)
        if not result.final.startswith("ERR busy"):
            return result
        time.sleep(0.05)
    pytest.fail(f"server stayed busy for tenant {tenant}")


class TestFastForwardResume:
    def test_torn_stream_resumes_byte_identically(self, make_server,
                                                  tmp_path):
        host = make_server(session=resume_session_config(tmp_path))
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        # Kill the stream mid-record, well past the checkpoint cadence.
        torn = client.stream_text("web", bindings, text,
                                  truncate_at=(len(text) * 3) // 4)
        assert torn.status == "disconnected"
        attempts = client.stream_until_done("web", bindings, text)
        final = attempts[-1]
        assert final.status == "done", attempts
        assert final.resumed > 0  # the server really fast-forwarded
        assert served_races(control, "web") \
            == offline_race_lines(trace, bindings)
        stats = control.stats()
        assert stats["counters"]["tenants_resumed"] >= 1
        assert stats["counters"]["tenant_checkpoints_written"] >= 1

    def test_edited_trace_rejects_checkpoint_then_fresh(self, make_server,
                                                        tmp_path):
        host = make_server(session=resume_session_config(tmp_path))
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        torn = client.stream_text("web", bindings, text,
                                  truncate_at=(len(text) * 3) // 4)
        assert torn.status == "disconnected"
        # "Edit" the trace: swap the first two fork records.  Same
        # events, different prefix — the fingerprint digest must veto
        # the fast-forward.
        lines = text.splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        edited = "\n".join(lines) + "\n"
        rejected = stream_past_busy(client, "web", bindings, edited)
        assert rejected.resumed > 0
        assert rejected.final.startswith("ERR checkpoint-rejected")
        # The dumb-client retry then gets a fresh, correct analysis of
        # the edited trace.
        final = client.stream_until_done("web", bindings, edited)[-1]
        assert final.status == "done", final
        assert final.ack == "OK NEW"
        from repro.core.serialize import loads_trace
        assert served_races(control, "web") \
            == offline_race_lines(loads_trace(edited), bindings)

    def test_corrupt_checkpoint_degrades_to_fresh(self, make_server,
                                                  tmp_path):
        host = make_server(session=resume_session_config(tmp_path))
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        torn = client.stream_text("web", bindings, text,
                                  truncate_at=(len(text) * 3) // 4)
        assert torn.status == "disconnected"
        path = tenant_checkpoint_path(str(tmp_path / "ckpt"), "web")
        _wait_for(lambda: os.path.exists(path), timeout=30,
                  what="the disconnect checkpoint")
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        final = stream_past_busy(client, "web", bindings, text)
        assert final.ack == "OK NEW"  # degraded, not dead
        assert final.status == "done"
        assert served_races(control, "web") \
            == offline_race_lines(trace, bindings)
        assert control.stats()["counters"][
            "tenant_checkpoints_rejected"] >= 1

    def test_version_2_checkpoint_degrades_to_fresh(self, make_server,
                                                     tmp_path):
        # A version-2 file pickles an analyzer whose detector layout this
        # build no longer has: the version guard must reject it instead
        # of resuming that analyzer, and the retry must be a fresh
        # analysis byte-identical to the offline one.
        host = make_server(session=resume_session_config(tmp_path))
        client = ServiceClient(host.config.socket_path)
        control = ControlClient(host.config.control_path)
        text, bindings, trace = tenant_trace_text(RACY_SEED)
        torn = client.stream_text("web", bindings, text,
                                  truncate_at=(len(text) * 3) // 4)
        assert torn.status == "disconnected"
        directory = str(tmp_path / "ckpt")
        path = tenant_checkpoint_path(directory, "web")
        _wait_for(lambda: os.path.exists(path), timeout=30,
                  what="the disconnect checkpoint")
        checkpoint = pickle.loads(
            read_sealed_payload(path, magic=TENANT_MAGIC))
        assert checkpoint.version == TENANT_CHECKPOINT_VERSION == 3
        checkpoint.version = 2
        save_tenant_checkpoint(directory, checkpoint)
        with pytest.raises(CheckpointError, match="version 2"):
            load_tenant_checkpoint(directory, "web")
        final = stream_past_busy(client, "web", bindings, text)
        assert final.ack == "OK NEW"  # degraded, not dead
        assert final.status == "done"
        assert served_races(control, "web") \
            == offline_race_lines(trace, bindings)
        assert control.stats()["counters"][
            "tenant_checkpoints_rejected"] >= 1

    def test_changed_bindings_silently_start_fresh(self, make_server,
                                                   tmp_path):
        host = make_server(session=resume_session_config(tmp_path))
        client = ServiceClient(host.config.socket_path)
        text, bindings, _ = tenant_trace_text(RACY_SEED)
        torn = client.stream_text("web", bindings, text,
                                  truncate_at=(len(text) * 3) // 4)
        assert torn.status == "disconnected"
        other_text, other_bindings, other_trace = tenant_trace_text(
            SECOND_SEED)
        assert other_bindings != bindings
        final = stream_past_busy(client, "web", other_bindings, other_text)
        assert final.ack == "OK NEW"
        assert final.status == "done"


# -- satellite 3: concurrent writers, kill -9 --------------------------------

def _slow_writer(socket_path: str, tenant: str, seed: int,
                 delay: float) -> None:
    """Stream one tenant's trace one record at a time, forever slowly.

    Module-level so the ``spawn`` start method can import it.  The
    parent SIGKILLs this process mid-stream; the trailing hold keeps the
    socket open so the kill is what ends the stream, not completion.
    """
    import socket as socketlib

    from repro.service.protocol import encode_hello
    from repro.testing.workloads import tenant_trace_text as make_text

    text, bindings, _ = make_text(seed, min_ops=KILL_OPS, max_ops=KILL_OPS)
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.connect(socket_path)
    sock.sendall((encode_hello(tenant, bindings) + "\n").encode())
    sock.makefile("rb").readline()  # ack
    for line in text.splitlines():
        sock.sendall((line + "\n").encode())
        time.sleep(delay)
    time.sleep(600)


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


def _status_events(control, tenant) -> int:
    for line in control.status():
        if line.startswith(f"{tenant} "):
            for field in line.split():
                if field.startswith("events="):
                    return int(field[len("events="):])
    return 0


class TestKillNineWriters:
    def test_concurrent_sigkilled_writers_resume_from_shared_dir(
            self, make_server, tmp_path, start_method):
        host = make_server(session=resume_session_config(tmp_path))
        control = ControlClient(host.config.control_path)
        client = ServiceClient(host.config.socket_path)
        ckpt_dir = str(tmp_path / "ckpt")
        ctx = multiprocessing.get_context(start_method)
        writers = {
            "alpha": (RACY_SEED,
                      ctx.Process(target=_slow_writer, daemon=True,
                                  args=(host.config.socket_path, "alpha",
                                        RACY_SEED, 0.003))),
            "beta": (SECOND_SEED,
                     ctx.Process(target=_slow_writer, daemon=True,
                                 args=(host.config.socket_path, "beta",
                                       SECOND_SEED, 0.003))),
        }
        for _, process in writers.values():
            process.start()
        try:
            # Let both sessions get well past the checkpoint cadence,
            # then kill -9 both clients mid-stream.
            for tenant in writers:
                _wait_for(lambda t=tenant: _status_events(control, t) >= 40,
                          timeout=60,
                          what=f"{tenant} to stream 40 events")
            for _, process in writers.values():
                os.kill(process.pid, signal.SIGKILL)
            for _, process in writers.values():
                process.join(timeout=10)
                assert process.exitcode == -signal.SIGKILL
            # The server notices both EOFs and parks both tenants'
            # checkpoints in the *shared* directory, under distinct
            # namespaced names.
            paths = {tenant: tenant_checkpoint_path(ckpt_dir, tenant)
                     for tenant in writers}
            assert len(set(paths.values())) == 2
            for tenant, path in paths.items():
                _wait_for(lambda p=path: os.path.exists(p), timeout=30,
                          what=f"checkpoint for {tenant}")
            # Both tenants reconnect, fast-forward, and finish with
            # reports byte-identical to offline analysis.
            for tenant, (seed, _) in writers.items():
                text, bindings, trace = tenant_trace_text(
                    seed, min_ops=KILL_OPS, max_ops=KILL_OPS)
                attempts = client.stream_until_done(tenant, bindings, text)
                final = attempts[-1]
                assert final.status == "done", (tenant, attempts)
                assert any(a.resumed > 0 for a in attempts), (tenant,
                                                              attempts)
                observed = served_races(control, tenant)
                assert observed == offline_race_lines(trace, bindings), \
                    tenant
            assert control.stats()["counters"]["tenants_resumed"] >= 2
        finally:
            for _, process in writers.values():
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
