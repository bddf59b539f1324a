"""Backend selection: the resolution table and its fallback reasons.

``resolve_backend`` must never fail hard — ``auto`` and ``shm`` map to
the shm transport or to in-process replay, and whenever the selection is
not simply the request the :class:`~repro.core.backend.BackendChoice`
carries a human-readable reason (the CLI prints it; operators grep for
it).  The probe is monkeypatched here so the whole table is testable on
any host, including hosts where shared memory genuinely works.
"""

import pytest

from repro.core import backend
from repro.core.backend import BackendChoice, resolve_backend


@pytest.fixture
def probes(monkeypatch):
    """Control the runtime probe; returns a dict to flip per-test."""
    state = {"shm": True}
    monkeypatch.setattr(backend, "shm_available", lambda: state["shm"])
    return state


class TestResolutionTable:
    def test_shm_honored_when_available(self, probes):
        assert resolve_backend("shm") == BackendChoice("shm", "shm")

    def test_shm_falls_back_to_inline_with_reason(self, probes):
        probes["shm"] = False
        choice = resolve_backend("shm")
        assert (choice.selected, choice.requested) == ("inline", "shm")
        assert "unavailable" in choice.reason
        assert choice.reason in choice.describe()

    def test_auto_prefers_shm_then_inline(self, probes):
        choice = resolve_backend("auto")
        assert choice.selected == "shm"
        # The CLI prints "backend: auto -> shm (reason)"; tools read the
        # selected transport off that line, so auto always gives a reason.
        assert choice.reason is not None
        probes["shm"] = False
        choice = resolve_backend("auto")
        assert choice.selected == "inline"
        assert "unavailable" in choice.reason

    def test_unknown_backend_is_a_value_error(self):
        for name in ("carrier-pigeon", "pickle", "thread"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(name)


class TestProbes:
    def test_probe_results_are_cached(self, monkeypatch):
        backend._reset_probe_cache()
        calls = {"n": 0}
        from multiprocessing import shared_memory
        original = shared_memory.SharedMemory

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", counting)
        try:
            first = backend.shm_available()
            again = backend.shm_available()
        finally:
            backend._reset_probe_cache()
        assert first is again
        assert calls["n"] <= 1

    def test_reset_hook_forgets_cached_probes(self):
        backend._reset_probe_cache()
        assert backend._SHM_PROBE is None
        backend.shm_available()
        assert backend._SHM_PROBE is not None
        backend._reset_probe_cache()
        assert backend._SHM_PROBE is None

    def test_choice_is_immutable(self):
        choice = BackendChoice("auto", "shm", "why")
        with pytest.raises(Exception):
            choice.selected = "inline"
