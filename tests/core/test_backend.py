"""Backend selection: the resolution table and its fallback reasons.

``resolve_backend`` must never fail hard — every request maps to a
usable backend, and whenever the selection differs from the request the
:class:`~repro.core.backend.BackendChoice` carries a human-readable
reason (the CLI prints it; operators grep for it).  The probes are
monkeypatched here so the whole table is testable on any host,
including hosts where shared memory genuinely works.
"""

import pytest

from repro.core import backend
from repro.core.backend import BackendChoice, resolve_backend


@pytest.fixture
def probes(monkeypatch):
    """Control every runtime probe; returns a dict to flip per-test."""
    state = {"shm": True, "free_threaded": False}
    monkeypatch.setattr(backend, "shm_available", lambda: state["shm"])
    monkeypatch.setattr(backend, "free_threaded",
                        lambda: state["free_threaded"])
    return state


class TestResolutionTable:
    def test_pickle_and_thread_always_honored(self, probes):
        probes["shm"] = False
        for name in ("pickle", "thread"):
            choice = resolve_backend(name)
            assert choice == BackendChoice(name, name)
            assert choice.describe() == name

    def test_shm_honored_when_available(self, probes):
        assert resolve_backend("shm") == BackendChoice("shm", "shm")

    def test_shm_falls_back_to_pickle_with_reason(self, probes):
        probes["shm"] = False
        choice = resolve_backend("shm")
        assert (choice.selected, choice.requested) == ("pickle", "shm")
        assert "unavailable" in choice.reason
        assert choice.reason in choice.describe()

    def test_auto_prefers_free_threading_then_shm_then_pickle(self, probes):
        probes["free_threaded"] = True
        assert resolve_backend("auto").selected == "thread"
        probes["free_threaded"] = False
        choice = resolve_backend("auto")
        assert choice.selected == "shm"
        assert "GIL" in choice.reason
        probes["shm"] = False
        assert resolve_backend("auto").selected == "pickle"

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("carrier-pigeon")


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
            choice.selected = "pickle"
