"""Runtime selection of the shard fan-out transport.

The sharded pipeline has one cross-process transport, ``shm``: stamped
actions are encoded into per-shard ``multiprocessing.shared_memory``
record rings (:mod:`repro.core.shmem`) and replayed by one worker
process per shard; only the per-worker init payload (registrations,
plans, knobs) is pickled, once.  A host that cannot create a
shared-memory segment gets ``inline`` instead: the shards replay
in-process through the same shard function, with no worker processes.

``resolve_backend`` turns a request (``auto`` or ``shm``) into a
:class:`BackendChoice` with the selected transport and a human-readable
reason whenever the selection is not simply what was asked for — the CLI
prints it, tests assert on it, and nothing ever fails hard just because
``/dev/shm`` is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKENDS", "BackendChoice", "resolve_backend", "shm_available"]

BACKENDS = ("auto", "shm")


@dataclass(frozen=True)
class BackendChoice:
    """What the user asked for, what they got, and why (if different)."""

    requested: str
    selected: str
    reason: Optional[str] = None

    def describe(self) -> str:
        if self.reason is None:
            return self.selected
        return f"{self.selected} ({self.reason})"


_SHM_PROBE: Optional[bool] = None


def shm_available() -> bool:
    """Can this host actually create shared-memory segments?

    Some sandboxes mount ``/dev/shm`` read-only or not at all; probing
    with a real 1-byte segment is the only reliable signal.
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(create=True, size=1)
            seg.close()
            seg.unlink()
            _SHM_PROBE = True
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE


def resolve_backend(requested: str) -> BackendChoice:
    """Map a requested backend to ``shm`` or ``inline``, never failing hard.

    Both requests select ``shm`` when the host can create shared memory
    (``auto`` says so in its reason) and fall back to in-process replay
    otherwise.
    """
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if not shm_available():
        return BackendChoice(requested, "inline",
                             "shared memory unavailable on this host")
    if requested == "shm":
        return BackendChoice(requested, "shm")
    return BackendChoice(requested, "shm", "shared-memory rings selected")


def _reset_probe_cache() -> None:
    """Test hook: forget cached probe results."""
    global _SHM_PROBE
    _SHM_PROBE = None
