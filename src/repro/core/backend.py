"""Runtime selection of the shard fan-out execution backend.

The sharded pipeline can push stamped actions to workers three ways:

``pickle``
    The original path: full payload pickled per shard into a
    ``multiprocessing.Pool``.  Always available; the fallback of last
    resort.
``shm``
    Zero-pickle: stamped actions encoded into per-shard
    ``multiprocessing.shared_memory`` record rings
    (:mod:`repro.core.shmem`); only the per-worker init payload
    (registrations, plans, knobs) is pickled, once.
``thread``
    A thread pool running the shard worker in-process.  Only a true
    parallelism win on free-threaded (PEP 703, 3.13t) interpreters;
    on a GIL build it is selected only when explicitly requested
    (useful for debugging — zero IPC of any kind).

``resolve_backend`` turns a user request (including ``auto``) into a
:class:`BackendChoice` with the selected mode and a human-readable
reason whenever the selection differs from the request — the CLI prints
it, tests assert on it, and nothing ever fails hard just because an
optional runtime feature is missing.
"""

from __future__ import annotations

import sys
import sysconfig
from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKENDS", "BackendChoice", "resolve_backend", "shm_available",
           "free_threaded"]

BACKENDS = ("auto", "pickle", "shm", "thread")


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


def free_threaded() -> bool:
    """True only on a free-threaded build *with the GIL actually off*."""
    gil_check = getattr(sys, "_is_gil_enabled", None)
    if gil_check is not None:
        try:
            return not gil_check()
        except Exception:
            return False
    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


def resolve_backend(requested: str) -> BackendChoice:
    """Map a requested backend to a usable one, never failing hard.

    Fallback chains: ``shm → pickle`` and ``auto → thread``
    (free-threaded only) ``→ shm → pickle``.
    ``thread`` and ``pickle`` are always honored as requested.
    """
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if requested == "pickle" or requested == "thread":
        return BackendChoice(requested, requested)
    if requested == "shm":
        if shm_available():
            return BackendChoice(requested, "shm")
        return BackendChoice(requested, "pickle",
                             "shared memory unavailable on this host")
    # auto
    if free_threaded():
        return BackendChoice(requested, "thread",
                             "free-threaded interpreter detected")
    if shm_available():
        return BackendChoice(requested, "shm",
                             "GIL enabled; shared-memory rings selected")
    return BackendChoice(requested, "pickle",
                         "GIL enabled and shared memory unavailable")


def _reset_probe_cache() -> None:
    """Test hook: forget cached probe results."""
    global _SHM_PROBE
    _SHM_PROBE = None
