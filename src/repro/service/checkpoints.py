"""Per-tenant stream checkpoints: atomic, namespaced, prefix-validated.

A tenant checkpoint freezes one tenant's whole streaming state — the
:class:`~repro.core.stream.StreamAnalyzer` (detector, happens-before
tables, races found so far), the number of events consumed, and the
SHA-256 fingerprint digest of exactly that trace prefix.  A reconnecting
tenant re-streams its trace from event zero; the server fast-forwards
through ``events_processed`` events, recomputing the digest, and adopts
the checkpointed analyzer only when the digests agree — resuming against
an edited or different trace is detected before a single event is
trusted, mirroring the phase-A resume guards.

Files ride the sealed-payload container from
:mod:`repro.core.checkpoint` (own magic, 8-byte length, SHA-256,
pickled payload; atomic tmp/fsync/replace writes), so torn writes and
corruption surface as :class:`~repro.core.errors.CheckpointError` and
degrade to a fresh analysis — never a wrong one.

Namespacing: many tenants (possibly from many daemons) share one
checkpoint directory.  Each tenant's file name is a sanitized slug of
its name *plus* a short content hash of the raw name, so two tenants
whose names collapse to the same slug (``"a/b"`` vs ``"a_b"``) can never
collide on disk.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.checkpoint import read_sealed_payload, write_sealed_payload
from ..core.errors import CheckpointError

__all__ = ["TENANT_CHECKPOINT_VERSION", "TenantCheckpoint",
           "tenant_checkpoint_path", "save_tenant_checkpoint",
           "load_tenant_checkpoint", "discard_tenant_checkpoint"]

TENANT_MAGIC = b"repro-tenant-checkpoint\n"
# Version 2 added ``declared_events``: a resumed tenant whose reconnect
# hello omits the declared count (killed writer, headerless re-stream)
# adopts the checkpointed one, so completion detection survives resume.
# Version 3: the pickled analyzer's layout changed — the detector lost
# its ``_compiled`` attribute, and every ENUMERATE object's state now
# carries a check plan.  Older files fail the version guard below and
# degrade to a fresh analysis — safe, the documented skew behavior.
TENANT_CHECKPOINT_VERSION = 3

_SLUG_BAD = re.compile(r"[^A-Za-z0-9._-]")


@dataclass
class TenantCheckpoint:
    """One tenant's resumable streaming state (see module docstring)."""

    version: int
    tenant: str
    root: object
    events_processed: int
    prefix_digest: str
    bindings: Dict[str, str]
    analyzer: object  # the pickled StreamAnalyzer, hooks detached
    #: The trace header's declared event count at checkpoint time (None
    #: for headerless streams) — resume metadata so a reconnecting
    #: tenant can still recognize end-of-trace.
    declared_events: Optional[int] = None


def tenant_checkpoint_path(directory: str, tenant: str) -> str:
    """The collision-free checkpoint path for ``tenant`` in ``directory``."""
    slug = _SLUG_BAD.sub("_", tenant)[:48] or "tenant"
    tag = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:12]
    return os.path.join(directory, f"tenant-{slug}-{tag}.ckpt")


def save_tenant_checkpoint(directory: str,
                           checkpoint: TenantCheckpoint) -> str:
    """Atomically persist ``checkpoint``; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = tenant_checkpoint_path(directory, checkpoint.tenant)
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    write_sealed_payload(path, payload, magic=TENANT_MAGIC)
    return path


def load_tenant_checkpoint(directory: str,
                           tenant: str) -> Optional[TenantCheckpoint]:
    """The tenant's checkpoint, ``None`` if absent.

    Any defect in a file that *is* present — truncation, digest
    mismatch, foreign magic, version skew, or a tenant-name mismatch
    (slug collision would require a broken hash, but the guard is
    cheap) — raises :class:`CheckpointError` for the caller to degrade.
    """
    path = tenant_checkpoint_path(directory, tenant)
    if not os.path.exists(path):
        return None
    payload = read_sealed_payload(path, magic=TENANT_MAGIC)
    try:
        checkpoint = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{path} payload does not unpickle: {exc}") from exc
    if not isinstance(checkpoint, TenantCheckpoint):
        raise CheckpointError(
            f"{path} does not contain a TenantCheckpoint "
            f"(got {type(checkpoint).__name__})")
    if checkpoint.version != TENANT_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has unsupported tenant-checkpoint version "
            f"{checkpoint.version} (this build reads "
            f"version {TENANT_CHECKPOINT_VERSION})")
    if checkpoint.tenant != tenant:
        raise CheckpointError(
            f"{path} belongs to tenant {checkpoint.tenant!r}, "
            f"not {tenant!r}")
    return checkpoint


def discard_tenant_checkpoint(directory: str, tenant: str) -> None:
    """Remove a (rejected) checkpoint; missing files are fine."""
    try:
        os.unlink(tenant_checkpoint_path(directory, tenant))
    except OSError:
        pass
