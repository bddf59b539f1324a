"""Compiled per-object check plans — the detector's ENUMERATE fast path.

Algorithm 1's per-action work against a :class:`~repro.core.access_points.
SchemaRepresentation` repeatedly asks the representation questions whose
answers never change after registration: which schemas carry values, which
schemas conflict with which (and in what enumeration order), and what ηo
is.  The generic path answers them through ``points_of`` (re-validating
every ``(schema, value)`` pair per action) and the ``conflicting_candidates``
generator (re-instantiating ``Co(pt)`` per probe).

A :class:`CheckPlan` is those answers flattened at ``register_object`` time
into one plain dict of plain tuples::

    table[schema] = (carries_value, (peer_schema, ...))

so the compiled loop (:func:`_process_compiled`) runs with no
representation dispatch, no ``Strategy`` branch and no per-action
validation — ηo output validation moves to the intern-table miss path,
which fires once per distinct ``(schema, value)`` pair instead of once per
action.  The peer tuples preserve the conflict *declaration* order, which
is exactly the order ``conflicting_candidates`` yields; race-report
identity across processes depends on it.

Plans are picklable (a callable plus a dict of tuples), so the sharded
analyzer compiles once in the facade and ships the plan to every worker
instead of recompiling per shard.  Under the shared-memory backend
(:mod:`repro.core.shmem`) the plan travels exactly once per worker, in
the pickled *init blob* that configures the shard process; the per-action
stream that follows it through the ring is plan-free fixed-width records.

Epoch-adaptive point clocks
---------------------------

This module also owns the detector's adaptive point-clock representation.
A :class:`_PointEpoch` pairs the point's full accumulated vector clock
``V`` with a ``(tid, stamp)`` *certificate* guaranteeing that for every
event clock ``C`` arriving after the epoch was stored::

    V ⊑ C   ⟺   stamp ≤ C[tid]

so both the phase-1 ordering test and the phase-2 join collapse to one
integer compare — FastTrack's O(1) epoch trick, but carrying the exact
clock (shared, never copied) instead of forgetting it, which keeps race
reports byte-identical to the plain full-vector-clock detector.  A point
only *inflates* to a bare vector clock on genuine contention (a
concurrent cross-thread touch, where no single-component certificate
exists), and deflates back to an epoch the moment an ordered touch —
or a maintenance window, see
:meth:`~repro.core.detector.CommutativityRaceDetector.
deflate_point_clocks` — re-establishes one.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple, Union)

from .access_points import (AccessPoint, AccessPointRepresentation, SchemaId,
                            SchemaRepresentation)
from .errors import SpecificationError
from .events import Action
from .vector_clock import Tid, VectorClock

__all__ = ["CheckPlan", "compile_check_plan"]

#: ``schema -> (carries_value, declaration-ordered conflicting schemas)``
PlanTable = Dict[SchemaId, Tuple[bool, Tuple[SchemaId, ...]]]


class CheckPlan:
    """A bounded representation compiled to flat lookup tables.

    ``touches`` is the representation's schema-level ηo (shared, not
    copied — it is the one genuinely dynamic ingredient); ``table`` maps
    every known schema to its value-carrying flag and its conflict peers
    in declaration order; ``kind`` tags diagnostics.
    """

    __slots__ = ("touches", "table", "kind")

    def __init__(self,
                 touches: Callable[[Action], Iterable[Tuple[SchemaId, Any]]],
                 table: PlanTable,
                 kind: str):
        self.touches = touches
        self.table = table
        self.kind = kind

    def max_conflict_degree(self) -> int:
        """The Theorem 6.6 bound, as baked into the plan."""
        if not self.table:
            return 0
        return max(len(peers) for _, peers in self.table.values())

    def __reduce__(self):
        return (CheckPlan, (self.touches, self.table, self.kind))

    def __repr__(self) -> str:
        return (f"CheckPlan({self.kind!r}, {len(self.table)} schemas, "
                f"max degree {self.max_conflict_degree()})")


def compile_check_plan(
        representation: AccessPointRepresentation) -> Optional[CheckPlan]:
    """Compile ``representation`` for the ENUMERATE fast path, if possible.

    Returns ``None`` when the representation is not a bounded
    :class:`SchemaRepresentation` — custom ``AccessPointRepresentation``
    subclasses and unbounded (SCAN-only) representations keep the generic
    interpreted path, whose semantics the compiled loop must match
    verdict-for-verdict anyway.
    """
    if not isinstance(representation, SchemaRepresentation):
        return None
    if not representation.bounded:
        return None
    table: PlanTable = {}
    for schema in representation.schemas:
        table[schema] = (representation.carries_value(schema),
                        representation.conflict_peers(schema))
    return CheckPlan(representation.touches, table, representation.kind)


# -- epoch-adaptive point clocks ----------------------------------------------


class _PointEpoch(NamedTuple):
    """``c@t`` plus the exact clock it certifies — the adaptive point state.

    ``clock`` is the point's full accumulated vector clock ``V`` (shared
    with whatever phase 2 just stored or joined, never copied) and
    ``(tid, stamp)`` is a dominance certificate: for any event clock ``C``
    stamped after this epoch was stored, ``V ⊑ C ⟺ stamp ≤ C[tid]``.

    Two certificate sources exist.  *Event-clock epochs* (phase 2): ``V``
    is itself an event clock of thread ``tid`` with ``stamp = V[tid]`` —
    a thread's component advances only on its own events, so dominance at
    ``tid`` pulls the whole event into ``C``'s causal past.  *Coverage
    epochs* (maintenance deflation): every live thread's clock already
    covers ``V`` on all components except possibly ``tid``, and every
    future event clock dominates some live thread's clock, so only the
    ``tid`` component can still decide the comparison.

    Because ``as_clock()`` returns the exact ``V``, race reports are
    byte-identical to the plain detector's — unlike FastTrack's
    write-epoch, which forgets history and only guarantees the same
    *first* race per variable.
    """

    tid: Tid
    stamp: int
    clock: VectorClock

    def as_clock(self) -> VectorClock:
        return self.clock


_PointClock = Union[_PointEpoch, VectorClock]


def _point_ordered(prior: _PointClock, clock: VectorClock) -> bool:
    """``prior ⊑ vc(e)`` for either point-clock representation."""
    if type(prior) is _PointEpoch:
        return prior.stamp <= clock[prior.tid]
    return prior.leq(clock)


def _as_clock(prior: _PointClock) -> VectorClock:
    return prior.clock if type(prior) is _PointEpoch else prior


# -- the compiled per-event loop ----------------------------------------------


def _intern_point(state, action: Action,
                  schema: SchemaId, value: Any) -> AccessPoint:
    """Intern-miss path: validate the ηo output pair and canonicalize.

    Raises the same :class:`SpecificationError`s ``points_of`` would —
    invalid pairs never enter the table, so they take this path (and
    fail) on every action, matching the generic behavior.
    """
    entry = state.plan.table.get(schema)
    if entry is None:
        raise SpecificationError(
            f"ηo touched unknown schema {schema!r} for {action}")
    if entry[0]:
        if value is None:
            raise SpecificationError(
                f"schema {schema!r} carries a value but ηo supplied "
                f"none for {action}")
    elif value is not None:
        raise SpecificationError(
            f"plain schema {schema!r} was given value {value!r} "
            f"for {action}")
    pt = AccessPoint(action.obj, schema, value)
    state.interned[(schema, value)] = pt
    return pt


def _intern_candidates(state, pt: AccessPoint) -> Tuple[AccessPoint, ...]:
    """Build and cache ``Co(pt)`` as a tuple of canonical points.

    Candidates are interned too, so a probe and a later real touch of
    the same (schema, value) pair share one instance — dict hits then
    ride the identity fast path with a cached hash.  Candidate pairs
    are valid by construction: peers of a value schema carry the same
    value, peers of a plain schema carry None (bounded representations
    never declare mixed conflicts), so the intern table stays
    validation-clean.
    """
    interned = state.interned
    # pt.value is None exactly for plain schemas, so it doubles as the
    # candidate value in both cases (same as conflicting_candidates).
    value = pt.value
    cands = []
    for peer in state.plan.table[pt.schema][1]:
        candidate = interned.get((peer, value))
        if candidate is None:
            candidate = AccessPoint(pt.obj, peer, value)
            interned[(peer, value)] = candidate
        cands.append(candidate)
    tup = tuple(cands)
    state.candidates[pt] = tup
    return tup


def _process_compiled(det, state, action: Action, tid: Tid,
                      clock: VectorClock):
    """Algorithm 1 over a compiled :class:`CheckPlan`.

    Semantically identical to the detector's generic ENUMERATE path —
    same verdicts in the same order, same counters, same sampled
    attribution — but runs a closed loop over interned points and
    cached candidate tuples: no ``points_of`` validation (moved to the
    intern miss), no representation dispatch, no candidate generator.
    """
    interned = state.interned
    stats = det.stats
    # ηo: resolve each (schema, value) pair to its canonical point.
    # The full list is built before phase 1 so an invalid pair raises
    # before any state changes, exactly like points_of would.
    touched: List[AccessPoint] = []
    append = touched.append
    for schema, value in state.plan.touches(action):
        pt = interned.get((schema, value))
        if pt is None:
            pt = _intern_point(state, action, schema, value)
        append(pt)
    stats.points_touched += len(touched)
    if det._predict_log is not None:
        # Predict mode: stash the resolved tuple so the predictive refeed
        # reuses it instead of re-evaluating ηo (process() files it under
        # the event's log position).
        det._predict_last = tuple(touched)

    sampled = det._obs is not None and det._obs_sampled
    if sampled:
        start = perf_counter_ns()

    # Phase 1: check for commutativity races.
    found = []
    checks = 0
    point_clock = state.point_clock
    candidate_map = state.candidates
    for pt in touched:
        cands = candidate_map.get(pt)
        if cands is None:
            cands = _intern_candidates(state, pt)
        checks += len(cands)
        for candidate in cands:
            prior_clock = point_clock.get(candidate)
            if prior_clock is None:
                continue  # candidate not active
            if type(prior_clock) is _PointEpoch:
                if prior_clock.stamp <= clock[prior_clock.tid]:
                    continue
                prior = prior_clock.clock
            elif prior_clock.leq(clock):
                continue
            else:
                prior = prior_clock
            det._report(state, pt, candidate, prior, action, tid, clock,
                        found)
    stats.conflict_checks += checks

    if sampled:
        delta = checks * det._obs_interval
        table = det._obs_checks_by_object
        table[action.obj] = table.get(action.obj, 0) + delta
        for pt in touched:
            det._attribute_checks(state, pt, action.method)

    # Phase 2: update auxiliary state.
    adaptive = det._adaptive
    methods = state.point_method if sampled else None
    active = state.active
    for pt in touched:
        if methods is not None:
            methods[pt] = action.method
        prior_clock = point_clock.get(pt)
        if prior_clock is None:
            if adaptive:
                point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
            else:
                point_clock[pt] = clock
            active[pt] = None
        elif type(prior_clock) is _PointEpoch:
            if (prior_clock.tid == tid
                    or prior_clock.stamp <= clock[prior_clock.tid]):
                # Ordered before this event (same thread, or the epoch
                # certificate holds): the join *is* this event's clock,
                # and the event clock is its own O(1) certificate.
                point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
            else:
                # Genuine contention — concurrent cross-thread touch, no
                # single-component certificate exists: inflate.
                stats.epoch_promotions += 1
                point_clock[pt] = prior_clock.clock.join(clock)
        elif adaptive and prior_clock.leq(clock):
            # The inflated clock is dominated again: this event's clock
            # subsumes it, so the point deflates right back to an epoch.
            point_clock[pt] = _PointEpoch(tid, clock[tid], clock)
        else:
            point_clock[pt] = prior_clock.join(clock)
    if sampled:
        det._obs_check_timer.record(perf_counter_ns() - start,
                                    det._obs_interval)
    return found or None

