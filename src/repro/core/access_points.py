"""Access point representations ``⟨Xo, ηo, Co⟩`` (Section 4.2).

An access point representation captures a commutativity specification in a
form the dynamic analysis can execute:

* ``Xo`` — a set of access points,
* ``ηo : Act_o -> P(Xo)`` — the finite set of points *touched* by an action,
* ``Co ⊆ Xo × Xo`` — a symmetric conflict relation.

The representation *represents* a logical specification ``Φ`` when
``(ηo(a) × ηo(b)) ∩ Co = ∅  ⟺  ϕ(a,b)`` (Definition 4.5).

Finite *schema* factoring
-------------------------

``Xo`` is typically infinite — the dictionary of Fig. 7 has a point
``o:w:k`` for every possible key ``k``.  We factor each point into a finite
*schema* (``w``, ``r``, ``size``, ``resize``, or a translated
``(method, β, slot)`` tuple) plus an optional runtime *value* (the key).
Conflicts are declared between schemas; concrete value-carrying points
additionally require equal values.  This factoring is what makes ``Co(pt)``
enumerable: the candidates conflicting with a concrete point are the
finitely many conflicting schemas instantiated at the *same* value, which is
exactly how Theorem 6.6's bounded-conflict property manifests operationally.

A representation is *bounded* when every declared schema conflict joins two
value-carrying schemas or two plain schemas.  A conflict between a plain
schema and a value-carrying one (e.g. the naive representation where
``size`` conflicts with infinitely many ``put`` points) makes ``Co(pt)``
infinite, and the detector must fall back to scanning ``active(o)``
(Section 5.4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable,
                    Iterator, List, Mapping, Optional, Sequence, Tuple)

from .errors import SpecificationError
from .events import Action, ObjectId

__all__ = [
    "AccessPoint",
    "AccessPointRepresentation",
    "SchemaRepresentation",
    "NaiveRepresentation",
    "representations_equivalent",
]

SchemaId = Hashable


@dataclass(frozen=True)
class AccessPoint:
    """A concrete access point: schema instantiated on an object.

    ``value`` is ``None`` for plain (``ds``-like) schemas and carries the
    witnessed argument/return value for value-carrying schemas (the ``k`` of
    ``o:w:k``).
    """

    obj: ObjectId
    schema: SchemaId
    value: Any = None

    def __hash__(self) -> int:
        # Identity-cached: the detector probes ``active(o)``/``point_clock``
        # with the same interned instances over and over, and re-hashing a
        # three-field dataclass per probe is measurable on the hot path.
        # Same tuple the generated __hash__ uses, so cached and uncached
        # instances collide correctly.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash((self.obj, self.schema, self.value))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # Rebuild from fields: the lazily cached hash must never cross an
        # interpreter boundary (string hashing is salted per process, so a
        # shipped cache would poison dict lookups in spawned workers).
        return (AccessPoint, (self.obj, self.schema, self.value))

    def __str__(self) -> str:
        if self.value is None:
            return f"{self.obj}:{self.schema}"
        return f"{self.obj}:{self.schema}:{self.value!r}"


class AccessPointRepresentation(ABC):
    """The ``⟨Xo, ηo, Co⟩`` interface consumed by the detector.

    Subclasses must implement ``points_of`` (ηo) and ``conflicts`` (Co
    membership).  Bounded representations additionally enumerate
    ``conflicting_candidates`` — the finite ``Co(pt)``.  The detector
    runs its constant-time ENUMERATE strategy only for a bounded
    :class:`SchemaRepresentation`, which compiles to a check plan; any
    other subclass runs SCAN.
    """

    #: human-readable name of the object kind this representation covers
    kind: str = "object"

    @abstractmethod
    def points_of(self, action: Action) -> Tuple[AccessPoint, ...]:
        """``ηo(a)`` — the access points touched by ``action``."""

    @abstractmethod
    def conflicts(self, pt1: AccessPoint, pt2: AccessPoint) -> bool:
        """``(pt1, pt2) ∈ Co`` — must be symmetric."""

    @property
    def bounded(self) -> bool:
        """Whether ``Co(pt)`` is finite and enumerable for every point."""
        return False

    def conflicting_candidates(self, pt: AccessPoint) -> Iterator[AccessPoint]:
        """Enumerate ``Co(pt)``.

        Only meaningful when :attr:`bounded` is true; the default raises to
        keep unbounded representations honest.
        """
        raise SpecificationError(
            f"{type(self).__name__} has an unbounded conflict relation; "
            f"Co(pt) cannot be enumerated (use the SCAN strategy)")


class SchemaRepresentation(AccessPointRepresentation):
    """A representation given by finite schema tables.

    Parameters
    ----------
    kind:
        Name of the object kind (``"dictionary"``, ``"set"``...).
    value_schemas:
        Schemas whose concrete points carry a value.
    plain_schemas:
        Schemas whose concrete points carry no value.
    conflict_pairs:
        Schema-level conflicts; symmetry is closed automatically, and a
        schema may conflict with itself.  Pairs must join two value schemas
        or two plain schemas for the representation to be bounded.
    touches:
        The ηo at schema level: maps an action to ``(schema, value)`` pairs
        (``value`` must be ``None`` exactly for plain schemas).
    """

    def __init__(
        self,
        kind: str,
        value_schemas: Iterable[SchemaId],
        plain_schemas: Iterable[SchemaId],
        conflict_pairs: Iterable[Tuple[SchemaId, SchemaId]],
        touches: Callable[[Action], Iterable[Tuple[SchemaId, Any]]],
    ):
        self.kind = kind
        self._value_schemas: FrozenSet[SchemaId] = frozenset(value_schemas)
        self._plain_schemas: FrozenSet[SchemaId] = frozenset(plain_schemas)
        overlap = self._value_schemas & self._plain_schemas
        if overlap:
            raise SpecificationError(
                f"schemas declared both value-carrying and plain: {overlap}")
        self._touches = touches
        # Insertion-ordered dict-sets: candidate enumeration order must be
        # declaration order, not hash order — an unpickled set rehashes, so
        # worker processes would otherwise enumerate (and hence report
        # races) in a different order than the sequential detector.
        self._conflicts: Dict[SchemaId, Dict[SchemaId, None]] = {}
        self._bounded = True
        for left, right in conflict_pairs:
            self._add_conflict(left, right)

    def _add_conflict(self, left: SchemaId, right: SchemaId) -> None:
        known = self._value_schemas | self._plain_schemas
        for schema in (left, right):
            if schema not in known:
                raise SpecificationError(
                    f"conflict references unknown schema {schema!r}")
        if (left in self._value_schemas) != (right in self._value_schemas):
            # A plain point would conflict with points at *every* value.
            self._bounded = False
        self._conflicts.setdefault(left, {})[right] = None
        self._conflicts.setdefault(right, {})[left] = None

    # -- introspection -------------------------------------------------------

    @property
    def schemas(self) -> FrozenSet[SchemaId]:
        return self._value_schemas | self._plain_schemas

    def carries_value(self, schema: SchemaId) -> bool:
        return schema in self._value_schemas

    def schema_conflicts(self, schema: SchemaId) -> FrozenSet[SchemaId]:
        """The schemas conflicting with ``schema`` (Theorem 6.6's bound)."""
        return frozenset(self._conflicts.get(schema, ()))

    def conflict_peers(self, schema: SchemaId) -> Tuple[SchemaId, ...]:
        """The conflicting schemas in *declaration order*.

        Unlike :meth:`schema_conflicts` (an unordered frozenset), the tuple
        preserves the order :meth:`conflicting_candidates` enumerates —
        which cross-process race-report determinism relies on.  This is the
        order compiled check plans bake in.
        """
        return tuple(self._conflicts.get(schema, ()))

    @property
    def touches(self) -> Callable[[Action], Iterable[Tuple[SchemaId, Any]]]:
        """The schema-level ηo callable (consumed by compiled check plans)."""
        return self._touches

    def max_conflict_degree(self) -> int:
        """The bound of Theorem 6.6: max |Co(pt)| over all points."""
        if not self._conflicts:
            return 0
        return max(len(peers) for peers in self._conflicts.values())

    # -- the ⟨Xo, ηo, Co⟩ interface -------------------------------------------

    def points_of(self, action: Action) -> Tuple[AccessPoint, ...]:
        points: List[AccessPoint] = []
        for schema, value in self._touches(action):
            if schema in self._value_schemas:
                if value is None:
                    raise SpecificationError(
                        f"schema {schema!r} carries a value but ηo supplied "
                        f"none for {action}")
            elif schema in self._plain_schemas:
                if value is not None:
                    raise SpecificationError(
                        f"plain schema {schema!r} was given value {value!r} "
                        f"for {action}")
            else:
                raise SpecificationError(
                    f"ηo touched unknown schema {schema!r} for {action}")
            points.append(AccessPoint(action.obj, schema, value))
        return tuple(points)

    def conflicts(self, pt1: AccessPoint, pt2: AccessPoint) -> bool:
        if pt1.obj != pt2.obj:
            return False
        if pt2.schema not in self._conflicts.get(pt1.schema, ()):
            return False
        both_valued = (pt1.schema in self._value_schemas
                       and pt2.schema in self._value_schemas)
        if both_valued:
            return pt1.value == pt2.value
        return True

    @property
    def bounded(self) -> bool:
        return self._bounded

    def conflicting_candidates(self, pt: AccessPoint) -> Iterator[AccessPoint]:
        if not self._bounded:
            return super().conflicting_candidates(pt)
        carries = pt.schema in self._value_schemas
        for peer in self._conflicts.get(pt.schema, ()):
            if carries:
                yield AccessPoint(pt.obj, peer, pt.value)
            else:
                yield AccessPoint(pt.obj, peer, None)

    def __repr__(self) -> str:
        return (f"SchemaRepresentation({self.kind!r}, "
                f"{len(self.schemas)} schemas, "
                f"max degree {self.max_conflict_degree()})")


class NaiveRepresentation(AccessPointRepresentation):
    """The strawman of Section 5.4: one access point per action.

    ``ηo(a) = {a}`` and two points conflict iff the underlying actions do not
    commute per the specification.  ``Co(pt)`` is infinite (e.g. ``size``
    conflicts with every resizing ``put``), so the detector is forced into
    its linear SCAN strategy — this is the representation the scaling bench
    uses as the slow baseline.
    """

    def __init__(self, kind: str,
                 commutes: Callable[[Action, Action], bool]):
        self.kind = kind
        self._commutes = commutes

    def points_of(self, action: Action) -> Tuple[AccessPoint, ...]:
        # The schema is the action sans object (method + values); the object
        # lives in AccessPoint.obj.  No value component is needed since the
        # schema itself is fully concrete.
        schema = (action.method, action.args, action.returns)
        return (AccessPoint(action.obj, schema),)

    def conflicts(self, pt1: AccessPoint, pt2: AccessPoint) -> bool:
        if pt1.obj != pt2.obj:
            return False
        a = Action(pt1.obj, pt1.schema[0], pt1.schema[1], pt1.schema[2])
        b = Action(pt2.obj, pt2.schema[0], pt2.schema[1], pt2.schema[2])
        return not self._commutes(a, b)

    @property
    def bounded(self) -> bool:
        return False


def representations_equivalent(
    rep1: AccessPointRepresentation,
    rep2: AccessPointRepresentation,
    actions: Sequence[Action],
) -> Optional[Tuple[Action, Action]]:
    """Check Definition 4.5 agreement of two representations on a sample.

    For every pair of sample actions, both representations must agree on
    whether the touched point sets intersect the conflict relation.  Returns
    ``None`` on agreement, or the first disagreeing pair — handy both in the
    translator's test suite (translated-vs-handwritten dictionary) and for
    users validating hand-written representations against specifications.
    """
    # ηo is evaluated once per action up front; recomputing points_of(b)
    # inside the pair loop made this O(n²) ηo evaluations for n actions.
    points1 = [rep1.points_of(a) for a in actions]
    points2 = [rep2.points_of(a) for a in actions]
    for i, a in enumerate(actions):
        pts_a1 = points1[i]
        pts_a2 = points2[i]
        for j, b in enumerate(actions):
            clash1 = any(rep1.conflicts(p, q)
                         for p in pts_a1 for q in points1[j])
            clash2 = any(rep2.conflicts(p, q)
                         for p in pts_a2 for q in points2[j])
            if clash1 != clash2:
                return (a, b)
    return None
