"""Typed edge updates and the append-only, replayable update journal.

Live graphs churn in exactly three ways — a link appears, a link fails, a
link is re-weighted — and this module gives each its own frozen op type:

* :class:`EdgeInsert` — a new edge ``{u, v}`` with a positive weight;
* :class:`EdgeDelete` — an existing edge disappears;
* :class:`WeightChange` — an existing edge gets a new positive weight.

Ops validate against the graph they are applied to (inserting an existing
edge or deleting a missing one raises :class:`UpdateError` rather than
silently merging), so a journal is an unambiguous record: every op either
applied exactly as written or the replay stops.

An :class:`UpdateJournal` is the append-only stream of such ops.  It is the
subsystem's source of truth for reproducibility — the journal serialises to
one JSON document, and :meth:`UpdateJournal.replay` applied to the same base
graph deterministically reproduces the same final graph (same node and edge
*insertion order*, hence byte-identical CSR snapshots and spanners
downstream).  ``tests/test_dynamic.py`` holds the determinism line
property-style.

:func:`random_journal` generates seeded mixed-update streams against a
graph's live edge set (inserts pick current non-edges, deletes and reweights
pick current edges), which is what the churn benchmark and the acceptance
tests replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.graph.core import EdgeTuple, Graph, GraphError, Node, edge_key
from repro.graph.io import _restore_node
from repro.utils.rng import ensure_rng

PathLike = Union[str, Path]

#: The ``format`` field of a serialised journal document.
JOURNAL_FORMAT = "repro-update-journal"


class UpdateError(ValueError):
    """An update op does not apply to the graph it was aimed at."""


@dataclass(frozen=True)
class EdgeInsert:
    """A new edge ``{u, v}`` with the given positive weight.

    Inserting an edge that already exists is an :class:`UpdateError` — use
    :class:`WeightChange` to re-weight.  Endpoints missing from the graph
    are created, exactly like :meth:`Graph.add_edge`.
    """

    u: Node
    v: Node
    weight: float = 1.0

    kind = "insert"

    @property
    def edge(self) -> EdgeTuple:
        """Canonical ``(min, max)`` key of the touched edge."""
        return edge_key(self.u, self.v)

    def apply(self, graph: Graph) -> None:
        if graph.has_edge(self.u, self.v):
            raise UpdateError(
                f"insert of existing edge {self.edge!r}; use WeightChange")
        try:
            graph.add_edge(self.u, self.v, self.weight)
        except GraphError as error:
            raise UpdateError(str(error)) from None


@dataclass(frozen=True)
class EdgeDelete:
    """An existing edge ``{u, v}`` disappears (endpoints stay)."""

    u: Node
    v: Node

    kind = "delete"

    @property
    def edge(self) -> EdgeTuple:
        """Canonical ``(min, max)`` key of the touched edge."""
        return edge_key(self.u, self.v)

    def apply(self, graph: Graph) -> None:
        if not graph.has_edge(self.u, self.v):
            raise UpdateError(f"delete of missing edge {self.edge!r}")
        graph.remove_edge(self.u, self.v)


@dataclass(frozen=True)
class WeightChange:
    """An existing edge ``{u, v}`` gets a new positive weight."""

    u: Node
    v: Node
    weight: float

    kind = "reweight"

    @property
    def edge(self) -> EdgeTuple:
        """Canonical ``(min, max)`` key of the touched edge."""
        return edge_key(self.u, self.v)

    def apply(self, graph: Graph) -> None:
        if not graph.has_edge(self.u, self.v):
            raise UpdateError(
                f"reweight of missing edge {self.edge!r}; use EdgeInsert")
        try:
            graph.add_edge(self.u, self.v, self.weight)
        except GraphError as error:
            raise UpdateError(str(error)) from None


UpdateOp = Union[EdgeInsert, EdgeDelete, WeightChange]

_OP_TYPES: Dict[str, type] = {
    EdgeInsert.kind: EdgeInsert,
    EdgeDelete.kind: EdgeDelete,
    WeightChange.kind: WeightChange,
}


def update_to_json(update: UpdateOp) -> Dict[str, Any]:
    """One op as a JSON-serialisable dict (inverse of :func:`update_from_json`)."""
    document: Dict[str, Any] = {"op": update.kind, "u": update.u, "v": update.v}
    if update.kind != EdgeDelete.kind:
        document["weight"] = update.weight
    return document


def _holds_bool(value: Any) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, list) and any(map(_holds_bool, value)))


def node_from_json(value: Any, field: str) -> Node:
    """One node label from its JSON form (lists become tuples).

    JSON booleans are refused, also inside a tuple label: Python reads
    ``true`` as ``1``, so the op would silently land on node 1.
    """
    if _holds_bool(value):
        raise UpdateError(
            f"{field} must be a node label, not the JSON boolean "
            f"{json.dumps(value)}")
    return _restore_node(value)


def _weight_from_json(value: Any) -> float:
    """An edge weight from its JSON form: a positive, finite JSON number.

    Strings, booleans, zero, negatives, ``NaN`` and ``Infinity`` are
    refused rather than coerced (``float("2")`` would read a string).
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            weight = float(value)
        except OverflowError:  # an integer beyond float range
            weight = math.inf
        if 0 < weight < math.inf:
            return weight
    raise UpdateError(
        f"weight must be a positive finite number, got {value!r}")


def update_from_json(document: Dict[str, Any]) -> UpdateOp:
    """Rebuild one op from :func:`update_to_json` output.

    Tuple node labels (product graphs) survive the round trip via the same
    list→tuple restoration the graph JSON format uses.
    """
    try:
        op_type = _OP_TYPES[document["op"]]
    except KeyError:
        raise UpdateError(
            f"unknown update op {document.get('op')!r}; "
            f"expected one of {sorted(_OP_TYPES)}") from None
    u = node_from_json(document["u"], "u")
    v = node_from_json(document["v"], "v")
    if op_type is EdgeDelete:
        return EdgeDelete(u, v)
    return op_type(u, v, _weight_from_json(document["weight"]))


class UpdateJournal:
    """An append-only, JSON-round-trippable stream of edge updates.

    The journal is the replayable record of a live graph's churn: ops only
    ever append (there is no rewrite API), and :meth:`replay` applied to the
    same base graph reproduces the same final graph deterministically —
    including node/edge insertion order, so everything downstream (CSR
    snapshots, maintained spanners) is byte-identical across replays.
    """

    __slots__ = ("_entries", "name")

    def __init__(self, updates: Optional[Iterable[UpdateOp]] = None,
                 name: str = ""):
        self._entries: List[UpdateOp] = list(updates or ())
        self.name = name

    # ------------------------------------------------------------- appending
    def append(self, update: UpdateOp) -> None:
        """Append one op (the only mutation the journal supports)."""
        if not isinstance(update, (EdgeInsert, EdgeDelete, WeightChange)):
            raise UpdateError(f"not an update op: {update!r}")
        self._entries.append(update)

    def extend(self, updates: Iterable[UpdateOp]) -> None:
        """Append every op in ``updates``."""
        for update in updates:
            self.append(update)

    # --------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[UpdateOp]:
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def counts(self) -> Dict[str, int]:
        """Ops per kind (for reports): ``{"insert": ..., "delete": ..., "reweight": ...}``."""
        counts = {kind: 0 for kind in _OP_TYPES}
        for update in self._entries:
            counts[update.kind] += 1
        return counts

    # ---------------------------------------------------------------- replay
    def replay(self, graph: Graph, *, in_place: bool = False) -> Graph:
        """Apply every op in order; returns the final graph.

        Replays onto a copy by default, so the base graph is reusable as the
        fixed point journals are measured against; ``in_place=True`` mutates
        ``graph`` directly (what the live subsystem does).  Deterministic:
        same base + same journal → structurally identical result with the
        same insertion order.
        """
        target = graph if in_place else graph.copy()
        for update in self._entries:
            update.apply(target)
        return target

    # ------------------------------------------------------------------- I/O
    def to_json(self) -> Dict[str, Any]:
        """One self-describing JSON document holding the whole stream."""
        return {
            "format": JOURNAL_FORMAT,
            "version": 1,
            "name": self.name,
            "updates": [update_to_json(update) for update in self._entries],
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "UpdateJournal":
        """Rebuild a journal from :meth:`to_json` output."""
        if document.get("format") != JOURNAL_FORMAT:
            raise UpdateError(f"not a {JOURNAL_FORMAT} JSON document")
        return cls(
            updates=[update_from_json(entry)
                     for entry in document.get("updates", [])],
            name=document.get("name", ""),
        )

    def save(self, path: PathLike, *, indent: int = 2) -> None:
        """Write the journal as one JSON document."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=indent)
            handle.write("\n")

    @classmethod
    def load(cls, path: PathLike) -> "UpdateJournal":
        """Load a journal written by :meth:`save`."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.counts()
        return (f"<UpdateJournal len={len(self._entries)} "
                f"+{counts['insert']} -{counts['delete']} "
                f"~{counts['reweight']}>")


# --------------------------------------------------------------------------
# Seeded journal generation (churn streams for tests and benchmarks)
# --------------------------------------------------------------------------

#: Default op mix of the churn generators (insert, delete, reweight).
_DEFAULT_MIX = (0.4, 0.3, 0.3)

_KINDS = (EdgeInsert.kind, EdgeDelete.kind, WeightChange.kind)


def _validate_churn_params(mix, weight_range) -> Tuple[float, float]:
    if len(mix) != 3 or any(p < 0 for p in mix) or sum(mix) <= 0:
        raise ValueError("mix must be three non-negative weights, not all zero")
    low, high = weight_range
    if not 0 < low <= high:
        raise ValueError("weight_range must be positive and ordered")
    return low, high


class ChurnState:
    """The simulated live edge set a seeded churn stream draws against.

    One draw produces one valid op *and* advances the state, so a sequence
    of draws always replays cleanly in order: inserts pick uniformly among
    the current non-edges, deletes and reweights among the current edges.
    Shared by :func:`random_journal` and
    :func:`repro.engine.workload.update_churn` so the two generators cannot
    drift on the gating/sampling rules.  The node set is held fixed.
    """

    __slots__ = ("nodes", "present", "present_list", "total_pairs")

    def __init__(self, graph: Graph):
        self.nodes = list(graph.nodes())
        if len(self.nodes) < 2:
            raise ValueError("churn needs a graph with at least two nodes")
        # Canonical edge keys currently present, kept as both a set
        # (membership) and a list (O(1) uniform draws with swap-pop).
        self.present = {edge_key(u, v) for u, v, _ in graph.edges()}
        self.present_list = sorted(self.present, key=repr)
        self.total_pairs = len(self.nodes) * (len(self.nodes) - 1) // 2

    @property
    def live_edges(self) -> List[EdgeTuple]:
        """The current edge keys (e.g. to draw still-live fault sets from)."""
        return self.present_list

    def draw(self, rng, mix: Tuple[float, float, float],
             low: float, high: float) -> Optional[UpdateOp]:
        """One valid op per the (gated) ``mix``, or ``None`` if none applies."""
        # Disable impossible kinds at this step.
        allowed = list(mix)
        if len(self.present_list) >= self.total_pairs:
            allowed[0] = 0.0
        if not self.present_list:
            allowed[1] = allowed[2] = 0.0
        if sum(allowed) <= 0:
            return None  # complete graph with insert-only mix, etc.
        kind = rng.weighted_choice(_KINDS, weights=allowed)
        if kind == EdgeInsert.kind:
            while True:
                u, v = rng.sample(self.nodes, 2)
                key = edge_key(u, v)
                if key not in self.present:
                    break
            update = EdgeInsert(key[0], key[1], rng.uniform(low, high))
            self.present.add(key)
            self.present_list.append(key)
            return update
        index = rng.randint(0, len(self.present_list) - 1)
        key = self.present_list[index]
        if kind == EdgeDelete.kind:
            self.present_list[index] = self.present_list[-1]
            self.present_list.pop()
            self.present.remove(key)
            return EdgeDelete(key[0], key[1])
        return WeightChange(key[0], key[1], rng.uniform(low, high))


def random_journal(graph: Graph, length: int, *,
                   mix: Tuple[float, float, float] = _DEFAULT_MIX,
                   weight_range: Tuple[float, float] = (0.5, 2.0),
                   rng=None) -> UpdateJournal:
    """A seeded journal of ``length`` mixed updates valid against ``graph``.

    The generator tracks the evolving edge set through :class:`ChurnState`,
    so the journal replays cleanly (every op applies).  ``mix`` weights the
    three kinds ``(insert, delete, reweight)``; kinds that are impossible at
    some step (no non-edge left to insert, no edge left to delete) fall back
    to the others.  The node set is held fixed.  Deterministic from ``rng``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    low, high = _validate_churn_params(mix, weight_range)
    rng = ensure_rng(rng)
    state = ChurnState(graph)
    journal = UpdateJournal(name=f"random_journal(len={length})")
    for _ in range(length):
        update = state.draw(rng, mix, low, high)
        if update is None:
            break
        journal.append(update)
    return journal
