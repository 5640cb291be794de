"""Independent dict-Dijkstra references for the CSR fault-check paths.

The library's oracles, verification and adversarial search run only on
compiled CSR snapshots with fault masks.  The searches below are their
original view-based forms: every fault set is applied as an
:class:`~repro.graph.views.ExclusionView` and every distance comes from the
dict Dijkstra in :mod:`repro.paths.dijkstra`, so a test comparing the two
shares nothing with the code under test but the fault models and the
fault-set enumeration order.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.faults.enumeration import enumerate_fault_sets
from repro.faults.models import FaultSet, get_fault_model
from repro.graph.core import edge_key
from repro.paths.dijkstra import bounded_distance, bounded_path, dijkstra_distances


def _path_elements(path: List, source, target, model) -> List:
    if model.name == "vertex":
        return [node for node in path if node != source and node != target]
    return [edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


def exhaustive_search(graph, source, target, budget: float, max_faults: int,
                      fault_model) -> Optional[FaultSet]:
    """First fault set in enumeration order that pushes the distance past ``budget``."""
    model = get_fault_model(fault_model)
    elements = model.candidate_elements(graph, source, target)
    for faults in enumerate_fault_sets(elements, max_faults):
        view = model.apply(graph, faults)
        if bounded_distance(view, source, target, budget) > budget:
            return model.canonical(faults)
    return None


def branch_and_bound_search(graph, source, target, budget: float,
                            max_faults: int, fault_model) -> Optional[FaultSet]:
    """Branch on the elements of each short witness path, depth-first."""
    model = get_fault_model(fault_model)

    def search(current: List, remaining: int) -> Optional[List]:
        distance, path = bounded_path(model.apply(graph, current), source,
                                      target, budget)
        if distance > budget:
            return current
        if remaining == 0:
            return None
        for element in _path_elements(path, source, target, model):
            found = search(current + [element], remaining - 1)
            if found is not None:
                return found
        return None

    found = search([], max_faults)
    return model.canonical(found) if found is not None else None


def path_packing_search(graph, source, target, budget: float, max_faults: int,
                        fault_model) -> Optional[FaultSet]:
    """Fault the middle element of the current short path, up to ``max_faults`` times."""
    model = get_fault_model(fault_model)
    chosen: List = []
    for _ in range(max_faults + 1):
        distance, path = bounded_path(model.apply(graph, chosen), source,
                                      target, budget)
        if distance > budget:
            return model.canonical(chosen)
        if len(chosen) >= max_faults:
            return None
        elements = _path_elements(path, source, target, model)
        if not elements:
            return None
        chosen.append(elements[len(elements) // 2])
    return None


def stretch_under_faults(original, spanner, fault_model, faults,
                         *, pairs=None) -> float:
    """Worst stretch of ``spanner \\ F`` w.r.t. ``original \\ F`` over dict distances."""
    model = get_fault_model(fault_model)
    faulted_original = model.apply(original, list(faults))
    faulted_spanner = model.apply(spanner, list(faults))
    restrict = None
    if pairs is not None:
        restrict = {}
        for u, v in pairs:
            restrict.setdefault(u, set()).add(v)
        sources = sorted(restrict, key=repr)
    else:
        sources = list(faulted_original.nodes())
    worst = 1.0
    for source in sources:
        if not faulted_original.has_node(source):
            continue
        base = dijkstra_distances(faulted_original, source)
        in_spanner = (dijkstra_distances(faulted_spanner, source)
                      if faulted_spanner.has_node(source) else {})
        for target, base_distance in base.items():
            if target == source or base_distance == 0:
                continue
            if restrict is not None and target not in restrict[source]:
                continue
            ratio = in_spanner.get(target, math.inf) / base_distance
            if ratio > worst:
                worst = ratio
    return worst
