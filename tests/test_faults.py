"""Tests for fault models, fault-set enumeration, and adversarial search."""

import math

import pytest

from repro.faults.adversarial import random_fault_trial, stretch_under_faults, worst_case_fault_set
from repro.faults.enumeration import (
    count_fault_sets,
    enumerate_fault_sets,
    fault_sets_for_pair,
    sample_fault_sets,
)
from repro.faults.models import EDGE_FAULTS, VERTEX_FAULTS, get_fault_model
from repro.graph import generators
from repro.graph.core import Graph
from repro.spanners.greedy import greedy_spanner


class TestFaultModels:
    def test_get_fault_model_aliases(self):
        assert get_fault_model("vertex") is VERTEX_FAULTS
        assert get_fault_model("VFT") is VERTEX_FAULTS
        assert get_fault_model("edge") is EDGE_FAULTS
        assert get_fault_model("eft") is EDGE_FAULTS
        assert get_fault_model(VERTEX_FAULTS) is VERTEX_FAULTS

    def test_get_fault_model_unknown(self):
        with pytest.raises(ValueError):
            get_fault_model("bogus")

    def test_vertex_candidates_exclude_endpoints(self, triangle):
        candidates = VERTEX_FAULTS.candidate_elements(triangle, 0, 1)
        assert candidates == [2]

    def test_edge_candidates_are_all_edges(self, triangle):
        candidates = EDGE_FAULTS.candidate_elements(triangle, 0, 1)
        assert len(candidates) == 3

    def test_vertex_apply(self, triangle):
        view = VERTEX_FAULTS.apply(triangle, [2])
        assert not view.has_node(2)
        assert view.number_of_edges() == 1

    def test_edge_apply(self, triangle):
        view = EDGE_FAULTS.apply(triangle, [(0, 1)])
        assert not view.has_edge(0, 1)
        assert view.number_of_edges() == 2

    def test_canonical_forms(self):
        assert VERTEX_FAULTS.canonical([2, 1]) == frozenset({1, 2})
        assert EDGE_FAULTS.canonical([(1, 0), (2, 1)]) == frozenset({(0, 1), (1, 2)})

    def test_element_touches_cycle(self):
        cycle = [0, 1, 2, 3]
        assert VERTEX_FAULTS.element_touches_cycle(2, cycle)
        assert not VERTEX_FAULTS.element_touches_cycle(9, cycle)
        assert EDGE_FAULTS.element_touches_cycle((0, 1), cycle)
        assert EDGE_FAULTS.element_touches_cycle((3, 0), cycle)
        assert not EDGE_FAULTS.element_touches_cycle((0, 2), cycle)

    def test_validate(self, triangle):
        VERTEX_FAULTS.validate(triangle, [0, 1])
        with pytest.raises(ValueError):
            VERTEX_FAULTS.validate(triangle, [7])
        EDGE_FAULTS.validate(triangle, [(0, 1)])
        with pytest.raises(ValueError):
            EDGE_FAULTS.validate(triangle, [(0, 7)])

    def test_all_elements(self, triangle):
        assert set(VERTEX_FAULTS.all_elements(triangle)) == {0, 1, 2}
        assert len(EDGE_FAULTS.all_elements(triangle)) == 3


class TestEnumeration:
    def test_enumerate_sizes(self):
        sets = list(enumerate_fault_sets([1, 2, 3], 2))
        assert () in sets
        assert (1,) in sets and (2, 3) in sets
        assert len(sets) == 1 + 3 + 3

    def test_enumerate_excluding_empty(self):
        sets = list(enumerate_fault_sets([1, 2], 1, include_empty=False))
        assert sets == [(1,), (2,)]

    def test_enumerate_negative_budget(self):
        with pytest.raises(ValueError):
            list(enumerate_fault_sets([1], -1))

    def test_enumerate_budget_beyond_population(self):
        sets = list(enumerate_fault_sets([1, 2], 5))
        assert len(sets) == 4

    def test_count_matches_enumeration(self):
        for num, budget in [(5, 0), (5, 2), (6, 3), (4, 4)]:
            assert count_fault_sets(num, budget) == len(
                list(enumerate_fault_sets(list(range(num)), budget))
            )

    def test_count_excluding_empty(self):
        assert count_fault_sets(4, 2, include_empty=False) == 4 + 6

    def test_sample_fault_sets_exact_size(self, small_random):
        samples = sample_fault_sets(small_random, "vertex", 3, 10, rng=0)
        assert len(samples) == 10
        assert all(len(sample) == 3 for sample in samples)

    def test_sample_fault_sets_variable_size(self, small_random):
        samples = sample_fault_sets(small_random, "edge", 3, 20, rng=0, exact_size=False)
        assert all(len(sample) <= 3 for sample in samples)

    def test_fault_sets_for_pair(self, triangle):
        sets = list(fault_sets_for_pair(triangle, "vertex", 0, 1, 1))
        assert sets == [(), (2,)]

    def test_sample_unique_has_no_duplicates(self, small_random):
        samples = sample_fault_sets(small_random, "vertex", 2, 40, rng=0,
                                    unique=True)
        assert len(samples) == 40
        assert len(set(samples)) == len(samples)
        assert all(len(sample) == 2 for sample in samples)

    def test_sample_unique_is_deterministic_per_seed(self, small_random):
        first = sample_fault_sets(small_random, "edge", 2, 25, rng=7,
                                  unique=True)
        second = sample_fault_sets(small_random, "edge", 2, 25, rng=7,
                                   unique=True)
        assert first == second
        assert len(set(first)) == len(first)
        different = sample_fault_sets(small_random, "edge", 2, 25, rng=8,
                                      unique=True)
        assert different != first

    def test_sample_unique_caps_at_distinct_universe(self, triangle):
        # Only C(3, 2) = 3 distinct vertex pairs exist; asking for more must
        # terminate and return them all exactly once.
        samples = sample_fault_sets(triangle, "vertex", 2, 50, rng=0,
                                    unique=True)
        assert sorted(samples, key=sorted) == [frozenset({0, 1}),
                                               frozenset({0, 2}),
                                               frozenset({1, 2})]

    def test_sample_unique_bounded_retry_budget(self, triangle):
        # A retry budget too small to beat the birthday collisions may return
        # fewer sets, but never duplicates and never an infinite loop.
        samples = sample_fault_sets(triangle, "vertex", 2, 3, rng=0,
                                    unique=True, max_attempts=2)
        assert len(samples) <= 2
        assert len(set(samples)) == len(samples)

    def test_sample_default_stream_unchanged_by_unique_flag(self, small_random):
        # unique=False must keep consuming the rng exactly as before the
        # flag existed (reproducibility of recorded experiments).
        baseline = sample_fault_sets(small_random, "vertex", 3, 10, rng=3)
        again = sample_fault_sets(small_random, "vertex", 3, 10, rng=3,
                                  unique=False)
        assert baseline == again


class TestStretchUnderFaults:
    def test_no_faults_identical_graphs(self, triangle):
        assert stretch_under_faults(triangle, triangle.copy(), "vertex", []) == 1.0

    def test_missing_edge_increases_stretch(self, triangle):
        spanner = triangle.edge_subgraph([(0, 1), (1, 2)])
        assert stretch_under_faults(triangle, spanner, "vertex", []) == pytest.approx(2.0)

    def test_fault_can_disconnect_spanner(self):
        # Original: square; spanner: path through node 1.  Faulting node 1
        # disconnects 0 from 2 in the spanner while the original survives via 3.
        square = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        spanner = square.edge_subgraph([(0, 1), (1, 2), (3, 0)])
        assert stretch_under_faults(square, spanner, "vertex", [1]) == math.inf

    def test_faulted_pairs_ignored_when_original_disconnects(self):
        path = generators.path_graph(3)
        spanner = path.copy()
        # Faulting the middle vertex disconnects the original too: nothing to check.
        assert stretch_under_faults(path, spanner, "vertex", [1]) == 1.0

    def test_edge_fault_model(self, square_with_diagonal):
        spanner = square_with_diagonal.edge_subgraph([(0, 1), (1, 2), (2, 3), (3, 0)])
        value = stretch_under_faults(square_with_diagonal, spanner, "edge", [(0, 1)])
        assert value >= 1.0 and value != math.inf

    def test_restricted_pairs(self, square_with_diagonal):
        spanner = square_with_diagonal.edge_subgraph([(0, 1), (1, 2), (2, 3)])
        full = stretch_under_faults(square_with_diagonal, spanner, "vertex", [])
        only_near = stretch_under_faults(
            square_with_diagonal, spanner, "vertex", [], pairs=[(0, 1)]
        )
        assert only_near <= full


class TestAdversarialSearch:
    def test_worst_case_on_non_ft_spanner(self, medium_random):
        spanner = greedy_spanner(medium_random, 3).spanner
        faults, stretch = worst_case_fault_set(
            medium_random, spanner, "vertex", 1, method="exhaustive"
        )
        assert len(faults) <= 1
        # A 1-fault can typically break a sparse non-FT spanner on a dense graph.
        assert stretch > 1.0

    def test_worst_case_trivial_spanner_is_safe(self, small_random):
        faults, stretch = worst_case_fault_set(
            small_random, small_random.copy(), "vertex", 1, method="exhaustive"
        )
        assert stretch == 1.0

    def test_worst_case_sampled_mode(self, small_random, rng):
        spanner = greedy_spanner(small_random, 3).spanner
        _, stretch = worst_case_fault_set(
            small_random, spanner, "vertex", 2, method="sampled", samples=10, rng=rng
        )
        assert stretch >= 1.0

    def test_worst_case_invalid_method(self, small_random):
        with pytest.raises(ValueError):
            worst_case_fault_set(small_random, small_random.copy(), "vertex", 1,
                                 method="bogus")

    def test_random_fault_trial(self, small_random, rng):
        values = random_fault_trial(small_random, small_random.copy(), "vertex", 2,
                                    trials=5, rng=rng)
        assert len(values) == 5
        assert all(value == 1.0 for value in values)

    def test_graph_views_are_rejected(self, triangle):
        view = VERTEX_FAULTS.apply(triangle, [])
        with pytest.raises(TypeError, match="materialize"):
            stretch_under_faults(triangle, view, "vertex", [])
        with pytest.raises(TypeError, match="materialize"):
            worst_case_fault_set(view, triangle, "vertex", 1)
        with pytest.raises(TypeError, match="materialize"):
            random_fault_trial(triangle, view, "vertex", 1, trials=3, rng=0)
