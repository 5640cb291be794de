"""Tests for spanner / FT-spanner verification."""

import math

import pytest

from repro.graph import generators
from repro.graph.core import Graph
from repro.graph.views import ExclusionView
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.verify import FTVerificationReport, is_ft_spanner, is_spanner, stretch_of


class TestStretchOf:
    def test_identical_graphs(self, small_random):
        assert stretch_of(small_random, small_random.copy()) == 1.0

    def test_single_missing_edge(self, triangle):
        spanner = triangle.edge_subgraph([(0, 1), (1, 2)])
        assert stretch_of(triangle, spanner) == pytest.approx(2.0)

    def test_disconnection_gives_infinity(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        spanner = graph.edge_subgraph([(0, 1)])
        assert stretch_of(graph, spanner) == math.inf

    def test_weighted_stretch(self):
        graph = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        spanner = graph.edge_subgraph([(0, 1), (1, 2)])
        assert stretch_of(graph, spanner) == pytest.approx(2.0)

    def test_restricted_pairs(self, square_with_diagonal):
        spanner = square_with_diagonal.edge_subgraph([(0, 1), (1, 2), (2, 3)])
        assert stretch_of(square_with_diagonal, spanner, pairs=[(0, 1)]) == 1.0
        assert stretch_of(square_with_diagonal, spanner, pairs=[(0, 3)]) == pytest.approx(3.0)

    def test_trivial_graphs(self):
        assert stretch_of(Graph(), Graph()) == 1.0
        assert stretch_of(Graph(nodes=[0]), Graph(nodes=[0])) == 1.0

    def test_graph_views_are_rejected(self, triangle):
        with pytest.raises(TypeError, match="materialize"):
            stretch_of(triangle, ExclusionView(triangle))
        with pytest.raises(TypeError, match="materialize"):
            is_ft_spanner(ExclusionView(triangle), triangle, 3, 1)


class TestIsSpanner:
    def test_greedy_output_verifies(self, medium_random):
        result = greedy_spanner(medium_random, 3)
        assert is_spanner(medium_random, result.spanner, 3)

    def test_too_sparse_subgraph_fails(self, medium_random):
        tree_like = greedy_spanner(medium_random, 100).spanner
        assert not is_spanner(medium_random, tree_like, 1.5)

    def test_tolerates_floating_point_noise(self):
        graph = Graph(edges=[(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.2 / 3 * 3)])
        spanner = graph.edge_subgraph([(0, 1), (1, 2)])
        # stretch is exactly (0.1 + 0.1) / 0.2 = 1 up to floating point noise.
        assert is_spanner(graph, spanner, 1.0)


class TestIsFTSpanner:
    def test_parameter_validation(self, triangle):
        with pytest.raises(ValueError):
            is_ft_spanner(triangle, triangle.copy(), 0.5, 1)
        with pytest.raises(ValueError):
            is_ft_spanner(triangle, triangle.copy(), 3, -1)
        with pytest.raises(ValueError):
            is_ft_spanner(triangle, triangle.copy(), 3, 1, method="bogus")

    def test_trivial_spanner_always_passes(self, small_random):
        report = is_ft_spanner(small_random, small_random.copy(), 3, 2,
                               method="sampled", samples=10, rng=0)
        assert report.ok
        assert report.worst_stretch == 1.0

    def test_ft_greedy_passes_exhaustively(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1)
        report = is_ft_spanner(small_random, result.spanner, 3, 1, method="exhaustive")
        assert report.ok
        assert report.exhaustive
        assert report.violating_fault_set is None
        assert report.fault_sets_checked == 1 + small_random.number_of_nodes()

    def test_non_ft_greedy_fails(self, medium_random):
        result = greedy_spanner(medium_random, 3)
        report = is_ft_spanner(medium_random, result.spanner, 3, 1, method="exhaustive")
        assert not report.ok
        assert report.violating_fault_set is not None
        assert len(report.violating_fault_set) <= 1
        assert report.worst_stretch > 3

    def test_report_is_truthy_protocol(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1)
        report = is_ft_spanner(small_random, result.spanner, 3, 1, method="exhaustive")
        assert bool(report) is True

    def test_edge_fault_verification(self, small_random):
        result = ft_greedy_spanner(small_random, 3, 1, fault_model="edge")
        report = is_ft_spanner(small_random, result.spanner, 3, 1,
                               fault_model="edge", method="exhaustive")
        assert report.ok
        assert report.fault_model == "edge"

    def test_auto_switches_to_sampling(self):
        graph = generators.gnm(40, 150, rng=0, connected=True)
        result = ft_greedy_spanner(graph, 3, 2)
        report = is_ft_spanner(graph, result.spanner, 3, 2, method="auto",
                               samples=15, rng=1, exhaustive_limit=100)
        assert not report.exhaustive
        assert report.fault_sets_checked == 15
        assert report.ok

    def test_sampled_check_can_refute(self, medium_random):
        sparse = greedy_spanner(medium_random, 3)
        report = is_ft_spanner(medium_random, sparse.spanner, 3, 2,
                               method="sampled", samples=60, rng=2)
        # With 60 random 2-fault sets against a non-FT spanner on a dense
        # instance, a violation is essentially always found.
        assert not report.ok

    def test_zero_faults_reduces_to_plain_check(self, medium_random):
        result = greedy_spanner(medium_random, 3)
        report = is_ft_spanner(medium_random, result.spanner, 3, 0, method="exhaustive")
        assert report.ok
        assert report.fault_sets_checked == 1

    def test_report_dataclass_fields(self):
        report = FTVerificationReport(
            ok=True, stretch_required=3, worst_stretch=2.5, fault_model="vertex",
            max_faults=1, fault_sets_checked=10, exhaustive=False,
        )
        assert report.notes == ""
        assert bool(report)
