"""The one-pass CSR build must match a per-row oracle byte for byte.

:meth:`RMGPInstance._build_adjacency` flattens every neighbour dict in
one pass and orders all rows with a single sort.  This module keeps the
per-row reference inline: one ``np.fromiter`` and one stable argsort per
player, then ``0.5 * row.sum()`` per row for ``half_strength``.
Hypothesis drives both over graphs built in scrambled insertion order,
with edges removed and re-added, isolated nodes, ``n = 0``, string ids
and float weights; every flat array must be byte-identical, and the
dangling-endpoint, NaN and negative-weight errors must still fire.
"""

from __future__ import annotations

import re
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RMGPInstance
from repro.errors import GraphError
from repro.graph import SocialGraph


def oracle_csr(graph: SocialGraph, node_ids, index_of) -> Dict[str, np.ndarray]:
    """Per-row reference layout (raises :class:`GraphError` like the build)."""
    n = len(node_ids)
    degrees = np.array([len(graph.neighbors(v)) for v in node_ids],
                       dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    weights = np.empty(int(indptr[-1]), dtype=np.float64)
    pos = 0
    for node in node_ids:
        neighbors = graph.neighbors(node)
        count = len(neighbors)
        try:
            row_indices = np.fromiter(
                (index_of[f] for f in neighbors), dtype=np.int64, count=count
            )
        except KeyError as exc:
            raise GraphError(
                f"edge {node!r} -> {exc.args[0]!r} dangles: the "
                "endpoint is not a node of the graph"
            ) from exc
        row_weights = np.fromiter(
            neighbors.values(), dtype=np.float64, count=count
        )
        if count > 1:
            order = np.argsort(row_indices, kind="stable")
            row_indices = row_indices[order]
            row_weights = row_weights[order]
        indices[pos : pos + count] = row_indices
        weights[pos : pos + count] = row_weights
        pos += count
    if not np.isfinite(weights).all():
        raise GraphError("edge weights must be finite (found NaN/inf)")
    if weights.size and weights.min() < 0:
        raise GraphError("edge weights must be non-negative")
    return {
        "indptr": indptr,
        "indices": indices,
        "weights": weights,
        "half_weights": weights * 0.5,
        "edge_owner": np.repeat(np.arange(n, dtype=np.int64), degrees),
        "half_strength": np.array(
            [0.5 * weights[indptr[i] : indptr[i + 1]].sum() for i in range(n)],
            dtype=np.float64,
        ),
    }


def assert_matches_oracle(instance: RMGPInstance) -> None:
    expected = oracle_csr(instance.graph, instance.node_ids, instance.index_of)
    for name, array in expected.items():
        got = getattr(instance, name)
        assert got.dtype == array.dtype, name
        assert got.tobytes() == array.tobytes(), name
    assert instance.degrees().tobytes() == np.diff(expected["indptr"]).tobytes()
    for i in range(instance.n):
        lo, hi = expected["indptr"][i], expected["indptr"][i + 1]
        assert instance.neighbor_indices[i].tobytes() == (
            expected["indices"][lo:hi].tobytes()
        )
        assert instance.neighbor_weights[i].tobytes() == (
            expected["weights"][lo:hi].tobytes()
        )


@st.composite
def scrambled_graphs(draw):
    """Graphs whose dict insertion order is far from index order."""
    n = draw(st.integers(0, 14))
    use_strings = draw(st.booleans())
    ids = [f"user-{i}" if use_strings else i * 7 - 20 for i in range(n)]
    node_order = draw(st.permutations(ids))
    pairs = [(u, v) for a, u in enumerate(ids) for v in ids[a + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    graph = SocialGraph()
    # Some nodes enter up front (possibly staying isolated), the rest
    # only as edge endpoints.
    upfront = draw(st.integers(0, n))
    for node in node_order[:upfront]:
        graph.add_node(node)
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        graph.add_edge(u, v, draw(weights))
    for node in node_order[upfront:]:
        graph.add_node(node)
    # Remove and re-add a few edges: they move to the end of both dicts.
    for u, v in draw(st.lists(st.sampled_from(chosen), unique=True,
                              max_size=len(chosen))) if chosen else []:
        graph.remove_edge(u, v)
        graph.add_edge(v, u, draw(weights))
    return graph


class TestOnePassBuildOracle:
    @settings(max_examples=200, deadline=None)
    @given(graph=scrambled_graphs())
    def test_layout_is_byte_identical(self, graph):
        n = len(graph.nodes())
        instance = RMGPInstance(graph, ["a", "b"], np.ones((n, 2)), alpha=0.4)
        assert_matches_oracle(instance)

    @settings(max_examples=60, deadline=None)
    @given(graph=scrambled_graphs(), extra=scrambled_graphs())
    def test_rebuild_after_churn_is_byte_identical(self, graph, extra):
        n = len(graph.nodes())
        instance = RMGPInstance(graph, ["a"], np.ones((n, 1)), alpha=0.4)
        nodes = instance.node_ids
        position = {node: i for i, node in enumerate(extra.nodes())}
        for u, v, w in extra.edges():
            # Map the second graph's edges onto this node set.
            if nodes:
                iu = position[u] % len(nodes)
                iv = position[v] % len(nodes)
                if iu != iv:
                    graph.add_edge(nodes[iu], nodes[iv], w)
        instance.rebuild_adjacency()
        assert_matches_oracle(instance)

    def test_empty_graph(self):
        instance = RMGPInstance(SocialGraph(), ["a"], np.ones((0, 1)))
        assert instance.indptr.tolist() == [0]
        assert_matches_oracle(instance)


class TestBuildErrors:
    def _instance(self):
        graph = SocialGraph.from_edges([("b", "a", 1.0), ("a", "c", 2.0)])
        return RMGPInstance(graph, ["x"], np.ones((3, 1)))

    def test_dangling_endpoint_message(self):
        instance = self._instance()
        instance.graph.add_edge("c", "ghost", 1.0)
        instance.graph.add_edge("a", "ghost", 1.0)
        with pytest.raises(GraphError) as expected:
            oracle_csr(instance.graph, instance.node_ids, instance.index_of)
        with pytest.raises(GraphError, match=re.escape(str(expected.value))):
            instance.rebuild_adjacency()
        assert "'a' -> 'ghost' dangles" in str(expected.value)

    def test_nan_weight(self):
        instance = self._instance()
        instance.graph.add_edge("b", "c", float("nan"))
        with pytest.raises(GraphError, match="finite"):
            instance.rebuild_adjacency()

    def test_infinite_weight(self):
        graph = SocialGraph.from_edges([(0, 1, float("inf"))])
        with pytest.raises(GraphError, match="finite"):
            RMGPInstance(graph, ["x"], np.ones((2, 1)))

    def test_negative_weight(self):
        # The graph API refuses w <= 0; write the dicts directly to reach
        # the build's own check.
        instance = self._instance()
        instance.graph.neighbors("a")["c"] = -2.0
        instance.graph.neighbors("c")["a"] = -2.0
        with pytest.raises(GraphError, match="non-negative"):
            instance.rebuild_adjacency()
