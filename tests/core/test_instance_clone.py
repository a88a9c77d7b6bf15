"""Zero-copy clones: shared CSR state, copy-on-write, unchanged answers.

:meth:`RMGPInstance.with_alpha` / :meth:`~RMGPInstance.with_cost` hand
the clone the parent's graph-derived state by reference.  Every
in-place writer — :meth:`~RMGPInstance.rebuild_adjacency`,
:meth:`~RMGPInstance.update_edge_weight` and the
:class:`~repro.core.incremental.IncrementalRMGP` edits — must take a
private copy first, on whichever side it runs.  These tests snapshot the
untouched side, mutate the other, and require the snapshot to hold
byte-for-byte; sharing without copy-on-write fails them.  They also pin
that a clone solves exactly like a freshly constructed instance.
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import partition
from repro.core import RMGPInstance
from repro.core.costs import MatrixCost, ScaledCost
from repro.core.incremental import IncrementalRMGP
from repro.core.registry import SOLVERS
from repro.errors import ConfigurationError
from repro.graph import SocialGraph, erdos_renyi
from repro.streaming.mutations import AddEdge, AddVertex, apply_mutations

#: Array state a clone shares with its parent (plus the per-query ceiling).
ARRAYS = (
    "indptr", "indices", "weights", "half_weights", "edge_owner",
    "half_strength", "max_social_cost",
)


def snapshot(instance: RMGPInstance) -> Dict[str, object]:
    """Everything a mutation of the *other* side must leave unchanged."""
    state: Dict[str, object] = {
        "n": instance.n,
        "node_ids": list(instance.node_ids),
        "index_of": dict(instance.index_of),
        "degrees": instance.degrees().tobytes(),
        "graph": {
            node: dict(instance.graph.neighbors(node))
            for node in instance.graph.nodes()
        },
        "neighbor_indices": [v.tobytes() for v in instance.neighbor_indices],
        "neighbor_weights": [v.tobytes() for v in instance.neighbor_weights],
    }
    for name in ARRAYS:
        state[name] = getattr(instance, name).tobytes()
    return state


def make_instance(n: int, seed: int, alpha: float = 0.5) -> RMGPInstance:
    graph = erdos_renyi(n, 0.4, random.Random(seed))
    rng = np.random.default_rng(seed)
    for u, v, _ in list(graph.edges()):
        graph.add_edge(u, v, float(rng.uniform(0.1, 3.0)))
    cost = MatrixCost(rng.uniform(0.0, 1.0, (n, 3)))
    return RMGPInstance(graph, ["x", "y", "z"], cost, alpha=alpha)


def some_edge(instance: RMGPInstance, pick: int):
    edges = sorted((u, v) for u, v, _ in instance.graph.edges())
    return edges[pick % len(edges)]


# ----------------------------------------------------------------------
# Instance-level writers
# ----------------------------------------------------------------------
def rebuild_after_edit(instance: RMGPInstance, pick: int) -> None:
    # Removing an edge shrinks the layout, so a rebuild that ignored
    # sharing would rewrite the shared buffers in place.
    u, v = some_edge(instance, pick)
    instance.unshare()
    instance.graph.remove_edge(u, v)
    instance.rebuild_adjacency()


def reweight(instance: RMGPInstance, pick: int) -> None:
    u, v = some_edge(instance, pick)
    instance.update_edge_weight(u, v, 7.25)


INSTANCE_WRITERS = {"rebuild": rebuild_after_edit, "reweight": reweight}


class TestZeroCopy:
    def test_clones_share_the_csr(self):
        parent = make_instance(12, seed=1)
        for clone in (parent.with_alpha(0.3),
                      parent.with_cost(ScaledCost(parent.cost, 2.0))):
            assert np.shares_memory(clone.indices, parent.indices)
            assert np.shares_memory(clone.weights, parent.weights)
            assert clone.neighbor_indices is parent.neighbor_indices
            assert clone.node_ids is parent.node_ids
            assert clone.graph is parent.graph
            # ... but never the per-query state.
            assert not np.shares_memory(
                clone.max_social_cost, parent.max_social_cost
            )

    def test_clone_state_matches_a_fresh_instance(self):
        parent = make_instance(12, seed=2)
        clone = parent.with_alpha(0.8)
        fresh = RMGPInstance(parent.graph.copy(), parent.classes,
                             parent.cost, alpha=0.8)
        assert snapshot(clone) == snapshot(fresh)

    def test_clone_still_validates(self):
        parent = make_instance(6, seed=3)
        with pytest.raises(ConfigurationError, match="alpha"):
            parent.with_alpha(1.0)
        with pytest.raises(ConfigurationError, match="players"):
            parent.with_cost(MatrixCost(np.ones((5, 3))))
        with pytest.raises(ConfigurationError, match="classes"):
            parent.with_cost(MatrixCost(np.ones((6, 2))))

    def test_never_cloned_instance_rebuilds_in_place(self):
        parent = make_instance(12, seed=4)
        buffer = parent._csr_scratch["indices"]
        parent.rebuild_adjacency()
        assert parent._csr_scratch["indices"] is buffer
        parent.with_alpha(0.3)
        parent.rebuild_adjacency()  # shared: reallocates once ...
        moved = parent._csr_scratch["indices"]
        assert moved is not buffer
        parent.rebuild_adjacency()  # ... then reuses its own buffers
        assert parent._csr_scratch["indices"] is moved


class TestCloneIsolation:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 50),
        writer=st.sampled_from(sorted(INSTANCE_WRITERS)),
        clone_writes=st.booleans(),
        pick=st.integers(0, 10 ** 6),
    )
    def test_instance_writers(self, n, seed, writer, clone_writes, pick):
        parent = make_instance(n, seed)
        if parent.graph.num_edges == 0:
            parent.graph.add_edge(parent.node_ids[0], parent.node_ids[1], 1.5)
            parent.rebuild_adjacency()
        clone = parent.with_alpha(0.25)
        assert np.shares_memory(clone.indices, parent.indices)
        target, other = (clone, parent) if clone_writes else (parent, clone)
        before = snapshot(other)
        INSTANCE_WRITERS[writer](target, pick)
        assert snapshot(other) == before
        # The writer's own state is a correct rebuild of its graph.
        fresh = RMGPInstance(target.graph.copy(), target.classes,
                             target.cost, alpha=target.alpha)
        for name in ("indptr", "indices", "weights", "half_weights"):
            assert getattr(target, name).tobytes() == (
                getattr(fresh, name).tobytes()
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 10),
        seed=st.integers(0, 50),
        ops=st.lists(
            st.tuples(
                st.sampled_from([
                    "add_vertex", "remove_vertex", "add_edge",
                    "reweight_edge", "remove_edge", "set_alpha",
                    "update_player_costs",
                ]),
                st.integers(0, 10 ** 6),
            ),
            min_size=1, max_size=6,
        ),
        batched=st.booleans(),
    )
    def test_engine_writers(self, n, seed, ops, batched):
        # The engine's instance is a with_cost clone of `base`; `clone`
        # is in turn cloned from the engine's instance.  Engine writes
        # must reach neither.
        base = make_instance(n, seed)
        engine = IncrementalRMGP(base, seed=seed)
        clone = engine.instance.with_alpha(0.3)
        assert np.shares_memory(clone.indices, base.indices) or (
            base.indices.size == 0
        )
        before = {"base": snapshot(base), "clone": snapshot(clone)}
        fresh_id = 1000

        def apply(kind: str, pick: int) -> None:
            nonlocal fresh_id
            inst = engine.instance
            nodes = list(inst.node_ids)
            edges = sorted((u, v) for u, v, _ in inst.graph.edges())
            if kind == "add_vertex":
                friends = [(nodes[pick % len(nodes)], 1.5)] if nodes else []
                engine.add_vertex(fresh_id, [0.2, 0.4, 0.6], friends)
                fresh_id += 1
            elif kind == "remove_vertex" and nodes:
                engine.remove_vertex(nodes[pick % len(nodes)])
            elif kind == "add_edge" and len(nodes) >= 2:
                u = nodes[pick % len(nodes)]
                v = nodes[(pick // 7 + 1 + nodes.index(u)) % len(nodes)]
                if u != v:
                    engine.add_edge(u, v, 2.5)
            elif kind == "reweight_edge" and edges:
                u, v = edges[pick % len(edges)]
                engine.add_edge(u, v, 0.75)
            elif kind == "remove_edge" and edges:
                u, v = edges[pick % len(edges)]
                engine.remove_edge(u, v)
            elif kind == "set_alpha":
                engine.set_alpha(0.1 + (pick % 80) / 100)
            elif kind == "update_player_costs" and nodes:
                engine.update_player_costs(
                    nodes[pick % len(nodes)], [0.9, 0.1, 0.5]
                )

        if batched:
            with engine.batch():
                for kind, pick in ops:
                    apply(kind, pick)
        else:
            for kind, pick in ops:
                apply(kind, pick)
        engine.resolve()
        assert snapshot(base) == before["base"]
        assert snapshot(clone) == before["clone"]

    def test_engine_add_vertex_leaves_the_parent_alone(self):
        # The reported failure mode of sharing without copy-on-write: the
        # parent read n == 5 against an indptr with 4 rows.
        base = make_instance(4, seed=0)
        engine = IncrementalRMGP(base, seed=0)
        engine.add_vertex("new", [0.1, 0.2, 0.3], [(base.node_ids[0], 1.0)])
        assert engine.instance.n == 5
        assert base.n == 4 and base.indptr.size == 5
        assert "new" not in base.index_of
        assert "new" not in base.graph.nodes()


class TestIncrementalSolverPurity:
    def test_inc_mutations_do_not_touch_the_caller(self):
        graph = SocialGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        cost = np.array([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5], [0.3, 0.6]])
        instance = RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)
        before = snapshot(instance)
        mutations = [AddEdge(1, 3, 1.0), AddVertex(7, [0.4, 0.1], [(0, 2.0)])]
        result = partition(instance, solver="inc", seed=1,
                           mutations=mutations)
        assert result.assignment.size == 5
        assert graph.num_edges == 4 and graph.nodes() == [0, 1, 2, 3]
        assert snapshot(instance) == before
        # Same answer as running the engine on a private deep copy.
        private = partition(apply_mutations(instance, []), solver="inc",
                            seed=1, mutations=mutations)
        assert result.assignment.tobytes() == private.assignment.tobytes()


# ----------------------------------------------------------------------
# Clones solve like fresh instances
# ----------------------------------------------------------------------
def solver_kwargs(name: str, instance: RMGPInstance) -> Dict[str, object]:
    if name in ("cap", "capacitated"):
        return {"capacities": [instance.n] * instance.k}
    if name in ("minpart", "with_minimums"):
        return {"min_participants": 1}
    return {}


def result_bytes(result) -> Dict[str, object]:
    """The result payload minus wall-clock fields, plus the assignment."""
    payload = result.to_dict()
    payload.pop("wall_seconds")
    for row in payload["round_trace"]:
        row.pop("seconds")
    payload["assignment"] = result.assignment.tobytes()
    return payload


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_clones_solve_like_fresh_instances(name):
    parent = make_instance(24, seed=9, alpha=0.5)
    kwargs = solver_kwargs(name, parent)
    for alpha in (0.2, 0.7):
        fresh = RMGPInstance(parent.graph, parent.classes, parent.cost,
                             alpha=alpha)
        assert result_bytes(
            partition(parent.with_alpha(alpha), solver=name, seed=5, **kwargs)
        ) == result_bytes(partition(fresh, solver=name, seed=5, **kwargs))
    scaled = ScaledCost(parent.cost, 3.5)
    fresh = RMGPInstance(parent.graph, parent.classes, scaled, alpha=0.5)
    assert result_bytes(
        partition(parent.with_cost(scaled), solver=name, seed=5, **kwargs)
    ) == result_bytes(partition(fresh, solver=name, seed=5, **kwargs))
