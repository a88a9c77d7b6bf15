"""MutationFeed/MutationLog behavior, engine churn edge cases, and the
``partition()`` integration (``solver="inc"``, ``mutations=``,
``resume_from`` composition)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.api import SolveOptions, partition
from repro.core.equilibrium import equilibrium_report
from repro.core.incremental import IncrementalRMGP
from repro.errors import ConfigurationError, DataError
from repro.streaming import (
    DIFFERENTIAL_COST_RATIO,
    AddEdge,
    AddVertex,
    AlphaDrift,
    MutationFeed,
    RemoveVertex,
    UpdateCostRow,
    apply_mutations,
    differential_check,
    random_mutation_stream,
)
from repro.streaming.harness import EQUILIBRIUM_ATOL

from tests.streaming.conftest import as_batches, er_instance


def fresh_engine(seed: int = 0, **kwargs) -> IncrementalRMGP:
    # apply_mutations([]) clones deeply enough that the engine's in-place
    # graph churn cannot leak back into the shared fixture instance.
    return IncrementalRMGP(
        apply_mutations(er_instance(seed=seed), []), seed=seed, **kwargs
    )


class TestMutationFeed:
    def test_movement_accounting_matches_label_diff(self):
        engine = fresh_engine()
        feed = MutationFeed(engine)
        stream = random_mutation_stream(engine.instance, 16, seed=3)
        for batch in as_batches(stream, 8):
            _, stats = feed.apply(batch)
            labels = engine.instance.assignment_to_labels(engine.assignment)
            moved = sum(
                1 for node, label in labels.items()
                if repr(stats.baseline[node]) != repr(label)
            )
            assert stats.vertices_moved == moved

    def test_cumulative_totals_are_monotonic(self):
        engine = fresh_engine(seed=1)
        feed = MutationFeed(engine)
        stream = random_mutation_stream(engine.instance, 24, seed=1)
        previous = (0, 0.0)
        for batch in as_batches(stream, 6):
            _, stats = feed.apply(batch)
            assert stats.moved_total >= previous[0]
            assert stats.migration_cost_total >= previous[1] - 1e-12
            assert stats.moved_total >= stats.vertices_moved
            previous = (stats.moved_total, stats.migration_cost_total)

    def test_log_replays_the_streams_net_effect(self):
        base = er_instance(seed=2)
        engine = IncrementalRMGP(apply_mutations(base, []), seed=2)
        feed = MutationFeed(engine)
        stream = random_mutation_stream(base, 18, seed=2)
        for batch in as_batches(stream, 6):
            feed.apply(batch)
        replayed = feed.log.replay(base)
        assert list(replayed.node_ids) == list(engine.instance.node_ids)
        np.testing.assert_array_equal(
            replayed.indptr, engine.instance.indptr
        )
        np.testing.assert_array_equal(
            replayed.indices, engine.instance.indices
        )
        assert feed.log.num_mutations == 18
        assert len(feed.log) == 3
        assert feed.log.replay(base, upto=0).n == base.n

    def test_empty_batch_is_a_noop_resolve(self):
        engine = fresh_engine(seed=3)
        feed = MutationFeed(engine)
        result, stats = feed.apply([])
        assert stats.size == 0
        assert stats.vertices_moved == 0
        assert result.converged

    def test_churn_metrics_are_recorded(self):
        engine = fresh_engine(seed=4)
        with obs.recording() as record:
            feed = MutationFeed(engine)
            stream = random_mutation_stream(engine.instance, 8, seed=4)
            feed.apply(stream)
        assert record.metrics.counter("churn.mutations").value == 8
        assert record.metrics.counter("churn.batches").value == 1


class TestEngineChurnEdgeCases:
    def test_remove_sole_member_of_part(self):
        """Removing the only vertex of a class leaves that part empty —
        a valid partition; the equilibrium certificate must still hold."""
        engine = fresh_engine(seed=5)
        classes = np.asarray(engine.assignment)
        # Force a sole-member part: move player 0 to the least popular
        # class via a cost update making it dominant, then delete it.
        counts = np.bincount(classes, minlength=engine.instance.k)
        rare = int(counts.argmin())
        node = engine.instance.node_ids[0]
        row = [1.0] * engine.instance.k
        row[rare] = 0.001
        engine.update_player_costs(node, row)
        engine.resolve()
        lonely = [
            n for n, c in zip(engine.instance.node_ids, engine.assignment)
            if int(np.bincount(np.asarray(engine.assignment),
                               minlength=engine.instance.k)[c]) == 1
        ]
        if not lonely:
            lonely = [node]
        engine.remove_vertex(lonely[0])
        engine.resolve()
        report = equilibrium_report(
            apply_mutations(engine.instance, []), engine.assignment,
            tolerance=1e-9,
        )
        assert report.is_equilibrium

    def test_remove_down_to_empty_and_repopulate(self):
        engine = fresh_engine(seed=6)
        for node in list(engine.instance.node_ids):
            engine.remove_vertex(node)
        assert engine.instance.n == 0
        result = engine.resolve()
        assert result.converged
        engine.add_vertex("phoenix", [0.5, 0.1, 0.9, 0.7])
        engine.add_vertex("ashes", [0.2, 0.8, 0.3, 0.6],
                          edges=[("phoenix", 2.0)])
        engine.resolve()
        assert engine.instance.n == 2
        report = equilibrium_report(
            apply_mutations(engine.instance, []), engine.assignment,
            tolerance=1e-9,
        )
        assert report.is_equilibrium

    def test_add_edge_unknown_endpoint(self):
        engine = fresh_engine()
        with pytest.raises(ConfigurationError):
            engine.add_edge("ghost", engine.instance.node_ids[0], 1.0)

    def test_batch_defers_csr_rebuild(self):
        engine = fresh_engine(seed=7)
        nodes = list(engine.instance.node_ids)
        slots_before = int(engine.instance.indptr[-1])
        with engine.batch():
            engine.add_vertex("late", [0.3] * 4, edges=[(nodes[0], 1.0)])
            # Inside the batch the CSR is stale by design...
            assert engine._adjacency_stale
        # ...and flushed exactly once at batch exit.
        assert not engine._adjacency_stale
        assert int(engine.instance.indptr[-1]) == slots_before + 2

    def test_alpha_drifts_share_the_batch_rebuild(self, monkeypatch):
        """α drifts between structural mutations leave the CSR and the
        table to the batch's single flush; the resolve still lands on an
        equilibrium of the mutated instance."""
        base = er_instance(seed=5)
        nodes = list(base.node_ids)
        batch = [
            RemoveVertex(nodes[4]),
            AlphaDrift(0.3),
            AddEdge(nodes[0], nodes[9], 2.0),
            UpdateCostRow(nodes[1], (0.9, 0.2, 0.5, 0.4)),
            AlphaDrift(0.7),
            AddVertex("late", (0.3, 0.6, 0.2, 0.8), edges=((nodes[2], 1.0),)),
        ]
        engine = IncrementalRMGP(apply_mutations(base, []), seed=5)
        rebuilds = []
        rebuild = engine.instance.rebuild_adjacency

        def counted(*args):
            rebuilds.append(args)
            rebuild(*args)

        monkeypatch.setattr(engine.instance, "rebuild_adjacency", counted)
        result, _ = MutationFeed(engine).apply(batch)
        assert len(rebuilds) == 1
        assert result.converged
        mutated = apply_mutations(base, batch)
        assert engine.instance.alpha == mutated.alpha == 0.7
        labels = engine.instance.assignment_to_labels(engine.assignment)
        report = equilibrium_report(
            mutated, mutated.labels_to_assignment(labels),
            tolerance=EQUILIBRIUM_ATOL,
        )
        assert report.is_equilibrium, str(report)
        differential = differential_check(
            base, [batch], cost_ratio=DIFFERENTIAL_COST_RATIO
        )
        assert differential.ok, str(differential)

    def test_mutations_after_checkpoint_fail_fingerprint(self):
        """The documented ordering: restore first, replay mutations
        against the *restored* engine.  Mutating the instance before the
        restore changes its topology fingerprint and must hard-fail."""
        base = apply_mutations(er_instance(seed=8), [])
        engine = IncrementalRMGP(base, seed=8)
        checkpoint = engine.to_checkpoint()
        nodes = list(base.node_ids)
        mutated = apply_mutations(base, [AddVertex("intruder", (0.1,) * 4,
                                                   ((nodes[0], 1.0),))])
        with pytest.raises(DataError):
            IncrementalRMGP.from_checkpoint(mutated, checkpoint)

    def test_mutations_replayed_after_restore(self):
        base = apply_mutations(er_instance(seed=8), [])
        engine = IncrementalRMGP(base, seed=8)
        checkpoint = engine.to_checkpoint()
        restored = IncrementalRMGP.from_checkpoint(
            apply_mutations(base, []), checkpoint
        )
        stream = random_mutation_stream(base, 6, seed=8)
        with restored.batch():
            for mutation in stream:
                mutation.apply_to(restored)
        restored.resolve()
        report = equilibrium_report(
            apply_mutations(restored.instance, []), restored.assignment,
            tolerance=1e-9,
        )
        assert report.is_equilibrium

    def test_movement_penalty_reduces_churn(self):
        base = er_instance(seed=9)
        stream = random_mutation_stream(base, 16, seed=9)

        def moved_with(penalty):
            engine = IncrementalRMGP(apply_mutations(base, []), seed=9)
            feed = MutationFeed(engine)
            total = 0
            for batch in as_batches(stream, 8):
                _, stats = feed.apply(batch, movement_penalty=penalty)
                total += stats.vertices_moved
            return total

        assert moved_with(50.0) <= moved_with(None)


class TestPartitionIntegration:
    def test_inc_solver_reaches_an_equilibrium(self):
        inst = er_instance(seed=10)
        result = partition(apply_mutations(inst, []), solver="inc", seed=1)
        report = equilibrium_report(inst, result.assignment, tolerance=1e-9)
        assert report.is_equilibrium
        assert result.converged

    def test_mutations_kwarg_incremental_vs_pure(self):
        inst = er_instance(seed=11)
        nodes = list(inst.node_ids)
        mutations = [
            AddEdge(nodes[0], nodes[7], 2.0),
            UpdateCostRow(nodes[3], (0.9, 0.1, 0.5, 0.5)),
            RemoveVertex(nodes[5]),
        ]
        # "gt" pre-applies purely; "inc" replays live. Both must land on
        # an equilibrium of the same mutated instance.
        mutated = apply_mutations(inst, mutations)
        for solver in ("gt", "inc"):
            result = partition(
                apply_mutations(inst, []), solver=solver, seed=0,
                mutations=mutations,
            )
            report = equilibrium_report(
                mutated,
                mutated.labels_to_assignment(result.labels),
                tolerance=1e-9,
            )
            assert report.is_equilibrium, solver

    def test_mutations_compose_with_checkpointing(self, tmp_path):
        inst = er_instance(seed=12)
        nodes = list(inst.node_ids)
        path = os.fspath(tmp_path / "churn.ckpt")
        result = partition(
            apply_mutations(inst, []), solver="inc", seed=2,
            mutations=[AddEdge(nodes[0], nodes[9], 1.5)],
            deadline_seconds=30.0, checkpoint_every=1, checkpoint_path=path,
        )
        assert result.converged

    def test_resume_from_then_mutations(self):
        inst = apply_mutations(er_instance(seed=13), [])
        engine = IncrementalRMGP(apply_mutations(inst, []), seed=3)
        checkpoint = engine.to_checkpoint()
        nodes = list(inst.node_ids)
        result = partition(
            apply_mutations(inst, []), solver="inc",
            options=SolveOptions(resume_from=checkpoint),
            mutations=[AddEdge(nodes[1], nodes[4], 3.0)],
        )
        mutated = apply_mutations(inst, [AddEdge(nodes[1], nodes[4], 3.0)])
        report = equilibrium_report(
            mutated,
            mutated.labels_to_assignment(result.labels),
            tolerance=1e-9,
        )
        assert report.is_equilibrium

    def test_unknown_mutation_kwarg_still_rejected(self):
        inst = er_instance(seed=14)
        with pytest.raises(ConfigurationError):
            partition(inst, solver="gt", mutation=[])  # typo'd name
