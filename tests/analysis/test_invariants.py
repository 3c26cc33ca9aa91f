"""The invariant auditor: CSR audit, weight conservation, Lemma 5.

Each CSR corruption is seeded into a lightweight stand-in (the validator
only reads the array fields), because a real :class:`CSRGraph` would
reject some of them at construction — the auditor exists precisely for
graphs that arrived from outside the builders.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import audit_lemma5, audit_weight_update, validate_csr
from repro.core.state import CommunityState
from repro.errors import GraphValidationError
from repro.graph.builder import from_edge_array, validate_graph
from repro.graph.generators import karate_club, ring_of_cliques
from repro.graph.io import load_npz, save_npz


def small_graph():
    # two triangles joined by one edge
    return from_edge_array(
        6, [0, 0, 1, 3, 3, 4, 2], [1, 2, 2, 4, 5, 5, 3], name="2tri"
    )


def clone(graph, **overrides):
    """Mutable stand-in carrying copies of the CSR arrays."""
    fields = dict(
        indptr=graph.indptr.copy(),
        indices=graph.indices.copy(),
        weights=graph.weights.copy(),
        self_weight=graph.self_weight.copy(),
        two_m=graph.two_m,
        name=graph.name,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def kinds(findings):
    return {f.kind for f in findings}


class TestValidateCsr:
    def test_clean_graphs(self):
        assert validate_csr(small_graph()) == []
        assert validate_csr(karate_club()) == []
        assert validate_csr(ring_of_cliques(4, 5)) == []

    def test_source_lands_in_kernel_field(self):
        g = clone(small_graph())
        g.self_weight[0] = -1.0
        (f,) = validate_csr(g, source="unit:test")
        assert f.kernel == "unit:test"
        assert f.checker == "invariant"

    def test_indptr_not_starting_at_zero(self):
        g = clone(small_graph())
        g.indptr[0] = 1
        assert "csr-malformed" in kinds(validate_csr(g))

    def test_decreasing_indptr(self):
        g = clone(small_graph())
        g.indptr[2] = g.indptr[3] + 1
        found = validate_csr(g)
        assert kinds(found) == {"csr-malformed"}
        assert "decreases" in found[0].message

    def test_indptr_tail_mismatch(self):
        g = clone(small_graph())
        g.indptr[-1] += 2
        assert "csr-malformed" in kinds(validate_csr(g))

    def test_misaligned_weights(self):
        g = clone(small_graph())
        g.weights = g.weights[:-1]
        assert "csr-malformed" in kinds(validate_csr(g))

    def test_wrong_self_weight_length(self):
        g = clone(small_graph())
        g.self_weight = g.self_weight[:-1]
        assert "csr-malformed" in kinds(validate_csr(g))

    @pytest.mark.parametrize("name", ["indices", "weights", "self_weight"])
    def test_multi_dimensional_payload(self, name):
        g = clone(small_graph())
        setattr(g, name, getattr(g, name)[:, None])
        found = validate_csr(g)
        assert kinds(found) == {"csr-malformed"}
        assert name in found[0].message

    def test_out_of_range_neighbour(self):
        g = clone(small_graph())
        g.indices[0] = 99
        assert kinds(validate_csr(g)) == {"csr-index-range"}

    def test_adjacency_loop(self):
        g = clone(small_graph())
        pos = g.indptr[0]  # first neighbour of vertex 0
        g.indices[pos] = 0
        assert "csr-adjacency-loop" in kinds(validate_csr(g))

    def test_negative_and_nonfinite_weights(self):
        g = clone(small_graph())
        g.weights[0] = -2.0
        g.weights[1] = np.nan
        found = [f for f in validate_csr(g) if f.kind == "csr-bad-weight"]
        assert found

    def test_bad_self_loop_weight(self):
        g = clone(small_graph())
        g.self_weight[2] = -1.0
        assert "csr-bad-weight" in kinds(validate_csr(g))

    def test_unsorted_row(self):
        g = clone(small_graph())
        row = slice(g.indptr[0], g.indptr[1])
        g.indices[row] = g.indices[row][::-1]
        found = validate_csr(g)
        assert "csr-unsorted-row" in kinds(found)

    def test_duplicate_neighbour(self):
        g = clone(small_graph())
        # vertex 3 has neighbours (2, 4, 5): duplicate one in place
        row = slice(g.indptr[3], g.indptr[4])
        g.indices[row] = [2, 4, 4]
        found = validate_csr(g)
        assert "csr-duplicate-neighbour" in kinds(found)

    def test_asymmetric_weights(self):
        g = clone(small_graph())
        g.weights[0] = 9.0  # one direction of (0,1) only
        assert "csr-asymmetric" in kinds(validate_csr(g))

    def test_asymmetric_structure(self):
        g = clone(small_graph())
        pos = g.indptr[0]
        # vertex 0's first neighbour becomes 4, with no (4, 0) edge
        g.indices[pos] = 4
        found = kinds(validate_csr(g))
        assert "csr-asymmetric" in found

    def test_weight_parity(self):
        g = clone(small_graph(), two_m=100.0)
        assert "csr-weight-parity" in kinds(validate_csr(g))

    def test_weighted_and_looped_graph_is_clean(self):
        g = from_edge_array(
            4,
            [0, 1, 2, 0],
            [1, 2, 3, 0],
            w=[2.0, 0.5, 1.5, 3.0],
        )
        assert validate_csr(g) == []


class TestAuditWeightUpdate:
    def _state(self):
        g = karate_club()
        rng = np.random.default_rng(0)
        return CommunityState.from_assignment(g, rng.integers(0, 6, g.n))

    def test_consistent_state_is_clean(self):
        assert audit_weight_update(self._state()) == []

    @pytest.mark.parametrize("field", ["d_comm", "comm_strength", "comm_size"])
    def test_corrupted_field_is_flagged(self, field):
        state = self._state()
        arr = getattr(state, field)
        arr[arr.shape[0] // 2] += 1
        found = audit_weight_update(state, iteration=4)
        assert any(f.details["field"] == field for f in found)
        f = found[0]
        assert f.kind == "weight-conservation"
        assert f.launch == 4
        assert f.details["positions"]
        assert f.details["maintained"] != f.details["expected"]


class TestAuditLemma5:
    def test_exact_pruning_is_clean(self):
        active = np.array([True, False, True, False])
        oracle = np.array([True, False, False, False])
        assert audit_lemma5(active, oracle) == []

    def test_false_negative_is_flagged(self):
        active = np.array([True, False, False, True])
        oracle = np.array([False, True, True, False])
        (f,) = audit_lemma5(active, oracle, iteration=2, strategy="mg")
        assert f.kind == "lemma5-false-negative"
        assert f.kernel == "pruning:mg"
        assert f.launch == 2
        assert f.details["false_negatives"] == 2
        assert f.details["vertices"] == [1, 2]

    def test_false_positives_are_not_findings(self):
        # keeping a vertex active that does not move costs work, not
        # correctness — Lemma 5 only forbids pruning movers
        active = np.ones(4, dtype=bool)
        oracle = np.zeros(4, dtype=bool)
        assert audit_lemma5(active, oracle) == []


class TestLoaderFailFast:
    def test_good_npz_round_trips(self, tmp_path):
        g = karate_club()
        path = tmp_path / "karate.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        np.testing.assert_array_equal(loaded.indices, g.indices)

    def test_corrupt_npz_raises_with_findings(self, tmp_path):
        g = karate_club()
        path = tmp_path / "bad.npz"
        save_npz(g, path)
        data = dict(np.load(path, allow_pickle=False))
        data["weights"][0] = 99.0  # breaks symmetry (and parity)
        np.savez_compressed(path, **data)
        with pytest.raises(GraphValidationError) as exc:
            load_npz(path)
        assert exc.value.findings
        assert "csr-asymmetric" in {f.kind for f in exc.value.findings}
        assert str(path) in str(exc.value)

    def test_validate_graph_passes_clean_graphs_through(self):
        g = small_graph()
        assert validate_graph(g) is g

    def test_validate_graph_reports_all_findings(self):
        g = clone(small_graph(), two_m=50.0)
        g.weights[0] = -1.0
        with pytest.raises(GraphValidationError) as exc:
            validate_graph(g, source="unit")
        assert len(exc.value.findings) >= 2
        assert "unit" in str(exc.value)


def test_sanitized_session_audits_built_graphs():
    from repro import analysis

    with analysis.sanitized("fast") as san:
        from_edge_array(3, [0, 1], [1, 2])
    assert san.log.clean  # well-formed build leaves no findings
