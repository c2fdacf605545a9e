"""The blocked shared distance kernel and its pass accounting."""

import importlib

import numpy as np
import pytest

from repro.core.analyzer.distance import (
    DEFAULT_BLOCK_BYTES,
    NeighborGraph,
    block_rows,
    build_neighbor_graph,
    distance_passes,
    kth_neighbor_distances,
    pairwise_distances,
    pairwise_sq_distances,
    reset_pass_counter,
)
from repro.errors import AnalyzerMemoryError, ClusteringError


def naive_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The O(n^2 d) broadcast the kernel replaced — the reference."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _loop_sq(
    a: np.ndarray, b: np.ndarray, *, memory_budget_bytes: float | None = None
) -> np.ndarray:
    """The one-block-at-a-time kernel loop, kept as the bitwise reference.

    Blocks of at most ``m`` rows under the budget, the Gram arithmetic,
    one 2-D matmul per block: the stacked kernel must match it bit for
    bit. The rows are worked out here, not by ``block_rows``, so a change
    to the block shape shows up as a mismatch.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    out = np.empty((a.shape[0], b.shape[0]))
    budget = DEFAULT_BLOCK_BYTES if memory_budget_bytes is None else memory_budget_bytes
    rows = max(1, min(int(budget // (b.shape[0] * 24)), b.shape[0]))
    for start in range(0, a.shape[0], rows):
        stop = min(start + rows, a.shape[0])
        cross = a[start:stop] @ b.T
        sq = a_sq[start:stop][:, None] + b_sq[None, :] - 2.0 * cross
        np.maximum(sq, 0.0, out=sq)
        out[start:stop] = sq
    return out


@pytest.fixture
def matrix(rng) -> np.ndarray:
    return rng.normal(size=(37, 5)) * 10.0


class TestPairwise:
    def test_matches_naive_broadcast(self, matrix):
        got = pairwise_sq_distances(matrix)
        assert np.allclose(got, naive_sq(matrix, matrix), atol=1e-8)

    def test_cross_distances_match(self, matrix, rng):
        other = rng.normal(size=(11, 5))
        got = pairwise_sq_distances(matrix, other)
        assert got.shape == (37, 11)
        assert np.allclose(got, naive_sq(matrix, other), atol=1e-8)

    def test_small_block_same_answer(self, matrix):
        # A budget that forces many tiny blocks must not change values.
        budget = 5 * matrix.shape[0] * 24  # ~5 rows per block
        got = pairwise_sq_distances(matrix, memory_budget_bytes=budget)
        assert np.allclose(got, naive_sq(matrix, matrix), atol=1e-8)

    def test_distances_are_sqrt(self, matrix):
        assert np.allclose(
            pairwise_distances(matrix) ** 2, pairwise_sq_distances(matrix), atol=1e-8
        )

    def test_self_pass_counted_cross_not(self, matrix):
        reset_pass_counter()
        pairwise_sq_distances(matrix)
        assert distance_passes() == 1
        pairwise_sq_distances(matrix, matrix[:4])
        assert distance_passes() == 1  # cross-distances are not a full pass

    def test_rejects_bad_shapes(self, matrix):
        with pytest.raises(ClusteringError):
            pairwise_sq_distances(matrix[0])
        with pytest.raises(ClusteringError):
            pairwise_sq_distances(matrix, matrix[:, :2])


class TestStackedBlocks:
    """Full row blocks run as one stacked matmul, bit-identical to the loop."""

    @pytest.mark.parametrize("k", range(1, 16))
    def test_bitwise_equal_to_block_loop(self, k):
        rng = np.random.default_rng(1000 + k)
        for n in (k, k + 1, 3 * k - 1, 722, 1000):
            for d in (1, 3, 10):
                a = rng.normal(size=(n, d)) * 10.0
                centers = rng.normal(size=(k, d)) * 3.0
                got = pairwise_sq_distances(a, centers)
                assert np.array_equal(got, _loop_sq(a, centers)), (n, d)

    def test_kmeans_matches_block_loop(self, monkeypatch):
        # The package re-exports the function under the module's name.
        kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")
        rng = np.random.default_rng(11)
        matrix = np.concatenate(
            [rng.normal(loc=c, size=(240, 6)) for c in (-4.0, 0.0, 5.0)]
        )
        stacked = [kmeans_mod.kmeans(matrix, k, seed=3) for k in (1, 4, 9, 15)]
        monkeypatch.setattr(kmeans_mod, "pairwise_sq_distances", _loop_sq)
        looped = [kmeans_mod.kmeans(matrix, k, seed=3) for k in (1, 4, 9, 15)]
        for got, want in zip(stacked, looped):
            assert np.array_equal(got.labels, want.labels)
            assert repr(got.inertia) == repr(want.inertia)

    def test_default_budget_needs_few_block_calls(self, monkeypatch):
        from repro.core.analyzer import distance

        calls = []
        real = distance._sq_block

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(distance, "_sq_block", counting)
        a = np.random.default_rng(2).normal(size=(1000, 10))
        pairwise_sq_distances(a, a[:7])
        # One stacked call over 142 seven-row blocks, one 6-row tail.
        assert calls == [(142, 7, 10), (6, 10)]

    def test_small_budget_several_groups_bitwise(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(1003, 3)) * 4.0
        centers = rng.normal(size=(5, 3))
        budget = 3 * 5 * 5 * 24  # three 5-row blocks per stacked call
        assert block_rows(5, budget) == 5
        got = pairwise_sq_distances(a, centers, memory_budget_bytes=budget)
        assert np.array_equal(
            got, _loop_sq(a, centers, memory_budget_bytes=budget)
        )

    def test_budget_below_one_row_still_raises(self):
        a = np.ones((50, 3))
        centers = np.zeros((8, 3))
        with pytest.raises(AnalyzerMemoryError):
            pairwise_sq_distances(a, centers, memory_budget_bytes=8 * 24 - 1)


class TestBlockRows:
    def test_default_budget_gives_many_rows(self):
        assert block_rows(100, None) > 1

    def test_explicit_budget_too_small_raises(self):
        with pytest.raises(AnalyzerMemoryError):
            block_rows(1000, 10.0)

    def test_no_budget_never_raises(self):
        assert block_rows(10**9, None) == 1


class TestKthNeighbor:
    def test_matches_sorted_reference(self, matrix):
        k = 4
        full = np.sqrt(naive_sq(matrix, matrix))
        reference = np.sort(full, axis=1)[:, k]
        assert np.allclose(kth_neighbor_distances(matrix, k), reference, atol=1e-8)

    def test_k_clamps_to_n_minus_one(self, matrix):
        n = matrix.shape[0]
        capped = kth_neighbor_distances(matrix, n + 50)
        reference = np.sort(np.sqrt(naive_sq(matrix, matrix)), axis=1)[:, n - 1]
        assert np.allclose(capped, reference, atol=1e-8)


class TestNeighborGraph:
    def test_explicit_eps_matches_bruteforce(self, matrix):
        eps = 8.0
        graph = build_neighbor_graph(matrix, eps)
        full = np.sqrt(naive_sq(matrix, matrix))
        for i in range(matrix.shape[0]):
            expected = np.flatnonzero(full[i] <= eps)
            assert np.array_equal(graph.neighbors(i), expected)
        assert np.array_equal(graph.counts, (full <= eps).sum(axis=1))

    def test_auto_eps_matches_default_eps(self, matrix):
        from repro.core.analyzer.dbscan import default_eps

        graph = build_neighbor_graph(matrix)
        assert graph.eps == default_eps(matrix)

    def test_auto_eps_graph_is_exact(self, matrix):
        # The radius-cap machinery is an optimization, not an approximation.
        graph = build_neighbor_graph(matrix)
        exact = build_neighbor_graph(matrix, graph.eps)
        assert np.array_equal(graph.indptr, exact.indptr)
        assert np.array_equal(graph.indices, exact.indices)

    def test_one_pass_per_build(self, matrix):
        reset_pass_counter()
        build_neighbor_graph(matrix)
        assert distance_passes() == 1
        build_neighbor_graph(matrix, 3.0)
        assert distance_passes() == 2

    def test_adjacency_budget_enforced(self, matrix):
        # Enough for the transient block but not the accumulated edges.
        tight = matrix.shape[0] * 24 + 64
        with pytest.raises(AnalyzerMemoryError):
            build_neighbor_graph(matrix, 1e9, memory_budget_bytes=tight)

    def test_csr_accessors(self):
        graph = NeighborGraph(
            eps=1.0,
            indptr=np.array([0, 2, 3], dtype=np.int64),
            indices=np.array([0, 1, 1], dtype=np.int64),
        )
        assert graph.num_points == 2
        assert graph.counts.tolist() == [2, 1]
        assert graph.neighbors(0).tolist() == [0, 1]
        assert graph.memory_bytes() == graph.indptr.nbytes + graph.indices.nbytes
