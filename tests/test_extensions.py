"""Tests for the §3.2.1 extension variants (clustering, block-per-tree)."""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.extensions import (
    GPUBlockPerTreeKernel,
    cluster_trees_by_features,
    feature_usage_histogram,
    kmeans,
)
from repro.forest.tree import DecisionTree, random_tree
from repro.kernels import GPUIndependentKernel
from repro.layout.hierarchical import HierarchicalForest, LayoutParams


class TestFeatureUsageHistogram:
    def test_normalised(self, small_trees):
        for t in small_trees:
            h = feature_usage_histogram(t, 12)
            assert h.shape == (12,)
            assert h.sum() == pytest.approx(1.0)
            assert np.all(h >= 0)

    def test_leaf_tree_zero(self):
        h = feature_usage_histogram(DecisionTree.leaf(0), 5)
        assert h.sum() == 0

    def test_root_dominates(self):
        """Depth weighting: the root feature outweighs a single deep one."""
        tree = DecisionTree(
            feature=np.array([0, 1, -1, -1, -1]),
            threshold=np.zeros(5, dtype=np.float32),
            left_child=np.array([1, 3, -1, -1, -1]),
            right_child=np.array([2, 4, -1, -1, -1]),
            value=np.array([-1, -1, 0, 1, 0]),
        )
        h = feature_usage_histogram(tree, 3)
        assert h[0] > h[1]

    def test_out_of_range_feature(self, small_trees):
        with pytest.raises(ValueError):
            feature_usage_histogram(small_trees[0], 2)


class TestKMeans:
    def test_separable_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, size=(20, 2))
        b = rng.normal(5, 0.1, size=(20, 2))
        labels, cents = kmeans(np.vstack([a, b]), 2, seed=1)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_k_clamped_to_points(self):
        labels, cents = kmeans(np.zeros((3, 2)), 10, seed=0)
        assert cents.shape[0] == 3

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3))
        l1, _ = kmeans(pts, 3, seed=5)
        l2, _ = kmeans(pts, 3, seed=5)
        assert np.array_equal(l1, l2)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 2)
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)


class TestClusterTrees:
    def test_permutation(self, small_trees):
        order = cluster_trees_by_features(small_trees, 12, k=3, seed=0)
        assert sorted(order) == list(range(len(small_trees)))

    def test_reordering_preserves_predictions(self, small_trees, queries):
        order = cluster_trees_by_features(small_trees, 12, k=3, seed=0)
        reordered = [small_trees[i] for i in order]
        assert np.array_equal(
            reference_predict(small_trees, queries),
            reference_predict(reordered, queries),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_trees_by_features([], 4)


class TestBlockPerTree:
    def test_correct_and_slower(self, small_trees, queries):
        hier = HierarchicalForest.from_trees(small_trees, LayoutParams(5))
        base = GPUIndependentKernel().run(hier, queries)
        bpt = GPUBlockPerTreeKernel().run(hier, queries)
        assert np.array_equal(bpt.predictions, base.predictions)
        # Paper §3.2.1: significant slowdown (10 trees on 30 SMs -> 3x
        # occupancy loss alone).
        assert bpt.seconds > 1.5 * base.seconds
        assert bpt.timing.bound_by == "occupancy"

    def test_more_trees_less_penalty(self, queries16):
        """With >= n_sms trees the occupancy penalty fades."""
        rng = np.random.default_rng(5)
        few = [random_tree(rng, 16, 8, min_nodes=3) for _ in range(5)]
        many = few * 8  # 40 trees
        h_few = HierarchicalForest.from_trees(few, LayoutParams(5))
        h_many = HierarchicalForest.from_trees(many, LayoutParams(5))
        slow_few = (
            GPUBlockPerTreeKernel().run(h_few, queries16).seconds
            / GPUIndependentKernel().run(h_few, queries16).seconds
        )
        slow_many = (
            GPUBlockPerTreeKernel().run(h_many, queries16).seconds
            / GPUIndependentKernel().run(h_many, queries16).seconds
        )
        assert slow_many < slow_few


class TestQuerySorting:
    def test_signature_deterministic_and_groups(self, small_trees, queries):
        from repro.extensions import root_path_signature

        s1 = root_path_signature(small_trees, queries, depth=5)
        s2 = root_path_signature(small_trees, queries, depth=5)
        assert np.array_equal(s1, s2)
        # Signatures take multiple values (queries actually diverge).
        assert len(np.unique(s1)) > 4

    def test_sort_is_permutation(self, small_trees, queries):
        from repro.extensions import sort_queries

        Xs, order = sort_queries(small_trees, queries)
        assert sorted(order.tolist()) == list(range(queries.shape[0]))
        assert np.array_equal(Xs, queries[order])

    def test_sorted_predictions_match_after_unpermute(
        self, small_trees, queries
    ):
        from repro.baselines import reference_predict
        from repro.extensions import sort_queries

        Xs, order = sort_queries(small_trees, queries)
        ref = reference_predict(small_trees, queries)
        srt = reference_predict(small_trees, Xs)
        assert np.array_equal(srt[np.argsort(order)], ref)

    def test_sorting_improves_warp_coherence(self, small_trees, queries):
        from repro.extensions import sort_queries
        from repro.layout.hierarchical import HierarchicalForest, LayoutParams

        hier = HierarchicalForest.from_trees(small_trees, LayoutParams(5))
        base = GPUIndependentKernel().run(hier, queries)
        Xs, _ = sort_queries(small_trees, queries, depth=8)
        srt = GPUIndependentKernel().run(hier, Xs)
        assert (
            srt.metrics.global_load_transactions
            <= base.metrics.global_load_transactions
        )

    def test_sort_cost_scales_with_features(self):
        from repro.extensions import sorting_cost_seconds

        narrow = sorting_cost_seconds(10_000, 8)
        wide = sorting_cost_seconds(10_000, 64)
        assert wide > narrow

    def test_empty_forest_rejected(self, queries):
        from repro.extensions import root_path_signature
        import pytest as _pytest

        with _pytest.raises(ValueError):
            root_path_signature([], queries)


class TestGreedyTraversal:
    """Wu & Becchi's greedy refill (paper §5): correctness + tradeoff."""

    @pytest.fixture(scope="class")
    def pair(self, deep_trees, queries16):
        from repro.extensions import GPUGreedyKernel

        hier = HierarchicalForest.from_trees(deep_trees, LayoutParams(5))
        base = GPUIndependentKernel().run(hier, queries16)
        greedy = GPUGreedyKernel().run(hier, queries16)
        return base, greedy

    def test_correct(self, pair, deep_trees, queries16):
        base, greedy = pair
        assert np.array_equal(
            greedy.predictions, reference_predict(deep_trees, queries16)
        )

    def test_divergence_win(self, pair):
        """Greedy refill keeps lanes busy: warp efficiency rises."""
        base, greedy = pair
        assert (
            greedy.metrics.warp_efficiency
            > base.metrics.warp_efficiency + 0.1
        )

    def test_coalescing_loss(self, pair):
        """...at the cost of more transactions per request."""
        base, greedy = pair
        assert (
            greedy.metrics.coalescing_ratio > base.metrics.coalescing_ratio
        )

    def test_not_faster_overall(self, pair):
        """Paper §5: 'leading to performance degradation. Thus, we do not
        consider applying this variant.'"""
        base, greedy = pair
        assert greedy.seconds >= base.seconds * 0.95
