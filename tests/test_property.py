"""Property-based tests (hypothesis) on the core data structures.

These pin the invariants the whole system rests on: every layout encodes the
same classification function as its source tree for *arbitrary* topologies
and layout parameters, and the coalescing rule behaves like the hardware's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cuml_fil import FILForest
from repro.forest.builder import _gini_gain_from_counts
from repro.forest.tree import random_tree
from repro.gpusim.memory import warp_transactions
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from tests.lowering import tree_predict

# Shared strategy pieces.
tree_seeds = st.integers(0, 10_000)
depths = st.integers(0, 9)
sds = st.integers(1, 6)


def make_case(seed, depth, n_features=6, n_queries=64):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n_features, depth, leaf_prob=0.35)
    X = rng.standard_normal((n_queries, n_features)).astype(np.float32)
    return tree, X


class TestLayoutEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=depths, sd=sds)
    def test_hierarchical_equals_tree(self, seed, depth, sd):
        tree, X = make_case(seed, depth)
        h = HierarchicalForest.from_trees([tree], LayoutParams(sd))
        h.validate()
        assert np.array_equal(tree_predict(h, X, 0), tree.predict(X))

    @settings(max_examples=25, deadline=None)
    @given(seed=tree_seeds, depth=depths, sd=sds, rsd_extra=st.integers(0, 4))
    def test_rsd_never_changes_semantics(self, seed, depth, sd, rsd_extra):
        tree, X = make_case(seed, depth)
        a = HierarchicalForest.from_trees([tree], LayoutParams(sd))
        b = HierarchicalForest.from_trees([tree], LayoutParams(sd, sd + rsd_extra))
        assert np.array_equal(tree_predict(a, X, 0), tree_predict(b, X, 0))

    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=depths)
    def test_csr_equals_tree(self, seed, depth):
        tree, X = make_case(seed, depth)
        c = CSRForest.from_trees([tree])
        assert np.array_equal(tree_predict(c, X, 0), tree.predict(X))

    @settings(max_examples=40, deadline=None)
    @given(seed=tree_seeds, depth=depths)
    def test_fil_equals_tree(self, seed, depth):
        tree, X = make_case(seed, depth)
        f = FILForest.from_trees([tree])
        assert np.array_equal(tree_predict(f, X, 0), tree.predict(X))

    @settings(max_examples=25, deadline=None)
    @given(seed=tree_seeds, depth=st.integers(1, 8), sd=sds)
    def test_real_nodes_conserved(self, seed, depth, sd):
        """The hierarchical layout stores every tree node exactly once."""
        tree, _ = make_case(seed, depth)
        h = HierarchicalForest.from_trees([tree], LayoutParams(sd))
        assert h.total_real_nodes == tree.n_nodes

    @settings(max_examples=25, deadline=None)
    @given(seed=tree_seeds, depth=st.integers(1, 8), sd=sds)
    def test_subtree_sizes_bounded(self, seed, depth, sd):
        """Every subtree obeys 2^(d-1) <= size <= 2^d - 1 for its depth d,
        and depth never exceeds SD (RSD for the root)."""
        tree, _ = make_case(seed, depth)
        h = HierarchicalForest.from_trees([tree], LayoutParams(sd))
        sizes = np.diff(h.subtree_node_offset)
        d = h.subtree_depth.astype(np.int64)
        assert np.all(d <= sd)
        assert np.all(sizes >= (1 << (d - 1)))
        assert np.all(sizes <= (1 << d) - 1)


class TestCoalescingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 20), min_size=1, max_size=96),
    )
    def test_transaction_bounds(self, raw):
        """1 <= per-warp transactions <= active lanes; requests = #warps."""
        addrs = np.asarray(raw, dtype=np.int64) * 4
        req, txn, uniq = warp_transactions(addrs)
        n_warps = -(-len(raw) // 32)
        assert req == n_warps
        assert n_warps <= txn <= len(raw)
        assert len(uniq) <= txn

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=32, max_size=32),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance_within_warp(self, raw, pyrandom):
        """Coalescing depends on the address *set*, not lane order."""
        addrs = np.asarray(raw, dtype=np.int64)
        _, txn1, _ = warp_transactions(addrs)
        shuffled = addrs.copy()
        pyrandom.shuffle(shuffled)
        _, txn2, _ = warp_transactions(shuffled)
        assert txn1 == txn2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=64))
    def test_masking_never_increases_transactions(self, raw):
        addrs = np.asarray(raw, dtype=np.int64)
        _, txn_all, _ = warp_transactions(addrs)
        mask = np.zeros(len(raw), dtype=bool)
        mask[:: 2] = True
        _, txn_masked, _ = warp_transactions(addrs, mask)
        assert txn_masked <= txn_all


class TestGiniProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=2),
        st.lists(st.integers(0, 50), min_size=2, max_size=2),
    )
    def test_gain_bounded_by_parent_impurity(self, left, total_extra):
        left = np.asarray(left, dtype=np.float64)
        total = left + np.asarray(total_extra, dtype=np.float64)
        if total.sum() == 0:
            return
        gains = _gini_gain_from_counts(left.reshape(1, -1), total)
        n = total.sum()
        parent_gini = n - (total**2).sum() / n
        if np.isfinite(gains[0]):
            assert gains[0] <= parent_gini + 1e-9


class TestForestVoteProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=tree_seeds)
    def test_duplicating_forest_preserves_majority(self, seed):
        """Majority vote is invariant under duplicating every tree."""
        from repro.baselines.cpu_reference import reference_predict

        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, 5, 5, leaf_prob=0.4) for _ in range(3)]
        X = rng.standard_normal((32, 5)).astype(np.float32)
        once = reference_predict(trees, X)
        twice = reference_predict(trees + trees, X)
        assert np.array_equal(once, twice)
