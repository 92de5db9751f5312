"""Tests for the hierarchical subtree layout (paper §3.1, Fig. 3)."""

import numpy as np
import pytest

from repro.fastpath import fastpath_predict
from repro.forest.tree import EMPTY, LEAF, DecisionTree
from repro.layout.hierarchical import HierarchicalForest, LayoutParams, _fill_subtree
from tests.lowering import tree_predict
from tests.test_forest_tree import small_manual_tree


class TestLayoutParams:
    def test_rsd_defaults_to_sd(self):
        p = LayoutParams(6)
        assert p.rsd == 6 and p.sd == 6

    def test_explicit_rsd(self):
        p = LayoutParams(6, 10)
        assert p.rsd == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            LayoutParams(0)
        with pytest.raises(ValueError):
            LayoutParams(4, 0)


class TestFillSubtree:
    def test_paper_example_padding(self):
        """Fig. 3a: SD=3 pads subtree 0 with two null slots under leaf 1."""
        tree = small_manual_tree()
        slots, depth, size = _fill_subtree(tree, 0, 3)
        assert depth == 3
        assert size == 7
        # Slot layout: 0, 1(leaf), 2, [pad], [pad], 3, 4.
        assert slots[:7].tolist() == [0, 1, 2, -1, -1, 3, 4]

    def test_truncated_when_shallow(self):
        tree = DecisionTree.leaf(0)
        slots, depth, size = _fill_subtree(tree, 0, 4)
        assert depth == 1 and size == 1

    def test_stops_at_all_leaves(self):
        tree = small_manual_tree()
        # Subtree rooted at node 3 (children 7, 8 both leaves): depth 2.
        slots, depth, size = _fill_subtree(tree, 3, 5)
        assert depth == 2 and size == 3
        assert slots[:3].tolist() == [3, 7, 8]


class TestConstruction:
    def test_paper_example_subtree_count(self):
        """Fig. 3: SD=3 splits the example tree into subtrees rooted at the
        frontier inner nodes' children."""
        tree = small_manual_tree()
        h = HierarchicalForest.from_trees([tree], LayoutParams(3))
        h.validate()
        # Root subtree + one subtree per child of frontier inner nodes
        # (nodes 3 and 4 -> 4 child subtrees).
        assert h.n_subtrees == 5
        # Root subtree is 7 slots with 2 padding entries.
        assert h.subtree_size(0) == 7
        assert (h.feature_id[:7] == EMPTY).sum() == 2

    def test_every_real_node_stored_once(self, small_trees):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        total_real = sum(t.n_nodes for t in small_trees)
        assert h.total_real_nodes == total_real

    def test_validate_all_params(self, small_trees):
        for sd in (1, 2, 3, 5, 8):
            for rsd in (None, sd + 3):
                h = HierarchicalForest.from_trees(
                    small_trees, LayoutParams(sd, rsd)
                )
                h.validate()

    def test_sd1_maximises_subtree_count(self, small_trees):
        """SD=1 makes every node its own subtree; larger SDs always merge
        some (the count is NOT monotone in SD because frontier width varies
        with depth, but it can never exceed the node count)."""
        n_nodes = sum(t.n_nodes for t in small_trees)
        h1 = HierarchicalForest.from_trees(small_trees, LayoutParams(1))
        assert h1.n_subtrees == n_nodes
        for sd in (2, 4, 6, 8):
            h = HierarchicalForest.from_trees(small_trees, LayoutParams(sd))
            assert h.n_subtrees < n_nodes

    def test_padding_grows_with_sd(self, small_trees):
        fracs = [
            HierarchicalForest.from_trees(
                small_trees, LayoutParams(sd)
            ).padding_fraction
            for sd in (2, 4, 8)
        ]
        assert fracs[0] <= fracs[1] <= fracs[2]

    def test_sd1_has_no_padding(self, small_trees):
        """SD=1: every node is its own subtree -> no completion padding."""
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(1))
        assert h.padding_fraction == 0.0
        assert h.n_subtrees == sum(t.n_nodes for t in small_trees)

    def test_rsd_enlarges_root_subtree(self, deep_trees):
        h_small = HierarchicalForest.from_trees(deep_trees, LayoutParams(4, 4))
        h_big = HierarchicalForest.from_trees(deep_trees, LayoutParams(4, 8))
        for t in range(len(deep_trees)):
            _, s_small = h_small.root_subtree_slots(t)
            _, s_big = h_big.root_subtree_slots(t)
            assert s_big >= s_small

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalForest.from_trees([], LayoutParams(4))

    def test_connection_trimming(self):
        """Trailing all-absent connection pairs are omitted (paper remark)."""
        tree = small_manual_tree()
        h = HierarchicalForest.from_trees([tree], LayoutParams(3))
        # Root subtree frontier: slots 3,4 (padding), 5, 6 (inner).  Slots 3,4
        # contribute (-1,-1) pairs that cannot be trimmed (they precede real
        # entries); slots 5, 6 have real connections -> 8 entries total.
        assert h.connection_offset[1] - h.connection_offset[0] == 8


class TestTraversal:
    @pytest.mark.parametrize("sd", [1, 2, 3, 4, 6, 8])
    def test_matches_reference(self, small_trees, queries, sd):
        h = HierarchicalForest.from_trees(small_trees, LayoutParams(sd))
        for t, tree in enumerate(small_trees):
            assert np.array_equal(tree_predict(h, queries, t), tree.predict(queries))

    def test_rsd_variant_matches(self, deep_trees, queries16):
        h = HierarchicalForest.from_trees(deep_trees, LayoutParams(5, 9))
        for t, tree in enumerate(deep_trees):
            assert np.array_equal(
                tree_predict(h, queries16, t), tree.predict(queries16)
            )

    def test_forest_vote(self, small_trees, queries):
        from repro.baselines.cpu_reference import reference_predict

        h = HierarchicalForest.from_trees(small_trees, LayoutParams(4))
        assert np.array_equal(
            fastpath_predict(h, queries)[0], reference_predict(small_trees, queries)
        )

    def test_single_leaf_tree(self):
        h = HierarchicalForest.from_trees([DecisionTree.leaf(1)], LayoutParams(4))
        h.validate()
        out = tree_predict(h, np.zeros((5, 3), dtype=np.float32), 0)
        assert np.all(out == 1)


class TestChildIndexing:
    def test_arithmetic_children_inside_subtree(self):
        """Paper: inside a subtree children of slot n are 2n+1 / 2n+2."""
        tree = small_manual_tree()
        h = HierarchicalForest.from_trees([tree], LayoutParams(3))
        # Slot 2 holds old node 2 (f4 < 0.5); children at slots 5, 6 hold old
        # nodes 3 and 4, whose features are 8 and 20.
        assert h.feature_id[2] == 4
        assert h.feature_id[2 * 2 + 1] == 8
        assert h.feature_id[2 * 2 + 2] == 20

    def test_frontier_crossing_reaches_children(self):
        tree = small_manual_tree()
        h = HierarchicalForest.from_trees([tree], LayoutParams(3))
        # Frontier slot 5 (old node 3, rank 2): connections point at the
        # subtrees holding old leaves 7 and 8.
        conn = h.subtree_connection
        off = h.connection_offset[0]
        left_st = conn[off + 2 * 2]
        right_st = conn[off + 2 * 2 + 1]
        assert left_st >= 1 and right_st >= 1
        lv = h.value[h.subtree_node_offset[left_st]]
        rv = h.value[h.subtree_node_offset[right_st]]
        assert (lv, rv) == (0.0, 1.0)  # old leaves 7 -> 0, 8 -> 1
