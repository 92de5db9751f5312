"""cuML Forest Inference Library (FIL)-style GPU baseline.

The paper compares against Nvidia's cuML forest inference (Fig. 7, Table 2),
reporting cuML at roughly 4-5x over CSR — better than the independent
variant, generally below the hybrid one at larger subtree depths.  cuML FIL's
performance comes from its storage format, which this module reproduces:

* one *packed node record* per node (feature id, leaf flag and left-child
  index packed with the float threshold/output into 16 bytes, FIL's
  "sparse16" format), so a traversal step issues a **single** global load —
  versus CSR's four;
* children stored adjacently (``right = left + 1``), removing the second
  level of indirection;
* nodes stored in breadth-first order per tree, giving good locality for the
  hot top-of-tree.

The kernel maps one query per thread and runs on the same simulated device
and timing model as the paper's variants, so Fig. 7's three-way comparison
(CSR / ours / cuML) is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.forest.tree import LEAF, DecisionTree
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.kernels.base import AddressSpace, GPUKernel


@dataclass
class FILForest:
    """Forest in FIL sparse16-style storage (see module docstring).

    Attributes
    ----------
    feature:
        ``int32[total_nodes]``; split feature, -1 for leaves.
    value:
        ``float32[total_nodes]``; threshold, or leaf class label.
    left_child:
        ``int32[total_nodes]``; tree-local left-child index (right child is
        ``left_child + 1``); -1 for leaves.
    tree_offset:
        ``int64[n_trees + 1]``.
    """

    feature: np.ndarray
    value: np.ndarray
    left_child: np.ndarray
    tree_offset: np.ndarray
    n_classes: int
    #: Bytes per packed node record (FIL sparse16).
    NODE_BYTES = 16

    @classmethod
    def from_trees(cls, trees: Sequence[DecisionTree]) -> "FILForest":
        """Re-order every tree breadth-first with adjacent siblings."""
        if len(trees) == 0:
            raise ValueError("need at least one tree")
        feats: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        lefts: List[np.ndarray] = []
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        for ti, tree in enumerate(trees):
            n = tree.n_nodes
            # BFS order with children placed adjacently.
            order = np.empty(n, dtype=np.int64)  # new idx -> old node
            new_of = np.full(n, -1, dtype=np.int64)
            order[0] = 0
            new_of[0] = 0
            count = 1
            head = 0
            while head < count:
                old = order[head]
                if tree.feature[old] != LEAF:
                    l, r = tree.left_child[old], tree.right_child[old]
                    order[count] = l
                    new_of[l] = count
                    order[count + 1] = r
                    new_of[r] = count + 1
                    count += 2
                head += 1
            if count != n:
                raise ValueError("tree has unreachable nodes")
            f = tree.feature[order]
            v = np.where(
                f != LEAF,
                tree.threshold[order],
                tree.value[order].astype(np.float32),
            )
            lc = np.where(f != LEAF, new_of[tree.left_child[order]], -1)
            feats.append(f.astype(np.int32))
            vals.append(v.astype(np.float32))
            lefts.append(lc.astype(np.int32))
            offsets[ti + 1] = offsets[ti] + n
        return cls(
            feature=np.concatenate(feats),
            value=np.concatenate(vals),
            left_child=np.concatenate(lefts),
            tree_offset=offsets,
            n_classes=max(t.n_classes for t in trees),
        )

    @property
    def n_trees(self) -> int:
        return int(self.tree_offset.shape[0] - 1)

    @property
    def total_nodes(self) -> int:
        return int(self.feature.shape[0])


class CuMLFILKernel(GPUKernel):
    """One-query-per-thread traversal of the FIL layout."""

    name = "cuml-fil"
    #: Single packed load + compare + adjacency arithmetic: a tight loop.
    INSTR_PER_STEP = 8

    def _run(self, layout: FILForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, FILForest):
            raise TypeError("CuMLFILKernel expects a FILForest layout")
        n, n_features = X.shape
        space = AddressSpace()
        space.alloc("nodes", layout.total_nodes, layout.NODE_BYTES)
        space.alloc("X", n * n_features, 4)
        tr_nodes = CoalescingTracker(
            "nodes",
            metrics,
            element_bytes=layout.NODE_BYTES,
            issue_cost=1.2,  # 16 B records straddle transaction boundaries
        )
        tr_x = CoalescingTracker("X", metrics, l1_resident=True)
        self._register_sites([tr_nodes, tr_x])
        rows = np.arange(n, dtype=np.int64)
        for t in range(layout.n_trees):
            base = layout.tree_offset[t]
            cur = np.zeros(n, dtype=np.int64)
            out = np.full(n, -1, dtype=np.int64)
            active = np.ones(n, dtype=bool)
            while np.any(active):
                g = base + cur
                tr_nodes.record(space.addr("nodes", g), active)
                feats = np.where(active, layout.feature[g], 0)
                is_leaf = active & (feats == LEAF)
                inner = active & ~is_leaf
                if np.any(is_leaf):
                    out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
                if np.any(inner):
                    f_safe = np.where(inner, feats, 0).astype(np.int64)
                    tr_x.record(
                        self._query_addresses(space, f_safe, rows, n_features),
                        inner,
                    )
                    go_left = np.zeros(n, dtype=bool)
                    gi = g[inner]
                    go_left[inner] = (
                        X[rows[inner], feats[inner]] < layout.value[gi]
                    )
                    cur[inner] = layout.left_child[gi] + np.where(
                        go_left[inner], 0, 1
                    )
                grid.record_step(metrics, active, self.INSTR_PER_STEP)
                grid.record_loop_branch(metrics, active, inner)
                active = inner
            self._accumulate_votes(votes, out)
