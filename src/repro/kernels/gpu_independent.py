"""GPU independent kernel on the hierarchical layout (paper §3.2).

One thread per query; threads traverse subtrees iteratively.  Inside a
subtree the child index is arithmetic (``2n+1`` / ``2n+2``) so a step loads
only the node attributes (``feature_id`` + ``value``, contiguous within the
subtree) and the query feature.  Only when a thread crosses from one subtree
to the next does it touch the CSR-style connection arrays — the paper's key
reduction of irregular accesses versus CSR (one indirection per *subtree*
instead of two per *node*).
"""

from __future__ import annotations

import numpy as np

from repro.forest.tree import EMPTY, LEAF
from repro.gpusim.engine import WarpGrid
from repro.gpusim.memory import CoalescingTracker
from repro.gpusim.metrics import KernelMetrics
from repro.kernels.base import AddressSpace, GPUKernel
from repro.layout.hierarchical import HierarchicalForest


class GPUIndependentKernel(GPUKernel):
    """Per-thread traversal of the hierarchical layout."""

    name = "gpu-independent"
    #: Warp instructions per in-subtree step (2 attribute loads + query
    #: load + compare + arithmetic child indexing + loop bookkeeping).
    INSTR_PER_STEP = 11
    #: Extra warp instructions on a subtree crossing (connection lookups).
    INSTR_PER_CROSS = 8
    #: L1 hit rate on node/connection loads (see CoalescingTracker): the
    #: independent kernel's warps drift across trees, thrashing L1.
    NODE_L1_HIT = 0.15

    def _make_space(self, layout: HierarchicalForest, n, n_features) -> AddressSpace:
        space = AddressSpace()
        space.alloc("feature_id", layout.total_slots, 4)
        space.alloc("value", layout.total_slots, 4)
        space.alloc("subtree_node_offset", layout.n_subtrees + 1, 8)
        space.alloc("subtree_depth", layout.n_subtrees, 4)
        space.alloc("connection_offset", layout.n_subtrees + 1, 8)
        space.alloc(
            "subtree_connection", max(1, layout.subtree_connection.shape[0]), 4
        )
        space.alloc("X", n * n_features, 4)
        return space

    def _run(self, layout: HierarchicalForest, X, grid: WarpGrid, metrics, votes):
        if not isinstance(layout, HierarchicalForest):
            raise TypeError("GPUIndependentKernel expects a HierarchicalForest")
        n, n_features = X.shape
        space = self._make_space(layout, n, n_features)
        trackers = {
            name: CoalescingTracker(
                name,
                metrics,
                l1_resident=(name == "X"),
                l1_hit_rate=0.0 if name == "X" else self.NODE_L1_HIT,
            )
            for name in (
                "feature_id",
                "value",
                "subtree_node_offset",
                "subtree_depth",
                "connection_offset",
                "subtree_connection",
                "X",
            )
        }
        self._register_sites(trackers)
        rows = np.arange(n, dtype=np.int64)
        for t in range(layout.n_trees):
            out = self._traverse_tree(
                layout, X, t, grid, metrics, space, trackers, rows,
            )
            self._accumulate_votes(votes, out)

    # ------------------------------------------------------------------
    def _traverse_tree(
        self, layout, X, t, grid, metrics, space, trackers, rows,
        start_st=None, start_local=None, start_active=None, out=None,
        stage1_uniform=False, node_trackers=None,
    ):
        """Instrumented lock-step traversal of one tree.

        The hybrid kernel reuses this loop for its stage 2 by passing
        explicit start states and (for stage 1) shared-memory node trackers.
        """
        n = X.shape[0]
        n_features = X.shape[1]
        st = (
            np.full(n, layout.tree_root_subtree[t], dtype=np.int64)
            if start_st is None
            else start_st
        )
        local = np.zeros(n, dtype=np.int64) if start_local is None else start_local
        active = np.ones(n, dtype=bool) if start_active is None else start_active
        if out is None:
            out = np.full(n, -1, dtype=np.int64)
        tr = trackers

        while np.any(active):
            g = layout.subtree_node_offset[st] + local
            if node_trackers is None:
                tr["feature_id"].record(space.addr("feature_id", g), active)
                tr["value"].record(space.addr("value", g), active)
            else:
                # Stage 1 of the hybrid kernel: node attributes come from
                # shared memory (two shared load requests per warp-step).
                node_trackers(grid, metrics, active)
            feats = np.where(active, layout.feature_id[g], EMPTY)
            is_leaf = active & (feats == LEAF)
            inner = active & ~is_leaf
            if np.any(is_leaf):
                out[is_leaf] = layout.value[g[is_leaf]].astype(np.int64)
            go_right = np.zeros(n, dtype=bool)
            if np.any(inner):
                f_safe = np.where(inner, feats, 0).astype(np.int64)
                tr["X"].record(
                    self._query_addresses(space, f_safe, rows, n_features), inner
                )
                gi = g[inner]
                # The left/right select compiles to predication on real
                # hardware, so it is not counted as a branch (nvprof's
                # branch_efficiency only sees divergent control flow).
                go_right[inner] = X[rows[inner], feats[inner]] >= layout.value[gi]

            # Split inner lanes into in-subtree steps vs subtree crossings.
            sd = layout.subtree_depth[st]
            frontier_start = (np.int64(1) << (sd - 1).astype(np.int64)) - 1
            crossing = inner & (local >= frontier_start)
            stay = inner & ~crossing
            if np.any(stay):
                local[stay] = 2 * local[stay] + 1 + go_right[stay]
            if np.any(crossing):
                rank = local[crossing] - frontier_start[crossing]
                cidx = np.zeros(n, dtype=np.int64)
                cidx[crossing] = (
                    layout.connection_offset[st[crossing]]
                    + 2 * rank
                    + go_right[crossing]
                )
                tr["connection_offset"].record(
                    space.addr("connection_offset", st), crossing
                )
                tr["subtree_connection"].record(
                    space.addr("subtree_connection", cidx), crossing
                )
                nxt = layout.subtree_connection[cidx[crossing]].astype(np.int64)
                st[crossing] = nxt
                local[crossing] = 0
                # New subtree's base offset + depth are fetched on crossing.
                tr["subtree_node_offset"].record(
                    space.addr("subtree_node_offset", st), crossing
                )
                tr["subtree_depth"].record(
                    space.addr("subtree_depth", st), crossing
                )
                grid.record_step(metrics, crossing, self.INSTR_PER_CROSS)
            if np.any(inner):
                # The crossing check itself is a branch (divergent when some
                # lanes cross and others stay).
                grid.record_branch(metrics, inner, crossing)

            grid.record_step(metrics, active, self.INSTR_PER_STEP)
            if stage1_uniform:
                # Fixed-trip-count level loop: the loop branch is uniform.
                warps = grid.active_warps(active)
                metrics.branches += warps
                metrics.uniform_branches += warps
            else:
                grid.record_loop_branch(metrics, active, inner)
            active = inner
        return out
