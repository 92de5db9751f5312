"""Hierarchical forest layout — the paper's §3.1 contribution (Fig. 3).

Each decision tree is partitioned into *complete binary subtrees*:

* Splitting starts at the tree root and proceeds recursively; a subtree stops
  growing when it reaches the maximum subtree depth (``SD`` levels; the root
  subtree may use a larger ``RSD``) or when no node exists at the next level.
* Each subtree is stored as the array prefix of a complete binary tree:
  node at local slot ``n`` has children at slots ``2n+1`` / ``2n+2``; holes
  (missing siblings) are padded with null nodes (``feature_id == EMPTY``) and
  the array is truncated after the last real node — exactly the "complete
  binary tree" arrangement the paper describes.
* Children of inner nodes on a subtree's deepest level ("frontier") become
  the roots of new subtrees; those links are stored CSR-style in
  ``subtree_connection`` / ``connection_offset``.  These are the *only*
  indirect accesses left in a traversal — everything inside a subtree is
  arithmetic indexing, which is the paper's key idea.

All subtrees of all trees are concatenated into flat arrays so the simulated
kernels can map slot indices to byte addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.forest.tree import EMPTY, LEAF, DecisionTree
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LayoutParams:
    """Tuning parameters of the hierarchical layout.

    ``subtree_depth`` is the paper's *SD* (maximum number of levels per
    subtree); ``root_subtree_depth`` is *RSD*, the (usually larger) depth of
    each tree's first subtree used by the hybrid kernel's on-chip stage.
    ``RSD = None`` means "same as SD".
    """

    subtree_depth: int = 6
    root_subtree_depth: int = None

    def __post_init__(self):
        check_positive_int(self.subtree_depth, "subtree_depth")
        if self.root_subtree_depth is not None:
            check_positive_int(self.root_subtree_depth, "root_subtree_depth")

    @property
    def rsd(self) -> int:
        """Effective root subtree depth."""
        return (
            self.subtree_depth
            if self.root_subtree_depth is None
            else self.root_subtree_depth
        )

    @property
    def sd(self) -> int:
        return self.subtree_depth


@dataclass
class HierarchicalForest:
    """Forest in the hierarchical subtree layout (see module docstring).

    Attributes
    ----------
    feature_id:
        ``int32[total_slots]``; split feature, :data:`LEAF` (-1) for tree
        leaves, :data:`EMPTY` (-2) for padding slots.
    value:
        ``float32[total_slots]``; threshold, or class label for leaves.
    subtree_node_offset:
        ``int64[n_subtrees + 1]``; slot offset of each subtree's local root.
    subtree_depth:
        ``int32[n_subtrees]``; number of levels actually stored (>= 1).
    connection_offset:
        ``int64[n_subtrees + 1]``; offset into ``subtree_connection``.
    subtree_connection:
        ``int32[...]``; two entries (left, right child subtree id, -1 if
        absent) per frontier slot, trailing all-(-1) pairs trimmed.
    tree_root_subtree:
        ``int32[n_trees]``; the root subtree id of each tree.
    subtree_tree:
        ``int32[n_subtrees]``; owning tree of each subtree.
    params:
        The :class:`LayoutParams` used to build the layout.
    """

    feature_id: np.ndarray
    value: np.ndarray
    subtree_node_offset: np.ndarray
    subtree_depth: np.ndarray
    connection_offset: np.ndarray
    subtree_connection: np.ndarray
    tree_root_subtree: np.ndarray
    subtree_tree: np.ndarray
    params: LayoutParams
    n_classes: int
    #: Build-time CRC32 digests of the node buffers (see
    #: :mod:`repro.reliability.integrity`); ``None`` when built with
    #: ``with_integrity=False``.
    integrity: Optional[object] = None
    #: Precision-axis codec this layout was built under; ``value`` already
    #: holds the decoded (round-tripped) float32 channel, so every float32
    #: consumer runs unchanged (see :mod:`repro.layout.codec`).
    codec: str = "float32"
    #: Codec side tables (:class:`~repro.layout.codec.QuantizedValues`);
    #: ``None`` for the float32 identity.
    quant: Optional[object] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trees(
        cls,
        trees: Sequence[DecisionTree],
        params: LayoutParams = LayoutParams(),
        with_integrity: bool = True,
        codec: str = "float32",
    ) -> "HierarchicalForest":
        """Partition ``trees`` into complete subtrees and pack the arrays.

        ``codec`` selects the precision-axis encoding of the value channel
        (:data:`repro.layout.codec.PRECISIONS`); thresholds are quantized
        and immediately decoded so the stored ``value`` array is the
        round-tripped float32 channel.
        """
        if len(trees) == 0:
            raise ValueError("need at least one tree")
        feat_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        depths: List[int] = []
        conn_parts: List[np.ndarray] = []
        owner: List[int] = []
        tree_roots = np.empty(len(trees), dtype=np.int32)

        node_offsets = [0]
        conn_offsets = [0]
        n_subtrees = 0

        for t, tree in enumerate(trees):
            tree_roots[t] = n_subtrees
            # Pending subtree roots of THIS tree; subtree ids are assigned in
            # FIFO order so ids are dense and breadth-first per tree.
            pending: List[int] = [0]
            is_root = True
            head = 0
            while head < len(pending):
                root_node = pending[head]
                head += 1
                sd_max = params.rsd if is_root else params.sd
                is_root = False
                slots, depth_reached, size = _fill_subtree(tree, root_node, sd_max)
                st_feat = np.full(size, EMPTY, dtype=np.int32)
                st_val = np.zeros(size, dtype=np.float32)
                real = slots[:size] >= 0
                nodes = slots[:size][real]
                st_feat[real] = tree.feature[nodes]
                inner_mask = tree.feature[nodes] != LEAF
                vals = np.where(
                    inner_mask,
                    tree.threshold[nodes],
                    tree.value[nodes].astype(np.float32),
                )
                st_val[real] = vals

                # Frontier connections (only possible at the full sd_max).
                frontier_start = (1 << (depth_reached - 1)) - 1
                conn: List[int] = []
                if depth_reached == sd_max:
                    for s in range(frontier_start, size):
                        n = slots[s]
                        if n >= 0 and tree.feature[n] != LEAF:
                            left, right = (
                                int(tree.left_child[n]),
                                int(tree.right_child[n]),
                            )
                            conn.append(n_subtrees + (len(pending) - head) + 1)
                            pending.append(left)
                            conn.append(n_subtrees + (len(pending) - head) + 1)
                            pending.append(right)
                        else:
                            conn.append(-1)
                            conn.append(-1)
                    # Trim trailing absent pairs (paper: "entries for leaf
                    # node 6 can be omitted").
                    while len(conn) >= 2 and conn[-1] == -1 and conn[-2] == -1:
                        conn.pop()
                        conn.pop()

                feat_parts.append(st_feat)
                val_parts.append(st_val)
                depths.append(depth_reached)
                conn_parts.append(np.asarray(conn, dtype=np.int64))
                owner.append(t)
                node_offsets.append(node_offsets[-1] + size)
                conn_offsets.append(conn_offsets[-1] + len(conn))
                n_subtrees += 1

        # Connection entries were recorded tree-locally relative to the
        # current subtree counter; they are already global because
        # ``n_subtrees`` was global when each entry was appended.
        connection = (
            np.concatenate(conn_parts)
            if conn_parts
            else np.empty(0, dtype=np.int64)
        ).astype(np.int32)
        feature_id = np.concatenate(feat_parts)
        from repro.layout.codec import quantize_layout_values

        value, quant = quantize_layout_values(
            codec, np.concatenate(val_parts), feature_id
        )
        layout = cls(
            feature_id=feature_id,
            value=value,
            subtree_node_offset=np.asarray(node_offsets, dtype=np.int64),
            subtree_depth=np.asarray(depths, dtype=np.int32),
            connection_offset=np.asarray(conn_offsets, dtype=np.int64),
            subtree_connection=connection,
            tree_root_subtree=tree_roots,
            subtree_tree=np.asarray(owner, dtype=np.int32),
            params=params,
            n_classes=max(t.n_classes for t in trees),
            codec=quant.codec if quant is not None else "float32",
            quant=quant,
        )
        if with_integrity:
            from repro.reliability.integrity import attach_integrity

            attach_integrity(layout)
        return layout

    # ------------------------------------------------------------------
    # Properties / stats
    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        return int(self.tree_root_subtree.shape[0])

    @property
    def n_subtrees(self) -> int:
        return int(self.subtree_depth.shape[0])

    @property
    def total_slots(self) -> int:
        """Total stored node slots, including padding."""
        return int(self.feature_id.shape[0])

    @property
    def total_real_nodes(self) -> int:
        """Stored slots holding real tree nodes."""
        return int(np.count_nonzero(self.feature_id != EMPTY))

    @property
    def padding_fraction(self) -> float:
        """Fraction of stored slots that are padding (Fig. 6 driver)."""
        return 1.0 - self.total_real_nodes / max(1, self.total_slots)

    def subtree_size(self, st: int) -> int:
        return int(self.subtree_node_offset[st + 1] - self.subtree_node_offset[st])

    def root_subtree_slots(self, tree: int) -> Tuple[int, int]:
        """(offset, size) of a tree's root subtree — the hybrid kernel's
        shared-memory resident block."""
        st = int(self.tree_root_subtree[tree])
        off = int(self.subtree_node_offset[st])
        return off, self.subtree_size(st)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check layout invariants; raise ``ValueError`` on violation."""
        if self.subtree_node_offset[0] != 0 or self.connection_offset[0] != 0:
            raise ValueError("offset arrays must start at 0")
        if self.subtree_node_offset[-1] != self.total_slots:
            raise ValueError("subtree_node_offset does not cover feature_id")
        if self.connection_offset[-1] != self.subtree_connection.shape[0]:
            raise ValueError("connection_offset does not cover subtree_connection")
        sizes = np.diff(self.subtree_node_offset)
        if np.any(sizes < 1):
            raise ValueError("empty subtree")
        max_allowed = (1 << self.params.rsd) - 1
        if np.any(sizes > max_allowed):
            raise ValueError("subtree larger than 2^RSD - 1 slots")
        # Depths consistent with sizes: a subtree of depth d needs at least
        # 2^(d-1) slots (root chain) and at most 2^d - 1.
        d = self.subtree_depth.astype(np.int64)
        if np.any(sizes < (1 << (d - 1))) or np.any(sizes > (1 << d) - 1):
            raise ValueError("subtree size inconsistent with its depth")
        # Every subtree root slot must hold a real node.
        roots = self.feature_id[self.subtree_node_offset[:-1]]
        if np.any(roots == EMPTY):
            raise ValueError("subtree root slot is padding")
        # Connections reference valid subtrees of the same tree.
        conn = self.subtree_connection
        valid = conn >= 0
        if np.any(conn[valid] >= self.n_subtrees):
            raise ValueError("connection to nonexistent subtree")
        # Each subtree (except tree roots) referenced exactly once.
        refs = np.bincount(conn[valid], minlength=self.n_subtrees)
        is_tree_root = np.zeros(self.n_subtrees, dtype=bool)
        is_tree_root[self.tree_root_subtree] = True
        if np.any(refs[is_tree_root] != 0):
            raise ValueError("tree-root subtree referenced by a connection")
        if np.any(refs[~is_tree_root] != 1):
            raise ValueError("non-root subtree not referenced exactly once")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalForest(n_trees={self.n_trees}, "
            f"n_subtrees={self.n_subtrees}, slots={self.total_slots}, "
            f"padding={self.padding_fraction:.1%}, SD={self.params.sd}, "
            f"RSD={self.params.rsd})"
        )


def _fill_subtree(
    tree: DecisionTree, root_node: int, sd_max: int
) -> Tuple[np.ndarray, int, int]:
    """BFS-fill one complete subtree of ``tree`` rooted at ``root_node``.

    Returns ``(slots, depth_reached, size)`` where ``slots`` maps local slot
    index -> tree node id (-1 = padding), ``depth_reached`` is the number of
    levels containing at least one real node, and ``size`` is the complete
    prefix length (last real slot + 1).
    """
    capacity = (1 << sd_max) - 1
    slots = np.full(capacity, -1, dtype=np.int64)
    slots[0] = root_node
    depth_reached = 1
    level_start, level_size = 0, 1
    for d in range(sd_max - 1):
        seg = slots[level_start : level_start + level_size]
        present = seg >= 0
        inner = present.copy()
        if np.any(present):
            inner[present] = tree.feature[seg[present]] != LEAF
        if not np.any(inner):
            break
        s_abs = level_start + np.flatnonzero(inner)
        nodes = slots[s_abs]
        slots[2 * s_abs + 1] = tree.left_child[nodes]
        slots[2 * s_abs + 2] = tree.right_child[nodes]
        depth_reached = d + 2
        level_start = 2 * level_start + 1
        level_size *= 2
    last_real = int(np.max(np.flatnonzero(slots >= 0)))
    return slots, depth_reached, last_real + 1
