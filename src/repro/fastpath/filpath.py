"""Edge-table lowering of the cuML-FIL packed-node layout.

Stepping rule: children adjacent (``right = left + 1``), node ids
tree-local.  The adjacency rule is resolved *once*, at build time, into
the flat successor table of an :class:`~repro.fastpath.engine.EdgeTable`;
the shared :func:`~repro.fastpath.engine.traverse_edges` core then steps
every ``(row, tree)`` lane with plain gathers over global slot ids.
A child index outside its tree points at the table's ``EMPTY`` sentinel.

The layout is duck-typed (``feature`` / ``value`` / ``left_child`` /
``tree_offset`` / ``n_classes``) so this module never imports
:mod:`repro.baselines.cuml_fil`, which drags in the GPU kernel machinery.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.engine import EdgeTable, edge_table


def build_edges(layout) -> EdgeTable:
    """Lower the FIL arrays to flat successor-table form."""
    tree_offset = layout.tree_offset.astype(np.int64)
    n_trees = int(tree_offset.shape[0] - 1)
    owner = np.repeat(np.arange(n_trees, dtype=np.int64), np.diff(tree_offset))
    # left_child is tree-local and meaningless on leaves; pure arithmetic,
    # so no gather can go out of bounds.
    child = layout.left_child.astype(np.int64)
    inside = (child >= 0) & (child + 1 < np.diff(tree_offset)[owner])
    left = np.where(inside, tree_offset[owner] + child, -1)
    return edge_table(
        layout, layout.feature, layout.value, left,
        np.where(inside, left + 1, -1), tree_offset[:-1],
    )
