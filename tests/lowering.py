"""Test helper: run one tree of a built layout through its fastpath lowering."""

from dataclasses import replace

from repro.fastpath.engine import lower, traverse_edges


def tree_predict(layout, X, tree):
    """Predictions of one tree of ``layout``: the lowering with one root."""
    table = lower(layout)
    return traverse_edges(replace(table, roots=table.roots[[tree]]), X)[0]
