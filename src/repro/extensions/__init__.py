"""The paper's §3.2.1 "Other optimizations tested" — reproduced negatives.

The paper reports three additional optimisations that did *not* pay off:

1. K-Means clustering of trees by feature-access profile to place trees
   using similar features adjacently ("did not yield any significant
   performance benefit") — :mod:`tree_clustering`.
2. Assigning each thread block one tree to traverse for all queries
   ("significant slowdown relative to the independent variant") —
   :mod:`block_per_tree`.
3. A collaborative variant with per-thread query assignment and batched
   subtree loads (also a significant slowdown) — this is the library's
   :class:`repro.kernels.GPUCollaborativeKernel` itself.

Related-work techniques the paper explicitly declined are also provided so
the decisions can be examined: :mod:`query_sorting` implements Goldfarb-style
query presorting (paper §5: "presorting the queries would lead to an extra
cost that cannot be amortized") and :mod:`greedy_traversal` implements
Wu & Becchi's greedy per-lane query refill (paper §5: "reduces thread
divergence ... but increases the chance of uncoalesced memory accesses").

Reproducing negative results matters: the ablation bench
``benchmarks/bench_ablation_extensions.py`` checks that these variants do
not beat the paper's chosen kernels in this model either.
"""

from repro.extensions.tree_clustering import (
    cluster_trees_by_features,
    feature_usage_histogram,
    kmeans,
)
from repro.extensions.block_per_tree import GPUBlockPerTreeKernel
from repro.extensions.greedy_traversal import GPUGreedyKernel
from repro.extensions.query_sorting import (
    root_path_signature,
    sort_queries,
    sorting_cost_seconds,
)

__all__ = [
    "GPUGreedyKernel",
    "root_path_signature",
    "sort_queries",
    "sorting_cost_seconds",
    "cluster_trees_by_features",
    "feature_usage_histogram",
    "kmeans",
    "GPUBlockPerTreeKernel",
]
