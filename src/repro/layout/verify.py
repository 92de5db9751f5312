"""Deep layout-equivalence verification.

:func:`verify_layouts` builds every layout of a forest and checks, query by
query and tree by tree, that each encodes exactly the same classification
function as the source :class:`DecisionTree` objects, running each tree
through the layout's fastpath lowering.  The classifier API
already verifies final majority votes on every run; this utility goes
further (per-tree agreement, structural validation, all three layouts) and
is what ``examples``/CI use when touching layout code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.fastpath.engine import lower, traverse_edges
from repro.forest.tree import DecisionTree
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


@dataclass
class VerificationReport:
    """Outcome of a :func:`verify_layouts` sweep."""

    n_trees: int
    n_queries: int
    layouts_checked: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        if self.failures:
            raise AssertionError(
                "layout verification failed:\n" + "\n".join(self.failures)
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"VerificationReport({status}: {self.n_trees} trees x "
            f"{self.n_queries} queries over {len(self.layouts_checked)} "
            f"layouts)"
        )


def verify_layouts(
    trees: Sequence[DecisionTree],
    n_features: int,
    n_queries: int = 512,
    subtree_depths: Sequence[int] = (1, 3, 6),
    root_subtree_depths: Sequence[Optional[int]] = (None, 9),
    seed=0,
) -> VerificationReport:
    """Check per-tree prediction equality of every layout against the trees.

    Returns a :class:`VerificationReport`; call ``raise_on_failure()`` to
    turn mismatches into an exception.
    """
    if not trees:
        raise ValueError("need at least one tree")
    check_positive_int(n_queries, "n_queries")
    rng = as_rng(seed)
    X = rng.standard_normal((n_queries, n_features)).astype(np.float32)
    expected = [t.predict(X) for t in trees]
    report = VerificationReport(n_trees=len(trees), n_queries=n_queries)

    def check(label: str, layout) -> None:
        report.layouts_checked.append(label)
        try:
            if hasattr(layout, "validate") and not isinstance(layout, CSRForest):
                layout.validate()
        except ValueError as e:
            report.failures.append(f"{label}: structural validation: {e}")
            return
        table = lower(layout)
        for t, exp in enumerate(expected):
            got, _, _ = traverse_edges(replace(table, roots=table.roots[[t]]), X)
            if not np.array_equal(got, exp):
                bad = int(np.flatnonzero(got != exp)[0])
                report.failures.append(
                    f"{label}: tree {t} disagrees at query {bad} "
                    f"(got {got[bad]}, expected {exp[bad]})"
                )
                break

    # Imported lazily: baselines depends on kernels which depends on layout.
    from repro.baselines.cuml_fil import FILForest

    check("csr", CSRForest.from_trees(trees))
    check("fil", FILForest.from_trees(trees))
    for sd in subtree_depths:
        for rsd in root_subtree_depths:
            if rsd is not None and rsd < sd:
                continue
            params = LayoutParams(sd, rsd)
            check(
                f"hier(SD={sd},RSD={params.rsd})",
                HierarchicalForest.from_trees(trees, params),
            )
    return report
