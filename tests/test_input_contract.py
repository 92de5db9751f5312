"""The query input contract, enforced once at every public boundary.

Non-finite values, an empty batch, a feature count other than the
forest's and a ``y_true`` of the wrong length are caller errors: ``classify()`` and the guarded classifier raise
the same ``ValueError`` before planning in every trace mode, and the serving
front door turns them into a typed ``invalid`` rejection.
"""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import TRACE_MODEL, TRACE_OFF, RunConfig
from repro.forest.tree import random_tree
from repro.reliability import ResilientClassifier
from repro.serving import InvalidRequest, RequestStatus, ServingFrontDoor
from repro.utils.clock import SimulatedClock

N_FEATURES = 8


@pytest.fixture(scope="module")
def clf():
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, N_FEATURES, 6, leaf_prob=0.3) for _ in range(4)]
    return HierarchicalForestClassifier.from_trees(trees, N_FEATURES)


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(12)
    return rng.standard_normal((16, N_FEATURES)).astype(np.float32)


def malformed(kind, X):
    if kind == "nan":
        bad = X.copy()
        bad[3, 2] = np.nan
        return bad, "NaN or infinite"
    if kind == "inf":
        bad = X.copy()
        bad[0, 0] = -np.inf
        return bad, "NaN or infinite"
    if kind == "empty":
        return X[:0], "non-empty"
    if kind == "narrow":
        return X[:, :3], "3 features, forest expects 8"
    return np.hstack([X, X]), "16 features, forest expects 8"


KINDS = ("nan", "inf", "empty", "narrow", "wide")


@pytest.mark.parametrize("entry", ["classify", "guard"])
@pytest.mark.parametrize("trace", [TRACE_OFF, TRACE_MODEL])
@pytest.mark.parametrize("kind", KINDS + ("labels",))
def test_malformed_input_is_one_value_error(clf, X, kind, trace, entry, monkeypatch):
    if kind == "labels":
        bad, y_true, message = X, np.zeros(3, dtype=np.int64), "y_true=3"
    else:
        (bad, message), y_true = malformed(kind, X), None
    # Rejection happens before planning: the planner must never see it.
    monkeypatch.setattr(
        type(clf.planner), "plan", lambda *a, **k: pytest.fail("planned bad input")
    )
    config = RunConfig(platform="gpu", variant="hybrid", trace=trace)
    run = clf.classify if entry == "classify" else ResilientClassifier(clf).classify
    with pytest.raises(ValueError, match=message) as err:
        run(bad, config, y_true=y_true)
    assert type(err.value) is ValueError


class TestFrontDoor:
    @pytest.fixture()
    def front(self, clf, X):
        guard = ResilientClassifier(clf, deadline_s=10.0, seed=3)
        return ServingFrontDoor(guard, clock=SimulatedClock(), probe_X=X)

    @pytest.mark.parametrize("kind", KINDS)
    def test_submit_raises_typed_rejection(self, front, X, kind):
        bad, message = malformed(kind, X)
        with pytest.raises(InvalidRequest, match=message) as err:
            front.submit(bad)
        assert err.value.reason == "invalid"
        assert front.stats.submitted == 0
        assert front.queue_depth == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_malformed_request_beside_a_valid_one(self, front, clf, X, kind):
        bad, _ = malformed(kind, X)
        good = front.try_submit(X[:4])
        assert front.try_submit(bad) is None
        responses = front.drain()
        assert [r.request_id for r in responses] == [good.request_id]
        (resp,) = responses
        assert resp.status is RequestStatus.SERVED
        assert np.array_equal(resp.predictions, reference_predict(clf.trees, X[:4]))
        assert front.stats.rejected == {"invalid": 1}
        assert front.stats.submitted == 1
