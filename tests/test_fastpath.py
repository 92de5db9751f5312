"""Golden + property tests for the trace-off fast path.

The contract under test (ISSUE 7 acceptance):

* ``trace="off"`` predictions are bit-identical to the trace path AND the
  CPU host-tree oracle on every registered (platform, variant) pair;
* the mode survives the full plan lifecycle — RunConfig validation,
  ExecutionPlan JSON round-trip, planner autotuning + cache replay, the
  guard's fallback ladder, and the serving front door's default;
* fastpath launches are observable (``fastpath.*`` counter family) and
  their modelled seconds are deterministic.
"""

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.baselines.cuml_fil import FILForest
from repro.core.classifier import HierarchicalForestClassifier
from repro.core.config import (
    TRACE_MODEL,
    TRACE_MODES,
    TRACE_OFF,
    KernelVariant,
    Platform,
    RunConfig,
)
from repro.fastpath import (
    FASTPATH_LAUNCH_OVERHEAD_S,
    FASTPATH_SECONDS_PER_LANE_LEVEL,
    family_for_variant,
    fastpath_predict,
    fastpath_seconds,
    supports_variant,
)
from repro.forest.tree import random_tree
from repro.kernels import registered_pairs
from repro.layout.codec import roundtrip_trees
from repro.layout.csr import CSRForest
from repro.layout.hierarchical import HierarchicalForest, LayoutParams
from repro.obs import ObsSession
from repro.reliability import ResilientClassifier
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.planner import Planner, compile_plan
from repro.runtime.session import RuntimeSession
from repro.serving import ServingFrontDoor
from repro.utils.clock import SimulatedClock

ALL_PAIRS = registered_pairs()


@pytest.fixture(scope="module")
def session(small_trees):
    return RuntimeSession(small_trees)


@pytest.fixture(scope="module")
def oracle(small_trees, queries):
    return reference_predict(small_trees, queries)


def _plan(platform, variant, trace=TRACE_OFF, **kw):
    return compile_plan(
        None, RunConfig(platform=platform, variant=variant, trace=trace, **kw)
    )


# ----------------------------------------------------------------------
# Golden equivalence
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("platform,variant", ALL_PAIRS)
    def test_bit_identical_to_trace_path_and_oracle(
        self, session, queries, oracle, platform, variant
    ):
        fast = session.run(_plan(platform, variant), queries)
        model = session.run(_plan(platform, variant, trace=TRACE_MODEL), queries)
        assert np.array_equal(fast.predictions, oracle)
        assert np.array_equal(fast.predictions, model.predictions)
        assert fast.predictions.dtype == model.predictions.dtype

    @pytest.mark.parametrize("platform,variant", ALL_PAIRS)
    def test_single_row_batch(self, session, queries, oracle, platform, variant):
        fast = session.run(_plan(platform, variant), queries[:1])
        assert np.array_equal(fast.predictions, oracle[:1])

    def test_empty_batch_every_family(self, small_trees, queries):
        ref_dtype = reference_predict(small_trees, queries[:1]).dtype
        layouts = (
            HierarchicalForest.from_trees(small_trees, LayoutParams(4, 8)),
            CSRForest.from_trees(small_trees),
            FILForest.from_trees(small_trees),
        )
        for layout in layouts:
            preds, stats = fastpath_predict(layout, queries[:0])
            assert preds.shape == (0,)
            assert preds.dtype == ref_dtype
            assert stats.levels == 0
            assert stats.lane_levels == 0
            assert stats.frontier_occupancy == 0.0

    def test_deep_trees_all_families(self, deep_trees, queries16):
        ref = reference_predict(deep_trees, queries16)
        layouts = (
            HierarchicalForest.from_trees(deep_trees, LayoutParams(3, 6)),
            CSRForest.from_trees(deep_trees),
            FILForest.from_trees(deep_trees),
        )
        for layout in layouts:
            preds, _ = fastpath_predict(layout, queries16)
            assert np.array_equal(preds, ref)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_seeded_random_forests_property(self, seed):
        """Fresh random topologies + queries: fastpath == oracle, always."""
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(4, 20))
        trees = [
            random_tree(rng, n_features, int(rng.integers(3, 12)),
                        leaf_prob=0.25, min_nodes=3)
            for _ in range(int(rng.integers(1, 12)))
        ]
        X = rng.standard_normal(
            (int(rng.integers(1, 200)), n_features)
        ).astype(np.float32)
        ref = reference_predict(trees, X)
        sd = int(rng.integers(2, 7))
        layouts = (
            HierarchicalForest.from_trees(trees, LayoutParams(sd, sd + 2)),
            CSRForest.from_trees(trees),
            FILForest.from_trees(trees),
        )
        for layout in layouts:
            preds, stats = fastpath_predict(layout, X)
            assert np.array_equal(preds, ref)
            assert 0.0 < stats.frontier_occupancy <= 1.0

    def test_batch_split_sharding_matches_single_launch(self, session, queries, oracle):
        cfg = RunConfig(trace=TRACE_OFF)
        plan = compile_plan(None, cfg)
        sharded = ExecutionPlan(
            platform=plan.platform,
            variant=plan.variant,
            layout=plan.layout,
            batch_split=4,
            trace=TRACE_OFF,
        )
        res = session.run(sharded, queries)
        assert np.array_equal(res.predictions, oracle)


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestFastpathEngine:
    def test_family_mapping(self):
        assert family_for_variant("hybrid") == "hier"
        assert family_for_variant("independent") == "hier"
        assert family_for_variant("collaborative") == "hier"
        assert family_for_variant("csr") == "csr"
        assert family_for_variant("cuml") == "fil"
        assert family_for_variant(KernelVariant.HYBRID) == "hier"
        assert supports_variant("csr")
        assert not supports_variant("auto")
        with pytest.raises(KeyError):
            family_for_variant("auto")

    def test_unknown_layout_type_raises(self, queries):
        with pytest.raises(TypeError):
            fastpath_predict(object(), queries)

    def test_levels_bounded_by_depth(self, small_trees, queries):
        max_depth = max(int(t.depth.max()) for t in small_trees) + 1
        _, stats = fastpath_predict(CSRForest.from_trees(small_trees), queries)
        assert stats.levels <= max_depth
        assert stats.lanes == queries.shape[0] * len(small_trees)
        assert stats.lane_levels <= stats.lanes * stats.levels

    def test_seconds_model_is_deterministic_and_affine(self, session, queries):
        a = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        b = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        assert a.seconds == b.seconds
        lane_levels = a.details["lane_levels"]
        assert a.seconds == pytest.approx(
            FASTPATH_LAUNCH_OVERHEAD_S
            + lane_levels * FASTPATH_SECONDS_PER_LANE_LEVEL
        )
        assert fastpath_seconds(0) == FASTPATH_LAUNCH_OVERHEAD_S

    def test_backend_details_describe_the_launch(self, session, queries):
        res = session.run(_plan(Platform.FPGA, KernelVariant.CSR), queries)
        assert res.details["mode"] == "fastpath"
        assert res.details["family"] == "csr"
        assert res.details["levels_executed"] >= 1
        assert 0.0 < res.details["frontier_occupancy"] <= 1.0


# ----------------------------------------------------------------------
# Config / plan lifecycle
# ----------------------------------------------------------------------
class TestPlanLifecycle:
    def test_runconfig_validates_trace(self):
        assert RunConfig().trace == TRACE_MODEL
        assert RunConfig(trace=TRACE_OFF).trace == TRACE_OFF
        with pytest.raises(ValueError):
            RunConfig(trace="sometimes")

    def test_plan_validates_trace(self):
        with pytest.raises(PlanError):
            ExecutionPlan(trace="sometimes")
        assert ExecutionPlan().trace == TRACE_MODEL
        assert set(TRACE_MODES) == {TRACE_MODEL, TRACE_OFF}

    def test_json_round_trip_preserves_trace(self):
        plan = ExecutionPlan(
            platform="fpga",
            variant="hybrid",
            layout=LayoutParams(4, 10),
            trace=TRACE_OFF,
            source="autotuned",
            cost_estimate_s=1e-4,
        )
        back = ExecutionPlan.from_json(plan.to_json())
        assert back == plan
        assert back.trace == TRACE_OFF
        assert '"trace":"off"' in plan.to_json()

    def test_from_dict_defaults_to_model_for_legacy_plans(self):
        legacy = ExecutionPlan(trace=TRACE_MODEL).as_dict()
        del legacy["trace"]
        assert ExecutionPlan.from_dict(legacy).trace == TRACE_MODEL

    def test_labels_and_run_config_carry_the_mode(self):
        plan = _plan(Platform.GPU, KernelVariant.HYBRID)
        assert plan.label.endswith("-serve")
        assert plan.to_run_config().trace == TRACE_OFF
        assert "serve" not in ExecutionPlan().label
        assert RunConfig(trace=TRACE_OFF).label.endswith("-serve")

    def test_guard_ladder_carries_the_mode(self, small_trees):
        clf = HierarchicalForestClassifier.from_trees(small_trees, 12)
        guard = ResilientClassifier(clf, seed=0)
        cfg = RunConfig(trace=TRACE_OFF)
        ladder = guard.ladder_plans(cfg)
        assert len(ladder) >= 2
        assert all(p.trace == TRACE_OFF for p in ladder)
        assert ladder[-1].platform == "cpu"


# ----------------------------------------------------------------------
# Planner / autotuner
# ----------------------------------------------------------------------
class TestPlannerTraceOff:
    def test_autotune_probes_and_caches_per_mode(self, session, queries, tmp_path):
        planner = Planner(session, cache_dir=str(tmp_path))
        serve = planner.autotune(queries, trace=TRACE_OFF)
        assert serve.trace == TRACE_OFF
        assert serve.source == "autotuned"
        assert planner.stats["probe_runs"] > 0

        model = planner.autotune(queries)
        assert model.trace == TRACE_MODEL
        # The two decisions live in separate cache namespaces.
        caches = sorted(p.name for p in tmp_path.glob("plan_*.json"))
        assert len(caches) == 2
        assert sum("_serve_" in name for name in caches) == 1

        replay = planner.autotune(queries, trace=TRACE_OFF)
        assert replay.source == "cache"
        assert replay.trace == TRACE_OFF
        assert planner.stats["cache_hits"] == 1

    def test_cost_model_prefers_the_fast_path(self, session, queries):
        """The fastpath latency term must undercut the device models —
        otherwise a trace-off autotune could still pick nothing faster."""
        planner = Planner(session, cache_dir="unused")
        probe = queries[:128]
        plan_model = ExecutionPlan(trace=TRACE_MODEL)
        plan_serve = ExecutionPlan(trace=TRACE_OFF)
        memo = {}
        slow = planner.estimate(plan_model, probe, 100_000, memo)
        fast = planner.estimate(plan_serve, probe, 100_000, memo)
        assert fast < slow

    def test_auto_variant_routes_trace_through_plan(self, session, queries, tmp_path):
        planner = Planner(session, cache_dir=str(tmp_path))
        cfg = RunConfig(variant=KernelVariant.AUTO, trace=TRACE_OFF)
        plan = planner.plan(queries, cfg)
        assert plan.trace == TRACE_OFF


# ----------------------------------------------------------------------
# Serving front door default
# ----------------------------------------------------------------------
class TestFrontDoorDefault:
    def _front(self, trees, X, **kwargs):
        clf = HierarchicalForestClassifier.from_trees(trees, X.shape[1])
        guard = ResilientClassifier(clf, deadline_s=10.0, seed=3)
        return ServingFrontDoor(
            guard, clock=SimulatedClock(), probe_X=X[:32], **kwargs
        )

    def test_defaults_to_trace_off(self, small_trees, queries):
        front = self._front(small_trees, queries)
        assert front.config.trace == TRACE_OFF

    def test_model_mode_is_opt_in(self, small_trees, queries):
        front = self._front(small_trees, queries, trace=TRACE_MODEL)
        assert front.config.trace == TRACE_MODEL

    def test_served_predictions_match_reference(self, small_trees, queries):
        front = self._front(small_trees, queries)
        req = front.submit(queries[:8])
        (resp,) = front.drain()
        assert resp.request_id == req.request_id
        assert np.array_equal(
            resp.predictions, reference_predict(small_trees, queries[:8])
        )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObsFastpathCounters:
    def test_trace_off_runs_emit_the_fastpath_family(self, small_trees, queries):
        obs = ObsSession()
        session = RuntimeSession(small_trees, observer=obs)
        res = session.run(_plan(Platform.GPU, KernelVariant.HYBRID), queries)
        reg = obs.registry
        kw = dict(platform="gpu", variant="hybrid", family="hier")
        assert reg.get("fastpath.launches").value(**kw) == 1.0
        assert reg.get("fastpath.rows").value(**kw) == float(queries.shape[0])
        assert reg.get("fastpath.lane_levels").value(**kw) == float(
            res.details["lane_levels"]
        )
        occ = reg.get("fastpath.frontier_occupancy").value(**kw)
        assert 0.0 < occ <= 1.0
        rows_per_s = reg.get("fastpath.rows_per_s").value(**kw)
        assert rows_per_s == pytest.approx(queries.shape[0] / res.seconds)

    def test_model_runs_do_not_emit_fastpath_counters(self, small_trees, queries):
        obs = ObsSession()
        session = RuntimeSession(small_trees, observer=obs)
        session.run(_plan(Platform.GPU, KernelVariant.HYBRID, trace=TRACE_MODEL), queries)
        assert obs.registry.get("fastpath.launches") is None


# ----------------------------------------------------------------------
# Quantized layouts: dequantize-on-gather golden equivalence (ISSUE 10)
# ----------------------------------------------------------------------
QUANT_CODECS = ("float16", "int8", "packed")


class TestQuantizedGolden:
    """The gather-time decode must replay the build-time round-trip exactly."""

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    @pytest.mark.parametrize("variant", ["hybrid", "csr"])
    def test_fastpath_bit_identical_to_layout_and_trace(
        self, session, small_trees, queries, codec, variant
    ):
        fast = session.run(_plan("gpu", variant, precision=codec), queries)
        model = session.run(
            _plan("gpu", variant, trace=TRACE_MODEL, precision=codec), queries
        )
        oracle = reference_predict(roundtrip_trees(small_trees, codec), queries)
        assert np.array_equal(fast.predictions, model.predictions)
        assert np.array_equal(fast.predictions, oracle)

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_edge_table_really_dequantizes(self, small_trees, queries, codec):
        """The table compares against gathered codes, not the f32 channel."""
        from repro.fastpath.csrpath import build_edges

        layout = CSRForest.from_trees(small_trees, codec=codec)
        table = build_edges(layout)
        assert table.codec == codec
        assert table.qcodes is not None
        if codec == "float16":
            assert table.qcodes.dtype == np.float16
            assert table.qscale is None
        else:
            assert table.qcodes.dtype == np.int8
            assert table.qscale is not None
            assert table.qoffset is not None

    def test_float32_edge_table_unchanged(self, small_trees):
        from repro.fastpath.csrpath import build_edges

        table = build_edges(CSRForest.from_trees(small_trees))
        assert table.codec == "float32"
        assert table.qcodes is None and table.qscale is None

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_hier_families_share_the_quantized_table(
        self, small_trees, queries, codec
    ):
        layout = HierarchicalForest.from_trees(
            small_trees, LayoutParams(4, 8), codec=codec
        )
        preds, _ = fastpath_predict(layout, queries)
        oracle = reference_predict(roundtrip_trees(small_trees, codec), queries)
        assert np.array_equal(preds, oracle)

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_perturbed_quantized_prediction_is_caught(
        self, small_trees, queries, codec, monkeypatch
    ):
        """The round-tripped-tree oracle is a real check, not fastpath vs
        fastpath: one flipped prediction trips the session."""
        import repro.runtime.backends as backends

        real = backends.fastpath_predict

        def flip_one(layout, X):
            preds, stats = real(layout, X)
            preds = preds.copy()
            preds[0] = 1 - preds[0]
            return preds, stats

        monkeypatch.setattr(backends, "fastpath_predict", flip_one)
        session = RuntimeSession(small_trees)
        with pytest.raises(RuntimeError, match="disagrees with the CPU reference"):
            session.run(_plan("gpu", "hybrid", precision=codec), queries)

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_quantized_predictions_track_the_oracle(
        self, session, queries, oracle, codec
    ):
        """Quantization moves thresholds, not semantics: high agreement."""
        res = session.run(_plan("gpu", "hybrid", precision=codec), queries)
        agreement = float(np.mean(res.predictions == oracle))
        assert agreement >= 0.98

    def test_seconds_charge_the_dequant_surcharge(self, session, queries):
        from repro.fastpath import FASTPATH_DEQUANT_FACTOR

        f32 = session.run(_plan("gpu", "hybrid"), queries)
        i8 = session.run(_plan("gpu", "hybrid", precision="int8"), queries)
        lane_levels = i8.details["lane_levels"]
        assert i8.seconds == pytest.approx(
            fastpath_seconds(lane_levels, precision="int8")
        )
        assert fastpath_seconds(10_000, "int8") > fastpath_seconds(10_000)
        assert FASTPATH_DEQUANT_FACTOR["float32"] == 1.0
        assert f32.seconds == pytest.approx(
            fastpath_seconds(f32.details["lane_levels"])
        )

    @pytest.mark.parametrize("codec", QUANT_CODECS)
    def test_quantized_label_round_trips(self, codec):
        plan = _plan("gpu", "hybrid", precision=codec)
        assert codec in plan.label
        assert plan.label.endswith("serve")
        again = ExecutionPlan.from_json(plan.to_json())
        assert again.precision == codec
