"""Tests for compile_plan and the cost-model autotuner."""

import json
import os

import numpy as np
import pytest

from repro.baselines.cpu_reference import reference_predict
from repro.core.config import KernelVariant, Platform, RunConfig
from repro.datasets.profiles import make_synthetic_forest
from repro.fpgasim.replication import Replication
from repro.layout.codec import roundtrip_trees
from repro.layout.hierarchical import LayoutParams
from repro.runtime import (
    ExecutionPlan,
    PlanError,
    Planner,
    RuntimeSession,
    compile_plan,
    dataset_profile,
    default_plan_cache_dir,
    forest_fingerprint,
)


@pytest.fixture(scope="module")
def workload():
    forest, X = make_synthetic_forest(
        n_trees=6, depth=9, n_features=12, n_queries=512, leaf_prob=0.1, seed=7
    )
    return forest, X


def make_planner(forest, tmp_path, **kwargs):
    session = RuntimeSession.from_forest(forest)
    return Planner(session, cache_dir=str(tmp_path), **kwargs)


class TestCompilePlan:
    def test_explicit_config_maps_one_to_one(self, workload):
        forest, _ = workload
        cfg = RunConfig(
            platform=Platform.FPGA,
            variant=KernelVariant.HYBRID,
            layout=LayoutParams(6, 10),
            replication=Replication(4, 12),
            verify_integrity=True,
        )
        plan = compile_plan(forest, cfg)
        assert plan.platform == "fpga"
        assert plan.variant == "hybrid"
        assert plan.layout == cfg.layout
        assert plan.replication == cfg.replication
        assert plan.verify_integrity is True
        assert plan.batch_split == 1
        assert plan.source == "explicit"
        # The round trip back to a RunConfig is the legacy wiring exactly.
        back = plan.to_run_config()
        assert back.platform is cfg.platform
        assert back.variant is cfg.variant
        assert back.layout == cfg.layout
        assert back.replication == cfg.replication

    def test_auto_variant_rejected(self, workload):
        forest, _ = workload
        with pytest.raises(PlanError):
            compile_plan(forest, RunConfig(variant=KernelVariant.AUTO))

    def test_non_config_rejected(self, workload):
        forest, _ = workload
        with pytest.raises(PlanError):
            compile_plan(forest, {"variant": "hybrid"})

    def test_invalid_pair_propagates(self, workload):
        forest, _ = workload
        cfg = RunConfig(platform=Platform.GPU, variant=KernelVariant.CUML)
        plan = compile_plan(forest, cfg)
        assert plan.variant == "cuml"  # valid on GPU


class TestPlannerExplicitPath:
    def test_plan_honours_explicit_config(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        cfg = RunConfig(variant=KernelVariant.CSR)
        plan = planner.plan(X, cfg)
        assert plan == compile_plan(forest, cfg)
        # No autotuning happened.
        assert planner.stats["cost_evaluations"] == 0
        assert planner.stats["probe_runs"] == 0


class TestAutotune:
    def test_deterministic_under_fixed_seed(self, workload, tmp_path):
        forest, X = workload
        a = make_planner(forest, tmp_path / "a", seed=0).autotune(X)
        b = make_planner(forest, tmp_path / "b", seed=0).autotune(X)
        assert a.to_json() == b.to_json()
        assert a.source == "autotuned"
        assert a.cost_estimate_s is not None

    def test_candidates_enumerate_hybrid_rsd(self, workload, tmp_path):
        forest, _ = workload
        planner = make_planner(forest, tmp_path)
        gpu = planner.candidates(Platform.GPU)
        labels = {p.label for p in gpu}
        assert "gpu-csr" in labels
        assert "gpu-hybrid-SD6-RSD10" in labels
        assert all(p.variant != "cuml" for p in gpu)  # comparator, not a choice
        fpga = planner.candidates(Platform.FPGA)
        assert any(p.replication.total_cus > 1 for p in fpga)
        assert any(p.replication.split_stage1 for p in fpga)

    def test_cache_hit_skips_probes(self, workload, tmp_path):
        forest, X = workload
        first = make_planner(forest, tmp_path)
        chosen = first.autotune(X)
        assert first.stats["cache_writes"] == 1
        assert first.stats["probe_runs"] > 0

        second = make_planner(forest, tmp_path)
        replayed = second.autotune(X)
        assert second.stats["cache_hits"] == 1
        assert second.stats["cost_evaluations"] == 0
        assert second.stats["probe_runs"] == 0
        assert replayed.source == "cache"
        # Same decision, modulo the provenance tag.
        assert replayed.platform == chosen.platform
        assert replayed.variant == chosen.variant
        assert replayed.layout == chosen.layout
        assert replayed.replication == chosen.replication

    def test_cache_file_round_trips_plan(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        chosen = planner.autotune(X)
        files = sorted(os.listdir(tmp_path))
        assert len(files) == 1
        assert files[0].startswith("plan_gpu_f")
        with open(tmp_path / files[0], encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["version"] == 1
        assert payload["forest_fingerprint"] == forest_fingerprint(
            planner.session.trees
        )
        stored = ExecutionPlan.from_dict(payload["plan"])
        assert stored.to_json() == chosen.to_json()

    def test_corrupt_cache_entry_is_retuned(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        planner.autotune(X)
        (path,) = [tmp_path / f for f in os.listdir(tmp_path)]
        path.write_text("{not json")
        retuned = make_planner(forest, tmp_path)
        plan = retuned.autotune(X)
        assert retuned.stats["cache_hits"] == 0
        assert plan.source == "autotuned"

    def test_observer_on_plan_fires(self, workload, tmp_path):
        forest, X = workload
        seen = []

        class Observer:
            def on_plan(self, plan):
                seen.append(plan)

        planner = make_planner(forest, tmp_path, observer=Observer())
        chosen = planner.autotune(X)
        assert seen == [chosen]

    def test_classifier_auto_resolves_through_planner(self, workload, tmp_path, monkeypatch):
        from repro.core.classifier import HierarchicalForestClassifier

        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path))
        forest, X = workload
        clf = HierarchicalForestClassifier.from_forest(forest)
        res = clf.classify(X, RunConfig(variant=KernelVariant.AUTO))
        assert res.config.variant is not KernelVariant.AUTO
        explicit = clf.classify(X, res.config)
        np.testing.assert_array_equal(res.predictions, explicit.predictions)
        assert res.seconds == pytest.approx(explicit.seconds, abs=1e-12)


class TestFingerprints:
    def test_forest_fingerprint_is_stable_and_sensitive(self, workload):
        forest, _ = workload
        fp = forest_fingerprint(forest.trees_)
        assert fp == forest_fingerprint(forest.trees_)
        other, _ = make_synthetic_forest(
            n_trees=6, depth=9, n_features=12, n_queries=16, leaf_prob=0.1, seed=8
        )
        assert forest_fingerprint(other.trees_) != fp

    def test_dataset_profile_shape(self, workload):
        _, X = workload
        nq, nf, crc = dataset_profile(X)
        assert (nq, nf) == X.shape
        assert dataset_profile(X) == (nq, nf, crc)

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path))
        assert default_plan_cache_dir() == str(tmp_path)
        monkeypatch.delenv("REPRO_PLAN_CACHE_DIR")
        assert default_plan_cache_dir().endswith(os.path.join("results", "plan_cache"))


class TestPrecisionBudget:
    """The precision axis through the planner (ISSUE 10)."""

    def test_budget_widens_candidates_to_every_codec(self, workload, tmp_path):
        forest, _ = workload
        planner = make_planner(forest, tmp_path)
        base = planner.candidates(Platform.GPU)
        widened = planner.candidates(
            Platform.GPU, precisions=("float32", "float16", "int8", "packed")
        )
        assert {p.precision for p in base} == {"float32"}
        assert len(widened) == 4 * len(base)
        assert {p.precision for p in widened} == {
            "float32", "float16", "int8", "packed"
        }

    def test_auto_under_tight_budget_selects_quantized(self, workload, tmp_path):
        """Acceptance: variant="auto" + memory budget -> quantized layout."""
        from repro.runtime.cost import plan_footprint_bytes

        forest, X = workload
        planner = make_planner(forest, tmp_path)
        f32 = planner.autotune(X)
        f32_bytes = planner._footprint(f32)
        budget = f32_bytes // 2  # float32 layouts cannot fit
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=budget)
        plan = planner.plan(X, cfg)
        assert plan.precision != "float32"
        assert planner._footprint(plan) <= budget

    def test_loose_budget_keeps_float32_competitive(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        cfg = RunConfig(
            variant=KernelVariant.AUTO, memory_budget_bytes=1 << 40
        )
        plan = planner.plan(X, cfg)
        assert planner._footprint(plan) <= 1 << 40

    def test_impossible_budget_falls_back_to_smallest(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=1)
        plan = planner.plan(X, cfg)  # least-bad answer, never a refusal
        assert plan.precision == "packed"

    def test_cache_filename_separates_precision_and_budget(
        self, workload, tmp_path
    ):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        default = planner._cache_path(X, Platform.GPU)
        pinned = planner._cache_path(X, Platform.GPU, precision="int8")
        budgeted = planner._cache_path(
            X, Platform.GPU, memory_budget_bytes=4096
        )
        assert len({default, pinned, budgeted}) == 3
        assert "_int8_" in os.path.basename(pinned)
        assert "_b4096_" in os.path.basename(budgeted)
        # The default combination keeps the historical filename shape.
        assert os.path.basename(default).startswith("plan_gpu_f")

    def test_budgeted_decision_replays_from_cache(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=1 << 14)
        first = planner.plan(X, cfg)
        probes = planner.stats["probe_runs"]
        second = planner.plan(X, cfg)
        assert planner.stats["cache_hits"] == 1
        assert planner.stats["probe_runs"] == probes
        assert second.precision == first.precision
        assert second.to_run_config().precision == first.precision

    def test_quantized_plan_runs_end_to_end(self, workload, tmp_path):
        forest, X = workload
        planner = make_planner(forest, tmp_path)
        cfg = RunConfig(variant=KernelVariant.AUTO, memory_budget_bytes=1 << 14)
        plan = planner.plan(X, cfg)
        res = planner.session.run(plan, X)
        oracle = reference_predict(roundtrip_trees(forest.trees_, plan.precision), X)
        assert np.array_equal(res.predictions, oracle)

    def test_config_rejects_bad_precision_and_budget(self):
        with pytest.raises(ValueError, match="precision"):
            RunConfig(precision="bf16")
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            RunConfig(memory_budget_bytes=0)
        with pytest.raises(ValueError, match="cuML"):
            RunConfig(variant=KernelVariant.CUML, precision="int8")

    def test_plan_rejects_cuml_quantized(self):
        with pytest.raises(PlanError, match="cuML"):
            ExecutionPlan(variant="cuml", precision="int8")
