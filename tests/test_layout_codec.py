"""Precision-axis codec tests: calibration, round-trip, layout threading."""

import numpy as np
import pytest

from repro.layout import (
    ByteWidths,
    CSRForest,
    CodecError,
    HierarchicalForest,
    LayoutParams,
    PRECISIONS,
    QuantizedValues,
    csr_bytes,
    csr_device_arrays,
    get_codec,
    hierarchical_bytes,
    hierarchical_device_arrays,
    layout_device_arrays,
)
from repro.layout.codec import PackedCodec, quantize_layout_values
from repro.fastpath import fastpath_predict

QUANTIZED = tuple(p for p in PRECISIONS if p != "float32")


class TestCodecRegistry:
    def test_every_precision_resolves(self):
        for name in PRECISIONS:
            assert get_codec(name).name == name

    def test_instance_passthrough(self):
        c = get_codec("int8")
        assert get_codec(c) is c

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("bfloat16")

    def test_threshold_bytes(self):
        assert get_codec("float32").threshold_bytes == 4
        assert get_codec("float16").threshold_bytes == 2
        assert get_codec("int8").threshold_bytes == 1
        assert get_codec("packed").threshold_bytes == 1


class TestQuantizeValues:
    def _channel(self):
        rng = np.random.default_rng(11)
        feature_id = rng.integers(-1, 5, size=64).astype(np.int32)
        value = np.where(
            feature_id >= 0,
            rng.uniform(-3.0, 3.0, size=64).astype(np.float32),
            rng.integers(0, 3, size=64).astype(np.float32),
        ).astype(np.float32)
        return value, feature_id

    def test_float32_is_identity(self):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values("float32", value, feature_id)
        assert quant is None
        np.testing.assert_array_equal(decoded, value)

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_leaf_values_never_touched(self, codec):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values(codec, value, feature_id)
        leaves = feature_id < 0
        np.testing.assert_array_equal(decoded[leaves], value[leaves])
        assert isinstance(quant, QuantizedValues)
        assert decoded.dtype == np.float32

    @pytest.mark.parametrize("codec", ("int8", "packed"))
    def test_int8_error_bounded_by_step(self, codec):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values(codec, value, feature_id)
        inner = feature_id >= 0
        feats = feature_id[inner].astype(np.int64)
        step = quant.scale[feats]
        # Rounding to the nearest code keeps |error| <= scale/2 + float fuzz.
        err = np.abs(decoded[inner] - value[inner])
        assert np.all(err <= step * np.float32(0.5) + np.float32(1e-6))

    def test_int8_decode_matches_build_bit_for_bit(self):
        value, feature_id = self._channel()
        decoded, quant = quantize_layout_values("int8", value, feature_id)
        codec = get_codec("int8")
        feats = np.where(feature_id >= 0, feature_id, 0).astype(np.int64)
        replay = codec.decode_thresholds(
            quant.codes, feats, quant.scale, quant.offset
        )
        inner = feature_id >= 0
        np.testing.assert_array_equal(decoded[inner], replay[inner])

    def test_degenerate_single_threshold_is_exact(self):
        # One distinct threshold per feature: scale degrades to 1 and the
        # code 0 decodes to the midpoint == the threshold itself.
        feature_id = np.array([0, 0, -1], dtype=np.int32)
        value = np.array([1.25, 1.25, 2.0], dtype=np.float32)
        decoded, _ = quantize_layout_values("int8", value, feature_id)
        np.testing.assert_array_equal(decoded, value)

    def test_leaf_labels_do_not_widen_calibration(self):
        # A huge leaf label sharing feature slot 0 must not stretch the
        # feature-0 threshold range.
        feature_id = np.array([0, 0, -1], dtype=np.int32)
        value = np.array([1.0, 2.0, 1000.0], dtype=np.float32)
        _, quant = quantize_layout_values("int8", value, feature_id)
        assert quant.offset[0] == np.float32(1.5)
        assert quant.scale[0] == np.float32(0.5) / np.float32(127.0)

    def test_packed_pools_leaves(self):
        value, feature_id = self._channel()
        _, quant = quantize_layout_values("packed", value, feature_id)
        leaves = feature_id < 0
        np.testing.assert_array_equal(
            quant.leaf_pool[quant.leaf_code[leaves]], value[leaves]
        )
        assert quant.leaf_pool.dtype == np.float32
        assert quant.leaf_code.dtype == np.uint8

    def test_packed_pool_overflow_rejected(self):
        values = np.arange(300, dtype=np.float32)
        with pytest.raises(CodecError, match="distinct leaf"):
            PackedCodec.pool_leaves(values)


class TestLayoutThreading:
    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_csr_quantized_predictions_close(self, small_trees, queries, codec):
        base = CSRForest.from_trees(small_trees)
        quant = CSRForest.from_trees(small_trees, codec=codec)
        assert quant.codec == codec
        agree = float(
            np.mean(
                fastpath_predict(quant, queries)[0]
                == fastpath_predict(base, queries)[0]
            )
        )
        assert agree >= 0.98

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_hier_matches_csr_under_same_codec(self, small_trees, queries, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        hier = HierarchicalForest.from_trees(
            small_trees, LayoutParams(6, 10), codec=codec
        )
        hier.validate()
        np.testing.assert_array_equal(
            fastpath_predict(csr, queries)[0], fastpath_predict(hier, queries)[0]
        )

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_quantized_layouts_carry_side_tables(self, small_trees, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        assert csr.quant is not None and csr.quant.codec == codec
        assert csr.value.dtype == np.float32  # decoded channel stays f32
        if codec in ("int8", "packed"):
            assert csr.quant.scale.dtype == np.float32
            assert csr.quant.scale.shape == csr.quant.offset.shape

    def test_float32_layout_has_no_side_tables(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        assert csr.codec == "float32"
        assert csr.quant is None

    @pytest.mark.parametrize("codec", QUANTIZED)
    def test_integrity_covers_decoded_channel(self, small_trees, codec):
        from repro.reliability.integrity import verify_layout_integrity

        csr = CSRForest.from_trees(small_trees, codec=codec)
        verify_layout_integrity(csr)  # no raise
        csr.value[0] += np.float32(1.0)
        with pytest.raises(Exception):
            verify_layout_integrity(csr)


class TestByteAccounting:
    """Satellite: byte model == nbytes of the device arrays, every pair."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_csr_bytes_match_nbytes(self, small_trees, codec):
        csr = CSRForest.from_trees(small_trees, codec=codec)
        arrays = csr_device_arrays(csr)
        assert csr_bytes(csr) == sum(a.nbytes for a in arrays.values())

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_hier_bytes_match_nbytes(self, small_trees, codec):
        hier = HierarchicalForest.from_trees(
            small_trees, LayoutParams(6, 10), codec=codec
        )
        arrays = hierarchical_device_arrays(hier)
        assert hierarchical_bytes(hier) == sum(a.nbytes for a in arrays.values())

    def test_codec_ordering_monotone(self, small_trees):
        sizes = [
            csr_bytes(CSRForest.from_trees(small_trees, codec=c))
            for c in PRECISIONS
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_packed_csr_reduction_at_least_3x(self, small_trees):
        base = csr_bytes(CSRForest.from_trees(small_trees))
        packed = csr_bytes(CSRForest.from_trees(small_trees, codec="packed"))
        assert base / packed >= 3.0

    def test_from_codec_widths(self):
        assert ByteWidths.from_codec("float32") == ByteWidths()
        assert ByteWidths.from_codec("float16").value == 2
        assert ByteWidths.from_codec("int8").value == 1
        packed = ByteWidths.from_codec("packed")
        # node_bytes is the 4-byte hier slot record; + two int16 child
        # refs gives the 8-byte CSR record.
        assert packed.node_bytes() == 4
        assert packed.node_bytes() + 2 * packed.index == 8
        with pytest.raises(CodecError):
            ByteWidths.from_codec("bf16")

    def test_dispatch_helper(self, small_trees):
        csr = CSRForest.from_trees(small_trees)
        hier = HierarchicalForest.from_trees(small_trees)
        assert set(layout_device_arrays(csr)) == set(csr_device_arrays(csr))
        assert set(layout_device_arrays(hier)) == set(
            hierarchical_device_arrays(hier)
        )
        with pytest.raises(TypeError):
            layout_device_arrays(object())

    def test_explicit_widths_reproduce_legacy_formula(self, small_trees):
        csr = CSRForest.from_trees(small_trees, codec="int8")
        w = ByteWidths()
        expected = (
            csr.total_nodes * w.node_bytes()
            + csr.total_nodes * w.index
            + csr.total_children_entries * w.index
            + (csr.n_trees + 1) * 2 * w.offset
        )
        # Explicit widths ignore the codec: the historical width model.
        assert csr_bytes(csr, w) == expected


class TestRoundtripOracle:
    """Host trees with round-tripped thresholds encode the quantized layouts."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    @pytest.mark.parametrize("family", ["hier", "csr"])
    def test_roundtripped_trees_match_the_layout(
        self, small_trees, trained_small, queries, codec, family
    ):
        from repro.baselines.cpu_reference import reference_predict
        from repro.layout.codec import roundtrip_trees

        clf, _, _, Xte, _ = trained_small
        for trees, X in ((small_trees, queries[:500]), (clf.trees_, Xte[:500])):
            if family == "hier":
                layout = HierarchicalForest.from_trees(
                    trees, LayoutParams(4, 8), codec=codec
                )
            else:
                layout = CSRForest.from_trees(trees, codec=codec)
            roundtripped = roundtrip_trees(trees, codec)
            oracle = reference_predict(roundtripped, X)
            assert np.array_equal(oracle, fastpath_predict(layout, X)[0])
            moved = any(
                not np.array_equal(a.threshold, b.threshold)
                for a, b in zip(trees, roundtripped)
            )
            assert moved == (codec != "float32")
