import numpy as np
import pytest

from ptqkit.dual_region import DualRegionParams, calibrate_dual_region, encode_tensor
from ptqkit.errors import EmptyInput, InvalidArgument
from ptqkit.outlier_groups import calibrate_grouped
from ptqkit.search import alternating_matmul_search, channelwise_params, mse_grid_search, percentile_calibrate
from ptqkit.tensor import Tensor, _as_f64, channel_slices
from ptqkit.uniform import QuantParams


class TestTensorContainer:
    def test_roundtrip_shape_and_data(self):
        t = Tensor.from_array([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.array.dtype == np.float32

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidArgument):
            Tensor.from_array([1.0, float("nan")])
        with pytest.raises(InvalidArgument):
            Tensor.from_array([1.0, float("inf")])

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidArgument):
            Tensor(shape=(3,), data=np.zeros(2, dtype=np.float32))

    def test_rejects_zero_dim_and_high_rank(self):
        with pytest.raises(EmptyInput):
            Tensor(shape=(0,), data=np.zeros(0, dtype=np.float32))
        with pytest.raises(InvalidArgument):
            Tensor.from_array(np.zeros((1, 1, 1, 1, 1)))

    def test_rejects_negative_dim(self):
        with pytest.raises(InvalidArgument, match=r"^dimensions must be positive, got \(-1, -2\)$"):
            Tensor(shape=(-1, -2), data=np.zeros(2, dtype=np.float32))

    def test_rejects_empty_data_of_rank_zero(self):
        with pytest.raises(EmptyInput, match="^tensor has no elements$"):
            Tensor(shape=(), data=np.zeros(0, dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            Tensor.from_array(np.zeros(0))

    def test_data_is_immutable(self):
        t = Tensor.from_array([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestChannelSlices:
    def test_rows_are_slices_along_axis(self):
        t = np.arange(24.0).reshape(2, 3, 4)
        assert channel_slices(t, 1).tolist() == [t[:, i].reshape(-1).tolist() for i in range(3)]

    def test_constant(self):
        assert channel_slices(np.full((3, 2), 7.0), 0).tolist() == [[7.0, 7.0]] * 3

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((3, 4))
        for axis in (0, 1):
            got = channel_slices(t, axis)
            for i, row in enumerate(got):
                expect = [float(t[i, j]) if axis == 0 else float(t[j, i]) for j in range(t.shape[1 - axis])]
                assert row.tolist() == expect

    def test_axis_out_of_range(self):
        for axis in (2, -3, -100):
            with pytest.raises(InvalidArgument, match=f"^axis {axis} out of range for rank 2$"):
                channel_slices([[1.0]], axis)

    def test_negative_axis_counts_from_the_end(self):
        t = np.arange(24.0).reshape(2, 3, 4)
        for axis in (-3, -2, -1):
            assert channel_slices(t, axis).tolist() == channel_slices(t, axis + 3).tolist()


GROUPED = calibrate_grouped(np.array([0.1, 0.2, 0.3, 5.0]), 8)
# every calibrator and codec that reads samples, each as one call on a 2x2 input
READERS = {
    "as_f64": _as_f64,
    "mse": lambda x: mse_grid_search(x, 8),
    "percentile": lambda x: percentile_calibrate(x, 8),
    "channelwise": lambda x: channelwise_params(x, 8),
    "alternating": lambda x: alternating_matmul_search(x, np.eye(2)),
    "gelu": lambda x: calibrate_dual_region(x, "gelu", 8),
    "softmax": lambda x: calibrate_dual_region(x, "softmax", 8),
    "grouped": lambda x: calibrate_grouped(x, 8),
    "uniform.fake": QuantParams(0.01, 0, 8, True).fake,
    "uniform.encode": QuantParams(0.01, 0, 8, True).encode,
    "dual_region.fake": DualRegionParams("gelu", 8, 0.02, 3).fake,
    "dual_region.encode": DualRegionParams("gelu", 8, 0.02, 3).encode,
    "encode_tensor": lambda x: encode_tensor(x, DualRegionParams("gelu", 8, 0.02, 3)),
    "grouped.fake": GROUPED.fake,
    "grouped.encode": GROUPED.encode,
}


class TestRealSamples:
    """Samples of strings or bytes, which numpy would parse, or of complex values, whose imaginary
    part a cast drops, are one InvalidArgument for every reader; integers and bools read as floats."""

    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
    @pytest.mark.parametrize(
        "values",
        [
            [["0.5", "0.25"], ["0.125", "0"]],
            [[b"0.5", b"0.25"], [b"0.125", b"0"]],
            np.array([[0.5 + 1j, 0.25], [0.125, 0]]),
            np.array([["0.5", "0.25"], ["0.125", "0"]], dtype=object),
        ],
        ids=["str", "bytes", "complex", "object-str"],
    )
    def test_refused(self, reader, values):
        with pytest.raises(InvalidArgument, match="^input must hold real numbers, got dtype "):
            reader(values)

    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
    def test_integers_and_bools_read_as_floats(self, reader):
        for values in ([[1, 0], [0, 1]], np.eye(2, dtype=bool), np.eye(2, dtype=np.uint8)):
            assert repr(reader(values)) == repr(reader(np.eye(2)))
