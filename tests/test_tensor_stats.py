import numpy as np
import pytest

from ptqkit.errors import EmptyInput, InvalidArgument
from ptqkit.tensor import Tensor, channel_slices


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
