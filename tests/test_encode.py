"""`encode(x)` of every quantizer kind codes each element once: its codes are
those of the independent codecs, and its reconstruction is `fake(x)` bit for
bit (compared as int64 views, so -0.0 against 0.0 is a difference)."""

import ast
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import dual_region, outlier_groups
from ptqkit.dual_region import DualRegionParams, encode_tensor, fake_dual_region
from ptqkit.errors import EmptyInput, InvalidArgument
from ptqkit.io import dump_writer, read_code_dump, write_code_dump
from ptqkit.outlier_groups import GroupedQuantParams, QuantGroup, calibrate_grouped
from ptqkit.uniform import QuantParams, quant_range, quantize_array
import oracles
from oracles import grouped_dequantize, grouped_quantize

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def code_range(p) -> tuple[int, int]:
    """The least and greatest code of `p`, a grouped quantizer's group indices among them."""
    if isinstance(p, QuantParams):
        return quant_range(p.bits, p.signed)
    if isinstance(p, DualRegionParams):
        return 0, 2**p.bits - 1
    ranges = [quant_range(p.bits, g.params.signed) for g in p.groups]
    return min(0, *(lo for lo, _ in ranges)), max(len(ranges) - 1, *(hi for _, hi in ranges))


def narrowest(lo: int, hi: int) -> np.dtype:
    """The narrowest integer dtype that a code dump stores and that holds [lo, hi], unsigned first."""
    return next(np.dtype(t) for t in ("u1", "i1", "u2", "i2", "i4") if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def check_encode(p, x, codec) -> np.ndarray:
    """`p.encode(x)` against `codec(x)`'s codes and `p.fake(x)`'s values; returns the values."""
    codes, recon, fake = *p.encode(x), p.fake(x)
    with np.errstate(over="ignore"):  # the independent codecs overflow on a huge value or scale
        want_codes = codec(x)
    assert p.code_range == code_range(p)
    assert codes.dtype == narrowest(*code_range(p))
    assert codes.shape == want_codes.shape and np.array_equal(codes, want_codes)
    assert recon.shape == fake.shape == x.shape
    assert np.array_equal(recon.view(np.int64), fake.view(np.int64))
    return recon


def values(draw, special: list, lo: float, hi: float, shape: tuple) -> np.ndarray:
    """An array of `shape` drawn from `special`, [lo, hi] and all finite floats."""
    value = st.one_of(st.sampled_from(special), st.floats(lo, hi), FINITE)
    n = math.prod(shape)
    return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64).reshape(shape)


@st.composite
def uniform_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axis = draw(st.sampled_from([None, *range(len(shape))]))
    bits, signed = draw(st.integers(2, 16)), draw(st.booleans())
    scheme = draw(st.sampled_from(["symmetric", "asymmetric"]))
    q_min, q_max = quant_range(bits, signed)
    n = 1 if axis is None else shape[axis]
    scales = draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))
    zps = [0] * n if scheme == "symmetric" else draw(st.lists(st.integers(q_min, q_max), min_size=n, max_size=n))
    if axis is None:
        p = QuantParams(scale=scales[0], zero_point=zps[0], bits=bits, signed=signed)
    else:
        p = QuantParams(scale=scales, zero_point=zps, bits=bits, signed=signed, axis=axis)
    s = max(scales)
    reach = s * 2**bits
    return p, values(draw, [-0.0, 0.0, s / 2, -s / 2, 1.5 * s, reach, -reach], -2 * reach, 2 * reach, shape)


@st.composite
def dual_region_cases(draw):
    bits = draw(st.integers(2, 16))
    shape = draw(st.sampled_from([(7,), (3, 5), (2, 3, 4)]))
    if draw(st.booleans()):
        # the calibrated coarse scale or the narrower 1 / (2^b - 1), and the shifts whose boundary lies below 1
        scale_r2 = 1.0 / (2 ** draw(st.sampled_from([bits - 1, bits])) - 1)
        m_min = next(m for m in range(1, bits + 2) if 2 ** (bits - 1) * scale_r2 * 2.0**-m < 1.0)
        p = DualRegionParams("softmax", bits, scale_r2, draw(st.integers(m_min, m_min + 4)))
        special = [-1e-6, -0.0, 0.0, p.boundary, math.nextafter(p.boundary, 0.0), p.scale_r1 / 2, 1.0]
        value = st.one_of(st.sampled_from(special), st.floats(-1e-6, 1.0))
        n = math.prod(shape)
        return p, np.array(draw(st.lists(value, min_size=n, max_size=n))).reshape(shape)
    # a scale_r2 near the float64 maximum takes the reconstruction to inf
    scale_r2 = draw(st.one_of(st.floats(1e-6, 10.0), st.floats(1e300, 1e308)))
    p = DualRegionParams("gelu", bits, scale_r2, draw(st.integers(0, bits + 2)))
    reach = min(4.0 * p.value_max * scale_r2, 1e308)
    special = [-0.0, 0.0, -p.scale_r1 / 2, p.scale_r2 / 2, -reach, reach]
    return p, values(draw, special, -reach, reach, shape)


@st.composite
def grouped_cases(draw):
    bits = draw(st.integers(2, 16))
    uppers = sorted(set(draw(st.lists(st.floats(1e-3, 1e3), max_size=3)))) + [math.inf]
    signs = [draw(st.booleans()) for _ in uppers]  # signed and unsigned groups may mix
    params = [
        QuantParams(draw(st.floats(1e-4, 10.0)), draw(st.integers(*quant_range(bits, signed))), bits, signed)
        for signed in signs
    ]
    groups = tuple(QuantGroup(upper, q) for upper, q in zip(uppers, params))
    p = GroupedQuantParams(bits, groups, max_iters=len(groups) - 1)
    edges = [e for u in uppers[:-1] for e in (u, -u, math.nextafter(u, math.inf), -math.nextafter(u, math.inf))]
    shape = draw(st.sampled_from([(9,), (4, 6)]))
    reach = 2.0 * (uppers[-2] if len(uppers) > 1 else 1.0)
    return p, values(draw, [-0.0, 0.0, *edges], -reach, reach, shape)


def scalar_grouped_codes(p: GroupedQuantParams):
    """The (2, n) group indices over codes of `grouped_quantize`, element by element."""
    return lambda x: np.array([grouped_quantize(float(v), p) for v in x.reshape(-1)], dtype=np.int64).T


class TestEncodeIsOneCodingPass:
    @settings(max_examples=300, deadline=None)
    @given(uniform_cases())
    def test_uniform(self, case):
        p, x = case
        check_encode(p, x, lambda arr: quantize_array(arr, p))

    @settings(max_examples=300, deadline=None)
    @given(dual_region_cases())
    def test_dual_region(self, case):
        p, x = case
        check_encode(p, x, lambda arr: encode_tensor(arr, p))

    @settings(max_examples=300, deadline=None)
    @given(grouped_cases())
    def test_grouped(self, case):
        p, x = case
        recon = check_encode(p, x, scalar_grouped_codes(p))
        with np.errstate(over="ignore"):
            groups, codes = scalar_grouped_codes(p)(x)
        # the scalar decoder of the scalar codes, an oracle that shares no code with `search._pieces_into`
        decoded = np.array([grouped_dequantize(int(g), int(c), p) for g, c in zip(groups, codes)])
        assert np.array_equal(recon.view(np.int64), decoded.reshape(x.shape).view(np.int64))

    def test_dual_region_words_come_from_the_payloads(self):
        # payload 2 at scale 1e308 reconstructs to inf; the word still packs payload 2
        p = DualRegionParams("gelu", 8, 1e308, 0)
        x = np.array([1.7e308, -1.7e308, 1e308, -0.0])
        words, recon = p.encode(x)
        assert words.tolist() == encode_tensor(x, p).tolist() == [130, 2, 129, 128]
        assert np.isinf(recon[:2]).all() and recon[2] == 1e308 and recon[3] == 0.0


TAGS = {np.dtype("i4"): 1, np.dtype("i1"): 2, np.dtype("u1"): 3, np.dtype("i2"): 4, np.dtype("u2"): 5}


class TestCodeDumpsStoreCodesAtTheirWidth:
    """Every quantizer kind at every bit width: its code dump carries the tag of the narrowest dtype
    that holds its code range, reads back as `encode`'s codes, and that dtype's writer refuses a
    code one past its range on either side, leaving no file."""

    @staticmethod
    def check(p, x):
        codes = p.encode(x)[0]
        dtype = narrowest(*code_range(p))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.codes"
            write_code_dump(codes, path)
            assert path.read_bytes()[6] == TAGS[dtype]
            back = read_code_dump(path)
            assert back.dtype == dtype and back.shape == codes.shape
            assert back.astype(np.int64).tolist() == codes.astype(np.int64).tolist()
            info = np.iinfo(dtype)
            for past in (info.min - 1, info.max + 1):
                with pytest.raises(InvalidArgument, match=f"^codes must be finite and fit {dtype.name}$"):
                    with dump_writer(path, TAGS[dtype], (2,)) as put:
                        put(0, np.array([0, past], dtype=np.int64))
                assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(uniform_cases())
    def test_uniform(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(dual_region_cases())
    def test_dual_region(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(grouped_cases())
    def test_grouped(self, case):
        self.check(*case)


class TestNearLimitValuesCodeSilently:
    """A value whose quotient by its scale passes the float64 maximum codes to q_min or q_max,
    and every codec says nothing of it."""

    X = np.array([1e308, -1e308])

    @staticmethod
    def silently(code, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return code(*args)

    def test_uniform(self):
        p = QuantParams(scale=1e-3, zero_point=0, bits=8, signed=True)
        codes, recon = self.silently(p.encode, self.X)
        assert codes.tolist() == [127, -128]
        want = (np.array([127.0, -128.0]) * 1e-3).tobytes()
        assert recon.tobytes() == self.silently(p.fake, self.X).tobytes() == want

    def test_dual_region(self):
        p = DualRegionParams("gelu", 8, 1e-3, 2)
        words, recon = self.silently(p.encode, self.X)
        assert words.tolist() == [255, 127]
        want = np.array([127 * 1e-3, 127 * -(1e-3 * 2.0**-2)]).tobytes()
        assert recon.tobytes() == self.silently(fake_dual_region, self.X, p).tobytes() == want

    def test_grouped(self):
        p = calibrate_grouped(np.array([1.0, 2.0, 3.0]), 8)
        codes, recon = self.silently(p.encode, self.X[:1])
        last = p.groups[-1].params
        assert codes[:, 0].tolist() == [len(p.groups) - 1, last.q_max]
        assert recon.tobytes() == np.array([(last.q_max - last.zero_point) * last.scale]).tobytes()


@pytest.mark.parametrize(
    "bad, error", [([math.nan, 1.0], InvalidArgument), ([math.inf], InvalidArgument), ([], EmptyInput)]
)
@pytest.mark.parametrize(
    "p",
    [
        QuantParams(0.1, 0, 8, False),
        DualRegionParams("gelu", 8, 0.05, 2),
        GroupedQuantParams(8, (QuantGroup(math.inf, QuantParams(0.1, 0, 8, False)),), max_iters=1),
    ],
    ids=["uniform", "dual_region", "grouped"],
)
def test_every_kind_rejects_a_non_finite_or_empty_input_alike(p, bad, error):
    for method in (p.fake, p.encode):
        with pytest.raises(error):
            method(np.array(bad))


def test_the_scalar_oracles_live_beside_their_tests():
    """The library defines none of the scalar codecs, so it cannot call them, and they import
    nothing from `ptqkit.search`, the home of `_pieces_into`, the piece codec they check."""
    names = ("assign_region", "dual_region_quantize", "dual_region_dequantize")
    names += ("group_index", "grouped_quantize", "grouped_dequantize")
    assert all(callable(getattr(oracles, name)) for name in names)
    assert not set(names) & (set(vars(dual_region)) | set(vars(outlier_groups)))
    imported = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    assert not any(name == "ptqkit.search" or name.startswith("ptqkit.search.") for name in imported)
