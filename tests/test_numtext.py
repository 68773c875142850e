import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wnfield import _numtext

PRECISIONS = [15, 17]


def text(block, precision):
    fh = io.StringIO()
    _numtext.write(fh, np.asarray(block, dtype=float), precision)
    return fh.getvalue()


def savetxt(block, precision):
    fh = io.StringIO()
    np.savetxt(fh, block, delimiter=",", fmt=f"%.{precision}g")
    return fh.getvalue()


def from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def near(x):
    """x and its two neighbouring doubles."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


#: every kind of value whose text takes a path of its own
values = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),                            # any bit pattern
    st.builds(lambda k, j: (k + 0.5) * 2.0**-j,                          # exact ties
              st.integers(0, 2**52 - 1), st.integers(0, 80)),
    st.integers(10**14, 10**15 - 1).map(lambda k: k + 0.5),              # ties at digit 16
    st.integers(-30, 30).flatmap(lambda k: near(float(f"1e{k}"))),      # powers of ten
    st.builds(lambda digits, k: float("9" * digits + f"e{k}"),          # round up to 10^k
              st.integers(15, 19), st.integers(-40, 30)),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308]),       # zeros, subnormals
    st.integers(1, 2**52 - 1).map(from_bits),
    st.sampled_from([1e22, 1e-8, 1e-6, 1e15, 1e17]).flatmap(near),       # edges of the exact path
    st.floats(9e21, 1.1e22), st.floats(9e-9, 1.1e-8), st.floats(9e-7, 1.1e-6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
signed_values = st.builds(lambda x, negative: -x if negative else x, values, st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(row=st.lists(signed_values, min_size=1, max_size=40), precision=st.sampled_from(PRECISIONS))
def test_each_value_is_the_text_of_percent_g(row, precision):
    expected = ",".join("%.*g" % (precision, x) for x in row) + "\n"
    assert text([row], precision) == expected


@pytest.mark.parametrize("precision", PRECISIONS)
def test_ties_round_half_to_even(precision):
    # k + 1/2 has 16 significant digits: exactly halfway at precision 15
    row = [k + 0.5 for k in range(10**14, 10**14 + 40)] + [2.5, 0.125, 1e15 - 0.5]
    assert text([row], precision) == ",".join("%.*g" % (precision, x) for x in row) + "\n"


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (0, 4), (5, 0), (3, 4)])
def test_small_shapes_are_the_bytes_of_savetxt(precision, shape):
    block = np.random.default_rng(1).standard_normal(shape)
    assert text(block, precision) == savetxt(block, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("width", [1, 3, 7, 64, 1023, 1024, 1025, 3000])
def test_rows_across_block_boundaries_are_the_bytes_of_savetxt(precision, width):
    step = max(1, _numtext._CHUNK_VALUES // width)   # rows laid out at a time
    rng = np.random.default_rng(width)
    for rows in {1, step - 1, step, step + 1, 2 * step + 1} - {0}:
        block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-12, 20, (rows, width))
        block.ravel()[::97] = np.nan   # values written by % in every block
        assert text(block, precision) == savetxt(block, precision)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                        elements=signed_values),
       chunk=st.integers(1, 40), precision=st.sampled_from(PRECISIONS))
def test_arrays_are_the_bytes_of_savetxt(block, chunk, precision):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(_numtext, "_CHUNK_VALUES", chunk)
        assert text(block, precision) == savetxt(block, precision)


def test_non_contiguous_and_integer_blocks():
    block = np.random.default_rng(2).standard_normal((30, 40))
    for view in (block.T, block[::3, 1::2], np.asfortranarray(block)):
        assert text(view, 17) == savetxt(view, 17)
    ints = np.arange(-50, 50).reshape(10, 10)
    assert text(ints, 15) == savetxt(ints.astype(float), 15)
