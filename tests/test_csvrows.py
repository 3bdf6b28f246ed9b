"""The CSV float renderer against its referee, Python's own ``'%.16e' % v``.

Every trajectory and trace CSV renders its floats through
``consensuslab._csvrows``; these tests hold its text byte for byte to
Python's formatter on every kind of double, and check that the
per-value fallback to Python carries only the values it must.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab._csvrows import BLOCK_FLOATS, _csv_rows, _kernel

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-280, 1e280, -1e-281, 1.5e281]


def assert_python_format(x) -> None:
    x = np.asarray(x, dtype=float)
    for s in range(0, x.size, BLOCK_FLOATS):
        block = x[s : s + BLOCK_FLOATS]
        got = _csv_rows([], block[:, None])
        want = "".join(["%.16e\n" % v for v in block.tolist()])
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(block.tolist(), got.split("\n"),
                                                 want.split("\n")) if g != w]
            raise AssertionError(f"{len(bad)} values differ, first (value, got, want): {bad[:3]}")


def fast_share(x) -> float:
    """The share of ``x`` the kernel renders without Python's help."""
    return sum(_kernel(x[s : s + BLOCK_FLOATS])[1].sum()
               for s in range(0, x.size, BLOCK_FLOATS)) / x.size


def test_random_bit_patterns_match_python():
    # every exponent: subnormals, the range Python formats alone, NaNs of
    # both signs, with the zeros and infinities added
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    x = np.concatenate([bits.view(np.float64), SPECIALS])
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert (exponent == 0).sum() > 100 and (exponent == 0x7FF).sum() > 100
    assert_python_format(x)
    assert 0.85 < fast_share(x) < 0.95  # the share inside [1e-280, 1e280]


def test_decimal_ties_fall_back_and_match_python():
    # m / 4 with m odd in [2^52, 2^53) ends in .25 or .75: its 17th digit is
    # followed by exactly 5, a tie the kernel must leave to Python; m / 8
    # mixes ties and near-ties
    rng = np.random.default_rng(7)
    m = (rng.integers(2**52, 2**53, size=100_000) | 1).astype(float)
    assert fast_share(m / 4) == 0.0
    assert_python_format(m / 4)
    assert_python_format(m / 8)


def test_powers_of_ten_and_their_neighbours_match_python():
    # where log10 may round to the next integer, and the 17 digits to 10^17
    p = np.array([float(f"1e{k}") for k in range(-307, 309)])
    assert_python_format(np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0),
                                         -p]))


def test_integers_up_to_1e17_match_python():
    rng = np.random.default_rng(11)
    digits = rng.integers(0, 18, size=100_000)
    x = np.round(rng.random(100_000) * 10.0 ** digits) * rng.choice([-1.0, 1.0], 100_000)
    edges = np.concatenate([1e16 + np.arange(-64, 64), 1e17 + 16 * np.arange(-64, 64)])
    assert_python_format(np.concatenate([x, np.arange(-1000.0, 1001.0), edges, -edges]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_match_python(values):
    assert_python_format(values)


def test_normal_values_never_fall_back():
    # the fallback must not quietly carry the values a simulation writes
    x = 30.0 * np.random.default_rng(3).standard_normal(100_000)
    assert fast_share(x) == 1.0
    assert_python_format(x)
