"""Continued fraction expansion and local resolution chains."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.errors import BadFraction, BadLocalData
from neroncalc.hj import (
    HJChain,
    hj_expand,
    local_point_data,
    resolve_chain,
)


def hj_value(digits) -> Fraction:
    """Evaluate ``[b1, ..., bL]`` back to the fraction it expands: the
    recomposition oracle for :func:`hj_expand`.

    >>> hj_value([3, 2])
    Fraction(5, 2)
    """
    value = Fraction(digits[-1])
    for b in reversed(digits[:-1]):
        value = b - 1 / value
    return value


def test_expand_examples():
    assert hj_expand(5, 2) == [3, 2]
    assert hj_expand(3, 2) == [2, 2]
    for n in range(2, 9):
        assert hj_expand(n, 1) == [n]


def test_expand_rejects_bad_input():
    for n, r in ((5, 0), (5, 5), (5, 7), (6, 2)):
        with pytest.raises(BadFraction):
            hj_expand(n, r)


def test_recomposition_small_range():
    for n in range(2, 151):
        for r in range(1, n):
            if gcd(n, r) == 1:
                b = hj_expand(n, r)
                assert all(x >= 2 for x in b)
                assert hj_value(b) == Fraction(n, r)


def test_resolve_examples():
    assert resolve_chain(2, 1, 3, 1).b == (3,)
    assert resolve_chain(2, 1, 3, 1).mu == (1, 1, 2)
    assert resolve_chain(1, 1, 3, 2).mu == (1, 1, 1, 1)
    chain = resolve_chain(6, 1, 5, 4)
    assert chain.b == (2, 2, 2, 2)
    assert chain.mu == (1, 2, 3, 4, 5, 6)


def test_resolve_rejects_bad_data():
    with pytest.raises(BadLocalData):
        resolve_chain(1, 1, 3, 1)  # 1 + 1*1 not divisible by 3
    with pytest.raises(BadLocalData):
        resolve_chain(3, 1, 3, 2)  # m1 not coprime to n


def test_terminal_identity_exhaustive():
    for n in range(2, 31):
        for m1 in range(1, 13):
            if gcd(n, m1) != 1:
                continue
            for m2 in range(1, 13):
                if gcd(n, m2) != 1:
                    continue
                r = (-m1 * pow(m2, -1, n)) % n
                if r == 0:
                    continue
                chain = resolve_chain(m1, m2, n, r)
                assert chain.mu[0] == m2 and chain.mu[-1] == m1
                assert all(m > 0 for m in chain.mu)


def test_orientation_symmetry():
    for n in range(2, 25):
        for m1 in range(1, 10):
            for m2 in range(1, 10):
                if gcd(n, m1) != 1 or gcd(n, m2) != 1:
                    continue
                r = (-m1 * pow(m2, -1, n)) % n
                r_flip = (-m2 * pow(m1, -1, n)) % n
                if r == 0 or r_flip == 0:
                    continue
                fwd = resolve_chain(m1, m2, n, r)
                back = resolve_chain(m2, m1, n, r_flip)
                assert fwd.mu == tuple(reversed(back.mu))


def test_interior_fiber_relation_enforced():
    chain = resolve_chain(6, 1, 5, 4)
    for i in range(1, len(chain.mu) - 1):
        assert chain.mu[i - 1] + chain.mu[i + 1] == chain.b[i - 1] * chain.mu[i]
    with pytest.raises(BadLocalData):
        HJChain(5, 4, (2, 2, 2, 2), (1, 2, 3, 4, 4, 6))


def test_local_point_examples():
    d3 = local_point_data(1, 1, 3)
    assert (d3.num_points, d3.d2, d3.chain.r) == (1, 3, 2)
    assert d3.chain.mu == (1, 1, 1, 1)

    d5 = local_point_data(6, 3, 5)
    assert (d5.num_points, d5.e1, d5.e2, d5.d2, d5.chain.r) == (1, 1, 1, 5, 3)
    assert d5.chain.b == (2, 3)
    assert d5.chain.mu == (3, 3, 3, 6)

    split = local_point_data(2, 2, 2)
    assert (split.num_points, split.d1, split.d2) == (2, 1, 1)
    assert split.chain is None


def test_local_point_characteristic_mode():
    with pytest.raises(BadLocalData):
        local_point_data(1, 1, 4, p=2)
    assert local_point_data(1, 1, 3, p=2).d2 == 3
    # p = 1, equal characteristic zero, is the default and the least p
    assert local_point_data(6, 3, 5) == local_point_data(6, 3, 5, p=1)
    with pytest.raises(BadLocalData, match="^characteristic exponent must be >= 1$"):
        local_point_data(6, 3, 5, p=0)


def test_local_point_rejects_nonpositive():
    with pytest.raises(BadLocalData):
        local_point_data(0, 1, 3)
    with pytest.raises(BadLocalData):
        local_point_data(1, 1, 0)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 40))
@settings(max_examples=300)
def test_local_point_invariants(m1, m2, d):
    data = local_point_data(m1, m2, d)
    assert data.num_points * data.d1 == d
    assert data.d1 % (data.e1 * data.e2) == 0
    assert gcd(data.d2, data.m1_red) == 1 and gcd(data.d2, data.m2_red) == 1
    if data.chain is not None:
        assert data.chain.mu[0] == data.m2_red
        assert data.chain.mu[-1] == data.m1_red
        # reduced multiplicities times the split factors recover the input
        assert data.m1_red * data.e1 * data.num_points == m1
        assert data.m2_red * data.e2 * data.num_points == m2
