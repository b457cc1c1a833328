from diagram_helpers import jones_mirror, lp, lp_add

from billiardknots.laurent import (
    lp_mul,
    lp_pow,
    lp_scale,
    lp_shift,
    lp_to_string,
)


def test_constructor_merges_and_drops_zeros():
    assert lp((2, 1), (2, -1), (0, 3)) == {0: 3}
    assert lp() == {}


def test_add_and_mul():
    p = lp((1, 2), (-1, 1))
    q = lp((1, -2), (0, 5))
    assert lp_add(p, q) == {0: 5, -1: 1}
    assert lp_mul(lp((1, 1), (0, 1)), lp((1, 1), (0, -1))) == {2: 1, 0: -1}
    assert lp_mul(p, {}) == {}


def test_pow_and_shift():
    delta = lp((2, -1), (-2, -1))
    assert lp_pow(delta, 0) == {0: 1}
    assert lp_pow(delta, 2) == {4: 1, 0: 2, -4: 1}
    assert lp_shift(delta, 3) == {5: -1, 1: -1}
    assert lp_scale(delta, -2) == {2: 2, -2: 2}
    assert jones_mirror(lp((3, 1), (-1, 4))) == {-3: 1, 1: 4}


def test_string_rendering():
    assert lp_to_string({}) == "0"
    assert lp_to_string({5: -1, -3: -1, -7: 1}) == "-A^5 - A^-3 + A^-7"
    assert lp_to_string({2: 1, 0: -2}, variable="t", denominator=2) == "t - 2"
    assert lp_to_string({1: -1, 5: -1}, variable="t", denominator=2) == (
        "-t^(5/2) - t^(1/2)"
    )
    assert lp_to_string({4: 3}, variable="t", denominator=2) == "3*t^2"
