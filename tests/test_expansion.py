from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qinfty.errors import BoundaryAmbiguityError, InvalidIntervalError, ParameterRangeError
from qinfty.expansion import (
    UNIT_END,
    Cylinder,
    CylinderAddress,
    QRational,
    cylinder_length,
    decode,
    encode,
    locate_max_cylinder,
    right_end,
)
from qinfty.qvector import QVectorSpec
from qinfty.rigor import contains_value, endpoints, lower, upper, workprec


LUR = QVectorSpec.luroth()
GEO = QVectorSpec.geometric(Fraction(1, 2))
PL2 = QVectorSpec.powerlaw(2)


def _random_qrational(rng: random.Random, max_rank: int = 6, max_digit: int = 9) -> QRational:
    rank = rng.randint(0, max_rank)
    return QRational.of(tuple(rng.randint(0, max_digit) for _ in range(rank)))


# --- digit strings -----------------------------------------------------------

def test_qrational_strips_trailing_zeros():
    assert QRational.of((2, 0, 1, 0, 0)).digits == (2, 0, 1)
    assert QRational.of((0, 0)).digits == ()
    assert QRational.zero().digits == ()


def test_qrational_digit_at_pads_with_zeros():
    x = QRational.of((3, 1))
    assert x.digit_at(0) == 3
    assert x.digit_at(1) == 1
    assert x.digit_at(2) == 0
    assert x.digit_at(99) == 0


def test_qrational_rejects_negative_digits():
    with pytest.raises(ParameterRangeError):
        QRational.of((1, -2))


@pytest.mark.parametrize("digits", [5, (1.5,), (1, True), ("1",)])
def test_digit_words_reject_non_integers(digits):
    with pytest.raises(ParameterRangeError):
        QRational.of(digits)
    with pytest.raises(ParameterRangeError):
        CylinderAddress.of(digits)


@pytest.mark.parametrize(
    "digits",
    [{3, 1}, {}, {1: 2}, range(3), (d for d in (1, 2)), "12", b"\x01"],
    ids=["set", "empty-dict", "dict", "range", "generator", "str", "bytes"],
)
def test_digit_words_are_lists_or_tuples_only(digits):
    # an unordered container has no digit order; a one-shot iterator is not a word
    with pytest.raises(ParameterRangeError, match="list or tuple"):
        QRational.of(digits)
    with pytest.raises(ParameterRangeError, match="list or tuple"):
        CylinderAddress.of(digits)


def test_digit_word_list_and_tuple_agree():
    assert QRational.of([3, 1, 0]) == QRational.of((3, 1))
    assert CylinderAddress.of([3, 1]) == CylinderAddress.of((3, 1))
    assert CylinderAddress.of([]).digits == ()


def test_lexicographic_order_examples():
    assert QRational.of((1, 2)) < QRational.of((2,))
    assert QRational.of((1,)) < QRational.of((1, 1))
    assert QRational.of((0, 5)) < QRational.of((1,))
    assert QRational.of((2, 0)) == QRational.of((2,))
    assert QRational.zero() < QRational.of((0, 0, 1))


def test_unit_end_is_maximal():
    assert QRational.of((9, 9, 9)) < UNIT_END
    assert QRational.zero() < UNIT_END
    assert UNIT_END <= UNIT_END
    assert not UNIT_END < UNIT_END


def _reference_cmp(a: QRational, b: QRational) -> int:
    """Position-wise comparison after padding with zeros, digit by digit."""
    for i in range(max(len(a.digits), len(b.digits))):
        x, y = a.digit_at(i), b.digit_at(i)
        if x != y:
            return -1 if x < y else 1
    return 0


def _reference_lt(a, b) -> bool:
    if a is UNIT_END:
        return False
    return b is UNIT_END or _reference_cmp(a, b) < 0


def _reference_le(a, b) -> bool:
    if a is UNIT_END:
        return b is UNIT_END
    return b is UNIT_END or _reference_cmp(a, b) <= 0


_points = st.one_of(
    st.just(UNIT_END),
    st.lists(st.integers(0, 3), max_size=5).map(QRational.of),
)


@given(_points, _points)
def test_operators_match_the_zero_padded_order(a, b):
    for x, y in ((a, b), (b, a)):
        assert (x < y) == _reference_lt(x, y)
        assert (x <= y) == _reference_le(x, y)
        assert (x > y) == _reference_lt(y, x)
        assert (x >= y) == _reference_le(y, x)
        assert (x == y) == (_reference_le(x, y) and _reference_le(y, x))


def test_order_matches_value_order_luroth():
    rng = random.Random(20260816)
    for _ in range(300):
        x = _random_qrational(rng)
        y = _random_qrational(rng)
        vx, vy = x.value(LUR), y.value(LUR)
        assert (x < y) == (vx < vy)
        assert (x == y) == (vx == vy)


def test_order_is_family_independent():
    # the digit order never consults the weights, so any two exact families
    # must sort identically
    rng = random.Random(7)
    for _ in range(200):
        x = _random_qrational(rng)
        y = _random_qrational(rng)
        assert (x.value(LUR) < y.value(LUR)) == (x.value(GEO) < y.value(GEO))


def test_value_against_decode_left():
    rng = random.Random(99)
    for _ in range(50):
        x = _random_qrational(rng)
        if x.digits == ():
            continue
        addr = CylinderAddress(x.digits)
        assert x.value(LUR) == decode(LUR, addr).left
        assert x.value(GEO) == decode(GEO, addr).left


# --- decode / cylinder geometry ----------------------------------------------

def test_decode_examples():
    c = decode(LUR, CylinderAddress((1, 0)))
    assert c.left == Fraction(1, 2)
    assert c.length == Fraction(1, 12)
    c2 = decode(GEO, CylinderAddress((0, 1)))
    assert c2.left == Fraction(1, 4)
    assert c2.length == Fraction(1, 8)


def test_decode_root_cylinder():
    c = decode(LUR, CylinderAddress(()))
    assert c.left == 0
    assert c.length == 1


def test_cylinder_right_is_left_plus_length():
    c = decode(LUR, CylinderAddress((2, 1)))
    assert c.right == c.left + c.length


def test_cylinder_length_is_product_of_weights():
    assert cylinder_length(LUR, CylinderAddress((0, 1))) == Fraction(1, 12)
    assert cylinder_length(GEO, CylinderAddress((0, 0, 0))) == Fraction(1, 8)
    digits = (3, 1, 4, 1)
    prod = Fraction(1)
    for d in digits:
        prod *= LUR.q(d)
    assert cylinder_length(LUR, CylinderAddress(digits)) == prod


def test_decode_powerlaw_enclosure():
    with workprec(96):
        c = decode(PL2, CylinderAddress((0, 0)))
        lo, hi = endpoints(c.length)
        # length is the square of the largest weight, 36 / pi^4
        oracle = Fraction("0.3695753611686360668095002")
        assert lo <= oracle + Fraction(1, 10**20) and hi >= oracle - Fraction(1, 10**20)
        assert hi - lo < Fraction(1, 10**12)
        assert contains_value(c.left, Fraction(0))


def test_right_end_examples():
    assert right_end(CylinderAddress((1, 4))) == QRational.of((1, 5))
    assert right_end(CylinderAddress((0,))) == QRational.of((1,))
    assert right_end(CylinderAddress(())) is UNIT_END


def test_right_end_value_matches_geometry():
    rng = random.Random(3)
    for _ in range(40):
        x = _random_qrational(rng, max_rank=5)
        if x.digits == ():
            continue
        addr = CylinderAddress(x.digits)
        c = decode(LUR, addr)
        r = right_end(addr)
        assert isinstance(r, QRational)
        assert r.value(LUR) == c.right


def test_adjacent_cylinders_tile_exactly():
    # right endpoint of digit d equals left endpoint of digit d+1 at any rank
    for d in range(5):
        a = decode(LUR, CylinderAddress((2, d)))
        b = decode(LUR, CylinderAddress((2, d + 1)))
        assert a.right == b.left


# --- encode --------------------------------------------------------------------

def test_encode_examples():
    assert encode(LUR, Fraction(2, 3), 5).digits == (2, 0, 0, 0, 0)
    assert encode(GEO, Fraction(1, 2), 4).digits == (1, 0, 0, 0)
    assert encode(LUR, Fraction(0), 3).digits == (0, 0, 0)


def test_encode_domain_checks():
    with pytest.raises(ParameterRangeError):
        encode(LUR, Fraction(-1, 2), 3)
    with pytest.raises(ParameterRangeError):
        encode(LUR, Fraction(1), 3)
    with pytest.raises(ParameterRangeError):
        encode(LUR, Fraction(1, 2), 0)


def test_encode_decode_containment_exact():
    rng = random.Random(41)
    for _ in range(100):
        x = Fraction(rng.randint(0, 10**6 - 1), 10**6)
        for spec in (LUR, GEO):
            addr = encode(spec, x, 6)
            c = decode(spec, addr)
            assert c.left <= x < c.right


def test_encode_left_endpoint_recovers_digits():
    rng = random.Random(5)
    for _ in range(60):
        x = _random_qrational(rng, max_rank=4, max_digit=6)
        v = x.value(LUR)
        depth = max(len(x.digits), 1) + 2
        addr = encode(LUR, v, depth)
        padded = x.digits + (0,) * (depth - len(x.digits))
        assert addr.digits == padded


def test_encode_powerlaw_certified():
    with workprec(96):
        addr = encode(PL2, Fraction(2, 3), 6)
        c = decode(PL2, addr)
        assert lower(c.left) <= Fraction(2, 3) <= upper(c.left + c.length)


def test_encode_boundary_ambiguity_raises():
    # a rational that agrees with the first powerlaw boundary beyond any
    # precision the ladder will reach cannot be classified honestly
    from mpmath import mp

    with mp.workprec(2400):
        b = mp.mpf(6) / mp.pi**2
        near = Fraction(int(mp.floor(b * 2**2200)), 2**2200)
    with pytest.raises(BoundaryAmbiguityError):
        encode(PL2, near, 1)


# --- locate ----------------------------------------------------------------------

def test_locate_examples():
    p, b1 = locate_max_cylinder(LUR, QRational.of((1, 2)), QRational.of((1, 5)))
    assert p.digits == (1,) and b1 == 2
    p, b1 = locate_max_cylinder(LUR, QRational.zero(), UNIT_END)
    assert p.digits == () and b1 == 0
    p, b1 = locate_max_cylinder(GEO, QRational.of((0, 3)), QRational.of((0, 3, 5)))
    assert p.digits == (0, 3) and b1 == 0


def test_locate_rejects_empty_interval():
    with pytest.raises(InvalidIntervalError):
        locate_max_cylinder(LUR, QRational.of((1, 2)), QRational.of((1, 2)))
    with pytest.raises(InvalidIntervalError):
        locate_max_cylinder(LUR, QRational.of((2,)), QRational.of((1,)))


def test_locate_invariants_random():
    rng = random.Random(20260817)
    checked = 0
    while checked < 200:
        a = _random_qrational(rng, max_rank=5, max_digit=5)
        b = _random_qrational(rng, max_rank=5, max_digit=5)
        if not a < b:
            continue
        checked += 1
        p, b1 = locate_max_cylinder(LUR, a, b)
        rank = p.rank
        # the located cylinder is a prefix of a and contains [a, b)
        assert all(a.digit_at(i) == p.digits[i] for i in range(rank))
        assert b1 == a.digit_at(rank)
        if rank > 0:
            assert QRational.of(p.digits) <= a
            assert b <= right_end(p)
        # maximality: the next child along a's digits no longer contains b
        assert not b <= right_end(p.child(b1))
