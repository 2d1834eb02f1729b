from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, libmp, mp
from mpmath.libmp import libmpi

from qinfty import QVectorSpec, rigor
from qinfty.errors import CapacityError, Undecided
from qinfty.rigor import (
    contains_value,
    decide_le,
    decide_lt,
    endpoints,
    enclosure_width,
    frac_of_mpf,
    hull,
    ipow,
    ipow_end,
    lower,
    parse_frac,
    plus_minus,
    powsum,
    to_iv,
    upper,
    workprec,
)


def _contains_near(x, oracle: Fraction, slack: Fraction = Fraction(1, 10**25)) -> bool:
    """Enclosure must cover the oracle value up to a tiny slack.

    The slack absorbs the rounding of a decimal-literal oracle; it is far
    smaller than any tolerance the enclosure itself is allowed to have.
    """
    return lower(x) <= oracle + slack and upper(x) >= oracle - slack


def _dec(text: str) -> Fraction:
    return Fraction(text)


def test_workprec_restores_precision():
    before = iv.prec
    with workprec(160):
        assert iv.prec == 160
        with workprec(64):
            assert iv.prec == 64
        assert iv.prec == 160
    assert iv.prec == before


def test_to_iv_roundtrip_exact_dyadic():
    with workprec(96):
        x = to_iv(Fraction(3, 8))
        lo, hi = endpoints(x)
        assert lo == Fraction(3, 8) == hi


def test_to_iv_nondyadic_contains_value():
    with workprec(96):
        for val in (Fraction(1, 3), Fraction(22, 7), Fraction(-5, 13)):
            x = to_iv(val)
            assert contains_value(x, val)
            assert enclosure_width(x) < Fraction(1, 10**25)


def test_frac_of_mpf_exact():
    from mpmath import mp

    with workprec(96):
        m = mp.mpf(5) / 4
        assert frac_of_mpf(m) == Fraction(5, 4)


def test_endpoints_order():
    with workprec(96):
        x = to_iv(Fraction(1, 7))
        lo, hi = endpoints(x)
        assert lo <= Fraction(1, 7) <= hi
        assert endpoints(Fraction(2, 3)) == (Fraction(2, 3), Fraction(2, 3))


def test_hull_and_plus_minus():
    with workprec(96):
        h = hull(to_iv(Fraction(1, 4)), to_iv(Fraction(1, 2)))
        assert lower(h) <= Fraction(1, 4) and upper(h) >= Fraction(1, 2)
        pm = plus_minus(to_iv(Fraction(1, 2)), to_iv(Fraction(1, 100)))
        assert lower(pm) <= Fraction(49, 100) and upper(pm) >= Fraction(51, 100)


def test_plus_minus_widens_by_the_larger_end_of_a_negative_or_straddling_error():
    with workprec(96):
        for err in (hull(Fraction(-5), Fraction(-1)), hull(Fraction(-5), Fraction(1))):
            assert endpoints(plus_minus(Fraction(0), err)) == (Fraction(-5), Fraction(5))
        assert endpoints(plus_minus(Fraction(1), hull(Fraction(-1), Fraction(3)))) == (Fraction(-2), Fraction(4))
        for err in (to_iv(1) / iv.mpf([-1, 1]), iv.mpf([-1, "inf"])):
            with pytest.raises(Undecided, match="96 bits"):
                plus_minus(Fraction(0), err)


def test_decide_le_certified_and_undecided():
    with workprec(96):
        a = to_iv(Fraction(1, 3))
        b = to_iv(Fraction(1, 2))
        assert decide_le(a, b) is True
        assert decide_le(b, a) is False
        assert decide_lt(a, b) is True
        wide = hull(to_iv(Fraction(0)), to_iv(Fraction(1)))
        assert decide_le(wide, to_iv(Fraction(1, 2))) is None
        assert decide_lt(wide, to_iv(Fraction(1, 2))) is None


def test_decide_le_on_fractions_is_exact():
    assert decide_le(Fraction(1, 3), Fraction(1, 3)) is True
    assert decide_lt(Fraction(1, 3), Fraction(1, 3)) is False


def test_ipow_integer_exponent():
    with workprec(96):
        x = ipow(to_iv(Fraction(1, 3)), 5)
        assert contains_value(x, Fraction(1, 243))


def test_ipow_fractional_exponent():
    with workprec(96):
        x = ipow(to_iv(Fraction(1, 4)), Fraction(1, 2))
        assert contains_value(x, Fraction(1, 2))


def test_parse_frac_forms():
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("2") == Fraction(2)
    assert parse_frac("0.125") == Fraction(1, 8)


def test_parse_frac_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_frac("1/0")


# --- power sums ------------------------------------------------------------

def test_powsum_short_range_exact_oracle():
    oracle = sum(Fraction(1, j * j) for j in range(3, 8))
    with workprec(96):
        x = powsum(Fraction(2), Fraction(0), 3, 7)
        assert contains_value(x, oracle)


def test_powsum_range_crossing_euler_maclaurin_start():
    # long enough that the tail is evaluated by the series bracket
    oracle = sum(Fraction(1, j * j) for j in range(100, 5001))
    with workprec(96):
        x = powsum(Fraction(2), Fraction(0), 100, 5000)
        assert contains_value(x, oracle)
        assert enclosure_width(x) < Fraction(1, 10**20)


def test_powsum_offset_range_exact_oracle():
    oracle = sum(Fraction(1, (Fraction(j) + Fraction(1, 2)) ** 2) for j in range(0, 6))
    with workprec(96):
        x = powsum(Fraction(2), Fraction(1, 2), 0, 5)
        assert contains_value(x, oracle)


def test_powsum_infinite_zeta2():
    with workprec(96):
        x = powsum(Fraction(2), Fraction(0), 1, None)
        assert _contains_near(x, _dec("1.64493406684822643647241516665"))


def test_powsum_infinite_zeta_three_halves():
    with workprec(96):
        x = powsum(Fraction(3, 2), Fraction(0), 1, None)
        assert _contains_near(x, _dec("2.61237534868548834334856756792"))


def test_powsum_harmonic_range():
    with workprec(96):
        x = powsum(Fraction(1), Fraction(0), 100, 999)
        assert _contains_near(x, _dec("2.307093342910724651851401"), Fraction(1, 10**20))


def test_powsum_huge_tail_against_integral_bracket():
    # independent bracket for a decreasing positive term:
    #   integral_a^inf  <=  sum_{j>=a}  <=  f(a) + integral_a^inf
    a = 10**40
    p = Fraction(6, 5)
    # integral_a^inf x^(-6/5) dx = 5 * a^(-1/5), and a^(1/5) = 10^8 exactly
    integral = Fraction(5, 10**8)
    first_term_bound = Fraction(1, a)  # a^(-6/5) <= a^(-1)
    with workprec(96):
        x = powsum(p, Fraction(0), a, None)
        # both the enclosure and the analytic bracket contain the true sum,
        # so they must overlap, and the enclosure must be narrow
        assert lower(x) <= integral + first_term_bound
        assert upper(x) >= integral
        assert enclosure_width(x) / integral < Fraction(1, 10**20)


def test_powsum_divergent_tail_raises():
    with workprec(96):
        with pytest.raises(CapacityError):
            powsum(Fraction(1), Fraction(0), 1, None)
        with pytest.raises(CapacityError):
            powsum(Fraction(1, 2), Fraction(0), 1, None)


def test_powsum_higher_precision_narrows():
    with workprec(64):
        w64 = enclosure_width(powsum(Fraction(2), Fraction(0), 1, None))
    with workprec(192):
        w192 = enclosure_width(powsum(Fraction(2), Fraction(0), 1, None))
    assert w192 < w64


def test_powsum_empty_range_is_zero():
    with workprec(96):
        x = powsum(Fraction(2), Fraction(0), 5, 4)
        assert lower(x) == 0 == upper(x)


class _Missing(Exception):
    pass


@pytest.mark.parametrize(
    "start, t",
    [(s, t) for t in (0, 1, 2, 3, 5, 8, 13, 100) for s in (0, 1, 2, 3, 7, 40) if s <= t],
)
def test_first_true_finds_threshold(start, t):
    calls = []

    def pred(i):
        calls.append(i)
        return i >= t

    assert rigor.first_true(pred, start, 10**6, _Missing()) == t
    assert min(calls) >= start


@pytest.mark.parametrize(
    "start, cap", [(s, c) for c in (0, 1, 4, 9, 64) for s in (0, 1, 3) if s <= c]
)
def test_first_true_raises_the_given_fail_and_stays_below_cap(start, cap):
    fail = _Missing("nothing up to the cap")
    calls = []

    def pred(i):
        calls.append(i)
        return i >= cap + 1

    with pytest.raises(_Missing) as exc:
        rigor.first_true(pred, start, cap, fail)
    assert exc.value is fail
    assert max(calls) <= cap


def _em_core_reference(p: Fraction, o: Fraction, a: int, b):
    """Euler-Maclaurin bracket with every constant recomputed per call."""
    from math import factorial

    p_iv = to_iv(p)
    xa = to_iv(a + o)
    b10 = to_iv(abs(Fraction(rigor._B10, factorial(10)))) * rigor._rising(p_iv, 9)
    if b is None:
        s = xa ** (1 - p_iv) / (p_iv - 1) + xa ** (-p_iv) / 2
        for k, b2k in enumerate(rigor._B2K, start=1):
            coeff = Fraction(b2k, factorial(2 * k))
            s = s + to_iv(coeff) * rigor._rising(p_iv, 2 * k - 1) * xa ** (-p_iv - (2 * k - 1))
        return plus_minus(s, b10 * xa ** (-p_iv - 9))
    xb = to_iv(b + o)
    if p == 1:
        integral = iv.log(xb / xa)
    else:
        integral = (xa ** (1 - p_iv) - xb ** (1 - p_iv)) / (p_iv - 1)
    s = integral + (xa ** (-p_iv) + xb ** (-p_iv)) / 2
    for k, b2k in enumerate(rigor._B2K, start=1):
        coeff = Fraction(b2k, factorial(2 * k))
        s = s + to_iv(coeff) * rigor._rising(p_iv, 2 * k - 1) * (
            xa ** (-p_iv - (2 * k - 1)) - xb ** (-p_iv - (2 * k - 1))
        )
    return plus_minus(s, b10 * (xa ** (-p_iv - 9) + xb ** (-p_iv - 9)))


@pytest.mark.parametrize("bits", [53, 96, 192])
@pytest.mark.parametrize(
    "p, o, a, b",
    [
        (Fraction(2), Fraction(0), 2048, None),
        (Fraction(4, 5), Fraction(1, 3), 5000, 10**9),
        (Fraction(1), Fraction(0), 2048, 10**6),
        (Fraction(3, 2), Fraction(7), 10**12, None),
    ],
)
def test_em_core_with_cached_constants_is_bit_identical(bits, p, o, a, b):
    with workprec(bits):
        assert rigor._em_core(p, o, a, b)._mpi_ == _em_core_reference(p, o, a, b)._mpi_


def test_cum_cache_keeps_at_most_its_key_bound():
    p = Fraction(2)
    bound = rigor._prefix.cache_info().maxsize
    offsets = [Fraction(i, 7) for i in range(bound + 10)]
    with workprec(96):
        first = rigor._cum(p, offsets[0], 5)
        first_prefix = rigor._prefix(p, offsets[0])
        for o in offsets:
            rigor._cum(p, o, 5)
            assert rigor._prefix.cache_info().currsize <= bound
        # the first key was evicted: its prefix list is a new, empty one
        assert rigor._prefix(p, offsets[0]) is not first_prefix
        assert rigor._prefix(p, offsets[0]) == []
        # an evicted prefix is rebuilt to the same enclosure
        assert rigor._cum(p, offsets[0], 5)._mpi_ == first._mpi_


def _direct_sum_reference(p: Fraction, o: Fraction, a: int, b: int):
    """The term-by-term loop powsum ran on every short range before
    start-anchored ranges read the prefix cache."""
    p_iv = to_iv(p)
    total = to_iv(0)
    for j in range(a, b + 1):
        total = total + to_iv(j + o) ** (-p_iv)
    return total


_PREFIX_END = rigor._EM_START + rigor._DIRECT_RANGE


def _assert_prefix_list_bounded(p: Fraction, o: Fraction):
    """The prefix list of (p, o) at the working precision stops at _PREFIX_END."""
    assert len(rigor._prefix(p, o)) <= _PREFIX_END - rigor._cache_start(o)


@settings(deadline=None, max_examples=25)
@given(
    p=st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(3)]),
    o=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]),
    bits=st.sampled_from([16, 53, 96, 192]),
    data=st.data(),
)
def test_start_anchored_powsum_is_bit_identical_to_the_direct_loop(p, o, bits, data):
    start = rigor._cache_start(o)
    b = data.draw(st.integers(start, _PREFIX_END - 1), label="b")
    with workprec(bits):
        expected = _direct_sum_reference(p, o, start, b)._mpi_
        rigor._prefix(p, o).clear()
        assert powsum(p, o, start, b)._mpi_ == expected  # cold
        powsum(p, o, start, None)  # fills the prefix through _EM_START - 1
        assert powsum(p, o, start, b)._mpi_ == expected  # warm
        powsum(p, o, start, 10**6)
        _assert_prefix_list_bounded(p, o)


def test_prefix_lists_stay_bounded_past_the_asymptotic_start():
    with workprec(53):
        for o in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)):
            start = rigor._cache_start(o)
            powsum(Fraction(2), o, start, _PREFIX_END - 1)
            for a, b in ((start, _PREFIX_END), (start, 10**6), (start, None), (start + 5, 10**9)):
                powsum(Fraction(2), o, a, b)
            assert len(rigor._prefix(Fraction(2), o)) == _PREFIX_END - start
            _assert_prefix_list_bounded(Fraction(2), o)


def test_memo_caches_are_bounded():
    assert len(rigor.MEMOS) == 10
    assert QVectorSpec.weight_power_block in rigor.MEMOS
    assert QVectorSpec.weight_power_block.cache_info().maxsize == 128
    assert rigor._em_ends in rigor.MEMOS
    assert rigor._em_ends.cache_info().maxsize == 64
    for cached in rigor.MEMOS:
        assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("order", [(53, 96), (96, 53)])
def test_memos_are_keyed_by_the_working_precision(order, clear_memos):
    spec, pl2 = QVectorSpec.luroth(), QVectorSpec.powerlaw(2)
    i, s = 7, Fraction(2, 5)
    seen = []
    for bits in order:
        with workprec(bits):
            # no memo may serve the value it computed at the other precision
            assert rigor._exponent(1, 3)._mpi_ == to_iv(Fraction(1, 3))._mpi_
            power = spec.weight_power_block(i // 32, s)[0][i % 32]
            assert power == (to_iv(spec.q(i)) ** to_iv(s))._mpi_
            tail = pl2.tail_sum(i)._mpi_
            assert tail == QVectorSpec.tail_sum.__wrapped__(pl2, i)._mpi_
            power_sum = spec.power_sum(s, i, 40)._mpi_
            assert power_sum == QVectorSpec.power_sum.__wrapped__(spec, s, i, 40)._mpi_
            seen.append((power, tail, power_sum))
    assert all(x != y for x, y in zip(*seen))


# --- raw-endpoint comparisons against the Fraction-endpoint definitions ------

def _old_frac_of_mpf(m) -> Fraction:
    """The per-comparison conversion comparisons used before they ran on
    raw endpoints; the reference for the exact value of an mpf."""
    sign, man, exp, _ = m._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(int(man)) * Fraction(2) ** exp
    return -val if sign else val


def _old_endpoints(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, Fraction):
        return x, x
    at, bt = x._mpi_
    return _old_frac_of_mpf(mp.make_mpf(at)), _old_frac_of_mpf(mp.make_mpf(bt))


def _ref_decide_le(x, y):
    (xl, xu), (yl, yu) = _old_endpoints(x), _old_endpoints(y)
    return True if xu <= yl else False if xl > yu else None


def _ref_decide_lt(x, y):
    (xl, xu), (yl, yu) = _old_endpoints(x), _old_endpoints(y)
    return True if xu < yl else False if xl >= yu else None


# few distinct small values, so shared and touching endpoints are common,
# and wide mantissas at extreme binary exponents
_raw_mpfs = st.one_of(
    st.builds(libmp.from_man_exp, st.integers(-6, 6), st.integers(-3, 3)),
    st.builds(libmp.from_man_exp, st.integers(-(2**200), 2**200), st.integers(-3000, 3000)),
)


@st.composite
def _enclosures(draw):
    a, b = sorted((draw(_raw_mpfs), draw(_raw_mpfs)), key=lambda r: mp.make_mpf(r))
    if draw(st.booleans()):
        b = a  # point enclosure
    return iv.make_mpf((a, b))


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
_nums = st.one_of(_enclosures(), _fractions)


@settings(deadline=None)
@given(st.builds(mp.make_mpf, _raw_mpfs))
def test_frac_of_mpf_matches_the_old_formula(m):
    assert frac_of_mpf(m) == _old_frac_of_mpf(m)


@settings(deadline=None)
@given(_nums, _nums)
def test_decide_on_raw_endpoints_matches_fraction_definition(x, y):
    assert decide_le(x, y) is _ref_decide_le(x, y)
    assert decide_lt(x, y) is _ref_decide_lt(x, y)
    assert endpoints(x) == _old_endpoints(x)


@settings(deadline=None)
@given(_enclosures(), _enclosures())
def test_gap_is_exact(x, y):
    assert frac_of_mpf(rigor.gap(x, y)) == _old_endpoints(x)[0] - _old_endpoints(y)[1]


def test_infinite_endpoint_is_not_read_as_zero():
    with workprec(96):
        unbounded = to_iv(1) / iv.mpf([-1, 1])
        with pytest.raises(CapacityError):
            endpoints(unbounded)
        assert decide_le(unbounded, to_iv(0)) is None


# --- exponent memo and the domain of fractional powers ------------------------

@pytest.mark.parametrize("bits", [53, 96, 192])
@pytest.mark.parametrize("expo", [Fraction(1, 2), Fraction(-9, 10), Fraction(7, 3)])
def test_ipow_memoized_exponent_is_bit_identical(bits, expo):
    with workprec(bits):
        for base in (Fraction(1, 3), to_iv(Fraction(5, 7)), hull(Fraction(0), Fraction(1, 9))):
            assert ipow(base, expo)._mpi_ == (to_iv(base) ** to_iv(expo))._mpi_


def test_ipow_fractional_power_of_enclosure_below_zero_raises():
    with workprec(16):
        straddle = hull(Fraction(-1, 2**20), Fraction(1, 3))
        with pytest.raises(CapacityError, match="16 bits"):
            ipow(straddle, Fraction(1, 2))
        # integer exponents keep their path and are defined there
        assert contains_value(ipow(straddle, Fraction(2)), Fraction(1, 9))
        assert contains_value(ipow(straddle, 3), Fraction(-1, 2**60))


# --- direct rational lift --------------------------------------------------------

def _old_to_iv(x: Fraction):
    """to_iv of a Fraction as it was before narrow rationals were lifted
    directly: two point lifts and an interval division."""
    if x.denominator == 1:
        return iv.mpf(x.numerator)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


_LIFT_BITS = st.sampled_from([16, 53, 64, 96, 384])
# narrow parts take the direct lift at every tested precision, wide ones
# the fallback at all but 384 bits, and the widest the fallback at 384 too
_LIFT_PARTS = st.one_of(
    st.integers(1, 2**15), st.integers(1, 2**100), st.integers(2**383, 2**400)
)


@settings(deadline=None)
@given(_LIFT_BITS, _LIFT_PARTS, _LIFT_PARTS, st.booleans())
def test_direct_rational_lift_matches_interval_division(bits, p, q, negative):
    x = Fraction(-p if negative else p, q)
    with workprec(bits):
        assert to_iv(x)._mpi_ == _old_to_iv(x)._mpi_


# integers lift by their own outward rounding; the draws include signs,
# sizes up to 400 bits and powers of two, whose lift is exact at any precision
_LIFT_INTS = st.one_of(
    st.integers(-2**16, 2**16), st.integers(-2**400, 2**400),
    st.builds(lambda e, neg: -2**e if neg else 2**e, st.integers(0, 400), st.booleans()),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([16, 24, 53, 96, 192]), _LIFT_INTS, st.booleans())
def test_integer_lift_matches_the_interval_constructor(bits, n, as_fraction):
    x = Fraction(n) if as_fraction else n
    with workprec(bits):
        assert to_iv(x)._mpi_ == iv.mpf(n)._mpi_


# --- one end of a power ----------------------------------------------------------

def _mpi_pow_ipow(base, expo):
    """ipow as it was before its fractional case computed each end on its
    own: the lifted base and exponent through ``libmpi.mpi_pow``."""
    b = to_iv(base)._mpi_
    if not (isinstance(expo, int) or expo.denominator == 1):
        expo = to_iv(expo)
        if libmp.mpf_sign(b[0]) < 0:
            raise Undecided("below zero")
    return libmpi.mpi_pow(b, to_iv(expo)._mpi_, iv.prec)


_positive_raw = st.builds(libmp.from_man_exp, st.integers(1, 2**200), st.integers(-300, 300))


@st.composite
def _power_bases(draw):
    """Fractions and ints either side of 1, rationals wider than the
    precision, and enclosures below, above and straddling 1 or reaching
    down to 0 or below."""
    kind = draw(st.sampled_from(["fraction", "wide", "int", "enclosure", "straddle", "zero", "negative"]))
    if kind == "fraction":
        return draw(st.fractions(min_value=0, max_value=4, max_denominator=1000))
    if kind == "wide":
        return Fraction(draw(st.integers(1, 2**300)), draw(st.integers(1, 2**300)))
    if kind == "int":
        return draw(st.integers(0, 2**70))
    ends = sorted((draw(_positive_raw), draw(_positive_raw)), key=mp.make_mpf)
    if kind == "straddle":
        ends = [min(ends[0], libmp.fhalf, key=mp.make_mpf), max(ends[1], libmp.from_int(2), key=mp.make_mpf)]
    elif kind == "zero":
        ends[0] = libmp.fzero
    elif kind == "negative":
        ends[0] = libmp.mpf_neg(ends[0])
    elif draw(st.booleans()):
        ends[0] = ends[1]  # a point enclosure
    return iv.make_mpf(tuple(ends))


_power_exponents = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2), 3, -2]),
)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(st.sampled_from([16, 24, 53, 96, 192]), _power_bases(), _power_exponents, st.sampled_from([0, 1]))
def test_one_end_of_a_power_is_that_end_of_ipow(bits, base, expo, side):
    with workprec(bits):
        whole = _outcome(lambda: ipow(base, expo)._mpi_)
        assert whole == _outcome(lambda: _mpi_pow_ipow(base, expo))
        expected = whole[side] if isinstance(whole, tuple) else whole
        assert _outcome(lambda: ipow_end(base, expo, side)) == expected


@settings(deadline=None)
@given(_nums)
def test_lower_and_upper_are_the_ends_of_the_enclosure(x):
    assert (lower(x), upper(x)) == endpoints(x)


@pytest.mark.parametrize("bits", [16, 53, 64, 96, 384])
def test_direct_rational_lift_at_the_width_boundary(bits):
    edge = 2**bits - 1  # the widest part that lifts directly
    with workprec(bits):
        for p, q in [(edge, edge - 2), (edge + 2, 3), (1, edge + 2), (-edge, 7), (-(edge + 2), edge)]:
            x = Fraction(p, q)
            assert to_iv(x)._mpi_ == _old_to_iv(x)._mpi_


# --- the escalation rule ------------------------------------------------------

def test_escalate_returns_the_first_rung_result_after_one_call():
    seen = []

    def fn():
        seen.append(iv.prec)
        return "done"

    before = iv.prec
    assert rigor.escalate(fn, 24) == "done"
    assert seen == [24]
    assert iv.prec == before


def test_escalate_climbs_on_undecided():
    seen = []

    def fn():
        seen.append(iv.prec)
        if len(seen) < 3:
            raise Undecided(f"not separated at {iv.prec} bits")
        return iv.prec

    assert rigor.escalate(fn, 24) == 96
    assert seen == [24, 48, 96]


def test_escalate_reraises_the_top_rung_undecided():
    seen = []

    def fn():
        seen.append(iv.prec)
        raise Undecided(f"not separated at {iv.prec} bits")

    with pytest.raises(Undecided, match="at 96 bits"):
        rigor.escalate(fn, 24)
    assert seen == [24, 48, 96]


def test_escalate_lets_a_plain_capacity_error_out_of_the_first_rung():
    seen = []

    def fn():
        seen.append(iv.prec)
        raise CapacityError("iteration cap")

    with pytest.raises(CapacityError, match="iteration cap") as info:
        rigor.escalate(fn, 24)
    assert not isinstance(info.value, Undecided)
    assert seen == [24]


# --- the raw power kernel against the interval expressions it replaces ------

_KERNEL_BITS = st.sampled_from([16, 24, 53, 96, 192])
_derandomized = settings(derandomize=True, deadline=None, max_examples=60)

# nonnegative raw mpfs from 2^-80 to about 10^60, exact squares (whose
# square roots are exact, unlike exp(log(x) / 2)) and exact zero
_raw_positive = st.one_of(
    st.just(libmp.fzero),
    st.builds(libmp.from_man_exp, st.integers(1, 2**80), st.integers(-160, 120)),
    st.builds(lambda m, e: libmp.from_man_exp(m * m, 2 * e), st.integers(1, 2**20), st.integers(-40, 40)),
)


@st.composite
def _raw_bases(draw):
    a, b = sorted((draw(_raw_positive), draw(_raw_positive)), key=lambda r: mp.make_mpf(r))
    return (a, a) if draw(st.booleans()) else (a, b)


def _raw_interval(t: Fraction, w: Fraction) -> tuple:
    """[t - w, t + w] with both ends rounded down to 60 bits."""
    return tuple(libmp.from_rational(v.numerator, v.denominator, 60, libmp.round_floor) for v in (t - w, t + w))


_raw_exponents = st.one_of(
    st.builds(lambda n: (libmp.from_int(n),) * 2, st.integers(-12, 12)),
    st.sampled_from([(libmp.fhalf,) * 2, (libmp.mpf_neg(libmp.fhalf),) * 2]),
    st.builds(
        _raw_interval,
        st.fractions(min_value=-12, max_value=12, max_denominator=64),
        st.sampled_from([Fraction(0), Fraction(1, 2**60), Fraction(1, 2**20)]),
    ),
)


# a log taken at other than mpi_pow's prec + 20 bits changes few powers,
# and an example costs about 3 ms, so this test draws many
@settings(derandomize=True, deadline=None, max_examples=300)
@given(_KERNEL_BITS, _raw_bases(), st.lists(_raw_exponents, min_size=1, max_size=8))
def test_shared_log_powers_match_mpi_pow(bits, x, exps):
    assert rigor._powers(x, exps, bits) == tuple(libmpi.mpi_pow(x, t, bits) for t in exps)


_EM_P = st.one_of(
    st.integers(2, 5).map(Fraction),
    st.integers(0, 9).map(lambda n: Fraction(2 * n + 1, 2)),
    st.just(Fraction(1)),
    st.just(Fraction(4, 5)),
)
_EM_A = st.one_of(st.integers(2, 10**4), st.integers(2, 10**60))


@st.composite
def _em_right_ends(draw, p: Fraction, a: int):
    kinds = ["near", "far"] + (["tail"] if p > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "tail":
        return None
    if kind == "near":
        return a + draw(st.integers(0, 1000))
    return a + draw(st.integers(10**3, 10**60))


@_derandomized
@given(
    st.sampled_from([(16, 96), (24, 53), (53, 192), (96, 24), (192, 16)]),
    _EM_P,
    st.fractions(min_value=-1, max_value=10, max_denominator=6),
    _EM_A,
    st.data(),
)
def test_em_core_on_raw_endpoints_is_bit_identical(bits_pair, p, o, a, data):
    # several right ends against one left end, so the endpoint memo serves
    # the left end; then the same calls at a second precision and again at
    # the first, so no memo serves a value across precisions
    bs = data.draw(st.lists(_em_right_ends(p, a), min_size=1, max_size=4), label="bs")
    for bits in bits_pair + bits_pair[:1]:
        with workprec(bits):
            for b in bs + bs[:1]:
                assert rigor._em_core(p, o, a, b)._mpi_ == _em_core_reference(p, o, a, b)._mpi_
                # the right end as the left end of the next range
                if b is not None and b > a:
                    assert rigor._em_core(p, o, b, b + a)._mpi_ == _em_core_reference(p, o, b, b + a)._mpi_


_SUM_P = st.one_of(
    st.integers(1, 4).map(Fraction),
    st.integers(0, 5).map(lambda n: Fraction(2 * n + 1, 2)),
    st.sampled_from([Fraction(4, 5), Fraction(9, 10), Fraction(7, 3)]),
)


@_derandomized
@given(
    _KERNEL_BITS,
    _SUM_P,
    st.fractions(min_value=-3, max_value=5, max_denominator=4),
    st.integers(0, 60),
    st.integers(0, 80),
)
def test_direct_sum_and_prefix_fill_are_bit_identical(bits, p, o, skip, length):
    start = rigor._cache_start(o)
    a = start + skip
    with workprec(bits):
        assert rigor._direct_sum(p, o, a, a + length)._mpi_ == _direct_sum_reference(p, o, a, a + length)._mpi_
        rigor._prefix(p, o).clear()
        # a cold fill to a + length, then a read below it and a longer fill
        for j in (a + length, a, a + length + 7):
            assert rigor._cum(p, o, j)._mpi_ == _direct_sum_reference(p, o, start, j)._mpi_


_IPOW_BASES = st.one_of(
    st.fractions(min_value=0, max_value=4, max_denominator=1000),
    st.integers(0, 50),
    st.fractions(min_value=0, max_value=4, max_denominator=1000).map(lambda v: hull(Fraction(0), v)),
    st.tuples(
        st.fractions(min_value=0, max_value=4, max_denominator=100),
        st.fractions(min_value=0, max_value=4, max_denominator=100),
    ).map(lambda ends: hull(*sorted(ends))),
)
_IPOW_EXPONENTS = st.one_of(
    st.integers(-8, 8),
    st.integers(-8, 8).map(Fraction),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@_derandomized
@given(_KERNEL_BITS, _IPOW_BASES, _IPOW_EXPONENTS)
def test_ipow_is_bit_identical_to_the_interval_power(bits, base, expo):
    with workprec(bits):
        expected = to_iv(base) ** (expo if isinstance(expo, int) else to_iv(expo))
        assert ipow(base, expo)._mpi_ == expected._mpi_
