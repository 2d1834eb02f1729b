"""Directed-rounding numeric layer.

Two value kinds circulate in this package: exact rationals
(``fractions.Fraction``) wherever closed forms exist, and rigorous
enclosures (``mpmath.iv`` intervals) everywhere else.  This module owns the
conversions between the two, certified comparisons, and the Euler-Maclaurin
brackets for power sums over integer ranges.  Every enclosure produced here
contains its true value regardless of working precision; precision only
controls width.

Enclosure endpoints are binary floats, which mpmath compares and subtracts
exactly, so comparisons between two enclosures run on the raw endpoints;
a ``Fraction`` is built only where a bound is reported or an exact value
takes part, and :func:`lower` and :func:`upper` build only the end they
return.  Most certified comparisons read one end of each side, so
:func:`ipow_end` computes one end of a fractional power, the bits that end
of :func:`ipow` has, and :func:`mul_end` one end of a product.  A step
left undecided at the working precision raises ``Undecided``, and
:func:`escalate` retries it on the next rung of its ladder (start, 2x,
4x); every public entry point that takes a precision climbs that one
ladder.
Every bounded memo of the package is a :func:`memo`, keyed by the working
precision, so a value cached at one precision is never served at another.

mpmath's interval context is process-global, so all precision-sensitive
regions are serialized behind one lock.  Callers get thread safety at the
cost of parallel speedup.
"""

from __future__ import annotations

import operator
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial, reduce, wraps
from math import factorial, floor
from typing import Callable, Iterable, Optional, TypeVar, Union

from mpmath import iv, libmp, mp
from mpmath.libmp import libmpi

from .errors import CapacityError, ParameterRangeError, Undecided

Num = Union[Fraction, "iv.mpf"]
T = TypeVar("T")

DEFAULT_PREC = 96

_LOCK = threading.RLock()

# Direct summation extends to this index before the asymptotic bracket
# takes over; below it the order-4 remainder would be too wide.
_EM_START = 2048
_DIRECT_RANGE = 600

_B2K = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)]
_B10 = Fraction(5, 66)


MEMOS: list = []  # every memo made by :func:`memo`, for clearing and hit counts


def memo(maxsize: int):
    """Least-recently-used memo of at most ``maxsize`` results, keyed by
    ``iv.prec`` and the arguments as passed: a keyword call is forwarded
    and keyed apart from the positional call, which gives the same value.
    The wrapper keeps ``cache_info`` and ``cache_clear``, and joins
    :data:`MEMOS`."""
    def wrap(fn):
        cached = lru_cache(maxsize)(lambda prec, *args, **kwargs: fn(*args, **kwargs))

        @wraps(fn)
        def at_prec(*args, **kwargs):
            return cached(iv.prec, *args, **kwargs)

        at_prec.cache_info, at_prec.cache_clear = cached.cache_info, cached.cache_clear
        MEMOS.append(at_prec)
        return at_prec
    return wrap


def escalate(fn: Callable[[], T], prec: int) -> T:
    """fn() under :func:`workprec` on the first rung of the ladder prec,
    2*prec, 4*prec that decides it: Undecided moves up a rung and propagates
    from the top one, and any other error propagates at once.  Every public
    entry point that takes a ``prec`` runs its body here."""
    for bits in (prec, 2 * prec, 4 * prec):
        try:
            with workprec(bits):
                return fn()
        except Undecided:
            if bits == 4 * prec:
                raise


def first_true(pred: Callable[[int], bool], start: int, cap: float, fail: Exception) -> int:
    """Least index >= start where the monotone predicate holds.

    ``pred`` returns True only where it holds certifiably at the working
    precision, so this is the least index certified there.  Gallops upward
    from ``start`` in doubling steps, then bisects the last step.  ``pred``
    is never called above ``cap``; ``fail`` is raised when it holds nowhere
    up to ``cap``.  Pass ``math.inf`` as ``cap`` for a search that is known
    to end.
    """
    if pred(start):
        return start
    lo, step = start, 1
    while True:
        hi = lo + step
        if hi > cap:
            raise fail
        if pred(hi):
            break
        lo, step = hi, 2 * step
    # invariant: pred(lo) is false and pred(hi) is true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


@contextmanager
def workprec(bits: int = DEFAULT_PREC):
    """Run a block at the given iv working precision, serialized."""
    with _LOCK:
        old = iv.prec
        iv.prec = bits
        try:
            yield
        finally:
            iv.prec = old


_ROUND = (libmp.round_floor, libmp.round_ceiling)  # the rounding of each end, lower and upper


def _lift_end(p: int, q: int, side: int, prec: int):
    """End ``side`` (0 lower, 1 upper) of the enclosure of p/q, q >= 1, at
    ``prec`` bits: an integer gets the end ``iv.mpf`` gives it, a rational
    that fits the precision the rounded quotient, and a wider one the end
    the interval division of its two lifted integers gives, p's end over
    the end of q that ``mpi_div`` picks for the sign of p."""
    rnd = _ROUND[side]
    if q == 1:
        return libmp.from_int(p, prec, rnd)
    if p.bit_length() <= prec and q.bit_length() <= prec:
        # both lift exactly, so this is the interval division's end
        return libmp.from_rational(p, q, prec, rnd)
    q_end = _ROUND[1 - side if p > 0 else side]
    return libmp.mpf_div(libmp.from_int(p, prec, rnd), libmp.from_int(q, prec, q_end), prec, rnd)


def to_iv(x) -> "iv.mpf":
    """Enclose an int, Fraction, or iv value; ivs pass through.  Each end of
    an int or a Fraction is :func:`_lift_end`'s, the bits ``iv.mpf`` and
    its interval division give, without their generic dispatch."""
    if isinstance(x, Fraction):
        p, q = x.numerator, x.denominator
    elif isinstance(x, int):
        p, q = x, 1
    else:
        return iv.mpf(x)
    prec = iv.prec
    return iv.make_mpf((_lift_end(p, q, 0, prec), _lift_end(p, q, 1, prec)))


def adder() -> Callable:
    """(x, y) -> x + y on raw enclosures (``_mpi_`` endpoint pairs) at the
    working precision: the call ``iv.mpf.__add__`` makes, so the same bits,
    without an ``iv.mpf`` per step."""
    return partial(libmpi.mpi_add, prec=iv.prec)


def upper_adder() -> Callable:
    """(x, y) -> x + y on raw mpfs, rounded up at the working precision:
    at least the exact sum, in any order of adding."""
    return partial(libmp.mpf_add, prec=iv.prec, rnd=libmp.round_ceiling)


def raw_total(terms: Iterable) -> "iv.mpf":
    """0 + t_1 + t_2 + ... of raw enclosures, added in order by :func:`adder`."""
    return iv.make_mpf(reduce(adder(), terms, to_iv(0)._mpi_))


def frac_of_raw(raw) -> Fraction:
    """Exact rational value of a raw mpf (sign, man, exp, bc); an infinite
    or NaN one is Undecided."""
    sign, man, exp, _ = raw
    if not man:
        if exp:
            raise Undecided(f"enclosure has an infinite or NaN endpoint at {iv.prec} bits")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def frac_of_mpf(m) -> Fraction:
    """Exact rational value of an mpf (binary float, so always exact)."""
    return frac_of_raw(m._mpf_)


def endpoints(x: Num) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of a value's enclosure."""
    if isinstance(x, Fraction):
        return x, x
    at, bt = x._mpi_
    return frac_of_raw(at), frac_of_raw(bt)


def lower(x: Num) -> Fraction:
    """``endpoints(x)[0]``, converting only that end."""
    return x if isinstance(x, Fraction) else frac_of_raw(x._mpi_[0])


def upper(x: Num) -> Fraction:
    """``endpoints(x)[1]``, converting only that end."""
    return x if isinstance(x, Fraction) else frac_of_raw(x._mpi_[1])


def mul_end(x, y, side: int):
    """End ``side`` (0 lower, 1 upper) of the product of two enclosures
    whose lower ends are nonnegative, from those ends of theirs (raw mpfs):
    the end ``iv.mpf.__mul__`` gives, rounded toward its side at the
    working precision.  The upper end needs only the first enclosure
    nonnegative and the second's upper end positive."""
    return libmp.mpf_mul(x, y, iv.prec, _ROUND[side])


def enclosure_width(x: Num) -> Fraction:
    a, b = endpoints(x)
    return b - a


def hull(lo: Num, hi: Num) -> "iv.mpf":
    """Interval spanning from lower(lo) to upper(hi)."""
    a = to_iv(lo)
    b = to_iv(hi)
    return iv.mpf([mp.make_mpf(a._mpi_[0]), mp.make_mpf(b._mpi_[1])])


def max_num(x: Num, y: Num) -> Num:
    """Enclosure of max(x, y); exact when both are exact."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return max(x, y)
    xl, xu = endpoints(x)
    yl, yu = endpoints(y)
    return hull(max(xl, yl), max(xu, yu))


def plus_minus(x: Num, err: Num) -> "iv.mpf":
    """Widen x by +-max(|lower(err)|, |upper(err)|) on both sides; an
    infinite or NaN end of err is Undecided."""
    lo, hi = (libmp.mpf_abs(end) for end in to_iv(err)._mpi_)
    if {lo, hi} & {libmp.finf, libmp.fnan}:
        raise Undecided(f"enclosure has an infinite or NaN endpoint at {iv.prec} bits")
    e = lo if libmp.mpf_lt(hi, lo) else hi
    return iv.make_mpf(libmpi.mpi_add(to_iv(x)._mpi_, (libmp.mpf_neg(e), e), iv.prec))


def _ends(x: Num, y: Num):
    """x's and y's endpoints with comparisons exact on them, (le, lt): raw
    mpfs when both are enclosures, Fractions when either is exact."""
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        return endpoints(x) + endpoints(y) + (operator.le, operator.lt)
    return x._mpi_ + y._mpi_ + (libmp.mpf_le, libmp.mpf_lt)


def decide_le(x: Num, y: Num) -> Optional[bool]:
    """True if x <= y certified, False if x > y certified, None otherwise."""
    xl, xu, yl, yu, le, lt = _ends(x, y)
    if le(xu, yl):
        return True
    if lt(yu, xl):
        return False
    return None


def decide_lt(x: Num, y: Num) -> Optional[bool]:
    """True if x < y certified, False if x >= y certified, None otherwise."""
    xl, xu, yl, yu, le, lt = _ends(x, y)
    if lt(xu, yl):
        return True
    if le(yu, xl):
        return False
    return None


def gap(x: "iv.mpf", y: "iv.mpf") -> "mp.mpf":
    """lower(x) - upper(y) of two enclosures, exactly (no rounding)."""
    return mp.make_mpf(libmp.mpf_sub(x._mpi_[0], y._mpi_[1], 0))


def contains_value(x: Num, v: Fraction) -> bool:
    a, b = endpoints(x)
    return a <= v <= b


@memo(256)
def _exponent(num: int, den: int) -> "iv.mpf":
    """Enclosure of num/den at the working precision."""
    return to_iv(Fraction(num, den))


def _fractional_pow(base: Num, expo, sides: tuple):
    """The ends ``sides`` (0 lower, 1 upper) of ``ipow(base, expo)`` for a
    Fraction exponent that is neither an integer nor 1/2, on a base whose
    enclosure is positive, finite and on one side of 1; None otherwise.

    Each end is ``libmpi.mpi_pow``'s own: exp(t log x), with the end of the
    base, of log x at prec + 20 bits and of the exponent t that
    ``mpi_log``, ``mpi_mul`` and ``mpi_exp`` pick for the signs of log x and
    t, rounded as they round it.  An exact base lifts only the ends it is
    read on.
    """
    if type(expo) is not Fraction:
        return None
    t_num, t_den = expo.numerator, expo.denominator
    if t_den == 1 or t_den == 2 and t_num == 1:
        return None
    prec = iv.prec
    if type(base) is Fraction or type(base) is int:
        p, q = (base, 1) if type(base) is int else (base.numerator, base.denominator)
        if p <= 0:
            return None
        above = p >= q
        end = partial(_lift_end, p, q, prec=prec)
    else:
        lo, hi = to_iv(base)._mpi_
        if libmp.mpf_sign(lo) <= 0 or hi == libmp.finf:
            return None
        above = libmp.mpf_ge(lo, libmp.fone)
        if not above and libmp.mpf_gt(hi, libmp.fone):
            return None
        end = (lo, hi).__getitem__
    t = _exponent(t_num, t_den)._mpi_
    ends = []
    for side in sides:
        e = side if t_num > 0 else 1 - side  # x^t grows with x for t > 0
        log = libmp.mpf_log(end(e), prec + 20, _ROUND[e])
        v = libmp.mpf_mul(log, t[side if above else 1 - side], prec + 20, _ROUND[side])
        ends.append(libmp.mpf_exp(v, prec, _ROUND[side]))
    return ends


def ipow_end(base: Num, expo: Num, side: int):
    """``ipow(base, expo)._mpi_[side]``, the raw lower (0) or upper (1) end,
    computing only that end where :func:`_fractional_pow` applies: one lift
    of the base's end, one log and one exp.  Anywhere else it is read off
    :func:`ipow`, which raises what it raises."""
    ends = _fractional_pow(base, expo, (side,))
    return ipow(base, expo)._mpi_[side] if ends is None else ends[0]


def ipow(base: Num, expo: Num) -> "iv.mpf":
    """Rigorous base**expo for nonnegative base.

    A fractional power of a positive base on one side of 1 is
    :func:`_fractional_pow` at both ends, the bits ``libmpi.mpi_pow``
    gives; every other case is ``mpi_pow`` itself.  A fractional power of
    an enclosure reaching below zero is undefined there, so it raises
    Undecided: a higher precision may narrow the base onto [0, inf).
    """
    ends = _fractional_pow(base, expo, (0, 1))
    if ends is not None:
        return iv.make_mpf(tuple(ends))
    b = to_iv(base)._mpi_
    if not (isinstance(expo, int) or isinstance(expo, Fraction) and expo.denominator == 1):
        if isinstance(expo, Fraction):
            expo = _exponent(expo.numerator, expo.denominator)
        if libmp.mpf_sign(b[0]) < 0:
            raise Undecided(f"fractional power of an enclosure reaching below zero at {iv.prec} bits")
    return iv.make_mpf(libmpi.mpi_pow(b, to_iv(expo)._mpi_, iv.prec))


def approx_str(x: Num, digits: int = 12) -> str:
    """Human-readable decimal rendering; display only, not a bound."""
    if isinstance(x, Fraction):
        return mp.nstr(mp.mpf(x.numerator) / x.denominator, digits)
    a, b = x._mpi_
    sa = mp.nstr(mp.make_mpf(a), digits)
    sb = mp.nstr(mp.make_mpf(b), digits)
    if sa == sb:
        return sa
    return f"[{sa}, {sb}]"


def _long_ints(convert: Callable[[], T]) -> T:
    """convert(), run again with Python's limit on the digits of an
    int-string conversion (from 3.10.7) lifted, and restored after, when
    it raises ValueError: an exact cylinder of a long digit word has
    thousands of digits."""
    try:
        return convert()
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):
            raise
    with _LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert()
        finally:
            sys.set_int_max_str_digits(limit)


def frac_str(x: Fraction) -> str:
    return _long_ints(lambda: f"{x.numerator}/{x.denominator}")


def parse_frac(text: str) -> Fraction:
    """Parse 'p/q' or a plain decimal/integer literal into a Fraction."""
    if not isinstance(text, str):
        raise ParameterRangeError(f"expected a rational written as a string, got {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = _long_ints(lambda: [int(part) for part in text.split("/", 1)])
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return _long_ints(lambda: Fraction(text))


def num_to_json(x: Num):
    """Fraction -> 'p/q'; enclosure -> {'lo','hi','approx'} with exact ends."""
    if isinstance(x, Fraction):
        return frac_str(x)
    a, b = endpoints(x)
    return {"lo": frac_str(a), "hi": frac_str(b), "approx": approx_str(x)}


# ---------------------------------------------------------------------------
# Power sums  sum_{j=a}^{b} (j+o)^(-p)  with rigorous brackets.
#
# Three paths.  A range that starts at the positivity threshold and ends
# below _EM_START + _DIRECT_RANGE reads the shared prefix cache, which adds
# the same terms in the same order as a direct loop, so it has the same
# bits.  Other short ranges are summed term by term, since a difference of
# two prefixes would be wider.  Long and infinite ranges use
# Euler-Maclaurin through the B_8 term; since every even derivative of
# x^(-p) keeps one sign, the remainder is bounded by the magnitude of the
# first omitted term, which we widen symmetrically.
#
# All three run on raw enclosures (``_mpi_`` endpoint pairs) with the
# libmpi calls that ``iv.mpf``'s operators make, in the same order, so
# they give the bits of the interval expressions they stand for.  A
# fractional power x^t is exp(t * log x) there, and log x does not depend
# on t, so :func:`_powers` takes it once per endpoint for all seven
# exponents of the bracket.  :func:`_em_ends` memoizes an endpoint's seven
# powers by (p, x): a search that holds one end of its ranges fixed
# computes that end once.
# ---------------------------------------------------------------------------

_TWO = (libmp.from_int(2),) * 2  # the divisor ``x / 2`` lifts, at any precision


def _rising(p_iv, m: int):
    acc = to_iv(1)
    for i in range(m):
        acc = acc * (p_iv + i)
    return acc


def _powers(x, exps, prec: int) -> tuple:
    """libmpi.mpi_pow(x, t, prec) for each raw exponent t, by mpi_pow's own
    calls, with log(x) taken once for every t that is not an integer or
    1/2 point: those keep mpi_pow's own dispatch."""
    log, out = None, []
    for t in exps:
        ta, tb = t
        if ta == tb and ta not in (libmp.finf, libmp.fninf) and (
                ta == libmp.fhalf or ta == libmp.from_int(libmp.to_int(ta))):
            out.append(libmpi.mpi_pow(x, t, prec))
            continue
        if log is None:
            log = libmpi.mpi_log(x, prec + 20)
        out.append(libmpi.mpi_exp(libmpi.mpi_mul(log, t, prec + 20), prec))
    return tuple(out)


def _direct_sum(p: Fraction, o: Fraction, a: int, b: int) -> "iv.mpf":
    t, prec = libmpi.mpi_neg(to_iv(p)._mpi_, iv.prec), iv.prec
    return raw_total(libmpi.mpi_pow(to_iv(j + o)._mpi_, t, prec) for j in range(a, b + 1))


def _cache_start(offset: Fraction) -> int:
    # Smallest integer j with j + offset > 0.
    return floor(-offset) + 1


@memo(64)
def _prefix(p: Fraction, o: Fraction) -> list:
    """Raw prefix sums of (t+o)^(-p) from the canonical start, as far as :func:`_cum` filled them."""
    return []


def _cum(p: Fraction, o: Fraction, j: int) -> "iv.mpf":
    """Cached cumulative sum_{t=start}^{j} (t+o)^(-p) from the canonical start."""
    start = _cache_start(o)
    with _LOCK:
        arr = _prefix(p, o)
        t, prec, add = libmpi.mpi_neg(to_iv(p)._mpi_, iv.prec), iv.prec, adder()
        while len(arr) <= j - start:
            term = libmpi.mpi_pow(to_iv(start + len(arr) + o)._mpi_, t, prec)
            arr.append(add(arr[-1], term) if arr else term)
        return iv.make_mpf(arr[j - start])


def _cached_range(p: Fraction, o: Fraction, a: int, b: int) -> "iv.mpf":
    hi = _cum(p, o, b)
    if a == _cache_start(o):
        return hi
    return hi - _cum(p, o, a - 1)


@memo(64)
def _em_constants(p: Fraction):
    """Raw enclosures at the working precision: p - 1; the Euler-Maclaurin
    coefficients of x^(-p), B_2k / (2k)! times a rising factorial, for
    k = 1..4 and then the remainder's |B_10| / 10!; and the exponents of
    x in the bracket, 1 - p and -p, then -p - (2k - 1) for the same k."""
    p_iv = to_iv(p)
    coeffs = [to_iv(Fraction(b2k, factorial(2 * k))) * _rising(p_iv, 2 * k - 1)
              for k, b2k in enumerate(_B2K, start=1)]
    coeffs.append(to_iv(abs(Fraction(_B10, factorial(10)))) * _rising(p_iv, 9))
    exps = [1 - p_iv, -p_iv] + [-p_iv - (2 * k - 1) for k in range(1, 6)]
    return (p_iv - 1)._mpi_, tuple(c._mpi_ for c in coeffs), tuple(e._mpi_ for e in exps)


@memo(64)
def _em_ends(p: Fraction, x: Fraction) -> tuple:
    """The raw powers of x in the bracket of p, at the exponents of :func:`_em_constants`."""
    return _powers(to_iv(x)._mpi_, _em_constants(p)[2], iv.prec)


def _em_core(p: Fraction, o: Fraction, a: int, b: Optional[int]) -> "iv.mpf":
    """Euler-Maclaurin bracket of sum_{j=a}^{b} (j+o)^(-p) from the powers
    of its endpoints: u = x^(1-p) for the integral, h = x^(-p) for the end
    terms, then those of the B_2k terms and of the remainder (w)."""
    pm1, coeffs, _ = _em_constants(p)
    prec = iv.prec
    add, sub, mul, div = (partial(f, prec=prec) for f in (
        libmpi.mpi_add, libmpi.mpi_sub, libmpi.mpi_mul, libmpi.mpi_div))
    u, h, *w = _em_ends(p, a + o)
    if b is None:
        s = add(div(u, pm1), div(h, _TWO))
    else:
        ub, hb, *wb = _em_ends(p, b + o)
        if p == 1:
            integral = libmpi.mpi_log(div(to_iv(b + o)._mpi_, to_iv(a + o)._mpi_), prec)
        else:
            integral = div(sub(u, ub), pm1)
        s = add(integral, div(add(h, hb), _TWO))
        w = [sub(x, y) for x, y in zip(w[:-1], wb[:-1])] + [add(w[-1], wb[-1])]
    for c, x in zip(coeffs[:-1], w):
        s = add(s, mul(c, x))
    return plus_minus(iv.make_mpf(s), iv.make_mpf(mul(coeffs[-1], w[-1])))


def powsum(p: Fraction, offset: Fraction, a: int, b: Optional[int] = None) -> "iv.mpf":
    """Rigorous enclosure of sum_{j=a}^{b} (j+offset)^(-p).

    b=None means the infinite tail, which requires p > 1.  p and offset are
    exact so the p=1 and convergence branches are decided exactly.
    """
    if a + offset <= 0:
        raise ValueError("powsum requires a + offset > 0")
    if p <= 0:
        raise ValueError("powsum requires p > 0")
    if b is None:
        if p <= 1:
            raise CapacityError(f"divergent power sum: exponent {p} <= 1")
    elif b < a:
        return to_iv(0)
    elif a == _cache_start(offset) and b < _EM_START + _DIRECT_RANGE:
        return _cum(p, offset, b)
    elif b - a + 1 <= _DIRECT_RANGE:
        return _direct_sum(p, offset, a, b)
    elif a < _EM_START and b < _EM_START + _DIRECT_RANGE:
        return _cached_range(p, offset, a, b)
    if a >= _EM_START:
        return _em_core(p, offset, a, b)
    return _cached_range(p, offset, a, _EM_START - 1) + _em_core(p, offset, _EM_START, b)
