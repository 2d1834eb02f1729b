"""Digit codec and cylinder geometry.

Points of [0,1) are expanded over the infinite alphabet {0,1,2,...}: digit
k is chosen so the point falls between head_sum(k) and head_sum(k+1), the
remainder is rescaled by q_k, and the process repeats.  Cylinders are laid
out left to right, so the left endpoint of a cylinder is a strictly
increasing function of any digit.  That gives the one fact this module
leans on everywhere: comparing two finite expansions is plain position-wise
integer comparison after padding with zeros, independent of the weight
family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import rigor
from .errors import (
    BoundaryAmbiguityError,
    CapacityError,
    InvalidIntervalError,
    ParameterRangeError,
)
from .qvector import QVectorSpec
from .rigor import Num


def _check_digits(digits: Sequence[int]) -> tuple[int, ...]:
    # only a list or tuple is a word: a set or a mapping has no digit order,
    # and a bool or float digit is an error, not a digit to round
    if not isinstance(digits, (list, tuple)) or not all(type(d) is int for d in digits):
        raise ParameterRangeError(f"digits must be a list or tuple of integers, got {digits!r}")
    ds = tuple(digits)
    if any(d < 0 for d in ds):
        raise ParameterRangeError(f"digits must be nonnegative, got {ds}")
    return ds


@dataclass(frozen=True)
class CylinderAddress:
    """A finite digit word; the empty word addresses [0,1)."""

    digits: tuple[int, ...]

    @classmethod
    def of(cls, digits: Sequence[int]) -> "CylinderAddress":
        return cls(_check_digits(digits))

    @property
    def rank(self) -> int:
        return len(self.digits)

    def child(self, digit: int) -> "CylinderAddress":
        return CylinderAddress(self.digits + (int(digit),))

    def to_json(self) -> list:
        return list(self.digits)


@dataclass(frozen=True, order=True)
class QRational:
    """A point with finitely many nonzero digits (a cylinder left endpoint).

    Stored normalized: no trailing zero digits, so equality of values is
    equality of tuples.  Ordering is the value order, which is tuple order:
    a proper prefix has only zeros where the longer word's nonzero tail is.
    """

    digits: tuple[int, ...]

    @classmethod
    def of(cls, digits: Sequence[int]) -> "QRational":
        ds = _check_digits(digits)
        while ds and ds[-1] == 0:
            ds = ds[:-1]
        return cls(ds)

    @classmethod
    def zero(cls) -> "QRational":
        return cls(())

    def digit_at(self, pos: int) -> int:
        """Digit at 0-based position, implicit zeros beyond the stored word."""
        return self.digits[pos] if pos < len(self.digits) else 0

    def value(self, spec: QVectorSpec) -> Num:
        return decode(spec, CylinderAddress(self.digits)).left

    def to_json(self) -> dict:
        return {"digits": list(self.digits)}


class _UnitEnd:
    """The closed right endpoint 1, which has no expansion of its own.

    It lies above every QRational; ``QRational < UNIT_END`` reaches these
    methods as Python's reflected comparison.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "end"

    def __lt__(self, other):
        return False if isinstance(other, (QRational, _UnitEnd)) else NotImplemented

    def __le__(self, other):
        return other is self if isinstance(other, (QRational, _UnitEnd)) else NotImplemented

    def __gt__(self, other):
        return other is not self if isinstance(other, (QRational, _UnitEnd)) else NotImplemented

    def __ge__(self, other):
        return True if isinstance(other, (QRational, _UnitEnd)) else NotImplemented


UNIT_END = _UnitEnd()

RightEndpoint = Union[QRational, _UnitEnd]


@dataclass(frozen=True)
class Cylinder:
    """A half-open interval [left, left+length) named by its address."""

    address: CylinderAddress
    left: Num
    length: Num

    @property
    def right(self) -> Num:
        return self.left + self.length

    def to_json(self) -> dict:
        doc = {"digits": list(self.address.digits)}
        doc["left"] = rigor.num_to_json(self.left)
        doc["length"] = rigor.num_to_json(self.length)
        return doc


def right_end(addr: CylinderAddress) -> RightEndpoint:
    """Right endpoint of a cylinder, as a point: bump the final digit.

    The empty address gives the unit's right end, which is not a QRational.
    """
    if not addr.digits:
        return UNIT_END
    return QRational.of(addr.digits[:-1] + (addr.digits[-1] + 1,))


def decode(spec: QVectorSpec, addr: CylinderAddress) -> Cylinder:
    """Cylinder of an address, in the spec's value kind.

    left = sum over positions of (product of earlier weights) * head_sum(digit);
    length = product of all the digit weights.
    """
    left, scale = spec.num(0), spec.num(1)
    for d in addr.digits:
        left = left + scale * spec.head_sum(d)
        scale = scale * spec.q(d)
    return Cylinder(address=addr, left=left, length=scale)


def cylinder_length(spec: QVectorSpec, addr: CylinderAddress) -> Num:
    """Product of the digit weights; equals decode(...).length."""
    scale = spec.num(1)
    for d in addr.digits:
        scale = scale * spec.q(d)
    return scale


def _encode_once(spec: QVectorSpec, x: Fraction, depth: int) -> tuple[int, ...]:
    """Digits by certified comparisons at the current working precision.

    Exact specs always decide; on enclosures an undecided comparison raises
    BoundaryAmbiguityError naming the two candidate digits.
    """

    def le_head(pos: int, k: int, cur: Num) -> bool:
        d = rigor.decide_le(spec.head_sum(k), cur)
        if d is None:
            raise BoundaryAmbiguityError(pos + 1, (k - 1, k))
        return d

    digits = []
    cur = spec.num(x)
    for pos in range(depth):
        # the least d whose successor cylinder starts above cur; head_sum
        # climbs to 1 > cur (or a comparison turns undecided), so it ends
        d = rigor.first_true(
            lambda d: not le_head(pos, d + 1, cur), 0, math.inf, CapacityError("no digit")
        )
        digits.append(d)
        cur = (cur - spec.head_sum(d)) / spec.q(d)
    return tuple(digits)


def encode(spec: QVectorSpec, x: Fraction, depth: int, prec: int = rigor.DEFAULT_PREC) -> CylinderAddress:
    """First `depth` digits of the expansion of x.

    x must be an exact rational in [0,1).  In interval mode the digit
    comparisons are certified against enclosures under ``rigor.escalate``
    from ``prec``: an undecidable digit raises BoundaryAmbiguityError, an
    Undecided naming the two candidates, which propagates from the top rung.
    """
    x = Fraction(x)
    if not (0 <= x < 1):
        raise ParameterRangeError(f"encode expects 0 <= x < 1, got {x}")
    if depth <= 0:
        raise ParameterRangeError("encode depth must be positive")
    return rigor.escalate(lambda: CylinderAddress(_encode_once(spec, x, depth)), prec)


def locate_max_cylinder(
    spec: QVectorSpec, a: QRational, b: RightEndpoint
) -> tuple[CylinderAddress, int]:
    """Deepest cylinder containing [a, b), plus a's next digit below it.

    The result depends only on digit order, not on the particular weights:
    [a,b) fits in a child cylinder exactly when b does not pass the child's
    right end, and right ends are themselves finite expansions.  Returns
    (prefix, beta1) where beta1 is a's digit at the prefix's rank; the
    guarantee is that the beta1-child no longer contains [a, b).
    """
    if not a < b:
        raise InvalidIntervalError(f"need a < b, got a={a!r}, b={b!r}")
    prefix: list[int] = []
    pos = 0
    while True:
        d = a.digit_at(pos)
        bump = QRational.of(tuple(prefix) + (d + 1,))
        if b <= bump:
            prefix.append(d)
            pos += 1
        else:
            break
    return CylinderAddress(tuple(prefix)), a.digit_at(len(prefix))
