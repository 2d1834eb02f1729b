"""Weight sequences: positive q_0, q_1, ... summing to one.

Four families are built in.  Geometric and Luroth have exact rational
closed forms for every partial and tail sum, so they run in exact mode.
The power-law family is normalized by a zeta value and therefore always
runs on enclosures.  Custom finite lists are padded with a geometric tail
(mass carved out of the last user entry) so the alphabet stays infinite.

Each spec owns its value kind: every weight, head, tail and range sum it
returns is a ``Fraction`` when :attr:`QVectorSpec.is_exact` and an
``mpmath.iv`` interval otherwise, so callers combine them with plain
operators.  Power sums are enclosures either way; see ``rigor`` for the
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from typing import Iterator, Optional

from mpmath import iv, libmp

from . import rigor
from .errors import CapacityError, ParameterRangeError
from .rigor import Num, ipow, max_num, powsum, to_iv

_LUR_DIRECT = 600
# Weight powers are memoized in aligned blocks of _POWER_BLOCK indices; the
# _POWER_BLOCKS blocks hold the indices of one check-condition row up to
# M_max = 4095, or of the Cantor linear scan, and consecutive rows share
# almost all of their blocks.
_POWER_BLOCK = 32
_POWER_BLOCKS = 128
# Twice the distinct tail sums (about 450) or power sums (about 530) of one
# README pipeline, most of them from the depth-3 Cantor build: a memo smaller
# than a pass that repeats its keys in the same order would get no hits.
_SUM_MEMO = 1024


@rigor.memo(64)
def _normalizer(m0: Fraction) -> "iv.mpf":
    """The power-law normalizer 1/zeta(m0) as an enclosure."""
    return 1 / powsum(m0, Fraction(0), 1, None)


@dataclass(frozen=True)
class QVectorSpec:
    """One weight sequence, immutable; all queries are pure.

    Use the factory constructors: :meth:`geometric`, :meth:`luroth`,
    :meth:`powerlaw`, :meth:`custom`.
    """

    family: str
    ratio: Optional[Fraction] = None
    m0: Optional[Fraction] = None
    weights: Optional[tuple[Fraction, ...]] = None
    pad_mass: Optional[Fraction] = None

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, taken once: a memo lookup would
        otherwise rehash every custom weight."""
        return hash((self.family, self.ratio, self.m0, self.weights, self.pad_mass))

    # -- construction -------------------------------------------------

    @classmethod
    def geometric(cls, ratio: Fraction) -> "QVectorSpec":
        ratio = Fraction(ratio)
        if not (0 < ratio < 1):
            raise ParameterRangeError(f"geometric ratio must be in (0,1), got {ratio}")
        return cls(family="geometric", ratio=ratio)

    @classmethod
    def luroth(cls) -> "QVectorSpec":
        return cls(family="luroth")

    @classmethod
    def powerlaw(cls, m0) -> "QVectorSpec":
        m0 = Fraction(m0) if not isinstance(m0, float) else Fraction(str(m0))
        if m0 <= 1:
            raise ParameterRangeError(f"power-law exponent must exceed 1, got {m0}")
        return cls(family="powerlaw", m0=m0)

    @classmethod
    def custom(cls, weights, pad_mass=Fraction(1, 2**20)) -> "QVectorSpec":
        ws = tuple(Fraction(w) for w in weights)
        pad = Fraction(pad_mass)
        if not ws:
            raise ParameterRangeError("custom weights must be nonempty")
        if any(w <= 0 for w in ws):
            raise ParameterRangeError("custom weights must be positive")
        if sum(ws) != 1:
            raise ParameterRangeError(f"custom weights must sum to 1, got {sum(ws)}")
        if not (0 < pad < ws[-1]):
            raise ParameterRangeError("pad mass must be positive and below the last weight")
        return cls(family="custom", weights=ws, pad_mass=pad)

    # -- basics --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.family != "powerlaw"

    def num(self, x) -> Num:
        """Lift an exact constant (int or Fraction) to this spec's value kind."""
        return Fraction(x) if self.is_exact else to_iv(x)

    @cached_property
    def _effective_weights(self) -> tuple[Fraction, ...]:
        """Custom family: the user weights, pad mass carved out of the last."""
        return self.weights[:-1] + (self.weights[-1] - self.pad_mass,)

    @cached_property
    def _custom_tails(self) -> tuple[Fraction, ...]:
        """Custom family: entry n is sum(eff[n:]) + pad_mass for n <= len(weights)."""
        return tuple(accumulate(reversed(self._effective_weights), initial=self.pad_mass))[::-1]

    # -- the four point queries ---------------------------------------

    def q(self, i: int) -> Num:
        """Weight q_i.  Every index i >= 0 is valid."""
        if i < 0:
            raise ParameterRangeError("weight index must be nonnegative")
        if self.family == "geometric":
            return self.ratio * (1 - self.ratio) ** i
        if self.family == "luroth":
            return Fraction(1, (i + 1) * (i + 2))
        if self.family == "powerlaw":
            return _normalizer(self.m0) * ipow(i + 1, -self.m0)
        eff = self._effective_weights
        k = len(eff)
        if i < k:
            return eff[i]
        return self.pad_mass * Fraction(1, 2 ** (i - k + 1))

    @rigor.memo(_POWER_BLOCKS)
    def weight_power_block(self, j: int, s: Fraction) -> tuple:
        """(powers, heads, tails) for the 32 indices 32j <= i < 32(j+1):
        powers holds the raw enclosures (``_mpi_``) of q_i^s, each the bits
        of ``ipow(self.q(i), s)``; heads[n] and tails[n], raw mpfs, are at
        least the sums of the upper ends of powers[:n] and powers[n:], added
        rounding up from the block edge they start at.  heads[32] is the
        block's total in index order.

        Memoized per (spec, j, s, precision) in a least-recently-used memo of
        128 blocks, 4096 indices; a scan over more indices gets no hits.
        """
        start = j * _POWER_BLOCK
        powers = tuple(ipow(self.q(i), s)._mpi_ for i in range(start, start + _POWER_BLOCK))
        add, ups = rigor.upper_adder(), [p[1] for p in powers]
        heads = tuple(accumulate(ups, add, initial=libmp.fzero))
        tails = tuple(accumulate(reversed(ups), add, initial=libmp.fzero))[::-1]
        return powers, heads, tails

    def _power_blocks(self, s: Fraction, a: int, b: int) -> Iterator[tuple]:
        """(block, lo, hi) for each block of :meth:`weight_power_block` that
        meets a <= i <= b, in order, with indices lo <= n < hi of the block
        inside the range; no block when b < a."""
        if b < a:
            return
        for j in range(a // _POWER_BLOCK, b // _POWER_BLOCK + 1):
            start = j * _POWER_BLOCK
            yield self.weight_power_block(j, s), max(a - start, 0), min(b - start + 1, _POWER_BLOCK)

    def raw_weight_powers(self, s: Fraction, a: int, b: int) -> Iterator[tuple]:
        """Raw enclosures of q_i^s for a <= i <= b in order, one block lookup
        per 32 indices (none when b < a)."""
        for (powers, _, _), lo, hi in self._power_blocks(s, a, b):
            yield from powers[lo:hi]

    def raw_power_top(self, s: Fraction, a: int, b: int) -> tuple:
        """A raw mpf at least the sum of the upper ends of q_i^s for
        a <= i <= b (0 when b < a), added rounding up: the part of the range
        in a block reads one of the block's totals when it reaches an edge
        of the block, and adds its upper ends one by one when it lies
        strictly inside.  Its bits are a bound's, not those of an
        index-order sum."""
        add, total = rigor.upper_adder(), libmp.fzero
        for (powers, heads, tails), lo, hi in self._power_blocks(s, a, b):
            if lo == 0:
                total = add(total, heads[hi])
            elif hi == _POWER_BLOCK:
                total = add(total, tails[lo])
            else:
                total = reduce(add, (p[1] for p in powers[lo:hi]), total)
        return total

    def weights_nonincreasing_from(self, k: int) -> bool:
        """Whether q_k >= q_{k+1} >= ... is known without a scan: always for
        the geometric, Lüroth and power-law families, and past the user
        entries for a custom list, whose geometric pad halves each step."""
        return self.family != "custom" or k >= len(self.weights)

    def head_sum(self, n: int) -> Num:
        """sum_{i<n} q_i; zero at n=0, monotone in n."""
        if n < 0:
            raise ParameterRangeError("head_sum index must be nonnegative")
        if n == 0:
            return self.num(0)
        if self.family == "geometric":
            return 1 - (1 - self.ratio) ** n
        if self.family == "luroth":
            return Fraction(n, n + 1)
        if self.family == "powerlaw":
            return _normalizer(self.m0) * powsum(self.m0, Fraction(0), 1, n)
        return 1 - self.tail_sum(n)

    @rigor.memo(_SUM_MEMO)
    def tail_sum(self, n: int) -> Num:
        """sum_{i>=n} q_i, strictly decreasing to zero.

        Memoized per (spec, n, precision) in a least-recently-used memo of
        1024 entries, so a process that repeats a tail gets the bits it
        computed before.
        """
        if n < 0:
            raise ParameterRangeError("tail_sum index must be nonnegative")
        if self.family == "geometric":
            return (1 - self.ratio) ** n
        if self.family == "luroth":
            return Fraction(1, n + 1)
        if self.family == "powerlaw":
            return _normalizer(self.m0) * powsum(self.m0, Fraction(0), n + 1, None)
        k = len(self.weights)
        if n >= k:
            return self.pad_mass * Fraction(1, 2 ** (n - k))
        return self._custom_tails[n]

    def range_sum(self, a: int, b: int) -> Num:
        """sum_{i=a}^{b} q_i (empty when b < a)."""
        if b < a:
            return self.num(0)
        if self.is_exact:
            return self.head_sum(b + 1) - self.head_sum(a)
        return _normalizer(self.m0) * powsum(self.m0, Fraction(0), a + 1, b + 1)

    def max_weight(self) -> Num:
        """The largest weight: the maximum of q_0, ..., q_k, where k is the
        first index of :meth:`weights_nonincreasing_from`."""
        k = len(self.weights) if self.family == "custom" else 0
        return reduce(max_num, (self.q(i) for i in range(k + 1)))

    # -- power sums ----------------------------------------------------

    def power_tail_converges(self, s: Fraction) -> bool:
        """Whether sum_i q_i^s is finite (decided exactly per family)."""
        if s <= 0:
            raise ParameterRangeError("power exponent must be positive")
        if self.family == "luroth":
            return 2 * s > 1
        if self.family == "powerlaw":
            return self.m0 * s > 1
        return True

    @rigor.memo(_SUM_MEMO)
    def power_sum(self, s: Fraction, a: int, b: Optional[int] = None) -> Num:
        """Enclosure of sum_{i=a}^{b} q_i^s (b=None for the infinite tail).

        Raises CapacityError on a certified-divergent infinite tail; call
        :meth:`power_tail_converges` first when divergence is expected.
        Memoized like :meth:`tail_sum`, per (spec, s, a, b, precision) as
        passed, so ``b=`` by keyword is keyed apart from ``b`` by position.
        """
        s = Fraction(s)
        if s <= 0:
            raise ParameterRangeError("power exponent must be positive")
        if b is not None and b < a:
            return to_iv(0)
        if b is None and not self.power_tail_converges(s):
            raise CapacityError(f"divergent power sum at exponent {s} for {self.family}")
        if self.family == "geometric":
            u = ipow(1 - self.ratio, s)
            first = ipow(1 - self.ratio, s * a)
            if b is None:
                series = first / (1 - u)
            else:
                series = (first - ipow(1 - self.ratio, s * (b + 1))) / (1 - u)
            return ipow(self.ratio, s) * series
        if self.family == "luroth":
            if b is not None and b - a + 1 <= _LUR_DIRECT:
                return rigor.raw_total(self.raw_weight_powers(s, a, b))
            # exact head, then squeeze (i+1)(i+2) between (i+3/2)^2 (1 - z)
            # and (i+3/2)^2; pushing the squeeze start out keeps it sharp
            head = self.power_sum(s, a, a + _LUR_DIRECT - 1)
            start = a + _LUR_DIRECT
            base = powsum(2 * s, Fraction(3, 2), start, b)
            z = Fraction(1, (2 * start + 3) ** 2)
            return head + rigor.hull(base, base * ipow(1 - z, -s))
        if self.family == "powerlaw":
            c = _normalizer(self.m0)
            bb = None if b is None else b + 1
            return ipow(c, s) * powsum(self.m0 * s, Fraction(0), a + 1, bb)
        k = len(self.weights)
        total = rigor.raw_total(self.raw_weight_powers(s, a, min(k - 1, k if b is None else b)))
        pad_from = max(a, k)
        if b is None or b >= k:
            u = ipow(Fraction(1, 2), s)
            first = ipow(self.pad_mass * Fraction(1, 2 ** (pad_from - k + 1)), s)
            if b is None:
                total = total + first / (1 - u)
            else:
                tail_len = b - pad_from + 1
                total = total + first * (1 - ipow(u, tail_len)) / (1 - u)
        return total

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if self.family == "geometric":
            return {"family": "geometric", "ratio": rigor.frac_str(self.ratio)}
        if self.family == "luroth":
            return {"family": "luroth"}
        if self.family == "powerlaw":
            return {"family": "powerlaw", "m0": rigor.frac_str(self.m0)}
        return {
            "family": "custom",
            "weights": [rigor.frac_str(w) for w in self.weights],
            "pad_mass": rigor.frac_str(self.pad_mass),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QVectorSpec":
        if not isinstance(doc, dict):
            raise ParameterRangeError(f"q-vector config must be a JSON object, got {type(doc).__name__}")

        def frac(x) -> Fraction:
            # a JSON number is read by its decimal text, so 0.1 is 1/10
            if type(x) not in (str, int, float):
                raise ParameterRangeError(f"q-vector fields must be numbers or strings, got {x!r}")
            return rigor.parse_frac(str(x))

        fam = doc.get("family")
        if fam == "geometric":
            return cls.geometric(frac(doc["ratio"]))
        if fam == "luroth":
            return cls.luroth()
        if fam == "powerlaw":
            return cls.powerlaw(frac(doc["m0"]))
        if fam == "custom":
            if not isinstance(doc["weights"], list):
                raise ParameterRangeError(f"custom weights must be a list, got {doc['weights']!r}")
            pad = [frac(doc["pad_mass"])] if "pad_mass" in doc else []
            return cls.custom([frac(w) for w in doc["weights"]], *pad)
        raise ParameterRangeError(f"unknown q-vector family: {fam!r}")
