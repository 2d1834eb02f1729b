"""Coverings of half-open intervals by finite unions of sibling cylinders.

A Block is a run of consecutive same-rank cylinders under one prefix.  The
main entry point, :func:`cover_interval`, covers a half-open interval
``[a, b)`` with finitely many blocks plus explicitly reported residual
intervals, and certifies an alpha-volume bound of the form
``K(alpha, delta) * |E|^(alpha - delta)``.

The tail partition used on each partitioned tail is a greedy tail-halving
scheme over the spec's weights from the tail's first digit on, read
through ``QVectorSpec.tail_sum`` and ``range_sum``: cut where the tail mass
first drops below half the previous target, so the group masses are
dominated by a geometric sequence and the alpha-power series telescopes
against the head group.  The construction certifies the defining
inequality by directed rounding when it picks the head boundary;
``Lemma1Partition.verify`` is a directed re-check of it over the
first groups, run by ``selftest`` and the tests.  Two memos of
256 entries each, :func:`lemma1_partition` and :func:`kappa`, share
partitions and covering constants between covers at one working precision.

All bound checks compare an upper bound of the left-hand side against a
lower bound of the right-hand side; a check that cannot be certified at
the working precision raises Undecided, which ``rigor.escalate`` answers
with the next rung, and which propagates from the top rung rather than
report an unverified certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from mpmath import iv

from . import rigor
from .errors import InvalidIntervalError, ParameterRangeError, Undecided
from .expansion import (
    UNIT_END,
    CylinderAddress,
    QRational,
    RightEndpoint,
    cylinder_length,
    decode,
    locate_max_cylinder,
    right_end,
)
from .qvector import QVectorSpec
from .rigor import Num, ipow, lower, max_num, to_iv, upper, workprec

_SEARCH_CAP = 2**64

MODE_CERTIFIED_RESIDUAL = "certified_residual"
MODE_LAZY_STREAM = "lazy_stream"


@dataclass(frozen=True)
class Block:
    """Union of the consecutive cylinders prefix.i for first <= i <= last."""

    prefix: CylinderAddress
    first: int
    last: int

    def __post_init__(self):
        if self.first < 0 or self.last < self.first:
            raise ParameterRangeError(
                f"block digit range [{self.first}, {self.last}] is empty or negative"
            )

    @property
    def rank(self) -> int:
        return self.prefix.rank + 1

    def to_json(self) -> dict:
        return {"prefix": self.prefix.to_json(), "first": self.first, "last": self.last}

    @classmethod
    def from_json(cls, doc: dict) -> "Block":
        return cls(CylinderAddress.of(doc["prefix"]), int(doc["first"]), int(doc["last"]))


def block_length(spec: QVectorSpec, block: Block) -> Num:
    """Exact or enclosed length of the underlying interval."""
    return cylinder_length(spec, block.prefix) * spec.range_sum(block.first, block.last)


def block_bounds(spec: QVectorSpec, block: Block) -> tuple[Num, Num]:
    """(left endpoint, right endpoint) of the block's interval."""
    base = decode(spec, block.prefix)
    return (
        base.left + base.length * spec.head_sum(block.first),
        base.left + base.length * spec.head_sum(block.last + 1),
    )


def alpha_volume(spec: QVectorSpec, blocks, alpha: Fraction) -> Num:
    """Enclosure of sum |block|^alpha; the upper endpoint is the certified bound."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ParameterRangeError("alpha must lie in (0, 1]")
    total = to_iv(0)
    for blk in blocks:
        total = total + ipow(block_length(spec, blk), alpha)
    return total


# --- the greedy tail partition ----------------------------------------------

class Lemma1Partition:
    """Greedy boundaries n_1 < n_2 < ... with a verified alpha-power certificate.

    The partitioned stream is spec's weights from index ``offset`` on: its
    index i is weight offset + i.  Group 0 is indices [0, n_1]; group m >= 1
    is (n_m, n_{m+1}].  The head boundary is chosen so that

        upper(tail(n_1))^alpha / (1 - 2^-alpha)  <=  (mass of group 0)^alpha

    holds with directed rounding, and later boundaries halve the tail
    target, so sum_{m>=1} (group m mass)^alpha is certified to stay below
    the head group's alpha-power.  Boundaries extend lazily on demand, always
    at the working precision the partition was built at, so they depend on
    (spec, offset, alpha, precision) alone and a partition can be shared.
    """

    def __init__(self, spec: QVectorSpec, offset: int, alpha: Fraction):
        if offset < 0:
            raise ParameterRangeError("partition offset must be nonnegative")
        self.spec = spec
        self.offset = offset
        self.alpha = Fraction(alpha)
        self.prec = iv.prec
        if not 0 < self.alpha <= 1:
            raise ParameterRangeError("alpha must lie in (0, 1]")
        self._half_alpha_factor = 1 - ipow(Fraction(1, 2), self.alpha)
        n1 = rigor.first_true(
            self._head_condition, 0, _SEARCH_CAP,
            Undecided("no head boundary found below the iteration cap"),
        )
        self._bounds: list[int] = [n1]
        # the halving targets are anchored at a fixed rational upper bound
        self.tail_at_head: Fraction = upper(self._tail(n1))

    def _tail(self, n: int) -> Num:
        """Mass of the stream past index n."""
        return self.spec.tail_sum(self.offset + n + 1)

    def _mass(self, i: int, j: int) -> Num:
        """Mass of the stream's indices i..j."""
        return self.spec.range_sum(self.offset + i, self.offset + j)

    # -- searches ------------------------------------------------------

    def _head_condition(self, n: int) -> bool:
        t = self._tail(n)
        head = self._mass(0, n)
        if not lower(head) > 0:
            return False
        lhs = ipow(t, self.alpha) / self._half_alpha_factor
        rhs = ipow(head, self.alpha)
        return upper(lhs) <= lower(rhs)

    def boundary(self, k: int) -> int:
        """n_k for k >= 1."""
        if k < 1:
            raise ParameterRangeError("boundaries are indexed from 1")
        if len(self._bounds) < k:
            with workprec(self.prec):
                while len(self._bounds) < k:
                    m = len(self._bounds)  # computing n_{m+1}
                    target = self.tail_at_head * Fraction(1, 2**m)
                    self._bounds.append(rigor.first_true(
                        lambda n: upper(self._tail(n)) <= target,
                        self._bounds[-1] + 1, _SEARCH_CAP,
                        Undecided("no halving boundary found below the iteration cap"),
                    ))
        return self._bounds[k - 1]

    # -- groups ----------------------------------------------------------

    def group_range(self, m: int) -> tuple[int, int]:
        if m == 0:
            return (0, self.boundary(1))
        return (self.boundary(m) + 1, self.boundary(m + 1))

    def group_mass(self, m: int) -> Num:
        return self._mass(*self.group_range(m))

    def series_alpha_tail(self, emitted: int) -> Fraction:
        """Upper bound on sum_{m > emitted} (group m mass)^alpha."""
        geom = ipow(self.tail_at_head * Fraction(1, 2**emitted), self.alpha)
        return upper(geom / self._half_alpha_factor)

    def verify(self, groups: int = 8) -> bool:
        """Directed re-check of the defining inequality over `groups` groups."""
        acc = to_iv(0)
        for m in range(1, groups + 1):
            acc = acc + ipow(self.group_mass(m), self.alpha)
        total_up = upper(acc) + self.series_alpha_tail(groups)
        head_low = lower(ipow(self.group_mass(0), self.alpha))
        return total_up <= head_low


@rigor.memo(256)
def lemma1_partition(spec: QVectorSpec, offset: int, alpha: Fraction) -> Lemma1Partition:
    """The partition of spec's weights from index ``offset`` on at the working
    precision, shared by every cover that needs it."""
    return Lemma1Partition(spec, offset, alpha)


# --- the covering constant ----------------------------------------------------

@rigor.memo(256)
def kappa(spec: QVectorSpec, alpha: Fraction, delta: Fraction) -> tuple[Num, Num]:
    """Enclosures of W(delta) and K(alpha, delta); upper endpoints are the bounds.

    W(delta) = sup over integer s >= 1 of s * qmax^(delta*s/2), and
    K = 1 + q0^(-alpha) + 2 W / ((1 - qmax^(delta/2)) * qmax^(delta/2)).
    """
    alpha, delta = Fraction(alpha), Fraction(delta)
    if not 0 < delta < alpha < 1:
        raise ParameterRangeError("need 0 < delta < alpha < 1")
    qmax = spec.max_weight()
    c = ipow(qmax, delta / 2)
    if not upper(c) < 1:
        raise Undecided("max weight enclosure too wide to certify q^(delta/2) < 1")
    # s * c^s peaks near -1/ln c and decreases beyond it, so a scan up to
    # just past the peak sees every candidate for the supremum
    peak = -1 / iv.log(to_iv(upper(c)))
    limit = int(upper(peak)) + 2
    best = to_iv(0)
    for s in range(1, limit + 1):
        best = max_num(best, s * ipow(qmax, delta * s / 2))
    w = best
    k = 1 + ipow(spec.q(0), -alpha) + 2 * w / ((1 - c) * c)
    return w, k


# --- certificates --------------------------------------------------------------

@dataclass(frozen=True)
class CoverParams:
    alpha: Fraction
    delta: Fraction
    eps_res: Fraction = Fraction(1, 10**6)
    mode: str = MODE_CERTIFIED_RESIDUAL

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "eps_res", Fraction(self.eps_res))
        if not 0 < self.delta < self.alpha < 1:
            raise ParameterRangeError("need 0 < delta < alpha < 1")
        if self.eps_res <= 0:
            raise ParameterRangeError("residual budget must be positive")
        if self.mode not in (MODE_CERTIFIED_RESIDUAL, MODE_LAZY_STREAM):
            raise ParameterRangeError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class CoverCertificate:
    """Finite covering with a certified alpha-volume bound.

    ``alpha_volume_upper`` is a rational upper bound on
    sum |block|^alpha + sum |residual|^alpha and ``bound_rhs`` is a rational
    lower bound on K(alpha, delta) * |E|^(alpha - delta), so the recorded
    inequality alpha_volume_upper <= bound_rhs is certified as stated.

    ``residuals`` are outer rational bounds of the uncovered-by-blocks
    leftovers.  In lazy mode they are empty: ``stream`` yields the finite
    blocks and then the groups of the partitioned tails in turn, without
    end if there is such a tail, and alpha_volume_upper accounts for the
    whole covering.  A cover with no partitioned tail has a finite stream,
    and a single-cylinder interval has none.
    ``rank_heads`` records, per partitioned tail, the rank offset and the
    head block of its partition, before any merging.
    """

    input_interval: tuple[QRational, RightEndpoint]
    params: CoverParams
    blocks: tuple[Block, ...]
    residuals: tuple[tuple[Fraction, Fraction], ...]
    alpha_volume_upper: Fraction
    bound_rhs: Fraction
    kappa_upper: Fraction
    interval_length: tuple[Fraction, Fraction]
    right_part_volume_upper: Optional[Fraction] = None
    j1_length_upper: Optional[Fraction] = None
    rank_heads: tuple[tuple[int, Block], ...] = ()
    stream: Optional[Iterator[Block]] = field(default=None, compare=False)

    def residual_total_upper(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.residuals), Fraction(0))

    def to_json(self) -> dict:
        a, b = self.input_interval
        return {
            "interval": {
                "a": a.to_json(),
                "b": "end" if b is UNIT_END else b.to_json(),
            },
            "params": {
                "alpha": rigor.frac_str(self.params.alpha),
                "delta": rigor.frac_str(self.params.delta),
                "eps_res": rigor.frac_str(self.params.eps_res),
                "mode": self.params.mode,
            },
            "blocks": [blk.to_json() for blk in self.blocks],
            "residuals": [
                {"lo": rigor.frac_str(lo), "hi": rigor.frac_str(hi)}
                for lo, hi in self.residuals
            ],
            "alpha_volume_upper": rigor.frac_str(self.alpha_volume_upper),
            "alpha_volume_upper_approx": float(self.alpha_volume_upper),
            "bound_rhs": rigor.frac_str(self.bound_rhs),
            "bound_rhs_approx": float(self.bound_rhs),
            "kappa_upper_approx": float(self.kappa_upper),
            "interval_length": [rigor.frac_str(x) for x in self.interval_length],
        }


def _point_value(spec: QVectorSpec, x: RightEndpoint) -> Num:
    if x is UNIT_END:
        return Fraction(1)
    return x.value(spec)


def _left_point(addr: CylinderAddress) -> QRational:
    return QRational.of(addr.digits)


@dataclass
class _TailJob:
    rank_offset: int  # k in the construction; 0 marks the right-part tail
    prefix: CylinderAddress
    part: Lemma1Partition  # its offset is the tail's first digit under prefix

    def block(self, m: int) -> Block:
        """The block of group m of this tail's partition."""
        i, j = self.part.group_range(m)
        return Block(self.prefix, self.part.offset + i, self.part.offset + j)


def _emit_tail_blocks(
    spec: QVectorSpec, job: _TailJob, budget: Fraction
) -> tuple[list[Block], list[tuple[Fraction, Fraction]]]:
    """Blocks for one partitioned tail until the leftover fits the budget.

    The leftover [left(prefix.next digit), right(prefix)) comes back as
    outer rational bounds, in a list of zero or one pairs.  Left points
    extend one decode of the prefix by the last step of ``decode``'s loop,
    so each has the bits of a full decode of ``prefix.child(start)``.
    """
    right = upper(_point_value(spec, right_end(job.prefix)))
    cyl = decode(spec, job.prefix)
    blocks: list[Block] = []
    while True:
        m = len(blocks)
        start = job.part.offset + (job.part.boundary(m) + 1 if m else 0)
        left = lower(cyl.left + cyl.length * spec.head_sum(start))
        if right - left <= budget:
            return blocks, [(left, right)] if right > left else []
        blocks.append(job.block(m))


def _merge_adjacent(blocks: list[Block]) -> list[Block]:
    """Merge geometrically ordered neighbors with one prefix into one block."""
    merged: list[Block] = []
    for blk in blocks:
        if merged and merged[-1].prefix == blk.prefix and merged[-1].last + 1 == blk.first:
            merged[-1] = Block(blk.prefix, merged[-1].first, blk.last)
        else:
            merged.append(blk)
    return merged


def _cover_once(
    spec: QVectorSpec, a: QRational, b: RightEndpoint, params: CoverParams
) -> CoverCertificate:
    prefix, beta1 = locate_max_cylinder(spec, a, b)
    n = prefix.rank
    alpha = params.alpha

    e_val = _point_value(spec, b) - _point_value(spec, a)
    _, k_enc = kappa(spec, alpha, params.delta)
    rhs = k_enc * ipow(e_val, alpha - params.delta)

    def certificate(blocks, residuals, vol, **extra) -> CoverCertificate:
        vol_up = upper(vol)
        rhs_low = lower(rhs)
        if vol_up > rhs_low:
            raise Undecided("could not certify the covering volume bound on the precision ladder")
        return CoverCertificate(
            input_interval=(a, b),
            params=params,
            blocks=tuple(blocks),
            residuals=tuple(residuals),
            alpha_volume_upper=vol_up,
            bound_rhs=rhs_low,
            kappa_upper=upper(k_enc),
            interval_length=(lower(e_val), upper(e_val)),
            **extra,
        )

    # E equal to one cylinder collapses to a single block of its parent
    if n >= 1 and _left_point(prefix) == a and right_end(prefix) == b:
        blk = Block(CylinderAddress(prefix.digits[:-1]), prefix.digits[-1], prefix.digits[-1])
        return certificate([blk], [], alpha_volume(spec, [blk], alpha))

    beta = a.digits[n:] if len(a.digits) > n else (0,)
    ell = len(beta)

    # finite blocks by rank offset: 0 is the right-part tail, 1 holds a's
    # own cylinder when a ends one rank below the located one, and k >= 2
    # is the left part's rank-k tail
    by_rank: dict[int, list[Block]] = {}
    right_blocks: list[Block] = []
    jobs: list[_TailJob] = []
    j1_block: Optional[Block] = None

    if right_end(prefix) == b:
        # b closes the located cylinder, so the right part is a full tail
        jobs.append(_TailJob(0, prefix, lemma1_partition(spec, beta1 + 1, alpha)))
    else:
        # b is a QRational: UNIT_END gets the empty prefix, whose right end is UNIT_END
        e_digit = b.digit_at(n)
        if e_digit - 1 >= beta1 + 1:
            right_blocks.append(Block(prefix, beta1 + 1, e_digit - 1))
        below = b.digits[n + 1 :]
        if below:
            # b lies inside prefix.e_digit: take the cylinder past b's zeros
            zeros = next(i for i, d in enumerate(below) if d)
            addr = prefix.digits + (e_digit,) + (0,) * zeros
            j1_block = Block(CylinderAddress(addr[:-1]), addr[-1], addr[-1])
            right_blocks.append(j1_block)

    if ell == 1:
        by_rank[1] = [Block(prefix, beta1, beta1)]
    for k in range(2, ell + 1):
        sub = CylinderAddress(prefix.digits + beta[: k - 1])
        start = beta[k - 1] if k == ell else beta[k - 1] + 1
        jobs.append(_TailJob(k, sub, lemma1_partition(spec, start, alpha)))

    lazy = params.mode == MODE_LAZY_STREAM
    budget = params.eps_res / ell

    residuals: list[tuple[Fraction, Fraction]] = []
    rank_heads: list[tuple[int, Block]] = []
    vol = to_iv(0)
    right_vol = to_iv(0)
    for blk in right_blocks:
        right_vol = right_vol + ipow(block_length(spec, blk), alpha)

    for job in jobs:
        head = job.block(0)
        rank_heads.append((job.rank_offset, head))
        if lazy:
            # whole-partition bound: head alpha-power plus the certified series
            head_pow = ipow(block_length(spec, head), alpha)
            series = ipow(cylinder_length(spec, job.prefix), alpha) * to_iv(job.part.series_alpha_tail(0))
            vol = vol + head_pow + series
            if job.rank_offset == 0:
                right_vol = right_vol + head_pow + series
            continue
        blocks, leftover = _emit_tail_blocks(spec, job, budget)
        by_rank[job.rank_offset] = blocks
        residuals += leftover
        if job.rank_offset == 0:
            for blk in blocks:
                right_vol = right_vol + ipow(block_length(spec, blk), alpha)
            for lo, hi in leftover:
                right_vol = right_vol + ipow(hi - lo, alpha)

    # geometric order: deepest left tail first, then up the ranks, then right
    ordered = [blk for k in range(ell, 0, -1) for blk in by_rank.get(k, ())]
    finite_blocks = _merge_adjacent(ordered + right_blocks + by_rank.get(0, []))
    vol = vol + alpha_volume(spec, finite_blocks, alpha)
    for lo, hi in residuals:
        vol = vol + ipow(hi - lo, alpha)

    return certificate(
        finite_blocks,
        residuals,
        vol,
        right_part_volume_upper=upper(right_vol),
        j1_length_upper=None if j1_block is None else upper(block_length(spec, j1_block)),
        rank_heads=tuple(rank_heads),
        stream=_lazy_blocks(finite_blocks, jobs) if lazy else None,
    )


def _lazy_blocks(prelude: list[Block], jobs: list[_TailJob]) -> Iterator[Block]:
    yield from prelude
    # with no partitioned tail the stream ends after the prelude
    m = 0
    while jobs:
        for job in jobs:
            yield job.block(m)
        m += 1


def cover_interval(
    spec: QVectorSpec,
    a: QRational,
    b: RightEndpoint,
    params: CoverParams,
    prec: int = rigor.DEFAULT_PREC,
) -> CoverCertificate:
    """Cover [a, b) by blocks (plus residuals) with a certified volume bound.

    The construction follows the located maximal cylinder: the part of E
    right of the first full sibling is covered by at most one run of
    siblings and one deeper cylinder (or a partitioned tail when b closes
    the located cylinder), and the left part peels one rank per nonzero
    digit of a, partitioning each rank's tail greedily.

    The construction runs under ``rigor.escalate`` from ``prec``: an
    Undecided (a volume bound that does not separate, a boundary search
    that hits its cap, or an enclosure too wide) moves to the next rung and
    propagates from the top one.  Any other CapacityError propagates at once.
    """
    if not isinstance(a, QRational):
        raise InvalidIntervalError("left endpoint must be a digit-string rational")
    if b is not UNIT_END and not isinstance(b, QRational):
        raise InvalidIntervalError("right endpoint must be a digit-string rational or the unit end")
    return rigor.escalate(lambda: _cover_once(spec, a, b, params), prec)
