"""Region checks for the tail inequality (sum q_i)^(alpha-delta) >= sum q_i^alpha.

The check scans digit windows [n, n+M] with n in (N, n_max] and
M in (N, M_max], plus the M -> infinity cell via tail brackets.  Outcomes
are deliberately three-valued: a certified counterexample is decisive, a
certified hold only covers the scanned region, and anything the enclosures
cannot separate on the top rung of ``rigor.escalate`` stays inconclusive.

Window mass and sum q_i^alpha both grow with M, so the left side at a
span's first cell and a bound on the right side at its last bound every
cell of the span.  One walk, :func:`row_cells`, serves every window scan:
it gallops over spans of a row that this bound closes against its
caller's floor, the running row minimum for ``_check_row`` and 0 for the
Cantor window search, and halves the spans it cannot close down to the
cells it yields.

A window with a divergent power tail is never an error: partial sums of
the right side certifiably overtake the bounded left side, which is a
violation witness in the limit cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, Optional

from mpmath import iv, libmp, mp

from . import rigor
from .errors import CapacityError, ParameterRangeError, Undecided
from .qvector import QVectorSpec
from .rigor import Num, ipow, lower, upper, workprec

HOLDS = "holds_on_region"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

CONDITION_PREC = 64
_DIVERGENT_DOUBLING_CAP = 2**40


@dataclass(frozen=True)
class ConditionQuery:
    alpha: Fraction
    delta: Fraction
    N: int
    n_max: int
    M_max: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.delta < self.alpha < 1:
            raise ParameterRangeError("need 0 < delta < alpha < 1")
        if self.N < 0:
            raise ParameterRangeError("threshold N must be nonnegative")
        if self.n_max <= self.N:
            raise ParameterRangeError("n_max must exceed N: the region would hold no row")
        if self.M_max < self.N:
            raise ParameterRangeError("M_max must be at least N")


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a region check.

    For HOLDS, ``margins`` lists one conservative lower bound per scanned n:
    the least certified gap lower(LHS) - upper(RHS) over that row's cells.
    For VIOLATED, ``witness`` is (n, M) with M = None meaning the limit
    cell, and lhs_upper < rhs_lower is the certified strict comparison.
    """

    outcome: str
    margins: tuple[tuple[int, Fraction], ...] = ()
    witness: Optional[tuple[int, Optional[int]]] = None
    lhs_upper: Optional[Fraction] = None
    rhs_lower: Optional[Fraction] = None
    reason: Optional[str] = None
    precision_bits: int = 0
    reverified_bits: Optional[int] = None

    def min_margin(self) -> Optional[Fraction]:
        if not self.margins:
            return None
        return min(m for _, m in self.margins)

    def to_json(self) -> dict:
        doc: dict = {"outcome": self.outcome, "precision_bits": self.precision_bits}
        if self.outcome == HOLDS:
            doc["margins"] = [
                {"n": n, "margin_lower": rigor.frac_str(m), "margin_approx": float(m)}
                for n, m in self.margins
            ]
            mm = self.min_margin()
            doc["min_margin"] = None if mm is None else float(mm)
        elif self.outcome == VIOLATED:
            n, m = self.witness
            doc["witness"] = {"n": n, "M": "inf" if m is None else m}
            doc["lhs_upper"] = rigor.frac_str(self.lhs_upper)
            doc["rhs_lower"] = rigor.frac_str(self.rhs_lower)
            doc["lhs_approx"] = float(self.lhs_upper)
            doc["rhs_approx"] = float(self.rhs_lower)
            doc["reverified_bits"] = self.reverified_bits
        else:
            doc["reason"] = self.reason
        return doc


@dataclass(frozen=True)
class _Violation(Exception):
    n: int
    M: Optional[int]
    lhs_upper: Fraction
    rhs_lower: Fraction


def _lhs(spec: QVectorSpec, n: int, M: Optional[int], expo: Fraction) -> Num:
    mass = spec.tail_sum(n) if M is None else spec.range_sum(n, n + M)
    return ipow(mass, expo)


def _cell(
    spec: QVectorSpec, n: int, M: Optional[int], alpha: Fraction, expo: Fraction, start: int
) -> tuple[Num, Num]:
    """(lhs, rhs) of cell (n, M), M = None meaning the limit cell.

    On a divergent power tail, the limit cell's rhs is the first partial
    sum over [n, n+m], m doubling from max(start, 1), whose lower end passes
    upper(lhs): the whole tail exceeds it, so the cell certifies a violation.
    """
    lhs = _lhs(spec, n, M, expo)
    if M is not None or spec.power_tail_converges(alpha):
        return lhs, spec.power_sum(alpha, n, None if M is None else n + M)
    lhs_up = upper(lhs)
    m = max(start, 1)
    while m <= _DIVERGENT_DOUBLING_CAP:
        partial = spec.power_sum(alpha, n, n + m)
        if lower(partial) > lhs_up:
            return lhs, partial
        m *= 2
    raise CapacityError("divergent power tail failed to overtake the left side")


class _Running:
    """A running sum of raw enclosures, drawn from ``sums`` (its value at
    index ``first`` first) only as far as the index asked, so never past it."""

    def __init__(self, sums: Iterator[tuple], first: int):
        self.sums, self.index, self.value = sums, first - 1, None

    def at(self, M: int) -> tuple:
        if M > self.index:
            self.value, self.index = next(islice(self.sums, M - self.index - 1, None)), M
        return self.value


def _rhs_bound(top: tuple, adds: int, prec: int) -> tuple:
    """A raw mpf at least upper(rhs) of a running sum made by ``adds``
    additions rounded up at ``prec`` bits, whose first value's upper end and
    added terms' upper ends sum to at most ``top``.  Each add multiplies the
    error by at most 1 + 2^(1-p) at p bits, and (1 + u)^c <= 1/(1 - c u), so
    the bound is top / (1 - adds 2^(1-p)) rounded up; +inf once
    adds 2^(1-p) >= 1/2."""
    if adds >= 2 ** (prec - 2):
        return libmp.finf
    den = libmp.mpf_sub(libmp.fone, libmp.from_man_exp(adds, 1 - prec), 0)
    return libmp.mpf_div(top, den, prec, libmp.round_ceiling)


def row_cells(
    spec: QVectorSpec, k: int, alpha: Fraction, expo: Fraction, m_min: int, m_max: int,
    floor: Callable,
) -> Iterator[tuple[int, Num, Num]]:
    """Cells (M, lhs, rhs) of the windows [k, k+M], m_min <= M <= m_max, in
    M order: lhs encloses (sum q_i)^expo and rhs sum q_i^alpha.

    The walk covers the row left to right with spans [a, b] of cells.  A
    span is closed when lower(lhs(a)) - U(b) >= ``floor()``, read afresh
    for each span, where U(b) (:func:`_rhs_bound` of the weight powers'
    upper ends, an aligned block read as the top that
    ``QVectorSpec.weight_power_block`` keeps with its powers) is at least
    upper(rhs) of every cell M <= b.  Span lengths double while spans close;
    a span that does not close is halved, its left half tried first, and a
    one-cell span that does not close is yielded.  Both sides grow with M,
    so lower(lhs(a)) - U(b) is at most every gap in the span while the
    computed lower(lhs) does not decrease in M (tests check it).  So a closed
    span holds no gap below the floor, and at floor 0 no violated or
    undecided cell.

    The running sums (``rigor.adder``, the terms and order of a scan of
    every cell, so the same bits) advance only as far as a yielded cell, or
    on an enclosure spec a span start whose mass is read; an exact spec's
    window mass is its exact ``range_sum``.  A row keeps O(1) state.  The
    working precision is read once, where the adders are built, and U(b)
    is taken at that precision.
    """
    prec = iv.prec  # the adders' precision, so also the bound's
    add, add_up = rigor.adder(), rigor.upper_adder()
    head = spec.power_sum(alpha, k, k + m_min)._mpi_
    rhs = _Running(accumulate(spec.raw_weight_powers(alpha, k + m_min + 1, k + m_max), add,
                              initial=head), m_min)
    mass = None if spec.is_exact else _Running(accumulate(
        (spec.q(i)._mpi_ for i in range(k + m_min + 1, k + m_max + 1)), add,
        initial=spec.range_sum(k, k + m_min)._mpi_), m_min)
    # top bounds upper(head) plus the powers' upper ends through cell top_at
    top, top_at = head[1], m_min
    a, length, lhs = m_min, 1, None
    while a <= m_max:
        b = min(a + length - 1, m_max)
        if lhs is None:
            lhs = ipow(spec.range_sum(k, k + a) if mass is None else iv.make_mpf(mass.at(a)), expo)
        top_b = add_up(top, spec.raw_power_top(alpha, k + top_at + 1, k + b))
        bound = libmp.mpf_sub(lhs._mpi_[0], _rhs_bound(top_b, b - m_min, prec), 0)
        closed = mp.make_mpf(bound) >= floor()
        if closed or a == b:
            if not closed:
                yield a, lhs, iv.make_mpf(rhs.at(a))
            top, top_at, a, lhs = top_b, b, b + 1, None
            length = 2 * length if closed else 1
        else:
            length = (b - a + 1) // 2


def window_fast_margin(
    spec: QVectorSpec, k: int, alpha: Fraction, expo: Fraction, m_min: int
) -> Optional[Fraction]:
    """Margin certified for every window [k, k+M] with M >= m_min at once.

    Both sides grow with M, so lower(lhs at m_min) - upper(rhs of the whole
    tail), when nonnegative, bounds every such cell's margin, the limit cell
    included.  None when that gap is negative or the power tail diverges.
    The tail is read as ``power_sum(alpha, k, None)``, the key the limit
    cell of :func:`_cell` reads, so a row's two reads share one memo entry.
    """
    if not spec.power_tail_converges(alpha):
        return None
    margin = rigor.gap(_lhs(spec, k, m_min, expo), spec.power_sum(alpha, k, None))
    return rigor.frac_of_mpf(margin) if margin >= 0 else None


def _check_row(spec: QVectorSpec, query: ConditionQuery, n: int) -> Optional[Fraction]:
    """Certified min margin for row n, None if some cell stays undecided.

    Raises _Violation on the first certified counterexample cell, scanning
    M upward and ending with the limit cell.

    The finite cells come from :func:`row_cells` with the floor min(least
    gap seen, cap), where cap is the limit cell's gap if that is >= 0 and
    else 0 (a divergent limit cell always violates), and the floor is cap
    while no gap is seen.  The limit cell is always visited, so a closed
    span, whose bound is at least that floor, holds no gap below the final
    row minimum, and at a floor >= 0 no violated or undecided cell; the
    first violation and the margin are those a scan of every cell finds.  A
    convergent row's fast margin and limit cell read its power tail under
    one ``power_sum`` memo key, so it is summed once; a divergent limit cell
    is built only after the finite cells.
    """
    alpha, expo = query.alpha, query.alpha - query.delta
    m_min = query.N + 1
    limit = None
    if spec.power_tail_converges(alpha):
        fast_margin = window_fast_margin(spec, n, alpha, expo, m_min)
        if fast_margin is not None:
            return fast_margin
        limit = _cell(spec, n, None, alpha, expo, query.M_max)

    # cells compare and subtract on exact mpf endpoints; the row minimum
    # becomes a Fraction once, and a violation's bounds only when it is found
    margin = None
    undecided = False

    def visit(M: Optional[int], lhs: Num, rhs: Num) -> None:
        nonlocal margin, undecided
        if rigor.decide_lt(lhs, rhs):
            raise _Violation(n, M, upper(lhs), lower(rhs))
        cell = rigor.gap(lhs, rhs)
        if cell < 0:
            undecided = True
        elif margin is None or cell < margin:
            margin = cell

    cap = max(rigor.gap(*limit), 0) if limit else 0
    cells = row_cells(spec, n, alpha, expo, m_min, query.M_max,
                      lambda: cap if margin is None else min(margin, cap))
    for M, lhs, rhs in cells:
        visit(M, lhs, rhs)
    visit(None, *(limit or _cell(spec, n, None, alpha, expo, query.M_max)))
    return None if undecided else rigor.frac_of_mpf(margin)


def _reverify(spec: QVectorSpec, query: ConditionQuery, vio: _Violation, bits: int) -> bool:
    with workprec(bits):
        try:
            lhs, rhs = _cell(spec, vio.n, vio.M, query.alpha, query.alpha - query.delta, query.M_max)
        except CapacityError:
            return False
        return upper(lhs) < lower(rhs)


def _check_region(spec: QVectorSpec, query: ConditionQuery) -> ConditionVerdict:
    """One rung of :func:`check_condition`; Undecided on an unsettled cell or witness."""
    bits = iv.prec
    margins: list[tuple[int, Fraction]] = []
    try:
        for n in range(query.N + 1, query.n_max + 1):
            row = _check_row(spec, query, n)
            if row is None:
                raise Undecided(f"cells unseparated at {bits} bits")
            margins.append((n, row))
    except _Violation as vio:
        if not _reverify(spec, query, vio, 2 * bits):
            raise Undecided(f"violation candidate at {(vio.n, vio.M)} failed re-verification")
        return ConditionVerdict(
            outcome=VIOLATED,
            witness=(vio.n, vio.M),
            lhs_upper=vio.lhs_upper,
            rhs_lower=vio.rhs_lower,
            precision_bits=bits,
            reverified_bits=2 * bits,
        )
    return ConditionVerdict(outcome=HOLDS, margins=tuple(margins), precision_bits=bits)


def check_condition(
    spec: QVectorSpec, query: ConditionQuery, prec: int = CONDITION_PREC
) -> ConditionVerdict:
    """Scan the query region and return the first certified outcome.

    The scan runs under ``rigor.escalate`` from ``prec``.  Violations
    re-verify at doubled working precision before being reported.  When the
    top rung still raises Undecided, the verdict is inconclusive with its
    message as the reason, rather than a guess.
    """
    try:
        return rigor.escalate(lambda: _check_region(spec, query), prec)
    except Undecided as exc:
        return ConditionVerdict(outcome=INCONCLUSIVE, reason=str(exc), precision_bits=0)


@dataclass(frozen=True)
class MarginRow:
    n: int
    M: Optional[int]
    lhs_lower: Fraction
    rhs_upper: Fraction

    @property
    def margin(self) -> Fraction:
        return self.lhs_lower - self.rhs_upper

    def csv_row(self) -> list:
        return [
            self.n,
            "inf" if self.M is None else self.M,
            rigor.frac_str(self.lhs_lower),
            rigor.frac_str(self.rhs_upper),
            float(self.margin),
        ]


CSV_HEADER = ["n", "M", "lhs_lower", "rhs_upper", "margin"]


def scan_condition_region(
    spec: QVectorSpec,
    alpha: Fraction,
    delta: Fraction,
    n_grid: Iterable[int],
    m_grid: Iterable[Optional[int]],
    prec: int = rigor.DEFAULT_PREC,
) -> list[MarginRow]:
    """Margin table over a grid; positive margins certify holds cell-wise.

    An M entry of None asks for the limit cell.  Rows keep grid order.
    The table is computed under ``rigor.escalate`` from ``prec``.  Within
    each n the lower/upper bounds are checked to be nondecreasing in M,
    which the true sums of positive terms are; a decrease of the computed
    bounds comes from enclosure width, so it raises Undecided and moves the
    table up a rung.

    A limit cell over a divergent power tail has no finite right bound;
    its row stores a certified partial-sum lower bound in the rhs column
    instead, so the margin there over-reports a deficit that is truly
    unbounded.  Such margins are always negative.
    """
    alpha, delta = Fraction(alpha), Fraction(delta)
    if not 0 < delta < alpha < 1:
        raise ParameterRangeError("need 0 < delta < alpha < 1")
    n_grid = list(n_grid)
    m_grid = list(m_grid)
    if not n_grid or not m_grid:
        raise ParameterRangeError("grids must be nonempty")
    if min(n_grid) < 0 or min((M for M in m_grid if M is not None), default=0) < 0:
        raise ParameterRangeError("window starts n and lengths M must be nonnegative")
    expo = alpha - delta
    start = max((m for m in m_grid if m is not None), default=1)
    diverges = not spec.power_tail_converges(alpha)

    def table() -> list[MarginRow]:
        rows: list[MarginRow] = []
        for n in n_grid:
            row: list[MarginRow] = []
            for M in m_grid:
                lhs, rhs = _cell(spec, n, M, alpha, expo, start)
                rhs_col = lower(rhs) if M is None and diverges else upper(rhs)
                row.append(MarginRow(n, M, lower(lhs), rhs_col))
            by_m = sorted((c for c in row if c.M is not None), key=lambda c: c.M)
            for prev, cur in zip(by_m, by_m[1:]):
                if cur.lhs_lower < prev.lhs_lower or cur.rhs_upper < prev.rhs_upper:
                    raise Undecided(
                        f"row n={n}: bounds decrease from M={prev.M} to M={cur.M} at {iv.prec} bits"
                    )
            rows.extend(row)
        return rows

    return rigor.escalate(table, prec)
