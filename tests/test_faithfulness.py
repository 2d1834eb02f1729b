"""Region checks for the tail inequality: verdicts, witnesses, margin scans.

Expected values were derived with independent high-precision summation
using exact rational bases (see the closed forms inline).  Margins
reported by the checker are conservative, so tests assert both closeness
to the oracle and the safe direction.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from functools import reduce
from unittest.mock import patch

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from qinfty import faithfulness, rigor
from qinfty.errors import CapacityError, ParameterRangeError, QinftyError, Undecided
from qinfty.faithfulness import (
    CSV_HEADER,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    ConditionQuery,
    ConditionVerdict,
    check_condition,
    row_cells,
    scan_condition_region,
    window_fast_margin,
)
from qinfty.qvector import QVectorSpec
from qinfty.rigor import ipow, lower, upper, workprec
from window_cells import every_cell

GEO = QVectorSpec.geometric(Fraction(1, 2))
LUR = QVectorSpec.luroth()
PL2 = QVectorSpec.powerlaw(2)
CUSTOM = QVectorSpec.custom([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])

ALPHA_HALF = Fraction(1, 2)
DELTA_TENTH = Fraction(1, 10)


def test_query_validation():
    with pytest.raises(ParameterRangeError):
        ConditionQuery(Fraction(1, 10), Fraction(1, 2), 5, 10, 10)
    with pytest.raises(ParameterRangeError):
        ConditionQuery(Fraction(1, 2), Fraction(1, 2), 5, 10, 10)
    with pytest.raises(ParameterRangeError):
        ConditionQuery(Fraction(1, 2), DELTA_TENTH, -1, 10, 10)
    with pytest.raises(ParameterRangeError):
        ConditionQuery(Fraction(1, 2), DELTA_TENTH, 5, 4, 10)
    with pytest.raises(ParameterRangeError):
        ConditionQuery(Fraction(1, 2), DELTA_TENTH, 5, 10, 4)


def test_geometric_holds_on_region():
    query = ConditionQuery(ALPHA_HALF, DELTA_TENTH, 20, 200, 1000)
    verdict = check_condition(GEO, query)
    assert verdict.outcome == HOLDS
    assert [n for n, _ in verdict.margins] == list(range(21, 201))
    assert all(m > 0 for _, m in verdict.margins)
    assert verdict.min_margin() > 0


def test_geometric_margin_oracle_at_n18():
    # worst cell for n=18 with N=17: mass of [18, 36] raised to 2/5,
    # against the full power tail 2^{-19/2} / (1 - 2^{-1/2})
    query = ConditionQuery(ALPHA_HALF, DELTA_TENTH, 17, 200, 1000)
    verdict = check_condition(GEO, query)
    assert verdict.outcome == HOLDS
    n, margin = verdict.margins[0]
    assert n == 18
    oracle = Fraction("0.00208591022285234103440331511177")
    assert margin <= oracle + Fraction(1, 10**30)
    assert abs(margin - oracle) < Fraction(1, 10**15)


def test_geometric_violated_at_small_n():
    # window [1, 2]: (3/8)^{2/5} = 0.67548... < 1/2 + 8^{-1/2} = 0.85355...
    query = ConditionQuery(ALPHA_HALF, DELTA_TENTH, 0, 17, 50)
    verdict = check_condition(GEO, query)
    assert verdict.outcome == VIOLATED
    assert verdict.witness == (1, 1)
    assert abs(verdict.lhs_upper - Fraction("0.675480019260306706717137")) < Fraction(1, 10**15)
    assert abs(verdict.rhs_lower - Fraction("0.853553390593273762200422")) < Fraction(1, 10**15)
    assert verdict.lhs_upper < verdict.rhs_lower


def test_powerlaw_violated_minimal_scan():
    # scan order is n ascending then M ascending, so the witness is the
    # very first cell past the threshold; direct summation confirms it
    query = ConditionQuery(Fraction(2, 5), DELTA_TENTH, 50, 200, 10**4)
    verdict = check_condition(PL2, query)
    assert verdict.outcome == VIOLATED
    assert verdict.witness == (51, 51)
    assert abs(verdict.lhs_upper - Fraction("0.214745977521006860062126")) < Fraction(1, 10**12)
    assert abs(verdict.rhs_lower - Fraction("1.350242611896160232532928")) < Fraction(1, 10**12)
    assert verdict.reverified_bits == 2 * verdict.precision_bits


def test_powerlaw_witness_at_higher_threshold():
    query = ConditionQuery(Fraction(2, 5), DELTA_TENTH, 99, 200, 10**4)
    verdict = check_condition(PL2, query)
    assert verdict.outcome == VIOLATED
    assert verdict.witness == (100, 100)
    assert abs(verdict.lhs_upper - Fraction("0.175597226265958046032774")) < Fraction(1, 10**12)
    assert abs(verdict.rhs_lower - Fraction("1.537846123314995562242508")) < Fraction(1, 10**12)


def test_powerlaw_witness_cell_direct_oracle():
    # independent check of the (100, 100) cell by plain summation
    with mp.workprec(120):
        z2 = mp.zeta(2)
        mass = sum(mp.mpf(1) / ((i + 1) ** 2) for i in range(100, 201)) / z2
        lhs = mp.power(mass, mp.mpf(3) / 10)
        rhs = sum(
            mp.power(mp.mpf(1) / ((i + 1) ** 2) / z2, mp.mpf(2) / 5)
            for i in range(100, 201)
        )
        assert lhs < rhs


def test_divergent_power_tail_reported_as_limit_witness():
    # alpha = 9/20 makes sum q_i^alpha diverge for the powerlaw with
    # m0 = 2, while alpha - delta = 1/100 keeps every short finite
    # window holding; the violation lands on the limit cell
    query = ConditionQuery(Fraction(9, 20), Fraction(11, 25), 2, 3, 5)
    verdict = check_condition(PL2, query)
    assert verdict.outcome == VIOLATED
    assert verdict.witness == (3, None)
    assert abs(verdict.lhs_upper - Fraction("0.98258242136250930046")) < Fraction(1, 10**12)
    assert verdict.rhs_lower > verdict.lhs_upper


def test_one_term_window_excluded_and_trivially_fine():
    # M = 0 never enters the scan domain M > N >= 0; the one-term
    # inequality q^{alpha-delta} >= q^alpha holds since q < 1
    with pytest.raises(ParameterRangeError):
        ConditionQuery(ALPHA_HALF, DELTA_TENTH, -1, 5, 5)
    with workprec(96):
        for spec in (GEO, LUR, PL2, CUSTOM):
            q = spec.q(4)
            assert lower(ipow(q, Fraction(2, 5))) >= upper(ipow(q, ALPHA_HALF))


def test_empty_region_is_refused():
    # n_max == N leaves no row, and a hold on no row certifies nothing
    with pytest.raises(ParameterRangeError, match="n_max must exceed N"):
        ConditionQuery(ALPHA_HALF, DELTA_TENTH, 5, 5, 5)


def test_inconclusive_names_top_rung(monkeypatch):
    # a row no rung can separate leaves the verdict inconclusive
    monkeypatch.setattr(faithfulness, "_check_row", lambda spec, query, n: None)
    query = ConditionQuery(ALPHA_HALF, DELTA_TENTH, 20, 25, 25)
    verdict = check_condition(GEO, query)
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "cells unseparated at 256 bits"
    assert verdict.precision_bits == 0


def test_top_rung_undecided_becomes_the_inconclusive_reason(monkeypatch):
    def undecided_row(spec, query, n):
        raise Undecided("x")

    monkeypatch.setattr(faithfulness, "_check_row", undecided_row)
    verdict = check_condition(GEO, ConditionQuery(ALPHA_HALF, DELTA_TENTH, 20, 25, 25))
    assert verdict.outcome == INCONCLUSIVE
    assert verdict.reason == "x"
    assert verdict.precision_bits == 0


def test_custom_family_holds_smoke():
    query = ConditionQuery(ALPHA_HALF, Fraction(1, 5), 1, 6, 8)
    verdict = check_condition(CUSTOM, query)
    assert verdict.outcome == HOLDS
    assert verdict.min_margin() > 0


def test_scan_luroth_negative_margins_at_large_M():
    rows = scan_condition_region(
        LUR, Fraction(2, 5), Fraction(1, 20), [10, 100, 1000], [10, 100, 1000, 10**4]
    )
    assert len(rows) == 12
    by_cell = {(r.n, r.M): r for r in rows}
    for n in (10, 100, 1000):
        assert by_cell[(n, 10**4)].margin < 0
    assert all(r.margin < 0 for r in rows if r.n == 10)


def test_scan_geometric_positive_margins_for_large_n():
    rows = scan_condition_region(
        GEO, Fraction(2, 5), Fraction(1, 20), [10, 100, 1000], [10, 100, 1000, 10**4]
    )
    for r in rows:
        if r.n >= 100:
            assert r.margin > 0
        else:
            assert r.margin < 0


def test_scan_includes_limit_cell_and_divergent_rows():
    rows = scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [18], [18, 50, None])
    assert [r.M for r in rows] == [18, 50, None]
    assert all(r.margin > 0 for r in rows)
    # divergent tail: the limit row records a certified partial lower
    # bound on the right side, so its margin is negative
    rows = scan_condition_region(LUR, Fraction(2, 5), Fraction(1, 20), [50], [10, None])
    limit = [r for r in rows if r.M is None][0]
    assert limit.margin < 0
    assert limit.rhs_upper > limit.lhs_lower


def test_scan_custom_tiny_grid_no_errors():
    rows = scan_condition_region(CUSTOM, ALPHA_HALF, Fraction(1, 5), [2, 3], [2, 4, None])
    assert len(rows) == 6
    assert all(isinstance(r.margin, Fraction) for r in rows)


def test_scan_unsorted_m_grid_allowed():
    rows = scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [20], [50, 18])
    assert [r.M for r in rows] == [50, 18]


def test_scan_rejects_non_monotone_row(monkeypatch):
    # bounds of sums of positive terms cannot shrink as M grows
    real_cell = faithfulness._cell

    def shrinking_rhs(spec, n, M, alpha, expo, start):
        lhs, _ = real_cell(spec, n, M, alpha, expo, start)
        return lhs, real_cell(spec, n, 100 - M, alpha, expo, start)[1]

    monkeypatch.setattr(faithfulness, "_cell", shrinking_rhs)
    with pytest.raises(QinftyError, match=r"row n=20: .* M=30 to M=40"):
        scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [20], [30, 40])


def test_scan_rejects_empty_grids():
    with pytest.raises(ParameterRangeError):
        scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [], [10])
    with pytest.raises(ParameterRangeError):
        scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [10], [])


def test_csv_rows_shape():
    rows = scan_condition_region(GEO, ALPHA_HALF, DELTA_TENTH, [18], [18, None])
    assert CSV_HEADER == ["n", "M", "lhs_lower", "rhs_upper", "margin"]
    first = rows[0].csv_row()
    assert first[0] == 18 and first[1] == 18
    assert isinstance(first[2], str) and isinstance(first[4], float)
    assert rows[1].csv_row()[1] == "inf"


def test_verdict_json_shapes():
    holds = check_condition(GEO, ConditionQuery(ALPHA_HALF, DELTA_TENTH, 20, 22, 25))
    doc = holds.to_json()
    assert doc["outcome"] == HOLDS
    assert len(doc["margins"]) == 2 and doc["min_margin"] > 0

    vio = check_condition(PL2, ConditionQuery(Fraction(2, 5), DELTA_TENTH, 99, 200, 10**4))
    doc = vio.to_json()
    assert doc["outcome"] == VIOLATED
    assert doc["witness"] == {"n": 100, "M": 100}
    assert doc["reverified_bits"] == 2 * vio.precision_bits

    inc = ConditionVerdict(outcome=INCONCLUSIVE, reason="because")
    assert inc.to_json()["reason"] == "because"


def test_margins_monotone_diagnostics():
    # fixed n: both bound columns nondecreasing in M across a fine grid
    rows = scan_condition_region(PL2, ALPHA_HALF, DELTA_TENTH, [30], list(range(31, 60)))
    for prev, cur in zip(rows, rows[1:]):
        assert cur.lhs_lower >= prev.lhs_lower
        assert cur.rhs_upper >= prev.rhs_upper


@pytest.mark.parametrize("spec", [LUR, PL2], ids=["luroth", "powerlaw2"])
@pytest.mark.parametrize("n, m_min, m_max", [(1, 1, 6), (12, 11, 40), (700, 3, 30)])
def test_window_scan_cells_overlap_closed_forms(spec, n, m_min, m_max):
    alpha, expo = Fraction(2, 5), Fraction(3, 10)
    with workprec(96):
        # an infinite floor opens every block
        cells = list(row_cells(spec, n, alpha, expo, m_min, m_max, lambda: mp.inf))
        assert [M for M, _, _ in cells] == list(range(m_min, m_max + 1))
        for M, lhs, rhs in cells:
            lhs_closed = ipow(spec.range_sum(n, n + M), expo)
            rhs_closed = spec.power_sum(alpha, n, n + M)
            assert lower(lhs) <= upper(lhs_closed) and lower(lhs_closed) <= upper(lhs)
            assert lower(rhs) <= upper(rhs_closed) and lower(rhs_closed) <= upper(rhs)


# rows (k, m_min, m_max): cells crossing the 32-aligned power blocks at 32,
# 64 and 96, a single cell whose one added power opens a block, a partial
# last block, and an empty row
_ROWS = [(5, 20, 100), (31, 0, 1), (3, 10, 10 + 2 * 32 + 4), (7, 9, 8)]


@pytest.mark.parametrize("bits", [16, 24, 53, 96, 192])
@pytest.mark.parametrize("spec", [LUR, GEO, PL2, CUSTOM], ids=["luroth", "geometric", "powerlaw2", "custom"])
def test_row_cells_give_the_bits_of_every_cell(spec, bits):
    alpha, expo = Fraction(2, 5), Fraction(3, 10)
    with workprec(bits):
        for k, m_min, m_max in _ROWS:
            # an infinite floor opens every block
            cells = [(M, lhs._mpi_, rhs._mpi_)
                     for M, lhs, rhs in row_cells(spec, k, alpha, expo, m_min, m_max, lambda: mp.inf)]
            assert cells == [(M, lhs._mpi_, rhs._mpi_)
                             for M, lhs, rhs in every_cell(spec, k, alpha, expo, m_min, m_max)]
            assert [M for M, _, _ in cells] == list(range(m_min, m_max + 1))


@pytest.mark.parametrize("spec", [LUR, GEO, CUSTOM], ids=["luroth", "geometric", "custom"])
def test_exact_row_reads_a_weight_only_where_a_cell_is_yielded(monkeypatch, spec):
    # an exact spec's window mass is its range sum at each yielded cell,
    # not a running sum that reads every weight
    alpha, expo, m_min, m_max = Fraction(9, 10), Fraction(7, 10), 18, 1000
    with workprec(64):
        list(row_cells(spec, 18, alpha, expo, m_min, m_max, lambda: 0))  # fills the power blocks
        q, calls = QVectorSpec.q, []

        def spy(self, i):
            calls.append(i)
            return q(self, i)

        monkeypatch.setattr(QVectorSpec, "q", spy)
        cells = list(row_cells(spec, 18, alpha, expo, m_min, m_max, lambda: 0))
    assert len(calls) <= len(cells) < m_max - m_min + 1


def test_window_fast_margin():
    with workprec(96):
        # sum q_i^(1/2) diverges for Luroth
        assert window_fast_margin(LUR, 5, ALPHA_HALF, Fraction(2, 5), 3) is None
        # converges, but the window [1, 2] violates (test_geometric_violated_at_small_n)
        assert window_fast_margin(GEO, 1, ALPHA_HALF, Fraction(2, 5), 1) is None
        fast = window_fast_margin(GEO, 40, ALPHA_HALF, Fraction(2, 5), 21)
        lhs = ipow(GEO.range_sum(40, 61), Fraction(2, 5))
        assert fast == lower(lhs) - upper(GEO.power_sum(ALPHA_HALF, 40))
        assert fast > 0


def _fraction_check_row(spec, query, n):
    """_check_row as it ran before cells compared on raw mpf endpoints:
    both endpoints of every cell and every margin as Fractions."""
    alpha, expo = query.alpha, query.alpha - query.delta
    m_min = query.N + 1
    if spec.power_tail_converges(alpha):
        fast = lower(faithfulness._lhs(spec, n, m_min, expo)) - upper(spec.power_sum(alpha, n))
        if fast >= 0:
            return fast

    margin = None
    undecided = False
    for M, lhs, rhs in every_cell(spec, n, alpha, expo, m_min, query.M_max):
        if upper(lhs) < lower(rhs):
            raise faithfulness._Violation(n, M, upper(lhs), lower(rhs))
        cell = lower(lhs) - upper(rhs)
        if cell < 0:
            undecided = True
        elif margin is None or cell < margin:
            margin = cell

    lhs_inf = faithfulness._lhs(spec, n, None, expo)
    if spec.power_tail_converges(alpha):
        rhs_inf = spec.power_sum(alpha, n)
        if upper(lhs_inf) < lower(rhs_inf):
            raise faithfulness._Violation(n, None, upper(lhs_inf), lower(rhs_inf))
        cell = lower(lhs_inf) - upper(rhs_inf)
        if cell < 0:
            undecided = True
        elif margin is None or cell < margin:
            margin = cell
    else:
        # partial right sums, doubling in length, overtake the bounded left side
        m = max(query.M_max, 1)
        while m <= 2**40:
            partial = lower(spec.power_sum(alpha, n, n + m))
            if partial > upper(lhs_inf):
                raise faithfulness._Violation(n, None, upper(lhs_inf), partial)
            m *= 2
        raise CapacityError("divergent power tail failed to overtake the left side")

    if undecided:
        return None
    return margin


_WORKLOAD_LUROTH = ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 30, 1000)
_FRACTION_LOOP_CASES = [
    ("luroth-holds", LUR, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 19, 30)),
    ("luroth-violated", LUR, ConditionQuery(ALPHA_HALF, DELTA_TENTH, 2, 6, 40)),
    ("geometric-holds", GEO, ConditionQuery(ALPHA_HALF, DELTA_TENTH, 17, 22, 60)),
    ("geometric-violated", GEO, ConditionQuery(ALPHA_HALF, Fraction(2, 5), 2, 6, 40)),
    ("powerlaw2-holds", PL2, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 5, 8, 60)),
    ("powerlaw2-violated", PL2, ConditionQuery(Fraction(2, 5), DELTA_TENTH, 99, 101, 150)),
    ("powerlaw2-divergent-limit", PL2, ConditionQuery(Fraction(9, 20), Fraction(11, 25), 2, 3, 5)),
]


@pytest.mark.parametrize(
    "spec, query, bits",
    [pytest.param(spec, query, bits, id=f"{name}-{bits}")
     for name, spec, query in _FRACTION_LOOP_CASES for bits in (64, 96, 128)]
    # the benchmark's Luroth query: every row misses the fast margin
    + [pytest.param(LUR, _WORKLOAD_LUROTH, 64, id="luroth-workload-64")],
)
def test_verdict_matches_fraction_cell_loop(monkeypatch, bits, spec, query):
    verdict = check_condition(spec, query, prec=bits).to_json()
    monkeypatch.setattr(faithfulness, "_check_row", _fraction_check_row)
    assert check_condition(spec, query, prec=bits).to_json() == verdict


@pytest.mark.parametrize(
    "spec, query",
    [(LUR, _WORKLOAD_LUROTH),
     # row 4 misses the fast margin and row 5 meets it
     (GEO, ConditionQuery(Fraction(5, 8), Fraction(9, 40), 3, 5, 200)),
     (PL2, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 5, 8, 60))],
    ids=["luroth-workload", "geometric", "powerlaw2"],
)
def test_convergent_row_sums_its_power_tail_once(monkeypatch, clear_memos, spec, query):
    # counts the tails the memo computes: the spy forwards each call as made,
    # so a fast margin and a limit cell keyed apart would sum a tail twice
    power_sum = QVectorSpec.power_sum
    computed = []

    def spy(self, s, a, *args, **kwargs):
        misses = power_sum.cache_info().misses
        value = power_sum(self, s, a, *args, **kwargs)
        # a hit returns without nested calls, so any new miss is this call's
        if kwargs.get("b", args[0] if args else None) is None \
                and power_sum.cache_info().misses > misses:
            computed.append(a)
        return value

    monkeypatch.setattr(QVectorSpec, "power_sum", spy)
    assert check_condition(spec, query).outcome == HOLDS
    assert computed == list(range(query.N + 1, query.n_max + 1))


def _block_and_fraction_verdicts(spec, query, bits, cold=False):
    if cold:  # the walk fills the weight-power blocks and their totals itself
        for cached in rigor.MEMOS:
            cached.cache_clear()
    verdict = check_condition(spec, query, prec=bits).to_json()
    with patch.object(faithfulness, "_check_row", _fraction_check_row):
        return verdict, check_condition(spec, query, prec=bits).to_json()


@st.composite
def _row_queries(draw):
    a = draw(st.integers(2, 39))
    d = draw(st.integers(1, a - 1))
    N = draw(st.integers(0, 40))
    return ConditionQuery(Fraction(a, 40), Fraction(d, 40), N,
                          N + draw(st.integers(1, 3)), draw(st.integers(N, 300)))


@settings(deadline=None, max_examples=30)
@given(
    spec=st.sampled_from([LUR, GEO, PL2, CUSTOM]),
    query=_row_queries(),
    bits=st.sampled_from([16, 24, 64, 128]),
    cold=st.booleans(),
)
# an undecided cell at 16 bits, then a violated limit cell
@example(spec=LUR, query=ConditionQuery(Fraction(3, 5), Fraction(2, 5), 33, 34, 60), bits=16, cold=False)
@example(spec=LUR, query=_WORKLOAD_LUROTH, bits=16, cold=True)  # escalates to 32 bits
# the least gap lies in a block opened only because its bound is below the running minimum
@example(spec=GEO, query=ConditionQuery(Fraction(5, 8), Fraction(9, 40), 3, 5, 200), bits=64, cold=False)
@example(spec=CUSTOM, query=ConditionQuery(Fraction(31, 40), Fraction(1, 40), 3, 5, 200), bits=64, cold=False)
@example(spec=PL2, query=ConditionQuery(Fraction(9, 20), Fraction(11, 25), 2, 3, 5), bits=24, cold=True)
@example(spec=GEO, query=ConditionQuery(ALPHA_HALF, Fraction(2, 5), 2, 6, 40), bits=64, cold=True)
def test_block_scan_matches_fraction_cell_loop(spec, query, bits, cold):
    verdict, reference = _block_and_fraction_verdicts(spec, query, bits, cold)
    assert verdict == reference
    # the margins are the same bits only while both computed bounds are
    # nondecreasing in M; upper(rhs) is by construction, lower(lhs) is checked
    alpha, expo = query.alpha, query.alpha - query.delta
    with workprec(bits):
        for n in range(query.N + 1, query.n_max + 1):
            cells = list(every_cell(spec, n, alpha, expo, query.N + 1, query.M_max))
            for (_, lhs0, rhs0), (_, lhs1, rhs1) in zip(cells, cells[1:]):
                assert lower(lhs0) <= lower(lhs1) and upper(rhs0) <= upper(rhs1)


@pytest.mark.parametrize(
    "spec, query, outcome",
    [
        (LUR, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 19, 17), HOLDS),
        (PL2, ConditionQuery(Fraction(9, 20), Fraction(11, 25), 2, 3, 2), VIOLATED),
        (LUR, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 19, 18), HOLDS),
        (LUR, ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 19, 17 + 2 * 32 + 5),
         HOLDS),
    ],
    ids=["no-finite-cell", "no-finite-cell-divergent", "single-cell", "partial-last-block"],
)
@pytest.mark.parametrize("bits", [16, 64])
def test_block_scan_edge_rows(spec, query, outcome, bits):
    verdict, reference = _block_and_fraction_verdicts(spec, query, bits)
    assert verdict == reference
    assert verdict["outcome"] == outcome
    if outcome == VIOLATED:
        assert verdict["witness"] == {"n": 3, "M": "inf"}


def test_block_scan_sums_stop_one_block_past_the_witness(monkeypatch, clear_memos):
    query = ConditionQuery(Fraction(2, 5), DELTA_TENTH, 99, 200, 10**4)
    memoized = QVectorSpec.weight_power_block
    calls = []  # the index of each weight power read, as it is read

    class Reads:
        """A block of powers that records its reads, a slice's as it is consumed."""

        def __init__(self, j, powers):
            self.j, self.powers = j, powers

        def __getitem__(self, key):
            if isinstance(key, slice):
                return (self[i] for i in range(len(self.powers))[key])
            calls.append(32 * self.j + key)
            return self.powers[key]

    def spy(self, j, s):
        powers, top = memoized(self, j, s)
        return Reads(j, powers), top

    monkeypatch.setattr(QVectorSpec, "weight_power_block", spy)
    verdict = check_condition(PL2, query).to_json()
    block_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(faithfulness, "_check_row", _fraction_check_row)
    assert check_condition(PL2, query).to_json() == verdict
    assert verdict["witness"] == {"n": 100, "M": 100}
    assert block_calls <= len(calls) + 32


def _record_walks(monkeypatch) -> list:
    """Per row walk from now on: (M of each yielded cell, m_min, left-side
    powers taken, running-sum terms added) while the walk itself runs."""
    walk, real_ipow, real_adder = faithfulness.row_cells, faithfulness.ipow, rigor.adder
    counts = {"ipow": 0, "add": 0}

    def ipow_spy(*args):
        counts["ipow"] += 1
        return real_ipow(*args)

    def adder_spy():
        add = real_adder()

        def counted(x, y):
            counts["add"] += 1
            return add(x, y)
        return counted

    walks = []

    def spy(spec, k, alpha, expo, m_min, m_max, floor):
        yielded, before = [], dict(counts)
        try:
            for cell in walk(spec, k, alpha, expo, m_min, m_max, floor):
                yielded.append(cell[0])
                yield cell
        finally:  # also when the caller stops at a violation
            walks.append((yielded, m_min, counts["ipow"] - before["ipow"],
                          counts["add"] - before["add"]))

    monkeypatch.setattr(faithfulness, "ipow", ipow_spy)
    monkeypatch.setattr(rigor, "adder", adder_spy)
    monkeypatch.setattr(faithfulness, "row_cells", spy)
    return walks


def test_workload_rows_take_few_left_side_powers(monkeypatch):
    # every row's limit cell gap is below its finite gaps, so galloping
    # spans close the row; a walk of blocks of 32 took 62 powers a row
    check_condition(LUR, _WORKLOAD_LUROTH)  # fills the memos
    walks = _record_walks(monkeypatch)
    assert check_condition(LUR, _WORKLOAD_LUROTH).outcome == HOLDS
    assert len(walks) == _WORKLOAD_LUROTH.n_max - _WORKLOAD_LUROTH.N
    assert all(powers <= 16 for _, _, powers, _ in walks)


@pytest.mark.parametrize(
    "spec, query",
    [(LUR, _WORKLOAD_LUROTH),
     (GEO, ConditionQuery(Fraction(5, 8), Fraction(9, 40), 3, 5, 200)),
     (CUSTOM, ConditionQuery(Fraction(31, 40), Fraction(1, 40), 3, 5, 200)),
     (LUR, ConditionQuery(ALPHA_HALF, DELTA_TENTH, 2, 6, 40)),
     (GEO, ConditionQuery(ALPHA_HALF, Fraction(2, 5), 2, 6, 40))],
    ids=["luroth-workload", "geometric", "custom", "luroth-violated", "geometric-violated"],
)
def test_row_adds_no_running_sum_term_past_its_last_yielded_cell(monkeypatch, spec, query):
    # on an exact spec the one running sum is the right side's; the first
    # cell's value is read, not added
    check_condition(spec, query)  # fills the memos
    walks = _record_walks(monkeypatch)
    check_condition(spec, query)
    assert walks
    for yielded, m_min, _, adds in walks:
        assert adds == (yielded[-1] - m_min if yielded else 0)


def test_row_past_the_bound_precision_yields_every_cell_there():
    # at 16 bits the bound U of a span reaching 2^14 adds past m_min is +inf,
    # so each of those cells is yielded and compared on its own
    query = ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 18, 2**14 + 60)
    m_min = query.N + 1
    with workprec(16):
        assert faithfulness._rhs_bound(mp.mpf(1)._mpf_, 2**14, 16) == mp.inf._mpf_
        assert faithfulness._check_row(LUR, query, 18) == _fraction_check_row(LUR, query, 18)
        far = [M for M, _, _ in row_cells(LUR, 18, query.alpha, query.alpha - query.delta,
                                          m_min, query.M_max, lambda: 0) if M >= m_min + 2**14]
    assert far == list(range(m_min + 2**14, query.M_max + 1))


def test_span_bound_takes_the_precision_it_is_given():
    # a walk's bound is at the precision its adders were built at, whatever
    # the working precision is when it is taken
    top = mp.mpf(1)._mpf_
    with workprec(64):
        assert faithfulness._rhs_bound(top, 2**14, 16) == mp.inf._mpf_
        at_64 = faithfulness._rhs_bound(top, 2**14, 64)
    assert at_64 != mp.inf._mpf_
    with workprec(16):
        assert faithfulness._rhs_bound(top, 2**14, 64) == at_64


@settings(deadline=None, max_examples=40)
@given(
    spec=st.sampled_from([LUR, GEO, PL2, CUSTOM]),
    k=st.integers(0, 60), m_min=st.integers(0, 40), adds=st.integers(0, 200),
    bits=st.sampled_from([16, 24, 64]),
)
def test_span_bound_is_above_every_running_right_side(spec, k, m_min, adds, bits):
    alpha = Fraction(2, 5)
    with workprec(bits):
        top = rigor.upper_adder()(spec.power_sum(alpha, k, k + m_min)._mpi_[1],
                                  spec.raw_power_top(alpha, k + m_min + 1, k + m_min + adds))
        bound = rigor.frac_of_mpf(mp.make_mpf(faithfulness._rhs_bound(top, adds, bits)))
        *_, (_, _, rhs) = every_cell(spec, k, alpha, alpha, m_min, m_min + adds)
        assert upper(rhs) <= bound


def test_block_scan_row_memory_does_not_grow_with_the_window_count():
    def peak(m_max):
        query = ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 18, m_max)
        with workprec(64):
            faithfulness._check_row(LUR, query, 18)  # fills the memos
            tracemalloc.start()
            try:
                faithfulness._check_row(LUR, query, 18)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(4000) <= 1.5 * peak(1000)


def _unmemoized_weight_power_block(self, j, s):
    """QVectorSpec.weight_power_block without its memo: the powers each cell
    took before, and the rounded-up sum of their upper ends."""
    powers = tuple(ipow(self.q(i), s)._mpi_ for i in range(32 * j, 32 * j + 32))
    return powers, reduce(rigor.upper_adder(), (p[1] for p in powers), libmp.fzero)


def test_luroth_verdict_same_with_cold_warm_and_no_weight_power_memo(monkeypatch, clear_memos):
    query = ConditionQuery(Fraction(9, 10), Fraction(1, 5), 17, 20, 200)
    cold = check_condition(LUR, query).to_json()
    warm = check_condition(LUR, query).to_json()
    clear_memos()  # so the sums that read weight powers are taken again
    monkeypatch.setattr(QVectorSpec, "weight_power_block", _unmemoized_weight_power_block)
    assert cold == warm == check_condition(LUR, query).to_json()
    assert cold["outcome"] == HOLDS and len(cold["margins"]) == 3
