"""Leveled Cantor construction: searches, budgets, measure, volumes, gap.

The depth-3 build is expensive-ish (a couple of seconds), so it is cached
at module level.  Minimality oracles re-verify boundary indices by direct
summation, independent of the search code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from qinfty import cantor, rigor
from qinfty.cantor import (
    BLOCK_UNION,
    PHI_SPLIT,
    CantorAddress,
    CantorLevel,
    CantorSpec,
    assemble_cantor,
    build_cantor,
    dimension_gap,
    estimate_critical_exponent,
    level_volume,
    local_dim_ratio,
    measure_cylinder,
    sample_address,
)
from qinfty.errors import (
    BudgetInfeasibleError,
    InvalidAddressError,
    NoViolationError,
    ParameterRangeError,
)
from qinfty.qvector import QVectorSpec
from qinfty.rigor import hull, ipow, lower, to_iv, upper, workprec
from window_cells import every_cell


def _hull(lo: Fraction, hi: Fraction):
    return hull(to_iv(lo), to_iv(hi))

PL2 = QVectorSpec.powerlaw(2)
GEO = QVectorSpec.geometric(Fraction(1, 2))

ALPHA = Fraction(2, 5)
DELTA = Fraction(1, 5)
HALF_L = Fraction(1, 2)


@functools.lru_cache(maxsize=None)
def built3() -> CantorSpec:
    return build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=3)


@functools.lru_cache(maxsize=None)
def toy() -> CantorSpec:
    return assemble_cantor(
        PL2, Fraction(3, 10), Fraction(1, 5), Fraction(9, 10),
        Fraction(1, 4), 1, [(2, 2), (650, 20)],
    )


def test_level_and_spec_validation():
    with pytest.raises(ParameterRangeError):
        CantorLevel(0, 5, Fraction(1, 2), Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ParameterRangeError):
        CantorLevel(5, 5, Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))
    lvl = CantorLevel(20, 20, Fraction(1, 3), Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ParameterRangeError):
        CantorSpec(GEO, Fraction(1, 5), Fraction(2, 5), HALF_L, 10, (lvl,))
    with pytest.raises(ParameterRangeError):
        CantorSpec(GEO, ALPHA, DELTA, Fraction(3, 2), 10, (lvl,))
    with pytest.raises(ParameterRangeError):
        CantorSpec(GEO, ALPHA, DELTA, HALF_L, 10, ())
    with pytest.raises(ParameterRangeError):
        # k must exceed N
        CantorSpec(GEO, ALPHA, DELTA, HALF_L, 25, (lvl,))


def test_build_param_validation():
    with pytest.raises(ParameterRangeError):
        build_cantor(PL2, ALPHA, DELTA, HALF_L, depth=0)
    with pytest.raises(ParameterRangeError):
        build_cantor(PL2, ALPHA, DELTA, HALF_L, depth=5)
    with pytest.raises(ParameterRangeError):
        build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(0))


_EPS = Fraction(1, 1000)


@pytest.mark.parametrize(
    "alpha, delta, L, N, eps",
    [(ALPHA, DELTA, HALF_L, -5, _EPS), (ALPHA, DELTA, Fraction(0), 10, _EPS),
     (ALPHA, DELTA, Fraction(1), 10, _EPS), (Fraction(1, 5), DELTA, HALF_L, 10, _EPS),
     (ALPHA, DELTA, HALF_L, 10, Fraction(0)), (ALPHA, DELTA, HALF_L, 10, -_EPS)],
    ids=["negative-N", "zero-L", "unit-L", "alpha-below-delta", "zero-eps", "negative-eps"],
)
def test_assembly_refuses_parameters_before_any_level_search(alpha, delta, L, N, eps):
    picked = []
    with pytest.raises(ParameterRangeError):
        cantor._assemble(PL2, alpha, delta, L, eps, N, 3,
                         lambda *level: picked.append(level), 96)
    assert picked == []


def test_tight_budget_k1_minimal():
    # L = 1/2 makes the volume constraint binding: tail(k)^{1/10} <= 1/2
    # forces tail(k) <= 2^{-10}, stricter than eps_1 = 10^{-3}
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=1)
    k1 = spec.levels[0].k
    assert k1 == 623
    cut = Fraction(1, 2) ** 10
    with workprec(96):
        assert upper(PL2.tail_sum(k1 - 1)) > cut
        assert upper(PL2.tail_sum(k1)) <= cut


def test_loose_budget_k1_eps_driven():
    spec = build_cantor(
        PL2, ALPHA, DELTA, Fraction(99, 100), eps_first=Fraction(1, 1000), N=10, depth=1
    )
    k1 = spec.levels[0].k
    assert k1 == 608
    with workprec(96):
        assert upper(PL2.tail_sum(k1 - 1)) > Fraction(1, 1000)
        assert upper(PL2.tail_sum(k1)) <= Fraction(1, 1000)


def test_m1_minimal_by_direct_summation():
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=1)
    k1, m1 = spec.levels[0].k, spec.levels[0].M
    assert m1 == 28
    expo = ALPHA - DELTA
    with workprec(96):
        hold = ipow(PL2.range_sum(k1, k1 + m1 - 1), expo)
        assert lower(hold) >= upper(PL2.power_sum(ALPHA, k1, k1 + m1 - 1))
        vio = ipow(PL2.range_sum(k1, k1 + m1), expo)
        assert upper(vio) < lower(PL2.power_sum(ALPHA, k1, k1 + m1))


def test_window_search_past_linear_cap_starts_above_n():
    # N above the linear scan's cap: the search must still return M > N
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, N=5000)
    assert [(lvl.k, lvl.M) for lvl in spec.levels] == [(5001, 5001)]


def _fraction_violation_window(spec, alpha, delta, k, N):
    """cantor._minimal_violation_window as it ran before its linear scan
    compared on raw mpf endpoints: a Fraction per endpoint of every cell."""
    expo = alpha - delta
    for M, lhs, rhs in every_cell(spec, k, alpha, expo, N + 1, cantor._LINEAR_M_CAP):
        if upper(lhs) < lower(rhs):
            return M
    bound = upper(ipow(spec.tail_sum(k), expo))
    return rigor.first_true(
        lambda M: lower(spec.power_sum(alpha, k, k + M)) > bound,
        max(N + 1, cantor._LINEAR_M_CAP + 1), cantor._INDEX_CAP, NoViolationError(),
    )


# non-monotone: tiny weights on both sides of one large one
_SPIKE = QVectorSpec.custom(
    [Fraction(1, 2**28)] * 80 + [1 - Fraction(160, 2**28)] + [Fraction(1, 2**28)] * 80,
    pad_mass=Fraction(1, 2**29),
)


@pytest.mark.parametrize(
    "spec, k, N, M",
    [(PL2, 5000, 10, 80), (QVectorSpec.luroth(), 5000, 10, 70), (_SPIKE, 0, 0, 80), (_SPIKE, 5, 10, 75)],
    ids=["powerlaw2", "luroth", "custom-spike-inside-a-block", "custom-spike-at-a-block-start"],
)
def test_window_past_the_first_block_matches_every_cell_scan(spec, k, N, M):
    assert M >= N + 1 + 32  # past the first 32-index block of weight powers
    with workprec(96):
        assert cantor._minimal_violation_window(spec, ALPHA, DELTA, k, N) == M
        assert _fraction_violation_window(spec, ALPHA, DELTA, k, N) == M


# sha256 of the canonical JSON of the depth-3 build, recorded before the
# linear-scan skip and the weight-power memo
_BUILT3_SHA256 = "a1afd5354ad3940a430af8bef8ef762c0054a78c8198b55acc149ef0f5d801be"


def test_depth3_build_pinned():
    doc = json.dumps(built3().to_json(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(doc).hexdigest() == _BUILT3_SHA256


def _record_scans(monkeypatch) -> list:
    """Offsets of the linear window scans cantor runs from now on."""
    scanned = []
    scan = cantor.row_cells

    def spy(spec, k, *rest):
        scanned.append(k)
        return scan(spec, k, *rest)

    monkeypatch.setattr(cantor, "row_cells", spy)
    return scanned


def test_linear_scan_skipped_on_levels_2_and_3_only(monkeypatch):
    scanned = _record_scans(monkeypatch)
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=3)
    assert spec.levels == built3().levels
    assert scanned == [623]
    with workprec(96):
        skips = [cantor._linear_scan_cannot_violate(PL2, ALPHA, ALPHA - DELTA, lvl.k, 11)
                 for lvl in spec.levels]
    assert skips == [False, True, True]


def test_custom_non_monotone_head_never_skips(monkeypatch):
    spec = QVectorSpec.custom([Fraction(1, 8), Fraction(1, 2), Fraction(3, 8)])
    scanned = _record_scans(monkeypatch)
    with workprec(96):
        for k in range(len(spec.weights)):
            assert not cantor._linear_scan_cannot_violate(spec, ALPHA, ALPHA - DELTA, k, 1)
        assert [cantor._minimal_violation_window(spec, ALPHA, DELTA, k, 0) for k in (0, 1)] == [1, 1]
    assert scanned == [0, 1]


@pytest.mark.parametrize("spec", [PL2, GEO, QVectorSpec.luroth()], ids=["powerlaw2", "geometric", "luroth"])
def test_skip_only_where_no_scanned_cell_violates(monkeypatch, spec):
    # with a short linear scan the skip fires at small offsets, where every
    # cell it rules out can be scanned
    monkeypatch.setattr(cantor, "_LINEAR_M_CAP", 40)
    alpha, expo, m_min = ALPHA, ALPHA - DELTA, 3
    fired = 0
    with workprec(96):
        for k in [10, 100, 1000, 3000, 10**4, 3 * 10**4, 10**5, 10**6]:
            if cantor._linear_scan_cannot_violate(spec, alpha, expo, k, m_min):
                fired += 1
                for _, lhs, rhs in every_cell(spec, k, alpha, expo, m_min, 40):
                    assert rigor.decide_le(rhs, lhs) is True
    assert fired >= 2


def test_built_levels_match_fraction_cell_loop(monkeypatch):
    monkeypatch.setattr(cantor, "_minimal_violation_window", _fraction_violation_window)
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=2)
    assert spec.levels == built3().levels[:2]


def test_depth3_level_invariants():
    spec = built3()
    assert spec.depth == 3
    expo = ALPHA - DELTA
    with workprec(96):
        for n, lvl in enumerate(spec.levels, 1):
            assert lvl.k > spec.N and lvl.M > spec.N
            assert lvl.eps == Fraction(1, 1000) / 2 ** (n - 1)
            assert upper(PL2.tail_sum(lvl.k)) <= lvl.eps
            mass = PL2.range_sum(lvl.k, lvl.k + lvl.M)
            # gamma-inequality, against the stored enclosure
            assert upper(ipow(mass, expo)) < lvl.gamma_lo
            gamma = PL2.power_sum(ALPHA, lvl.k, lvl.k + lvl.M)
            assert lower(gamma) <= lvl.gamma_hi and lvl.gamma_lo <= upper(gamma)
            vlo, vhi = level_volume(spec, n, DELTA / 2, BLOCK_UNION)
            assert vhi <= spec.L
    assert spec.levels[0].k == 623 and spec.levels[0].M == 28
    assert spec.levels[1].k > 10**11 and spec.levels[2].k > spec.levels[1].k


def test_built_levels_pass_assembly():
    # the build certifies each level as assemble_cantor does, so
    # re-assembling its (k, M) pairs reproduces the spec exactly
    spec = built3()
    pairs = [(lvl.k, lvl.M) for lvl in spec.levels]
    again = assemble_cantor(PL2, ALPHA, DELTA, HALF_L, Fraction(1, 1000), 10, pairs)
    assert again == spec


def test_levels_json_roundtrip():
    for spec in (toy(), built3()):
        doc = spec.to_json()
        assert CantorSpec.from_json(doc) == spec


def test_geometric_no_violation():
    with pytest.raises(NoViolationError):
        build_cantor(GEO, Fraction(1, 2), Fraction(1, 10), HALF_L,
                     eps_first=Fraction(1, 1000), N=10, depth=1)


def test_assemble_rejects_bad_levels():
    with pytest.raises(BudgetInfeasibleError):
        # eps too tight for the tail at k = 2
        assemble_cantor(PL2, Fraction(3, 10), Fraction(1, 5), Fraction(9, 10),
                        Fraction(1, 100), 1, [(2, 2)])
    with pytest.raises(NoViolationError):
        # geometric windows never violate at these offsets
        assemble_cantor(GEO, Fraction(1, 2), Fraction(1, 10), Fraction(99, 100),
                        Fraction(1, 2), 1, [(20, 30)])
    with pytest.raises(BudgetInfeasibleError):
        # volume cap far below the level-1 union volume
        assemble_cantor(PL2, Fraction(3, 10), Fraction(1, 5), Fraction(1, 100),
                        Fraction(1, 4), 1, [(2, 2)])


def test_additivity_encloses_one():
    # prod_j P_j(alpha)/gamma_j must contain 1 at every depth
    for spec in (toy(), built3()):
        with workprec(96):
            total = to_iv(1)
            for lvl in spec.levels:
                p = spec.qvec.power_sum(spec.alpha, lvl.k, lvl.k + lvl.M)
                total = total * p / lvl.gamma_iv()
                assert lower(total) <= 1 <= upper(total)


def test_measure_empty_address_is_one():
    assert measure_cylinder(toy(), CantorAddress(())) == (Fraction(1), Fraction(1))


def test_measure_first_digit():
    spec = toy()
    lo, hi = measure_cylinder(spec, CantorAddress((2,)))
    with workprec(96):
        direct = ipow(PL2.q(2), spec.alpha) / PL2.power_sum(spec.alpha, 2, 4)
        assert lo <= upper(direct) and lower(direct) <= hi


def test_measure_sums_to_one_over_toy_addresses():
    spec = toy()
    with workprec(96):
        total = to_iv(0)
        for d1 in range(2, 5):
            for d2 in range(650, 671):
                lo, hi = measure_cylinder(spec, CantorAddress((d1, d2)))
                total = total + _hull(lo, hi)
        assert lower(total) <= 1 <= upper(total)
        assert upper(total) - lower(total) < Fraction(1, 10**12)


def test_measure_child_masses_sum_to_parent():
    spec = toy()
    with workprec(96):
        parent_lo, parent_hi = measure_cylinder(spec, CantorAddress((3,)))
        total = to_iv(0)
        for d2 in range(650, 671):
            lo, hi = measure_cylinder(spec, CantorAddress((3, d2)))
            total = total + _hull(lo, hi)
        assert lower(total) <= parent_hi and parent_lo <= upper(total)


@pytest.mark.parametrize("digits", [5, (2.0,), (True,)])
def test_cantor_address_rejects_non_integer_digits(digits):
    with pytest.raises(InvalidAddressError):
        CantorAddress(digits)


def test_measure_invalid_addresses():
    spec = toy()
    with pytest.raises(InvalidAddressError):
        measure_cylinder(spec, CantorAddress((1,)))
    with pytest.raises(InvalidAddressError):
        measure_cylinder(spec, CantorAddress((2, 649)))
    with pytest.raises(InvalidAddressError):
        measure_cylinder(spec, CantorAddress((2, 650, 2)))


def test_level_volume_validation():
    spec = toy()
    with pytest.raises(ParameterRangeError):
        level_volume(spec, 0, Fraction(1, 2), PHI_SPLIT)
    with pytest.raises(ParameterRangeError):
        level_volume(spec, 3, Fraction(1, 2), PHI_SPLIT)
    with pytest.raises(ParameterRangeError):
        level_volume(spec, 1, Fraction(3, 2), PHI_SPLIT)
    with pytest.raises(ParameterRangeError):
        level_volume(spec, 1, Fraction(1, 2), "other")


def test_level_volume_s1_is_length():
    # at s = 1 both families reduce to the total level-1 length
    spec = toy()
    plo, phi = level_volume(spec, 1, Fraction(1), PHI_SPLIT)
    ulo, uhi = level_volume(spec, 1, Fraction(1), BLOCK_UNION)
    with workprec(96):
        direct = PL2.range_sum(2, 4)
        assert plo <= upper(direct) and lower(direct) <= phi
        assert ulo <= upper(direct) and lower(direct) <= uhi


LUR = QVectorSpec.luroth()


@functools.lru_cache(maxsize=None)
def luroth2() -> CantorSpec:
    # the levels `cantor build` finds for Luroth at alpha 3/5, delta 1/5, L 1/2
    return assemble_cantor(
        LUR, Fraction(3, 5), Fraction(1, 5), HALF_L, Fraction(1, 1000), 10,
        [(1024, 105), (157957915323280397, 57402101690981)],
    )


def geometric2() -> CantorSpec:
    # geometric windows never violate, so no build certifies one; the volume
    # reads only the levels' windows, whose gammas here are placeholders
    levels = [CantorLevel(k, M, Fraction(1), Fraction(1), Fraction(1, 1000)) for k, M in [(11, 11), (40, 20)]]
    return CantorSpec(GEO, Fraction(3, 5), Fraction(1, 5), HALF_L, 10, levels)


@pytest.mark.parametrize("make", [luroth2, geometric2], ids=["luroth", "geometric"])
def test_level_volume_at_one_encloses_the_exact_window_masses(make):
    # at s = 1 both families are the product of the window masses, which an
    # exact spec knows exactly
    spec = make()
    exact = Fraction(1)
    for n, lvl in enumerate(spec.levels, start=1):
        exact *= spec.qvec.range_sum(lvl.k, lvl.k + lvl.M)
        for family in (PHI_SPLIT, BLOCK_UNION):
            lo, hi = level_volume(spec, n, Fraction(1), family)
            assert lo <= exact <= hi
            assert hi - lo < exact / 10**20


def test_volume_product_matches_enumeration():
    # depth-2 toy: every address enumerated, matched against the product
    # form within 1e-10 for both families
    spec = toy()
    k1, M1 = 2, 2
    k2, M2 = 650, 20
    with workprec(96):
        for family in (PHI_SPLIT, BLOCK_UNION):
            for s in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
                lo, hi = level_volume(spec, 2, s, family)
                total = to_iv(0)
                for d1 in range(k1, k1 + M1 + 1):
                    if family == PHI_SPLIT:
                        for d2 in range(k2, k2 + M2 + 1):
                            total = total + ipow(PL2.q(d1) * PL2.q(d2), s)
                    else:
                        block = PL2.q(d1) * PL2.range_sum(k2, k2 + M2)
                        total = total + ipow(block, s)
                assert abs(lo - lower(total)) < Fraction(1, 10**10)
                assert abs(hi - upper(total)) < Fraction(1, 10**10)


def test_phi_split_exceeds_block_union():
    # gamma_n > (sum q)^{alpha-delta} forces the split volume above the
    # union volume; check across the [delta/2, delta] band at depth
    for spec in (toy(), built3()):
        for s in (spec.delta / 2, spec.delta * 3 / 4, spec.delta):
            plo, _ = level_volume(spec, spec.depth, s, PHI_SPLIT)
            _, uhi = level_volume(spec, spec.depth, s, BLOCK_UNION)
            assert plo > uhi


def test_local_dim_ratio_validation():
    spec = toy()
    addr = CantorAddress((2,))
    with pytest.raises(ParameterRangeError):
        local_dim_ratio(spec, addr, spec.delta)
    with pytest.raises(ParameterRangeError):
        local_dim_ratio(spec, addr, Fraction(0))
    with pytest.raises(InvalidAddressError):
        local_dim_ratio(spec, CantorAddress(()), spec.delta / 2)


def test_local_dim_ratio_bounds_sampled():
    rng = random.Random(20260816)
    for spec in (toy(), built3()):
        for level in range(1, spec.depth + 1):
            eps_n = spec.levels[level - 1].eps
            for t in (spec.delta / 4, spec.delta / 2, 3 * spec.delta / 4):
                for _ in range(10):
                    addr = sample_address(spec, level, rng)
                    rb = local_dim_ratio(spec, addr, t)
                    assert rb.value_hi <= rb.bound_lo
                    with workprec(96):
                        assert rb.bound_lo <= upper(ipow(eps_n, spec.delta - t))


def _reference_address_product(spec, addr, expo):
    """The address product as measure_cylinder and local_dim_ratio each ran
    it, with every gamma_n lifted endpoint by endpoint before the hull."""
    total = to_iv(1)
    for j, d in enumerate(addr.digits, 1):
        lvl = spec.levels[j - 1]
        total = total * ipow(spec.qvec.q(d), expo) / _hull(lvl.gamma_lo, lvl.gamma_hi)
    return total


@pytest.mark.parametrize("prec", [53, 96])
def test_address_products_match_the_reference_loop_bit_for_bit(prec):
    spec = built3()
    ranges = [spec.digit_range(n) for n in range(1, spec.depth + 1)]
    t = spec.delta / 2
    addrs = [
        CantorAddress(tuple(lo for lo, _ in ranges)),
        CantorAddress(tuple(hi for _, hi in ranges)),
        sample_address(spec, spec.depth, random.Random(prec)),
    ]
    for addr in addrs:
        with workprec(prec):
            mass = _reference_address_product(spec, addr, spec.alpha)
            ratio = _reference_address_product(spec, addr, spec.alpha - t)
            bound = ipow(spec.levels[-1].eps, spec.delta - t)
            assert cantor._address_mass(spec, addr, spec.alpha)._mpi_ == mass._mpi_
            assert cantor._address_mass(spec, addr, spec.alpha - t)._mpi_ == ratio._mpi_
        assert measure_cylinder(spec, addr, prec) == (lower(mass), upper(mass))
        rb = local_dim_ratio(spec, addr, t, prec)
        assert (rb.value_lo, rb.value_hi, rb.bound_lo) == (lower(ratio), upper(ratio), lower(bound))


def test_sample_address_respects_ranges():
    rng = random.Random(7)
    spec = built3()
    for _ in range(25):
        addr = sample_address(spec, 3, rng)
        spec.validate_address(addr)
    assert sample_address(spec, 2, random.Random(3)) == sample_address(
        spec, 2, random.Random(3)
    )


def test_crossing_estimates_and_gap():
    spec = built3()
    grid = [Fraction(i, 100) for i in range(1, 51)]
    report = dimension_gap(spec, grid)
    phi, union = report.phi_split, report.block_union
    assert phi.bracket == (Fraction(29, 100), Fraction(30, 100))
    assert union.bracket == (Fraction(7, 100), Fraction(8, 100))
    assert union.bracket[1] <= spec.delta / 2
    assert report.separation_certified
    assert report.gap_estimate > Fraction(1, 5)
    assert not phi.low_confidence
    assert phi.estimate == pytest.approx(0.2978, abs=5e-3)
    assert union.estimate == pytest.approx(0.0763, abs=5e-3)


def test_depth1_crossing_low_confidence():
    spec = build_cantor(PL2, ALPHA, DELTA, HALF_L, eps_first=Fraction(1, 1000), N=10, depth=1)
    grid = [Fraction(i, 100) for i in range(1, 60)]
    est = estimate_critical_exponent(spec, PHI_SPLIT, grid)
    assert est.low_confidence
    assert est.bracket is not None
    # a single union block has mass < 1, so its s-volume never crosses 1
    est_union = estimate_critical_exponent(spec, BLOCK_UNION, grid)
    assert est_union.low_confidence
    assert est_union.bracket is None and est_union.estimate is None


def test_crossing_grid_validation():
    spec = toy()
    with pytest.raises(ParameterRangeError):
        estimate_critical_exponent(spec, PHI_SPLIT, [])
    with pytest.raises(ParameterRangeError):
        estimate_critical_exponent(spec, PHI_SPLIT, [Fraction(1)])


def test_gap_report_json():
    spec = toy()
    grid = [Fraction(i, 50) for i in range(1, 40)]
    doc = dimension_gap(spec, grid).to_json()
    assert set(doc) == {"phi_split", "block_union", "separation_certified", "gap_estimate"}
    assert doc["phi_split"]["rows"]
