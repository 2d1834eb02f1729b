from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

import pytest
from mpmath import iv, libmp

from qinfty import rigor
from qinfty.errors import CapacityError, ParameterRangeError
from qinfty.expansion import CylinderAddress, decode
from qinfty.qvector import QVectorSpec, _normalizer
from qinfty.rigor import contains_value, enclosure_width, hull, ipow, lower, powsum, to_iv, upper, workprec


LUR = QVectorSpec.luroth()
GEO = QVectorSpec.geometric(Fraction(1, 2))
GEO3 = QVectorSpec.geometric(Fraction(1, 3))
PL2 = QVectorSpec.powerlaw(2)
CUSTOM = QVectorSpec.custom([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])


def _near(x, oracle: Fraction, slack: Fraction = Fraction(1, 10**24)) -> bool:
    return lower(x) <= oracle + slack and upper(x) >= oracle - slack


def _dec(text: str) -> Fraction:
    return Fraction(text)


# --- construction and validation --------------------------------------------

def test_geometric_requires_ratio_in_open_unit_interval():
    for bad in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ParameterRangeError):
            QVectorSpec.geometric(bad)


def test_powerlaw_requires_exponent_above_one():
    for bad in (Fraction(1), Fraction(1, 2), Fraction(0)):
        with pytest.raises(ParameterRangeError):
            QVectorSpec.powerlaw(bad)


def test_custom_rejects_wrong_mass():
    with pytest.raises(ParameterRangeError):
        QVectorSpec.custom([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ParameterRangeError):
        QVectorSpec.custom([Fraction(1, 2), Fraction(0), Fraction(1, 2)])
    with pytest.raises(ParameterRangeError):
        QVectorSpec.custom([])
    # reserve mass must stay below the final listed weight
    with pytest.raises(ParameterRangeError):
        QVectorSpec.custom([Fraction(3, 4), Fraction(1, 4)], pad_mass=Fraction(1, 2))


def test_numeric_modes():
    assert LUR.is_exact and GEO.is_exact and CUSTOM.is_exact
    assert not PL2.is_exact


@pytest.mark.parametrize("spec", [GEO, LUR, CUSTOM, PL2], ids=["geo", "luroth", "custom", "powerlaw"])
def test_queries_return_the_spec_value_kind(spec):
    kind = Fraction if spec.is_exact else iv.mpf
    cyl = decode(spec, CylinderAddress(()))
    values = [spec.head_sum(0), spec.range_sum(5, 4), spec.num(1), cyl.left, cyl.length]
    assert all(type(v) is kind for v in values)
    assert all(lower(v) == upper(v) for v in values)
    assert lower(spec.head_sum(0)) == 0 and lower(cyl.length) == 1


# --- individual weights ------------------------------------------------------

def test_luroth_weights_exact():
    assert LUR.q(0) == Fraction(1, 2)
    assert LUR.q(1) == Fraction(1, 6)
    assert [LUR.q(i) for i in range(5)] == [
        Fraction(1, (i + 1) * (i + 2)) for i in range(5)
    ]


def test_geometric_weights_exact():
    assert GEO.q(0) == Fraction(1, 2)
    assert GEO.q(3) == Fraction(1, 16)
    assert GEO3.q(2) == Fraction(1, 3) * Fraction(2, 3) ** 2


def test_custom_weights_and_pad():
    pad = Fraction(1, 2**20)
    assert CUSTOM.q(0) == Fraction(1, 6)
    assert CUSTOM.q(1) == Fraction(1, 3)
    assert CUSTOM.q(2) == Fraction(1, 2) - pad
    # beyond the listed entries the reserve mass halves at every step
    assert CUSTOM.q(3) == pad / 2
    assert CUSTOM.q(4) == pad / 4
    assert sum(CUSTOM.q(i) for i in range(3)) + CUSTOM.tail_sum(3) == 1


def test_custom_sums_match_brute_force_fraction_sums():
    rng = random.Random(7)
    raw = [rng.randint(1, 1000) for _ in range(1999)] + [1000]
    weights = [Fraction(r, sum(raw)) for r in raw]
    pad = Fraction(1, 2**20)
    spec = QVectorSpec.custom(weights, pad)
    k = len(weights)
    brute = weights[:-1] + [weights[-1] - pad] + [pad / 2 ** (i - k + 1) for i in range(k, k + 6)]
    head = Fraction(0)
    for n, w in enumerate(brute):
        assert spec.q(n) == w
        assert spec.head_sum(n) == head
        assert spec.tail_sum(n) == 1 - head
        head += w
    for n in (0, 1, 999, k - 1, k, k + 3):
        assert spec.tail_sum(n) == sum(brute[n:k]) + pad / 2 ** max(n - k, 0)
        assert spec.range_sum(n, k + 2) == sum(brute[n : k + 3])
    # the cached tables take no part in equality or hashing (memo keys)
    assert QVectorSpec.custom(weights, pad) == spec
    assert hash(QVectorSpec.custom(weights, pad)) == hash(spec)


def test_powerlaw_weight_enclosure():
    with workprec(96):
        q4 = PL2.q(4)
        assert _near(q4, _dec("0.0243170840741610651465310711703"))
        assert enclosure_width(q4) < Fraction(1, 10**12)


# --- head, tail, range sums --------------------------------------------------

def test_luroth_head_closed_form_matches_direct_sum():
    for n in (0, 1, 2, 7, 40):
        direct = sum(Fraction(1, (i + 1) * (i + 2)) for i in range(n))
        assert LUR.head_sum(n) == direct == Fraction(n, n + 1)
        assert LUR.tail_sum(n) == 1 - direct


def test_geometric_head_matches_direct_sum():
    for spec, r in ((GEO, Fraction(1, 2)), (GEO3, Fraction(1, 3))):
        for n in (0, 1, 5, 12):
            direct = sum(r * (1 - r) ** i for i in range(n))
            assert spec.head_sum(n) == direct
            assert spec.tail_sum(n) == (1 - r) ** n


def test_range_sum_consistency():
    assert LUR.range_sum(3, 9) == LUR.head_sum(10) - LUR.head_sum(3)
    assert GEO.range_sum(0, 4) == GEO.head_sum(5)


def test_powerlaw_tail_enclosure():
    with workprec(96):
        t = PL2.tail_sum(100)
        assert _near(t, _dec("0.00604897598260492834441272012858"))


def test_head_plus_tail_is_one_powerlaw():
    with workprec(96):
        s = PL2.head_sum(17) + PL2.tail_sum(17)
        assert contains_value(s, Fraction(1))


# --- max weight ---------------------------------------------------------------

def test_max_weight_exact_families():
    assert LUR.max_weight() == Fraction(1, 2)
    assert GEO.max_weight() == Fraction(1, 2)
    assert GEO3.max_weight() == Fraction(1, 3)
    assert CUSTOM.max_weight() == Fraction(1, 2) - Fraction(1, 2**20)


def test_max_weight_powerlaw():
    with workprec(96):
        assert _near(PL2.max_weight(), _dec("0.607927101854026628663276779258"))


def _scanned_max_weight(spec: QVectorSpec):
    """The tail-cutoff scan max_weight ran on every family: the running
    maximum of the weights until a tail is certified below it."""
    best = spec.q(0)
    for i in range(1, 10**6 + 1):
        if rigor.decide_lt(spec.tail_sum(i), best) is True:
            return best
        best = rigor.max_num(best, spec.q(i))


@pytest.mark.parametrize("bits", [16, 24, 96])
@pytest.mark.parametrize("spec", [
    QVectorSpec.geometric(Fraction(1, 2)), QVectorSpec.geometric(Fraction(1, 3)),
    QVectorSpec.geometric(Fraction(1, 10)), QVectorSpec.luroth(),
    QVectorSpec.powerlaw(2), QVectorSpec.powerlaw(3), QVectorSpec.powerlaw(Fraction(5, 2)),
    CUSTOM,
    # the first pad weight, 2/5, is the largest
    QVectorSpec.custom([Fraction(1, 10), Fraction(9, 10)], pad_mass=Fraction(4, 5)),
], ids=["geometric1/2", "geometric1/3", "geometric1/10", "luroth", "powerlaw2", "powerlaw3",
        "powerlaw5/2", "custom", "custom-pad-max"])
def test_max_weight_is_the_scanned_maximum(spec, bits):
    with workprec(bits):
        got, scanned = spec.max_weight(), _scanned_max_weight(spec)
        assert type(got) is type(scanned) and rigor.endpoints(got) == rigor.endpoints(scanned)


def test_max_weight_of_a_shallow_power_law_reads_no_tail(monkeypatch):
    # its tail falls below q_0 only near index 10^20, so a scan would run to its cap
    spec = QVectorSpec.powerlaw(Fraction(11, 10))

    def no_tail(self, n):
        raise AssertionError(f"tail_sum({n}) read")

    monkeypatch.setattr(QVectorSpec, "tail_sum", no_tail)
    with workprec(96):
        assert rigor.endpoints(spec.max_weight()) == rigor.endpoints(spec.q(0))


# --- power sums ----------------------------------------------------------------

def test_power_tail_convergence_predicate():
    assert GEO.power_tail_converges(Fraction(1, 10))
    assert LUR.power_tail_converges(Fraction(51, 100))
    assert not LUR.power_tail_converges(Fraction(1, 2))
    assert PL2.power_tail_converges(Fraction(51, 100))
    assert not PL2.power_tail_converges(Fraction(1, 2))
    assert CUSTOM.power_tail_converges(Fraction(1, 100))


def test_power_sum_at_one_is_tail_sum():
    # power sums are enclosures on every family, s = 1 included
    with workprec(96):
        for spec in (LUR, GEO, PL2, CUSTOM):
            tail, head = spec.power_sum(Fraction(1), 5), spec.power_sum(Fraction(1), 0, 4)
            assert not isinstance(tail, Fraction) and not isinstance(head, Fraction)
            if spec.is_exact:
                assert contains_value(tail, spec.tail_sum(5))
                assert contains_value(head, spec.head_sum(5))
            else:  # q_i^1 is q_i, so the sums of q_i's own bits
                assert tail._mpi_ == spec.tail_sum(5)._mpi_
                assert head._mpi_ == spec.head_sum(5)._mpi_


def test_power_sum_geometric_closed_form():
    # s = 2: sum (r (1-r)^i)^2 over all i equals r^2 / (1 - (1-r)^2)
    with workprec(96):
        full = GEO.power_sum(Fraction(2), 0)
        assert contains_value(full, Fraction(1, 3))
        direct = sum((Fraction(1, 2) ** (i + 1)) ** 2 for i in range(6))
        ranged = GEO.power_sum(Fraction(2), 0, 5)
        assert contains_value(ranged, direct)


def test_power_sum_geometric_half_exponent():
    with workprec(96):
        full = GEO.power_sum(Fraction(1, 2), 0)
        assert _near(full, _dec("2.41421356237309504880168872421"))


def test_power_sum_luroth_oracle():
    # the frozen bracket is rigorous: 20001 exact-base interval terms plus a
    # monotone two-sided tail comparison against integer power sums
    bracket_lo = _dec("1.675557798747498772229392")
    bracket_hi = _dec("1.675557930052879562765611")
    with workprec(96):
        full = LUR.power_sum(Fraction(4, 5), 0)
        assert lower(full) <= bracket_hi and bracket_lo <= upper(full)
        assert enclosure_width(full) < Fraction(1, 10**6)
        part = LUR.power_sum(Fraction(4, 5), 3, 9)
        assert _near(part, _dec("0.330335864083858230041461100629"), Fraction(1, 10**22))


def test_power_sum_luroth_long_range_brackets_direct():
    # squeeze bracket must contain a directly summed interval oracle
    s = Fraction(4, 5)
    with workprec(96):
        direct_lo = Fraction(0)
        direct_hi = Fraction(0)
        from qinfty.rigor import endpoints, ipow, to_iv

        acc = to_iv(0)
        for i in range(700, 1501):
            acc += ipow(to_iv(Fraction(1, (i + 1) * (i + 2))), s)
        direct_lo, direct_hi = endpoints(acc)
        x = LUR.power_sum(s, 700, 1500)
        assert lower(x) <= direct_lo and upper(x) >= direct_hi


def test_power_sum_powerlaw_oracle():
    with workprec(96):
        full = PL2.power_sum(Fraction(4, 5), 0)
        assert _near(full, _dec("1.53501600806294801343820616887"), Fraction(1, 10**20))


def test_power_sum_custom_oracle():
    with workprec(96):
        full = CUSTOM.power_sum(Fraction(1, 2), 0)
        assert _near(full, _dec("1.69506229692214355136309647666"), Fraction(1, 10**20))


def _old_luroth_direct(s, a, b):
    """Luroth's direct power-sum loop before it read the weight-power memo."""
    total = to_iv(0)
    for i in range(a, b + 1):
        total = total + ipow(Fraction(1, (i + 1) * (i + 2)), s)
    return total


def _old_luroth_power_sum(s, a, b=None):
    if b is not None and b - a + 1 <= 600:
        return _old_luroth_direct(s, a, b)
    head = _old_luroth_direct(s, a, a + 599)
    start = a + 600
    base = powsum(2 * s, Fraction(3, 2), start, b)
    z = Fraction(1, (2 * start + 3) ** 2)
    return head + hull(base, base * ipow(1 - z, -s))


def _old_custom_power_sum(spec, s, a, b=None):
    """The custom branch of power_sum before its head read the memo."""
    eff = spec._effective_weights
    k = len(eff)
    total = to_iv(0)
    for i in range(a, min(k, b + 1 if b is not None else k)):
        total = total + ipow(eff[i], s)
    pad_from = max(a, k)
    if b is None or b >= k:
        u = ipow(Fraction(1, 2), s)
        first = ipow(spec.pad_mass * Fraction(1, 2 ** (pad_from - k + 1)), s)
        if b is None:
            total = total + first / (1 - u)
        else:
            total = total + first * (1 - ipow(u, b - pad_from + 1)) / (1 - u)
    return total


_SHUFFLED = QVectorSpec.custom([Fraction(1, 8), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])


@pytest.mark.parametrize("bits", [53, 96, 192])
@pytest.mark.parametrize("s", [Fraction(9, 10), Fraction(2, 5), Fraction(3, 2)])
def test_power_sums_same_with_cold_and_warm_weight_power_memo(clear_memos, bits, s):
    ranges = [(0, 0), (3, 40), (100, 699), (20, 1500), (7, None)]
    with workprec(bits):
        for a, b in ranges:
            if b is None and not LUR.power_tail_converges(s):
                continue
            clear_memos()
            cold = LUR.power_sum(s, a, b)._mpi_
            assert LUR.power_sum(s, a, b)._mpi_ == cold
            assert _old_luroth_power_sum(s, a, b)._mpi_ == cold
        for spec in (CUSTOM, _SHUFFLED):
            for a, b in [(0, 1), (1, 2), (0, 9), (2, None), (5, None)]:
                clear_memos()
                cold = spec.power_sum(s, a, b)._mpi_
                assert spec.power_sum(s, a, b)._mpi_ == cold
                assert _old_custom_power_sum(spec, s, a, b)._mpi_ == cold


def _bits_of(x):
    """A sum's exact value: the Fraction itself, or an enclosure's endpoint tuple."""
    return x if isinstance(x, Fraction) else x._mpi_


# _SHUFFLED has four user weights, so indices from 4 on are its geometric pad;
# Luroth sums longer than 600 terms add the squeezed tail to a memoized head
_TAIL_INDICES = (0, 1, 3, 4, 7, 50, 1000)
_POWER_RANGES = [(0, 0), (3, 40), (0, 9), (5, 30), (100, 699), (20, 1500), (2, None), (7, None)]


@pytest.mark.parametrize("bits", [16, 53, 96, 192])
@pytest.mark.parametrize("spec", [LUR, GEO3, PL2, _SHUFFLED], ids=["luroth", "geometric", "powerlaw2", "custom"])
def test_sum_memos_give_the_unmemoized_bits(monkeypatch, clear_memos, spec, bits):
    powers = [(s, a, b) for s in (Fraction(9, 10), Fraction(2, 5), Fraction(1), Fraction(3, 2))
              for a, b in _POWER_RANGES if b is not None or spec.power_tail_converges(s)]
    with workprec(bits):
        cold = [_bits_of(spec.tail_sum(n)) for n in _TAIL_INDICES]
        cold_powers = [_bits_of(spec.power_sum(*key)) for key in powers]
        assert [_bits_of(spec.tail_sum(n)) for n in _TAIL_INDICES] == cold
        assert [_bits_of(spec.power_sum(*key)) for key in powers] == cold_powers
        # the method bodies alone, their nested sum calls unmemoized too
        monkeypatch.setattr(QVectorSpec, "tail_sum", QVectorSpec.tail_sum.__wrapped__)
        monkeypatch.setattr(QVectorSpec, "power_sum", QVectorSpec.power_sum.__wrapped__)
        assert [_bits_of(spec.tail_sum(n)) for n in _TAIL_INDICES] == cold
        assert [_bits_of(spec.power_sum(*key)) for key in powers] == cold_powers


def test_keyword_call_gives_the_positional_bits(clear_memos):
    s = Fraction(9, 10)
    with workprec(53):
        for spec in (LUR, GEO3, PL2, _SHUFFLED):
            for a, b in [(5, 50), (5, 700), (2, None)]:
                positional = spec.power_sum(s, a, b)._mpi_
                assert spec.power_sum(s, a, b=b)._mpi_ == positional
                assert spec.power_sum(s=s, a=a, b=b)._mpi_ == positional
            assert _bits_of(spec.tail_sum(n=7)) == _bits_of(spec.tail_sum(7))


def test_spec_hashes_its_fields_once(monkeypatch):
    halves = [Fraction(1, 2**i) for i in range(1, 2000)]
    spec, twin = (QVectorSpec.custom(halves + [halves[-1]], Fraction(1, 2**2100)) for _ in range(2))
    hashed = []
    fraction_hash = Fraction.__hash__

    def spy(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", spy)
    first = hash(spec)
    assert len(hashed) >= 2000
    hashed.clear()
    assert hash(spec) == first
    assert hashed == []
    assert twin == spec and hash(twin) == first


@pytest.mark.parametrize("spec", [LUR, GEO3, PL2, _SHUFFLED], ids=["luroth", "geometric", "powerlaw2", "custom"])
def test_weight_power_is_ipow_of_the_weight(spec):
    # the ends and the starts of 32-index blocks, and the level-2 offset of the
    # README Cantor build, whose geometric or pad weight would need a
    # denominator of about 10^11 digits, so it is read only where q_i is small
    indices = [0, 1, 3, 4, 31, 32, 33, 50, 4095, 4096]
    if spec in (LUR, PL2):
        indices.append(391229168928)
    for bits in (53, 96):
        with workprec(bits):
            for i in indices:
                powers = spec.weight_power_block(i // 32, Fraction(2, 5))[0]
                assert powers[i % 32] == ipow(spec.q(i), Fraction(2, 5))._mpi_


def _upper_sum(ends) -> tuple:
    """0 + e_1 + e_2 + ... of raw mpfs, each add rounded up, in order."""
    return reduce(rigor.upper_adder(), ends, libmp.fzero)


@pytest.mark.parametrize("spec", [LUR, GEO3, PL2, _SHUFFLED], ids=["luroth", "geometric", "powerlaw2", "custom"])
@pytest.mark.parametrize("bits", [16, 24, 64])
def test_power_block_tops_are_the_sums_of_their_upper_ends(clear_memos, spec, bits):
    s = Fraction(2, 5)
    with workprec(bits):
        for j in (0, 1, 3):
            powers, heads, tails = spec.weight_power_block(j, s)
            ups = [p[1] for p in powers]
            # a full block's total keeps its index-order bits; each edge
            # total is its part added from that edge
            assert heads[32] == _upper_sum(ups)
            assert list(heads) == [_upper_sum(ups[:n]) for n in range(33)]
            assert list(tails) == [_upper_sum(reversed(ups[n:])) for n in range(33)]
        # aligned, unaligned, single-block and empty ranges
        for a, b in [(0, 31), (32, 127), (0, 95), (5, 70), (33, 40), (31, 32), (7, 7), (9, 8),
                     (40, 3), (32, 40), (40, 63), (1, 30)]:
            powers = list(spec.raw_weight_powers(s, a, b))
            assert len(powers) == max(b - a + 1, 0)
            top = spec.raw_power_top(s, a, b)
            assert rigor.frac_of_raw(top) >= sum((rigor.frac_of_raw(p[1]) for p in powers), Fraction(0))
            if a // 32 == b // 32 and a % 32 and b % 32 != 31:
                # strictly inside one block: the index-order sum
                assert top == _upper_sum(p[1] for p in powers)
        # a part of a block that touches one of its edges adds that edge's total
        tails, heads = spec.weight_power_block(1, s)[2], spec.weight_power_block(2, s)[1]
        assert spec.raw_power_top(s, 40, 63) == tails[8]
        assert spec.raw_power_top(s, 40, 70) == rigor.upper_adder()(tails[8], heads[7])


def test_empty_power_ranges_compute_no_block(clear_memos):
    s = Fraction(2, 5)
    with workprec(53):
        assert list(LUR.raw_weight_powers(s, 9, 8)) == []
        assert LUR.raw_power_top(s, 9, 8) == libmp.fzero
    assert QVectorSpec.weight_power_block.cache_info().currsize == 0


@pytest.mark.parametrize("bits", [53, 96])
def test_normalizer_is_one_over_zeta(clear_memos, bits):
    with workprec(bits):
        for m0 in (Fraction(2), Fraction(3, 2)):
            assert _normalizer(m0)._mpi_ == (1 / powsum(m0, Fraction(0), 1, None))._mpi_


def test_weights_nonincreasing_from():
    for spec in (LUR, GEO, GEO3):
        assert all(spec.weights_nonincreasing_from(k) for k in range(5))
        assert all(spec.q(i) >= spec.q(i + 1) for i in range(40))
    assert PL2.weights_nonincreasing_from(0)
    # a custom list is only known to decrease along its geometric pad
    assert [_SHUFFLED.weights_nonincreasing_from(k) for k in range(6)] == [False] * 4 + [True] * 2
    assert all(_SHUFFLED.q(i) > _SHUFFLED.q(i + 1) for i in range(4, 40))


def test_power_sum_divergent_raises():
    with workprec(96):
        with pytest.raises(CapacityError):
            LUR.power_sum(Fraction(1, 2), 0)
        with pytest.raises(CapacityError):
            PL2.power_sum(Fraction(1, 2), 0)


# --- serialization --------------------------------------------------------------

def test_json_roundtrip_all_families():
    for spec in (LUR, GEO, GEO3, PL2, CUSTOM):
        doc = spec.to_json()
        back = QVectorSpec.from_json(doc)
        assert back == spec


def test_json_plain_number_exponent_accepted():
    doc = {"family": "powerlaw", "m0": 2}
    spec = QVectorSpec.from_json(doc)
    assert spec == PL2
