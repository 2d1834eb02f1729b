from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from qinfty import covering, rigor
from qinfty.covering import (
    Block,
    CoverParams,
    Lemma1Partition,
    alpha_volume,
    block_bounds,
    block_length,
    cover_interval,
    kappa,
    lemma1_partition,
)
from qinfty.errors import BoundaryAmbiguityError, ParameterRangeError, Undecided
from qinfty.expansion import UNIT_END, CylinderAddress, QRational, right_end
from qinfty.qvector import QVectorSpec
from qinfty.rigor import ipow, lower, to_iv, upper, workprec

from cover_check import coverage_exact


LUR = QVectorSpec.luroth()
GEO = QVectorSpec.geometric(Fraction(1, 2))
PL2 = QVectorSpec.powerlaw(2)

HALF_PARAMS = CoverParams(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10**6))


def _blocks_as_tuples(cert):
    return [(blk.prefix.digits, blk.first, blk.last) for blk in cert.blocks]


# --- Block and alpha_volume ---------------------------------------------------

def test_block_validation():
    with pytest.raises(ParameterRangeError):
        Block(CylinderAddress(()), 3, 2)
    with pytest.raises(ParameterRangeError):
        Block(CylinderAddress(()), -1, 2)


def test_block_length_luroth():
    blk = Block(CylinderAddress((0,)), 2, 4)
    # (1/2) * (q2 + q3 + q4) = (1/2) * (1/12 + 1/20 + 1/30)
    assert block_length(LUR, blk) == Fraction(1, 12)


def test_alpha_volume_length_at_one():
    blk = Block(CylinderAddress(()), 0, 0)
    vol = alpha_volume(LUR, [blk], Fraction(1))
    assert (lower(vol), upper(vol)) == (Fraction(1, 2), Fraction(1, 2))


def test_alpha_volume_empty():
    assert alpha_volume(LUR, [], Fraction(1, 2)) == 0


def test_alpha_volume_sqrt_oracle():
    blk = Block(CylinderAddress(()), 0, 1)
    with workprec(96):
        vol = alpha_volume(LUR, [blk], Fraction(1, 2))
        oracle = Fraction("0.81649658092772603273242802490196")  # sqrt(2/3)
        assert upper(vol) >= oracle - Fraction(1, 10**25)
        assert upper(vol) - oracle < Fraction(1, 10**10)


# --- the greedy partition ----------------------------------------------------------

def test_partition_reads_spec_from_its_offset():
    part = Lemma1Partition(LUR, 2, Fraction(1, 2))
    n1, n2 = part.boundary(1), part.boundary(2)
    assert part.tail_at_head == upper(LUR.tail_sum(2 + n1 + 1))
    assert part.group_mass(0) == LUR.range_sum(2, 2 + n1)
    assert part.group_mass(1) == LUR.range_sum(2 + n1 + 1, 2 + n2)


def test_partition_refuses_negative_offset():
    with pytest.raises(ParameterRangeError):
        lemma1_partition(LUR, -1, Fraction(1, 2))


def test_partition_shared_at_one_precision_only(clear_memos):
    part = lemma1_partition(LUR, 3, Fraction(1, 2))
    assert lemma1_partition(LUR, 3, Fraction(1, 2)) is part
    with workprec(96):
        wide = lemma1_partition(LUR, 3, Fraction(1, 2))
        assert lemma1_partition(LUR, 3, Fraction(1, 2)) is wide
    assert wide is not part
    assert (part.prec, wide.prec) == (53, 96)


def test_lemma1_pinned_dyadic():
    # dyadic weights a_i = 2^-(i+1) at alpha = 1/2 pin the head boundary at 3
    part = lemma1_partition(GEO, 0, Fraction(1, 2))
    assert part.boundary(1) == 3
    assert part.verify(10)


def test_lemma1_pinned_dyadic_oracle_inequality():
    # direct evaluation of the defining inequality for n in {1, 2, 3}
    with workprec(96):
        for n, expected in ((1, False), (2, False), (3, True)):
            head = sum(Fraction(1, 2 ** (i + 1)) for i in range(n + 1))
            tail = 1 - head
            lhs = ipow(tail, Fraction(1, 2)) / (1 - ipow(Fraction(1, 2), Fraction(1, 2)))
            rhs = ipow(head, Fraction(1, 2))
            assert (upper(lhs) <= lower(rhs)) is expected


def test_lemma1_head_dominant_stream():
    spec = QVectorSpec.geometric(Fraction(999999, 1000000))
    part = lemma1_partition(spec, 0, Fraction(1, 2))
    assert part.boundary(1) == 0


def test_lemma1_luroth_offsets_certificates():
    for offset in (0, 10, 100):
        for alpha in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            part = lemma1_partition(LUR, offset, alpha)
            assert part.verify(8), (offset, alpha)


def test_lemma1_boundaries_strictly_increase():
    part = lemma1_partition(LUR, 0, Fraction(3, 10))
    bounds = [part.boundary(k) for k in range(1, 12)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_lemma1_group_masses_halve():
    part = lemma1_partition(LUR, 0, Fraction(1, 2))
    target = part.tail_at_head
    for m in range(1, 10):
        assert upper(part.group_mass(m)) <= target / 2 ** (m - 1)


# --- kappa ------------------------------------------------------------------------

def test_kappa_brute_force_oracle():
    w_star = Fraction("5.305007982786393288215409")  # max at s = 14
    k_star = Fraction("172.2222102154935772979958")
    with workprec(96):
        w, k = kappa(GEO, Fraction(1, 2), Fraction(1, 5))
        assert abs(upper(w) - w_star) < Fraction(1, 10**20)
        assert abs(upper(k) - k_star) < Fraction(1, 10**18)


def test_kappa_same_for_equal_max_weight():
    with workprec(96):
        w1, k1 = kappa(GEO, Fraction(1, 2), Fraction(1, 5))
        w2, k2 = kappa(LUR, Fraction(1, 2), Fraction(1, 5))
        assert upper(w1) == upper(w2)
        assert upper(k1) == upper(k2)


def test_kappa_finite_near_alpha():
    with workprec(96):
        _, k = kappa(GEO, Fraction(1, 2), Fraction(49, 100))
        assert upper(k) < 10**6


def test_kappa_rejects_bad_parameters():
    with pytest.raises(ParameterRangeError):
        kappa(GEO, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ParameterRangeError):
        kappa(GEO, Fraction(1, 2), Fraction(0))


# --- cover_interval: pinned examples ----------------------------------------------

def test_cover_rank2_endpoints_single_block():
    cert = cover_interval(LUR, QRational.of((0, 2)), QRational.of((0, 5)), HALF_PARAMS)
    assert _blocks_as_tuples(cert) == [((0,), 2, 4)]
    assert cert.residuals == ()
    # alpha-volume is exactly sqrt((1/2)(q2+q3+q4)) = sqrt(1/12)
    with workprec(96):
        oracle = ipow(Fraction(1, 12), Fraction(1, 2))
        assert cert.alpha_volume_upper >= lower(oracle)
        assert cert.alpha_volume_upper - upper(oracle) <= 0
    assert cert.alpha_volume_upper <= cert.bound_rhs


def test_cover_single_cylinder_all_families():
    custom = QVectorSpec.custom([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
    for spec in (LUR, GEO, PL2, custom):
        cert = cover_interval(
            spec, QRational.zero(), right_end(CylinderAddress((0,))), HALF_PARAMS
        )
        assert _blocks_as_tuples(cert) == [((), 0, 0)]
        assert cert.residuals == ()


def test_cover_geometric_mixed_interval():
    a, b = QRational.of((1, 1, 1)), QRational.of((1, 3))
    cert = cover_interval(GEO, a, b, HALF_PARAMS)
    shapes = _blocks_as_tuples(cert)
    assert ((1,), 2, 2) in shapes
    assert any(blk.prefix.digits == (1, 1) for blk in cert.blocks)
    assert cert.residual_total_upper() < Fraction(1, 10**6)
    assert cert.alpha_volume_upper <= cert.bound_rhs
    assert coverage_exact(GEO, cert, a, b)
    # the rank-2 tail partition's head block is recorded before merging
    assert any(k == 2 for k, _ in cert.rank_heads)


def test_cover_interior_b_emits_deep_cylinder():
    a, b = QRational.of((0, 2)), QRational.of((0, 3, 0, 0, 5))
    cert = cover_interval(LUR, a, b, HALF_PARAMS)
    shapes = _blocks_as_tuples(cert)
    assert ((0, 3, 0), 0, 0) in shapes  # the deep cylinder past b's zeros
    assert cert.j1_length_upper is not None
    # |J1| <= |E| / q0
    e_hi = cert.interval_length[1]
    assert cert.j1_length_upper <= e_hi / LUR.q(0)
    assert coverage_exact(LUR, cert, a, b)


def test_cover_until_cylinder_right_end():
    a, b = QRational.of((0, 2)), QRational.of((1,))
    cert = cover_interval(LUR, a, b, HALF_PARAMS)
    assert coverage_exact(LUR, cert, a, b)
    assert cert.residual_total_upper() <= Fraction(1, 10**6)
    assert cert.blocks[0].prefix.digits == (0,)
    assert cert.blocks[0].first == 2


def test_cover_with_residuals_only():
    # the whole interval fits the residual budget, so no finite block remains
    a, b = QRational.of((5, 5, 4, 4, 4)), QRational.of((5, 5, 5))
    for params in (HALF_PARAMS, CoverParams(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10**6))):
        cert = cover_interval(GEO, a, b, params)
        assert cert.blocks == ()
        assert cert.residual_total_upper() <= params.eps_res
        assert cert.alpha_volume_upper <= cert.bound_rhs
        assert coverage_exact(GEO, cert, a, b)


def test_cover_rejects_reversed_interval():
    from qinfty.errors import InvalidIntervalError

    with pytest.raises(InvalidIntervalError):
        cover_interval(LUR, QRational.of((2,)), QRational.of((1,)), HALF_PARAMS)


def test_cover_params_validation():
    with pytest.raises(ParameterRangeError):
        CoverParams(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ParameterRangeError):
        CoverParams(Fraction(1, 2), Fraction(1, 5), Fraction(0))
    with pytest.raises(ParameterRangeError):
        CoverParams(Fraction(1, 2), Fraction(1, 5), mode="eager")


# --- randomized invariants ----------------------------------------------------------

def _random_qr(rng, max_rank=5, max_digit=6):
    k = rng.randint(0, max_rank)
    return QRational.of(tuple(rng.randint(0, max_digit) for _ in range(k)))


def test_cover_random_suite_exact_families():
    rng = random.Random(987)
    checked = 0
    while checked < 60:
        spec = LUR if rng.random() < 0.5 else GEO
        a, b = _random_qr(rng), _random_qr(rng)
        if rng.random() < 0.1:
            b = UNIT_END
        if b is not UNIT_END and not a < b:
            continue
        checked += 1
        cert = cover_interval(spec, a, b, HALF_PARAMS)
        assert coverage_exact(spec, cert, a, b)
        assert cert.alpha_volume_upper <= cert.bound_rhs
        assert cert.residual_total_upper() <= HALF_PARAMS.eps_res
        with workprec(96):
            e_hi = cert.interval_length[1]
            rp_bound = (1 + ipow(spec.q(0), -HALF_PARAMS.alpha)) * ipow(
                e_hi, HALF_PARAMS.alpha
            )
            if cert.right_part_volume_upper is not None:
                assert cert.right_part_volume_upper <= upper(rp_bound)
            if cert.j1_length_upper is not None:
                assert cert.j1_length_upper <= upper(to_iv(e_hi) / to_iv(spec.q(0)))
            qmax = spec.max_weight()
            for k_off, head in cert.rank_heads:
                if k_off == 0:
                    continue
                lhs = upper(ipow(block_length(spec, head), HALF_PARAMS.alpha))
                rhs = lower(
                    ipow(e_hi, HALF_PARAMS.alpha - HALF_PARAMS.delta)
                    * ipow(qmax, (k_off - 1) * HALF_PARAMS.delta)
                )
                assert lhs <= rhs


def test_cover_blocks_are_consecutive_siblings():
    rng = random.Random(31)
    for _ in range(20):
        a, b = _random_qr(rng), _random_qr(rng)
        if not a < b:
            continue
        cert = cover_interval(LUR, a, b, HALF_PARAMS)
        for blk in cert.blocks:
            assert 0 <= blk.first <= blk.last


def test_cover_powerlaw_interval_mode():
    a, b = QRational.of((1, 2)), QRational.of((2, 1))
    cert = cover_interval(PL2, a, b, HALF_PARAMS)
    assert cert.alpha_volume_upper <= cert.bound_rhs
    assert cert.residual_total_upper() <= HALF_PARAMS.eps_res
    # outer coverage check with rational endpoint bounds
    pieces = []
    with workprec(96):
        for blk in cert.blocks:
            blo, bhi = block_bounds(PL2, blk)
            pieces.append((upper(blo), lower(bhi)))
        pieces += list(cert.residuals)
        pieces.sort()
        cur = upper(a.value(PL2))
        target = lower(b.value(PL2))
    for left, right in pieces:
        if left > cur:
            break
        cur = max(cur, right)
    assert cur >= target


# the first rung fails and escalates: at 16 bits a tail enclosure reaches
# below zero under a fractional power, at 20-32 bits a boundary search
# hits its cap
@pytest.mark.parametrize("bits", [16, 20, 24, 32])
def test_cover_escalates_past_a_failing_first_rung(bits):
    a, b = QRational.of((1, 2)), QRational.of((2, 1))
    cert = cover_interval(PL2, a, b, HALF_PARAMS, prec=bits)
    assert cert.alpha_volume_upper <= cert.bound_rhs
    with workprec(96):
        assert coverage_exact(PL2, cert, a, b)


# a low first rung must not leave the lazy stream with a partition whose
# later boundaries its precision cannot certify
@pytest.mark.parametrize("bits", [16, 20, 24])
def test_cover_lazy_stream_on_an_enclosure_spec_past_a_failing_first_rung(bits):
    a, b = QRational.of((1, 2)), QRational.of((2, 1))
    params = CoverParams(Fraction(1, 2), Fraction(1, 5), mode="lazy_stream")
    cert = cover_interval(PL2, a, b, params, prec=bits)
    assert cert.alpha_volume_upper <= cert.bound_rhs
    blocks = list(itertools.islice(cert.stream, 40))
    assert len(set(blocks)) == 40


def test_boundary_ambiguity_is_undecided():
    assert issubclass(BoundaryAmbiguityError, Undecided)


def test_cover_lazy_stream_mode():
    params = CoverParams(Fraction(1, 2), Fraction(1, 5), mode="lazy_stream")
    cert = cover_interval(LUR, QRational.zero(), UNIT_END, params)
    assert cert.residuals == ()
    blocks = list(itertools.islice(cert.stream, 40))
    assert blocks[0] == Block(CylinderAddress(()), 0, 0)
    pieces = sorted(block_bounds(LUR, blk) for blk in blocks)
    cur = Fraction(0)
    for left, right in pieces:
        if left <= cur:
            cur = max(cur, right)
    assert cur > Fraction(99, 100)
    assert cert.alpha_volume_upper <= cert.bound_rhs


def test_cover_certificate_json_roundtrip_shape():
    cert = cover_interval(LUR, QRational.of((0, 2)), QRational.of((0, 5)), HALF_PARAMS)
    doc = cert.to_json()
    assert doc["blocks"] == [{"prefix": [0], "first": 2, "last": 4}]
    assert doc["residuals"] == []
    assert doc["params"]["mode"] == "certified_residual"
    assert Block.from_json(doc["blocks"][0]) == cert.blocks[0]


_PIN_CUSTOM = QVectorSpec.custom([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
_PIN_CASES = [
    ("luroth", LUR, (1, 2, 3), (2, 1)),
    ("geometric", GEO, (1, 1, 1), (1, 3)),
    ("powerlaw", PL2, (1, 2), (2, 1)),
    ("custom", _PIN_CUSTOM, (0, 1, 2), (2,)),
    ("luroth-j1", LUR, (0, 2), (0, 3, 0, 0, 5)),
    ("luroth-right-tail", LUR, (0, 2), (1,)),
    ("geometric-single-cylinder", GEO, (1,), (2,)),
    ("luroth-b-end", LUR, (0, 0, 5), None),
    ("luroth-no-tail", LUR, (1,), (3,)),
]
# sha256 of each certificate's canonical JSON, rank heads, right-part and
# J1 bounds and first 40 stream blocks, recorded before the cover assembly
# was rewritten; any change to the construction shows up here
_PIN_DIGESTS = {
    ("luroth", "certified_residual"): "8861a2ab6ef19ee0a0c65cb8dba77361dfd1f3de6b7d83c971414d9430469228",
    ("luroth", "lazy_stream"): "e74aeb96ba5ea5b786394a08307fbf0b2709a1ed3098660d595541c233954927",
    ("geometric", "certified_residual"): "fd247a3bb8684780cd73003d89daf4da907deeb76ea8df076d572027cb25ed30",
    ("geometric", "lazy_stream"): "a7c390ebdd57eb63d305125f44f9c7c509266392cd48ab78aa17c7ead4dbf826",
    ("powerlaw", "certified_residual"): "447e14f11f3f4353fedd137fa48f04594f93e9a2e4bd933a2bdd8b66d97f9a0a",
    ("powerlaw", "lazy_stream"): "5653241b8b571aac342fe1af29374ea22ba5f1acc16373225b41ca44bf83de89",
    ("custom", "certified_residual"): "ffa4770dc015c0e9bcd88a8cb135ba36c4031961cca7724549ab455d67a5e205",
    ("custom", "lazy_stream"): "f26a393a2df39d8746f9d62c02d8518f5821cfca16fc94a9aca479b83d0ee941",
    ("luroth-j1", "certified_residual"): "0fcc3c73ecbdb2c6097dd01cde2ce22bd705eb4cd56cb2d352c8345a2b89b2d6",
    ("luroth-j1", "lazy_stream"): "1c13518db14d5f241ba3ea7fd884ea384d74cd33d49fea41b6881d4a7a849845",
    ("luroth-right-tail", "certified_residual"): "4545aa008fb373a00e66af750ca7b9338525d60512964becea569fa647985df7",
    ("luroth-right-tail", "lazy_stream"): "ee8525207ac39a6810398c1f53eeb085e18e37d8c1b95c236ef6a2002068fc99",
    ("geometric-single-cylinder", "certified_residual"): "80e052d35aafcebae65ece86befdf84cb9f6b8a0898cc6a0b1e80ac1d2c0d0e0",
    ("geometric-single-cylinder", "lazy_stream"): "4bf1c44f6e3f13818c45cfec7724014e8ea2597b2bcf7c196944cde0b94d164d",
    ("luroth-b-end", "certified_residual"): "52c448894df30c9833ceb54e04bc5bd805e7fbabe37ae8d73835e0e27cdc3a5a",
    ("luroth-b-end", "lazy_stream"): "e84a20eda4b6f247ad7bb31a61463bc509e4d408e0d4db6f6620a62f8eeefad1",
    ("luroth-no-tail", "certified_residual"): "7fe962a99c8e9ef7ef52da090a39d4f07771ee3fdd3195ae479ae863ac8d90a5",
    ("luroth-no-tail", "lazy_stream"): "e43cf771514728fd0d386413807d0cacd72b479ba9c279e63861a036029ea346",
}


@pytest.mark.parametrize("mode", ["certified_residual", "lazy_stream"])
@pytest.mark.parametrize("name, spec, a, b", _PIN_CASES, ids=[c[0] for c in _PIN_CASES])
def test_cover_construction_pinned(name, spec, a, b, mode):
    b = UNIT_END if b is None else QRational.of(b)
    params = CoverParams(Fraction(1, 2), Fraction(1, 5), mode=mode)
    cert = cover_interval(spec, QRational.of(a), b, params)

    def opt(x):
        return None if x is None else rigor.frac_str(x)

    doc = {
        "cert": cert.to_json(),
        "rank_heads": [[k, blk.to_json()] for k, blk in cert.rank_heads],
        "right_part_volume_upper": opt(cert.right_part_volume_upper),
        "j1_length_upper": opt(cert.j1_length_upper),
        "stream_head": None if cert.stream is None
        else [blk.to_json() for blk in itertools.islice(cert.stream, 40)],
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == _PIN_DIGESTS[(name, mode)]


def test_cover_deterministic():
    a, b = QRational.of((1, 1, 1)), QRational.of((1, 3))
    c1 = cover_interval(GEO, a, b, HALF_PARAMS)
    c2 = cover_interval(GEO, a, b, HALF_PARAMS)
    assert c1.blocks == c2.blocks
    assert c1.alpha_volume_upper == c2.alpha_volume_upper


@pytest.mark.parametrize(
    "spec, a, b",
    [
        (LUR, (1, 2, 3), (2, 1)),
        (LUR, (0, 0, 5), UNIT_END),
        (PL2, (1, 2), (2, 1)),
        (PL2, (0, 3, 1), (1,)),
    ],
)
def test_cover_same_with_cold_and_warm_partition_memo(spec, a, b):
    a = QRational.of(a)
    b = b if b is UNIT_END else QRational.of(b)
    covering.lemma1_partition.cache_clear()
    cold = cover_interval(spec, a, b, HALF_PARAMS).to_json()
    warm = cover_interval(spec, a, b, HALF_PARAMS).to_json()
    assert covering.lemma1_partition.cache_info().hits > 0
    assert warm == cold


def test_partition_boundaries_pinned_to_build_precision():
    # power-law tails are enclosures, so a 24-bit search moves n_4 (68, not
    # the 96-bit 67); at 53 bits the two agree and the test would be idle
    with workprec(96):
        inside = Lemma1Partition(PL2, 0, Fraction(1, 2))
        ambient = Lemma1Partition(PL2, 0, Fraction(1, 2))
        expected = [inside.boundary(k) for k in range(1, 9)]
    with workprec(24):
        assert Lemma1Partition(PL2, 0, Fraction(1, 2)).boundary(4) != expected[3]
        extended = [ambient.boundary(k) for k in range(1, 9)]
    assert ambient.prec == 96
    assert extended == expected


def _left_point_reference(spec, prefix: CylinderAddress, start: int) -> Fraction:
    """A group's left point as _emit_tail_blocks computed it before it
    extended one prefix decode: a full decode of the zero-stripped word."""
    return lower(QRational.of(prefix.digits + (start,)).value(spec))


@pytest.mark.parametrize("bits", [16, 32, 96])
@pytest.mark.parametrize("spec", [LUR, GEO, PL2], ids=["luroth", "geometric", "powerlaw2"])
def test_tail_left_points_extend_one_prefix_decode(spec, bits):
    # partitions search at their build precision, so 96-bit ones also serve
    # the 16-bit rung, where powerlaw searches are undecided; budgets shrink
    # with the precision so that each leftover can get below its budget
    with workprec(96):
        parts = [covering.lemma1_partition(spec, d, Fraction(1, 2)) for d in (0, 1, 4)]
    checked = 0
    with workprec(bits):
        for prefix in [(), (0,), (2, 0), (1, 0, 0), (3, 1)]:
            addr = CylinderAddress.of(prefix)
            for part in parts:
                job, start_digit = covering._TailJob(1, addr, part), part.offset
                for budget in (Fraction(1), Fraction(1, 2 ** (bits // 8)), Fraction(1, 2 ** (bits // 4))):
                    blocks, leftover = covering._emit_tail_blocks(spec, job, budget)
                    m = len(blocks)
                    start = start_digit + (part.boundary(m) + 1 if m else 0)
                    assert [blk.first for blk in blocks] == [
                        start_digit + (part.boundary(i) + 1 if i else 0) for i in range(m)
                    ]
                    if leftover:
                        assert leftover[0][0] == _left_point_reference(spec, addr, start)
                        checked += 1
    assert checked > 30
