"""Acceptance battery: seven criteria, one pass/fail line each.

Run with -s to see the report lines; each test also enforces its own
wall-clock budget.
"""

import functools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qinfty.cantor import (
    BLOCK_UNION,
    PHI_SPLIT,
    assemble_cantor,
    build_cantor,
    dimension_gap,
    level_volume,
    local_dim_ratio,
    sample_address,
)
from qinfty.covering import (
    CoverParams,
    block_length,
    cover_interval,
    lemma1_partition,
)
from qinfty.expansion import (
    UNIT_END,
    CylinderAddress,
    QRational,
    decode,
    encode,
)
from qinfty.faithfulness import (
    HOLDS,
    VIOLATED,
    ConditionQuery,
    check_condition,
)
from qinfty.qvector import QVectorSpec
from qinfty.rigor import ipow, lower, to_iv, upper, workprec

from cover_check import coverage_exact

LUR = QVectorSpec.luroth()
GEO = QVectorSpec.geometric(Fraction(1, 2))
PL2 = QVectorSpec.powerlaw(2)

SEED = 20260816


@contextmanager
def _criterion(num, label, limit_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"acceptance {num} {label}: FAIL", flush=True)
        raise
    elapsed = time.time() - start
    print(
        f"acceptance {num} {label}: PASS ({elapsed:.2f}s, limit {limit_s}s)",
        flush=True,
    )
    assert elapsed < limit_s


@functools.lru_cache(maxsize=None)
def _built3():
    return build_cantor(
        PL2, Fraction(2, 5), Fraction(1, 5), Fraction(1, 2),
        eps_first=Fraction(1, 1000), N=10, depth=3,
    )


# --- 1: codec exactness -------------------------------------------------------

def test_criterion_1_codec_exactness():
    with _criterion(1, "codec-exactness", 10):
        rng = random.Random(SEED)
        for spec in (LUR, GEO):
            for _ in range(1000):
                den = rng.randrange(2, 10**6)
                x = Fraction(rng.randrange(0, den), den)
                addr = encode(spec, x, 12)
                assert addr.rank == 12
                cyl = decode(spec, addr)
                assert isinstance(cyl.left, Fraction)
                assert cyl.left <= x < cyl.left + cyl.length
                exact_len = Fraction(1)
                for d in addr.digits:
                    exact_len *= spec.q(d)
                assert cyl.length == exact_len


# --- 2: greedy tail partitions ------------------------------------------------

def test_criterion_2_partition_certificates():
    with _criterion(2, "partition-certificates", 5):
        streams = [
            ("geometric", GEO, 0),
            ("luroth+0", LUR, 0),
            ("luroth+10", LUR, 10),
            ("luroth+100", LUR, 100),
            ("powerlaw", PL2, 0),
        ]
        alphas = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
        with workprec(96):
            for name, spec, offset in streams:
                for alpha in alphas:
                    part = lemma1_partition(spec, offset, alpha)
                    assert part.verify(groups=8), (name, alpha)
                    acc = to_iv(0)
                    for m in range(1, 9):
                        acc = acc + ipow(part.group_mass(m), alpha)
                    rest_up = upper(acc) + part.series_alpha_tail(8)
                    head_low = lower(ipow(part.group_mass(0), alpha))
                    assert head_low - rest_up > 0, (name, alpha)
            pinned = lemma1_partition(GEO, 0, Fraction(1, 2))
            assert pinned.boundary(1) == 3


# --- 3: covering bound, randomized --------------------------------------------

def _random_qr(rng, max_rank=5, max_digit=6):
    k = rng.randint(0, max_rank)
    return QRational.of(tuple(rng.randint(0, max_digit) for _ in range(k)))


def _check_certificate(spec, cert, params):
    assert cert.alpha_volume_upper <= cert.bound_rhs
    assert cert.residual_total_upper() <= params.eps_res
    e_hi = cert.interval_length[1]
    rp_bound = (1 + ipow(spec.q(0), -params.alpha)) * ipow(e_hi, params.alpha)
    if cert.right_part_volume_upper is not None:
        assert cert.right_part_volume_upper <= upper(rp_bound)
    if cert.j1_length_upper is not None:
        assert cert.j1_length_upper <= upper(to_iv(e_hi) / to_iv(spec.q(0)))
    qmax = spec.max_weight()
    for k_off, head in cert.rank_heads:
        if k_off == 0:
            continue
        lhs = upper(ipow(block_length(spec, head), params.alpha))
        rhs = lower(
            ipow(e_hi, params.alpha - params.delta)
            * ipow(qmax, (k_off - 1) * params.delta)
        )
        assert lhs <= rhs


def test_criterion_3_covering_bound_random_suite():
    with _criterion(3, "covering-bound", 120):
        param_pairs = [
            CoverParams(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10**6)),
            CoverParams(Fraction(4, 5), Fraction(1, 10), Fraction(1, 10**6)),
        ]
        with workprec(96):
            for spec in (LUR, GEO):
                rng = random.Random(SEED)
                checked = 0
                while checked < 500:
                    a, b = _random_qr(rng), _random_qr(rng)
                    if rng.random() < 0.1:
                        b = UNIT_END
                    if b is not UNIT_END and not a < b:
                        continue
                    checked += 1
                    for params in param_pairs:
                        cert = cover_interval(spec, a, b, params)
                        assert coverage_exact(spec, cert, a, b)
                        _check_certificate(spec, cert, params)


# --- 4: tail inequality verdicts ----------------------------------------------

def test_criterion_4_condition_verdicts():
    with _criterion(4, "condition-verdicts", 30):
        holds = check_condition(
            GEO,
            ConditionQuery(
                alpha=Fraction(1, 2), delta=Fraction(1, 10),
                N=17, n_max=200, M_max=10**4,
            ),
        )
        assert holds.outcome == HOLDS
        assert len(holds.margins) == 183
        assert all(margin > 0 for _, margin in holds.margins)
        assert holds.min_margin() > 0

        violated = check_condition(
            PL2,
            ConditionQuery(
                alpha=Fraction(2, 5), delta=Fraction(1, 10),
                N=99, n_max=200, M_max=10**4,
            ),
        )
        assert violated.outcome == VIOLATED
        assert violated.witness is not None
        n, m = violated.witness
        assert n == 100
        assert m is not None and m >= 100
        assert violated.lhs_upper < violated.rhs_lower
        assert violated.reverified_bits == 2 * violated.precision_bits


# --- 5: built Cantor levels -----------------------------------------------------

def test_criterion_5_cantor_level_invariants():
    with _criterion(5, "cantor-levels", 120):
        spec = _built3()
        alpha, delta = spec.alpha, spec.delta
        expo = alpha - delta
        rng = random.Random(SEED)
        with workprec(96):
            running = to_iv(1)
            for n, lvl in enumerate(spec.levels, 1):
                mass = PL2.range_sum(lvl.k, lvl.k + lvl.M)
                assert upper(ipow(mass, expo)) < lvl.gamma_lo

                assert upper(PL2.tail_sum(lvl.k)) <= lvl.eps

                _, vhi = level_volume(spec, n, delta / 2, BLOCK_UNION)
                assert vhi <= spec.L

                p = PL2.power_sum(alpha, lvl.k, lvl.k + lvl.M)
                running = running * p / lvl.gamma_iv()
                assert lower(running) <= 1 <= upper(running)

                for t in (delta / 4, delta / 2, 3 * delta / 4):
                    cap = upper(ipow(lvl.eps, delta - t))
                    for _ in range(100):
                        addr = sample_address(spec, n, rng)
                        rb = local_dim_ratio(spec, addr, t)
                        assert rb.value_hi <= rb.bound_lo <= cap


# --- 6: family separation -------------------------------------------------------

def test_criterion_6_volume_separation_and_gap():
    with _criterion(6, "dimension-gap-trend", 60):
        spec = _built3()
        delta = spec.delta
        band = [delta / 2 + Fraction(i, 10) * (delta / 2) for i in range(11)]
        for s in band:
            plo, _ = level_volume(spec, spec.depth, s, PHI_SPLIT)
            _, uhi = level_volume(spec, spec.depth, s, BLOCK_UNION)
            assert plo > uhi

        report = dimension_gap(spec, [Fraction(i, 100) for i in range(1, 51)])
        assert report.separation_certified
        assert report.phi_split.bracket is not None
        assert report.block_union.bracket is not None
        assert report.block_union.bracket[1] <= report.phi_split.bracket[0]
        assert report.gap_estimate > 0
        assert not report.phi_split.low_confidence


# --- 7: brute-force equivalence --------------------------------------------------

@functools.lru_cache(maxsize=None)
def _toy():
    return assemble_cantor(
        PL2, Fraction(3, 10), Fraction(1, 5), Fraction(9, 10),
        Fraction(1, 4), 1, [(2, 2), (650, 20)],
    )


def _enumerated_volume(s, family):
    total = to_iv(0)
    for d1 in range(2, 5):
        if family == PHI_SPLIT:
            for d2 in range(650, 671):
                total = total + ipow(PL2.q(d1) * PL2.q(d2), s)
        else:
            total = total + ipow(PL2.q(d1) * PL2.range_sum(650, 670), s)
    return total


def _check_cover_against_enumeration(spec, cert, a, b, params):
    a_val = a.value(spec)
    b_val = Fraction(1) if b is UNIT_END else b.value(spec)
    recomputed = to_iv(0)
    overshoots = 0
    for blk in cert.blocks:
        rank = len(blk.prefix.digits) + 1
        assert rank <= 8
        assert blk.last - blk.first <= 4000
        pieces = [
            decode(spec, CylinderAddress(blk.prefix.digits + (d,)))
            for d in range(blk.first, blk.last + 1)
        ]
        direct_len = sum(p.length for p in pieces)
        assert direct_len == block_length(spec, blk)
        lo = pieces[0].left
        assert a_val <= lo
        if lo + direct_len > b_val:
            # the right part may be absorbed into one whole cylinder
            # containing b; its length is what j1_length_upper bounds
            overshoots += 1
            assert lo < b_val < lo + direct_len
            assert direct_len <= upper(
                to_iv(cert.interval_length[1]) / to_iv(spec.q(0))
            )
        for prev, nxt in zip(pieces, pieces[1:]):
            assert prev.left + prev.length == nxt.left
        recomputed = recomputed + ipow(direct_len, params.alpha)
    assert overshoots <= 1
    for lo, hi in cert.residuals:
        assert a_val <= lo <= hi <= b_val
        recomputed = recomputed + ipow(hi - lo, params.alpha)
    assert lower(recomputed) <= cert.alpha_volume_upper
    slack = upper(recomputed) * Fraction(1, 2**30)
    assert cert.alpha_volume_upper <= upper(recomputed) + slack
    assert coverage_exact(spec, cert, a, b)


def test_criterion_7_brute_force_equivalence():
    with _criterion(7, "brute-force-equivalence", 60):
        spec = _toy()
        tol = Fraction(1, 10**10)
        with workprec(96):
            for family in (PHI_SPLIT, BLOCK_UNION):
                for s in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
                    lo, hi = level_volume(spec, 2, s, family)
                    direct = _enumerated_volume(s, family)
                    assert abs(lo - lower(direct)) < tol
                    assert abs(hi - upper(direct)) < tol

            # geometric weights keep every certificate block enumerable
            # below rank 8 with a few dozen digits
            params = CoverParams(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10**6))
            rng = random.Random(SEED)
            checked = 0
            while checked < 50:
                a = _random_qr(rng, max_rank=3, max_digit=5)
                b = _random_qr(rng, max_rank=3, max_digit=5)
                if rng.random() < 0.1:
                    b = UNIT_END
                if b is not UNIT_END and not a < b:
                    continue
                checked += 1
                cert = cover_interval(GEO, a, b, params)
                _check_cover_against_enumeration(GEO, cert, a, b, params)
