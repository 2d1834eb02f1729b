"""Leveled Cantor-like subsets of [0,1] built from digit windows.

Each level n picks a window [k_n, k_n + M_n] of digits so that the window
certifiably violates the tail inequality, the tail mass at k_n is below a
halving epsilon budget, and the union-block volume at exponent delta/2
stays under a cap L.  On top of a built spec sit the normalized cylinder
measure with per-level normalizers gamma_n, finite-depth volume curves in
two covering families, and a crossing estimator exposing the gap between
them.

Volumes are always computed through the per-level product structure; the
exponentially many addresses are never enumerated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import iv

from . import rigor
from .errors import (
    BudgetInfeasibleError,
    InvalidAddressError,
    NoViolationError,
    ParameterRangeError,
    Undecided,
)
from .faithfulness import row_cells, window_fast_margin
from .qvector import QVectorSpec
from .rigor import DEFAULT_PREC, Num, endpoints, ipow, lower, to_iv, upper

PHI_SPLIT = "phi_split"
BLOCK_UNION = "block_union"

_LINEAR_M_CAP = 4096
_INDEX_CAP = 2**200
_DEPTH_CAP = 4


def _json_int(x) -> int:
    # a bool or float is an error, not an index to round
    if type(x) is not int:
        raise ParameterRangeError(f"N, k and M must be JSON integers, got {x!r}")
    return x


@dataclass(frozen=True)
class CantorLevel:
    k: int
    M: int
    gamma_lo: Fraction
    gamma_hi: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.k < 1 or self.M < 1:
            raise ParameterRangeError("level indices must be positive")
        if not 0 < self.gamma_lo <= self.gamma_hi:
            raise ParameterRangeError("gamma enclosure out of order")
        if self.eps <= 0:
            raise ParameterRangeError("level eps must be positive")

    def gamma_iv(self):
        return rigor.hull(self.gamma_lo, self.gamma_hi)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "gamma_lo": rigor.frac_str(self.gamma_lo),
            "gamma_hi": rigor.frac_str(self.gamma_hi),
            "eps": rigor.frac_str(self.eps),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CantorLevel":
        if not isinstance(doc, dict):
            raise ParameterRangeError(f"Cantor level must be a JSON object, got {type(doc).__name__}")
        return cls(
            k=_json_int(doc["k"]),
            M=_json_int(doc["M"]),
            gamma_lo=rigor.parse_frac(doc["gamma_lo"]),
            gamma_hi=rigor.parse_frac(doc["gamma_hi"]),
            eps=rigor.parse_frac(doc["eps"]),
        )


@dataclass(frozen=True)
class CantorAddress:
    digits: tuple[int, ...]

    def __post_init__(self):
        try:
            digits = tuple(self.digits)
        except TypeError:
            digits = None
        # a bool or float digit is an error, not a digit to round
        if digits is None or not all(type(d) is int for d in digits):
            raise InvalidAddressError(f"address digits must be integers, got {self.digits!r}")
        object.__setattr__(self, "digits", digits)

    @property
    def level(self) -> int:
        return len(self.digits)


def _check_parameters(alpha: Fraction, delta: Fraction, L: Fraction, N: int) -> None:
    if not 0 < delta < alpha < 1:
        raise ParameterRangeError("need 0 < delta < alpha < 1")
    if not 0 < L < 1:
        raise ParameterRangeError("volume cap L must lie in (0, 1)")
    if N < 0:
        raise ParameterRangeError("threshold N must be nonnegative")


@dataclass(frozen=True)
class CantorSpec:
    qvec: QVectorSpec
    alpha: Fraction
    delta: Fraction
    L: Fraction
    N: int
    levels: tuple[CantorLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "L", Fraction(self.L))
        object.__setattr__(self, "levels", tuple(self.levels))
        _check_parameters(self.alpha, self.delta, self.L, self.N)
        if not self.levels:
            raise ParameterRangeError("at least one level required")
        for lvl in self.levels:
            if lvl.k <= self.N or lvl.M <= self.N:
                raise ParameterRangeError("level indices must exceed N")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def digit_range(self, n: int) -> tuple[int, int]:
        """Admissible digit bounds (inclusive) at 1-based level n."""
        lvl = self.levels[n - 1]
        return lvl.k, lvl.k + lvl.M

    def validate_address(self, addr: CantorAddress) -> None:
        if addr.level > self.depth:
            raise InvalidAddressError(
                f"address has {addr.level} digits but spec depth is {self.depth}"
            )
        for j, d in enumerate(addr.digits, 1):
            lo, hi = self.digit_range(j)
            if not lo <= d <= hi:
                raise InvalidAddressError(
                    f"digit {d} at level {j} outside [{lo}, {hi}]"
                )

    def to_json(self) -> dict:
        return {
            "qvec": self.qvec.to_json(),
            "alpha": rigor.frac_str(self.alpha),
            "delta": rigor.frac_str(self.delta),
            "L": rigor.frac_str(self.L),
            "N": self.N,
            "levels": [lvl.to_json() for lvl in self.levels],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CantorSpec":
        if not isinstance(doc, dict) or not isinstance(doc.get("levels", []), list):
            raise ParameterRangeError("Cantor spec must be a JSON object whose levels are a list")
        return cls(
            qvec=QVectorSpec.from_json(doc["qvec"]),
            alpha=rigor.parse_frac(doc["alpha"]),
            delta=rigor.parse_frac(doc["delta"]),
            L=rigor.parse_frac(doc["L"]),
            N=_json_int(doc["N"]),
            levels=tuple(CantorLevel.from_json(d) for d in doc["levels"]),
        )


def sample_address(spec: CantorSpec, level: int, rng) -> CantorAddress:
    if not 1 <= level <= spec.depth:
        raise ParameterRangeError("level out of range")
    digits = []
    for j in range(1, level + 1):
        lo, hi = spec.digit_range(j)
        digits.append(lo + rng.randrange(hi - lo + 1))
    return CantorAddress(tuple(digits))


def _linear_scan_cannot_violate(
    spec: QVectorSpec, alpha: Fraction, expo: Fraction, k: int, m_min: int
) -> bool:
    """Whether every window [k, k+M] with m_min <= M <= _LINEAR_M_CAP
    certifiably satisfies the tail inequality, by one comparison.

    With weights nonincreasing from k, such a window's power sum is at most
    (_LINEAR_M_CAP + 1) q_k^alpha, and its mass is at least
    (m_min + 1) q_{k+m_min}, so its left side is at least that to the expo.
    """
    if not spec.weights_nonincreasing_from(k):
        return False
    rhs_most = (_LINEAR_M_CAP + 1) * ipow(spec.q(k), alpha)
    lhs_least = ipow((m_min + 1) * spec.q(k + m_min), expo)
    return rigor.decide_le(rhs_most, lhs_least) is True


def _minimal_violation_window(
    spec: QVectorSpec, alpha: Fraction, delta: Fraction, k: int, N: int
) -> int:
    """An M > N whose window [k, k+M] certifiably violates the tail
    inequality: the least one while the linear scan lasts.

    The linear scan walks :func:`row_cells` at floor 0, which closes only
    spans of windows that hold no violated cell and yields every other
    cell in M order, so it returns the M a scan of every cell returns.  It
    is skipped when :func:`_linear_scan_cannot_violate` holds.  That skip
    is sound: its two sides bound every scanned window
    from the correct side, so the inequality truly holds on each of them,
    no cell's enclosures can certify a violation, and the scan would have
    returned nothing.

    Past the linear cap the search switches to the monotone sufficient test
    lower(sum q^alpha) > upper(tail^(alpha-delta)), which still certifies a
    violation because the window mass never exceeds the tail, but returns
    the first M that test certifies; smaller windows may already violate.
    """
    expo = alpha - delta
    m_min = N + 1
    if window_fast_margin(spec, k, alpha, expo, m_min) is not None:
        raise NoViolationError(
            f"inequality certifiably holds for every window at offset {k}"
        )
    if not _linear_scan_cannot_violate(spec, alpha, expo, k, m_min):
        for M, lhs, rhs in row_cells(spec, k, alpha, expo, m_min, _LINEAR_M_CAP, lambda: 0):
            if rigor.decide_lt(lhs, rhs):
                return M

    bound = upper(ipow(spec.tail_sum(k), expo))

    def hit(M: int) -> bool:
        return lower(spec.power_sum(alpha, k, k + M)) > bound

    return rigor.first_true(
        hit,
        max(m_min, _LINEAR_M_CAP + 1),
        _INDEX_CAP,
        NoViolationError(f"no certified violation up to the search cap at offset {k}"),
    )


def _certify_level(
    qvec: QVectorSpec, alpha: Fraction, delta: Fraction, L: Fraction,
    n: int, eps_n: Fraction, k: int, M: int, prefix_pow: Num,
) -> tuple[CantorLevel, Num]:
    """Certify level n's window [k, k+M] and enclose its gamma_n.

    Checks the eps_n tail budget, the violation witness and the union-block
    volume cap against ``prefix_pow``, the product of the earlier levels'
    window power sums at delta/2; returns the level and that product
    extended by this level.
    """
    half = delta / 2
    if upper(qvec.tail_sum(k)) > eps_n:
        raise BudgetInfeasibleError(f"tail mass at {k} exceeds eps_{n} = {eps_n}")
    mass = qvec.range_sum(k, k + M)
    gamma = qvec.power_sum(alpha, k, k + M)
    if not upper(ipow(mass, alpha - delta)) < lower(gamma):
        raise NoViolationError(
            f"window ({k}, {M}) does not certify a violation at level {n}"
        )
    if upper(ipow(mass, half) * prefix_pow) > L:
        raise BudgetInfeasibleError(f"union-block volume exceeds L at level {n}")
    level = CantorLevel(k, M, lower(gamma), upper(gamma), eps_n)
    return level, prefix_pow * qvec.power_sum(half, k, k + M)


def _assemble(
    qvec: QVectorSpec, alpha: Fraction, delta: Fraction, L: Fraction,
    eps_first: Fraction, N: int, depth: int, pick, prec: int,
) -> CantorSpec:
    """Certify levels 1..depth in turn under ``rigor.escalate`` from ``prec``
    and return the spec, refusing the parameters the spec would refuse
    before any level is searched.

    ``pick(n, eps_n, prefix_pow)`` gives level n's window (k, M): the
    search of :func:`build_cantor` or a pair given to :func:`assemble_cantor`.
    """
    alpha, delta, L, eps_first = (Fraction(x) for x in (alpha, delta, L, eps_first))
    _check_parameters(alpha, delta, L, N)
    if eps_first <= 0:
        raise ParameterRangeError("eps_first must be positive")

    def certify() -> CantorSpec:
        levels: list[CantorLevel] = []
        prefix_pow = to_iv(1)
        for n in range(1, depth + 1):
            eps_n = eps_first / 2 ** (n - 1)
            k, M = pick(n, eps_n, prefix_pow)
            level, prefix_pow = _certify_level(
                qvec, alpha, delta, L, n, eps_n, k, M, prefix_pow
            )
            levels.append(level)
        return CantorSpec(qvec=qvec, alpha=alpha, delta=delta, L=L, N=N, levels=tuple(levels))

    return rigor.escalate(certify, prec)


def build_cantor(
    qvec: QVectorSpec,
    alpha: Fraction,
    delta: Fraction,
    L: Fraction,
    eps_first: Fraction = Fraction(1, 1000),
    N: int = 10,
    depth: int = 1,
    prec: int = DEFAULT_PREC,
) -> CantorSpec:
    """Run the per-level searches and return the assembled spec.

    The build climbs ``rigor.escalate`` from ``prec``.  Level n chooses the
    least k_n > N certified on the first rung that builds to have tail mass
    at most eps_n and tail^(delta/2) times the accumulated window power-sums
    at most L (a higher precision can give a smaller k_n), then a violating
    window length M_n > N (minimal only up to the linear cap), then
    certifies the level as :func:`assemble_cantor` does.  Each level's
    choices depend on all earlier ones only through a scalar product, so
    depth is limited by index growth rather than address counts.
    """
    alpha, delta, L = (Fraction(x) for x in (alpha, delta, L))
    if not 1 <= depth <= _DEPTH_CAP:
        raise ParameterRangeError(f"depth must lie in 1..{_DEPTH_CAP}")
    half = delta / 2

    def pick(n: int, eps_n: Fraction, prefix_pow: Num) -> tuple[int, int]:
        def admissible(k: int) -> bool:
            tail = qvec.tail_sum(k)
            if upper(tail) > eps_n:
                return False
            return upper(ipow(tail, half) * prefix_pow) <= L

        k_n = rigor.first_true(
            admissible, N + 1, _INDEX_CAP,
            BudgetInfeasibleError(f"no index meets the eps/volume budget at level {n}"),
        )
        return k_n, _minimal_violation_window(qvec, alpha, delta, k_n, N)

    return _assemble(qvec, alpha, delta, L, eps_first, N, depth, pick, prec)


def assemble_cantor(
    qvec: QVectorSpec,
    alpha: Fraction,
    delta: Fraction,
    L: Fraction,
    eps_first: Fraction,
    N: int,
    level_indices: Sequence[tuple[int, int]],
    prec: int = DEFAULT_PREC,
) -> CantorSpec:
    """Build a spec from hand-picked (k, M) pairs, certifying every
    level invariant: the violation witness, the eps tail budget, and the
    union-block volume cap.
    """
    pairs = tuple(level_indices)
    return _assemble(
        qvec, alpha, delta, L, eps_first, N, len(pairs),
        lambda n, eps_n, prefix_pow: pairs[n - 1], prec,
    )


def level_volume(
    spec: CantorSpec,
    n: int,
    s: Fraction,
    family: str,
    prec: int = DEFAULT_PREC,
) -> tuple[Fraction, Fraction]:
    """Bounds on the level-n covering volume at exponent s, computed under
    ``rigor.escalate`` from ``prec``.

    PhiSplit treats every address cylinder separately, so the volume is
    the product over levels of the window power sums.  BlockUnion merges
    each last-level window into one interval per prefix, replacing the
    final factor by (window mass)^s.  The volume is positive, so bounds
    whose lower end is not are Undecided on that rung.
    """
    s = Fraction(s)
    if not 1 <= n <= spec.depth:
        raise ParameterRangeError("level out of range")
    if not 0 < s <= 1:
        raise ParameterRangeError("exponent s must lie in (0, 1]")
    if family not in (PHI_SPLIT, BLOCK_UNION):
        raise ParameterRangeError(f"unknown family {family!r}")

    def volume() -> tuple[Fraction, Fraction]:
        total = to_iv(1)
        for j in range(1, n + 1):
            lvl = spec.levels[j - 1]
            if family == PHI_SPLIT or j < n:
                total = total * spec.qvec.power_sum(s, lvl.k, lvl.k + lvl.M)
            else:
                total = total * ipow(spec.qvec.range_sum(lvl.k, lvl.k + lvl.M), s)
        lo, hi = endpoints(total)
        if lo <= 0:
            raise Undecided(f"level volume enclosure reaching down to 0 at {iv.prec} bits")
        return lo, hi

    return rigor.escalate(volume, prec)


def _address_mass(spec: CantorSpec, addr: CantorAddress, expo: Fraction) -> Num:
    """Enclosure of prod_j q_{d_j}^expo / gamma_j over the address digits,
    at the working precision."""
    total = to_iv(1)
    for d, lvl in zip(addr.digits, spec.levels):
        total = total * ipow(spec.qvec.q(d), expo) / lvl.gamma_iv()
    return total


def measure_cylinder(
    spec: CantorSpec, addr: CantorAddress, prec: int = DEFAULT_PREC
) -> tuple[Fraction, Fraction]:
    """Enclosure of the normalized cylinder mass prod (1/gamma_i) q_{d_i}^alpha,
    computed under ``rigor.escalate`` from ``prec``."""
    spec.validate_address(addr)
    return rigor.escalate(lambda: endpoints(_address_mass(spec, addr, spec.alpha)), prec)


@dataclass(frozen=True)
class RatioBound:
    value_lo: Fraction
    value_hi: Fraction
    bound_lo: Fraction

    def to_json(self) -> dict:
        return {
            "value_lo": rigor.frac_str(self.value_lo),
            "value_hi": rigor.frac_str(self.value_hi),
            "bound_lo": rigor.frac_str(self.bound_lo),
            "value_approx": float((self.value_lo + self.value_hi) / 2),
            "bound_approx": float(self.bound_lo),
        }


def local_dim_ratio(
    spec: CantorSpec, addr: CantorAddress, t: Fraction, prec: int = DEFAULT_PREC
) -> RatioBound:
    """Enclosure of measure/length^t for the address cylinder, certified
    against the level bound eps_n^(delta - t) under ``rigor.escalate`` from
    ``prec``.

    Requires 0 < t < delta; at t >= delta the bound direction flips and
    the certificate is meaningless.
    """
    t = Fraction(t)
    if not 0 < t < spec.delta:
        raise ParameterRangeError("need 0 < t < delta")
    spec.validate_address(addr)
    if addr.level == 0:
        raise InvalidAddressError("ratio needs at least one digit")

    def ratio() -> RatioBound:
        total = _address_mass(spec, addr, spec.alpha - t)
        eps_n = spec.levels[addr.level - 1].eps
        bound = ipow(eps_n, spec.delta - t)
        if not upper(total) <= lower(bound):
            raise Undecided(f"enclosure too wide to certify the local ratio bound at {iv.prec} bits")
        return RatioBound(lower(total), upper(total), lower(bound))

    return rigor.escalate(ratio, prec)


@dataclass(frozen=True)
class CrossingEstimate:
    family: str
    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]
    bracket: Optional[tuple[Fraction, Fraction]]
    estimate: Optional[float]
    low_confidence: bool

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rows": [
                {"s": rigor.frac_str(s), "lo": rigor.frac_str(lo), "hi": rigor.frac_str(hi)}
                for s, lo, hi in self.rows
            ],
            "bracket": None
            if self.bracket is None
            else [rigor.frac_str(self.bracket[0]), rigor.frac_str(self.bracket[1])],
            "estimate": self.estimate,
            "low_confidence": self.low_confidence,
        }


def estimate_critical_exponent(
    spec: CantorSpec,
    family: str,
    s_grid: Sequence[Fraction],
    prec: int = DEFAULT_PREC,
) -> CrossingEstimate:
    """Deepest-level volume curve over the grid plus the s where it
    crosses 1.

    The bracket is certified: the volume is > 1 at its left edge and
    < 1 at its right edge.  The point estimate interpolates linearly in
    log-volume between the bracket edges.  Depth-1 specs are flagged
    low-confidence since a single level says little about the limit set.
    """
    grid = sorted(Fraction(s) for s in s_grid)
    if not grid:
        raise ParameterRangeError("s grid must be nonempty")
    if grid[0] <= 0 or grid[-1] >= 1:
        raise ParameterRangeError("grid points must lie in (0, 1)")
    rows = []
    for s in grid:
        lo, hi = level_volume(spec, spec.depth, s, family, prec=prec)
        rows.append((s, lo, hi))
    bracket = None
    estimate = None
    for (s1, lo1, hi1), (s2, lo2, hi2) in zip(rows, rows[1:]):
        if lo1 > 1 and hi2 < 1:
            bracket = (s1, s2)
            mid1 = float((lo1 + hi1) / 2)
            mid2 = float((lo2 + hi2) / 2)
            frac = math.log(mid1) / (math.log(mid1) - math.log(mid2))
            estimate = float(s1) + (float(s2) - float(s1)) * frac
            break
    return CrossingEstimate(
        family=family,
        rows=tuple(rows),
        bracket=bracket,
        estimate=estimate,
        low_confidence=spec.depth < 2,
    )


@dataclass(frozen=True)
class GapReport:
    phi_split: CrossingEstimate
    block_union: CrossingEstimate
    separation_certified: bool

    @property
    def gap_estimate(self) -> Optional[float]:
        if self.phi_split.estimate is None or self.block_union.estimate is None:
            return None
        return self.phi_split.estimate - self.block_union.estimate

    def to_json(self) -> dict:
        return {
            "phi_split": self.phi_split.to_json(),
            "block_union": self.block_union.to_json(),
            "separation_certified": self.separation_certified,
            "gap_estimate": self.gap_estimate,
        }


def dimension_gap(
    spec: CantorSpec, s_grid: Sequence[Fraction], prec: int = DEFAULT_PREC
) -> GapReport:
    """Crossing estimates for both families plus a certified-separation
    flag: true when the union-family bracket sits entirely below the
    split-family bracket."""
    phi = estimate_critical_exponent(spec, PHI_SPLIT, s_grid, prec=prec)
    union = estimate_critical_exponent(spec, BLOCK_UNION, s_grid, prec=prec)
    separated = (
        phi.bracket is not None
        and union.bracket is not None
        and union.bracket[1] <= phi.bracket[0]
    )
    return GapReport(phi_split=phi, block_union=union, separation_certified=separated)
