"""Independent checks of qinfty outputs.

Nothing in this module imports qinfty.  Weights, head sums, cylinder
geometry and power sums are recomputed from each family's closed form:
exactly with ``Fraction`` for the Lüroth and geometric families, and with
mpmath floats at ``BITS`` bits (a private context, so the library's global
mpmath state is never touched) for the power-law family.  The float
results are far more precise than the library's enclosures, so they are
compared with a tolerance far below any enclosure width and far above
their own rounding error.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from mpmath import MPContext

BITS = 320
ABS_TOL = Fraction(1, 2**220)
REL_TOL = Fraction(1, 2**200)

ctx = MPContext()
ctx.prec = BITS


def frac(text) -> Fraction:
    """Parse the library's 'p/q' strings (and plain integers)."""
    return Fraction(str(text))


def to_mpf(x):
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / x.denominator
    return ctx.mpf(x)


def to_frac(x) -> Fraction:
    """Exact value of a float from the private context."""
    if isinstance(x, Fraction):
        return x
    man, exp = ctx.mpf(x).man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def le_tol(x, y, rel: bool = True) -> bool:
    """x <= y up to the oracle's rounding tolerance."""
    x, y = to_frac(x), to_frac(y)
    slack = (abs(x) + abs(y)) * REL_TOL if rel else ABS_TOL
    return x <= y + slack


class Family:
    """Closed forms of one weight family, from its JSON config."""

    def __init__(self, doc: dict):
        self.name = doc["family"]
        if self.name == "luroth":
            self.exact = True
        elif self.name == "geometric":
            self.exact = True
            self.r = frac(doc["ratio"])
        elif self.name == "powerlaw":
            self.exact = False
            self.m0 = frac(doc["m0"])
            self.c = 1 / ctx.zeta(to_mpf(self.m0))
        else:
            raise ValueError(f"no oracle for family {self.name!r}")

    def q(self, i: int):
        if self.name == "luroth":
            return Fraction(1, (i + 1) * (i + 2))
        if self.name == "geometric":
            return self.r * (1 - self.r) ** i
        return self.c * ctx.power(i + 1, -to_mpf(self.m0))

    def tail(self, n: int):
        """sum_{i >= n} q_i."""
        if self.name == "luroth":
            return Fraction(1, n + 1)
        if self.name == "geometric":
            return (1 - self.r) ** n
        return self.c * ctx.zeta(to_mpf(self.m0), n + 1)

    def head(self, n: int):
        """sum_{i < n} q_i."""
        return 1 - self.tail(n)

    def window(self, n: int, M: int):
        """sum_{i=n}^{n+M} q_i."""
        return self.tail(n) - self.tail(n + M + 1)

    def power_window(self, s: Fraction, n: int, M):
        """sum_{i=n}^{n+M} q_i^s; M=None for the infinite tail."""
        s_ = to_mpf(s)
        if self.name == "geometric":
            u = ctx.power(to_mpf(1 - self.r), s_)
            first = ctx.power(to_mpf(self.r), s_) * u**n
            rest = 1 if M is None else 1 - u ** (M + 1)
            return first * rest / (1 - u)
        if self.name == "powerlaw":
            p = to_mpf(self.m0) * s_
            hi = 0 if M is None else ctx.zeta(p, n + M + 2)
            return ctx.power(self.c, s_) * (ctx.zeta(p, n + 1) - hi)
        if M is None:
            # ((i+1)(i+2))^-s = ((i+3/2)^2 - 1/4)^-s
            #                 = sum_k (s)_k / (k! 4^k) (i+3/2)^(-2s-2k)
            a = n + ctx.mpf(3) / 2
            total, coeff, k = ctx.mpf(0), ctx.mpf(1), 0
            while True:
                term = coeff * ctx.zeta(2 * s_ + 2 * k, a)
                total += term
                if term < total * ctx.ldexp(1, -BITS):
                    return total
                coeff *= (s_ + k) / (4 * (k + 1))
                k += 1
        return ctx.fsum(ctx.power(to_mpf(self.q(i)), s_) for i in range(n, n + M + 1))

    @functools.lru_cache(maxsize=4096)
    def cylinder(self, digits: tuple) -> tuple:
        """(left end, length) of the cylinder of a digit word."""
        left, scale = Fraction(0), Fraction(1)
        if not self.exact:
            left, scale = ctx.mpf(0), ctx.mpf(1)
        for d in digits:
            left = left + scale * self.head(d)
            scale = scale * self.q(d)
        return left, scale

    def point(self, digits):
        return self.cylinder(tuple(digits))[0]


@functools.lru_cache(maxsize=None)
def kappa(fam: Family, alpha: Fraction, delta: Fraction):
    """K(alpha, delta) = 1 + q0^-alpha + 2 W / ((1 - c) c), c = qmax^(delta/2).

    Every family here has its largest weight at index 0.
    """
    qmax = to_mpf(fam.q(0))
    c = ctx.power(qmax, to_mpf(delta / 2))
    limit = int(-1 / ctx.log(c)) + 2
    w = max(s * ctx.power(qmax, to_mpf(delta) * s / 2) for s in range(1, limit + 1))
    return 1 + ctx.power(qmax, -to_mpf(alpha)) + 2 * w / ((1 - c) * c)


# --- the cover workloads --------------------------------------------------------


def check_roundtrip(fam: Family, x: Fraction, depth: int, digits, cylinder: dict) -> list[str]:
    """encode(x) names a cylinder that contains x, and decode agrees with it."""
    problems = []
    if len(digits) != depth or any(d < 0 for d in digits):
        problems.append(f"encode returned {digits} for depth {depth}")
        return problems
    left, length = fam.cylinder(tuple(digits))
    if fam.exact:
        if frac(cylinder["left"]) != left or frac(cylinder["length"]) != length:
            problems.append(f"decode of {digits} disagrees with the closed form")
        if not left <= x < left + length:
            problems.append(f"{x} lies outside the cylinder of {digits}")
        return problems
    for key, val in (("left", left), ("length", length)):
        lo, hi = frac(cylinder[key]["lo"]), frac(cylinder[key]["hi"])
        if not (le_tol(lo, val) and le_tol(val, hi)):
            problems.append(f"decode {key} of {digits} misses the closed form")
    if not (le_tol(left, x, rel=False) and le_tol(x, left + length, rel=False)):
        problems.append(f"{x} lies outside the cylinder of {digits}")
    return problems


def check_cover(
    fam: Family, a, b, alpha: Fraction, delta: Fraction, eps: Fraction, cert: dict
) -> list[str]:
    """Re-check one cover certificate from its JSON alone.

    a and b are digit tuples, b=None meaning the unit's right end.
    """
    problems = []
    want_b = "end" if b is None else {"digits": list(b)}
    if cert["interval"] != {"a": {"digits": list(a)}, "b": want_b}:
        problems.append("certificate names another interval")
    params = cert["params"]
    if (frac(params["alpha"]), frac(params["delta"]), frac(params["eps_res"])) != (alpha, delta, eps):
        problems.append("certificate names other parameters")

    residuals = [(frac(r["lo"]), frac(r["hi"])) for r in cert["residuals"]]
    if any(hi < lo for lo, hi in residuals):
        problems.append("residual with hi < lo")
    if sum((hi - lo for lo, hi in residuals), Fraction(0)) > eps:
        problems.append("residuals exceed the budget")
    vol_up, rhs = frac(cert["alpha_volume_upper"]), frac(cert["bound_rhs"])
    if not vol_up <= rhs:
        problems.append("alpha_volume_upper exceeds bound_rhs")

    pieces = []
    for blk in cert["blocks"]:
        base, scale = fam.cylinder(tuple(blk["prefix"]))
        first, last = int(blk["first"]), int(blk["last"])
        if not 0 <= first <= last:
            problems.append(f"malformed block {blk}")
            continue
        pieces.append((base + scale * fam.head(first), base + scale * fam.head(last + 1)))
    start = fam.point(a)
    stop = fam.point(b) if b is not None else Fraction(1) if fam.exact else ctx.mpf(1)
    tol = 0 if fam.exact else ABS_TOL

    # sweep left to right; abutting blocks may meet at an irrational point
    # that the two closed-form evaluations round differently, hence tol
    cur = to_frac(start)
    for lo, hi in sorted([(to_frac(lo), to_frac(hi)) for lo, hi in pieces] + residuals):
        if lo > cur + tol:
            break
        cur = max(cur, hi)
    if cur + tol < to_frac(stop):
        problems.append(f"blocks and residuals leave [{float(cur)}, ...) uncovered")

    al = to_mpf(alpha)
    vol = ctx.fsum(ctx.power(to_mpf(hi - lo), al) for lo, hi in pieces + residuals)
    if not le_tol(vol, vol_up):
        problems.append("recomputed alpha-volume exceeds alpha_volume_upper")

    length = stop - start
    e_lo, e_hi = (frac(v) for v in cert["interval_length"])
    if not (le_tol(e_lo, length) and le_tol(length, e_hi)):
        problems.append("interval_length does not enclose b - a")
    k = kappa(fam, alpha, delta)
    if not le_tol(rhs, k * ctx.power(to_mpf(length), to_mpf(alpha - delta))):
        problems.append("bound_rhs exceeds K(alpha, delta) |E|^(alpha - delta)")
    return problems


# --- the window-scan workload ----------------------------------------------------


def _cell(fam: Family, alpha: Fraction, delta: Fraction, n: int, M):
    """True (lhs, rhs) of one cell of the tail inequality."""
    mass = fam.tail(n) if M is None else fam.window(n, M)
    return ctx.power(to_mpf(mass), to_mpf(alpha - delta)), fam.power_window(alpha, n, M)


def _row_margins(fam: Family, alpha: Fraction, delta: Fraction, n: int, ms):
    """True margins lhs - rhs of row n at each M in ascending ``ms``."""
    expo, al = to_mpf(alpha - delta), to_mpf(alpha)
    rhs, last = ctx.mpf(0), n - 1
    for M in ms:
        # sum q_i^alpha grows term by term, so consecutive cells cost one term each
        rhs += ctx.fsum(ctx.power(to_mpf(fam.q(i)), al) for i in range(last + 1, n + M + 1))
        last = n + M
        yield M, ctx.power(to_mpf(fam.window(n, M)), expo) - rhs


def check_holds(fam: Family, verdict: dict, query: dict, every_cell: bool) -> list[str]:
    """A holds verdict: one positive margin per row, each at most the true
    margin of the checked cells of its row: the limit cell, and every
    finite cell or a doubling grid of M."""
    problems = []
    if verdict.get("outcome") != "holds_on_region":
        return [f"expected holds_on_region, got {verdict.get('outcome')}"]
    rows = [(int(m["n"]), frac(m["margin_lower"])) for m in verdict["margins"]]
    want = list(range(query["N"] + 1, query["n_max"] + 1))
    if [n for n, _ in rows] != want:
        problems.append(f"margin rows {[n for n, _ in rows]} != {want}")
    if not all(m > 0 for _, m in rows):
        problems.append("a margin is not positive")
    alpha, delta, m_min, m_max = query["alpha"], query["delta"], query["N"] + 1, query["M_max"]
    for n, margin in rows:
        if every_cell:
            cells = list(_row_margins(fam, alpha, delta, n, range(m_min, m_max + 1)))
        else:
            grid = sorted({min(m_min * 2**k, m_max) for k in range(m_max.bit_length() + 1)})
            cells = [(M, lhs - rhs) for M in grid for lhs, rhs in [_cell(fam, alpha, delta, n, M)]]
        lhs, rhs = _cell(fam, alpha, delta, n, None)
        cells.append((None, lhs - rhs))
        for M, true_margin in cells:
            if not le_tol(margin, true_margin):
                problems.append(f"row {n} margin exceeds the true margin at M={M}")
                break
    return problems


def check_violated(fam: Family, verdict: dict, query: dict, witness) -> list[str]:
    """A violated verdict at the expected witness, re-verified at twice the bits."""
    if verdict.get("outcome") != "violated":
        return [f"expected violated, got {verdict.get('outcome')}"]
    problems = []
    n, M = witness
    if verdict["witness"] != {"n": n, "M": M}:
        problems.append(f"witness {verdict['witness']} != {witness}")
    bits = int(verdict["precision_bits"])
    if verdict.get("reverified_bits") != 2 * bits:
        problems.append("violation was not re-verified at twice the bits")
    lhs_up, rhs_lo = frac(verdict["lhs_upper"]), frac(verdict["rhs_lower"])
    if not lhs_up < rhs_lo:
        problems.append("lhs_upper < rhs_lower does not hold")
    old = ctx.prec
    ctx.prec = 2 * bits
    try:
        lhs, rhs = _cell(fam, query["alpha"], query["delta"], n, M)
    finally:
        ctx.prec = old
    # at 2*bits the float values carry about that many correct bits
    slack = Fraction(1, 2 ** (2 * bits - 16))
    if not (to_frac(lhs) <= lhs_up * (1 + slack) and rhs_lo <= to_frac(rhs) * (1 + slack)):
        problems.append("witness bounds do not enclose the recomputed cell")
    if not lhs < rhs:
        problems.append("recomputed witness cell does not violate")
    return problems


def check_scan_rows(fam: Family, rows: list, alpha: Fraction, delta: Fraction, n_grid, m_grid) -> list[str]:
    """Margin table rows [n, M, lhs_lower, rhs_upper, margin] in grid order."""
    problems = []
    want = [(n, m) for n in n_grid for m in m_grid]
    got = [(int(r[0]), None if r[1] == "inf" else int(r[1])) for r in rows]
    if got != want:
        return [f"table cells {got} != {want}"]
    divergent = fam.name == "powerlaw" and fam.m0 * alpha <= 1
    for (n, M), row in zip(got, rows):
        lhs_lo, rhs_up = frac(row[2]), frac(row[3])
        if M is None and divergent:
            lhs = ctx.power(to_mpf(fam.tail(n)), to_mpf(alpha - delta))
            if not (le_tol(lhs_lo, lhs) and lhs_lo < rhs_up):
                problems.append(f"divergent limit cell n={n} is wrong")
            continue
        lhs, rhs = _cell(fam, alpha, delta, n, M)
        if not (le_tol(lhs_lo, lhs) and le_tol(rhs, rhs_up)):
            problems.append(f"cell ({n}, {M}) bounds do not enclose the true values")
    return problems


def check_cantor_spec(fam: Family, doc: dict, params: dict, levels) -> list[str]:
    problems = []
    if [(int(l["k"]), int(l["M"])) for l in doc["levels"]] != list(levels):
        return [f"levels {[(l['k'], l['M']) for l in doc['levels']]} != {list(levels)}"]
    alpha, delta = params["alpha"], params["delta"]
    if (frac(doc["alpha"]), frac(doc["delta"]), frac(doc["L"]), int(doc["N"])) != (
        alpha, delta, params["L"], params["N"]
    ):
        problems.append("spec parameters differ from the build inputs")
    for n, lvl in enumerate(doc["levels"], 1):
        k, M = int(lvl["k"]), int(lvl["M"])
        eps = frac(lvl["eps"])
        if eps != params["eps1"] / 2 ** (n - 1):
            problems.append(f"level {n} eps is {eps}")
        if not le_tol(fam.tail(k), eps):
            problems.append(f"level {n} tail mass exceeds eps")
        gamma = fam.power_window(alpha, k, M)
        if not (le_tol(frac(lvl["gamma_lo"]), gamma) and le_tol(gamma, frac(lvl["gamma_hi"]))):
            problems.append(f"level {n} gamma enclosure misses the window power sum")
        lhs = ctx.power(to_mpf(fam.window(k, M)), to_mpf(alpha - delta))
        if not lhs < gamma:
            problems.append(f"level {n} window does not violate the inequality")
    return problems


def level_volume(fam: Family, levels, s: Fraction, family: str):
    total = ctx.mpf(1)
    for j, (k, M) in enumerate(levels, 1):
        if family == "phi_split" or j < len(levels):
            total *= fam.power_window(s, k, M)
        else:
            total *= ctx.power(to_mpf(fam.window(k, M)), to_mpf(s))
    return total


def check_volume_rows(fam: Family, rows: list, levels, s_grid) -> list[str]:
    want = [(f, s) for f in ("phi_split", "block_union") for s in s_grid]
    got = [(r[0], frac(r[1])) for r in rows]
    if got != want:
        return [f"volume rows {got} != {want}"]
    problems = []
    for (family, s), row in zip(got, rows):
        v = level_volume(fam, levels, s, family)
        if not (le_tol(frac(row[2]), v) and le_tol(v, frac(row[3]))):
            problems.append(f"{family} volume at s={s} misses the recomputed value")
    return problems


def check_measure(fam: Family, doc: dict, address, levels, alpha: Fraction) -> list[str]:
    if doc["address"] != list(address):
        return [f"measured address {doc['address']} != {list(address)}"]
    mass = ctx.mpf(1)
    for d, (k, M) in zip(address, levels):
        mass *= ctx.power(to_mpf(fam.q(d)), to_mpf(alpha)) / fam.power_window(alpha, k, M)
    if not (le_tol(frac(doc["mass_lo"]), mass) and le_tol(mass, frac(doc["mass_hi"]))):
        return [f"cylinder mass of {list(address)} misses the recomputed value"]
    return []


def check_gap(doc: dict, separated: bool, phi_bracket, union_bracket) -> list[str]:
    problems = []
    if doc["separation_certified"] is not separated:
        problems.append(f"separation_certified is {doc['separation_certified']}")
    for fam, want in (("phi_split", phi_bracket), ("block_union", union_bracket)):
        got = doc[fam]["bracket"]
        got = None if got is None else [frac(v) for v in got]
        if got != (None if want is None else [Fraction(v) for v in want]):
            problems.append(f"{fam} bracket {got} != {want}")
    return problems
