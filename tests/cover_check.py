"""Coverage check shared by the covering and acceptance tests."""

from fractions import Fraction

from qinfty.covering import block_bounds
from qinfty.expansion import UNIT_END
from qinfty.rigor import lower, upper


def coverage_exact(spec, cert, a, b) -> bool:
    """Chain check: sorted pieces must run from a to b with no gap.

    Enclosed endpoints count conservatively: a piece starts at the upper
    end of its left endpoint and stops at the lower end of its right one.
    """
    pieces = [(upper(lo), lower(hi)) for lo, hi in (block_bounds(spec, blk) for blk in cert.blocks)]
    pieces += [(lo, hi) for lo, hi in cert.residuals]
    pieces.sort()
    cur = upper(a.value(spec))
    target = Fraction(1) if b is UNIT_END else lower(b.value(spec))
    for left, right in pieces:
        if left > cur:
            return False
        cur = max(cur, right)
    return cur >= target
