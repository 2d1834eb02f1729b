"""Build the Cantor-type counterexample set and inspect its levels.

Every level picks an offset k_n (tail below budget) and a window M_n
whose mass breaks the inequality (the least one while the search scans
window by window), then normalizes the digit distribution. With the split covering the finite-depth volume crossing
sits well above the block-union crossing.
"""

import random
from fractions import Fraction

from qinfty import QVectorSpec, build_cantor, dimension_gap, level_volume, local_dim_ratio
from qinfty.cantor import BLOCK_UNION, PHI_SPLIT, sample_address

PL2 = QVectorSpec.powerlaw(2)


def main():
    spec = build_cantor(PL2, Fraction(2, 5), Fraction(1, 5), Fraction(1, 2),
                        eps_first=Fraction(1, 1000), N=10, depth=2)
    for n, lvl in enumerate(spec.levels, 1):
        print(f"level {n}: k={lvl.k} M={lvl.M} eps={lvl.eps}")
        lo, hi = level_volume(spec, n, spec.delta / 2, BLOCK_UNION)
        print(f"  union volume at delta/2: [{float(lo):.6f}, {float(hi):.6f}]"
              f"  (budget {spec.L})")

    rng = random.Random(11)
    addr = sample_address(spec, 2, rng)
    t = spec.delta / 2
    rb = local_dim_ratio(spec, addr, t)
    print(f"\nsampled address {list(addr.digits)[:1]}... ratio <= {float(rb.value_hi):.3e}"
          f" (cap {float(rb.bound_lo):.3e})")

    grid = [Fraction(i, 100) for i in range(1, 51)]
    report = dimension_gap(spec, grid)
    phi, union = report.phi_split, report.block_union
    print(f"\nsplit-family crossing   ~ {phi.estimate}")
    print(f"union-family crossing   ~ {union.estimate}")
    print(f"separation certified: {report.separation_certified}")


if __name__ == "__main__":
    main()
