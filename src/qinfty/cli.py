"""Command-line front end: Q-vector configs in, certificates and tables out.

One subcommand per run.  JSON for structured artifacts, CSV for grids.
Exit status 0 on success (including Violated or Inconclusive verdicts,
which are reported results, not failures), 1 on any error, 2 when
selftest finds a broken invariant.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from . import cantor as cantor_mod
from . import rigor
from .covering import (
    CoverParams,
    MODE_CERTIFIED_RESIDUAL,
    MODE_LAZY_STREAM,
    block_bounds,
    cover_interval,
    kappa,
    lemma1_partition,
)
from .errors import ParameterRangeError, QinftyError
from .expansion import (
    UNIT_END,
    CylinderAddress,
    QRational,
    decode,
    encode,
    right_end,
)
from .faithfulness import (
    CONDITION_PREC,
    CSV_HEADER,
    ConditionQuery,
    check_condition,
    scan_condition_region,
)
from .qvector import QVectorSpec
from .rigor import lower, parse_frac, upper, workprec


def _load_qvec(path: str) -> QVectorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return QVectorSpec.from_json(json.load(fh))


def _load_cantor(path: str) -> cantor_mod.CantorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return cantor_mod.CantorSpec.from_json(json.load(fh))


def _parse_point(text: str):
    """Accept '0', 'end', or 'digits:[...]' for interval endpoints."""
    text = text.strip()
    if text == "end":
        return UNIT_END
    if text == "0":
        return QRational.zero()
    if text.startswith("digits:"):
        return QRational.of(json.loads(text[len("digits:"):]))
    raise ValueError(f"endpoint must be '0', 'end', or 'digits:[...]', got {text!r}")


def _parse_grid(text: str, option: str, parse) -> list:
    """Each entry of a comma list through ``parse``; an empty list or entry,
    or one that ``parse`` refuses, is refused with the option named."""
    parts = [part.strip() for part in text.split(",")]
    if not all(parts):
        raise ParameterRangeError(f"{option} needs a comma list with no empty entry, got {text!r}")

    def entry(part: str):
        try:
            return parse(part)
        except ValueError as exc:
            raise ParameterRangeError(f"{option} entry {part!r} is malformed: {exc}") from exc

    return [entry(part) for part in parts]


def _parse_frac_grid(text: str) -> list[Fraction]:
    return _parse_grid(text, "--s-grid", parse_frac)


def _emit(doc: dict, out_path: Optional[str]) -> None:
    payload = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _cmd_encode(args) -> int:
    spec = _load_qvec(args.qvec)
    addr = encode(spec, parse_frac(args.x), args.depth, prec=args.precision_bits)
    print(json.dumps(addr.to_json(), separators=(",", ":")))
    return 0


def _cmd_decode(args) -> int:
    spec = _load_qvec(args.qvec)
    addr = CylinderAddress.of(json.loads(args.digits))

    def cylinder() -> dict:
        cyl = decode(spec, addr)
        return {"left": rigor.num_to_json(cyl.left), "length": rigor.num_to_json(cyl.length)}

    print(json.dumps(rigor.escalate(cylinder, args.precision_bits), separators=(",", ":")))
    return 0


def _cmd_cover(args) -> int:
    if args.max_blocks < 0:
        raise ParameterRangeError("--max-blocks must be nonnegative")
    spec = _load_qvec(args.qvec)
    params = CoverParams(
        alpha=parse_frac(args.alpha),
        delta=parse_frac(args.delta),
        eps_res=parse_frac(args.eps),
        mode=args.mode,
    )
    cert = cover_interval(
        spec, _parse_point(args.a), _parse_point(args.b), params, prec=args.precision_bits
    )
    doc = cert.to_json()
    if cert.stream is not None:
        # a cover without partitioned tails has a finite stream
        head = itertools.islice(cert.stream, args.max_blocks)
        doc["stream_head"] = [blk.to_json() for blk in head]
    _emit(doc, args.out)
    print(
        f"cover: {len(cert.blocks)} blocks, alpha-volume <= "
        f"{rigor.approx_str(cert.alpha_volume_upper)} <= bound "
        f"{rigor.approx_str(cert.bound_rhs)}"
    )
    return 0


def _cmd_check_condition(args) -> int:
    spec = _load_qvec(args.qvec)
    query = ConditionQuery(
        alpha=parse_frac(args.alpha),
        delta=parse_frac(args.delta),
        N=args.N,
        n_max=args.n_max,
        M_max=args.M_max,
    )
    verdict = check_condition(spec, query, prec=args.precision_bits)
    _emit(verdict.to_json(), args.out)
    print(f"check-condition: {verdict.outcome}")
    return 0


def _cmd_scan_condition(args) -> int:
    spec = _load_qvec(args.qvec)
    rows = scan_condition_region(
        spec,
        parse_frac(args.alpha),
        parse_frac(args.delta),
        _parse_grid(args.n_grid, "--n-grid", int),
        _parse_grid(args.M_grid, "--M-grid", lambda M: None if M == "inf" else int(M)),
        prec=args.precision_bits,
    )
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_row())
    certified = sum(1 for r in rows if r.margin > 0)
    print(f"scan-condition: {len(rows)} cells, {certified} certified holds -> {args.csv}")
    return 0


def _cmd_cantor_build(args) -> int:
    spec = _load_qvec(args.qvec)
    built = cantor_mod.build_cantor(
        spec,
        parse_frac(args.alpha),
        parse_frac(args.delta),
        parse_frac(args.L),
        eps_first=parse_frac(args.eps1),
        N=args.N,
        depth=args.depth,
        prec=args.precision_bits,
    )
    _emit(built.to_json(), args.out)
    for n, lvl in enumerate(built.levels, 1):
        print(
            f"level {n}: k={lvl.k} M={lvl.M} "
            f"gamma=[{rigor.approx_str(lvl.gamma_lo)}, {rigor.approx_str(lvl.gamma_hi)}]"
        )
    return 0


def _cmd_cantor_volume(args) -> int:
    spec = _load_cantor(args.spec)
    level = args.level if args.level is not None else spec.depth
    families = (
        [cantor_mod.PHI_SPLIT, cantor_mod.BLOCK_UNION]
        if args.family == "both"
        else [args.family]
    )
    grid = _parse_frac_grid(args.s_grid)
    rows = []
    for family in families:
        for s in grid:
            lo, hi = cantor_mod.level_volume(spec, level, s, family, prec=args.precision_bits)
            rows.append([family, rigor.frac_str(s), rigor.frac_str(lo), rigor.frac_str(hi)])
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "s", "volume_lo", "volume_hi"])
        writer.writerows(rows)
    print(f"cantor volume: {len(rows)} rows -> {args.csv}")
    return 0


def _cmd_cantor_measure(args) -> int:
    spec = _load_cantor(args.spec)
    addr = cantor_mod.CantorAddress(json.loads(args.address))
    lo, hi = cantor_mod.measure_cylinder(spec, addr, prec=args.precision_bits)
    doc = {
        "address": list(addr.digits),
        "mass_lo": rigor.frac_str(lo),
        "mass_hi": rigor.frac_str(hi),
        "mass_approx": rigor.approx_str((lo + hi) / 2),
    }
    print(json.dumps(doc, separators=(",", ":")))
    return 0


def _cmd_cantor_gap(args) -> int:
    spec = _load_cantor(args.spec)
    report = cantor_mod.dimension_gap(
        spec, _parse_frac_grid(args.s_grid), prec=args.precision_bits
    )
    _emit(report.to_json(), args.out)
    phi, union = report.phi_split, report.block_union
    print(
        f"cantor gap: phi_split crossing ~ {phi.estimate}, "
        f"block_union crossing ~ {union.estimate}, "
        f"separated: {report.separation_certified}"
    )
    return 0


def _selftest_checks(spec: QVectorSpec, seed: int, prec: int):
    """Yield (name, passed) pairs for the invariant battery."""
    rng = random.Random(seed)
    with workprec(prec):
        total = spec.head_sum(200) + spec.tail_sum(200)
        yield "mass sums to one", lower(total) <= 1 <= upper(total)

        yield "weights positive", all(lower(spec.q(i)) > 0 for i in range(25))

        lefts = [decode(spec, CylinderAddress((i,))).left for i in range(8)]
        yield "first-rank layout increases", all(
            upper(lefts[i]) < lower(lefts[i + 1]) for i in range(7)
        )

        ok = True
        for _ in range(25):
            den = rng.choice([97, 255, 996, 1000])
            x = Fraction(rng.randrange(1, den), den)
            addr = encode(spec, x, 8, prec=prec)
            cyl = decode(spec, addr)
            lo, hi = lower(cyl.left), upper(cyl.left + cyl.length)
            ok = ok and lo <= x < hi
        yield "encode/decode containment (25 points)", ok

        part = lemma1_partition(spec, 0, Fraction(1, 2))
        yield "greedy tail partition verifies", part.verify(groups=6)

        w_up, k_up = kappa(spec, Fraction(1, 2), Fraction(1, 5))
        yield "covering constant finite", upper(k_up) > 1 and upper(w_up) > 0

        params = CoverParams(Fraction(1, 2), Fraction(1, 5))
        a = QRational.of([1])
        b = right_end(CylinderAddress((2,)))
        cert = cover_interval(spec, a, b, params, prec=prec)
        sound = cert.alpha_volume_upper <= cert.bound_rhs
        sound = sound and cert.residual_total_upper() <= params.eps_res
        pieces = [
            (upper(lo), lower(hi))
            for lo, hi in (block_bounds(spec, blk) for blk in cert.blocks)
        ]
        pieces += [(lo, hi) for lo, hi in cert.residuals]
        pieces.sort()
        # adjacent blocks may abut at an irrational point, where the
        # conservative endpoints leave an enclosure-width sliver; allow
        # gaps far below eps_res but far above the rounding width
        tol = Fraction(1, 2 ** (prec // 2))
        cur = upper(a.value(spec))
        for left_pt, right_pt in pieces:
            if left_pt > cur + tol:
                break
            cur = max(cur, right_pt)
        target = Fraction(1) if b is UNIT_END else upper(b.value(spec))
        yield "small cover certificate sound", sound and cur >= target - tol

        q4 = spec.q(4)
        yield "one-term power monotonicity", lower(
            rigor.ipow(q4, Fraction(3, 10))
        ) >= upper(rigor.ipow(q4, Fraction(1, 2)))


def _cmd_selftest(args) -> int:
    spec = _load_qvec(args.qvec)
    failures = []
    passed = 0
    for name, ok in _selftest_checks(spec, args.seed, args.precision_bits):
        if ok:
            passed += 1
        else:
            failures.append(name)
            print(f"selftest FAIL: {name}")
    print(f"selftest: {passed} invariant groups passed, {len(failures)} failed")
    return 2 if failures else 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--precision-bits", type=int, default=rigor.DEFAULT_PREC,
                     help="working precision in bits (default %(default)s): the "
                     "first rung of the start/2x/4x ladder")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state in it, and
    building it costs about a millisecond per call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="qinfty",
        description="Infinite-alphabet expansions, certified coverings, "
        "tail-inequality checks, and Cantor counterexample tooling.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("encode", help="digits of a rational point")
    p.add_argument("--qvec", required=True)
    p.add_argument("--x", required=True, help="rational point, e.g. 2/3")
    p.add_argument("--depth", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_encode)

    p = subs.add_parser("decode", help="cylinder of a digit word")
    p.add_argument("--qvec", required=True)
    p.add_argument("--digits", required=True, help="JSON array, e.g. [1,0]")
    _add_common(p)
    p.set_defaults(handler=_cmd_decode)

    p = subs.add_parser("cover", help="certified block covering of an interval")
    p.add_argument("--qvec", required=True)
    p.add_argument("--a", required=True, help="'0' or 'digits:[...]'")
    p.add_argument("--b", required=True, help="'digits:[...]' or 'end'")
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--eps", default="1/1000000", help="residual budget")
    p.add_argument("--mode", choices=[MODE_CERTIFIED_RESIDUAL, MODE_LAZY_STREAM],
                   default=MODE_CERTIFIED_RESIDUAL)
    p.add_argument("--max-blocks", type=int, default=32,
                   help="stream blocks to materialize in lazy mode")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(handler=_cmd_cover)

    p = subs.add_parser("check-condition", help="scan the tail inequality region")
    p.add_argument("--qvec", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--M-max", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(handler=_cmd_check_condition, precision_bits=CONDITION_PREC)

    p = subs.add_parser("scan-condition", help="margin table over a grid")
    p.add_argument("--qvec", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--n-grid", required=True, help="comma list, e.g. 10,100,1000")
    p.add_argument("--M-grid", required=True, help="comma list; 'inf' for the limit cell")
    p.add_argument("--csv", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_scan_condition)

    cant = subs.add_parser("cantor", help="counterexample construction tools")
    csubs = cant.add_subparsers(dest="cantor_command", required=True)

    p = csubs.add_parser("build", help="run the level searches")
    p.add_argument("--qvec", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--eps1", default="1/1000")
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(handler=_cmd_cantor_build)

    p = csubs.add_parser("volume", help="level volume curves")
    p.add_argument("--spec", required=True, help="built spec JSON")
    p.add_argument("--s-grid", required=True, help="comma list of exponents")
    p.add_argument("--family", choices=[cantor_mod.PHI_SPLIT, cantor_mod.BLOCK_UNION, "both"],
                   default="both")
    p.add_argument("--level", type=int)
    p.add_argument("--csv", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_cantor_volume)

    p = csubs.add_parser("measure", help="normalized cylinder mass of an address")
    p.add_argument("--spec", required=True)
    p.add_argument("--address", required=True, help="JSON array of digits")
    _add_common(p)
    p.set_defaults(handler=_cmd_cantor_measure)

    p = csubs.add_parser("gap", help="crossing estimates for both families")
    p.add_argument("--spec", required=True)
    p.add_argument("--s-grid", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(handler=_cmd_cantor_gap)

    p = subs.add_parser("selftest", help="run the invariant battery on a q-vector")
    p.add_argument("--qvec", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (default 0)")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.precision_bits < 16:
            parser.error("--precision-bits must be at least 16")
    except SystemExit as exc:
        # keep exit 2 reserved for selftest invariant failures
        return 0 if exc.code == 0 else 1
    try:
        rc = args.handler(args)
        # flush here, so a reader that has gone is seen inside this try
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of stdout has gone: nothing to report, and the exit
        # flush of what is still buffered goes to devnull instead of failing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except QinftyError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, NotImplementedError, json.JSONDecodeError) as exc:
        print(f"error ({type(exc).__name__}): {str(exc) or 'not implemented for this input'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
