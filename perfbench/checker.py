"""Re-checks a run's outputs in a process of its own.

``run.py`` starts this script beside the measuring process:

    python3 perfbench/checker.py WORKLOAD SEED SIZE

It prints ``ready`` once its imports are done.  After each pass the run
writes one JSON line ``{"pass": p, "results": [{"output": ..., "error":
...}, ...]}`` and waits for the reply line ``{"problems": [[...], ...],
"seconds": s}``, one problem list per job.  The jobs themselves are
regenerated here from the seed and the pass index.  The oracle's imports,
320-bit arithmetic and caches therefore never count in the time or the
memory of the measuring process.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

import oracle
import workloads
from workloads import CANTOR, CONDITIONS, DEPTH, EPS, GAP, PAIRS, SCAN_M, SCAN_N, VOLUME_GRID


@functools.cache
def family(config: str) -> oracle.Family:
    return oracle.Family(json.loads(config))


def check_cover_job(job: workloads.CoverJob, out: dict) -> list:
    fam = family(workloads.canonical(job.spec))
    problems = oracle.check_roundtrip(fam, job.x, DEPTH, out["digits"], out["cylinder"])
    for (alpha, delta), cert in zip(PAIRS, out["certs"]):
        problems += oracle.check_cover(fam, job.a, job.b, alpha, delta, EPS, cert)
    return problems


def check_pipeline(wl: workloads.WindowScan, out: dict) -> list:
    problems = [f"{' '.join(e['argv'][:2])} exited {e['rc']}" for e in out["log"] if e["rc"] != 0]
    if problems:
        return problems
    files = out["files"]
    configs = {"luroth": workloads.LUROTH, "geometric": workloads.GEO_HALF, "powerlaw": workloads.POWERLAW2}
    for name, (_, alpha, delta, N, n_max, M_max) in CONDITIONS[wl.size].items():
        fam = family(workloads.canonical(configs[name]))
        verdict = json.loads(files[f"verdict-{name}.json"])
        query = {"alpha": Fraction(alpha), "delta": Fraction(delta), "N": N, "n_max": n_max, "M_max": M_max}
        if name == "powerlaw":
            problems += oracle.check_violated(fam, verdict, query, (100, 100))
        else:
            problems += oracle.check_holds(fam, verdict, query, every_cell=name == "luroth")
    pl = family(workloads.canonical(workloads.POWERLAW2))
    rows = list(csv.reader(io.StringIO(files["margins.csv"])))
    if rows[0] != ["n", "M", "lhs_lower", "rhs_upper", "margin"]:
        problems.append(f"margin table header {rows[0]}")
    problems += oracle.check_scan_rows(pl, rows[1:], Fraction(2, 5), Fraction(1, 10), SCAN_N, SCAN_M)
    problems += oracle.check_cantor_spec(pl, json.loads(files["cantor.json"]), CANTOR, wl.levels)
    rows = list(csv.reader(io.StringIO(files["volume.csv"])))
    problems += oracle.check_volume_rows(pl, rows[1:], wl.levels, [Fraction(s) for s in VOLUME_GRID])
    measures = [json.loads(e["stdout"]) for e in out["log"] if e["argv"][:2] == ["cantor", "measure"]]
    for doc, addr in zip(measures, wl.addresses):
        problems += oracle.check_measure(pl, doc, addr, wl.levels, CANTOR["alpha"])
    problems += oracle.check_gap(json.loads(files["gap.json"]), *GAP[wl.size])
    return problems


class Checker:
    """The problems of one job's output, or of its error."""

    def __init__(self, workload: str, seed: int, size: str):
        if workload == "window-scan":
            self.wl = workloads.WindowScan(seed, size)
        else:
            self.wl = workloads.CoverWorkload(workload, seed)
        self.reference = None

    def __call__(self, job, output, error) -> list:
        if error is not None:
            return [] if self.wl.expected_error(job, error) else [f"unexpected error: {error}"]
        if isinstance(self.wl, workloads.CoverWorkload):
            return check_cover_job(job, output)
        # every pass runs one pipeline: check it once, then demand identical outputs
        if self.reference is None:
            self.reference = (output, check_pipeline(self.wl, output))
        reference, problems = self.reference
        return problems if output == reference else ["pipeline output differs from the first pass"]


def main(argv: list) -> int:
    workload, seed, size = argv
    checker = Checker(workload, int(seed), size)
    print("ready", flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        start = time.perf_counter()
        jobs = checker.wl.pass_jobs(msg["pass"])
        problems = [checker(job, r["output"], r["error"]) for job, r in zip(jobs, msg["results"], strict=True)]
        print(json.dumps({"problems": problems, "seconds": time.perf_counter() - start}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
