#!/usr/bin/env python3
"""Benchmark of the qinfty library and CLI: three closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cover-exact --seed 1 --seconds 30 --trace 0

One client sends one job at a time from this one process and thread.
Each run sets up (import qinfty and with it mpmath, build the inputs, one
untimed warm-up job) once here and ``SETUP_SAMPLES - 1`` times in fresh
child processes, then runs whole passes of jobs until ``--seconds`` have
passed.  After each pass, a checker in a process of its own (``checker``)
re-checks the outputs with code that does not use qinfty (``oracle``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
measured without instrumentation.  With ``--trace 1`` the run measures the
digest passes untraced, which fills the caches and is checked, then once
more pass by pass, each pass under the tracer (``tracer``) and then
untraced in the same cache state, for the tracing overhead.  The line
reports the per-layer metrics.
``--size smoke`` shrinks every workload so the checks finish in seconds;
``test_perfbench.py`` runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# neither imports mpmath: set-up time starts with the first import of it
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cover-exact", "cover-interval", "window-scan")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
CHECKER = HERE / "checker.py"
# whole passes every run completes: they carry the output digest, and a
# traced run traces exactly this many so its counts repeat exactly
MIN_PASSES = {"full": {"cover-exact": 10, "cover-interval": 4, "window-scan": 2},
              "smoke": {"cover-exact": 1, "cover-interval": 1, "window-scan": 1}}
# job_tail_ms percentile: the highest one that keeps at least ten successful
# jobs beyond it at the least job count of a full run (cover-interval: four
# passes of nine); window-scan runs too few pipelines and reports its slowest
TAIL_PERCENTILE = {"cover-exact": 99, "cover-interval": 70, "window-scan": 100}


def import_qinfty():
    """Import qinfty from this checkout's sources and nowhere else."""
    if not (SRC / "qinfty" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: qinfty sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qinfty
    import qinfty.cli  # noqa: F401  (window-scan drives qinfty.cli.main)

    if Path(qinfty.__file__).resolve().parent != (SRC / "qinfty").resolve():
        raise SystemExit(f"perfbench: imported qinfty from {qinfty.__file__}, not {SRC}")
    return qinfty


def make_workload(name: str, seed: int, size: str, workdir: str):
    if name == "window-scan":
        pipeline_dir = os.path.join(workdir, "pipeline")
        os.mkdir(pipeline_dir)
        wl = workloads.WindowScan(seed, size)
        wl.prepare(pipeline_dir)
        return wl
    return workloads.CoverWorkload(name, seed)


def run_job(q, wl, job) -> workloads.JobResult:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out, error = wl.run(q, job), None
    except Exception as exc:  # a failed job is counted, not fatal
        out, error = {"error": type(exc).__name__}, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return workloads.JobResult(wall, cpu, out, error)


def setup(args, workdir: str):
    """Import, build the inputs and run one untimed warm-up job."""
    start = time.perf_counter()
    q = import_qinfty()
    wl = make_workload(args.workload, args.seed, args.size, workdir)
    wl.warm_up(q)
    return q, wl, time.perf_counter() - start


def setup_in_children(args) -> list:
    """Set-up time of fresh processes, one after another."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--size", args.size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class CheckerProcess:
    """``checker.py`` in a child process, fed one pass at a time.

    The run waits for each reply, so the two processes never compete for a
    core.  Outputs past the digest passes are dropped once checked, so the
    peak memory of a run does not grow with the number of jobs it completes.
    """

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, str(CHECKER), args.workload, str(args.seed), args.size],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.seconds = 0.0
        if self._reply() != "ready":
            raise RuntimeError("perfbench: the checker did not start")

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"perfbench: the checker exited with {self.proc.wait()}")
        return line.strip()

    def __call__(self, index: int, batch, keep: bool) -> None:
        results = [{"output": res.output, "error": res.error} for _, res in batch]
        self.proc.stdin.write(json.dumps({"pass": index, "results": results}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self._reply())
        for (_, res), problems in zip(batch, reply["problems"], strict=True):
            res.problems = tuple(problems)
            if not keep:
                res.output = None
        self.seconds += reply["seconds"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def run_pass(q, wl, index: int) -> list:
    return [(job, run_job(q, wl, job)) for job in wl.pass_jobs(index)]


def run_passes(q, wl, count: int, seconds: float = 0.0, check=None) -> list:
    """Run passes 0, 1, ... until ``count`` passes and ``seconds`` of job time."""
    results = []
    timed = 0.0
    p = 0
    while p < count or timed < seconds:
        batch = run_pass(q, wl, p)
        timed += sum(res.wall for _, res in batch)
        if check is not None:
            check(p, batch, keep=p < count)
        results.extend(batch)
        p += 1
    return results


def digest(results) -> str:
    h = hashlib.sha256()
    for job, res in results:
        h.update(workloads.canonical({"job": repr(job), "output": res.output}).encode())
        h.update(b"\n")
    return h.hexdigest()


def percentile(sorted_values: list, pct: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip().partition("\n")
        # a checkout that is not a repository may still sit inside another one
        if top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "qinfty").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, results, setup_times) -> dict:
    ok = sorted(res.wall for _, res in results if res.ok) or [0.0]  # 0: nothing succeeded
    pct = TAIL_PERCENTILE[args.workload]
    beyond = len(ok) - math.ceil(pct / 100 * len(ok))
    print(f"job_tail_ms is p{pct} of {len(ok)} successful jobs, {beyond} beyond it")
    wall = sum(res.wall for _, res in results)
    certs = sum(wl.certs_per_job for _, res in results if res.ok)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "certs_per_s": metric(certs / wall, "1/s"),
        "job_p50_ms": metric(statistics.median(ok) * 1000, "ms"),
        "job_tail_ms": metric(percentile(ok, pct) * 1000, "ms"),
        "cpu_s": metric(sum(res.cpu for _, res in results) / len(results), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    checker = None
    try:
        q, wl, setup_s = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        min_passes = MIN_PASSES[args.size][args.workload]
        checker = CheckerProcess(args)
        if args.trace:
            results = run_passes(q, wl, min_passes, check=checker)
            tracer = Tracer()
            traced, again = [], []
            # pass by pass, so both sides see the same machine speed and caches
            for p in range(min_passes):
                tracer.install(q)
                try:
                    traced += run_pass(q, wl, p)
                finally:
                    tracer.uninstall()
                again += run_pass(q, wl, p)
        else:
            setup_times = [setup_s] + setup_in_children(args)
            print(f"setup_s samples {setup_times!r}")
            results = run_passes(q, wl, min_passes, args.seconds, checker)
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for _, res in results for p in res.problems]
    first = results[: len(wl.pass_jobs(0)) * min_passes]
    if args.trace:
        outputs = [r.output for _, r in first]
        for name, runs in (("traced", traced), ("repeated", again)):
            if [r.output for _, r in runs] != outputs:
                problems.append(f"{name} outputs differ from the checked outputs")
    failed = sum(1 for _, res in results if not res.ok)
    known = sum(1 for job, res in results if res.error and wl.expected_error(job, res.error))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(results)} jobs, {failed} failed ({known} by the known b=end defect)")
    print(f"fail_share {failed / len(results)!r}")
    print(f"check_s {checker.seconds:.3f} to re-check every output")
    print(f"digest sha256:{digest(first)} over the first {len(first)} jobs")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in tracer.metrics().items()}
        cpu_traced = sum(r.cpu for _, r in traced)
        cpu_plain = sum(r.cpu for _, r in again)
        metrics["trace.overhead"] = metric(cpu_traced / cpu_plain, "ratio")
    else:
        metrics = end_to_end(args, wl, results, setup_times)
    print(json.dumps({
        "correct": not problems and failed < len(results),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
