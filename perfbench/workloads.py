"""The benchmark's workloads: seeded inputs, one pass of jobs, output checks.

A workload hands out *passes*.  A pass of a cover workload is ten jobs (the
tenth covers up to the unit's right end); a pass of ``window-scan`` is one
job, the whole CLI pipeline.  Inputs depend only on the seed and the pass
index, never on timing, so two runs with one seed run the same jobs.

The library receives only the generated inputs.  Every output is kept as
canonical JSON and re-checked by :mod:`checker` in a process of its own, so
nothing here imports the oracle or mpmath.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

PASS_JOBS = 10
DEPTH = 12
EPS = Fraction(1, 10**6)
PAIRS = ((Fraction(1, 2), Fraction(1, 5)), (Fraction(4, 5), Fraction(1, 10)))

LUROTH = {"family": "luroth"}
GEO_HALF = {"family": "geometric", "ratio": "1/2"}
POWERLAW2 = {"family": "powerlaw", "m0": "2"}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _strip(word) -> tuple:
    word = tuple(word)
    while word and word[-1] == 0:
        word = word[:-1]
    return word


def lex_less(a, b) -> bool:
    """Value order of two finite expansions: compare zero-padded words."""
    n = max(len(a), len(b))
    return tuple(a) + (0,) * (n - len(a)) < tuple(b) + (0,) * (n - len(b))


def _rational(rng: random.Random) -> Fraction:
    den = rng.randint(2, 10**6)
    return Fraction(rng.randrange(den), den)


@dataclass(frozen=True)
class CoverJob:
    spec: dict
    x: Fraction
    a: tuple
    b: tuple | None  # None: the unit's right end

    @property
    def known_defect(self) -> bool:
        """Enclosure-mode cover up to the unit end raises NotImplementedError:
        covering._point_value returns Fraction(1), and Fraction - iv.mpf
        fails in _cover_once."""
        return self.b is None and self.spec["family"] == "powerlaw"


@dataclass
class JobResult:
    wall: float
    cpu: float
    output: dict
    error: str | None = None
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


class CoverWorkload:
    """Round-trip one rational, then cover [a, b) at both (alpha, delta) pairs.

    ``cover-exact`` draws a and b as the acceptance suite does: random words
    of rank 1..5 with digits 0..6, over Lüroth and geometric(1/2) in turn.
    ``cover-interval`` runs on power-law m0 = 2 with one job shape, a of rank
    2 below b's first digit, so each cover partitions exactly one left tail.
    There a job costs about 0.4 s per tail, so the acceptance-suite shape
    would make a run's work depend on how many tails the seed happens to
    draw; a fixed shape keeps it independent of the seed.
    """

    certs_per_job = len(PAIRS)

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.specs = (LUROTH, GEO_HALF) if name == "cover-exact" else (POWERLAW2,)

    def job(self, index: int) -> CoverJob:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        spec = self.specs[index % len(self.specs)]
        x = _rational(rng)
        if self.name == "cover-exact":
            while True:
                a = _strip(rng.randint(0, 6) for _ in range(rng.randint(1, 5)))
                b = _strip(rng.randint(0, 6) for _ in range(rng.randint(1, 5)))
                if a != b:
                    break
            if lex_less(b, a):
                a, b = b, a
        else:
            # the first digit sets most of a job's cost, so every pass holds
            # the same mix of first digits and only the rest is drawn
            a = (index % PASS_JOBS % 6, rng.randint(1, 6))
            b = _strip((rng.randint(a[0] + 1, 6),) + tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3))))
        if index % PASS_JOBS == PASS_JOBS - 1:
            b = None
        return CoverJob(spec, x, a, b)

    def pass_jobs(self, index: int) -> list:
        return [self.job(index * PASS_JOBS + i) for i in range(PASS_JOBS)]

    def warm_up(self, q) -> None:
        """One job per spec on fixed inputs, so set-up cost does not vary by seed."""
        for spec in self.specs:
            self.run(q, CoverJob(spec, Fraction(1, 3), (1, 2), (3,)))

    def run(self, q, job: CoverJob) -> dict:
        spec = q.QVectorSpec.from_json(job.spec)
        addr = q.encode(spec, job.x, DEPTH)
        cyl = q.decode(spec, addr)
        a = q.QRational.of(job.a)
        b = q.UNIT_END if job.b is None else q.QRational.of(job.b)
        certs = [
            q.cover_interval(spec, a, b, q.CoverParams(alpha, delta, EPS)).to_json()
            for alpha, delta in PAIRS
        ]
        return {"digits": list(addr.digits), "cylinder": cyl.to_json(), "certs": certs}

    def expected_error(self, job: CoverJob, error: str) -> bool:
        return job.known_defect and error.startswith("NotImplementedError")


# --- window-scan -----------------------------------------------------------------

# Cantor levels of powerlaw m0=2, alpha=2/5, delta=1/5, L=1/2, eps1=1/1000, N=10
CANTOR_LEVELS = (
    (623, 28),
    (391229168928, 9969947),
    (
        15077805697091490865457380853356083192456167498956239011839,
        89301548008977962532537502357520384,
    ),
)
CANTOR = {"alpha": Fraction(2, 5), "delta": Fraction(1, 5), "L": Fraction(1, 2), "N": 10, "eps1": Fraction(1, 1000)}
VOLUME_GRID = ("1/10", "3/20", "1/5")
GAP_GRID = ("1/20", "1/10", "3/20", "1/5", "1/4", "3/10")
SCAN_N = (50, 100, 200)
SCAN_M = (100, 1000, None)
MEASURES = 3

# (family config, alpha, delta, N, n_max, M_max) for each size
CONDITIONS = {
    "full": {
        "luroth": (LUROTH, "9/10", "1/5", 17, 30, 1000),
        "geometric": (GEO_HALF, "1/2", "1/10", 17, 200, 10000),
        "powerlaw": (POWERLAW2, "2/5", "1/10", 99, 200, 10000),
    },
    "smoke": {
        "luroth": (LUROTH, "9/10", "1/5", 17, 20, 60),
        "geometric": (GEO_HALF, "1/2", "1/10", 17, 30, 200),
        "powerlaw": (POWERLAW2, "2/5", "1/10", 99, 200, 10000),
    },
}
CANTOR_DEPTH = {"full": 3, "smoke": 1}
# dimension_gap brackets (phi_split, block_union); depth 1 has no union crossing
GAP = {
    "full": (True, ("1/4", "3/10"), ("1/20", "1/10")),
    "smoke": (False, ("1/4", "3/10"), None),
}


class WindowScan:
    """The README research pipeline through ``qinfty.cli.main``, in-process."""

    certs_per_job = 7 + MEASURES  # 3 verdicts, 1 margin table, spec, volumes, gap, measures

    def __init__(self, seed: int, size: str):
        self.size = size
        self.depth = CANTOR_DEPTH[size]
        self.levels = CANTOR_LEVELS[: self.depth]
        rng = random.Random(f"window-scan:{seed}")
        self.addresses = [
            tuple(k + rng.randint(0, M) for k, M in self.levels) for _ in range(MEASURES)
        ]

    def prepare(self, workdir: str) -> None:
        """Write the family configs to ``workdir``; the pipeline's outputs go there too."""
        self.dir = workdir
        self.files = {}
        for name, doc in (("luroth", LUROTH), ("geometric", GEO_HALF), ("powerlaw", POWERLAW2)):
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.files[name] = path
        self.commands = self._commands(CONDITIONS[self.size])

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _commands(self, conditions) -> list:
        cmds = []
        for name, (_, alpha, delta, N, n_max, M_max) in conditions.items():
            cmds.append([
                "check-condition", "--qvec", self.files[name], "--alpha", alpha, "--delta", delta,
                "--N", str(N), "--n-max", str(n_max), "--M-max", str(M_max),
                "--out", self._path(f"verdict-{name}.json"),
            ])
        cmds.append([
            "scan-condition", "--qvec", self.files["powerlaw"], "--alpha", "2/5", "--delta", "1/10",
            "--n-grid", ",".join(map(str, SCAN_N)),
            "--M-grid", ",".join("inf" if m is None else str(m) for m in SCAN_M),
            "--csv", self._path("margins.csv"),
        ])
        spec = self._path("cantor.json")
        cmds.append([
            "cantor", "build", "--qvec", self.files["powerlaw"], "--alpha", "2/5", "--delta", "1/5",
            "--L", "1/2", "--depth", str(self.depth), "--out", spec,
        ])
        cmds.append([
            "cantor", "volume", "--spec", spec, "--s-grid", ",".join(VOLUME_GRID),
            "--csv", self._path("volume.csv"),
        ])
        for addr in self.addresses:
            cmds.append(["cantor", "measure", "--spec", spec, "--address", json.dumps(list(addr))])
        cmds.append([
            "cantor", "gap", "--spec", spec, "--s-grid", ",".join(GAP_GRID),
            "--out", self._path("gap.json"),
        ])
        return cmds

    def pass_jobs(self, index: int) -> list:
        return [None]

    def warm_up(self, q) -> None:
        """The smoke-size pipeline, in a directory of its own."""
        warm_dir = os.path.join(os.path.dirname(self.dir), "warmup")
        os.mkdir(warm_dir)
        warm = WindowScan(0, "smoke")
        warm.prepare(warm_dir)
        warm.run(q)

    def run(self, q, job=None) -> dict:
        log = []
        for argv in self.commands:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = q.cli.main(argv)
            log.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})
        files = {}
        for name in sorted(os.listdir(self.dir)):
            with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        # outputs name the scratch directory; drop it so digests compare across runs
        return json.loads(canonical({"log": log, "files": files}).replace(self.dir, "$DIR"))

    def expected_error(self, job, error: str) -> bool:
        return False
