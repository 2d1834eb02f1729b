"""Tests of the benchmark itself, at the smoke size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,failed", [("cover-exact", 0), ("cover-interval", 1), ("window-scan", 0)])
def test_smoke_run_is_correct(workload, failed):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "smoke")
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stderr
    # one cover-interval pass holds one b=end job, which hits the known defect
    assert res["failed"] == failed * res["attempted"] // 10
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "digest sha256:" in proc.stdout


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "cover-exact", "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "smoke")
    res = result(proc)
    assert res["correct"], proc.stderr
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["covering.cover_interval.calls"]["value"] == 20


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cover-exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_set_up_time_includes_the_mpmath_import():
    # run.py's own imports must not load mpmath, or setup_s would miss it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, run; print('mpmath' in sys.modules)"], cwd=HERE,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_seed_fixes_the_inputs():
    a = workloads.CoverWorkload("cover-interval", 5)
    b = workloads.CoverWorkload("cover-interval", 5)
    c = workloads.CoverWorkload("cover-interval", 6)
    assert a.pass_jobs(3) == b.pass_jobs(3) != c.pass_jobs(3)
    assert [j.b is None for j in a.pass_jobs(0)] == [False] * 9 + [True]


@pytest.fixture(scope="module")
def lur_cert():
    sys.path.insert(0, str(ROOT / "src"))
    import qinfty

    spec = qinfty.QVectorSpec.luroth()
    a, b = (1, 2, 3), (3, 1)
    params = qinfty.CoverParams(Fraction(1, 2), Fraction(1, 5), workloads.EPS)
    cert = qinfty.cover_interval(spec, qinfty.QRational.of(a), qinfty.QRational.of(b), params)
    return oracle.Family(workloads.LUROTH), a, b, cert.to_json()


def test_oracle_accepts_a_library_certificate(lur_cert):
    fam, a, b, cert = lur_cert
    assert oracle.check_cover(fam, a, b, Fraction(1, 2), Fraction(1, 5), workloads.EPS, cert) == []


@pytest.mark.parametrize("mutation", ["drop_block", "volume", "residual", "interval"])
def test_oracle_rejects_a_mutated_certificate(lur_cert, mutation):
    fam, a, b, cert = lur_cert
    cert = json.loads(json.dumps(cert))
    if mutation == "drop_block":
        cert["blocks"].pop(len(cert["blocks"]) // 2)
    elif mutation == "volume":
        cert["alpha_volume_upper"] = str(Fraction(cert["alpha_volume_upper"]) / 2)
    elif mutation == "residual":
        cert["residuals"][0]["hi"] = str(Fraction(cert["residuals"][0]["lo"]) + Fraction(1, 10**5))
    else:
        cert["interval"]["b"] = {"digits": [4]}
    assert oracle.check_cover(fam, a, b, Fraction(1, 2), Fraction(1, 5), workloads.EPS, cert)
