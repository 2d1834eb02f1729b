#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a baseline.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, once
per seed.  Runs are sequential, never concurrent, so they do not compete
for the cores.  For each workload and end-to-end metric the summary holds
the values, their median and quartiles, and the spread: the distance
between the quartiles over the median, as ``statistics.quantiles(values,
n=4)`` gives them.  A spread above a third of the metric's bound is
flagged.  Two traced runs of the first seed per workload add the per-layer
metrics and show whether the counts repeat, and the digests and failure
shares are kept per seed, so a later run of the same seed can be compared
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        info[key] = rest
    return json.loads(lines[-1]), info


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    seconds = BENCHMARK["run_seconds"]
    doc = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = []
        for seed in seeds(args.seeds):
            result, info = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "info": info})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        doc["env"] = json.loads(runs[-1]["info"]["env"])
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "per_seed": {r["seed"]: {k: r["info"][k] for k in ("digest", "fail_share")} for r in runs},
            # the run's own set-up time first, then its fresh children's
            "setup_samples": {r["seed"]: json.loads(r["info"]["setup_s"].partition(" ")[2]) for r in runs},
            "end_to_end": {},
        }
        for m in BENCHMARK["end_to_end"]:
            s = summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = s
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        seed = seeds(args.seeds)[0]
        traced = [run(workload, seed, seconds, 1) for _ in range(2)]
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")} for t, _ in traced]
        entry["per_layer"] = {k: v["value"] for k, v in traced[0][0]["metrics"].items()}
        entry["calls_repeat_exactly"] = calls[0] == calls[1]
        # the traced runs repeat the seed's untraced run: same digest, same fail_share
        entry["outputs_repeat_exactly"] = all(
            {k: info[k] for k in ("digest", "fail_share")} == entry["per_seed"][seed]
            for _, info in traced)
        print(f"  traced: calls repeat exactly: {calls[0] == calls[1]}, outputs repeat exactly: "
              f"{entry['outputs_repeat_exactly']}, overhead "
              f"{entry['per_layer']['trace.overhead']:.3g}", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
