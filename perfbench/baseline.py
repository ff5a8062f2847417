"""Record a baseline: several seeded untraced runs plus one traced run per
workload, summarised as medians and quartiles.  From the root of a checkout:

    python3 perfbench/baseline.py

Later changes quote their deltas against the file this writes.  Runs go one
after another in child processes, exactly as `perfbench/run.py` is invoked.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, machine_info  # noqa: E402

SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("perfbench-info "))
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"machine": machine_info(), "run_seconds": seconds, "seeds": SEEDS,
           "recorded": time.strftime("%Y-%m-%d"), "workloads": {}}
    for name in WORKLOAD_NAMES:
        runs, values = [], {}
        for seed in SEEDS:
            res, info = bench(name, seed, seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "jobs": info["jobs"], "rounds": info["rounds"],
                         "round_size": info["round_size"],
                         "tail_percentile": info["tail_percentile"]})
            for metric, v in res["metrics"].items():
                values.setdefault(metric, {"unit": v["unit"], "values": []})["values"].append(
                    v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)
        traced, tinfo = bench(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "end_to_end": {m: {"unit": v["unit"], **summarise(v["values"])}
                           for m, v in values.items()},
            "runs": runs,
            "per_layer": {"seed": SEEDS[0], "rounds": tinfo["rounds"],
                          "round_size": tinfo["round_size"], "spans": tinfo["spans"],
                          "correct": traced["correct"],
                          "metrics": traced["metrics"]},
        }
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
