"""Run every workload on several seeds and write the summary as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload: the end-to-end metrics of untraced runs on each seed (their
median, and the quartile spread as a share of the median, as
``statistics.quantiles(values, n=4)`` gives it), then one traced run on the
first seed for the per-layer split.  Runs are sequential, one process at a
time.  Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent, timeout=900,
    )
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seconds = BENCHMARK["run_seconds"]
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        values = {}
        attempted = failed = 0
        for seed in args.seeds:
            info, result = run(workload, seed, seconds, 0)
            env = info["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = run(workload, args.seeds[0], seconds, 1)
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {
                name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for name, v in values.items()
            },
            "traced_seed": args.seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, v in values.items():
            print(f"  {workload} {name}: median {statistics.median(v):.4g} spread {spread(v):.3f}")
    if args.out:
        args.out.write_text(json.dumps({"env": env, "run_seconds": seconds, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
