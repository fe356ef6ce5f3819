"""Benchmark of silt's public Python API, one workload per process.

    python3 perfbench/run.py --workload regularize --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; silt is imported from ``./src`` and nowhere
else.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` times the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced passes with passes whose layer calls are
wrapped in spans, reports the per-layer metrics and writes the spans to
``.perfbench_out/``.  The line before the result holds the seed, the
environment, sample counts and quartiles, and the first failures.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # at least; one more runs after each pass
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def import_silt():
    """Import silt from the checkout's sources, or stop with exit code 1."""
    if not (SRC / "silt" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no silt sources under {SRC}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import silt

    if Path(silt.__file__).resolve().parent != (SRC / "silt").resolve():
        raise SystemExit(f"run.py: imported silt from {silt.__file__}, not {SRC}")
    return silt


def measure(run_once, seconds: float, min_runs: int = MIN_PASSES) -> None:
    """Repeat ``run_once`` until the next call would overrun ``seconds``."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_once()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_runs and elapsed + statistics.median(durations) > seconds:
            return


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def setup_probe(args) -> float:
    """Set-up time of one fresh process: imports plus the workload's set-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(silt, workload_cls, args, tally):
    wl = workload_cls(silt, args.seed)
    wl.prepare()
    wl.run_pass(tally)  # warm-up: lazy initialisation, caches; checked like the rest
    walls, setups = [], []

    def pass_then_probe():
        t0 = time.perf_counter()
        wl.run_pass(tally)
        walls.append(time.perf_counter() - t0)
        setups.append(setup_probe(args))

    # Set-up probes run between passes, so both samples span the whole run.
    measure(pass_then_probe, args.seconds)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    details = {"wall_s": summary(walls), "setup_s": summary(setups)}
    return wl, metrics, details


def traced_run(silt, workload_cls, args, tally):
    from silt_bench.layers import PASS_SPAN, PROBES, SETUP_SPAN, per_layer_metrics
    from silt_bench.spans import Tracer, install

    tracer = Tracer()
    inst = install(tracer, PROBES, "silt")
    missing = inst.missing
    try:
        with tracer.span(SETUP_SPAN):
            wl = workload_cls(silt, args.seed)
    finally:
        inst.uninstall()
    wl.prepare()
    wl.run_pass(tally)
    untraced = []

    def pair():
        t0 = time.perf_counter()
        wl.run_pass(tally)
        untraced.append(time.perf_counter() - t0)
        traced = install(tracer, PROBES, "silt")
        try:
            with tracer.span(PASS_SPAN):
                wl.run_pass(tally)
        finally:
            traced.uninstall()

    measure(pair, args.seconds, min_runs=2)
    metrics = per_layer_metrics(tracer.spans, untraced, tally.fail_frac)
    details = {"untraced_wall_s": summary(untraced), "missing": missing}
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "missing": missing,
        "spans": [[s.name, s.start, s.end, s.parent, s.data] for s in tracer.spans],
    }))
    details["trace_file"] = str(trace_file.relative_to(ROOT))
    return wl, metrics, details


def parse_args(argv):
    from silt_bench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    silt = import_silt()
    from silt_bench.env import environment
    from silt_bench.tally import Tally
    from silt_bench.workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(silt, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    tally = Tally((silt.DegenerateConfigurationError, silt.ConsistencyError))
    run = traced_run if args.trace else timed_run
    wl, metrics, details = run(silt, workload_cls, args, tally)
    env = environment(ROOT)
    if hasattr(wl, "largest_factor_bytes"):
        env["largest_factor_array_bytes"] = wl.largest_factor_bytes()
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "details": details,
        "fail_frac": tally.fail_frac,
        "failures": tally.failures,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
