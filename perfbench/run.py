"""The hsconvex benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/` of
that checkout and writes only under `.bench_out/` there. Workloads:

  selftest       repeated `selftest --format json` batteries
  verify_stream  independent `verify` requests, no two sharing a gate
  oracle_stream  `lambda`, `hh` and classic `ostrowski` requests, which
                 never reach the convexity gate
  oracle_edge    oracle_stream with `--check` on every `lambda` request; not
                 in BENCHMARK.json, because some of its requests fail

With `--trace 0` it measures set-up time in fresh interpreters, then runs
the workload for `--seconds` with one closed-loop client in a child
process, and reports the end-to-end metrics. Their times are in reference
seconds, which a fixed kernel run alongside makes independent of the
host's current CPU speed (see speed.py). With `--trace 1` it reports
per-layer spans and counts instead (see worker.py and tracer.py).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when every answer was correct and 1 otherwise; without the package sources
it is 2 and no result is printed.
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
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up spreads about 15% between fresh interpreters, so a run takes the
# median of many; the first probe of a checkout also compiles bytecode and
# is not counted
SETUP_PROBES = 15

# a run ends within this or fails, well inside a 180 s budget per run
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _python(script: str, *args: str, timeout: float) -> str:
    done = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(deadline: float) -> list[float]:
    """Set-up times of fresh interpreters, in reference seconds: each is
    scaled by the nominal over the measured time of the speed.py kernel
    that the same interpreter ran right after."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out = _python("probe.py", str(ROOT),
                      timeout=max(1.0, deadline - time.monotonic()))
        if i > 0:
            setup, kernel = map(float, out.split())
            times.append(setup * speed.NOMINAL_KERNEL_S / kernel)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hsconvex benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hsconvex" / "cli.py").is_file():
        print(f"no hsconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    setup = [] if args.trace else measure_setup(deadline)
    out = _python("worker.py", "--root", str(ROOT),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  timeout=max(1.0, deadline - time.monotonic()))
    res = json.loads(out.splitlines()[-1])

    failed = sum(res["failures"].values())
    wrong = {r: n for r, n in res["failures"].items()
             if r in workloads.WRONG_ANSWER}
    correct = not wrong and not res["notes"]

    if args.trace:
        units = dict(tracer.LAYER_METRICS + tracer.RUN_METRICS)
        values = res["metrics"]
        print(f"traced passes: {res['passes']} of {res['digest_requests']} "
              f"requests each; counts are per pass")
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": res["ops_per_s"],
            "latency_p50_ms": res["latency_p50_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        low, mid, high = res["kernel_ms"]
        print(f"times are in reference seconds (see speed.py): the kernel "
              f"took {low:.3f}/{mid:.3f}/{high:.3f} ms (p10/p50/p90 of "
              f"{res['kernel_samples']} samples), nominal "
              f"{speed.NOMINAL_KERNEL_S * 1e3:.3f} ms")
        print(f"setup_s: median of {len(setup)} fresh interpreters; "
              f"ops_per_s: {res['attempted'] - failed} answered requests "
              f"in a run of {res['wall_s']:.3f} s wall time")
        # not gated: see README.md
        print(f"latencies are nearest-rank percentiles of {res['attempted']}"
              f" requests; not gated:")
        print(f"  wall_ops_per_s = {res['wall_ops_per_s']!r} 1/s")
        if res["attempted"] >= 100:
            print(f"  latency_p90_ms = {res['latency_p90_ms']!r} ms")
        else:
            print("  latency_p90_ms is not reported: fewer than 100 "
                  "requests leave under 10 samples above it")
        print("gated:")
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"digest of the first {res['digest_requests']} output documents: "
          f"{res['digest']}")
    print(f"attempted {res['attempted']}, failed {failed} "
          f"(fail_ratio {failed / res['attempted']:.6f}): "
          f"{json.dumps(res['failures'], sort_keys=True)}")
    for index, reason, detail in res["failed_requests"]:
        argv = " ".join(workloads.request(args.workload, args.seed, index))
        print(f"failed request {index}: {reason}: hsconvex {argv}: {detail}")
    for note in res["notes"]:
        print(f"NOT CORRECT: {note}")
    if wrong:
        print(f"NOT CORRECT: wrong answers {json.dumps(wrong)}")

    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
