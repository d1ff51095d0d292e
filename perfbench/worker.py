"""Run one workload in this process and print its measurements as JSON.

    python3 perfbench/worker.py --root . --workload verify_stream --seed 1 \
        --seconds 30 --trace 0

One closed-loop client calls `hsconvex.cli.main(argv)` in-process, with
stdout and stderr captured, sending the next request only when the previous
one has returned. `run.py` starts this script in a fresh interpreter so that
the peak RSS it reports belongs to the workload alone.

Untraced (`--trace 0`) runs go through requests 0, 1, 2, ... of the seed's
stream until `--seconds` have passed, and never stop before the first
`prefix` requests are done, so the output digest always covers the same
requests. They time each request in reference seconds by the clock of
speed.py. Traced (`--trace 1`) runs repeat that prefix in passes: an
untraced warm-up, then untraced and traced passes in turn until `--seconds`
have passed. The untraced passes are the reference for the tracing
overhead; every pass must print the same documents.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import speed
import tracer as tracing
import workloads


@dataclass(frozen=True)
class Plan:
    """How a workload is driven: the per-request deadline in seconds, far
    above the p99 at the seed commit, and the number of requests that the
    output digest and each traced pass cover."""

    deadline_s: float
    prefix: int


PLANS = {
    # one battery takes about 5 s at the seed commit
    "selftest": Plan(deadline_s=120.0, prefix=1),
    # p99 about 25 ms at the seed commit
    "verify_stream": Plan(deadline_s=1.0, prefix=150),
    # p99 about 6 ms at the seed commit
    "oracle_stream": Plan(deadline_s=0.25, prefix=1000),
    # as oracle_stream; about 2 in 1000 requests run away in the z -> 1
    # quadrature of `lambda --check` and end at the deadline
    "oracle_edge": Plan(deadline_s=0.25, prefix=1000),
}

# A traced run, untraced passes included, replaces the clock deadline by a
# budget of integrand evaluations per `integrate` call, so that which
# requests are cut off, and hence every count and document, repeats exactly. At the seed commit no request that
# answers uses more than about 19k in one call, and the runaway ones pass
# 1.8M; 200k takes about as long as the oracle_stream deadline.
TRACE_EVAL_BUDGET = 200_000


class Deadline(BaseException):
    """Raised inside the program when a request passes its deadline or, in
    a traced run, its work budget. A BaseException, so that no handler in
    the program catches it."""


def _alarm(signum, frame):
    raise Deadline()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Sample:
    index: int
    latency_s: float
    stdout: str
    reason: Optional[str]  # None, or the failure reason from classify
    detail: str  # for a failure: the exception or the stderr text
    ref_s: float = 0.0  # latency in reference seconds, when a clock runs


class Client:
    """Sends one request at a time through cli.main and classifies it."""

    def __init__(self, cli, deadline_s: float) -> None:
        self.cli = cli
        self.deadline_s = deadline_s
        self.tracer = None
        self.clock: Optional[speed.RefClock] = None
        signal.signal(signal.SIGALRM, _alarm)

    def call(self, workload: str, seed: int, index: int) -> Sample:
        argv = workloads.request(workload, seed, index)
        out, err = io.StringIO(), io.StringIO()
        code, error, timed_out = None, None, False
        if self.tracer is not None:
            self.tracer.begin_request(index)
        start = time.perf_counter()
        ref_start = self.clock.now() if self.clock else 0.0
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Deadline:
            timed_out = True
        except Exception as exc:  # a crash out of main is a result to count
            error = type(exc).__name__
            err.write(f"{error}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        latency = time.perf_counter() - start
        ref_s = self.clock.now() - ref_start if self.clock else 0.0
        if timed_out and self.tracer is not None:
            self.tracer.discard_request()
        outcome = workloads.Outcome(tuple(argv), code, out.getvalue(),
                                    error, timed_out)
        reason = workloads.classify(outcome)
        detail = ""
        if reason is not None:
            detail = err.getvalue().strip()[:200] or (
                f"no answer within {self.deadline_s} s or its work budget"
                if timed_out else outcome.stdout.strip()[-200:])
        return Sample(index, latency, outcome.stdout, reason, detail, ref_s)


class Tally:
    """Latencies, failures and the output digest of a sequence of samples.

    Only the first `digest_limit` stdout documents enter the digest, and no
    document is kept, so the tally stays small however long the run.
    """

    def __init__(self, digest_limit: int) -> None:
        self.digest_limit = digest_limit
        self.latencies = array("d")
        self.ref_latencies = array("d")
        self.failures: Counter = Counter()
        self.failed_requests: list = []
        self.deadline_s = 0.0  # time spent in requests cut off by deadline
        self._hash = hashlib.sha256()
        self._hashed = 0

    def add(self, sample: Sample) -> None:
        self.latencies.append(sample.latency_s)
        self.ref_latencies.append(sample.ref_s)
        if sample.reason is not None:
            self.failures[sample.reason] += 1
            self.failed_requests.append(
                [sample.index, sample.reason, sample.detail])
        if sample.reason == "deadline":
            self.deadline_s += sample.latency_s
        if self._hashed < self.digest_limit:
            self._hash.update(sample.stdout.encode("utf-8") + b"\0")
            self._hashed += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def answered_s(self) -> float:
        """Time spent in requests that were not cut off."""
        return sum(self.latencies) - self.deadline_s

    @property
    def ok(self) -> int:
        return self.attempted - sum(self.failures.values())

    def digest(self) -> str:
        """SHA-256 over the digested stdout documents, in request order."""
        return self._hash.hexdigest()


def timed_run(client: Client, workload: str, seed: int, seconds: float,
              plan: Plan) -> dict:
    tally = Tally(plan.prefix)
    notes = []
    first_doc = None
    clock = speed.RefClock()
    client.clock = clock
    start = time.perf_counter()
    clock.start()
    try:
        while (tally.attempted < plan.prefix
               or time.perf_counter() - start < seconds):
            sample = client.call(workload, seed, tally.attempted)
            tally.add(sample)
            if workload == "selftest":
                # the battery is fixed, so every one must print the same
                # document
                first_doc = first_doc or sample.stdout
                if sample.stdout != first_doc:
                    notes.append(f"selftest battery {sample.index} printed "
                                 "another document than battery 0")
    finally:
        clock.stop()
        client.clock = None
    wall = time.perf_counter() - start
    return {
        "attempted": tally.attempted,
        "failures": dict(tally.failures),
        "failed_requests": tally.failed_requests,
        # one closed-loop client: answered requests per reference second
        # spent in requests, so the client's checks between requests are
        # left out
        "ops_per_s": tally.ok / sum(tally.ref_latencies),
        "wall_ops_per_s": tally.ok / sum(tally.latencies),
        "latency_p50_ms": percentile(tally.ref_latencies, 50) * 1e3,
        "latency_p90_ms": percentile(tally.ref_latencies, 90) * 1e3,
        "kernel_ms": [percentile(clock.samples, p) * 1e3 for p in (10, 50, 90)],
        "kernel_samples": len(clock.samples),
        "wall_s": wall,
        "digest": tally.digest(),
        "digest_requests": plan.prefix,
        "notes": notes,
    }


def _run_pass(client: Client, workload: str, seed: int, plan: Plan) -> Tally:
    tally = Tally(plan.prefix)
    for i in range(plan.prefix):
        tally.add(client.call(workload, seed, i))
    return tally


def _budgeted_integrate(integrate):
    def wrapper(f, lo, hi, *args, **kwargs):
        left = [TRACE_EVAL_BUDGET]

        def counted(t):
            left[0] -= 1
            if left[0] < 0:
                raise Deadline()
            return f(t)
        return integrate(counted, lo, hi, *args, **kwargs)
    return wrapper


def traced_run(client: Client, workload: str, seed: int, seconds: float,
               plan: Plan, trace_path: Path) -> dict:
    start = time.perf_counter()
    undo = tracing.rebind("numeric", "integrate", _budgeted_integrate)
    # a safety net only: the work budget ends runaway requests first
    client.deadline_s = 20.0 * plan.deadline_s
    tracer = tracing.Tracer()
    untraced: list[Tally] = []
    traced: list[Tally] = []
    pass_counts: list[Counter] = []
    try:
        # the first pass fills lazy caches; after it, untraced and traced
        # passes alternate, so that a drift in machine speed falls on both
        # sides of the overhead ratio alike
        warmup = _run_pass(client, workload, seed, plan)
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(_run_pass(client, workload, seed, plan))
            before = Counter(tracer.counts)
            tracer.install()
            client.tracer = tracer
            try:
                traced.append(_run_pass(client, workload, seed, plan))
            finally:
                tracer.uninstall()
                client.tracer = None
            counts = Counter(tracer.counts)
            counts.subtract(before)
            pass_counts.append(+counts)
    finally:
        tracing.restore(undo)
    notes = []
    if any(t.digest() != warmup.digest() for t in untraced + traced):
        notes.append("passes over the same requests printed different "
                     "documents")
    if any(c != pass_counts[0] for c in pass_counts):
        notes.append("per-layer counts differ between traced passes")

    totals = tracer.layer_totals()
    metrics = tracing.layer_metrics(totals, pass_counts[0], len(traced))
    # the spans of requests cut off by the budget were dropped, so the
    # rates and the time base leave those requests out too
    kept = sum(t.answered_s for t in traced)
    metrics["trace.overhead_ratio"] = (
        (sum(t.ok for t in untraced) / sum(t.answered_s for t in untraced))
        / (sum(t.ok for t in traced) / kept))
    metrics["trace.self_sum_share"] = (
        sum(own for _, own in totals.values()) / kept)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    everything = [warmup] + untraced + traced
    return {
        "attempted": sum(t.attempted for t in everything),
        "failures": dict(sum((t.failures for t in everything), Counter())),
        "failed_requests": warmup.failed_requests,
        "passes": len(traced),
        "metrics": metrics,
        "digest": warmup.digest(),
        "digest_requests": plan.prefix,
        "notes": notes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import hsconvex.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported hsconvex from {cli.__file__}, not {src}")

    plan = PLANS[args.workload]
    client = Client(cli, plan.deadline_s)
    if args.trace:
        trace_path = args.root / ".bench_out" / f"trace-{args.workload}.jsonl"
        result = traced_run(client, args.workload, args.seed, args.seconds,
                            plan, trace_path)
    else:
        result = timed_run(client, args.workload, args.seed, args.seconds, plan)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
