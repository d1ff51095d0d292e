"""Spans and counts at the boundaries between the package's modules.

The tracer rebinds each traced public function, in every `hsconvex` module
that holds a reference to it, to a wrapper that records a span (name,
start, end, parent span, request id) or bumps a counter. Nothing under
`src/` changes: `uninstall` puts the original functions back.

The hottest functions (`FunctionSpec.__call__`, `derivative`,
`weighted_mean`) are counted, not spanned, because a span per call would
hold millions of records; their time falls into the self time of the
traced caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

# (module, function, span name); a None name means "count calls only"
TRACED = (
    ("cli", "main", "cli.main"),
    ("verify", "verify_theorem", "verify.verify_theorem"),
    ("verify", "run_ostrowski_matrix", "verify.run_ostrowski_matrix"),
    ("verify", "lambda_consistency_rows", "verify.lambda_consistency_rows"),
    ("verify", "lemma_residual", "verify.lemma_residual"),
    ("verify", "min_corollary_gap", "verify.min_corollary_gap"),
    ("convexity", "check_convexity", "convexity.check_convexity"),
    ("convexity", "proposition_implications",
     "convexity.proposition_implications"),
    ("bounds", "ostrowski_rhs", "bounds.ostrowski_rhs"),
    ("bounds", "lambda_value", "bounds.lambda_value"),
    ("specfn", "hyp2f1", "specfn.hyp2f1"),
    ("numeric", "integrate", "numeric.integrate"),
    ("numeric", "weighted_mean", None),
    ("numeric", "derivative", None),
)

# per-layer metrics the traced run reports, with their units
LAYER_METRICS = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("verify.verify_theorem.calls", "count"),
    ("verify.verify_theorem.total_s", "s"),
    ("verify.verify_theorem.self_s", "s"),
    ("verify.run_ostrowski_matrix.total_s", "s"),
    ("verify.lambda_consistency_rows.total_s", "s"),
    ("verify.lemma_residual.total_s", "s"),
    ("verify.min_corollary_gap.total_s", "s"),
    ("convexity.check_convexity.calls", "count"),
    ("convexity.check_convexity.total_s", "s"),
    ("convexity.check_convexity.self_s", "s"),
    ("convexity.check_convexity.samples", "count"),
    ("convexity.check_convexity.holds_ratio", "1"),
    ("convexity.proposition_implications.total_s", "s"),
    ("bounds.ostrowski_rhs.calls", "count"),
    ("bounds.ostrowski_rhs.total_s", "s"),
    ("bounds.ostrowski_rhs.self_s", "s"),
    ("bounds.lambda_value.calls", "count"),
    ("bounds.lambda_value.total_s", "s"),
    ("bounds.lambda_value.self_s", "s"),
    ("specfn.hyp2f1.series.calls", "count"),
    ("specfn.hyp2f1.series.total_s", "s"),
    ("specfn.hyp2f1.euler.calls", "count"),
    ("specfn.hyp2f1.euler.total_s", "s"),
    ("numeric.integrate.calls", "count"),
    ("numeric.integrate.total_s", "s"),
    ("numeric.integrate.self_s", "s"),
    ("numeric.integrate.evals", "count"),
    ("numeric.integrate.panels", "count"),
    ("numeric.integrate.failed", "count"),
    ("numeric.weighted_mean.calls", "count"),
    ("numeric.derivative.calls", "count"),
    ("numeric.FunctionSpec.evals", "count"),
)

# whole-run figures the traced run adds: untraced over traced throughput,
# and the self times of all layers over the traced request time
RUN_METRICS = (
    ("trace.overhead_ratio", "1"),
    ("trace.self_sum_share", "1"),
)

# K15 evaluates the integrand 15 times per panel
EVALS_PER_PANEL = 15

START, END, PARENT, NAME, REQUEST = range(5)


def rebind(module: str, func: str, make_wrapper: Callable) -> list[tuple]:
    """Replace `hsconvex.<module>.<func>` by make_wrapper(original) in every
    loaded hsconvex module that holds it. Returns what `restore` needs to
    undo it."""
    pkg = [mod for name, mod in sys.modules.items()
           if name == "hsconvex" or name.startswith("hsconvex.")]
    original = getattr(sys.modules["hsconvex." + module], func)
    wrapper = make_wrapper(original)
    undo = []
    for mod in pkg:
        if getattr(mod, func, None) is original:
            undo.append((mod, func, original))
            setattr(mod, func, wrapper)
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children. Spans of one thread nest, so the children of a span
    cover disjoint parts of its interval."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class Tracer:
    """Records spans and counters while installed.

    spans holds [start, end, parent index, name, request id] lists in start
    order; counts maps "<layer>.<stat>" to an integer. begin_request and
    discard_request let the client drop the record of a request that was
    cut off before it finished.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._mark: tuple = (0, Counter())

    # ---------------------------------------------------------- recording

    def _spanned(self, name: str, fn: Callable,
                 route: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            full = route(*args, **kwargs) if route else name
            span = [0.0, 0.0, stack[-1] if stack else -1, full, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            counts[full + ".calls"] += 1
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter()
                counts[full + ".failed"] += 1
                raise
            else:
                span[END] = time.perf_counter()
                if after is not None:
                    after(full, result)
                return result
            finally:
                stack.pop()
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_integrate(self, name: str, result) -> None:
        self.counts[name + ".evals"] += result.evals

    def _after_convexity(self, name: str, report) -> None:
        self.counts[name + ".samples"] += report.samples
        self.counts[name + ".holds"] += report.holds

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Rebind every traced function in each loaded hsconvex module."""
        cutoff = sys.modules["hsconvex.specfn"].DEFAULT_CONFIG.z_series_cutoff

        def hyp2f1_route(a, b, c, z, config=None):
            limit = cutoff if config is None else config.z_series_cutoff
            return "specfn.hyp2f1." + ("series" if z <= limit else "euler")

        extras = {
            "numeric.integrate": {"after": self._after_integrate},
            "convexity.check_convexity": {"after": self._after_convexity},
            "specfn.hyp2f1": {"route": hyp2f1_route},
        }
        for module, func, name in TRACED:
            if name is None:
                def make(fn, key=f"{module}.{func}"):
                    return self._counted(key, fn)
            else:
                def make(fn, name=name):
                    return self._spanned(name, fn, **extras.get(name, {}))
            self._restore += rebind(module, func, make)

        spec_cls = sys.modules["hsconvex.numeric"].FunctionSpec
        call = spec_cls.__call__
        counts = self.counts

        def counted_call(spec, x):
            counts["numeric.FunctionSpec.evals"] += 1
            return call(spec, x)

        self._restore.append((spec_cls, "__call__", call))
        spec_cls.__call__ = counted_call

    def uninstall(self) -> None:
        restore(self._restore)
        self._restore.clear()

    # ----------------------------------------------------- request scopes

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._stack.clear()
        self._mark = (len(self.spans), Counter(self.counts))

    def discard_request(self) -> None:
        """Forget every span and count recorded since begin_request."""
        n_spans, counts = self._mark
        del self.spans[n_spans:]
        self.counts.clear()
        self.counts.update(counts)

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict:
        """Map each span name to [summed duration, summed self time]."""
        totals: dict = {}
        own = self_times(self.spans)
        for span, self_s in zip(self.spans, own):
            entry = totals.setdefault(span[NAME], [0.0, 0.0])
            entry[0] += span[END] - span[START]
            entry[1] += self_s
        return totals

    def write(self, path) -> None:
        """Write the spans as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(totals: dict, counts: Counter, passes: int) -> dict:
    """Per-layer metrics of one pass: times are layer_totals over `passes`
    passes divided by `passes`; counts are the counters of a single pass."""
    values = {}
    for key, _unit in LAYER_METRICS:
        layer, stat = key.rsplit(".", 1)
        if stat in ("total_s", "self_s"):
            total, own = totals.get(layer, (0.0, 0.0))
            values[key] = (total if stat == "total_s" else own) / passes
        elif stat == "panels":
            values[key] = counts[layer + ".evals"] // EVALS_PER_PANEL
        elif stat == "holds_ratio":
            calls = counts[layer + ".calls"]
            values[key] = counts[layer + ".holds"] / calls if calls else 0.0
        else:
            values[key] = counts[key]
    return values
