"""Spans around the calls into each layer of ``repro``, from outside it.

:func:`install` wraps public functions and methods of the package
under test with timing wrappers that record one span per call (name,
start, end, parent span) and bump deterministic work counters.  Spans
stay in memory and are written out once, by :meth:`Tracer.dump`.
Nothing in ``repro`` is edited: a function is replaced in every loaded
``repro`` module that holds a reference to it, because that is where
callers look it up, and a method is replaced on its class.

Times come from :func:`time.monotonic` (CLOCK_MONOTONIC on Linux), so
spans recorded in a daemon line up with timestamps taken in the
benchmark process.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time

from perfbench.stats import self_times

# (span id, names of the open spans) of the innermost open span.  A
# context variable, so every asyncio task sees its own stack and
# callbacks scheduled from a task (the batcher's flush timer) nest
# under the span that scheduled them.
_CURRENT = contextvars.ContextVar("perfbench_span", default=(0, ()))


class Tracer:
    """In-memory span and counter sink."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._next_id = 1

    def add(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``.

        ``count(tracer, args, kwargs, result, outer)`` runs after a
        successful call; ``outer`` is False when a span of the same
        name is already open around this one (nested re-entry).
        """

        def open_span():
            span_id = self._next_id
            self._next_id += 1
            parent, names = _CURRENT.get()
            token = _CURRENT.set((span_id, names + (name,)))
            return span_id, parent, name not in names, token

        def close_span(span_id, parent, token, start):
            end = time.monotonic()
            _CURRENT.reset(token)
            self.spans.append((span_id, parent, name, start, end))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span_id, parent, outer, token = open_span()
                start = time.monotonic()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    close_span(span_id, parent, token, start)
                if count is not None:
                    count(self, args, kwargs, result, outer)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span_id, parent, outer, token = open_span()
                start = time.monotonic()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(span_id, parent, token, start)
                if count is not None:
                    count(self, args, kwargs, result, outer)
                return result

        traced.__perfbench_original__ = fn
        return traced

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _n_records(data) -> int:
    if hasattr(data, "n_records"):
        return int(data.n_records)
    shape = getattr(data, "shape", None)
    return int(shape[0]) if shape else 0


def _count_candidates(tracer, args, kwargs, result, outer):
    tracer.add("mining.candidates_built", len(result))


def _count_frequent(tracer, args, kwargs, result, outer):
    tracer.add("mining.frequent", result.n_frequent)


def _count_supports(tracer, args, kwargs, result, outer):
    if outer:
        tracer.add("mining.support_queries", len(result))


def _count_itemsets(tracer, args, kwargs, result, outer):
    tracer.add("kernels.itemsets_counted", len(result))


def _count_mechanism_rows(tracer, args, kwargs, result, outer):
    # args[0] is the mechanism, args[1] the dataset; build_estimator
    # perturbs its input, and perturb nested under it is not re-counted.
    _parent, names = _CURRENT.get()
    if not any(name.startswith("mechanisms.") for name in names):
        dataset = _arg(args, kwargs, 1, "dataset")
        tracer.add("mechanisms.perturb.rows", _n_records(dataset))


def _count_store_get(tracer, args, kwargs, result, outer):
    tracer.add("store.hits" if result is not None else "store.misses")


def _count_batch_rows(tracer, args, kwargs, result, outer):
    tracer.add("service.perturb_batch.rows", int(result.shape[0]))


# ----------------------------------------------------------------------
# what is wrapped: (module, attribute, span name, counter)
# ----------------------------------------------------------------------
_COUNTING = "repro.mining.counting"
_KERNELS = "repro.mining.kernels.counting"
_MINING = "repro.mining.reconstructing"
_APRIORI = "repro.mining.apriori"
_ORCHESTRATOR = "repro.experiments.orchestrator"
_PIPELINE = "repro.pipeline.executor"
_STREAMING = "repro.pipeline.streaming"
_SERVER = "repro.service.server"

FUNCTIONS = (
    ("repro.data.census", "generate_census", "data.generate", None),
    ("repro.data.health", "generate_health", "data.generate", None),
    (_MINING, "mine_exact", "mining.exact", None),
    (_MINING, "mine_per_level", "mining.apriori", _count_frequent),
    (_APRIORI, "apriori", "mining.apriori", _count_frequent),
    (_APRIORI, "generate_candidates", "mining.candidates", _count_candidates),
    (_KERNELS, "pattern_counts", "kernels.pattern_counts", None),
    ("repro.core.reconstruction", "reconstruct_counts", "core.reconstruct", None),
    (_ORCHESTRATOR, "_execute_cell", "experiments.cell", None),
    ("repro.service.wire", "decode_records", "service.decode", None),
)

_SUPPORT_ESTIMATORS = (
    (_COUNTING, "ExactSupportCounter"),
    (_COUNTING, "GammaDiagonalSupportEstimator"),
    (_COUNTING, "MaskSupportEstimator"),
    (_COUNTING, "CutAndPasteSupportEstimator"),
    (_STREAMING, "AccumulatedSupportEstimator"),
    (_STREAMING, "BitmapStreamSupportEstimator"),
    ("repro.mechanisms.base", "MarginalInversionEstimator"),
    (_KERNELS, "BitmapSupportCounter"),
)

_SERVICE_OPS = ("tenants", "collections", "perturb", "submit", "reconstruct", "mine")

METHODS = (
    tuple(
        (module, cls, "supports", "mining.supports", _count_supports)
        for module, cls in _SUPPORT_ESTIMATORS
    )
    + (
        (_KERNELS, "BitmapSupportCounter", "counts", "kernels.counts", _count_itemsets),
        (_PIPELINE, "PerturbationPipeline", "perturb", "pipeline.run", None),
        (_PIPELINE, "PerturbationPipeline", "accumulate", "pipeline.run", None),
        (_PIPELINE, "PerturbationPipeline", "accumulate_bitmaps", "pipeline.run", None),
        (
            "repro.baselines.mask",
            "MaskPerturbation",
            "solve_pattern_counts",
            "baselines.mask.solve",
            None,
        ),
        (
            "repro.baselines.cut_and_paste",
            "CutAndPastePerturbation",
            "estimate_itemset_support",
            "baselines.cp.solve",
            None,
        ),
        (_ORCHESTRATOR, "Orchestrator", "run", "experiments.run", None),
        ("repro.store.store", "ResultStore", "get", "store.get", _count_store_get),
        ("repro.store.store", "ResultStore", "put", "store.put", None),
        (
            "repro.pipeline.batch",
            "SequentialPerturbStream",
            "perturb_batch",
            "service.perturb_batch",
            _count_batch_rows,
        ),
        ("repro.data.io", "FrdSpool", "append", "spool.append", None),
        ("repro.service.ledger", "LedgerStore", "save", "ledger.save", None),
    )
    + tuple(
        (_SERVER, "PerturbationService", f"handle_{op}", f"service.{op}", None)
        for op in _SERVICE_OPS
    )
)


def _mechanism_classes():
    base = importlib.import_module("repro.mechanisms.base").Mechanism
    importlib.import_module("repro.mechanisms.builtin")
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _replace_function(original, traced) -> None:
    """Point every ``repro`` module's reference to ``original`` at ``traced``.

    Covers module globals and module-level dispatch tables (a dict whose
    values are the function or tuples holding it, such as the
    orchestrator's dataset generators).
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = traced
                    elif isinstance(entry, tuple) and any(
                        item is original for item in entry
                    ):
                        value[key] = tuple(
                            traced if item is original else item for item in entry
                        )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed above (idempotent per process)."""
    # Import everything first, so every `from x import f` copy of a
    # wrapped function already sits in sys.modules when it is replaced.
    for module_name, *_ in FUNCTIONS + METHODS:
        importlib.import_module(module_name)
    importlib.import_module("repro.experiments.cli")
    for module_name, attr, name, count in FUNCTIONS:
        # sys.modules, not attribute access: repro.mining.apriori is
        # shadowed by the function of the same name on the package.
        original = getattr(sys.modules[module_name], attr)
        if hasattr(original, "__perfbench_original__"):
            continue
        _replace_function(original, tracer.wrap(name, original, count))
    targets = [
        (getattr(sys.modules[module], cls), method, name, count)
        for module, cls, method, name, count in METHODS
    ]
    for cls in _mechanism_classes():
        for method in ("perturb", "build_estimator"):
            targets.append((cls, method, f"mechanisms.{method}", _count_mechanism_rows))
    for cls, method, name, count in targets:
        original = cls.__dict__.get(method)
        if original is None or hasattr(original, "__perfbench_original__"):
            continue
        setattr(cls, method, tracer.wrap(name, original, count))


# ----------------------------------------------------------------------
# per-layer metrics from a trace
# ----------------------------------------------------------------------
def merge(traces) -> dict:
    """One trace from several processes' traces (span ids made unique)."""
    spans, counts, offset = [], {}, 0
    for trace in traces:
        top = 0
        for span_id, parent, name, start, end in trace["spans"]:
            spans.append(
                (span_id + offset, parent + offset if parent else 0, name, start, end)
            )
            top = max(top, span_id)
        offset += top
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


def aggregate(trace: dict, since: float | None = None, until: float | None = None):
    """``{span name: {"calls", "self_s", "total_s"}}`` over a trace.

    ``since``/``until`` keep spans that start inside the window.
    """
    spans = [tuple(span) for span in trace["spans"]]
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span_id, _parent, name, start, end in spans:
        if since is not None and start < since:
            continue
        if until is not None and start >= until:
            continue
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[span_id]
        row["total_s"] += end - start
    return table


def layer_metrics(trace: dict) -> dict:
    """The ``per_layer`` metrics computable from one process's trace.

    An ``_s`` metric is the self time of its spans, so layers add up
    without double counting; ``mining.exact_s``, ``service.submit_s``
    and ``service.mine_s`` are inclusive (a whole reference mining run,
    the service's view of a request), and ``service.batch_wait_s`` is
    the self time of ``handle_submit``: what a submission spends
    waiting for its batch to flush.
    Service metrics that need the phase boundary or the daemon's shed
    counter are added by the service workload.
    """
    table = aggregate(trace)
    counts = trace["counts"]

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    hits, misses = counts.get("store.hits", 0), counts.get("store.misses", 0)
    queries = counts.get("mining.support_queries", 0)
    return {
        "data.generate_s": self_s("data.generate"),
        "data.generate.calls": calls("data.generate"),
        "experiments.cells_computed": calls("experiments.cell"),
        "experiments.cell_s": self_s("experiments.cell"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mining.exact_s": total_s("mining.exact"),
        "mining.supports_s": self_s("mining.supports"),
        "mining.supports.calls": calls("mining.supports"),
        "mining.candidates_s": self_s("mining.candidates"),
        "mining.candidates_built": counts.get("mining.candidates_built", 0),
        "mining.frequent_ratio": (
            counts.get("mining.frequent", 0) / queries if queries else 0.0
        ),
        "kernels.counts_s": self_s("kernels.counts"),
        "kernels.itemsets_counted": counts.get("kernels.itemsets_counted", 0),
        "kernels.pattern_counts_s": self_s("kernels.pattern_counts"),
        "mechanisms.perturb_s": self_s("mechanisms.perturb"),
        "mechanisms.perturb.rows": counts.get("mechanisms.perturb.rows", 0),
        "mechanisms.build_estimator_s": self_s("mechanisms.build_estimator"),
        "pipeline.run_s": self_s("pipeline.run"),
        "baselines.cp.solve_s": self_s("baselines.cp.solve"),
        "baselines.cp.solves": calls("baselines.cp.solve"),
        "baselines.mask.solve_s": self_s("baselines.mask.solve"),
        "baselines.mask.solves": calls("baselines.mask.solve"),
        "core.reconstruct_s": self_s("core.reconstruct"),
        "core.reconstruct.calls": calls("core.reconstruct"),
        "service.decode_s": self_s("service.decode"),
        "service.submit_s": total_s("service.submit"),
        "service.batch_wait_s": self_s("service.submit"),
        "service.perturb_batch_s": self_s("service.perturb_batch"),
        "service.mine_s": total_s("service.mine"),
        "spool.append_s": self_s("spool.append"),
        "ledger.save_s": self_s("ledger.save"),
        # Measured by the service workload only (phase boundary, daemon
        # admission counters, load generator); zero where bypassed.
        "service.flushes": 0,
        "service.rows_per_flush": 0.0,
        "service.shed": 0,
        "spool.appends": 0,
        "ledger.saves": 0,
        "bench.gen_lag_p99_ms": 0.0,
    }
