"""Spans recorded around the public functions of graphon_decode, from outside.

`Tracer.install` replaces every public function of the traced modules, in
every graphon_decode module namespace that holds it (``from .x import f``
copies the reference), with a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory; `layer_metrics` turns the spans
of one op into per-layer numbers.  Nothing under ``src/`` is modified.

Wrappers only see calls made in this process.  Trials run by a worker pool
are invisible to them, which is why a pooled op is traced for the pool
metrics only and its layer times come from a jobs=1 op.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

TRACED_MODULES = ("sbm", "graphon", "lif", "protocols", "embedding", "classify", "experiment")
PACKAGE = "graphon_decode"
ROOT = "op"

# Standard percentiles the tail rule may pick, highest last.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int = 0
    error: str | None = None
    # counts recorded at the boundary (bytes written, simulated steps, spikes)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end) for i, s in enumerate(spans)]


def tail_percentile(n: int) -> float | None:
    """Highest standard percentile with at least ten of ``n`` samples beyond
    it (nearest-rank), or None when not even the median has ten."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100.0) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100.0), 1) - 1]


def _path_args(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            yield os.fspath(value)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    @property
    def in_op(self) -> bool:
        return bool(self._stack)

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def run_op(self, fn, *args):
        """Call ``fn`` under a root span of a fresh op id; returns its result."""
        self.op += 1
        index = self.begin(ROOT)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def op_spans(self, op: int) -> list[Span]:
        """The spans of one op, root first, with parents re-indexed into the
        returned list (an op's spans are contiguous)."""
        first = next(i for i, s in enumerate(self.spans) if s.op == op)
        return [
            replace(s, parent=None if s.parent is None else s.parent - first)
            for s in self.spans[first:]
            if s.op == op
        ]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_op:  # the benchmark's own checks are not part of an op
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            span = tracer.spans[index]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.end(index)
            _record_counts(name, fn, span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever a
        graphon_decode module namespace refers to it."""
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def _record_counts(name, fn, span, args, kwargs, result) -> None:
    if name in SELF_GROUPS["sbm.write_s"]:
        span.counts["bytes"] = sum(
            os.path.getsize(p) for p in _path_args(args, kwargs) if os.path.isfile(p)
        )
    elif name == "lif.run_trial":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        duration, dt = bound.arguments["duration"], bound.arguments["dt"]
        span.counts["steps"] = int(math.floor(duration / dt + 1e-9))  # as run_trial counts
        span.counts["spikes"] = result.total_spikes


# Per-layer time metrics, as sums of self time over the listed functions.
SELF_GROUPS = {
    "sbm.sample_s": ("sbm.sample_adjacency",),
    "sbm.eigh_s": ("sbm.eigendecompose",),
    "sbm.write_s": ("sbm.write_edge_list", "sbm.write_spectra"),
    "graphon.eigenpairs_s": ("graphon.analytic_graphon_eigenpairs",),
    "protocols.extract_s": ("protocols.extract_response",),
    "protocols.write_s": ("protocols.write_responses_csv",),
    "protocols.load_s": (
        "protocols.load_experimental_responses",
        "protocols.normalize_response",
        "protocols.read_block_map",
    ),
    "embedding.graphon_s": ("embedding.graphon_project",),
    "embedding.gft_s": ("embedding.gft_project", "embedding.aligned_gft_project"),
    "embedding.pca_s": ("embedding.pca_fit", "embedding.pca_transform", "embedding.pca_fit_transform"),
    "embedding.write_s": ("embedding.write_embeddings_csv",),
    "classify.cv_self_s": (
        "classify.cross_validated_accuracy",
        "classify.stratified_folds",
        "classify.select_lambda",
        "classify.ridge_fit",
        "classify.predict",
    ),
    "classify.bootstrap_s": ("classify.bootstrap_mean_ci",),
    "classify.paired_s": ("classify.paired_difference_stats", "classify.required_n_for_power"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for the spans of one op (root span first).

    ``<module>.self_s`` sums the self time of that module's spans; the root
    span's self time (CLI parsing and anything untraced) is charged to
    experiment, so the module self times add up to the op's wall time.
    """
    if not spans or spans[0].name != ROOT:
        raise ValueError("expected the spans of one op, root span first")
    own = self_times(spans)
    by_func: dict[str, float] = {}
    by_module = {m: 0.0 for m in TRACED_MODULES}
    for span, t in zip(spans, own):
        by_func[span.name] = by_func.get(span.name, 0.0) + t
        module = "experiment" if span.name == ROOT else span.name.partition(".")[0]
        by_module[module] += t

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    trials = [s for s in spans if s.name == "lif.run_trial"]
    trial_ms = [1e3 * s.duration for s in trials]
    busy = sum(s.duration for s in trials)
    steps = sum(s.counts["steps"] for s in trials)
    extracts = [s for s in spans if s.name == "protocols.extract_response"]
    sbm_writes = [s for s in spans if s.name in SELF_GROUPS["sbm.write_s"]]
    tail = tail_percentile(len(trial_ms))

    out = {name: sum(by_func.get(f, 0.0) for f in funcs) for name, funcs in SELF_GROUPS.items()}
    out.update({f"{m}.self_s": t for m, t in by_module.items()})
    out.update(
        {
            "op.wall_s": spans[0].duration,
            "sbm.bytes_written": float(sum(s.counts.get("bytes", 0) for s in sbm_writes)),
            "lif.trials": float(len(trials)),
            "lif.busy_s": busy,
            "lif.trial_ms_p50": percentile(trial_ms, 50.0) if trial_ms else 0.0,
            "lif.trial_ms_tail": percentile(trial_ms, tail) if tail else 0.0,
            "lif.trial_tail_pct": tail or 0.0,
            "lif.step_us": 1e6 * busy / steps if steps else 0.0,
            "lif.spikes_per_trial": (
                sum(s.counts["spikes"] for s in trials) / len(trials) if trials else 0.0
            ),
            "protocols.zero_response_ratio": (
                sum(s.error == "ZeroResponseError" for s in extracts) / len(extracts)
                if extracts
                else 0.0
            ),
            "classify.ridge_fits": float(sum(s.name == "classify.ridge_fit" for s in spans)),
            "experiment.trials_wall_s": total("experiment.run_protocol_trials"),
            "experiment.manifest_s": total("experiment.write_manifest"),
        }
    )
    return out
