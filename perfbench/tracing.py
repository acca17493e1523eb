"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, the functions that each gigmix
module's fit loop calls at its layer boundary. A wrapped call records a span
(name, start, end, parent) in memory; the spans are written out when the run
ends. The scalar special functions are called hundreds of thousands of times
per round, so they are counted and timed as leaves instead: their time is
charged to the enclosing span, which keeps that span's self time honest
without storing a span per call.

A target that no longer exists (renamed or removed) is skipped and listed as
not found; the layers that depend on it report "not measured".
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute path, span name). A module's own name for a function is
# wrapped, because that is the name its callers look up at call time.
SPAN_TARGETS = (
    ("gigmix.cli", "run_benchmark", "experiments.run_benchmark"),
    ("gigmix.experiments", "run_benchmark", "experiments.run_benchmark"),
    ("gigmix.experiments", "fit_model", "experiments.fit_model"),
    ("gigmix.experiments", "generate", "experiments.generate"),
    ("gigmix.experiments", "RunManifest.write_manifest", "experiments.write_outputs"),
    ("gigmix.experiments", "RunManifest.write_runs_csv", "experiments.write_outputs"),
    ("gigmix.experiments", "RunManifest.write_wins_csv", "experiments.write_outputs"),
    ("gigmix.experiments", "kmeans_1d", "initialization.kmeans"),
    ("gigmix.experiments", "init_mixture", "initialization.init_mixture"),
    ("gigmix.experiments", "restricted_auc", "evaluation.restricted_auc"),
    ("gigmix.experiments", "win_matrix", "evaluation.win_matrix"),
    ("gigmix.initialization", "kmeans_1d", "initialization.kmeans"),
    ("gigmix.initialization", "init_mixture", "initialization.init_mixture"),
    ("gigmix.vb_em", "_fit_vb", "vb_em.fit"),
    ("gigmix.vb_em", "kmeans_1d", "initialization.kmeans"),
    ("gigmix.vb_em", "init_mixture", "initialization.init_mixture"),
    ("gigmix.vb_em", "_responsibility_pass", "vb_em.estep"),
    ("gigmix.vb_em", "expectations", "vb_em.expectations"),
    ("gigmix.vb_em", "_kl_total", "vb_em.objective"),
    ("gigmix.vb_em", "_update_state", "vb_em.update"),
    ("gigmix.ml_em", "_fit_ml", "ml_em.fit"),
    ("gigmix.ml_em", "_e_step", "ml_em.estep"),
    ("gigmix.ml_em", "m_step", "ml_em.mstep"),
    ("gigmix.evaluation", "restricted_auc", "evaluation.restricted_auc"),
    ("gigmix.evaluation", "standardize", "evaluation.standardize"),
    ("gigmix.cli", "standardize", "evaluation.standardize"),
    ("gigmix.cli", "restricted_auc", "evaluation.restricted_auc"),
    ("gigmix.cli", "read_values", "io.read_values"),
    ("gigmix.cli", "read_values_txt", "io.read_scores"),
    ("gigmix.cli", "read_labels_txt", "io.read_labels"),
    ("gigmix.cli", "write_gamma_csv", "io.write_gamma_csv"),
    ("gigmix.cli", "write_json", "io.write_json"),
)

# Scalar special functions as vb_em looks them up; counted as leaves.
LEAF_TARGETS = tuple(
    ("gigmix.vb_em", name, "special." + name)
    for name in ("digamma", "log_gamma", "trigamma", "tetragamma", "inv_digamma")
)


def _span_suffix(span_name, args, kwargs) -> str:
    """Per-format span names for value reads."""
    if span_name == "io.read_values":
        fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "?")
        return "." + str(fmt)
    return ""


def _fit_attrs(span_name, args, result) -> dict:
    """Model, iteration count and stop state of a fit span; {} if the fit's
    signature or result no longer has the expected shape."""
    try:
        return _fit_attrs_unchecked(span_name, args, result)
    except (IndexError, AttributeError, TypeError):
        return {}


def _fit_attrs_unchecked(span_name, args, result) -> dict:
    if span_name == "vb_em.fit":
        families, cfg = args[1], args[2]
        model = "bggm" if families[0].kind == "gamma" else "bgim"
        cap = cfg.max_iterations
    elif span_name == "ml_em.fit":
        model = "ggm" if args[3] == "gamma" else "gim"
        cap = args[2].max_iterations
    else:
        return {}
    return {
        "model": model,
        "iterations": int(result.iterations),
        "cap_hit": int(result.iterations) >= cap and not result.converged,
    }


class Tracer:
    """In-memory spans plus leaf counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []  # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.leaf_s = []  # leaf time charged to each span
        self.attrs = {}  # span index -> fit attributes
        self.leaf_calls = defaultdict(int)
        self.leaf_time = defaultdict(float)
        self.not_found = []
        self.installed = set()
        self._stack = []
        self._saved = []

    # -- wrapping -------------------------------------------------------
    def _span_wrapper(self, fn, span_name):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(span_name + _span_suffix(span_name, args, kwargs))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.leaf_s.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            attrs = _fit_attrs(span_name, args, result)
            if attrs:
                self.attrs[idx] = attrs
            return result

        return traced

    def _leaf_wrapper(self, fn, leaf_name):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.leaf_calls[leaf_name] += 1
                self.leaf_time[leaf_name] += dt
                if self._stack:
                    self.leaf_s[self._stack[-1]] += dt

        return counted

    def install(self, span_targets=SPAN_TARGETS, leaf_targets=LEAF_TARGETS) -> None:
        self.not_found = []
        for targets, make in ((span_targets, self._span_wrapper), (leaf_targets, self._leaf_wrapper)):
            for module_name, path, name in targets:
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.not_found.append(f"{module_name}.{path}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))
                self.installed.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def durations_and_self(self):
        """Per span: duration and self time.

        Self time is the duration minus the durations of the child spans and
        the leaf time charged to the span.
        """
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_time = [dur[i] - child[i] - self.leaf_s[i] for i in range(n)]
        return dur, self_time

    def table(self) -> dict:
        """span name -> (count, total seconds, self seconds)."""
        dur, self_time = self.durations_and_self()
        out = {}
        for i in range(len(self.names)):
            c, t, s = out.get(self.names[i], (0, 0.0, 0.0))
            out[self.names[i]] = (c + 1, t + dur[i], s + self_time[i])
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")


# -- per-layer metrics --------------------------------------------------------

# name -> (unit, the spans or leaves it is computed from), in the order
# BENCHMARK.json lists them. If no target of one of those spans was found,
# the metric is "not measured".
LAYER_METRICS = {
    "initialization.kmeans_s": ("s", ("initialization.kmeans",)),
    "initialization.init_mixture_s": ("s", ("initialization.init_mixture",)),
    "vb_em.estep_ms_per_iter": ("ms", ("vb_em.fit", "vb_em.estep")),
    "vb_em.expectations_ms_per_iter": ("ms", ("vb_em.fit", "vb_em.expectations")),
    "vb_em.objective_ms_per_iter": ("ms", ("vb_em.fit", "vb_em.objective")),
    "vb_em.update_ms_per_iter": ("ms", ("vb_em.fit", "vb_em.update")),
    "vb_em.self_ms_per_iter": ("ms", ("vb_em.fit",)),
    "vb_em.iterations.bggm": ("count", ("vb_em.fit",)),
    "vb_em.iterations.bgim": ("count", ("vb_em.fit",)),
    "vb_em.cap_hits": ("count", ("vb_em.fit",)),
    "ml_em.estep_ms_per_iter": ("ms", ("ml_em.fit", "ml_em.estep")),
    "ml_em.mstep_ms_per_iter": ("ms", ("ml_em.fit", "ml_em.mstep")),
    "ml_em.iterations.ggm": ("count", ("ml_em.fit",)),
    "ml_em.iterations.gim": ("count", ("ml_em.fit",)),
    "special.calls_per_iter": ("count", ("vb_em.fit", "special.digamma")),
    "special.us_per_call": ("us", ("special.digamma",)),
    "evaluation.restricted_auc_ms": ("ms", ("evaluation.restricted_auc",)),
    "evaluation.win_matrix_ms": ("ms", ("evaluation.win_matrix",)),
    "evaluation.standardize_ms": ("ms", ("evaluation.standardize",)),
    "io.read_values_s.txt": ("s", ("io.read_values",)),
    "io.read_values_s.f64le": ("s", ("io.read_values",)),
    "io.write_gamma_csv_s": ("s", ("io.write_gamma_csv",)),
    "io.write_json_s": ("s", ("io.write_json",)),
    "experiments.generate_s": ("s", ("experiments.generate",)),
    "experiments.write_outputs_s": ("s", ("experiments.write_outputs", "experiments.run_benchmark")),
    "trace.overhead_s": ("s", ()),
}


def layer_metrics(tracer: Tracer) -> tuple:
    """(values, status) for every layer metric except the overhead.

    ``status`` maps a metric to "not measured" (a wrapped function was not
    found) or "not run" (no span on this workload); such metrics read 0.
    """
    dur, self_time = tracer.durations_and_self()
    idx = range(len(tracer.names))
    names = tracer.names

    def spans(name, parent=None):
        return [
            i
            for i in idx
            if names[i] == name and (parent is None or tracer.parent[i] >= 0 and names[tracer.parent[i]] == parent)
        ]

    def mean_dur(ids, scale=1.0):
        return scale * sum(dur[i] for i in ids) / len(ids) if ids else None

    fits = {m: [tracer.attrs[i] for i in idx if tracer.attrs.get(i, {}).get("model") == m]
            for m in ("bggm", "bgim", "ggm", "gim")}
    vb_iters = sum(a["iterations"] for m in ("bggm", "bgim") for a in fits[m])
    ml_iters = sum(a["iterations"] for m in ("ggm", "gim") for a in fits[m])

    def per_iter(ids, iters, scale=1e3):
        return scale * sum(dur[i] for i in ids) / iters if iters and ids else None

    def mean_iters(model):
        return sum(a["iterations"] for a in fits[model]) / len(fits[model]) if fits[model] else None

    vb_fit = spans("vb_em.fit")
    special_calls = sum(tracer.leaf_calls.values())
    special_time = sum(tracer.leaf_time.values())
    writes = spans("experiments.write_outputs")
    bench_calls = len(spans("experiments.run_benchmark"))
    values = {
        "initialization.kmeans_s": mean_dur(spans("initialization.kmeans")),
        "initialization.init_mixture_s": mean_dur(spans("initialization.init_mixture")),
        "vb_em.estep_ms_per_iter": per_iter(spans("vb_em.estep", "vb_em.fit"), vb_iters),
        "vb_em.expectations_ms_per_iter": per_iter(spans("vb_em.expectations", "vb_em.fit"), vb_iters),
        "vb_em.objective_ms_per_iter": per_iter(spans("vb_em.objective", "vb_em.fit"), vb_iters),
        "vb_em.update_ms_per_iter": per_iter(spans("vb_em.update", "vb_em.fit"), vb_iters),
        "vb_em.self_ms_per_iter": (
            1e3 * sum(self_time[i] for i in vb_fit) / vb_iters if vb_iters else None
        ),
        "vb_em.iterations.bggm": mean_iters("bggm"),
        "vb_em.iterations.bgim": mean_iters("bgim"),
        "vb_em.cap_hits": (
            sum(a["cap_hit"] for m in ("bggm", "bgim") for a in fits[m]) if vb_fit else None
        ),
        "ml_em.estep_ms_per_iter": per_iter(spans("ml_em.estep", "ml_em.fit"), ml_iters),
        "ml_em.mstep_ms_per_iter": per_iter(spans("ml_em.mstep", "ml_em.fit"), ml_iters),
        "ml_em.iterations.ggm": mean_iters("ggm"),
        "ml_em.iterations.gim": mean_iters("gim"),
        "special.calls_per_iter": special_calls / vb_iters if vb_iters and special_calls else None,
        "special.us_per_call": 1e6 * special_time / special_calls if special_calls else None,
        "evaluation.restricted_auc_ms": mean_dur(spans("evaluation.restricted_auc"), 1e3),
        "evaluation.win_matrix_ms": mean_dur(spans("evaluation.win_matrix"), 1e3),
        "evaluation.standardize_ms": mean_dur(spans("evaluation.standardize"), 1e3),
        "io.read_values_s.txt": mean_dur(spans("io.read_values.txt")),
        "io.read_values_s.f64le": mean_dur(spans("io.read_values.f64le")),
        "io.write_gamma_csv_s": mean_dur(spans("io.write_gamma_csv")),
        "io.write_json_s": mean_dur(spans("io.write_json")),
        "experiments.generate_s": mean_dur(spans("experiments.generate")),
        "experiments.write_outputs_s": (
            sum(self_time[i] for i in writes) / bench_calls if writes and bench_calls else None
        ),
    }
    status = {}
    for name, value in values.items():
        if not all(need in tracer.installed for need in LAYER_METRICS[name][1]):
            status[name] = "not measured"
        elif value is None:
            status[name] = "not run"
    return {k: (0.0 if v is None else float(v)) for k, v in values.items()}, status
