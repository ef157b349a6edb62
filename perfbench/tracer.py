"""Spans around calls into rankmil, recorded from outside the program.

Each target is a module attribute at the name its caller looks up, so
``rankmil.training.score_bag`` times the training loop's calls and
``rankmil.cli.load_dataset`` the CLI's. A span is (name, start, end,
parent): the parent is the innermost traced call still open, so a
layer's self time is its spans' durations minus their children's. A
target that no longer exists is reported absent instead of failing, so
a refactor of the program cannot break the trace.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _bag_rows(counts, args, kwargs, result):
    counts["model.forward_rows"] += args[1].features.shape[0]


def _backward(counts, args, kwargs, result):
    _bag_rows(counts, args, kwargs, result)
    upstream = args[3] if len(args) > 3 else kwargs["upstream"]
    counts["model.backward_zero_upstream_calls"] += upstream == 0.0


def _loss(counts, args, kwargs, result):
    counts["losses.zero_loss_units"] += result.value == 0.0


def _read(counts, args, kwargs, result):
    counts["data.bytes_read"] += os.path.getsize(args[0])


def _written(counts, args, kwargs, result):
    counts["data.bytes_written"] += os.path.getsize(args[0])


def _patches(counts, args, kwargs, result):
    counts["synth.patches"] += sum(bag.features.shape[0] for bag in result.bags)


# (module, attribute as the caller looks it up, span name, count hook)
TARGETS = [
    ("rankmil.training", "score_bag", "model.score_bag", _bag_rows),
    ("rankmil.training", "backward_bag", "model.backward_bag", _backward),
    ("rankmil.model", "aggregate_topk", "model.aggregate_topk", None),
    ("rankmil.training", "ModelParams.from_vector", "model.from_vector", None),
    ("rankmil.cli", "save_checkpoint", "model.checkpoint_save", None),
    ("rankmil.cli", "load_checkpoint", "model.checkpoint_load", None),
    ("rankmil.cli", "train", "training.train", None),
    ("rankmil.cli", "write_train_log", "training.write_train_log", None),
    ("rankmil.cli", "score_dataset", "training.score_dataset", None),
    ("rankmil.training", "score_dataset", "training.score_dataset", None),
    ("rankmil.training", "Adam.step", "training.optimizer_step", None),
    ("rankmil.training", "Sgd.step", "training.optimizer_step", None),
    ("rankmil.training", "triplet_ranking_loss", "losses.loss", _loss),
    ("rankmil.training", "pairwise_ranking_loss", "losses.loss", _loss),
    ("rankmil.training", "bag_bce_loss", "losses.loss", _loss),
    ("rankmil.training", "bag_mse_loss", "losses.loss", _loss),
    ("rankmil.cli", "load_dataset", "data.load_dataset", None),
    ("rankmil.data", "load_manifest", "data.load_manifest", _read),
    ("rankmil.data", "load_feature_file", "data.load_feature_file", _read),
    ("rankmil.cli", "write_dataset", "data.write_dataset", None),
    ("rankmil.synth", "write_feature_file", "data.write_feature_file", _written),
    ("rankmil.synth", "write_manifest", "data.write_manifest", _written),
    ("rankmil.cli", "generate", "synth.generate", _patches),
    ("rankmil.numerics", "Rng.gauss_block", "numerics.gauss_block", None),
    ("rankmil.numerics", "Rng.shuffle", "numerics.shuffle", None),
    ("rankmil.training", "auc", "metrics.auc", None),
    ("rankmil.metrics", "auc", "metrics.auc", None),
    ("rankmil.cli", "evaluate", "metrics.evaluate", None),
    ("rankmil.cli", "load_covariates", "metrics.load_covariates", None),
    ("rankmil.cli", "correlate_table", "metrics.correlate_table", None),
    ("rankmil.metrics", "pearson", "metrics.pearson", None),
    ("rankmil.metrics", "regularized_incomplete_beta", "metrics.incomplete_beta", None),
]

COMMANDS = ("synth", "train", "score", "eval", "correlate")
LAYERS = ("model", "training", "losses", "data", "synth", "numerics", "metrics", "cli")

# Per-layer metrics: (name, unit, how it is read from one pass's spans,
# span it needs). Kinds: "calls"/"s" of a span name, "count" of a hook
# counter, "self" of a layer, "cli" self time of a command, and
# "validation", the score_dataset and auc spans directly under train.
_M = [
    ("model.forward_rows", "count", "count", "model.score_bag"),
    ("model.score_bag_calls", "count", "calls", "model.score_bag"),
    ("model.score_bag_s", "s", "s", "model.score_bag"),
    ("model.backward_bag_calls", "count", "calls", "model.backward_bag"),
    ("model.backward_bag_s", "s", "s", "model.backward_bag"),
    ("model.backward_zero_upstream_calls", "count", "count", "model.backward_bag"),
    ("model.aggregate_topk_s", "s", "s", "model.aggregate_topk"),
    ("model.from_vector_calls", "count", "calls", "model.from_vector"),
    ("model.from_vector_s", "s", "s", "model.from_vector"),
    ("model.checkpoint_save_s", "s", "s", "model.checkpoint_save"),
    ("model.checkpoint_load_s", "s", "s", "model.checkpoint_load"),
    ("training.units", "count", "calls", "losses.loss"),
    ("training.epochs_run", "count", "epochs", "training.score_dataset"),
    ("training.optimizer_step_calls", "count", "calls", "training.optimizer_step"),
    ("training.optimizer_step_s", "s", "s", "training.optimizer_step"),
    ("training.validation_s", "s", "validation", "training.score_dataset"),
    ("losses.calls", "count", "calls", "losses.loss"),
    ("losses.s", "s", "s", "losses.loss"),
    ("losses.zero_loss_units", "count", "count", "losses.loss"),
    ("data.load_dataset_s", "s", "s", "data.load_dataset"),
    ("data.bytes_read", "bytes", "count", "data.load_feature_file"),
    ("data.write_dataset_s", "s", "s", "data.write_dataset"),
    ("data.bytes_written", "bytes", "count", "data.write_feature_file"),
    ("synth.generate_s", "s", "s", "synth.generate"),
    ("synth.patches", "count", "count", "synth.generate"),
    ("numerics.gauss_block_s", "s", "s", "numerics.gauss_block"),
    ("numerics.shuffle_s", "s", "s", "numerics.shuffle"),
    ("metrics.auc_calls", "count", "calls", "metrics.auc"),
    ("metrics.auc_s", "s", "s", "metrics.auc"),
    ("metrics.evaluate_s", "s", "s", "metrics.evaluate"),
    ("metrics.load_covariates_s", "s", "s", "metrics.load_covariates"),
    ("metrics.correlate_table_s", "s", "s", "metrics.correlate_table"),
    ("metrics.pearson_calls", "count", "calls", "metrics.pearson"),
    ("metrics.incomplete_beta_s", "s", "s", "metrics.incomplete_beta"),
]
_M += [(f"{layer}.self_s", "s", "self", None) for layer in LAYERS]
_M += [(f"cli.{cmd}_self_s", "s", "cli", None) for cmd in COMMANDS]
METRICS = _M + [
    ("tracing.spans", "count", "spans", None),
    ("tracing.overhead_s", "s", "overhead", None),
]


class Tracer:
    """Installs span wrappers around :data:`TARGETS` for one pass at a
    time and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [label, name, start, end, parent index]
        self.absent: set[str] = set()
        self.broken_hooks: set[str] = set()
        self.counts: dict[object, Counter] = {}  # hook counters per label
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._label: object = None

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._label, name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def install(self, label) -> None:
        """Wrap every target; spans and counts until :meth:`uninstall`
        carry ``label`` (a pass index, or "setup")."""
        self._label = label
        self.counts[label] = Counter()
        seen: set[str] = set()
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            static = inspect.getattr_static(owner, leaf, None) if owner is not None else None
            if static is None:
                if name not in seen:
                    self.absent.add(name)
                continue
            seen.add(name)
            self.absent.discard(name)
            is_classmethod = isinstance(static, classmethod)
            func = static.__func__ if is_classmethod else static
            traced = self._traced(func, name, hook)
            setattr(owner, leaf, classmethod(traced) if is_classmethod else traced)
            self._undo.append((owner, leaf, static))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, static = self._undo.pop()
            setattr(owner, leaf, static)

    def _traced(self, func, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                try:
                    hook(tracer.counts[tracer._label], args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    tracer.broken_hooks.add(name)
            return result

        return traced

    def pass_metrics(self, labels: tuple) -> dict[str, float]:
        """Every per-layer metric of the spans and counts with these labels."""
        counts = sum((self.counts[label] for label in labels), Counter())
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] in labels]
        by_index = {i: s for i, s in spans}
        child = defaultdict(float)
        for _, s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        total, calls, layer_self, cmd_self = Counter(), Counter(), Counter(), Counter()
        validation, epochs = 0.0, 0
        for i, (_, name, start, end, parent) in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            layer, _, func = name.partition(".")
            layer_self[layer] += dur - child[i]
            if layer == "cli":
                cmd_self[func] += dur - child[i]
            if parent >= 0 and by_index[parent][1] == "training.train":
                if name in ("training.score_dataset", "metrics.auc"):
                    validation += dur
                epochs += name == "training.score_dataset"
        out = {}
        for metric, _, kind, span_name in _M:
            if kind == "calls":
                out[metric] = calls[span_name]
            elif kind == "s":
                out[metric] = total[span_name]
            elif kind == "count":
                out[metric] = counts[metric]
            elif kind == "epochs":
                out[metric] = epochs
            elif kind == "validation":
                out[metric] = validation
            elif kind == "self":
                out[metric] = layer_self[metric.split(".")[0]]
            else:
                out[metric] = cmd_self[metric[len("cli."):-len("_self_s")]]
        out["tracing.spans"] = len(spans)
        return out

    def absent_metrics(self) -> list[str]:
        return [m for m, _, kind, span_name in _M
                if span_name in self.absent
                or (kind == "count" and span_name in self.broken_hooks)]


def summarize(per_pass: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """Counts as in every pass; times are medians over passes."""
    out = {}
    for metric, unit, _, _ in METRICS[:-1]:
        values = [p[metric] for p in per_pass]
        out[metric] = statistics.median(values) if unit == "s" else values[0]
    out["tracing.overhead_s"] = overhead
    return out


def counts_differ(per_pass: list[dict[str, float]]) -> list[str]:
    return [m for m, unit, _, _ in METRICS[:-1]
            if unit != "s" and len({p[m] for p in per_pass}) > 1]
