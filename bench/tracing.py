"""Outside-in layer trace of deci, installed from the benchmark's own files.

The tracer replaces the public functions named in TARGETS with timing
wrappers, in every deci module that binds them (``cli.pathway_scores_batch``
and ``training.roc_auc`` are the same function objects as their definitions,
so both are wrapped). Each wrapper records a span: its calls and its self
time, which is its duration minus the time its child spans cover. Counts are
taken at the same boundaries. Nothing inside ``src/`` changes.

A target that can no longer be found raises TraceCoverageError, so a refactor
that renames or removes a layer fails the traced run loudly instead of
silently dropping that layer from the trace.
"""

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from deci.corpus import PAD_ID, RESERVED_TOKENS, UNK_ID

# (module, attribute) of every traced function. The span name is the module's
# short name and the attribute; forward_batch and backward_batch are split by
# branch view into ".full" and ".demo".
TARGETS = (
    ("deci.cli", "main"),
    ("deci.corpus", "generate_synthetic"),
    ("deci.corpus", "save_jsonl"),
    ("deci.corpus", "load_jsonl"),
    ("deci.corpus", "Vocabulary.from_documents"),
    ("deci.model", "batch_inputs"),
    ("deci.model", "pathway_scores_batch"),
    ("deci.model", "forward_batch"),
    ("deci.model", "backward_batch"),
    ("deci.training", "train"),
    ("deci.training", "clip_gradients"),
    ("deci.training", "adam_step"),
    ("deci.training", "save_checkpoint"),
    ("deci.training", "load_checkpoint"),
    ("deci.evaluation", "run_ablation"),
    ("deci.evaluation", "final_scores_from_z"),
    ("deci.evaluation", "roc_auc"),
    ("deci.evaluation", "f1_scores"),
    ("deci.evaluation", "precision_at_k"),
    ("deci.numerics", "sigmoid"),
)
SPLIT_BY_VIEW = {"model.forward_batch", "model.backward_batch"}


def _base_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


SPAN_NAMES = tuple(
    name
    for base in (_base_name(m, a) for m, a in TARGETS)
    for name in ((f"{base}.full", f"{base}.demo") if base in SPLIT_BY_VIEW else (base,))
)

# Counts: name -> (unit, better).
COUNTS = {
    "model.batch_inputs.tokenizations_per_doc": ("count/doc", "lower"),
    "model.forward_batch.full.pad_ratio": ("ratio", "lower"),
    "model.forward_batch.demo.rows_per_cell": ("rows/cell", "lower"),
    "training.step_ms_p50": ("ms", "lower"),
    "training.step_ms_p95": ("ms", "lower"),
    "training.clipped_ratio": ("ratio", "lower"),
    "training.load_checkpoint.bytes": ("bytes", "lower"),
    "evaluation.roc_auc.cells": ("cells/call", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.glue_s": ("s", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the order BENCHMARK.json declares it."""
    spec = []
    for name in SPAN_NAMES:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    spec += [{"name": n, "unit": u, "better": b} for n, (u, b) in COUNTS.items()]
    return spec


class TraceCoverageError(RuntimeError):
    """A traced function is missing, or still reachable unwrapped."""


def _branch_view(ids) -> str:
    """'demo' for rows holding only PAD and demographic tokens, else 'full'."""
    ids = np.asarray(ids)
    if ids.size and ids.max() < len(RESERVED_TOKENS) and not (ids == UNK_ID).any():
        return "demo"
    return "full"


def _view_ids(base, args, kwargs):
    if base == "model.forward_batch":
        return args[1] if len(args) > 1 else kwargs["ids"]
    return (args[1] if len(args) > 1 else kwargs["br"]).token_ids


def _deci_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "deci" or name.startswith("deci."))]


class Tracer:
    """Span and count recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.bindings = {}        # base span name -> ["module.attr", ...]
        self._stack = []          # [name, start, child seconds]
        self._patches = []        # (owner, attribute, original)
        # counts
        self._train_docs = 0
        self._tokenized = 0
        self._pad = 0
        self._positions = 0
        self._demo_rows = 0
        self._demo_cells = 0
        self._step_start = None
        self._step_ms = []
        self._clip_calls = 0
        self._clipped = 0
        self._ckpt_bytes = 0
        self._ckpt_loads = 0
        self._auc_cells = 0
        self._auc_calls = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import deci.cli  # noqa: F401  (imports every layer module)

        plan = []
        for module_name, attr in TARGETS:
            base = _base_name(module_name, attr)
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_name.split(".")):
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(fn_name)
            if isinstance(raw, classmethod):
                plan.append((owner, fn_name, raw, classmethod(self._wrap(base, raw.__func__)), None))
                self.bindings[base] = [f"{module_name.split('.', 1)[1]}.{attr}"]
                continue
            if not callable(raw):
                raise TraceCoverageError(f"cannot trace {module_name}.{attr}: not found")
            plan.append((None, fn_name, raw, self._wrap(base, raw), base))
        for owner, fn_name, original, wrapper, base in plan:
            if owner is not None:
                self._patch(owner, fn_name, original, wrapper)
                continue
            found = []
            for mod in _deci_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
                        found.append(f"{mod.__name__.removeprefix('deci.')}.{name}")
            self.bindings[base] = found
        leftovers = [f"{mod.__name__}.{name}" for mod in _deci_modules()
                     for name, value in vars(mod).items()
                     if any(value is p[2] for p in plan)]
        if leftovers:
            self.uninstall()
            raise TraceCoverageError(f"unwrapped bindings remain: {leftovers}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, base: str, fn):
        before = getattr(self, "_before_" + base.replace(".", "_"), None)
        after = getattr(self, "_after_" + base.replace(".", "_"), None)
        split = base in SPLIT_BY_VIEW

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = base
            if split or before is not None:
                t0 = time.perf_counter()
                if split:
                    name = f"{base}.{_branch_view(_view_ids(base, args, kwargs))}"
                if before is not None:
                    before(name, args, kwargs)
                self._charge_hook(time.perf_counter() - t0)
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                self._charge_hook(time.perf_counter() - t0)
            return result

        return wrapper

    def _charge_hook(self, seconds: float) -> None:
        # Counting work is tracer overhead: keep it out of every span's self
        # time, so it lands in trace.glue_s.
        if self._stack:
            self._stack[-1][2] += seconds

    # -- counts, taken at the span boundaries ------------------------------

    def _before_training_train(self, name, args, kwargs):
        self._train_docs += len(args[0])

    def _before_model_batch_inputs(self, name, args, kwargs):
        if self._stack and self._stack[-1][0] == "training.train":
            self._tokenized += len(args[0])
            self._step_start = time.perf_counter()

    def _before_model_forward_batch(self, name, args, kwargs):
        ids = np.asarray(_view_ids("model.forward_batch", args, kwargs))
        if name.endswith(".full"):
            self._pad += int((ids == PAD_ID).sum())
            self._positions += ids.size
        else:
            self._demo_rows += ids.shape[0]
            self._demo_cells += len(np.unique(ids, axis=0))

    def _after_training_clip_gradients(self, args, kwargs, norm):
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
        self._clip_calls += 1
        self._clipped += int(max_norm is not None and norm > max_norm)

    def _after_training_adam_step(self, args, kwargs, result):
        if self._step_start is not None:
            self._step_ms.append((time.perf_counter() - self._step_start) * 1000.0)
            self._step_start = None

    def _before_training_load_checkpoint(self, name, args, kwargs):
        self._ckpt_bytes += os.path.getsize(args[0])
        self._ckpt_loads += 1

    def _before_evaluation_roc_auc(self, name, args, kwargs):
        self._auc_cells += int(np.size(args[0]))
        self._auc_calls += 1

    # -- report ------------------------------------------------------------

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}; 0 where a
        layer did not run in the traced rounds."""
        def ratio(num, den):
            return num / den if den else 0.0

        def pct(values, q):
            if len(values) < 2:
                return values[0] if values else 0.0
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        values.update({
            "model.batch_inputs.tokenizations_per_doc": ratio(self._tokenized, self._train_docs),
            "model.forward_batch.full.pad_ratio": ratio(self._pad, self._positions),
            "model.forward_batch.demo.rows_per_cell": ratio(self._demo_rows, self._demo_cells),
            "training.step_ms_p50": pct(self._step_ms, 50),
            "training.step_ms_p95": pct(self._step_ms, 95),
            "training.clipped_ratio": ratio(self._clipped, self._clip_calls),
            "training.load_checkpoint.bytes": ratio(self._ckpt_bytes, self._ckpt_loads),
            "evaluation.roc_auc.cells": ratio(self._auc_cells, self._auc_calls),
            "trace.overhead_ratio": overhead_ratio,
            "trace.wall_s": wall_s,
            "trace.glue_s": wall_s - sum(self.self_s.values()),
        })
        return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                for spec in per_layer_spec()}
