"""Spans and exact op counts, recorded from outside the program.

``Tracer`` replaces the public entry points of each layer with wrappers
that record a span (name, call id, parent, start, end) in memory.
``OpCounter`` wraps every public op of ``graphtcn.tensor`` and counts
calls and the bytes of the arrays they return. Both restore the original
attributes on ``uninstall``. Some modules bind names at import time
(``model.build_features``, ``model.variety_loss``,
``model.relative_to_absolute``, ``training.backward``,
``training.load_windows``); those are wrapped where they are imported.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

from graphtcn import (checkpoint, data, decoders, graph_attention, model, optim,
                      temporal_conv, tensor, training)

LAYERS = ("tensor", "data", "graph_attention", "temporal_conv", "decoders",
          "model", "metrics", "optim", "checkpoint", "training")

# (owner, attribute, span name); a callable name is applied to the bound
# instance, which tells the two attention layers apart.
ENTRY_POINTS = (
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (data, "load_windows", "data.load_windows"),
    (training, "load_windows", "data.load_windows"),
    (model, "build_features", "data.build_features"),
    (training, "model_from_checkpoint", "training.model_from_checkpoint"),
    (training, "train", "training.train"),
    (model.GraphTCN, "predict", "model.predict"),
    (model.GraphTCN, "window_loss", "model.window_loss"),
    (model.GraphTCN, "encode", "model.encode"),
    (graph_attention.SpatialEncoder, "forward", "graph_attention.spatial"),
    (graph_attention.GraphAttentionLayer, "forward", lambda layer: f"graph_attention.{layer.prefix}"),
    (temporal_conv.TemporalConvNet, "forward", "temporal_conv.tcn"),
    (decoders.MlpDecoder, "forward", "decoders.mlp"),
    (model, "relative_to_absolute", "decoders.relative_to_absolute"),
    (model, "variety_loss", "metrics.variety_loss"),
    (tensor, "backward", "tensor.backward"),
    (training, "backward", "tensor.backward"),
    (optim.Adam, "step", "optim.adam_step"),
)

SPAN_NAMES = frozenset(name for _, _, name in ENTRY_POINTS if isinstance(name, str)) | {
    "graph_attention.gal1", "graph_attention.gal2"}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """Spans as lists [name, call, parent, start, end], kept in memory."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.errors = Counter()
        self.call = None  # set by the loop before each timed operation
        self._stack = []

    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            self.replace(owner, attr, lambda fn, name=name: self._wrap(fn, name))

    def _wrap(self, fn, name):
        spans, stack, errors = self.spans, self._stack, self.errors

        def traced(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            sid = len(spans)
            span = [span_name, self.call, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[span_name.partition(".")[0]] += 1
                raise
            finally:
                stack.pop()
                span[4] = time.perf_counter()

        return traced

    def self_times(self) -> list:
        """Span duration minus the part its child spans cover, per span."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[4] - s[3]
        return out

    def write_tsv(self, path):
        selfs = self.self_times()
        lines = ["id\tparent\tcall\tname\tstart_s\tend_s\tself_s"]
        for i, (name, call, parent, t0, t1) in enumerate(self.spans):
            lines.append(f"{i}\t{parent}\t{call}\t{name}\t{t0:.9f}\t{t1:.9f}\t{selfs[i]:.9f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tensor_ops() -> list:
    """Names of the public ops in graphtcn.tensor (found, not listed)."""
    skip = {"backward", "finite_difference_check"}
    return sorted(name for name, obj in vars(tensor).items()
                  if inspect.isfunction(obj) and obj.__module__ == tensor.__name__
                  and not name.startswith("_") and name not in skip)


class OpCounter(Patches):
    """Counts outermost op calls and the bytes of their output arrays.

    Bytes are computed from array sizes (``ndarray.nbytes``), not measured
    traffic. Ops an op calls internally are not counted again.
    """

    def __init__(self):
        super().__init__()
        self.ops = 0
        self.out_bytes = 0
        self._depth = 0

    def install(self):
        for name in tensor_ops():
            self.replace(tensor, name, self._wrap)

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self._depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.ops += 1
                if isinstance(out, tensor.Tensor):
                    self.out_bytes += out.data.nbytes
            return out

        return counted

    def take(self) -> tuple:
        """(ops, bytes) since the last take."""
        out = (self.ops, self.out_bytes)
        self.ops = self.out_bytes = 0
        return out
