"""Spans around the public functions of promptstream, for the traced run only.

Tracer.installed() replaces each public function of numerics and
prompt_codec by a wrapper that records a span, and puts the originals back
on exit.  The modules call each other through module attributes
(prompt_codec calls nm.matmul and compose, lerp calls add and mul), so
nested calls are caught and every span knows its parent.  Calls made
outside an operation (the benchmark making its inputs) are not recorded.
Spans stay in memory until dump().

A span is (name, start_ns, end_ns, parent, item, work, bytes): parent is
the index of the enclosing span (-1 for none), item the operation it
belongs to, work a computed count (flops for matmul and conv2d, code bytes
for quantize, tape records for grad) and bytes the tape's retained bytes
for grad.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from promptstream import numerics as nm
from promptstream import prompt_codec as pc

# Public names kept by ROADMAP item 2; compose_tracked, downsample_nearest
# and scalar are left out so that they can be deleted.
PRIMITIVES = ("add", "sub", "mul", "matmul", "conv2d", "silu", "softmax_last", "reshape", "transpose2d",
              "take_flat", "take_axis", "mean_axes", "sum_all", "mean_all", "rsqrt_eps", "clip01")
COMPOSITES = ("lerp", "group_norm", "upsample_cubic", "upsample_nearest", "grad")
CODEC = ("compose", "interpolate", "quantize", "dequantize", "bitrate_estimate")
ELEMENTWISE = ("add", "sub", "mul", "neg")


def _shape(x):
    return np.shape(x.data if isinstance(x, nm.Tensor) else x)


def _matmul_work(args, out):
    m, k = _shape(args[0])
    return 2 * m * k * _shape(args[1])[1], 0


def _conv2d_work(args, out):
    co, ci = _shape(args[1])[:2]
    _, ho, wo = out.shape
    return 2 * co * ci * 9 * ho * wo, 0


def _quantize_work(args, out):
    return out.codes.nbytes, 0


def _grad_work(args, out):
    tape = args[0].tape
    return len(tape.records), sum(v.nbytes for v in tape.values)


WORK = {"numerics.matmul": _matmul_work, "numerics.conv2d": _conv2d_work,
        "prompt_codec.quantize": _quantize_work, "numerics.grad": _grad_work}
FIELDS = ("name", "start_ns", "end_ns", "parent", "item", "work", "bytes")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = -1

    def wrap(self, name, fn, root=False):
        """fn recording a span per call; only a root span opens outside an operation."""
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter_ns, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (stack or root):  # the benchmark making inputs between operations
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            stack.append(idx)
            spans.append(None)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # a tuple of atoms, which the cyclic garbage collector stops scanning
                spans[idx] = (name, t0, t1, parent, self.item, 0, 0)
            if work is not None:
                spans[idx] = (name, t0, t1, parent, self.item, *work(args, out))
            return out

        return traced

    def item_op(self, op):
        """op wrapped in the root span of one operation."""
        self.item += 1
        return self.wrap("item", op, root=True)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod, prefix, names in ((nm, "numerics", PRIMITIVES + COMPOSITES), (pc, "prompt_codec", CODEC)):
                for n in names:
                    saved.append((mod, n, getattr(mod, n)))
                    setattr(mod, n, self.wrap(f"{prefix}.{n}", getattr(mod, n)))
            # Tensor.__neg__ goes straight to the op table, not through a module function.
            saved.append((nm.Tensor, "__neg__", nm.Tensor.__neg__))
            nm.Tensor.__neg__ = self.wrap("numerics.neg", nm.Tensor.__neg__)
            yield self
        finally:
            for obj, n, fn in reversed(saved):
                setattr(obj, n, fn)

    def dump(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({**meta, "fields": FIELDS, "spans": self.spans}, f, separators=(",", ":"))


def layer_metrics(spans):
    """The per-layer table, from spans: inclusive and self time, calls and counts per item."""
    child = [0] * len(spans)
    compose_child = [0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
            if name == "prompt_codec.compose":
                compose_child[parent] += t1 - t0
    calls, incl, self_ns, work, nbytes = (defaultdict(int) for _ in range(5))
    interp_ns = 0
    for i, (name, t0, t1, _, _, w, b) in enumerate(spans):
        calls[name] += 1
        incl[name] += t1 - t0
        self_ns[name] += t1 - t0 - child[i]
        work[name] += w
        nbytes[name] += b
        if name == "prompt_codec.interpolate":
            interp_ns += t1 - t0 - compose_child[i]
    items, item_ns = calls["item"], incl["item"]
    if not items:
        raise ValueError("no traced operation")

    def per_item(x):
        return x / items

    def ms_per_item(name):
        return incl[name] / 1e6 / items

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    pc_, nm_ = "prompt_codec.", "numerics."
    m[pc_ + "compose.calls_per_item"] = (per_item(calls[pc_ + "compose"]), "count")
    m[pc_ + "compose.ms_per_item"] = (ms_per_item(pc_ + "compose"), "ms")
    m[pc_ + "interpolate.self_ms_per_item"] = (interp_ns / 1e6 / items, "ms")
    m[pc_ + "dequantize.ms_per_item"] = (ms_per_item(pc_ + "dequantize"), "ms")
    m[pc_ + "quantize.ms_per_item"] = (ms_per_item(pc_ + "quantize"), "ms")
    m[pc_ + "quantize.code_bytes_per_item"] = (per_item(work[pc_ + "quantize"]), "B")
    for op in ("matmul", "conv2d"):
        n = nm_ + op
        m[n + ".calls_per_item"] = (per_item(calls[n]), "count")
        m[n + ".ms_per_item"] = (ms_per_item(n), "ms")
        m[n + ".gflop_per_s"] = (ratio(work[n], incl[n]), "GFLOP/s")  # flop per ns, from shapes
        m[n + ".item_share"] = (ratio(incl[n], item_ns), "1")
    for op in ("upsample_cubic", "group_norm", "silu", "softmax_last", "lerp"):
        m[nm_ + op + ".ms_per_item"] = (ms_per_item(nm_ + op), "ms")
    ew_calls = sum(calls[nm_ + op] for op in ELEMENTWISE)
    m[nm_ + "elementwise.us_per_call"] = (ratio(sum(self_ns[nm_ + op] for op in ELEMENTWISE) / 1e3, ew_calls), "us")
    m[nm_ + "ops_per_item"] = (per_item(sum(calls[nm_ + op] for op in PRIMITIVES + ("neg",))), "count")
    m[nm_ + "grad.ms_per_item"] = (ms_per_item(nm_ + "grad"), "ms")
    m[nm_ + "tape.records_per_step"] = (ratio(work[nm_ + "grad"], calls[nm_ + "grad"]), "count")
    m[nm_ + "tape.retained_mib"] = (ratio(nbytes[nm_ + "grad"], calls[nm_ + "grad"]) / 2 ** 20, "MiB")
    m["trace.spans_per_item"] = (per_item(len(spans) - items), "count")
    return m
