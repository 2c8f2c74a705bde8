"""Span tracing for the benchmark, done from outside the program.

A Tracer replaces public functions of the mobilevig modules with wrappers
that record one span per call: name, start, end, parent span and op id,
plus counters computed from the call's arguments and result (MACs, bytes,
elements, nodes). Spans stay in memory and are written when the run ends.
Patches are installed only for the duration of a traced op, so untraced
ops run the program's own, unwrapped functions.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from mobilevig import arch, grad_check, knn, svga, tensor_core, verify, weights_io

MODULES = (arch, grad_check, knn, svga, tensor_core, verify, weights_io)

ELEMENTWISE = ("elem_add", "elem_sub", "elem_max", "roll_2d", "concat_channels")
SUITE_SPANS = {name: f"verify.{name}" for name in verify.SUITES}
MODEL_BLOCKS = ("arch.stem", "arch.stage1", "arch.stage2", "arch.stage3",
                "arch.downsample", "arch.stage4", "arch.head")


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays if isinstance(a, np.ndarray))


def _conv(args, kwargs, out):
    x, spec, weight = args[0], args[1], args[2]
    n = x.shape[0]
    oh, ow = out.shape[2], out.shape[3]
    kh, kw = spec.kernel
    macs = n * oh * ow * spec.out_channels * (spec.in_channels // spec.groups) * kh * kw
    depthwise = spec.groups == spec.in_channels == spec.out_channels
    name = "tensor_core.conv2d_depthwise" if depthwise else "tensor_core.conv2d_dense"
    return name, {"macs": macs, "bytes": _nbytes(x, weight, out)}


def _linear(args, kwargs, out):
    x, weight = args[0], args[1]
    return "tensor_core.linear", {"macs": int(x.shape[0] * weight.shape[0] * weight.shape[1]),
                                  "bytes": _nbytes(x, weight, out)}


def _tensor_op(name):
    def counters(args, kwargs, out):
        return name, {"bytes": _nbytes(*args, out), "elems": int(out.size)}
    return counters


def _fixed(name):
    return lambda args, kwargs, out: (name, {})


def _knn_graph(args, kwargs, out):
    return "knn.knn_graph", {"nodes": out.num_nodes * out.neighbor_idx.shape[0]}


def _load_weights(args, kwargs, out):
    return "weights_io.load_weights", {"bytes_read": os.path.getsize(args[0])}


class Tracer:
    """Records spans around the package's public functions.

    `stage_channels` maps an MBConv block's input width to its stage, and
    `svga_depth` is the number of SVGA blocks after which the classifier
    head starts (the head is inline code in arch, so its span is opened
    when the last SVGA block returns and closed when the forward returns).
    """

    def __init__(self, stage_channels, svga_depth):
        self.stage_of = {c: i + 1 for i, c in enumerate(stage_channels[:3])}
        self.svga_depth = svga_depth
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: list[dict] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._blocks_done = 0
        self._head: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.counters.append({})
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int, name: str | None = None, counters: dict | None = None) -> None:
        self.end[i] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span stack out of order: closing {i}, top {popped}")
        if name is not None:
            self.names[i] = name
        if counters:
            self.counters[i] = counters

    def _wrap(self, fn, namer):
        def traced(*args, **kwargs):
            i = self._open("")
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(i, f"error.{fn.__name__}")
                raise
            name, counters = namer(args, kwargs, out)
            self._close(i, name, counters)
            return out
        return traced

    def _wrap_mbconv(self, fn):
        def traced(x, w):
            i = self._open(f"arch.stage{self.stage_of.get(x.shape[1], 0)}")
            try:
                return fn(x, w)
            finally:
                self._close(i)
        return traced

    def _wrap_forward(self, fn):
        def traced(*args, **kwargs):
            self._blocks_done = 0
            i = self._open("arch.model_forward")
            try:
                return fn(*args, **kwargs)
            finally:
                if self._head is not None:
                    self._close(self._head)
                    self._head = None
                self._close(i)
        return traced

    def _wrap_svga_block(self, fn):
        def traced(*args, **kwargs):
            i = self._open("arch.stage4")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                self._blocks_done += 1
                if self._blocks_done == self.svga_depth:
                    self._head = self._open("arch.head")
        return traced

    # -- patching ---------------------------------------------------------
    def _table(self):
        """(module owning the binding, attribute, wrapper factory, everywhere).

        `everywhere` replaces every binding of the same function object in
        the package (modules import kernels by name); otherwise only the
        named module's binding is replaced, because the same function means
        a different layer elsewhere (svga_block_forward inside arch is a
        stage-4 block, inside verify it is a property check).
        """
        w = self._wrap
        rows = [
            (tensor_core, "conv2d", lambda f: w(f, _conv), True),
            (tensor_core, "batchnorm_infer",
             lambda f: w(f, _tensor_op("tensor_core.batchnorm_infer")), True),
            (tensor_core, "gelu", lambda f: w(f, _tensor_op("tensor_core.gelu")), True),
            (tensor_core, "linear", lambda f: w(f, _linear), True),
            (arch, "stem_forward", lambda f: w(f, _fixed("arch.stem")), True),
            (arch, "mbconv_forward", self._wrap_mbconv, True),
            (arch, "downsample_forward", lambda f: w(f, _fixed("arch.downsample")), True),
            (arch, "svga_block_forward", self._wrap_svga_block, False),
            (arch, "model_forward_with_stages", self._wrap_forward, True),
            (svga, "grapher_forward", lambda f: w(f, _fixed("svga.grapher")), True),
            (svga, "ffn_forward", lambda f: w(f, _fixed("svga.ffn")), True),
            (svga, "mrconv_aggregate", lambda f: w(f, _fixed("svga.mrconv_aggregate")), True),
            (svga, "gather_aggregate", lambda f: w(f, _fixed("svga.gather_aggregate")), True),
            (knn, "knn_graph", lambda f: w(f, _knn_graph), True),
            (knn, "pairwise_sq_dists", lambda f: w(f, _fixed("knn.pairwise_sq_dists")), True),
            (knn, "knn_aggregate", lambda f: w(f, _fixed("knn.knn_aggregate")), True),
            (weights_io, "load_into_model",
             lambda f: w(f, _fixed("weights_io.load_into_model")), True),
            (weights_io, "load_weights", lambda f: w(f, _load_weights), True),
            (weights_io, "build_model",
             lambda f: w(f, _fixed("weights_io.skeleton_build")), False),
            (grad_check, "grad_check_svga",
             lambda f: w(f, _fixed("grad_check.grad_check_svga")), True),
        ]
        rows += [(tensor_core, name, lambda f: w(f, _tensor_op("tensor_core.elementwise")), True)
                 for name in ELEMENTWISE]
        return rows

    def _patch(self, module, attr, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    @contextmanager
    def active(self, op_id: int):
        """Installs the wrappers for one traced op and removes them after."""
        if self._patches:
            raise RuntimeError("tracer is already active")
        self._op_id = op_id
        try:
            for owner, attr, factory, everywhere in self._table():
                orig = getattr(owner, attr)
                wrapped = factory(orig)
                targets = MODULES if everywhere else (owner,)
                for mod in targets:
                    if getattr(mod, attr, None) is orig:
                        self._patch(mod, attr, wrapped)
            for name, fn in verify.SUITES.items():
                self._patches.append((verify.SUITES, name, fn))
                verify.SUITES[name] = self._wrap(fn, _fixed(SUITE_SPANS[name]))
            yield self
        finally:
            for target, key, orig in reversed(self._patches):
                if target is verify.SUITES:
                    target[key] = orig
                else:
                    setattr(target, key, orig)
            self._patches.clear()
            if self._stack:
                raise RuntimeError(f"{len(self._stack)} spans left open")

    # -- analysis ---------------------------------------------------------
    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        own = dur.copy()
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        np.subtract.at(own, parent[has], dur[has])
        return own

    def per_op(self, ops) -> dict[int, dict[str, dict[str, float]]]:
        """op id -> span name -> {"ns", "self_ns", "calls", counters...}."""
        wanted = set(ops)
        own = self.self_ns()
        out: dict[int, dict] = {o: defaultdict(lambda: defaultdict(float)) for o in wanted}
        for i, name in enumerate(self.names):
            o = self.op[i]
            if o not in wanted:
                continue
            row = out[o][name]
            row["ns"] += self.end[i] - self.start[i]
            row["self_ns"] += int(own[i])
            row["calls"] += 1
            for key, val in self.counters[i].items():
                row[key] += val
        return out

    def block_coverage_ns(self, op_id: int) -> int:
        """Summed duration of the top-level model blocks of one op."""
        total = 0
        for i, name in enumerate(self.names):
            if (self.op[i] == op_id and name in MODEL_BLOCKS and self.parent[i] >= 0
                    and self.names[self.parent[i]] == "arch.model_forward"):
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> None:
        """Writes every span, column-wise, with its self time."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "name": [index[n] for n in self.names],
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
            "self_ns": self.self_ns().tolist(),
            "counters": {str(i): c for i, c in enumerate(self.counters) if c},
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
