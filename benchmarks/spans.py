"""Span tracing of dle3q's layers from outside the package.

``Tracer.install`` wraps every public function of each layer module
(``params``, ``amplitudes``, ``entangle``, ``hilbert``, ``oracle``,
``serialize``, ``cli``) wherever the function object is bound, because a
``from .x import f`` import binds its own copy.  It also wraps
``SystemParams.__init__`` (so constructing parameter sets counts toward
``params``) and ``numpy.linalg.eigh`` as seen from ``oracle`` only, through a
proxy for that module's ``np``.  ``perturb`` has no caller on any CLI path and
is left alone.  Methods and properties of the value classes count toward the
layer that calls them.

A span holds a function id, start, end, parent span and operation id, in
flat arrays.  Spans stay in memory until ``fold`` is called between
operations, outside any timed region; a 20 000-point sweep emits over a
million spans, so they are folded into per-layer totals instead of being kept
for the whole run.  A span's self time is its duration minus the durations of
its child spans.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("params", "amplitudes", "entangle", "hilbert", "oracle", "serialize", "cli")
OP = "op"  # the benchmark's own root span around one operation

#: Per-layer self time is also reported inside these subtrees: metric -> (layer, root function).
SUBTREE_SELF = {
    "cli.main.self_s": ("cli", "cli.main"),
    "entangle.report.self_s": ("entangle", "entangle.entanglement_report"),
    "entangle.monogamy.self_s": ("entangle", "entangle.monogamy_residual"),
    "hilbert.hamiltonian_total.self_s": ("hilbert", "hilbert.hamiltonian_total"),
    "oracle.symmetrizer.self_s": ("oracle", "oracle.symmetrizer"),
    "oracle.dressed_state.self_s": ("oracle", "oracle.dressed_state"),
    "serialize.json_dumps.self_s": ("serialize", "serialize.json_dumps"),
    "serialize.csv_lines.self_s": ("serialize", "serialize.csv_lines"),
}
LAYER_CALLS_AND_SELF = ("params", "amplitudes")
FUNCTION_CALLS = {
    "entangle.concurrence_mixed.calls": "entangle.concurrence_mixed",
    "hilbert.hamiltonian_total.calls": "hilbert.hamiltonian_total",
    "oracle.dressed_state.calls": "oracle.dressed_state",
}


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.labels: list[str] = [OP]
        self.layer_of: list[str] = ["bench"]
        self._patches: list[tuple[object, str, object, object]] = []
        self.op_id = -1
        self.totals: dict[str, float] = defaultdict(float)
        self.functions: dict[str, list[float]] = {}  # label -> [calls, total_s, self_s]
        self.eigh_dim = 0
        self._new_buffers()

    def _new_buffers(self) -> None:
        self.start, self.end = array("d"), array("d")
        self.fid, self.parent, self.op = array("i"), array("i"), array("i")
        self.stack = [-1]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, label: str, layer: str, on_return=None):
        fid = len(self.labels)
        self.labels.append(label)
        self.layer_of.append(layer)
        clock, tracer = time.perf_counter, self

        def traced(*args, **kwargs):
            stack, end = tracer.stack, tracer.end
            idx = len(end)
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1])
            tracer.op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_dense(self, result) -> None:
        if isinstance(result, np.ndarray):
            self.totals["hilbert.dense_bytes"] += 8.0 * result.size

    def _count_bytes_out(self, result) -> None:
        self.totals["serialize.bytes_out"] += len(result)

    def _eigh(self, fn):
        wrapped = self._wrap(fn, "oracle.eigh", "numpy")

        def eigh(a, *args, **kwargs):
            self.eigh_dim = max(self.eigh_dim, int(np.shape(a)[0]))
            return wrapped(a, *args, **kwargs)
        return eigh

    def install(self) -> None:
        """Replace every binding of each layer's public functions by a traced wrapper."""
        from dle3q import oracle, params

        if not self._patches:
            self._build_patches(oracle, params)
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _build_patches(self, oracle, params) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"dle3q.{layer}")
            if module is None:
                continue
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    hook = None
                    if layer == "hilbert":
                        hook = self._count_dense
                    elif name in ("json_dumps", "csv_lines"):
                        hook = self._count_bytes_out
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer, hook))
        for module_name, module in list(sys.modules.items()):
            if module_name == "dle3q" or module_name.startswith("dle3q."):
                for name, value in vars(module).items():
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._patches.append((module, name, value, wrappers[id(value)][1]))
        init = params.SystemParams.__init__
        self._patches.append((params.SystemParams, "__init__", init,
                              self._wrap(init, "params.SystemParams", "params")))
        if getattr(oracle, "np", None) is np:
            linalg = _Proxy(np.linalg, eigh=self._eigh(np.linalg.eigh))
            self._patches.append((oracle, "np", np, _Proxy(np, linalg=linalg)))

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.fid.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self.stack.append(len(self.end) - 1)
        self.start.append(time.perf_counter())

    def end_op(self) -> float:
        idx = self.stack.pop()
        self.end[idx] = time.perf_counter()
        return self.end[idx] - self.start[idx]

    def fold(self) -> None:
        """Add the buffered spans to the run totals and drop them."""
        n = len(self.end)
        if n == 0:
            return
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        fid = np.frombuffer(self.fid, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        nf = len(self.labels)
        calls = np.bincount(fid, minlength=nf)
        total = np.bincount(fid, weights=dur, minlength=nf)
        own = np.bincount(fid, weights=self_t, minlength=nf)
        for f in np.nonzero(calls)[0]:
            row = self.functions.setdefault(self.labels[f], [0, 0.0, 0.0])
            row[0] += int(calls[f])
            row[1] += float(total[f])
            row[2] += float(own[f])
        ops = fid == 0
        self.totals["op_s"] += float(dur[ops].sum())
        self.totals["unattributed_s"] += float(self_t[ops].sum())
        layer_ids = {layer: [f for f, l in enumerate(self.layer_of) if l == layer]
                     for layer in LAYERS}
        for layer in LAYER_CALLS_AND_SELF:
            mask = np.isin(fid, layer_ids[layer])
            self.totals[f"{layer}.calls"] += float(mask.sum())
            self.totals[f"{layer}.self_s"] += float(self_t[mask].sum())
        fid_of = {label: f for f, label in enumerate(self.labels)}
        for metric, (layer, root) in SUBTREE_SELF.items():
            roots = np.nonzero(fid == fid_of.get(root, -1))[0]
            if len(roots) == 0:
                continue
            inner = np.nonzero(np.isin(fid, layer_ids[layer]))[0]
            k = np.searchsorted(start[roots], start[inner], side="right") - 1
            inside = (k >= 0) & (end[inner] <= end[roots][np.maximum(k, 0)])
            self.totals[metric] += float(self_t[inner[inside]].sum())
        for metric, label in FUNCTION_CALLS.items():
            if label in fid_of:
                self.totals[metric] += float(calls[fid_of[label]])
        if "oracle.eigh" in fid_of:
            self.totals["oracle.eigh_s"] += float(total[fid_of["oracle.eigh"]])
        if "amplitudes.amplitude_closed_form" in fid_of:
            self.totals["amplitudes.closed_form_calls"] += float(
                calls[fid_of["amplitudes.amplitude_closed_form"]])
        self._new_buffers()
