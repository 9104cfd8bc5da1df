"""Outside-in tracing of geognn: wrappers installed from the benchmark.

``Tracer.install`` replaces public functions by timing wrappers at the
place where their callers look the names up (a module attribute or a
class attribute), so nothing under ``src/`` changes. Each call records a
span ``[name_id, start_ns, end_ns, parent_index]`` in memory; ``drain``
folds the recorded spans into per-name totals, including self time (the
span's duration minus the part its child spans cover), and hands back
the raw spans so the caller can write them out at the end.
"""

from __future__ import annotations

import functools
import os
import time

# every taped primitive of geognn.tensor; the first ten get their own
# metrics, the rest are reported together as tensor.other
NAMED_OPS = (
    "affine", "segment_sum", "gather_rows", "layer_norm", "dropout",
    "add", "mul", "relu", "concat", "softmax_cross_entropy",
)
OTHER_OPS = (
    "sub", "sum_all", "mean_rows", "reshape", "bce_with_logits",
    "matmul", "div", "exp", "log",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def wrap(self, fn, name, before=None, after=None):
        """Time ``fn`` as span ``name``; ``name`` may be a function of the
        call's (args, kwargs). ``before(args, kwargs)`` runs before the span
        starts and ``after(args, kwargs, result)`` after it ends."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            rec = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, g) -> None:
        """Wrap geognn's layers; ``g`` holds its modules by short name."""
        for op in NAMED_OPS + OTHER_OPS:
            self.patch(g.tensor, op, f"tensor.{op}")
        self.patch(
            g.tensor.Tape, "backward", "tensor.backward",
            before=lambda a, k: self.count("tensor.tape_ops", len(a[0])),
        )

        def forward_name(args, kwargs):
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
            return f"model.forward.{mode}"

        self.patch(g.model.GeoGNN, "forward", forward_name)
        self.patch(g.model.GeoGNN, "head_downstream", "model.head_downstream")
        self.patch(g.rng.Rng, "permutation", "rng.permutation")
        self.patch(g.pretrain, "mask_context", "masking.mask_context")
        self.patch(g.pretrain, "build_targets", "pretrain.build_targets")
        for loss in ("loss_length", "loss_angle", "loss_distance"):
            self.patch(g.pretrain, loss, f"pretrain.{loss}")
        self.patch(g.training, "prepare_molecules", "training.prepare_molecules")
        self.patch(g.training, "build_dual_graph", "geometry.build_dual_graph")
        self.patch(g.training, "encode", "features.encode")
        self.patch(g.training, "adam_step", "training.adam_step")
        self.patch(
            g.training, "save_checkpoint", "checkpoint.save_checkpoint",
            after=lambda a, k, r: self.count("checkpoint.bytes", os.path.getsize(a[0])),
        )
        self.patch(g.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")

        def parsed(args, kwargs, result):
            if isinstance(result, tuple):  # parse_sdf_lenient: (molecules, errors)
                self.count("molio.records", len(result[0]) + len(result[1]))
                self.count("molio.rejected", len(result[1]))
            else:
                self.count("molio.records", len(result))

        self.patch(g.molio, "parse_jsonl", "molio.parse", after=parsed)
        self.patch(g.molio, "parse_sdf_lenient", "molio.parse", after=parsed)

    def drain(self) -> list[list[int]]:
        """Fold the recorded spans into ``totals`` and return them.

        Call only between top-level calls, when no span is open."""
        if self._stack:
            raise RuntimeError("drain with open spans")
        spans = self.spans[:]
        self.spans.clear()  # in place: the wrappers hold this list
        child_ns = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (nid, start, end, _), inner in zip(spans, child_ns):
            entry = self.totals.setdefault(self.names[nid], [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return spans
