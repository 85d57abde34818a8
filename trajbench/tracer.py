"""Outside-in tracer for the trajgraph benchmark.

Wraps public functions of the trajgraph modules where they are looked up
(a module that imported a function by name holds its own reference, so
every module attribute bound to the original is replaced), times each call
with inclusive and self time, and tags every tape record with the encoder
stage active when it was recorded so backward time splits by stage.
Nothing under ``src/`` is edited; ``uninstall`` restores every attribute.
"""

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (home module, function name, span name). The span name is the layer
# metric prefix the benchmark reports under.
WRAPPED = (
    ("trajgraph.scene", "load_scenes", "scene.load"),
    ("trajgraph.scene", "normalize_scene", "scene.normalize"),
    ("trajgraph.graph", "build_graph", "graph.build"),
    ("trajgraph.graph", "build_agent_edges", "graph.agent_edges"),
    ("trajgraph.graph", "build_social_edges", "graph.social_edges"),
    ("trajgraph.graph", "build_map_edges", "graph.map_edges"),
    ("trajgraph.graph", "build_fusion_edges", "graph.fusion_edges"),
    ("trajgraph.model", "make_cache", "model.make_cache"),
    ("trajgraph.model", "forward", "model.forward"),
    ("trajgraph.model", "encode", "model.encode"),
    ("trajgraph.model", "embed", "model.embed"),
    ("trajgraph.model", "_map_stage_updates", "model.map_updates"),
    ("trajgraph.model", "_agent_gcn_updates", "model.agent_updates"),
    ("trajgraph.model", "gcn_edge_conv", "model.gcn"),
    ("trajgraph.model", "gatv2_conv", "model.gatv2"),
    ("trajgraph.model", "layer_merge", "model.layer_merge"),
    ("trajgraph.model", "predict_head", "model.head"),
    ("trajgraph.losses", "total_loss", "losses.total_loss"),
    ("trajgraph.optim", "adam_step", "optim.adam"),
    ("trajgraph.metrics", "compute_metrics", "metrics.compute"),
    ("trajgraph.kernels", "segment_sum", "kernels.segment_sum"),
    ("trajgraph.kernels", "segment_max", "kernels.segment_max"),
    ("trajgraph.kernels", "add_rows_at", "kernels.add_rows_at"),
)

STAGES = ("embed", "map_stage", "agent_stage", "fusion_stage", "merge_stage", "head", "loss")

# Calls that open a stage; a stage stays active until another one opens or
# a closing call returns. Tape records made with no stage active (the batch
# scaling in the training loop) are tagged "other".
_STAGE_OF_SPAN = {"model.embed": "embed", "model.head": "head", "losses.total_loss": "loss"}
_CLOSES_STAGE = ("model.forward", "losses.total_loss")
_STAGE_OF_PREFIX = (("map_layer", "map_stage"), ("agent_layer", "agent_stage"),
                    ("fusion_layer", "fusion_stage"), ("merge", "merge_stage"))
_PREFIX_ARG = {"model.map_updates": 4, "model.agent_updates": 4,
               "model.gatv2": 5, "model.layer_merge": 3}

_KERNELS = ("kernels.segment_sum", "kernels.segment_max", "kernels.add_rows_at")


def stage_of_prefix(prefix):
    """Encoder stage of a parameter prefix such as 'fusion_layer.1.social'."""
    head = prefix.split(".", 1)[0]
    for key, stage in _STAGE_OF_PREFIX:
        if head == key:
            return stage
    raise ValueError(f"no encoder stage for parameter prefix {prefix!r}")


def _kernel_shape_counts(span, args):
    """(rows, bytes) of one kernel call, computed from argument shapes as
    8 bytes per input row element, per index and per output element."""
    if span == "kernels.add_rows_at":
        out, idx, rows = args[:3]
        n_out = out.shape[0]
    else:
        rows, idx, n_out = args[:3]
    e, f = rows.shape
    return e, 8 * (e * f + idx.shape[0] + n_out * f)


class Tracer:
    """Aggregated spans (calls, inclusive and self seconds) per span name,
    per-stage forward and backward seconds, and shape-derived counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.stage_fwd = defaultdict(float)
        self.stage_bwd = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []          # [child seconds] per open call
        self._stage = None
        self._stage_since = 0.0
        self._patched = []        # (module, attribute, original)
        self._kernel_depth = 0
        self._now = time.perf_counter

    # --- stage cursor -------------------------------------------------------

    def _enter_stage(self, stage, now):
        if self._stage is not None:
            self.stage_fwd[self._stage] += now - self._stage_since
        self._stage = stage
        self._stage_since = now

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span):
        tracer = self
        fixed_stage = _STAGE_OF_SPAN.get(span)
        prefix_pos = _PREFIX_ARG.get(span)
        if prefix_pos is not None:
            prefix_name = list(inspect.signature(fn).parameters)[prefix_pos]
        is_kernel = span in _KERNELS
        closes_stage = span in _CLOSES_STAGE

        def wrapper(*args, **kwargs):
            start = tracer._now()
            if fixed_stage is not None:
                tracer._enter_stage(fixed_stage, start)
            elif prefix_pos is not None:
                prefix = args[prefix_pos] if len(args) > prefix_pos else kwargs[prefix_name]
                tracer._enter_stage(stage_of_prefix(prefix), start)
            if is_kernel:
                if tracer._kernel_depth == 0:
                    rows, nbytes = _kernel_shape_counts(span, args)
                    tracer.counters["kernels.calls"] += 1
                    tracer.counters["kernels.rows"] += rows
                    tracer.counters["kernels.bytes"] += nbytes
                tracer._kernel_depth += 1
            frame = [0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._now()
                tracer._stack.pop()
                if is_kernel:
                    tracer._kernel_depth -= 1
                elapsed = end - start
                tracer.calls[span] += 1
                tracer.total[span] += elapsed
                tracer.self_time[span] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if closes_stage:
                    tracer._enter_stage(None, end)
            tracer._observe(span, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _observe(self, span, result):
        if span == "graph.build":
            self.counters["graph.edges"] += sum(e.shape[0] for e in result.edges.values())
            self.counters["graph.map_nodes"] += result.n_map_nodes
            self.counters["graph.agent_nodes"] += result.n_agent_nodes
        elif span == "scene.load":
            self.counters["scene.loaded"] += len(result)

    def _wrap_tape(self, tape_cls):
        tracer = self
        record, backward = tape_cls._record, tape_cls.backward

        def traced_record(tape, fn):
            stage = tracer._stage or "other"
            stage_bwd, now = tracer.stage_bwd, tracer._now

            def timed():
                t0 = now()
                fn()
                stage_bwd[stage] += now() - t0

            tracer.counters["tensor.tape_records"] += 1
            record(tape, timed)

        def traced_backward(tape, out):
            t0 = tracer._now()
            try:
                return backward(tape, out)
            finally:
                tracer.calls["tensor.backward"] += 1
                tracer.total["tensor.backward"] += tracer._now() - t0

        return [(tape_cls, "_record", record, traced_record),
                (tape_cls, "backward", backward, traced_backward)]

    def install(self, now=time.perf_counter):
        """Replace every module attribute bound to a wrapped function.

        `now` is the clock spans are timed with.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._now = now
        homes = {home: importlib.import_module(home) for home, _, _ in WRAPPED}
        tg = importlib.import_module("trajgraph.tensor")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trajgraph" or name.startswith("trajgraph.")]
        for home, attr, span in WRAPPED:
            original = getattr(homes[home], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
        for owner, attr, original, replacement in self._wrap_tape(tg.Tape):
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False
