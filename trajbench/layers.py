"""Per-layer metrics from a Tracer, per scene unless the unit is a count.

"Per scene" divides by the number of calls of the layer's own unit:
graphs built, scenes loaded or normalized, caches made, forward passes
(model and kernels), loss or metric calls. Kernel bytes are computed from
argument shapes, not measured.
"""

from tracer import STAGES

PER_LAYER_UNITS = {
    "graph.build_ms": "ms", "graph.map_edges_ms": "ms", "graph.social_edges_ms": "ms",
    "graph.fusion_edges_ms": "ms", "graph.agent_edges_ms": "ms", "graph.other_ms": "ms",
    "graph.edges": "count", "graph.map_nodes": "count", "graph.agent_nodes": "count",
    "scene.load_ms": "ms", "scene.normalize_ms": "ms",
    "model.make_cache_ms": "ms", "model.embed_ms": "ms", "model.map_stage_ms": "ms",
    "model.agent_stage_ms": "ms", "model.fusion_stage_ms": "ms",
    "model.merge_stage_ms": "ms", "model.head_ms": "ms",
    "model.gcn_calls": "count", "model.gcn_ms": "ms",
    "model.gatv2_calls": "count", "model.gatv2_ms": "ms",
    "tensor.tape_records": "count",
    "kernels.calls": "count", "kernels.rows": "count", "kernels.bytes": "bytes",
    "kernels.segment_sum_ms": "ms", "kernels.segment_max_ms": "ms",
    "kernels.add_rows_at_ms": "ms",
    "losses.total_loss_ms": "ms", "metrics.compute_ms": "ms",
    "trace.overhead_frac": "fraction",
}

_GRAPH_PARTS = ("map_edges", "social_edges", "fusion_edges", "agent_edges")
_MODEL_STAGES = ("embed", "map_stage", "agent_stage", "fusion_stage", "merge_stage", "head")


def _per(numerator, calls):
    return numerator / calls if calls else 0.0


def per_layer_metrics(tr, overhead_frac):
    """name -> (value, unit) for every metric of PER_LAYER_UNITS."""
    def ms(span):
        return 1e3 * tr.total[span]

    builds = tr.calls["graph.build"]
    forwards = tr.calls["model.forward"]
    values = {
        "graph.build_ms": _per(ms("graph.build"), builds),
        "graph.other_ms": _per(1e3 * tr.self_time["graph.build"], builds),
        "graph.edges": _per(tr.counters["graph.edges"], builds),
        "graph.map_nodes": _per(tr.counters["graph.map_nodes"], builds),
        "graph.agent_nodes": _per(tr.counters["graph.agent_nodes"], builds),
        "scene.load_ms": _per(ms("scene.load"), tr.counters["scene.loaded"]),
        "scene.normalize_ms": _per(ms("scene.normalize"), tr.calls["scene.normalize"]),
        "model.make_cache_ms": _per(ms("model.make_cache"), tr.calls["model.make_cache"]),
        "model.gcn_calls": _per(tr.calls["model.gcn"], forwards),
        "model.gcn_ms": _per(ms("model.gcn"), forwards),
        "model.gatv2_calls": _per(tr.calls["model.gatv2"], forwards),
        "model.gatv2_ms": _per(ms("model.gatv2"), forwards),
        "tensor.tape_records": _per(tr.counters["tensor.tape_records"],
                                    tr.calls["tensor.backward"]),
        "losses.total_loss_ms": _per(ms("losses.total_loss"), tr.calls["losses.total_loss"]),
        "metrics.compute_ms": _per(ms("metrics.compute"), tr.calls["metrics.compute"]),
        "trace.overhead_frac": overhead_frac,
    }
    for part in _GRAPH_PARTS:
        values[f"graph.{part}_ms"] = _per(ms(f"graph.{part}"), builds)
    for stage in _MODEL_STAGES:
        values[f"model.{stage}_ms"] = _per(1e3 * tr.stage_fwd[stage], forwards)
    for counter in ("calls", "rows", "bytes"):
        values[f"kernels.{counter}"] = _per(tr.counters[f"kernels.{counter}"], forwards)
    for kernel in ("segment_sum", "segment_max", "add_rows_at"):
        values[f"kernels.{kernel}_ms"] = _per(ms(f"kernels.{kernel}"), forwards)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def train_only_metrics(tr):
    """Backward and optimizer time, per trained scene. A workload without
    training reports none of these, so they are printed, not gated."""
    scenes = tr.calls["tensor.backward"]
    items = {"tensor.backward_ms": (_per(1e3 * tr.total["tensor.backward"], scenes), "ms")}
    for stage in STAGES + ("other",):
        items[f"tensor.backward_ms.{stage}"] = (_per(1e3 * tr.stage_bwd[stage], scenes), "ms")
    items["optim.adam_ms"] = (_per(1e3 * tr.total["optim.adam"], scenes), "ms")
    return items
