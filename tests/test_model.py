import struct

import numpy as np
import pytest

from trajgraph import kernels
from trajgraph import tensor as tg
from trajgraph.errors import CheckpointError, ConfigError
from trajgraph.graph import (
    REL_AGENT_PRE, REL_AGENT_SUC, REL_DRIVES_ON, REL_MERGE, REL_SOCIAL, REL_TRAFFIC_INFO,
    GraphConfig, build_graph,
)
from trajgraph.model import (
    CHECKPOINT_MAGIC, ModelConfig, ModelParameters, Prediction, _RelationCache, embed,
    encode, expected_parameter_specs, forward, gatv2_conv, gcn_edge_conv,
    init_parameters, is_normalization_param, layer_merge, load_checkpoint, make_cache,
    predict_head, save_checkpoint, temporal_encoding,
)
from trajgraph.scene import AgentState, AgentTrack, Lane, build_segments, normalize_scene
from trajgraph.synthetic import SyntheticSpec, generate_synthetic

from helpers import make_scene, straight_lane, straight_track
from oracles import (
    gatv2_composite, gatv2_per_head, gcn_per_relation, grad_rel_error, head_by_modes,
    holigraph3_init, numeric_gradient, relu_layer_norm,
)
from test_acceptance import OP_TOL
from test_tensor import _default_model_scenes, check_gradients

GCFG = GraphConfig(dilation=2)


def tiny_cfg(**kw):
    base = dict(f=8, heads=2, modes=2, t_f=3, t_obs=3, dilation=2)
    base.update(kw)
    return ModelConfig(**base)


def scene_and_cache(cfg, tracks=None, lanes=(), seed=None):
    if tracks is None:
        tracks = [straight_track("a0", t_obs=cfg.t_obs, t_f=cfg.t_f)]
    scene = make_scene(tracks, lanes, t_obs=cfg.t_obs, t_f=cfg.t_f)
    graph = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    return scene, make_cache(graph, cfg)


# --- temporal encoding ------------------------------------------------------

def test_temporal_encoding_at_zero():
    enc = temporal_encoding([0], 8)[0]
    assert enc.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_temporal_encoding_pairwise_distinct():
    for f in (2, 4, 8, 32):
        rows = temporal_encoding(range(20), f)
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.array_equal(rows[i], rows[j])


def test_embed_without_temporal_ignores_timestep():
    cfg = tiny_cfg(use_temporal=False, use_map=False)
    # stationary track: identical raw features at both timesteps
    track = straight_track("a0", vx=0.0, vy=0.0, t_obs=2, t_f=3)
    scene, cache = scene_and_cache(tiny_cfg(t_obs=2, use_temporal=False, use_map=False),
                                   tracks=[track])
    cfg = tiny_cfg(t_obs=2, use_temporal=False, use_map=False)
    params = init_parameters(cfg, seed=0)
    agent_h, _, _ = embed(cache, params, cfg)
    assert np.array_equal(agent_h.data[0], agent_h.data[1])
    del scene


def test_embed_with_temporal_separates_timesteps():
    track = straight_track("a0", vx=0.0, vy=0.0, t_obs=2, t_f=3)
    cfg = tiny_cfg(t_obs=2, use_map=False)
    scene, cache = scene_and_cache(cfg, tracks=[track])
    params = init_parameters(cfg, seed=0)
    agent_h, _, _ = embed(cache, params, cfg)
    assert not np.array_equal(agent_h.data[0], agent_h.data[1])
    del scene


# --- conv blocks ------------------------------------------------------------

def _edge_term(e, rel):
    """A GCN call-site's edge term, as `embed` computes it."""
    return tg.segment_sum(e, rel.plan, rel.plan.n_rows)


def _pre_weights(params):
    """agent_layer.0's weight and bias of its pre relation (index 0 of the
    call-site's stacks), as the [1, f, f] and [1, f] stacks of a one-relation
    conv."""
    return tuple(tg.Tensor(params[f"agent_layer.0.agent_rel.{leaf}"].data[:1])
                 for leaf in ("weight", "bias"))


def test_gcn_no_edges_outputs_bias():
    cfg = tiny_cfg(t_obs=1, use_map=False)
    _, cache = scene_and_cache(cfg, tracks=[straight_track("a0", t_obs=1, t_f=3)])
    params = init_parameters(cfg, seed=1)
    rel = _RelationCache(cache.graph, [REL_AGENT_PRE], gcn=True)  # one node: no edges
    assert rel.src.size == 0
    h = tg.Tensor(np.random.default_rng(0).normal(size=(cache.graph.n_agent_nodes, cfg.f)))
    e = tg.Tensor(np.zeros((0, cfg.f)))
    w, b = _pre_weights(params)
    out = gcn_edge_conv(h, rel, _edge_term(e, rel), w, b)
    assert np.array_equal(out.data, np.tile(b.data, (cache.graph.n_agent_nodes, 1)))


def test_gcn_single_edge_unscaled():
    cfg = tiny_cfg(t_obs=2, use_map=False)
    track = straight_track("a0", t_obs=2, t_f=3)
    _, cache = scene_and_cache(cfg, tracks=[track])
    params = init_parameters(cfg, seed=2)
    rel = _RelationCache(cache.graph, [REL_AGENT_PRE], gcn=True)  # exactly one edge 0 -> 1
    assert rel.src.tolist() == [0] and rel.dst.tolist() == [1]
    rng = np.random.default_rng(3)
    h = tg.Tensor(rng.normal(size=(2, cfg.f)))
    e = tg.Tensor(rng.normal(size=(1, cfg.f)))
    w, b = _pre_weights(params)
    out = gcn_edge_conv(h, rel, _edge_term(e, rel), w, b)
    # the conv multiplies the whole [2, f] aggregate; a BLAS matrix product
    # may round a row differently from a vector product, so build it alike
    aggregate = np.stack([np.zeros(cfg.f), h.data[0] + e.data[0]])
    expected = (aggregate @ w.data[0])[1] + b.data[0]
    assert np.allclose(out.data[1], expected, atol=0, rtol=0)


def test_gcn_line_graph_matches_dense_oracle():
    cfg = tiny_cfg(t_obs=3, use_map=False)
    _, cache = scene_and_cache(cfg)
    params = init_parameters(cfg, seed=4)
    rel = _RelationCache(cache.graph, [REL_AGENT_PRE], gcn=True)  # edges 0->1->2
    rng = np.random.default_rng(5)
    h = tg.Tensor(rng.normal(size=(3, cfg.f)))
    e = tg.Tensor(rng.normal(size=(2, cfg.f)))
    w, b = _pre_weights(params)
    out = gcn_edge_conv(h, rel, _edge_term(e, rel), w, b)

    # dense evaluation with degree-floored normalization
    adj = np.zeros((3, 3))
    for s, d in zip(rel.src, rel.dst):
        adj[s, d] = 1.0
    in_deg = np.maximum(adj.sum(axis=0), 1.0)
    out_deg = np.maximum(adj.sum(axis=1), 1.0)
    dense = np.tile(b.data, (3, 1))
    for d in range(3):
        for s in range(3):
            if adj[s, d]:
                eidx = [i for i, (es, ed) in enumerate(zip(rel.src, rel.dst))
                        if es == s and ed == d][0]
                coeff = 1.0 / np.sqrt(in_deg[d] * out_deg[s])
                dense[d] += coeff * ((h.data[s] + e.data[eidx]) @ w.data[0])
    assert np.allclose(out.data, dense, atol=1e-12)


@pytest.mark.parametrize("dilation, group", [(2, "map"), (4, "map"), (2, "agent")])
def test_grouped_gcn_matches_per_relation_oracle(dilation, group):
    cfg = tiny_cfg(dilation=dilation)
    # three-segment lanes, one with a left neighbour: map pre-3/pre-4 and
    # right are empty; middle segments and middle agent nodes have in-edges
    # from several relations
    lanes = [straight_lane("L0", 9.0, step=3.0, left="L1"),
             straight_lane("L1", 9.0, y=3.0, step=3.0)]
    tracks = [straight_track("a0"), straight_track("a1", y0=3.0)]
    _, cache = scene_and_cache(cfg, tracks=tracks, lanes=lanes)
    rel = cache.relations[group]
    names = _group_names(cfg, group)
    counts = [len(cache.graph.edges[name]) for name in names]
    assert (0 in counts) == (group == "map")
    kind = np.repeat(np.arange(len(names)), counts)
    assert any(len(set(kind[rel.dst == d])) > 1 for d in rel.dst)

    rng = np.random.default_rng(50 + dilation)
    h = tg.Tensor(rng.normal(size=(rel.n_src, cfg.f)))
    e = tg.Tensor(rng.normal(size=(len(rel.src), cfg.f)))
    weight = tg.Tensor(rng.normal(size=(len(names), cfg.f, cfg.f)))
    bias = tg.Tensor(rng.normal(size=(len(names), cfg.f)))
    out = gcn_edge_conv(h, rel, _edge_term(e, rel), weight, bias)

    per_relation = [(rel.src[kind == r], rel.dst[kind == r], e.data[kind == r])
                    for r in range(len(names))]
    expected = gcn_per_relation(h.data, rel.n_dst, per_relation, list(weight.data),
                                list(bias.data))
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()


def _group_names(cfg, group):
    return ([f"map.{short}.map" for short in cfg.map_rel_shorts()] if group == "map"
            else [REL_AGENT_PRE, REL_AGENT_SUC])


def _conv_matrix(graph, rel, names):
    """The call-site's dense [n_dst*R, E] matrix S, by a loop over edges:
    S[dst*R + r, i] = 1/sqrt(in-degree * out-degree) for edge i of relation
    r, degrees counted per relation."""
    r = len(names)
    s = np.zeros((rel.n_dst * r, len(rel.src)))
    i = 0
    for k, name in enumerate(names):
        pairs = graph.edges[name].tolist()
        in_deg = {d: sum(1 for _, e in pairs if e == d) for _, d in pairs}
        out_deg = {a: sum(1 for e, _ in pairs if e == a) for a, _ in pairs}
        for a, d in pairs:
            s[d * r + k, i] = 1.0 / np.sqrt(float(in_deg[d]) * float(out_deg[a]))
            i += 1
    return s


def _gcn_composite(h, rel, s, e, weight, bias):
    """The conv as separate ops, S applied as a dense constant by a matmul
    and the source gradient summed by a gather gradient: the reference for
    the fused record's summation order."""
    r, f = len(rel.shorts), h.data.shape[1]
    msg = tg.add(tg.gather_rows(h, rel.src), e)
    agg = tg.matmul(tg.Tensor(s), msg)
    out = tg.matmul(tg.reshape(agg, (rel.n_dst, r * f)), tg.reshape(weight, (r * f, f)))
    return tg.add(out, tg.matmul(tg.Tensor(np.ones((1, r))), bias))


@pytest.mark.parametrize("group", ["map", "agent"])
def test_gcn_conv_sums_in_the_order_of_the_composite(group):
    """Where every coefficient is one and a row has at most one in-edge, no
    product rounds, so the fused conv's output and gradients equal the
    composite's bit for bit only if both sum in ascending edge order, the
    sources' gradients over several out-edges included."""
    cfg = tiny_cfg()
    lanes = [straight_lane("L0", 30.0, step=3.0, left="L1"),
             straight_lane("L1", 30.0, y=3.0, step=3.0)]
    tracks = [straight_track("a0"), straight_track("a1", y0=3.0)]
    _, cache = scene_and_cache(cfg, tracks=tracks, lanes=lanes)
    rel = cache.relations[group]
    s = _conv_matrix(cache.graph, rel, _group_names(cfg, group))
    assert set(s[s != 0.0].tolist()) == {1.0} and rel.plan.edge_coeff[0].size == 0
    assert rel.plan.in_edges.shape[0] == 1 and rel.plan.out_rows.shape[0] > 1
    rng = np.random.default_rng(84)

    def leaf(*shape):
        return tg.Tensor(rng.normal(size=shape), requires_grad=True)
    h, e = leaf(rel.n_src, cfg.f), leaf(len(rel.src), cfg.f)
    weight, bias = leaf(len(rel.shorts), cfg.f, cfg.f), leaf(len(rel.shorts), cfg.f)
    inputs = [h, e, weight, bias]
    mix = tg.Tensor(rng.normal(size=(rel.n_dst, cfg.f)))
    results = []
    for fused in (True, False):
        for t in inputs:
            t.zero_grad()
        with tg.Tape() as tape:
            out = (gcn_edge_conv(h, rel, _edge_term(e, rel), weight, bias) if fused
                   else _gcn_composite(h, rel, s, e, weight, bias))
            total = tg.sum_all(tg.mul(out, mix))
        tape.backward(total)
        results.append([out.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def _merge_and_fork_case(cfg, seed):
    """The map GCN of lanes a and b ending at (10, 0), where c starts, and
    d and e starting where c ends, so c's first segment has two
    predecessors and its last two successors; random inputs that take
    gradients."""
    lanes = [Lane("a", [(0.0, 0.0), (10.0, 0.0)], None, None),
             Lane("b", [(0.0, 6.0), (10.0, 0.0)], None, None),
             Lane("c", [(10.0, 0.0), (20.0, 0.0)], None, None),
             Lane("d", [(20.0, 0.0), (30.0, 0.0)], None, None),
             Lane("e", [(20.0, 0.0), (30.0, 6.0)], None, None)]
    _, cache = scene_and_cache(cfg, tracks=[straight_track("a0", x0=12.0)], lanes=lanes)
    rel = cache.relations["map"]
    rng = np.random.default_rng(seed)
    h = tg.Tensor(rng.normal(size=(rel.n_src, cfg.f)), requires_grad=True)
    e = tg.Tensor(rng.normal(size=(len(rel.src), cfg.f)), requires_grad=True)
    r = len(rel.shorts)
    weight = tg.Tensor(rng.normal(size=(r, cfg.f, cfg.f)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(r, cfg.f)), requires_grad=True)
    return cache, rel, h, e, weight, bias


def test_gcn_merge_and_fork_fill_several_slots():
    cfg = tiny_cfg()
    cache, rel, h, e, weight, bias = _merge_and_fork_case(cfg, 80)
    assert rel.plan.in_edges.shape[0] >= 2
    assert rel.plan.edge_coeff[1].min() < 1.0
    names = _group_names(cfg, "map")
    kind = np.repeat(np.arange(len(names)), [len(cache.graph.edges[n]) for n in names])
    out = gcn_edge_conv(h, rel, _edge_term(e, rel), weight, bias)

    per_relation = [(rel.src[kind == r], rel.dst[kind == r], e.data[kind == r])
                    for r in range(len(names))]
    expected = gcn_per_relation(h.data, rel.n_dst, per_relation, list(weight.data),
                                list(bias.data))
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()

    mix = tg.Tensor(np.random.default_rng(81).normal(size=out.data.shape))
    check_gradients(lambda: tg.sum_all(tg.mul(
        gcn_edge_conv(h, rel, _edge_term(e, rel), weight, bias), mix)),
        [h, e, weight, bias])


def test_gcn_conv_is_one_record_and_never_scatters(monkeypatch):
    """The whole call-site, edge term included, is two records that call
    no scatter kernel, forward or backward."""
    cfg = tiny_cfg()
    _, rel, h, e, weight, bias = _merge_and_fork_case(cfg, 82)

    def refuse(*args):
        raise AssertionError("the GCN call-site called a scatter kernel")
    for name in ("segment_sum", "segment_max", "add_rows_at"):
        monkeypatch.setattr(kernels, name, refuse)
    with tg.Tape() as tape:
        edge_agg = _edge_term(e, rel)
        assert len(tape._records) == 1
        out = gcn_edge_conv(h, rel, edge_agg, weight, bias)
        assert len(tape._records) == 2
        loss = tg.sum_all(out)
    tape.backward(loss)
    assert all(t.grad is not None for t in (h, e, weight, bias))


def test_dense_attention_never_scatters_and_builds_its_tables_once(monkeypatch):
    """On a 16/8 scene each call-site on the dense value path runs its taped
    forward and backward without the add_rows_at kernel. make_cache builds
    no gather tables; the first backward builds the plan's two (by
    destination and by source), and a second backward reuses them."""
    cfg, (sample,), params = _default_model_scenes(1, agents=16, lanes=8)
    cfg = cfg.model
    rng = np.random.default_rng(84)

    def refuse(*args):
        raise AssertionError("dense attention called add_rows_at")
    monkeypatch.setattr(kernels, "add_rows_at", refuse)
    built, build = [], tg._bucket_tables
    monkeypatch.setattr(tg, "_bucket_tables", lambda *args: built.append(args) or build(*args))
    dense = [rel for rel in sample.cache.relations.values()
             if isinstance(rel.plan, tg.AttentionPlan)
             and tg._dense_values(cfg.heads, rel.n_dst, rel.n_src, len(rel.src), cfg.f)]
    assert len(dense) == 3
    for rel in dense:
        assert rel.plan._tables == {}
        leaves = [tg.Tensor(rng.normal(size=(n, cfg.f)), requires_grad=True)
                  for n in (rel.n_src, rel.n_dst, len(rel.src))]
        tables = []
        for _ in range(2):
            with tg.Tape() as tape:
                loss = tg.sum_all(gatv2_conv(*leaves[:2], rel, leaves[2], params, "merge", cfg))
            tape.backward(loss)
            assert all(t.grad is not None for t in leaves)
            tables.append(dict(rel.plan._tables))
        assert len(built) == 2 * (dense.index(rel) + 1)
        assert sorted(tables[0]) == ["dst", "src"]
        assert all(tables[1][side] is tables[0][side] for side in ("dst", "src"))


def _non_unit_by_loop(keys, coeff, depth):
    """Per slot d, the ascending (key, coefficient) pairs of the entries that
    are their key's d-th in edge order and whose coefficient is not 1."""
    seen = {}
    slots = [[] for _ in range(depth)]
    for key, c in zip(keys.tolist(), coeff.tolist()):
        d = seen.get(key, 0)
        seen[key] = d + 1
        if c != 1.0:
            slots[d].append((key, c))
    return [sorted(slot) for slot in slots]


def test_coefficient_lists_hold_exactly_the_non_unit_entries():
    cfg = tiny_cfg()
    cache, rel, *_ = _merge_and_fork_case(cfg, 83)
    plan = rel.plan
    coeff = _conv_matrix(cache.graph, rel, _group_names(cfg, "map"))[
        plan.targets, np.arange(len(rel.src))]
    assert (coeff != 1.0).any()
    for keys, index, lists in ((plan.targets, plan.in_edges, plan.in_coeff),
                               (rel.src, plan.out_rows, plan.out_coeff)):
        assert len(lists) == index.shape[0]
        got = [list(zip(rows.tolist(), c.reshape(-1).tolist())) for rows, c in lists]
        assert got == _non_unit_by_loop(keys, coeff, index.shape[0])
    edges, c = plan.edge_coeff
    assert edges.tolist() == np.flatnonzero(coeff != 1.0).tolist()
    assert c.reshape(-1).tolist() == coeff[coeff != 1.0].tolist()


def test_unit_coefficient_graph_lists_no_rows():
    """Lanes without forks or merges and tracks without gaps: every
    coefficient is exactly 1, so the lists name no row."""
    cfg = tiny_cfg()
    _, _, cache = build_synthetic_cache(cfg, seed=50, agents=4, lanes=3)
    for site in ("map", "agent"):
        rel = cache.relations[site]
        s = _conv_matrix(cache.graph, rel, _group_names(cfg, site))
        assert rel.src.size and set(s[s != 0.0].tolist()) == {1.0}
        plan = rel.plan
        assert all(rows.size == 0 for rows, _ in
                   plan.in_coeff + plan.out_coeff + [plan.edge_coeff])


def test_gatv2_isolated_destination_is_self_projection():
    cfg = tiny_cfg(t_obs=1, use_map=False)
    _, cache = scene_and_cache(cfg, tracks=[straight_track("a0", t_obs=1, t_f=3)])
    params = init_parameters(cfg, seed=6)
    rel = cache.relations[REL_SOCIAL]  # no edges, one destination
    h = tg.Tensor(np.random.default_rng(7).normal(size=(1, cfg.f)))
    e = tg.Tensor(np.zeros((0, cfg.f)))
    out = gatv2_conv(h, h, rel, e, params, "merge", cfg)
    expected = h.data @ params["merge.w1"].data.reshape(cfg.f, cfg.f)
    assert np.allclose(out.data, expected, atol=1e-14)


def attention_weights(h_src, h_dst, rel, e, params, prefix, cfg):
    """The [in-edges + destinations, heads] weights of gatv2_conv's
    attention, from the op it runs."""
    weights = (params[f"{prefix}.{w}"] for w in ("w1", "w2", "w3", "attn"))
    plan = tg.AttentionPlan(rel.src, rel.dst, rel.n_src, rel.n_dst)
    return tg.edge_attention(h_src, h_dst, e, *weights, plan, cfg.leaky_slope)[1]


def test_gatv2_identical_sources_share_attention():
    cfg = tiny_cfg(t_obs=1, use_map=False)
    tracks = [straight_track("a0", t_obs=1, t_f=3),
              straight_track("a1", y0=4.0, t_obs=1, t_f=3),
              straight_track("a2", y0=4.0, t_obs=1, t_f=3)]  # a1, a2 identical
    _, cache = scene_and_cache(tiny_cfg(t_obs=1, use_map=False), tracks=tracks)
    params = init_parameters(cfg, seed=8)
    rel = cache.relations[REL_SOCIAL]
    h = tg.Tensor(np.vstack([np.ones((1, cfg.f)),
                             np.full((1, cfg.f), 2.0),
                             np.full((1, cfg.f), 2.0)]))
    e = tg.Tensor(np.zeros((len(rel.src), cfg.f)))
    attention = attention_weights(h, h, rel, e, params, "merge", cfg)
    into_a0 = [i for i, d in enumerate(rel.dst) if d == 0]
    assert len(into_a0) == 2
    assert attention.shape == (len(rel.src) + rel.n_dst, cfg.heads)
    for head in range(cfg.heads):
        assert attention[into_a0[0], head] == attention[into_a0[1], head]


def test_gatv2_attention_sums_to_one():
    cfg = tiny_cfg()
    spec = SyntheticSpec(scenes=1, agents=3, lanes=2, t_obs=3, t_f=3, dt=0.1, noise=0.2)
    scene = normalize_scene(generate_synthetic(spec, seed=10)[0])
    graph = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    cache = make_cache(graph, cfg)
    params = init_parameters(cfg, seed=9)
    rel = cache.relations[REL_SOCIAL]
    h = tg.Tensor(np.random.default_rng(11).normal(size=(graph.n_agent_nodes, cfg.f)))
    e = tg.Tensor(np.random.default_rng(12).normal(size=(len(rel.src), cfg.f)))
    attention = attention_weights(h, h, rel, e, params, "merge", cfg)
    assert attention.shape == (len(rel.src) + rel.n_dst, cfg.heads)
    sums = np.zeros((rel.n_dst, cfg.heads))
    np.add.at(sums, np.concatenate([rel.dst, np.arange(rel.n_dst)]), attention)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def _gat_inputs(cfg, relation, seed):
    """Cache, relation and random (h_src, h_dst, e) for one relation of a
    three-agent, two-lane synthetic scene."""
    _, _, cache = build_synthetic_cache(cfg, seed)
    rel = cache.relations[relation]
    rng = np.random.default_rng(seed)
    h_src = tg.Tensor(rng.normal(size=(rel.n_src, cfg.f)), requires_grad=True)
    h_dst = tg.Tensor(rng.normal(size=(rel.n_dst, cfg.f)), requires_grad=True)
    e = tg.Tensor(rng.normal(size=(len(rel.src), cfg.f)), requires_grad=True)
    return cache, rel, h_src, h_dst, e


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("relation", [REL_SOCIAL, REL_TRAFFIC_INFO, REL_DRIVES_ON])
def test_gatv2_matches_per_head_oracle(heads, relation):
    cfg = tiny_cfg(heads=heads)
    cache, rel, h_src, h_dst, e = _gat_inputs(cfg, relation, seed=41 + heads)
    assert len(rel.src) > 0
    params = init_parameters(cfg, seed=42)
    prefix = "fusion_layer.0.traffic_info"
    out = gatv2_conv(h_src, h_dst, rel, e, params, prefix, cfg)
    w1, w2, w3, attn = (params[f"{prefix}.{w}"].data for w in ("w1", "w2", "w3", "attn"))
    expected = gatv2_per_head(h_src.data, h_dst.data, rel.src, rel.dst, e.data,
                              w1, w2, w3, attn, cfg.leaky_slope)
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()
    # weights bitwise equal to the step-by-step composite; the output within
    # rounding, since dense value sums add in another order than edge order
    alpha = attention_weights(h_src, h_dst, rel, e, params, prefix, cfg)
    composite, composite_alpha = gatv2_composite(h_src.data, h_dst.data, rel.src, rel.dst,
                                                 e.data, w1, w2, w3, attn, cfg.leaky_slope)
    assert np.abs(out.data - composite).max() <= 1e-12 * np.abs(composite).max()
    assert alpha.tobytes() == composite_alpha.tobytes()


def test_gatv2_gradient_every_weight_entry():
    cfg = tiny_cfg(f=8, heads=2)
    # traffic-info: map sources, agent destinations, so h_src and h_dst differ
    _, rel, h_src, h_dst, e = _gat_inputs(cfg, REL_TRAFFIC_INFO, seed=43)
    params = init_parameters(cfg, seed=44)
    weights = [params[f"merge.{w}"] for w in ("w1", "w2", "w3", "attn")] + [h_src, h_dst, e]
    mix = tg.Tensor(np.random.default_rng(45).normal(size=(rel.n_dst, cfg.f)))

    def build():
        out = gatv2_conv(h_src, h_dst, rel, e, params, "merge", cfg)
        return tg.sum_all(tg.mul(out, mix))

    with tg.Tape() as tape:
        out = build()
    tape.backward(out)
    numeric = numeric_gradient(lambda: build().item(), weights)
    for w, num in zip(weights, numeric):
        assert grad_rel_error(w.grad, num) < OP_TOL


def test_layer_merge_zero_updates_residual():
    cfg = tiny_cfg()
    params = init_parameters(cfg, seed=13)
    rng = np.random.default_rng(14)
    h_prev = tg.Tensor(rng.normal(size=(4, cfg.f)))
    zero = tg.Tensor(np.zeros((4, cfg.f)))
    out = layer_merge([zero, zero], h_prev, params, "merge.norm", cfg)
    expected = relu_layer_norm(zero.data, params["merge.norm.gain"].data,
                               params["merge.norm.offset"].data, h_prev.data)
    assert out.data.tobytes() == expected.tobytes()


def test_layer_merge_no_residual():
    cfg = tiny_cfg(use_residual=False)
    params = init_parameters(cfg, seed=15)
    rng = np.random.default_rng(16)
    update = tg.Tensor(rng.normal(size=(4, cfg.f)))
    h_prev = tg.Tensor(rng.normal(size=(4, cfg.f)))
    out = layer_merge([update], h_prev, params, "merge.norm", cfg)
    expected = relu_layer_norm(update.data, params["merge.norm.gain"].data,
                               params["merge.norm.offset"].data)
    assert out.data.tobytes() == expected.tobytes()


# --- encoder flags ----------------------------------------------------------

def build_synthetic_cache(cfg, seed, agents=3, lanes=2, noise=0.2, curved=False):
    spec = SyntheticSpec(scenes=1, agents=agents, lanes=lanes, t_obs=cfg.t_obs,
                         t_f=cfg.t_f, dt=0.1, noise=noise, curved=curved)
    scene = normalize_scene(generate_synthetic(spec, seed=seed)[0])
    graph = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    return scene, graph, make_cache(graph, cfg)


def test_no_map_outputs_invariant_to_map_mutation():
    cfg = tiny_cfg(use_map=False)
    scene, graph, cache = build_synthetic_cache(cfg, seed=17)
    params = init_parameters(cfg, seed=18)
    base = forward(cache, params, cfg)

    mutated = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    mutated.map_feats = mutated.map_feats + np.random.default_rng(19).normal(
        size=mutated.map_feats.shape)
    cache2 = make_cache(mutated, cfg)
    out = forward(cache2, params, cfg)
    assert np.array_equal(base.trajectories.data, out.trajectories.data)
    assert np.array_equal(base.scores.data, out.scores.data)
    del graph


def test_no_social_no_map_isolates_agents():
    cfg = tiny_cfg(use_map=False, use_social=False)
    scene, _, cache = build_synthetic_cache(cfg, seed=20)
    params = init_parameters(cfg, seed=21)
    base = forward(cache, params, cfg)

    # mutate every state of the other tracks; agent 0 must be unaffected
    for track in scene.tracks[1:]:
        track.past = [(t, AgentState(s.x + 3.0, s.y - 2.0, s.vx * 2.0, s.vy, 0.5))
                      for t, s in track.past]
    graph2 = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    out = forward(make_cache(graph2, cfg), params, cfg)
    assert np.array_equal(base.trajectories.data[0], out.trajectories.data[0])
    assert np.array_equal(base.scores.data[0], out.scores.data[0])


def test_single_node_scene_runs():
    cfg = tiny_cfg(t_obs=1, use_map=False)
    _, cache = scene_and_cache(cfg, tracks=[straight_track("a0", t_obs=1, t_f=3)])
    params = init_parameters(cfg, seed=22)
    latent = encode(cache, params, cfg)
    assert latent.shape == (1, cfg.f)
    assert np.isfinite(latent.data).all()


def test_track_permutation_permutes_predictions_bitwise():
    cfg = tiny_cfg()
    spec = SyntheticSpec(scenes=1, agents=4, lanes=2, t_obs=3, t_f=3, dt=0.1,
                         noise=0.3, curved=True)
    scene = normalize_scene(generate_synthetic(spec, seed=23)[0])
    params = init_parameters(cfg, seed=24)

    graph = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    base = forward(make_cache(graph, cfg), params, cfg)

    perm = [3, 1, 0, 2]
    scene.tracks = [scene.tracks[p] for p in perm]
    graph_p = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    out = forward(make_cache(graph_p, cfg), params, cfg)

    for new_row, old_row in enumerate(perm):
        assert np.array_equal(out.trajectories.data[new_row],
                              base.trajectories.data[old_row])
        assert np.array_equal(out.scores.data[new_row], base.scores.data[old_row])


@pytest.mark.parametrize("side", ["by-size", "dense", "blocked"])
@pytest.mark.parametrize("n_tracks", range(1, 10))
def test_track_permutation_permutes_trained_predictions_bitwise(n_tracks, side, monkeypatch):
    """With nonzero head output layers, permuting the tracks permutes the
    predictions bitwise, for each value path of the attention convs: chosen
    by size (both occur), or forced dense or blocked. Before the head ran in
    agent_id order, odd track counts failed here through the head's BLAS
    row tiles."""
    if side != "by-size":
        monkeypatch.setattr(tg, "_dense_values", lambda *sizes: side == "dense")
    cfg = ModelConfig(f=16, heads=4, modes=3, t_f=6, t_obs=4, dilation=2)
    seed = 102 + 7 * n_tracks
    spec = SyntheticSpec(scenes=1, agents=n_tracks, lanes=2, t_obs=cfg.t_obs, t_f=cfg.t_f,
                         dt=0.1, noise=0.3, curved=True)
    scene = normalize_scene(generate_synthetic(spec, seed=seed)[0])
    params = init_parameters(cfg, seed)
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name.startswith("head.") and ".l2." in name:
            t.data = 0.05 * rng.normal(size=t.data.shape)
    graph_cfg = GraphConfig(dilation=cfg.dilation)
    base = forward(make_cache(build_graph(scene, graph_cfg), cfg), params, cfg)

    perm = rng.permutation(n_tracks)
    scene.tracks = [scene.tracks[p] for p in perm]
    out = forward(make_cache(build_graph(scene, graph_cfg), cfg), params, cfg)
    assert np.array_equal(out.trajectories.data, base.trajectories.data[perm])
    assert np.array_equal(out.scores.data, base.scores.data[perm])


@pytest.mark.parametrize("seed", range(4))
def test_lane_permutation_leaves_trained_predictions_bitwise(seed):
    """With the default config and nonzero head output layers, permuting
    the scene's lanes leaves the predictions bitwise equal. At 16 lanes the
    lane ids l10.. sort before l2.., so scene order is not key order."""
    cfg = ModelConfig()
    spec = SyntheticSpec(scenes=1, agents=8, lanes=16, t_obs=cfg.t_obs, t_f=cfg.t_f,
                         dt=0.1, noise=0.05, curved=True)
    raw = generate_synthetic(spec, seed=300 + seed)[0]
    params = init_parameters(cfg, seed)
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name.startswith("head.") and ".l2." in name:
            t.data = 0.05 * rng.normal(size=t.data.shape)
    graph_cfg = GraphConfig(dilation=cfg.dilation)

    def predict():
        graph = build_graph(normalize_scene(raw), graph_cfg)
        return forward(make_cache(graph, cfg), params, cfg)

    base = predict()
    raw.lanes = [raw.lanes[p] for p in rng.permutation(len(raw.lanes))]
    raw.segments = build_segments(raw, spec.segment_len)
    out = predict()
    assert np.array_equal(out.trajectories.data, base.trajectories.data)
    assert np.array_equal(out.scores.data, base.scores.data)


def test_value_paths_both_occur_by_size():
    """In the scenes above, the size rule sends the merge relation down the
    blocked value path and, from two tracks on, the social one down the
    dense path."""
    cfg = ModelConfig(f=16, heads=4, modes=3, t_f=6, t_obs=4, dilation=2)
    for agents in (2, 9):
        _, _, cache = build_synthetic_cache(cfg, seed=5, agents=agents)
        dense = {site: tg._dense_values(cfg.heads, rel.n_dst, rel.n_src, len(rel.src), cfg.f)
                 for site, rel in cache.relations.items()}
        assert not dense[REL_MERGE] and dense[REL_SOCIAL]


# --- prediction head --------------------------------------------------------

def test_head_empty_scene_shapes():
    cfg = tiny_cfg(t_obs=1, use_map=False)
    _, cache = scene_and_cache(cfg, tracks=[])
    params = init_parameters(cfg, seed=25)
    latent = tg.Tensor(np.zeros((0, cfg.f)))
    pred = predict_head(latent, cache, params, cfg)
    assert pred.trajectories.shape == (0, cfg.modes, cfg.t_f, 2)
    assert pred.scores.shape == (0, cfg.modes)


def test_head_identical_latents_identical_outputs():
    cfg = tiny_cfg()
    twins = [straight_track(name, t_obs=cfg.t_obs, t_f=cfg.t_f) for name in ("a0", "a1")]
    _, cache = scene_and_cache(cfg, tracks=twins)
    params = init_parameters(cfg, seed=26)
    row = np.random.default_rng(27).normal(size=(1, cfg.f))
    latent = tg.Tensor(np.vstack([row, row]))
    pred = predict_head(latent, cache, params, cfg)
    assert np.array_equal(pred.trajectories.data[0], pred.trajectories.data[1])
    assert np.array_equal(pred.scores.data[0], pred.scores.data[1])


@pytest.mark.parametrize("agents, lanes", [(4, 2), (16, 8), (8, 16)])
def test_head_has_the_bits_of_the_per_mode_oracle(agents, lanes):
    """The stacked head's trajectories and scores, untaped and taped, have
    the bytes of the K modes run one by one in numpy, on default-config
    scenes with nonzero head output layers."""
    cfg, (sample,), params = _default_model_scenes(1, agents, lanes)
    cache, model_cfg = sample.cache, cfg.model
    latent = encode(cache, params, model_cfg)
    head = {name: t.data for name, t in params.items() if name.startswith("head.")}
    expected = head_by_modes(latent.data, cache.start.data, cache.cumsum.data,
                             cache.track_rank, head, model_cfg.modes)
    untaped = predict_head(latent, cache, params, model_cfg)
    with tg.Tape():
        taped = predict_head(latent, cache, params, model_cfg)
    assert taped.scores.requires_grad and not untaped.scores.requires_grad
    for pred in (untaped, taped):
        assert pred.trajectories.data.tobytes() == expected[0].tobytes()
        assert pred.scores.data.tobytes() == expected[1].tobytes()


def test_head_records_as_many_tape_ops_for_one_mode_as_for_six():
    """The modes run as stacks, so the head's tape does not grow with K."""
    counts = []
    for modes in (1, 6):
        cfg = tiny_cfg(modes=modes)
        _, cache = scene_and_cache(cfg)
        params = init_parameters(cfg, seed=29)
        latent = tg.Tensor(np.random.default_rng(30).normal(size=(1, cfg.f)), requires_grad=True)
        with tg.Tape() as tape:
            predict_head(latent, cache, params, cfg)
        counts.append(len(tape._records))
    assert counts[0] == counts[1], counts


def test_untrained_head_starts_at_constant_velocity():
    # head output layers start at zero, so every mode is the start itself;
    # "early" ends two steps before t_obs - 1, "still" has zero velocity fields
    cfg = tiny_cfg(t_obs=4, t_f=3)
    dt = 0.25
    early = [(t, AgentState(1.0 + t, -2.0, 3.0, -1.5, 0.0)) for t in range(2)]
    still = [(t, AgentState(-4.0 + 0.5 * t, 5.0, 0.0, 0.0, 0.0)) for t in range(4)]
    moving = [(t, AgentState(0.5 * t, 0.2 * t, 2.0, 0.8, 0.0)) for t in range(4)]
    tracks = [AgentTrack("early", early, None), AgentTrack("still", still, None),
              AgentTrack("moving", moving, None)]
    scene = make_scene(tracks, t_obs=cfg.t_obs, t_f=cfg.t_f, dt=dt)
    graph = build_graph(scene, GraphConfig(dilation=cfg.dilation))
    assert graph.dt == dt
    pred = forward(make_cache(graph, cfg), init_parameters(cfg, seed=40), cfg)

    for row, track in enumerate(tracks):
        t_last, s = track.past[-1]
        expected = np.array([[s.x + s.vx * dt * (cfg.t_obs - t_last + t),
                              s.y + s.vy * dt * (cfg.t_obs - t_last + t)]
                             for t in range(cfg.t_f)])
        for k in range(cfg.modes):
            assert np.array_equal(pred.trajectories.data[row, k], expected)
    assert (pred.trajectories.data[1] == [-2.5, 5.0]).all()


def test_end_to_end_directional_gradient():
    cfg = tiny_cfg()
    _, _, cache = build_synthetic_cache(cfg, seed=28, agents=2)
    params = init_parameters(cfg, seed=29)
    mix_t = np.random.default_rng(30).normal(size=(2, cfg.modes, cfg.t_f, 2))
    mix_s = np.random.default_rng(31).normal(size=(2, cfg.modes))

    def scalar():
        pred = forward(cache, params, cfg)
        return float((pred.trajectories.data * mix_t).sum() + (pred.scores.data * mix_s).sum())

    with tg.Tape() as tape:
        pred = forward(cache, params, cfg)
        out = tg.add(tg.sum_all(tg.mul(pred.trajectories, tg.Tensor(mix_t))),
                     tg.sum_all(tg.mul(pred.scores, tg.Tensor(mix_s))))
    tape.backward(out)

    rng = np.random.default_rng(32)
    direction = {name: rng.normal(size=t.data.shape) for name, t in params.items()}
    analytic = sum((t.grad * direction[name]).sum()
                   for name, t in params.items() if t.grad is not None)
    step = 1e-6
    saved = {name: t.data.copy() for name, t in params.items()}
    for name, t in params.items():
        t.data = saved[name] + step * direction[name]
    fp = scalar()
    for name, t in params.items():
        t.data = saved[name] - step * direction[name]
    fm = scalar()
    for name, t in params.items():
        t.data = saved[name]
    numeric = (fp - fm) / (2 * step)
    assert grad_rel_error(np.array([analytic]), np.array([numeric])) < 1e-6


# --- parameters and checkpoints ---------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(f=10, heads=4)


class _ReadSpy(ModelParameters):
    """ModelParameters that records every path a forward pass looks up."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.read = set()

    def __getitem__(self, path):
        self.read.add(path)
        return super().__getitem__(path)


@pytest.mark.parametrize("overrides", [
    {}, {"n_fusion_layers": 0}, {"n_fusion_layers": 1}, {"n_fusion_layers": 3},
    {"n_map_layers": 0}, {"use_map": False}, {"use_social": False},
    {"use_map": False, "use_social": False}, {"use_relational": False},
    {"use_residual": False}, {"use_temporal": False}, {"t_obs": 1},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()) or "default")
def test_forward_reads_every_parameter(overrides):
    # t_obs 1 leaves one agent layer, so social attention sits in layer 0
    cfg = ModelConfig(**overrides)
    _, _, cache = build_synthetic_cache(cfg, seed=46)
    params = _ReadSpy(dict(init_parameters(cfg, seed=47).items()))
    forward(cache, params, cfg)
    assert sorted(set(expected_parameter_specs(cfg)) - params.read) == []


class _KeySpy(dict):
    """A dict that records every key looked up by subscript."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("n_fusion_layers", [0, 1, 2])
def test_cache_holds_exactly_the_relations_encode_reads(n_fusion_layers):
    cfg = tiny_cfg(n_fusion_layers=n_fusion_layers)
    _, _, cache = build_synthetic_cache(cfg, seed=48)
    cache.relations = _KeySpy(cache.relations)
    encode(cache, init_parameters(cfg, seed=49), cfg)
    # the order of edge-MLP records, which sets the order gradients are summed in
    order = ["agent", REL_MERGE, REL_SOCIAL, "map", REL_DRIVES_ON, REL_TRAFFIC_INFO]
    assert list(cache.relations) == [key for key in order if key in cache.relations.read]


def test_default_parameter_count():
    specs = expected_parameter_specs(ModelConfig())
    assert (len(specs), sum(int(np.prod(s)) for s in specs.values())) == (131, 670062)


def test_parameter_enumeration_lexicographic():
    cfg = tiny_cfg()
    params = init_parameters(cfg, seed=33)
    paths = params.paths()
    assert paths == sorted(paths)
    assert set(paths) == set(expected_parameter_specs(cfg))


def _holigraph3_blocks(path, data, cfg):
    """(HOLIGRAPH3 path, array) for each mode's slice of a head parameter and
    each relation's slice of a GCN call-site's stack, else (path, data)."""
    prefix, leaf = path.rsplit(".", 1)
    layer, _, site = prefix.rpartition(".")
    if path.startswith("head."):
        _, kind, rest = path.split(".", 2)
        return [(f"head.{kind}.k{k}.{rest}", data[k]) for k in range(cfg.modes)]
    shorts = {"agent_rel": ("pre", "suc"), "map_rel": cfg.map_rel_shorts()}.get(site, ())
    return ([(f"{layer}.rel.{short}.{leaf}", data[i]) for i, short in enumerate(shorts)]
            or [(path, data)])


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("cfg", [tiny_cfg(), ModelConfig()], ids=["tiny", "default"])
def test_init_has_the_values_of_the_holigraph3_oracle(cfg, seed):
    """Slice by slice, the stacked parameters hold the bytes that an init
    of the per-relation, per-mode layout draws for each block's own path."""
    expected = holigraph3_init(cfg, seed)
    got = {}
    for path, t in init_parameters(cfg, seed).items():
        got.update(_holigraph3_blocks(path, t.data, cfg))
    assert sorted(got) == sorted(expected)
    for path, want in expected.items():
        assert got[path].size == want.size, path
        assert np.ascontiguousarray(got[path]).tobytes() == want.tobytes(), path


def test_init_deterministic():
    cfg = tiny_cfg()
    a = init_parameters(cfg, seed=34)
    b = init_parameters(cfg, seed=34)
    for (na, ta), (nb, tb) in zip(a.items(), b.items()):
        assert na == nb and np.array_equal(ta.data, tb.data)


def test_norm_param_detection():
    assert is_normalization_param("merge.norm.gain")
    assert is_normalization_param("fusion_layer.0.agent_norm.offset")
    assert not is_normalization_param("head.reg.l1.weight")


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg()
    params = init_parameters(cfg, seed=35)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path, cfg)
    for (na, ta), (nb, tb) in zip(params.items(), loaded.items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_checkpoint_config_mismatch(tmp_path):
    cfg = tiny_cfg()
    params = init_parameters(cfg, seed=36)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(path, tiny_cfg(use_map=False))


def test_checkpoint_previous_magic_rejected(tmp_path):
    # HOLIGRAPH1 heads predicted from the scene origin; HOLIGRAPH2 kept one
    # set of attention tensors per head and the unread last fusion map
    # update; HOLIGRAPH3 kept each relation's and each mode's weights as
    # parameters of their own; none may load, even with a body in today's
    # layout
    cfg = tiny_cfg()
    path = tmp_path / "old.ckpt"
    save_checkpoint(init_parameters(cfg, seed=37), path)
    body = path.read_bytes()[len(CHECKPOINT_MAGIC):]
    for magic in (b"HOLIGRAPH1", b"HOLIGRAPH2", b"HOLIGRAPH3"):
        path.write_bytes(magic + body)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path, cfg)


def test_checkpoint_repeated_parameter_rejected(tmp_path):
    """A record that repeats a parameter's name is refused by that name; the
    later record's values never replace the earlier ones."""
    cfg = tiny_cfg(t_obs=1, use_map=False)
    params = init_parameters(cfg, seed=39)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    name = "agent_layer.0.norm.gain"
    again = tg.Tensor(2.0 * params[name].data)
    save_checkpoint(ModelParameters({name: again}), tmp_path / "one.ckpt")
    record = (tmp_path / "one.ckpt").read_bytes()[len(CHECKPOINT_MAGIC):]
    path.write_bytes(path.read_bytes() + record)
    with pytest.raises(CheckpointError, match=f"parameter {name} appears twice"):
        load_checkpoint(path, cfg)


def test_checkpoint_truncated_anywhere(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_parameters(cfg, seed=38), path)
    body = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(CHECKPOINT_MAGIC) + 1, len(body), 97):
        cut.write_bytes(body[:n])
        with pytest.raises(CheckpointError, match="truncated|missing"):
            load_checkpoint(cut, cfg)


def test_checkpoint_impossible_shape_rejected(tmp_path):
    # zero values, so no read runs short, but numpy cannot address the extent
    path = tmp_path / "huge.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"x"
                     + struct.pack("<I", 2) + struct.pack("<2Q", 0, 2 ** 62))
    with pytest.raises(CheckpointError, match="impossible shape"):
        load_checkpoint(path, tiny_cfg())
    # rank 5 with one value: readable, but above the tensors' maximum rank
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"x"
                     + struct.pack("<I", 5) + struct.pack("<5Q", 1, 1, 1, 1, 1) + bytes(8))
    with pytest.raises(CheckpointError, match="impossible shape"):
        load_checkpoint(path, tiny_cfg())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACHECKPOINT")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path, tiny_cfg())
