"""The learnable network.

Pipeline per scene: per-type embedding MLPs (linear -> ReLU -> LayerNorm)
with a sinusoidal per-timestep encoding concatenated onto agent nodes, a
heterogeneous graph encoder, and K regression/scoring MLP pairs, run as one
stack of per-mode products, producing K trajectories with unnormalized scores.

Parameters are stored in the layout the kernels read. A grouped GCN
call-site holds its R relations' weights as one [R, f, f] `weight` and their
biases as one [R, f] `bias`, in `_gcn_groups` order; each head layer holds
its K modes' weights, biases, gains and offsets as one [K, ...] parameter
each. Checkpoints in this layout carry the magic `HOLIGRAPH4`; files of the
earlier per-relation and per-mode layouts are refused by their header.

`encoder_layers` is the one description of the encoder's wiring: each
layer's call-sites, a degree-normalized graph conv over a group of
relations (`gcn_edge_conv`) or a GATv2-style attention conv over one
relation (`gatv2_conv`), and the merges that sum their updates
(`layer_merge`). Parameter specs, the per-graph relation cache and `encode`
are all read off it.
"""

import functools
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor as tg
from .errors import CheckpointError, ConfigError
from .graph import REL_DRIVES_ON, REL_MERGE, REL_SOCIAL, REL_TRAFFIC_INFO, relation_endpoints

CHECKPOINT_MAGIC = b"HOLIGRAPH4"


@dataclass
class ModelConfig:
    f: int = 64                 # hidden width
    heads: int = 4              # attention heads; results are concatenated
    modes: int = 6              # K alternative futures per agent
    t_f: int = 30               # predicted steps
    t_obs: int = 10             # observed steps; also the agent-stage depth
    dilation: int = 4           # map pre-i/suc-i order
    n_map_layers: int = 5
    n_fusion_layers: int = 2
    leaky_slope: float = 0.2
    use_map: bool = True
    use_social: bool = True
    use_relational: bool = True
    use_residual: bool = True
    use_temporal: bool = True

    def __post_init__(self):
        if self.f < 1 or self.heads < 1:
            raise ConfigError("f and heads must be positive")
        if self.f % self.heads != 0:
            raise ConfigError(f"hidden width {self.f} not divisible by {self.heads} heads")
        if self.t_obs < 1 or self.t_f < 1 or self.modes < 1:
            raise ConfigError("t_obs, t_f and modes must be positive")
        if self.dilation < 1 or self.n_map_layers < 0 or self.n_fusion_layers < 0:
            raise ConfigError("dilation must be positive and layer counts non-negative")
        if not 0.0 <= self.leaky_slope <= 1.0:
            # edge_attention computes LeakyReLU as max(pre, slope * pre) and
            # reads its branch from the sign of the output: the first needs
            # slope <= 1, the second slope >= 0
            raise ConfigError(f"leaky_slope must be in [0, 1], got {self.leaky_slope!r}")

    @property
    def n_agent_layers(self):
        return self.t_obs

    def map_rel_shorts(self):
        shorts = [f"pre-{i}" for i in range(1, self.dilation + 1)]
        shorts += [f"suc-{i}" for i in range(1, self.dilation + 1)]
        return shorts + ["left", "right"]


class ModelParameters:
    """Named parameter tensors; enumeration is always lexicographic."""

    def __init__(self, tensors):
        self._tensors = dict(sorted(tensors.items()))

    def __getitem__(self, path):
        return self._tensors[path]

    def paths(self):
        return list(self._tensors)

    def items(self):
        return list(self._tensors.items())

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None


def is_normalization_param(path):
    return any(seg == "norm" or seg.endswith("_norm") for seg in path.split("."))


# --- encoder wiring ---------------------------------------------------------

# A layer's merges run in order; a merge sums its call-sites' updates into
# the state of one node type and normalizes with LayerNorm `norm` under the
# layer prefix.
Layer = namedtuple("Layer", "prefix merges")
Merge = namedtuple("Merge", "node norm sites")

# Every call-site -> its parameters' name under the layer prefix (None: the
# layer prefix itself), in the order the cache embeds their edges; the edge
# MLP's gradients are summed in that order.
_CALL_SITES = {"agent": "agent_rel", REL_MERGE: None, REL_SOCIAL: "social", "map": "map_rel",
               REL_DRIVES_ON: "drives_on", REL_TRAFFIC_INFO: "traffic_info"}


def _gcn_groups(cfg):
    """Grouped GCN call-site -> its relations' shorts. Short s of group g is
    the graph relation "g.s.g"; its weight and bias are index i, the
    short's place here, of the call-site's stacked `weight` and `bias`."""
    return {"agent": ("pre", "suc"), "map": cfg.map_rel_shorts()}


def _site_prefix(layer_prefix, site):
    name = _CALL_SITES[site]
    return f"{layer_prefix}.{name}" if name else layer_prefix


def encoder_layers(cfg):
    """The encoder's wiring, layer by layer, in run order.

    A call-site is a grouped GCN ("map" or "agent") or one attention
    relation. Every call-site of a layer reads the states from before the
    layer; its merges then run in order.
    """
    social = (REL_SOCIAL,) if cfg.use_social else ()
    n_map, n_fusion = (cfg.n_map_layers, cfg.n_fusion_layers) if cfg.use_map else (0, 0)
    layers = [Layer(f"map_layer.{l}", (Merge("map", "norm", ("map",)),)) for l in range(n_map)]
    for l in range(cfg.n_agent_layers):
        sites = ("agent",) + (social if l >= cfg.n_agent_layers - 2 else ())
        layers.append(Layer(f"agent_layer.{l}", (Merge("agent", "norm", sites),)))
    for l in range(n_fusion):
        merges = (Merge("agent", "agent_norm", ("agent",) + social + (REL_TRAFFIC_INFO,)),)
        if l < cfg.n_fusion_layers - 1:  # the last layer's map update is never read
            merges += (Merge("map", "map_norm", ("map", REL_DRIVES_ON)),)
        layers.append(Layer(f"fusion_layer.{l}", merges))
    layers.append(Layer("merge", (Merge("agent", "norm", (REL_MERGE,)),)))
    return layers


def expected_parameter_specs(cfg):
    """path -> shape for every parameter the configuration instantiates."""
    f = cfg.f
    dh = f // cfg.heads
    specs = {}

    def linear(prefix, n_in, n_out, stack=()):
        specs[f"{prefix}.weight"] = stack + (n_in, n_out)
        specs[f"{prefix}.bias"] = stack + (1, n_out)

    def norm(prefix, width=f, stack=()):
        specs[f"{prefix}.gain"] = stack + (width,)
        specs[f"{prefix}.offset"] = stack + (width,)

    def gat(prefix):
        # heads on the middle axis: Glorot's fans (axes 0, -1) are per head
        specs[f"{prefix}.w1"] = (f, cfg.heads, dh)
        specs[f"{prefix}.w2"] = (f, cfg.heads, dh)
        specs[f"{prefix}.w3"] = (3 * f, cfg.heads, dh)
        specs[f"{prefix}.attn"] = (1, cfg.heads, dh)

    linear("embed.agent.linear", 5, f)
    norm("embed.agent.norm")
    if cfg.use_temporal:
        specs["embed.temporal.weight"] = (2 * f, f)
    if cfg.use_map:
        linear("embed.map.linear", 4, f)
        norm("embed.map.norm")
    if cfg.use_relational:
        linear("embed.edge.linear", 2, f)
        norm("embed.edge.norm")

    groups = _gcn_groups(cfg)
    for layer in encoder_layers(cfg):
        for merge in layer.merges:
            for site in merge.sites:
                prefix = _site_prefix(layer.prefix, site)
                if site in groups:
                    specs[f"{prefix}.weight"] = (len(groups[site]), f, f)
                    specs[f"{prefix}.bias"] = (len(groups[site]), f)
                else:
                    gat(prefix)
            norm(f"{layer.prefix}.{merge.norm}")

    modes = (cfg.modes,)
    for kind, width, out in (("reg", f, 2 * cfg.t_f), ("score", f + 2 * cfg.t_f, 1)):
        linear(f"head.{kind}.l1", width, width, modes)
        norm(f"head.{kind}.norm", width, modes)
        linear(f"head.{kind}.l2", width, out, modes)
    return specs


def _draw_order(cfg, specs):
    """(HOLIGRAPH3 path, path, index) of every parameter block, index () for
    a whole parameter. HOLIGRAPH3 kept each relation's and each mode's block
    as a parameter of its own; sorted, these paths are init's draw order."""
    group_of = {_CALL_SITES[g]: shorts for g, shorts in _gcn_groups(cfg).items()}
    for path in specs:
        prefix, leaf = path.rsplit(".", 1)
        layer, _, site = prefix.rpartition(".")
        if path.startswith("head."):
            _, kind, rest = path.split(".", 2)
            yield from ((f"head.{kind}.k{k}.{rest}", path, k) for k in range(cfg.modes))
        elif site in group_of:
            yield from ((f"{layer}.rel.{s}.{leaf}", path, i) for i, s in enumerate(group_of[site]))
        else:
            yield path, path, ()


def init_parameters(cfg, seed):
    """Glorot-uniform weights, zero biases, unit gains; deterministic in seed.

    Each block of a stacked parameter (one relation of a GCN call-site, one
    mode of a head layer) is drawn with its own fans, and the blocks are
    drawn in the sorted order of their HOLIGRAPH3 paths (`_draw_order`), so
    a seed gives every block the values it gave that layout's parameter.

    Head output layers start at exactly zero so every mode emits the same
    trajectory before the first update: each track's constant-velocity
    start (see `predict_head`). The winner-takes-all tie then resolves to
    the lowest mode index for every agent, which keeps early mode assignment
    coherent across agents instead of freezing in random per-agent winners.
    """
    rng = np.random.default_rng(seed)
    specs = expected_parameter_specs(cfg)
    data = {path: np.zeros(shape) for path, shape in specs.items()}
    for _, path, index in sorted(_draw_order(cfg, specs)):
        leaf = path.rsplit(".", 1)[1]
        block = data[path][index]
        if leaf == "gain":
            block[...] = 1.0
        elif leaf not in ("offset", "bias") and not (path.startswith("head.") and ".l2." in path):
            limit = np.sqrt(6.0 / (block.shape[0] + block.shape[-1]))
            block[...] = rng.uniform(-limit, limit, size=block.shape)
    return ModelParameters({path: tg.Tensor(d, requires_grad=True) for path, d in data.items()})


# --- temporal encoding ------------------------------------------------------

def temporal_encoding(timesteps, f):
    """Sinusoidal per-timestep rows: even entries sin(t/10000^(d/f)),
    odd entries cos(t/10000^(d/f)); row 0 is [0, 1, 0, 1, ...]."""
    t = np.asarray(timesteps, dtype=np.float64).reshape(-1, 1)
    d = np.arange(f, dtype=np.float64)
    angle = t / np.power(10000.0, d / float(f))
    enc = np.where(d % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


# --- per-graph constants ----------------------------------------------------

class _RelationCache:
    """One call-site's relations, which share endpoint types, as one edge
    list, and the per-graph plan (`plan`) the call-site's op reads.

    Edges and raw edge features are concatenated in the order of `names`.
    An attention call-site's plan is the `tg.AttentionPlan` of its edges
    (src -> dst) that `tg.edge_attention` reads; its gather tables are
    built by the first backward through it, so a cache that only untaped
    forwards read builds none. A grouped GCN's (`gcn`) is the
    `tg.ConvPlan` that `tg.segment_sum` and `tg.edge_conv` read: edge i of
    relation r targets row dst*R + r of the per-(target, relation)
    aggregate, and its coefficient uses degrees counted per relation. On a
    map without forks or merges every coefficient is 1.
    """

    def __init__(self, graph, names, gcn=False):
        src_type, dst_type = relation_endpoints(names[0])
        self.n_src = graph.n_agent_nodes if src_type == "agent" else graph.n_map_nodes
        self.n_dst = graph.n_agent_nodes if dst_type == "agent" else graph.n_map_nodes
        r = len(names)
        self.shorts = [name.split(".")[1] for name in names]
        edges = np.concatenate([graph.edges[name] for name in names])
        self.src = edges[:, 0].copy()
        self.dst = edges[:, 1].copy()
        self.raw_edge = tg.Tensor(np.concatenate([graph.edge_feats[name] for name in names]))
        if not gcn:
            self.plan = tg.AttentionPlan(self.src, self.dst, self.n_src, self.n_dst)
            return
        kind = np.repeat(np.arange(r), [len(graph.edges[name]) for name in names])
        targets = self.dst * r + kind
        src_keys = self.src * r + kind
        # read at its own edges, a degree is at least one: a lone edge is
        # passed through unscaled
        coeff = 1.0 / np.sqrt(np.bincount(targets)[targets] * np.bincount(src_keys)[src_keys])
        self.plan = tg.ConvPlan(targets, self.src, coeff, self.n_dst * r, self.n_src)


def _start_positions(graph, cfg):
    """[n_tracks, 2*t_f] constant the head's increments are added to, one
    row per track in agent_id order.

    Future step t (0-based, timestep t_obs + t) of each track starts at its
    last observed position moved on at its last observed velocity:
    p_last + v_last * dt * (t_obs - t_last + t), t_last being the readout
    node's timestep. Tracks with zero velocity fields stay at p_last.
    """
    readout = np.sort(graph.readout_index)
    last = graph.agent_feats[readout]
    t_last = graph.agent_step[readout].astype(np.float64)
    lead = cfg.t_obs - t_last[:, None] + np.arange(cfg.t_f, dtype=np.float64)
    xy = last[:, None, 0:2] + last[:, None, 2:4] * graph.dt * lead[:, :, None]
    return xy.reshape(len(t_last), 2 * cfg.t_f)


@functools.lru_cache(maxsize=None)
def _cumsum_matrix(t_f):
    """Read-only [2 t_f, 2 t_f] constant, one per t_f: out[:, 2t+c] = the sum
    of the (x, y) increments s <= t, coordinate c."""
    data = np.kron(np.triu(np.ones((t_f, t_f))), np.eye(2))
    data.flags.writeable = False
    return tg.Tensor(data)


class EncoderCache:
    """Constants derived from one graph for repeated forward passes, and the
    configuration's layer table, which `encode` runs.

    Per-track rows (`start`) are in agent_id order, the order of the graph's
    agent nodes; row i of the scene's tracks is row `track_rank[i]`.
    """

    def __init__(self, graph, cfg):
        self.graph = graph
        self.layers = encoder_layers(cfg)
        # keyed by call-site: the grouped GCNs' "map" and "agent", which
        # also hold a conv plan, and each attention relation on its own;
        # only the call-sites the encoder reads
        groups = _gcn_groups(cfg)
        read = {site for layer in self.layers for m in layer.merges for site in m.sites}
        self.relations = {
            site: _RelationCache(graph, [f"{site}.{s}.{site}" for s in groups[site]]
                                 if site in groups else [site], gcn=site in groups)
            for site in _CALL_SITES if site in read}
        self.agent_in = tg.Tensor(graph.agent_feats)
        self.map_in = tg.Tensor(graph.map_feats)
        if cfg.use_temporal:
            self.tau = tg.Tensor(temporal_encoding(graph.agent_step, cfg.f))
        else:
            self.tau = None
        self.cumsum = _cumsum_matrix(cfg.t_f)
        self.start = tg.Tensor(_start_positions(graph, cfg))
        self.track_rank = np.argsort(np.argsort(graph.readout_index))


def make_cache(graph, cfg):
    return EncoderCache(graph, cfg)


# --- building blocks --------------------------------------------------------

def _embed_block(x, params, prefix):
    return tg.linear_relu_norm(x, *(params[f"{prefix}.{name}"] for name in (
        "linear.weight", "linear.bias", "norm.gain", "norm.offset")))


def embed(cache, params, cfg):
    """Embed node and edge inputs to width f.

    Returns (agent_h, map_h, edge term per call-site); map_h is None when
    the map branch is disabled, edge embeddings are zero when relational
    features are disabled. The shared edge MLP runs once per call-site over
    its concatenated relations; an attention call-site takes the per-edge
    embeddings, a grouped GCN its edge term: per (target, relation) row,
    the coefficient-weighted sum of its in-edges' embeddings
    (`tg.segment_sum`). The term does not depend on the node states, so it
    is computed here once per forward and every layer of the call-site
    shares it. Each embedding MLP
    is one `tg.linear_relu_norm` record.
    """
    agent_h = _embed_block(cache.agent_in, params, "embed.agent")
    if cfg.use_temporal:
        agent_h = tg.matmul(tg.concat([agent_h, cache.tau], 1), params["embed.temporal.weight"])
    map_h = _embed_block(cache.map_in, params, "embed.map") if cfg.use_map else None

    groups = _gcn_groups(cfg)
    edge_h = {}
    for key, rel in cache.relations.items():
        if cfg.use_relational:
            e = _embed_block(rel.raw_edge, params, "embed.edge")
        else:
            e = tg.Tensor(np.zeros((rel.src.shape[0], cfg.f)))
        edge_h[key] = tg.segment_sum(e, rel.plan, rel.plan.n_rows) if key in groups else e
    return agent_h, map_h, edge_h


def gcn_edge_conv(h_src, rel, edge_agg, weight, bias):
    """Degree-normalized conv over a call-site's R relations: for each
    relation r, the sum over its in-edges of coeff * ((x_src + e) W_r), plus
    b_r every target receives, summed over r; weight is [R, f, f] and bias
    [R, f], index r for relation r.

    Evaluated as sum_e coeff * x_src per (target, relation) row, gathered
    slot by slot through the cache's plan, plus the call-site's edge term
    `edge_agg` (see `embed`), then one matmul of the [n_dst, R*f] aggregate
    with the weight read as [R*f, f], so the sum over relations runs inside
    the matmul. Degrees are counted per relation. One `tg.edge_conv`
    record, which scatters neither forward nor backward.
    """
    return tg.edge_conv(h_src, edge_agg, weight, bias, rel.plan)


def gatv2_conv(h_src, h_dst, rel, edge_h, params, prefix, cfg):
    """Multi-head attention conv with an implicit self edge per destination.

    Per head h: logits = LeakyReLU([x_dst | x_src | e] W3[:, h]) attn[:, h],
    softmax over {self} + in-edges, output alpha_self x_dst W1[:, h] +
    sum alpha_j x_j W2[:, h]; the self edge's input is [x_dst | x_dst | 0].
    In node-level form, W3's row blocks W3a, W3b, W3c act on their own
    inputs: edge pre-activations (x_dst W3a)[dst] + (x_src W3b)[src] + e W3c,
    self ones x_dst (W3a + W3b), values (x_src W2)[src]. All heads run in
    one `tg.edge_attention` record.
    """
    out, _ = tg.edge_attention(
        h_src, h_dst, edge_h, *(params[f"{prefix}.{w}"] for w in ("w1", "w2", "w3", "attn")),
        rel.plan, cfg.leaky_slope)
    return out


def layer_merge(updates, h_prev, params, prefix, cfg):
    """Sum the call-site updates, then ReLU, the residual h_prev (when
    `cfg.use_residual`) and LayerNorm, as one `tg.relu_norm` record."""
    total = updates[0]
    for u in updates[1:]:
        total = tg.add(total, u)
    return tg.relu_norm(total, params[f"{prefix}.gain"], params[f"{prefix}.offset"],
                        h_prev if cfg.use_residual else None)


# --- encoder ----------------------------------------------------------------

def _grouped_gcn(h, cache, edge_h, params, prefix, group):
    return gcn_edge_conv(h, cache.relations[group], edge_h[group],
                         params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def _map_stage_updates(map_h, cache, edge_h, params, prefix, cfg):
    """The lane relations' summed update, as one grouped conv."""
    return _grouped_gcn(map_h, cache, edge_h, params, prefix, "map")


def _agent_gcn_updates(agent_h, cache, edge_h, params, prefix):
    """The temporal pre/suc relations' summed update, as one grouped conv."""
    return _grouped_gcn(agent_h, cache, edge_h, params, prefix, "agent")


def _site_update(site, h, cache, edge_h, params, layer_prefix, cfg):
    """One call-site's update from the node states `h` before its layer."""
    prefix = _site_prefix(layer_prefix, site)
    if site == "map":
        return _map_stage_updates(h["map"], cache, edge_h, params, prefix, cfg)
    if site == "agent":
        return _agent_gcn_updates(h["agent"], cache, edge_h, params, prefix)
    src, dst = relation_endpoints(site)
    return gatv2_conv(h[src], h[dst], cache.relations[site], edge_h[site], params, prefix, cfg)


def encode(cache, params, cfg):
    """Run the cache's layers (`encoder_layers` of its configuration);
    returns one latent row per track, in agent_id order.

    The node states are in the graph's agent_id node layout throughout, and
    the readout nodes ascend with agent_id, so nothing here depends on the
    order of the scene's tracks.
    """
    agent_h, map_h, edge_h = embed(cache, params, cfg)
    h = {"agent": agent_h, "map": map_h}
    for layer in cache.layers:
        updates = [[_site_update(site, h, cache, edge_h, params, layer.prefix, cfg)
                    for site in merge.sites] for merge in layer.merges]
        h.update({merge.node: layer_merge(u, h[merge.node], params,
                                          f"{layer.prefix}.{merge.norm}", cfg)
                  for merge, u in zip(layer.merges, updates)})
    return tg.gather_rows(h["agent"], np.sort(cache.graph.readout_index))


# --- prediction head --------------------------------------------------------

@dataclass
class Prediction:
    """Multi-modal output per track. Trajectory step t is timestep t_obs + t;
    every mode starts from the track's constant-velocity start and adds its
    learned increments (see `predict_head`)."""
    trajectories: tg.Tensor   # [A, K, T_f, 2] positions in the scene frame
    scores: tg.Tensor         # [A, K], unnormalized


def _head_block(x, params, prefix):
    """Each mode k's l2(LayerNorm(ReLU(l1(x)) + x)) by index k of the prefix's
    [K, ...] parameters, as one [K, A, out] stack in 5 records; x is [K, A, n]
    or an [A, n] all share."""
    w1, b1, gain, offset, w2, b2 = (params[f"{prefix}.{name}"] for name in (
        "l1.weight", "l1.bias", "norm.gain", "norm.offset", "l2.weight", "l2.bias"))
    h = tg.relu_norm(tg.add(tg.matmul(x, w1), b1), gain, offset, x)
    return tg.add(tg.matmul(h, w2), b2)


def predict_head(latent, cache, params, cfg):
    """K independent regression and scoring MLPs over the agent latents,
    which `encode` returns in agent_id order; outputs are in scene order.

    Regression outputs are per-step increments, accumulated and added to
    each track's start: its last observed position moved on at its last
    observed velocity (the last position itself when the velocity fields
    are zero). An untrained head therefore predicts constant velocity and
    the modes learn residuals from it. Each mode's score sees the latent
    and that mode's trajectory.

    The modes run as [K, A, .] stacks of per-mode products, in 20 records for
    any K, over the tracks in agent_id order like the latent and
    `cache.start`; one gather per output puts mode k of track i at row i*K + k
    by `cache.track_rank`. A matmul's rounding can depend on a row's place in
    the BLAS row tiles, so this makes the outputs permute bitwise with the tracks.
    """
    n_agents, modes = latent.data.shape[0], cfg.modes
    deltas = _head_block(latent, params, "head.reg")
    traj = tg.add(tg.matmul(deltas, cache.cumsum), cache.start)
    score_in = tg.concat([tg.stack([latent] * modes), traj], 2)
    scores = _head_block(score_in, params, "head.score")
    order = (cache.track_rank[:, None] + n_agents * np.arange(modes)).reshape(-1)
    flat = tg.gather_rows(tg.reshape(traj, (modes * n_agents, 2 * cfg.t_f)), order)
    trajectories = tg.reshape(flat, (n_agents, modes, cfg.t_f, 2))
    scores = tg.reshape(tg.gather_rows(tg.reshape(scores, (modes * n_agents, 1)), order),
                        (n_agents, modes))
    return Prediction(trajectories=trajectories, scores=scores)


def forward(cache, params, cfg):
    return predict_head(encode(cache, params, cfg), cache, params, cfg)


# --- checkpoints ------------------------------------------------------------

def save_checkpoint(params, path):
    """Magic token, then per parameter (lexicographic): path, rank, extents,
    raw little-endian float64 values."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, t in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
            fh.write(t.data.astype("<f8").tobytes())


def _read_exact(fh, n, size, what):
    """n bytes from fh, or CheckpointError when the file ends first. The
    length is checked against the file size before reading, so a corrupt
    extent never asks for a huge buffer."""
    if fh.tell() + n > size:
        raise CheckpointError(f"truncated checkpoint: file ends inside {what}")
    return fh.read(n)


def _listed(paths, limit=5):
    """'<count> (first, ..., fifth, ...)' for a one-line error message."""
    shown = ", ".join(paths[:limit]) + (", ..." if len(paths) > limit else "")
    return f"{len(paths)} ({shown})" if paths else "0"


def load_checkpoint(path, cfg):
    """Read a checkpoint and verify it matches the configuration exactly;
    a parameter recorded twice is refused."""
    expected = expected_parameter_specs(cfg)
    tensors = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint header {magic!r}")
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, size, "a name length"))
            raw = _read_exact(fh, name_len, size, "a parameter name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"parameter name {raw[:32]!r} is not UTF-8") from exc
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, size, f"the rank of {name}"))
            shape = struct.unpack(
                f"<{rank}Q", _read_exact(fh, 8 * rank, size, f"the shape of {name}"))
            raw = _read_exact(fh, 8 * math.prod(shape), size, f"the values of {name}")
            if name in tensors:
                raise CheckpointError(f"parameter {name} appears twice in the checkpoint")
            try:  # an extent numpy cannot address, or a rank Tensor refuses
                data = np.frombuffer(raw, dtype="<f8").reshape(shape)
                tensors[name] = tg.Tensor(data.copy(), requires_grad=True)
            except ValueError as exc:
                raise CheckpointError(f"parameter {name}: impossible shape {shape}") from exc

    missing = sorted(set(expected) - set(tensors))
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match configuration; missing {_listed(missing)}, "
            f"extra {_listed(extra)}")
    for name, shape in expected.items():
        if tensors[name].data.shape != shape:
            raise CheckpointError(
                f"parameter {name}: shape {tensors[name].data.shape} != expected {shape}")
    return ModelParameters(tensors)
