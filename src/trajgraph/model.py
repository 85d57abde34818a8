"""The learnable network.

Pipeline per scene: per-type embedding MLPs (linear -> ReLU -> LayerNorm)
with a sinusoidal per-timestep encoding concatenated onto agent nodes, a
heterogeneous graph encoder, and K independent regression/scoring MLP pairs
producing multi-modal trajectories with unnormalized scores.

`encoder_layers` is the one description of the encoder's wiring: each
layer's call-sites, a degree-normalized graph conv over a group of
relations (`gcn_edge_conv`) or a GATv2-style attention conv over one
relation (`gatv2_conv`), and the merges that sum their updates
(`layer_merge`). Parameter specs, the per-graph relation cache and `encode`
are all read off it.
"""

import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor as tg
from .errors import CheckpointError, ConfigError
from .graph import REL_DRIVES_ON, REL_MERGE, REL_SOCIAL, REL_TRAFFIC_INFO, relation_endpoints

CHECKPOINT_MAGIC = b"HOLIGRAPH3"


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
_CALL_SITES = {"agent": None, REL_MERGE: None, REL_SOCIAL: "social", "map": None,
               REL_DRIVES_ON: "drives_on", REL_TRAFFIC_INFO: "traffic_info"}


def _gcn_groups(cfg):
    """Grouped GCN call-site -> its relations' shorts. Short s of group g is
    the graph relation "g.s.g", with weights rel.s under the layer prefix."""
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

    def linear(prefix, n_in, n_out):
        specs[f"{prefix}.weight"] = (n_in, n_out)
        specs[f"{prefix}.bias"] = (1, n_out)

    def norm(prefix, width=f):
        specs[f"{prefix}.gain"] = (width,)
        specs[f"{prefix}.offset"] = (width,)

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
                    for short in groups[site]:
                        linear(f"{prefix}.rel.{short}", f, f)
                else:
                    gat(prefix)
            norm(f"{layer.prefix}.{merge.norm}")

    out = 2 * cfg.t_f
    for k in range(cfg.modes):
        linear(f"head.reg.k{k}.l1", f, f)
        norm(f"head.reg.k{k}.norm")
        linear(f"head.reg.k{k}.l2", f, out)
        wide = f + out
        linear(f"head.score.k{k}.l1", wide, wide)
        norm(f"head.score.k{k}.norm", wide)
        linear(f"head.score.k{k}.l2", wide, 1)
    return specs


def init_parameters(cfg, seed):
    """Glorot-uniform weights, zero biases, unit gains; deterministic in seed.

    Head output layers start at exactly zero so every mode emits the same
    trajectory before the first update: each track's constant-velocity
    start (see `predict_head`). The winner-takes-all tie then resolves to
    the lowest mode index for every agent, which keeps early mode assignment
    coherent across agents instead of freezing in random per-agent winners.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    for path, shape in sorted(expected_parameter_specs(cfg).items()):
        leaf = path.rsplit(".", 1)[1]
        if leaf == "gain":
            data = np.ones(shape)
        elif leaf in ("offset", "bias"):
            data = np.zeros(shape)
        elif path.startswith("head.") and ".l2." in path:
            data = np.zeros(shape)
        else:
            fan_in, fan_out = shape[0], shape[-1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, size=shape)
        tensors[path] = tg.Tensor(data, requires_grad=True)
    return ModelParameters(tensors)


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
    """One call-site's relations, which share endpoint types, as one edge list.

    Edges and raw edge features are concatenated in the order of `names`;
    edge i of relation r targets row dst*R + r of the per-(target, relation)
    aggregate, and its coefficient uses degrees counted per relation.
    """

    def __init__(self, graph, names):
        src_type, dst_type = relation_endpoints(names[0])
        self.n_src = graph.n_agent_nodes if src_type == "agent" else graph.n_map_nodes
        self.n_dst = graph.n_agent_nodes if dst_type == "agent" else graph.n_map_nodes
        self.n_relations = r = len(names)
        self.shorts = [name.split(".")[1] for name in names]
        edges = np.concatenate([graph.edges[name] for name in names])
        kind = np.repeat(np.arange(r), [len(graph.edges[name]) for name in names])
        self.src = edges[:, 0].copy()
        self.dst = edges[:, 1].copy()
        self.targets = self.dst * r + kind
        sources = self.src * r + kind
        in_deg = np.bincount(self.targets, minlength=self.n_dst * r)
        out_deg = np.bincount(sources, minlength=self.n_src * r)
        # degree floored at one: a lone edge is passed through unscaled and
        # isolated endpoints never divide by zero
        deg_dst = np.maximum(in_deg, 1).astype(np.float64)
        deg_src = np.maximum(out_deg, 1).astype(np.float64)
        coeff = 1.0 / np.sqrt(deg_dst[self.targets] * deg_src[sources])
        self.coeff = tg.Tensor(coeff.reshape(-1, 1))
        self.raw_edge = tg.Tensor(np.concatenate([graph.edge_feats[name] for name in names]))
        self.ext_targets = np.concatenate([self.dst, np.arange(self.n_dst, dtype=np.int64)])


def _start_positions(graph, cfg):
    """[n_tracks, 2*t_f] constant the head's increments are added to.

    Future step t (0-based, timestep t_obs + t) of each track starts at its
    last observed position moved on at its last observed velocity:
    p_last + v_last * dt * (t_obs - t_last + t), t_last being the readout
    node's timestep. Tracks with zero velocity fields stay at p_last.
    """
    last = graph.agent_feats[graph.readout_index]
    t_last = graph.agent_step[graph.readout_index].astype(np.float64)
    lead = cfg.t_obs - t_last[:, None] + np.arange(cfg.t_f, dtype=np.float64)
    xy = last[:, None, 0:2] + last[:, None, 2:4] * graph.dt * lead[:, :, None]
    return xy.reshape(len(t_last), 2 * cfg.t_f)


class EncoderCache:
    """Constants derived from one graph for repeated forward passes."""

    def __init__(self, graph, cfg):
        self.graph = graph
        # keyed by call-site: the grouped GCNs' "map" and "agent", and each
        # attention relation on its own; only the call-sites the encoder reads
        groups = _gcn_groups(cfg)
        read = {site for layer in encoder_layers(cfg) for m in layer.merges for site in m.sites}
        self.relations = {
            site: _RelationCache(graph, [f"{site}.{s}.{site}" for s in groups[site]]
                                 if site in groups else [site])
            for site in _CALL_SITES if site in read}
        self.agent_in = tg.Tensor(graph.agent_feats)
        self.map_in = tg.Tensor(graph.map_feats)
        if cfg.use_temporal:
            self.tau = tg.Tensor(temporal_encoding(graph.agent_step, cfg.f))
        else:
            self.tau = None
        # out[:, 2t+c] = sum of the (x, y) increments s <= t, coordinate c
        self.cumsum = tg.Tensor(np.kron(np.triu(np.ones((cfg.t_f, cfg.t_f))), np.eye(2)))
        self.start = tg.Tensor(_start_positions(graph, cfg))


def make_cache(graph, cfg):
    return EncoderCache(graph, cfg)


# --- building blocks --------------------------------------------------------

def _embed_block(x, params, prefix):
    h = tg.relu(tg.add(tg.matmul(x, params[f"{prefix}.linear.weight"]),
                       params[f"{prefix}.linear.bias"]))
    return tg.layer_norm(h, params[f"{prefix}.norm.gain"], params[f"{prefix}.norm.offset"])


def embed(cache, params, cfg):
    """Embed node and edge inputs to width f.

    Returns (agent_h, map_h, edge_h per call-site); map_h is None when the
    map branch is disabled, edge embeddings are zero when relational
    features are disabled. The shared edge MLP runs once per call-site over
    its concatenated relations.
    """
    agent_h = _embed_block(cache.agent_in, params, "embed.agent")
    if cfg.use_temporal:
        agent_h = tg.matmul(tg.concat([agent_h, cache.tau], 1), params["embed.temporal.weight"])
    map_h = _embed_block(cache.map_in, params, "embed.map") if cfg.use_map else None

    edge_h = {}
    for key, rel in cache.relations.items():
        if cfg.use_relational:
            edge_h[key] = _embed_block(rel.raw_edge, params, "embed.edge")
        else:
            edge_h[key] = tg.Tensor(np.zeros((rel.src.shape[0], cfg.f)))
    return agent_h, map_h, edge_h


def gcn_edge_conv(h_src, rel, edge_h, weights, biases):
    """Degree-normalized conv over a call-site's R relations: for each
    relation r, the sum over its in-edges of coeff * ((x_src + e) W_r), plus
    b_r every target receives, summed over r.

    Evaluated as sum_e coeff * (x_src + e) per (target, relation) row, each
    row summed in ascending edge order, then one matmul of the [n_dst, R*f]
    aggregate with the stacked [R*f, f] weights, so the sum over relations
    runs inside the matmul. Degrees are counted per relation.
    """
    r, f = rel.n_relations, h_src.data.shape[1]
    msg = tg.scale_rows(tg.add(tg.gather_rows(h_src, rel.src), edge_h), rel.coeff)
    agg = tg.segment_sum(msg, rel.targets, rel.n_dst * r)
    # explicit width: n_dst is 0 in a scene without map segments
    out = tg.matmul(tg.reshape(agg, (rel.n_dst, r * f)), tg.concat(weights, 0))
    bias = tg.matmul(tg.Tensor(np.ones((1, r))), tg.concat(biases, 0))
    return tg.add(out, bias)


def gatv2_conv(h_src, h_dst, rel, edge_h, params, prefix, cfg, return_attention=False):
    """Multi-head attention conv with an implicit self edge per destination.

    Per head h: logits = LeakyReLU([x_dst | x_src | e] W3[:, h]) attn[:, h],
    softmax over {self} + in-edges, output alpha_self x_dst W1[:, h] +
    sum alpha_j x_j W2[:, h]; the self edge's input is [x_dst | x_dst | 0].
    In node-level form, W3's row blocks W3a, W3b, W3c act on their own
    inputs: edge pre-activations (x_dst W3a)[dst] + (x_src W3b)[src] + e W3c,
    self ones x_dst (W3a + W3b), values (x_src W2)[src]. All heads run in
    one `tg.edge_attention` record. With return_attention, also returns the
    [in-edges + destinations, heads] weights.
    """
    out, alpha = tg.edge_attention(
        h_src, h_dst, edge_h, *(params[f"{prefix}.{w}"] for w in ("w1", "w2", "w3", "attn")),
        rel.src, rel.dst, rel.ext_targets, cfg.leaky_slope)
    if return_attention:
        return out, alpha.copy()
    return out


def layer_merge(updates, h_prev, params, prefix, cfg):
    """Sum the call-site updates, ReLU, optional residual, LayerNorm."""
    total = updates[0]
    for u in updates[1:]:
        total = tg.add(total, u)
    activated = tg.relu(total)
    if cfg.use_residual:
        activated = tg.add(activated, h_prev)
    return tg.layer_norm(activated, params[f"{prefix}.gain"], params[f"{prefix}.offset"])


# --- encoder ----------------------------------------------------------------

def _grouped_gcn(h, cache, edge_h, params, layer_prefix, group):
    rel = cache.relations[group]
    weights = [params[f"{layer_prefix}.rel.{short}.weight"] for short in rel.shorts]
    biases = [params[f"{layer_prefix}.rel.{short}.bias"] for short in rel.shorts]
    return gcn_edge_conv(h, rel, edge_h[group], weights, biases)


def _map_stage_updates(map_h, cache, edge_h, params, layer_prefix, cfg):
    """The lane relations' summed update, as one grouped conv."""
    return _grouped_gcn(map_h, cache, edge_h, params, layer_prefix, "map")


def _agent_gcn_updates(agent_h, cache, edge_h, params, layer_prefix):
    """The temporal pre/suc relations' summed update, as one grouped conv."""
    return _grouped_gcn(agent_h, cache, edge_h, params, layer_prefix, "agent")


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
    """Run the layers of `encoder_layers`; returns one latent row per track."""
    agent_h, map_h, edge_h = embed(cache, params, cfg)
    h = {"agent": agent_h, "map": map_h}
    for layer in encoder_layers(cfg):
        updates = [[_site_update(site, h, cache, edge_h, params, layer.prefix, cfg)
                    for site in merge.sites] for merge in layer.merges]
        h.update({merge.node: layer_merge(u, h[merge.node], params,
                                          f"{layer.prefix}.{merge.norm}", cfg)
                  for merge, u in zip(layer.merges, updates)})
    return tg.gather_rows(h["agent"], cache.graph.readout_index)


# --- prediction head --------------------------------------------------------

@dataclass
class Prediction:
    """Multi-modal output per track. Trajectory step t is timestep t_obs + t;
    every mode starts from the track's constant-velocity start and adds its
    learned increments (see `predict_head`)."""
    trajectories: tg.Tensor   # [A, K, T_f, 2] positions in the scene frame
    scores: tg.Tensor         # [A, K], unnormalized


def _head_block(x, params, prefix):
    h = tg.relu(tg.add(tg.matmul(x, params[f"{prefix}.l1.weight"]),
                       params[f"{prefix}.l1.bias"]))
    h = tg.layer_norm(tg.add(h, x), params[f"{prefix}.norm.gain"],
                      params[f"{prefix}.norm.offset"])
    return tg.add(tg.matmul(h, params[f"{prefix}.l2.weight"]), params[f"{prefix}.l2.bias"])


def predict_head(latent, cache, params, cfg):
    """K independent regression and scoring MLPs over the agent latents.

    Regression outputs are per-step increments, accumulated and added to
    each track's start: its last observed position moved on at its last
    observed velocity (the last position itself when the velocity fields
    are zero). An untrained head therefore predicts constant velocity and
    the modes learn residuals from it. Each mode's score sees the latent
    and that mode's trajectory.
    """
    n_agents = latent.data.shape[0]
    traj_parts, score_parts = [], []
    for k in range(cfg.modes):
        deltas = _head_block(latent, params, f"head.reg.k{k}")
        traj = tg.add(tg.matmul(deltas, cache.cumsum), cache.start)
        traj_parts.append(traj)
        score_in = tg.concat([latent, traj], 1)
        score_parts.append(_head_block(score_in, params, f"head.score.k{k}"))
    flat = tg.concat(traj_parts, 1)
    trajectories = tg.reshape(flat, (n_agents, cfg.modes, cfg.t_f, 2))
    scores = tg.concat(score_parts, 1)
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
    """Read a checkpoint and verify it matches the configuration exactly."""
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
