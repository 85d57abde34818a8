"""Independent reference implementations used to check the real code.

Everything here is deliberately brute force (finite differences, exhaustive
enumeration, dense matrix powers) and shares no code with the package
internals it verifies. The relation list, graph dump and node-position
helpers at the end serve the graph tests.
"""

import json
import math

import numpy as np


def numeric_gradient(f, tensors, step=1e-6):
    """Central finite differences of the scalar ``f()`` w.r.t. each tensor.

    ``f`` must recompute the forward value from the tensors' current data.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def grad_rel_error(analytic, numeric):
    """‖a − n‖ / (‖a‖ + ‖n‖), robust near zero gradients."""
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def relu_layer_norm(z, gain, offset, residual=None, eps=1e-5):
    """LayerNorm over the feature axis of relu(z) + residual, then gain and
    offset, in plain numpy one step at a time."""
    a = np.maximum(z, 0.0)
    if residual is not None:
        a = a + residual
    xc = a - a.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + eps)
    return xc * inv * gain.reshape(1, -1) + offset.reshape(1, -1)


def brute_force_metrics(traj, gt, mask, threshold=2.0):
    """All six displacement metrics via explicit loops over modes/agents/steps.

    traj: [A,K,T,2]; gt: [A,T,2]; mask: length-A booleans. Returns a dict.
    Joint variants pick one mode index for the whole scene.
    """
    traj = np.asarray(traj, dtype=float)
    gt = np.asarray(gt, dtype=float)
    agents = [a for a in range(traj.shape[0]) if mask[a]]
    n_modes = traj.shape[1]
    n_steps = traj.shape[2]

    min_ade_terms, min_fde_terms, misses = [], [], []
    for a in agents:
        ades, fdes = [], []
        for k in range(n_modes):
            dists = [np.linalg.norm(traj[a, k, t] - gt[a, t]) for t in range(n_steps)]
            ades.append(np.mean(dists))
            fdes.append(dists[-1])
        min_ade_terms.append(min(ades))
        min_fde_terms.append(min(fdes))
        misses.append(1.0 if min(fdes) > threshold else 0.0)

    jade_per_mode, jfde_per_mode = [], []
    for k in range(n_modes):
        ade_sum, fde_sum = 0.0, 0.0
        for a in agents:
            dists = [np.linalg.norm(traj[a, k, t] - gt[a, t]) for t in range(n_steps)]
            ade_sum += np.mean(dists)
            fde_sum += dists[-1]
        jade_per_mode.append(ade_sum / len(agents))
        jfde_per_mode.append(fde_sum / len(agents))
    k_joint = int(np.argmin(jfde_per_mode))
    joint_misses = [
        1.0 if np.linalg.norm(traj[a, k_joint, -1] - gt[a, -1]) > threshold else 0.0
        for a in agents
    ]
    return {
        "minADE": float(np.mean(min_ade_terms)),
        "minFDE": float(np.mean(min_fde_terms)),
        "minMR": float(np.mean(misses)),
        "minJADE": float(min(jade_per_mode)),
        "minJFDE": float(min(jfde_per_mode)),
        "minJMR": float(np.mean(joint_misses)),
    }


def social_edges_by_enumeration(track_steps):
    """Expected social edges: for every ordered pair of distinct tracks,
    an edge into each target node from the source track's nodes at the
    previous, same and next timestep, when observed.

    track_steps: list of sorted timestep lists, one per track.
    Returns a set of ((src_track, src_t), (dst_track, dst_t)) pairs.
    """
    edges = set()
    for dst_track, dst_ts in enumerate(track_steps):
        for src_track, src_ts in enumerate(track_steps):
            if src_track == dst_track:
                continue
            observed = set(src_ts)
            for t in dst_ts:
                for dt in (-1, 0, 1):
                    if t + dt in observed:
                        edges.add(((src_track, t + dt), (dst_track, t)))
    return edges


def dilated_edges_by_matrix_power(base_pairs, n_nodes, order):
    """Edges reachable by exactly ``order`` hops of the base relation,
    via dense boolean matrix powers; self loops excluded."""
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for s, d in base_pairs:
        adj[s, d] = True
    power = adj.copy()
    for _ in range(order - 1):
        power = power.astype(np.int64) @ adj.astype(np.int64) > 0
    return {(s, d) for s, d in zip(*np.nonzero(power)) if s != d}


def lane_links_by_scan(feats):
    """Base lane links by scanning every ordered pair of [N, 4] chord rows
    (x, y, dx, dy): (i, j) when chord i ends within 1e-6 m of where chord j
    starts."""
    pairs = set()
    rows = feats.tolist()
    for i, (x, y, dx, dy) in enumerate(rows):
        ax, ay = x + dx / 2, y + dy / 2
        for j, (bx, by, bdx, bdy) in enumerate(rows):
            if i == j:
                continue
            if math.hypot(ax - (bx - bdx / 2), ay - (by - bdy / 2)) <= 1e-6:
                pairs.add((i, j))
    return pairs


def segment_keys(scene):
    """(lane_id, index along the lane) of every segment of a scene."""
    return [(scene.lanes[lane].lane_id, index)
            for lane, index in zip(scene.segments.lane.tolist(), scene.segments.index.tolist())]


def neighbour_edges_by_scan(scene):
    """(left, right) sets of (neighbour, segment) pairs: a segment links to
    the segment at its own index on its lane's left or right lane."""
    lanes = {lane.lane_id: lane for lane in scene.lanes}
    keys = segment_keys(scene)
    node_of = {key: j for j, key in enumerate(keys)}
    left, right = set(), set()
    for j, (lane_id, index) in enumerate(keys):
        lane = lanes[lane_id]
        for token, bucket in ((lane.left_lane_id, left), (lane.right_lane_id, right)):
            if token is not None and (token, index) in node_of:
                bucket.add((node_of[(token, index)], j))
    return left, right


def fusion_edges_by_scan(agent_xy, agent_speed, map_xy, t_th, d_min):
    """Brute-force distance scan for the velocity-gated fusion edges.

    Returns (drives_on, traffic_info) sets of (agent_node, map_node) pairs.
    """
    drives_on, traffic_info = set(), set()
    for i in range(len(agent_xy)):
        d_th = max(agent_speed[i] * t_th, d_min)
        for j in range(len(map_xy)):
            dx = agent_xy[i][0] - map_xy[j][0]
            dy = agent_xy[i][1] - map_xy[j][1]
            if (dx * dx + dy * dy) ** 0.5 <= d_th:
                drives_on.add((i, j))
                traffic_info.add((j, i))
    return drives_on, traffic_info


def polyline_arc_length(points):
    """Arc length by explicit piecewise summation (reference for resampling)."""
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for i in range(len(pts) - 1):
        total += float(np.linalg.norm(pts[i + 1] - pts[i]))
    return total


def segment_centerline_by_loop(polyline, target_len):
    """Chord cutting one cut point at a time, as a Python loop over arc
    length (reference for the array code). Returns one
    (x, y, dx, dy, index_in_lane) tuple per chord, or None for a polyline the
    real code must reject."""
    pts = np.asarray(polyline, dtype=np.float64)
    if len(pts) < 2 or target_len <= 0:
        return None
    deltas = np.diff(pts, axis=0)
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(cumulative[-1])
    if total <= 0.0 or total > 10_000 * target_len:
        return None

    def point_at(s):
        i = int(np.searchsorted(cumulative, s, side="right")) - 1
        i = min(max(i, 0), len(lengths) - 1)
        if lengths[i] == 0.0:
            return pts[i]
        frac = (s - cumulative[i]) / lengths[i]
        return pts[i] + frac * deltas[i]

    cut_points = [pts[0]]
    s = target_len
    while s < total - 1e-9:
        cut_points.append(point_at(s))
        s += target_len
    cut_points.append(pts[-1])
    return [(float((a[0] + b[0]) / 2.0), float((a[1] + b[1]) / 2.0),
             float(b[0] - a[0]), float(b[1] - a[1]), idx)
            for idx, (a, b) in enumerate(zip(cut_points, cut_points[1:]))]


def gatv2_per_head(h_src, h_dst, src, dst, edge_h, w1, w2, w3, attn, slope):
    """GATv2 head by head, destination by destination, from the slices
    w[:, h, :] of stacked [n_in, heads, dh] weights (attn is [1, heads, dh]).

    Each destination attends over an implicit self edge (input
    [x_dst | x_dst | 0], value x_dst W1) and its in-edges (input
    [x_dst | x_src | e], value x_src W2); head outputs are concatenated.
    """
    heads = w1.shape[1]
    out = np.zeros((h_dst.shape[0], heads * w1.shape[2]))
    for h in range(heads):
        cols = slice(h * w1.shape[2], (h + 1) * w1.shape[2])
        for d in range(h_dst.shape[0]):
            inputs = [np.concatenate([h_dst[d], h_dst[d], np.zeros(edge_h.shape[1])])]
            values = [h_dst[d] @ w1[:, h, :]]
            for e in np.flatnonzero(np.asarray(dst) == d):
                inputs.append(np.concatenate([h_dst[d], h_src[src[e]], edge_h[e]]))
                values.append(h_src[src[e]] @ w2[:, h, :])
            z = np.array(inputs) @ w3[:, h, :]
            logits = np.where(z > 0, z, slope * z) @ attn[0, h, :]
            weights = np.exp(logits - logits.max())
            out[d, cols] = (weights / weights.sum()) @ np.array(values)
    return out


def _sums_in_row_order(rows, idx, n):
    """Group sums of rows, each group added from zero in ascending row order."""
    out = np.zeros((n, rows.shape[1]))
    for r, i in enumerate(idx):
        out[i] += rows[r]
    return out


def gatv2_composite(h_src, h_dst, src, dst, edge_h, w1, w2, w3, attn, slope):
    """GATv2 over all heads at once, as a chain of single numpy steps whose
    arithmetic order the model's attention must match bitwise: node-level
    projections gathered per edge, (x_dst W3a)[dst] + (x_src W3b)[src] then
    + e W3c, self rows x_dst (W3a + W3b), the two-branch LeakyReLU, a
    block-diagonal logits matmul, a max-shifted softmax per destination and
    the alpha-weighted sum of values, group sums in ascending row order.
    Rows are the in-edges, then one self edge per destination. Returns
    (out, alpha).
    """
    n_in, heads, dh = w1.shape
    f = heads * dh
    n_dst = h_dst.shape[0]
    ext = np.concatenate([dst, np.arange(n_dst)])
    w3a, w3b, w3c = (w3.reshape(3 * n_in, f)[b * n_in:(b + 1) * n_in] for b in range(3))
    attn_mat = np.repeat(np.eye(heads), dh, axis=0) * attn.reshape(f, 1)
    pre = np.concatenate([((h_dst @ w3a)[dst] + (h_src @ w3b)[src]) + edge_h @ w3c,
                          h_dst @ (w3a + w3b)])
    logits = np.where(pre > 0, pre, slope * pre) @ attn_mat
    group_max = np.full((n_dst, heads), -np.inf)
    for r, i in enumerate(ext):
        group_max[i] = np.maximum(group_max[i], logits[r])
    expd = np.exp(logits - group_max[ext])
    alpha = expd / _sums_in_row_order(expd, ext, n_dst)[ext]
    values = np.concatenate([(h_src @ w2.reshape(n_in, f))[src], h_dst @ w1.reshape(n_in, f)])
    weighted = (values.reshape(-1, heads, dh) * alpha[:, :, None]).reshape(-1, f)
    return _sums_in_row_order(weighted, ext, n_dst), alpha


def gcn_per_relation(h_src, n_dst, relations, weights, biases):
    """Degree-normalized graph conv one relation at a time, edge by edge.

    relations: per relation a (src, dst, edge_h) triple. Each relation
    counts its own degrees (floored at one); message s -> d is
    (x_s + e) W_r / sqrt(in_deg_r(d) * out_deg_r(s)), and every target
    receives b_r once per relation.
    """
    out = np.zeros((n_dst, weights[0].shape[1]))
    for (src, dst, edge_h), w, b in zip(relations, weights, biases):
        in_deg = {d: max(list(dst).count(d), 1) for d in range(n_dst)}
        out_deg = {s: max(list(src).count(s), 1) for s in range(h_src.shape[0])}
        for s, d, e in zip(src, dst, edge_h):
            out[d] += (h_src[s] + e) @ w / math.sqrt(in_deg[d] * out_deg[s])
        out += b.reshape(-1)
    return out


def head_by_modes(latent, start, cumsum, track_rank, params, modes):
    """The K-mode head one mode at a time. Mode k's regression block
    l2(LayerNorm(ReLU(l1(x)) + x)) maps the [A, f] latent to increments
    that the cumsum matrix accumulates onto each track's start, and its
    score block maps [latent, trajectory]. Rows are in agent_id order, as
    ``encode`` returns them; the outputs are gathered to scene order by
    track_rank. params maps each head parameter path to its [K, ...] array,
    whose slice k is mode k's. Returns the [A, K, t_f, 2] trajectories and
    the [A, K] scores."""
    def block(x, prefix, k):
        def get(name):
            return params[f"{prefix}.{name}"][k]
        z = x @ get("l1.weight") + get("l1.bias")
        h = relu_layer_norm(z, get("norm.gain"), get("norm.offset"), x)
        return h @ get("l2.weight") + get("l2.bias")

    trajs, scores = [], []
    for k in range(modes):
        traj = block(latent, "head.reg", k) @ cumsum + start
        trajs.append(traj)
        scores.append(block(np.concatenate([latent, traj], axis=1), "head.score", k))
    n_agents, width = start.shape
    trajectories = np.stack(trajs, axis=1)[track_rank].reshape(n_agents, modes, width // 2, 2)
    return trajectories, np.concatenate(scores, axis=1)[track_rank]


def holigraph3_init(cfg, seed):
    """Initial parameters in the HOLIGRAPH3 layout, which kept each GCN
    relation's and each head mode's weights as parameters of their own:
    path -> array, the paths spelled out from the model configuration.
    Weights are Glorot-uniform over their first and last axes, drawn in
    sorted path order; biases and offsets are zero, gains one, and the head
    output layers zero."""
    f, dh, out = cfg.f, cfg.f // cfg.heads, 2 * cfg.t_f
    shapes = {}

    def linear(prefix, n_in, n_out):
        shapes[f"{prefix}.weight"], shapes[f"{prefix}.bias"] = (n_in, n_out), (1, n_out)

    def norm(prefix, width=f):
        shapes[f"{prefix}.gain"] = shapes[f"{prefix}.offset"] = (width,)

    def gcn(layer, shorts):
        for short in shorts:
            linear(f"{layer}.rel.{short}", f, f)

    def gat(prefix):
        for name, n_in in (("w1", f), ("w2", f), ("w3", 3 * f), ("attn", 1)):
            shapes[f"{prefix}.{name}"] = (n_in, cfg.heads, dh)

    map_shorts = ([f"pre-{i}" for i in range(1, cfg.dilation + 1)]
                  + [f"suc-{i}" for i in range(1, cfg.dilation + 1)] + ["left", "right"])
    linear("embed.agent.linear", 5, f)
    norm("embed.agent.norm")
    if cfg.use_temporal:
        shapes["embed.temporal.weight"] = (2 * f, f)
    if cfg.use_map:
        linear("embed.map.linear", 4, f)
        norm("embed.map.norm")
    if cfg.use_relational:
        linear("embed.edge.linear", 2, f)
        norm("embed.edge.norm")
    n_map, n_fusion = (cfg.n_map_layers, cfg.n_fusion_layers) if cfg.use_map else (0, 0)
    for layer in range(n_map):
        gcn(f"map_layer.{layer}", map_shorts)
        norm(f"map_layer.{layer}.norm")
    for layer in range(cfg.t_obs):
        gcn(f"agent_layer.{layer}", ("pre", "suc"))
        norm(f"agent_layer.{layer}.norm")
        if cfg.use_social and layer >= cfg.t_obs - 2:
            gat(f"agent_layer.{layer}.social")
    for layer in range(n_fusion):
        prefix = f"fusion_layer.{layer}"
        gcn(prefix, ("pre", "suc"))
        gat(f"{prefix}.traffic_info")
        norm(f"{prefix}.agent_norm")
        if cfg.use_social:
            gat(f"{prefix}.social")
        if layer < n_fusion - 1:
            gcn(prefix, map_shorts)
            gat(f"{prefix}.drives_on")
            norm(f"{prefix}.map_norm")
    gat("merge")
    norm("merge.norm")
    for k in range(cfg.modes):
        for kind, width, n_out in (("reg", f, out), ("score", f + out, 1)):
            linear(f"head.{kind}.k{k}.l1", width, width)
            norm(f"head.{kind}.k{k}.norm", width)
            linear(f"head.{kind}.k{k}.l2", width, n_out)

    rng = np.random.default_rng(seed)
    values = {}
    for path in sorted(shapes):
        shape, leaf = shapes[path], path.rsplit(".", 1)[1]
        if leaf == "gain":
            values[path] = np.ones(shape)
        elif leaf in ("bias", "offset") or (path.startswith("head.") and ".l2." in path):
            values[path] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
            values[path] = rng.uniform(-limit, limit, size=shape)
    return values


def relation_names(dilation):
    """Every relation name of a graph built at this dilation, spelled out."""
    return (["agent.pre.agent", "agent.suc.agent", "agent.social.agent", "agent.merge.agent"]
            + [f"map.pre-{i}.map" for i in range(1, dilation + 1)]
            + [f"map.suc-{i}.map" for i in range(1, dilation + 1)]
            + ["map.left.map", "map.right.map", "agent.drives-on.map",
               "map.gives-traffic-info.agent"])


def node_position(graph, node_type, index):
    """(x, y) of an agent or map node of a built graph."""
    feats = graph.agent_feats if node_type == "agent" else graph.map_feats
    return feats[index, 0], feats[index, 1]


def dump_graph(graph):
    """Text dump of per-relation edge lists, for golden-file comparisons."""
    payload = {
        "agent_nodes": graph.n_agent_nodes,
        "map_nodes": graph.n_map_nodes,
        "relations": {name: graph.edges[name].tolist() for name in sorted(graph.edges)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)
