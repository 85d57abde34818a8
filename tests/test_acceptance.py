"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The overfit and context-ordering runs train real models and take a few
minutes total; everything else completes in seconds.
"""

import time

import numpy as np

from trajgraph import tensor as tg
from trajgraph.cli import main as cli_main
from trajgraph.config import RunConfig, save_config
from trajgraph.graph import GraphConfig, build_graph, map_pre_relation, map_suc_relation
from trajgraph.losses import LossConfig, regression_loss, supervision_mask, total_loss, winner_modes
from trajgraph.metrics import compute_metrics
from trajgraph.model import (
    ModelConfig, forward, init_parameters, load_checkpoint, make_cache,
    save_checkpoint,
)
from trajgraph.optim import OptimConfig
from trajgraph.scene import AgentState, AgentTrack, Lane, normalize_scene
from trajgraph.synthetic import SyntheticSpec, generate_synthetic
from trajgraph.train import evaluate_samples, prepare_samples, train

from helpers import make_scene, straight_lane, straight_track
from oracles import (
    brute_force_metrics, dilated_edges_by_matrix_power, fusion_edges_by_scan,
    grad_rel_error, lane_links_by_scan, neighbour_edges_by_scan, node_position,
    numeric_gradient, relation_names, social_edges_by_enumeration,
)
from test_tensor import _CONV_PLAN, _conv_inputs

OP_TOL = 1e-5
E2E_TOL = 1e-4
ENTRIES_PER_PARAM = 3

OVERFIT_STEP_LIMIT = 2000
OVERFIT_TIME_LIMIT = 900.0          # seconds
OVERFIT_OPTIM = OptimConfig(lr0=2e-3, decay_factor=0.5, decay_period=400,
                            batch_size=8, epochs=OVERFIT_STEP_LIMIT,
                            weight_decay=0.0005)

CONTEXT_SEEDS = (101, 202, 303)
CONTEXT_EPOCHS = 120


def criterion(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def checked(build, tensors, tol):
    """Max rel error between tape gradients and central finite differences."""
    for t in tensors:
        t.zero_grad()
    with tg.Tape() as tape:
        out = build()
    tape.backward(out)
    numeric = numeric_gradient(lambda: build().item(), tensors)
    worst = 0.0
    for t, num in zip(tensors, numeric):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, grad_rel_error(analytic, num))
    return worst


def test_criterion_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0

    def track(err):
        nonlocal worst
        worst = max(worst, err)
        assert err < OP_TOL, err

    # one finite-difference check per differentiable operation
    a = tg.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = tg.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    mix = tg.Tensor(rng.normal(size=(3, 2)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.matmul(a, b), mix)), [a, b], OP_TOL))

    x = tg.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    y = tg.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    bias = tg.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    w = tg.Tensor(rng.normal(size=(5, 4)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.add(x, y), w)), [x, y], OP_TOL))
    track(checked(lambda: tg.sum_all(tg.mul(tg.sub(x, y), w)), [x, y], OP_TOL))
    track(checked(lambda: tg.sum_all(tg.mul(tg.mul(x, y), w)), [x, y], OP_TOL))
    track(checked(lambda: tg.sum_all(tg.mul(tg.add(x, bias), w)), [x, bias], OP_TOL))
    track(checked(lambda: tg.sum_all(tg.mul(tg.scale(x, 1.7), w)), [x], OP_TOL))

    k = tg.Tensor(rng.normal(size=(5, 1)), requires_grad=True)
    track(checked(lambda: tg.sum_all(tg.mul(tg.mul(x, k), w)), [x, k], OP_TOL))

    safe = rng.normal(size=(4, 6))
    safe[np.abs(safe) < 1e-3] += 0.05  # keep clear of activation kinks
    act = tg.Tensor(safe, requires_grad=True)
    wa = tg.Tensor(rng.normal(size=(4, 6)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.relu(act), wa)), [act], OP_TOL))

    gain = tg.Tensor(rng.normal(size=6), requires_grad=True)
    offset = tg.Tensor(rng.normal(size=6), requires_grad=True)
    # the residual from its own generator, so that the checks below keep
    # their inputs
    res = tg.Tensor(np.random.default_rng(2028).normal(size=(4, 6)), requires_grad=True)
    track(checked(lambda: tg.sum_all(tg.mul(tg.relu_norm(act, gain, offset, res), wa)),
                  [act, gain, offset, res], OP_TOL))

    msgs = tg.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    targets = rng.integers(0, 3, size=7)
    wm = tg.Tensor(rng.normal(size=(3, 3)))
    # coefficients from their own generator, so that the checks below keep
    # their inputs
    plan = tg.ConvPlan(targets, np.zeros(7, dtype=np.int64),
                       np.random.default_rng(2027).choice([1.0, 0.5, -1.5], size=7), 3, 1)
    track(checked(lambda: tg.sum_all(tg.mul(tg.segment_sum(msgs, plan, 3), wm)), [msgs], OP_TOL))

    # attention conv: 4 sources, 3 destinations (the last without in-edges),
    # 5 edges, 2 heads of width 2
    att = [tg.Tensor(rng.normal(size=s), requires_grad=True)
           for s in ((4, 4), (3, 4), (5, 4), (4, 2, 2), (4, 2, 2), (12, 2, 2), (1, 2, 2))]
    a_src, a_dst = np.array([1, 3, 0, 2, 3]), np.array([0, 0, 1, 1, 1])
    a_plan = tg.AttentionPlan(a_src, a_dst, 4, 3)
    wat = tg.Tensor(rng.normal(size=(3, 4)))
    track(checked(lambda: tg.sum_all(tg.mul(
        tg.edge_attention(*att, a_plan, 0.2)[0], wat)), att, OP_TOL))

    # graph conv through a plan, with its own generator so that the checks
    # below keep their inputs
    x_c, agg_c, w_c, b_c = _conv_inputs(np.random.default_rng(2025))
    wcv = tg.Tensor(np.random.default_rng(2026).normal(size=(2, 5)))
    track(checked(lambda: tg.sum_all(tg.mul(
        tg.edge_conv(x_c, agg_c, w_c, b_c, _CONV_PLAN), wcv)), [x_c, agg_c, w_c, b_c], OP_TOL))

    idx = rng.integers(0, 5, size=6)
    wg = tg.Tensor(rng.normal(size=(6, 4)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.gather_rows(x, idx), wg)), [x], OP_TOL))
    wc = tg.Tensor(rng.normal(size=(5, 8)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.concat([x, y], 1), wc)), [x, y], OP_TOL))
    wr = tg.Tensor(rng.normal(size=(10, 4)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.concat([x, y], 0), wr)), [x, y], OP_TOL))
    wrs = tg.Tensor(rng.normal(size=(2, 10)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.reshape(x, (2, 10)), wrs)), [x], OP_TOL))
    track(checked(lambda: tg.sum_all(x), [x], OP_TOL))

    # a stack, and a rank-3 matmul with a shared rank-2 operand and without,
    # from their own generator so that the checks above keep their inputs
    srng = np.random.default_rng(2029)
    p, q = (tg.Tensor(srng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
    ws = tg.Tensor(srng.normal(size=(2, 3, 4)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.stack([p, q]), ws)), [p, q], OP_TOL))
    a3, b3 = (tg.Tensor(srng.normal(size=s), requires_grad=True) for s in ((2, 3, 4), (2, 4, 5)))
    wm3 = tg.Tensor(srng.normal(size=(2, 3, 5)))
    track(checked(lambda: tg.sum_all(tg.mul(tg.matmul(a3, b3), wm3)), [a3, b3], OP_TOL))
    b2 = tg.Tensor(srng.normal(size=(4, 5)), requires_grad=True)
    track(checked(lambda: tg.sum_all(tg.mul(tg.matmul(a3, b2), wm3)), [a3, b2], OP_TOL))

    # end-to-end: 2 agents, t_obs 3, 6 map segments, f=8, heads=2, K=2
    cfg = ModelConfig(f=8, heads=2, modes=2, t_f=3, t_obs=3, dilation=2)
    lane = straight_lane("l0", 18.0, y=2.0, x0=-9.0)
    tracks = [straight_track("a0", x0=-4.0, vx=4.0, t_obs=3, t_f=3),
              straight_track("a1", x0=2.0, y0=4.0, vx=-4.0, t_obs=3, t_f=3)]
    scene = normalize_scene(make_scene(tracks, [lane], t_obs=3, t_f=3))
    graph = build_graph(scene, GraphConfig(dilation=2))
    assert graph.n_map_nodes == 6
    cache = make_cache(graph, cfg)
    params = init_parameters(cfg, seed=5)
    jitter = np.random.default_rng(6)
    for _, t in params.items():
        # move off the freshly initialized point: exact winner-mode ties
        # there make the piecewise loss non-differentiable
        t.data = t.data + jitter.normal(scale=0.05, size=t.data.shape)
    gt, mask = supervision_mask(scene, True)
    loss_cfg = LossConfig()

    def loss_value():
        pred = forward(cache, params, cfg)
        loss, _, _ = total_loss(pred, gt, mask, loss_cfg)
        return loss.item()

    with tg.Tape() as tape:
        pred = forward(cache, params, cfg)
        loss, _, _ = total_loss(pred, gt, mask, loss_cfg)
    tape.backward(loss)

    step = 1e-6
    pick = np.random.default_rng(99)
    e2e_worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        grad = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        n_entries = min(ENTRIES_PER_PARAM, flat.size)
        entries = pick.choice(flat.size, size=n_entries, replace=False)
        sampled_num = np.zeros(n_entries)
        for j, e in enumerate(entries):
            orig = flat[e]
            flat[e] = orig + step
            fp = loss_value()
            flat[e] = orig - step
            fm = loss_value()
            flat[e] = orig
            sampled_num[j] = (fp - fm) / (2 * step)
        err = grad_rel_error(grad[entries], sampled_num)
        e2e_worst = max(e2e_worst, err)
        assert err < E2E_TOL, f"{name}: rel error {err:.2e}"

    elapsed = time.time() - start
    criterion("gradient suite",
              worst < OP_TOL and e2e_worst < E2E_TOL and elapsed < 60.0,
              f"op worst {worst:.2e}, end-to-end worst {e2e_worst:.2e}, {elapsed:.1f}s")


def test_criterion_metric_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    ordering_ok = True
    for _ in range(200):
        n_agents = int(rng.integers(1, 5))
        n_modes = int(rng.integers(1, 7))
        t_f = int(rng.integers(1, 11))
        traj = rng.normal(size=(n_agents, n_modes, t_f, 2)) * rng.uniform(0.5, 5.0)
        gt = rng.normal(size=(n_agents, t_f, 2)) * 2.0
        mask = rng.random(n_agents) < 0.85
        if not mask.any():
            mask[int(rng.integers(n_agents))] = True
        rep = compute_metrics(traj, gt, mask)
        expected = brute_force_metrics(traj, gt, mask)
        for name, value in rep.as_dict().items():
            worst = max(worst, abs(value - expected[name]))
        ordering_ok &= rep.minJADE >= rep.minADE - 1e-12
        ordering_ok &= rep.minJFDE >= rep.minFDE - 1e-12
    criterion("metric oracle", worst < 1e-9 and ordering_ok,
              f"200 instances, worst abs diff {worst:.2e}")


def _oracle_agent_relations(scene):
    node_of, n = {}, 0
    for ti, track in enumerate(scene.tracks):
        for t, _ in track.past:
            node_of[(ti, t)] = n
            n += 1
    pre, suc, merge = set(), set(), set()
    for ti, track in enumerate(scene.tracks):
        steps = [t for t, _ in track.past]
        for s1, s2 in zip(steps, steps[1:]):
            pre.add((node_of[(ti, s1)], node_of[(ti, s2)]))
            suc.add((node_of[(ti, s2)], node_of[(ti, s1)]))
        for s in steps[:-1]:
            merge.add((node_of[(ti, s)], node_of[(ti, steps[-1])]))
    return node_of, pre, suc, merge


def test_criterion_graph_oracle():
    rng = np.random.default_rng(11)
    cfg = GraphConfig()
    checked_scenes = 0
    for i in range(100):
        spec = SyntheticSpec(
            scenes=1, agents=int(rng.integers(1, 5)), lanes=int(rng.integers(0, 4)),
            t_obs=int(rng.integers(1, 7)), t_f=2, dt=0.1,
            noise=float(rng.uniform(0, 0.4)), curved=bool(rng.integers(0, 2)),
            split_pairs=bool(rng.integers(0, 2)))
        scene = normalize_scene(generate_synthetic(spec, seed=1000 + i)[0])
        graph = build_graph(scene, cfg)

        def got(name):
            return {(int(s), int(d)) for s, d in graph.edges[name]}

        node_of, pre, suc, merge = _oracle_agent_relations(scene)
        assert got("agent.pre.agent") == pre
        assert got("agent.suc.agent") == suc
        assert got("agent.merge.agent") == merge

        social = social_edges_by_enumeration([[t for t, _ in tr.past] for tr in scene.tracks])
        social_idx = {(node_of[s], node_of[d]) for s, d in social}
        assert got("agent.social.agent") == social_idx

        base = lane_links_by_scan(scene.segments.feats)
        n_map = graph.n_map_nodes
        for order in range(1, cfg.dilation + 1):
            expected = dilated_edges_by_matrix_power(base, n_map, order) if n_map else set()
            assert got(map_pre_relation(order)) == expected
            assert got(map_suc_relation(order)) == {(d, s) for s, d in expected}

        left, right = neighbour_edges_by_scan(scene)
        assert got("map.left.map") == left
        assert got("map.right.map") == right

        speed = np.hypot(graph.agent_feats[:, 2], graph.agent_feats[:, 3])
        drives, info = fusion_edges_by_scan(
            graph.agent_feats[:, :2], speed, graph.map_feats[:, :2], cfg.t_th, cfg.d_min)
        assert got("agent.drives-on.map") == drives
        assert got("map.gives-traffic-info.agent") == info

        for name in relation_names(cfg.dilation):
            src_type, dst_type = name.split(".")[0], name.split(".")[2]
            for (s, d), (fx, fy) in zip(graph.edges[name], graph.edge_feats[name]):
                sx, sy = node_position(graph, src_type, s)
                dx, dy = node_position(graph, dst_type, d)
                assert fx == dx - sx and fy == dy - sy
        checked_scenes += 1
    criterion("graph-construction oracle", checked_scenes == 100,
              f"{checked_scenes} scenes, all relations exact")


def test_criterion_equivariance():
    cfg = ModelConfig(f=16, heads=2, modes=2, t_f=4, t_obs=4, dilation=2)
    params = init_parameters(cfg, seed=55)
    rng = np.random.default_rng(13)
    ok = True
    for i in range(20):
        spec = SyntheticSpec(scenes=1, agents=int(rng.integers(2, 5)), lanes=2,
                             t_obs=4, t_f=4, dt=0.1, noise=0.3, curved=True)
        scene = normalize_scene(generate_synthetic(spec, seed=2000 + i)[0])
        graph = build_graph(scene, GraphConfig(dilation=2))
        base = forward(make_cache(graph, cfg), params, cfg)

        perm = list(rng.permutation(len(scene.tracks)))
        scene.tracks = [scene.tracks[p] for p in perm]
        graph_p = build_graph(scene, GraphConfig(dilation=2))
        pred = forward(make_cache(graph_p, cfg), params, cfg)
        for new_row, old_row in enumerate(perm):
            ok &= np.array_equal(pred.trajectories.data[new_row],
                                 base.trajectories.data[old_row])
            ok &= np.array_equal(pred.scores.data[new_row], base.scores.data[old_row])
        assert ok
    criterion("equivariance under track permutation", ok, "20 scenes, bitwise")


def test_criterion_mode_collapse_guard():
    cfg = ModelConfig(f=16, heads=2, modes=6, t_f=4, t_obs=3, dilation=2)
    rng = np.random.default_rng(17)
    verified = 0
    for i in range(5):
        spec = SyntheticSpec(scenes=1, agents=int(rng.integers(1, 3)), lanes=1,
                             t_obs=3, t_f=4, dt=0.1, noise=0.2)
        scene = normalize_scene(generate_synthetic(spec, seed=3000 + i)[0])
        graph = build_graph(scene, GraphConfig(dilation=2))
        cache = make_cache(graph, cfg)
        params = init_parameters(cfg, seed=60 + i)
        gt, mask = supervision_mask(scene, True)
        with tg.Tape() as tape:
            pred = forward(cache, params, cfg)
            loss = regression_loss(pred, gt, mask)
        winners = set(winner_modes(pred.trajectories.data, gt, mask)[mask].tolist())
        tape.backward(loss)
        for k in range(cfg.modes):
            # slice k of each head.reg parameter is mode k's
            for path, t in params.items():
                if not path.startswith("head.reg."):
                    continue
                if k in winners:
                    continue
                assert t.grad is None or not t.grad[k].any(), (path, k)
        assert len(winners) < cfg.modes  # some mode had to stay untouched
        verified += 1
    criterion("mode-collapse guard", verified == 5,
              "non-winning regression heads get exactly zero gradient")


def test_criterion_ablation_soundness():
    rng = np.random.default_rng(19)
    # map ablation: outputs bitwise invariant to arbitrary map mutations
    cfg = ModelConfig(f=16, heads=2, modes=2, t_f=3, t_obs=3, dilation=2, use_map=False)
    params = init_parameters(cfg, seed=77)
    map_ok = True
    for i in range(3):
        spec = SyntheticSpec(scenes=1, agents=3, lanes=2, t_obs=3, t_f=3, dt=0.1, noise=0.2)
        scene = normalize_scene(generate_synthetic(spec, seed=4000 + i)[0])
        graph = build_graph(scene, GraphConfig(dilation=2))
        base = forward(make_cache(graph, cfg), params, cfg)
        graph.map_feats = graph.map_feats + rng.normal(size=graph.map_feats.shape) * 10
        mutated = forward(make_cache(graph, cfg), params, cfg)
        map_ok &= np.array_equal(base.trajectories.data, mutated.trajectories.data)
        map_ok &= np.array_equal(base.scores.data, mutated.scores.data)

    # social ablation (fusion off too): per-agent outputs invariant to others
    cfg2 = ModelConfig(f=16, heads=2, modes=2, t_f=3, t_obs=3, dilation=2,
                       use_map=False, use_social=False)
    params2 = init_parameters(cfg2, seed=78)
    social_ok = True
    for i in range(3):
        spec = SyntheticSpec(scenes=1, agents=3, lanes=2, t_obs=3, t_f=3, dt=0.1, noise=0.2)
        scene = normalize_scene(generate_synthetic(spec, seed=5000 + i)[0])
        graph = build_graph(scene, GraphConfig(dilation=2))
        base = forward(make_cache(graph, cfg2), params2, cfg2)
        for track in scene.tracks[1:]:
            track.past = [(t, AgentState(s.x + 5.0, s.y - 1.0, s.vx * 1.5, s.vy, 0.3))
                          for t, s in track.past]
        graph2 = build_graph(scene, GraphConfig(dilation=2))
        mutated = forward(make_cache(graph2, cfg2), params2, cfg2)
        social_ok &= np.array_equal(base.trajectories.data[0], mutated.trajectories.data[0])
        social_ok &= np.array_equal(base.scores.data[0], mutated.scores.data[0])

    criterion("ablation soundness", map_ok and social_ok,
              "no-map and no-social invariances are bitwise")


def _overfit_scenes():
    """8 synthetic scenes, 4 agents, t_obs 10, t_f 30, dt 0.1, zero noise.

    Agents radiate outward from the scene center at constant velocity, so
    every ground-truth endpoint lies well away from the origin and the
    winner-takes-all mode assignment stays coherent from the start.

    Observed states carry positions only (vx = vy = 0, as in Argoverse 1):
    the head then starts every track at its last position, and the model
    must learn each track's motion from the agent pre/suc offsets instead
    of being handed the constant-velocity answer before training.
    """
    rng = np.random.default_rng(321)
    scenes = []
    for i in range(8):
        tracks, lanes = [], []
        for a in range(4):
            heading = rng.uniform(0, 2 * np.pi)
            speed = rng.uniform(5.0, 8.0)
            ux, uy = np.cos(heading), np.sin(heading)
            offset = rng.uniform(-4.0, 4.0, size=2)
            # last observed step sits near the center; the future runs outward
            x0 = offset[0] - ux * speed * 0.1 * 9
            y0 = offset[1] - uy * speed * 0.1 * 9
            track = straight_track(
                f"a{a}", x0=x0, y0=y0, vx=speed * ux, vy=speed * uy,
                t_obs=10, t_f=30, dt=0.1, is_ego=(a == 0),
                heading=float(np.arctan2(uy, ux)))
            track.past = [(t, AgentState(s.x, s.y, 0.0, 0.0, s.heading))
                          for t, s in track.past]
            tracks.append(track)
        lanes = [straight_lane(f"s{i}-l0", 80.0, x0=-40.0, y=-2.0, left=f"s{i}-l1"),
                 straight_lane(f"s{i}-l1", 80.0, x0=-40.0, y=1.5, right=f"s{i}-l0")]
        scenes.append(make_scene(tracks, lanes, scene_id=f"overfit-{i}",
                                 t_obs=10, t_f=30, dt=0.1))
    return scenes


def test_criterion_overfit_run():
    start = time.time()
    scenes = _overfit_scenes()
    run_cfg = RunConfig(
        graph=GraphConfig(),
        model=ModelConfig(f=32, heads=4, modes=6, t_f=30, t_obs=10),
        loss=LossConfig(),
        optim=OVERFIT_OPTIM,
        seed=0)
    samples = prepare_samples(scenes, run_cfg)
    params = init_parameters(run_cfg.model, run_cfg.seed)
    # the criterion must be out of reach without training
    _, untrained = evaluate_samples(samples, params, run_cfg.model)
    assert untrained.minJADE >= 0.10 and untrained.minJFDE >= 0.25, untrained

    result = {}

    def on_epoch(epoch, lr, loss, current, steps):
        if (epoch + 1) % 25 != 0:
            return False
        _, agg = evaluate_samples(samples, current, run_cfg.model)
        result.update(steps=steps, minJADE=agg.minJADE, minJFDE=agg.minJFDE)
        return agg.minJADE < 0.10 and agg.minJFDE < 0.25

    train(samples, params, run_cfg, on_epoch=on_epoch, max_steps=OVERFIT_STEP_LIMIT)
    _, agg = evaluate_samples(samples, params, run_cfg.model)
    result.update(minJADE=agg.minJADE, minJFDE=agg.minJFDE)
    elapsed = time.time() - start
    ok = (result["minJADE"] < 0.10 and result["minJFDE"] < 0.25
          and result["steps"] <= OVERFIT_STEP_LIMIT and elapsed < OVERFIT_TIME_LIMIT)
    criterion("overfit run", ok,
              f"steps={result['steps']} minJADE={result['minJADE']:.3f} "
              f"minJFDE={result['minJFDE']:.3f} elapsed={elapsed:.0f}s")


def _context_scenes(seed, count, noise=0.25):
    """Noisy scenes of agents following outward arcs whose curvature is
    visible only through the lane geometry: observed history alone cannot
    tell which way the road bends."""
    rng = np.random.default_rng(seed)
    t_obs, t_f, dt = 5, 10, 0.1
    scenes = []
    for i in range(count):
        tracks, lanes = [], []
        for a in range(3):
            heading = rng.uniform(0, 2 * np.pi)
            speed = rng.uniform(8.0, 12.0)
            radius = rng.uniform(20.0, 40.0)
            turn = 1.0 if rng.random() < 0.5 else -1.0
            anchor = rng.uniform(-3.0, 3.0, size=2)  # last observed position
            ux, uy = np.cos(heading), np.sin(heading)
            cx = anchor[0] - turn * radius * uy      # circle center, left/right of travel
            cy = anchor[1] + turn * radius * ux
            phi0 = np.arctan2(anchor[1] - cy, anchor[0] - cx)
            omega = turn * speed / radius

            def state(step_offset):
                phi = phi0 + omega * dt * step_offset
                x = cx + radius * np.cos(phi)
                y = cy + radius * np.sin(phi)
                tx, ty = -turn * np.sin(phi), turn * np.cos(phi)
                return x, y, speed * tx, speed * ty

            past = []
            for t in range(t_obs):
                x, y, vx, vy = state(t - (t_obs - 1))
                if noise > 0:
                    x += rng.normal(0, noise)
                    y += rng.normal(0, noise)
                h = float(np.arctan2(vy, vx))
                if h <= -np.pi:
                    h += 2 * np.pi
                past.append((t, AgentState(x, y, vx, vy, h)))
            future = [(float(state(k)[0]), float(state(k)[1])) for k in range(1, t_f + 1)]
            tracks.append(AgentTrack(f"a{a}", past, future, is_ego=(a == 0)))

            # lane along the same arc, from behind the history to past the future
            arc = []
            for s in np.linspace(-1.5 * t_obs * dt, 1.8 * t_f * dt, 30):
                phi = phi0 + omega * s
                arc.append((float(cx + radius * np.cos(phi)),
                            float(cy + radius * np.sin(phi))))
            lanes.append(Lane(f"s{i}-l{a}", arc))
        scenes.append(make_scene(tracks, lanes, scene_id=f"ctx-{seed}-{i}",
                                 t_obs=t_obs, t_f=t_f, dt=dt))
    return scenes


def _train_context_variant(train_scenes, val_scenes, seed, history_only):
    model = ModelConfig(f=16, heads=2, modes=2, t_f=10, t_obs=5, dilation=2)
    if history_only:
        model.use_map = False
        model.use_social = False
        model.use_relational = False
    run_cfg = RunConfig(
        graph=GraphConfig(dilation=2),
        model=model,
        loss=LossConfig(),
        optim=OptimConfig(lr0=3e-3, decay_period=60, batch_size=5,
                          epochs=CONTEXT_EPOCHS, weight_decay=0.0005),
        seed=seed)
    samples = prepare_samples(train_scenes, run_cfg)
    params = init_parameters(run_cfg.model, seed)
    train(samples, params, run_cfg)
    val_samples = prepare_samples(val_scenes, run_cfg)
    _, agg = evaluate_samples(val_samples, params, run_cfg.model)
    return agg.minJADE


def test_criterion_context_ordering():
    full, history = [], []
    for seed in CONTEXT_SEEDS:
        train_scenes = _context_scenes(seed, count=10)
        val_scenes = _context_scenes(seed + 7000, count=6)
        full.append(_train_context_variant(train_scenes, val_scenes, seed,
                                           history_only=False))
        history.append(_train_context_variant(train_scenes, val_scenes, seed,
                                              history_only=True))
    mean_full = float(np.mean(full))
    mean_history = float(np.mean(history))
    criterion("context-ordering trend", mean_full <= mean_history,
              f"mean minJADE full={mean_full:.3f} history-only={mean_history:.3f} "
              f"over {len(CONTEXT_SEEDS)} seeds")


def test_criterion_loss_schedule(tmp_path):
    data = tmp_path / "sched.jsonl"
    assert cli_main(["gen-synthetic", "--scenes", "1", "--agents", "1", "--lanes", "0",
                     "--t-obs", "2", "--t-f", "2", "--seed", "4", "--out", str(data)]) == 0
    cfg = RunConfig(
        graph=GraphConfig(dilation=1),
        model=ModelConfig(f=4, heads=1, modes=1, t_f=2, t_obs=2, dilation=1,
                          use_map=False),
        loss=LossConfig(),
        optim=OptimConfig(epochs=40, batch_size=8),
        seed=1)
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out)]) == 0
    rows = (out / "train_log.txt").read_text().strip().splitlines()
    logged = [float(r.split()[1].split("=")[1]) for r in rows]
    expected = [1e-3 * 0.5 ** (e // 5) for e in range(40)]
    criterion("loss schedule", logged == expected,
              "40 logged lr values match 1e-3 * 0.5^(epoch//5) exactly")


def test_criterion_checkpoint_round_trip(tmp_path):
    spec = SyntheticSpec(scenes=3, agents=3, lanes=2, t_obs=4, t_f=5, dt=0.1, noise=0.2)
    scenes = generate_synthetic(spec, seed=77)
    run_cfg = RunConfig(
        graph=GraphConfig(dilation=2),
        model=ModelConfig(f=16, heads=2, modes=3, t_f=5, t_obs=4, dilation=2),
        loss=LossConfig(),
        optim=OptimConfig(epochs=3, batch_size=2),
        seed=9)
    samples = prepare_samples(scenes, run_cfg)
    params = init_parameters(run_cfg.model, run_cfg.seed)
    train(samples, params, run_cfg)
    _, before = evaluate_samples(samples, params, run_cfg.model)

    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    reloaded = load_checkpoint(path, run_cfg.model)
    _, after = evaluate_samples(samples, reloaded, run_cfg.model)
    identical = all(getattr(before, k) == getattr(after, k) for k in before.as_dict())
    criterion("checkpoint round trip", identical,
              "save -> load -> evaluate reproduces metrics bitwise")
