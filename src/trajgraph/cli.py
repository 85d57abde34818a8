"""Command-line entry point.

Subcommands: gen-synthetic, train, eval, predict. Exit codes: 0 success,
1 usage error, 2 data/validation error or a file that cannot be written
(one `error: <reason>: <path>` line), 3 numeric failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config, save_config
from .errors import (
    CheckpointError, ConfigError, LookupError_, NumericError, ParseError,
    ValidationError,
)
from .metrics import aggregate_reports, compute_metrics
from .model import forward, init_parameters, load_checkpoint, save_checkpoint
from .scene import load_scenes, save_scenes
from .synthetic import SyntheticSpec, generate_synthetic
from .train import (
    check_finite, evaluate_samples, format_log_row, prepare_samples, train,
)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="trajgraph",
                     description="Heterogeneous graph motion prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic scenario file")
    gen.add_argument("--scenes", type=int, default=8)
    gen.add_argument("--agents", type=int, default=4)
    gen.add_argument("--lanes", type=int, default=2)
    gen.add_argument("--t-obs", type=int, default=10)
    gen.add_argument("--t-f", type=int, default=30)
    gen.add_argument("--dt", type=float, default=0.1)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_synthetic)

    tr = sub.add_parser("train", help="train a model and write checkpoints")
    tr.add_argument("--config")
    tr.add_argument("--data", required=True)
    tr.add_argument("--val-data")
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint and write a report")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--report", required=True)
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="predict one scene and export plot data")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--scene-id", required=True)
    pr.add_argument("--plot", required=True)
    pr.set_defaults(func=cmd_predict)
    return parser


def cmd_gen_synthetic(args):
    spec = SyntheticSpec(scenes=args.scenes, agents=args.agents, lanes=args.lanes,
                         t_obs=args.t_obs, t_f=args.t_f, dt=args.dt, noise=args.noise)
    scenes = generate_synthetic(spec, args.seed)
    save_scenes(scenes, args.out)
    print(f"wrote {len(scenes)} scenes, {sum(len(s.tracks) for s in scenes)} tracks "
          f"to {args.out}")


def cmd_train(args):
    if args.config:
        cfg = load_config(args.config)
        scenes = load_scenes(args.data, cfg.segment_len)
    else:
        scenes = load_scenes(args.data)
        cfg = RunConfig()
        if scenes:
            cfg.model.t_obs = scenes[0].t_obs
            cfg.model.t_f = scenes[0].t_f
    if not scenes:
        raise ConfigError(f"no scenes in {args.data}")
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.data = args.data
    cfg.val_data = args.val_data
    cfg.out_dir = args.out

    os.makedirs(args.out, exist_ok=True)
    save_config(cfg, os.path.join(args.out, "config.json"))

    samples = prepare_samples(scenes, cfg)
    if args.val_data:
        val_samples = prepare_samples(load_scenes(args.val_data, cfg.segment_len), cfg)
    else:
        val_samples = samples

    params = init_parameters(cfg.model, cfg.seed)
    log_path = os.path.join(args.out, "train_log.txt")
    log_fh = open(log_path, "w", encoding="utf-8")

    def on_epoch(epoch, lr, mean_loss, current, steps):
        _, aggregate = evaluate_samples(val_samples, current, cfg.model)
        row = {"epoch": epoch, "lr": lr, "loss": mean_loss, "steps": steps}
        line = format_log_row(row, aggregate)
        log_fh.write(line + "\n")
        log_fh.flush()
        print(line)
        save_checkpoint(current, os.path.join(args.out, f"checkpoint_epoch_{epoch:04d}.bin"))
        return False

    try:
        train(samples, params, cfg, on_epoch=on_epoch)
    finally:
        log_fh.close()
    final_path = os.path.join(args.out, "checkpoint_final.bin")
    save_checkpoint(params, final_path)
    print(f"final checkpoint: {final_path}")


def _config_for_checkpoint(checkpoint):
    config_path = os.path.join(os.path.dirname(os.path.abspath(checkpoint)), "config.json")
    if not os.path.exists(config_path):
        raise ConfigError(f"no config.json beside checkpoint {checkpoint}")
    return load_config(config_path)


def _graph_stats(graph):
    """Node counts and edges per relation of one scene's graph."""
    return {"agent_nodes": graph.n_agent_nodes, "map_nodes": graph.n_map_nodes,
            "edges": {name: len(pairs) for name, pairs in graph.edges.items()}}


def cmd_eval(args):
    cfg = _config_for_checkpoint(args.checkpoint)
    params = load_checkpoint(args.checkpoint, cfg.model)
    scenes = load_scenes(args.data, cfg.segment_len)
    samples = prepare_samples(scenes, cfg)
    reports, aggregate = evaluate_samples(samples, params, cfg.model)
    # beside each report, the constant-velocity start every mode adds to, as
    # one mode; the cache holds it in agent_id order, the reports are in scene order
    cv = [compute_metrics(s.cache.start.data[s.cache.track_rank].reshape(
        -1, 1, cfg.model.t_f, 2), s.gt, s.mask) for s in samples]
    lines = [{"scene_id": scene_id, **rep.as_dict(), "cv": cv_rep.as_dict(),
              "graph": _graph_stats(s.cache.graph)}
             for (scene_id, rep), cv_rep, s in zip(reports, cv, samples) if rep is not None]
    if aggregate is not None:
        lines.append({"scene_id": "__aggregate__", **aggregate.as_dict(),
                      "cv": aggregate_reports(cv).as_dict()})
    with open(args.report, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    if aggregate is None:
        print("no scene had ground-truth futures; nothing to score")
    else:
        print(" ".join(f"{k}={v:.6f}" for k, v in aggregate.as_dict().items()))


def cmd_predict(args):
    cfg = _config_for_checkpoint(args.checkpoint)
    params = load_checkpoint(args.checkpoint, cfg.model)
    scenes = load_scenes(args.data, cfg.segment_len)
    matches = [s for s in scenes if s.scene_id == args.scene_id]
    if not matches:
        raise LookupError_(f"scene {args.scene_id!r} not found in {args.data}")
    sample = prepare_samples(matches, cfg)[0]
    pred = forward(sample.cache, params, cfg.model)
    check_finite(pred, sample.scene_id)
    traj = pred.trajectories.data.tolist()
    scores = pred.scores.data.tolist()
    best = pred.scores.data.argmax(axis=1).tolist()

    agents_payload = []
    lines = []
    graph = sample.cache.graph
    for row, track_id in enumerate(sample.track_ids):
        history = graph.agent_feats[graph.agent_track == row, :2].tolist()
        lines.append({"role": "history", "agent_id": track_id, "points": history})
        if sample.mask[row]:
            lines.append({"role": "gt", "agent_id": track_id, "points": sample.gt[row].tolist()})
        for k, (pts, score) in enumerate(zip(traj[row], scores[row])):
            lines.append({"role": f"mode-{k}", "agent_id": track_id,
                          "score": score, "points": pts})
        lines.append({"role": "best-mode", "agent_id": track_id,
                      "points": traj[row][best[row]]})
        agents_payload.append({"agent_id": track_id, "scores": scores[row],
                               "best_mode": best[row], "modes": traj[row]})
    mid, half = graph.map_feats[:, 0:2], graph.map_feats[:, 2:4] / 2
    for ends in np.stack([mid - half, mid + half], axis=1).tolist():
        lines.append({"role": "map-node", "points": ends})

    with open(args.plot, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    print(json.dumps({"scene_id": args.scene_id, "agents": agents_payload}))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
        return 0
    except (ParseError, ValidationError, ConfigError, CheckpointError, LookupError_) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be written
        where = f": {exc.filename}" if exc.filename else ""  # none for a failed write()
        print(f"error: {exc.strerror}{where}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
