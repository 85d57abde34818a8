"""Training loop: batched gradient accumulation, Adam with the step
schedule, per-epoch evaluation hooks. Deterministic given the seed."""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tg
from .errors import ConfigError, NumericError
from .graph import build_graph
from .losses import supervision_mask, total_loss
from .metrics import aggregate_reports, compute_metrics
from .model import forward, make_cache
from .optim import AdamState, adam_step, learning_rate
from .scene import normalize_scene


@dataclass
class SceneSample:
    scene_id: str
    track_ids: list
    cache: object
    gt: np.ndarray
    mask: np.ndarray


def prepare_samples(scenes, run_cfg):
    """Normalize scenes, build graphs and caches, extract supervision."""
    samples = []
    for scene in scenes:
        if scene.t_obs != run_cfg.model.t_obs:
            raise ConfigError(
                f"scene {scene.scene_id!r}: t_obs {scene.t_obs} != model t_obs "
                f"{run_cfg.model.t_obs} (agent-stage depth must match the data)")
        if scene.t_f != run_cfg.model.t_f:
            raise ConfigError(
                f"scene {scene.scene_id!r}: t_f {scene.t_f} != model t_f {run_cfg.model.t_f}")
        norm = normalize_scene(scene)
        graph = build_graph(norm, run_cfg.graph)
        gt, mask = supervision_mask(norm, run_cfg.loss.supervise_all_agents)
        samples.append(SceneSample(
            scene_id=norm.scene_id, track_ids=list(graph.track_ids),
            cache=make_cache(graph, run_cfg.model), gt=gt, mask=mask))
    return samples


def check_finite(pred, scene_id):
    """Raise NumericError when a prediction holds NaN or inf."""
    if not (np.isfinite(pred.trajectories.data).all() and np.isfinite(pred.scores.data).all()):
        raise NumericError(f"non-finite prediction on scene {scene_id!r}")


def evaluate_samples(samples, params, model_cfg):
    """Per-scene metric reports plus their aggregate (means over scenes).
    Raises NumericError on a non-finite prediction."""
    reports = []
    for s in samples:
        pred = forward(s.cache, params, model_cfg)
        check_finite(pred, s.scene_id)
        rep = None
        if s.mask.any():
            rep = compute_metrics(pred.trajectories.data, s.gt, s.mask)
        reports.append((s.scene_id, rep))
    return reports, aggregate_reports([r for _, r in reports])


def _batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def train(samples, params, run_cfg, on_epoch=None, max_steps=None):
    """Run the optimization; returns the per-epoch log rows.

    on_epoch(epoch, lr, mean_loss, params, steps) may return True to stop
    early. max_steps caps the number of optimizer steps across epochs.
    """
    supervised = [s for s in samples if s.mask.any()]
    if not supervised:
        raise ConfigError("no scene provides supervision; nothing to train on")
    state = AdamState(params)
    rng = np.random.default_rng(run_cfg.seed)
    rows = []
    steps = 0
    for epoch in range(run_cfg.optim.epochs):
        lr = learning_rate(run_cfg.optim, epoch)
        order = rng.permutation(len(supervised))
        epoch_losses = []
        for batch in _batches(order, run_cfg.optim.batch_size):
            params.zero_grads()
            for idx in batch:
                sample = supervised[idx]
                with tg.Tape() as tape:
                    pred = forward(sample.cache, params, run_cfg.model)
                    loss, _, _ = total_loss(pred, sample.gt, sample.mask, run_cfg.loss)
                    scaled = tg.scale(loss, 1.0 / len(batch))
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(f"non-finite loss on scene {sample.scene_id!r}")
                tape.backward(scaled)
                epoch_losses.append(value)
            adam_step(params, state, run_cfg.optim, epoch)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        row = {"epoch": epoch, "lr": lr, "loss": float(np.mean(epoch_losses)),
               "steps": steps}
        rows.append(row)
        if on_epoch is not None and on_epoch(epoch, lr, row["loss"], params, steps):
            break
        if max_steps is not None and steps >= max_steps:
            break
    return rows


def format_log_row(row, report=None):
    """One text log line; lr is written with full round-trip precision."""
    parts = [f"epoch={row['epoch']}", f"lr={row['lr']!r}", f"loss={row['loss']:.6f}",
             f"steps={row['steps']}"]
    if report is not None:
        for name, value in report.as_dict().items():
            parts.append(f"{name}={value:.6f}")
    return " ".join(parts)
