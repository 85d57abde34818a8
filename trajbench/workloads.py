"""Workloads of the trajgraph benchmark.

Each workload generates its inputs from the seed into a scratch directory,
then exposes three phases: ``setup`` (what a user pays before the first
prediction or step), ``measure`` (the timed loop) and ``finish`` (held-out
evaluation and output checks, untimed). Every call into trajgraph goes
through a module attribute, so the tracer's wrappers see it.
"""

import hashlib
import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from trajgraph import graph as graph_mod
from trajgraph import losses as losses_mod
from trajgraph import metrics as metrics_mod
from trajgraph import model as model_mod
from trajgraph import scene as scene_mod
from trajgraph import tensor as tg
from trajgraph import train as train_mod
from trajgraph.config import RunConfig
from trajgraph.synthetic import SyntheticSpec, generate_synthetic

from clock import ScaledClock

T_OBS, T_F, DT = 10, 30, 0.1
# Train workloads use one fixed training set and one fixed held-out set; the
# run's seed draws the initial weights and the batch order. When the seed
# also drew the training scenes, the held-out metrics of a 12-step model
# moved with the scenes by more than any bound could allow (METRICS.md).
TRAIN_DATA_SEED = 2301
VAL_SEED = 20230131
VAL_SCENES = 8
PREDICT_POOL = 100               # distinct request scenes; the loop stops early if used up
SCORED_REQUESTS = 32             # predict outputs scored, checked and digested
CHECKED_VAL = 2                  # held-out scenes whose predictions are checked and digested
SETUP_REPEATS = 3                # setup_s is the median of this many set-ups
MIN_ROUNDS = 2                   # train rounds per run, so the bitwise repeat check always runs
HEAD_OUTPUT_SCALE = 0.05         # predict checkpoint: head output layers are not left at zero
GRAD_CHECK_STEP = 1e-6           # central-difference step along a unit parameter direction
GRAD_CHECK_TOL = 1e-4            # largest relative error of the backward pass's derivative


def _spec(scenes, agents, lanes):
    return SyntheticSpec(scenes=scenes, agents=agents, lanes=lanes, t_obs=T_OBS, t_f=T_F,
                         dt=DT, noise=0.05, curved=True)


class Digest:
    """sha256 over float64 arrays, in the order they are added."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        self._h.update(str(arr.shape).encode())
        self._h.update(arr.tobytes())

    def hexdigest(self):
        return self._h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one measured phase produced."""
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    scenes_per_unit: int = 1
    unit_s: list = field(default_factory=list)   # scaled seconds per timed unit
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)   # end-to-end values from this phase
    reference: dict = field(default_factory=dict)  # printed, not gated


def check_prediction(pred, n_agents, cfg):
    """Problems with one model output: shapes [A,K,T,2] and [A,K], all finite."""
    traj, scores = pred.trajectories.data, pred.scores.data
    problems = []
    if traj.shape != (n_agents, cfg.modes, cfg.t_f, 2):
        problems.append(f"trajectories shape {traj.shape}")
    if scores.shape != (n_agents, cfg.modes):
        problems.append(f"scores shape {scores.shape}")
    if not (np.isfinite(traj).all() and np.isfinite(scores).all()):
        problems.append("non-finite prediction")
    return problems


def cv_baseline(scored):
    """Constant-velocity reference on the same scenes: last observed
    position plus k*dt times last observed velocity, one mode.

    scored: (last [A,4] x/y/vx/vy, gt [A,T,2], mask [A]) per scene.
    """
    steps = DT * np.arange(1, T_F + 1)[None, :, None]
    return metrics_mod.aggregate_reports([
        metrics_mod.compute_metrics((last[:, None, :2] + steps * last[:, None, 2:4])[:, None],
                                    gt, mask)
        for last, gt, mask in scored])


def timing_values(unit_s, scenes_per_unit):
    """scenes/s over the timed units and per-scene time percentiles; NaN
    when no unit was timed (every operation failed before its first)."""
    if not unit_s:
        return {"scenes_per_s": math.nan, "scene_ms_p50": math.nan, "scene_ms_p90": math.nan}
    per_scene_ms = np.asarray(unit_s) * 1e3 / scenes_per_unit
    p50, p90 = np.percentile(per_scene_ms, [50, 90])
    return {"scenes_per_s": 1e3 / float(per_scene_ms.mean()),
            "scene_ms_p50": float(p50), "scene_ms_p90": float(p90)}


def record_timing(out, clock, scenes_per_unit):
    """Scaled times as the metrics; wall-clock ones as reference lines."""
    out.unit_s = clock.scaled_s("unit")
    out.values.update(timing_values(out.unit_s, scenes_per_unit))
    for name, value in timing_values(clock.raw_s("unit"), scenes_per_unit).items():
        out.reference[f"wall {name}"] = value
    out.values["setup_s"] = statistics.median(clock.scaled_s("setup"))
    out.reference["wall setup_s"] = statistics.median(clock.raw_s("setup"))
    out.reference["units timed"] = len(clock.raw_s("unit"))
    out.reference["reference kernel ms (median)"] = clock.median_reference_ms()


def gradient_error(sample, params, cfg):
    """Relative error of the loss's derivative along a random unit
    direction over all parameters (drawn from the run's seed): the backward
    pass against a central difference of two untaped forward passes."""
    rng = np.random.default_rng(cfg.seed)
    direction = {name: rng.standard_normal(t.data.shape) for name, t in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    for d in direction.values():
        d /= norm

    params.zero_grads()
    with tg.Tape() as tape:
        pred = model_mod.forward(sample.cache, params, cfg.model)
        loss, _, _ = losses_mod.total_loss(pred, sample.gt, sample.mask, cfg.loss)
    tape.backward(loss)
    analytic = sum(float((t.grad * direction[name]).sum())
                   for name, t in params.items() if t.grad is not None)
    params.zero_grads()

    def loss_at(step):
        moved = model_mod.ModelParameters(
            {name: tg.Tensor(t.data + step * direction[name]) for name, t in params.items()})
        pred = model_mod.forward(sample.cache, moved, cfg.model)
        return losses_mod.total_loss(pred, sample.gt, sample.mask, cfg.loss)[0].item()

    numeric = (loss_at(GRAD_CHECK_STEP) - loss_at(-GRAD_CHECK_STEP)) / (2 * GRAD_CHECK_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def _copy_params(params):
    return model_mod.ModelParameters(
        {name: tg.Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()})


class TrainWorkload:
    """Training through trajgraph.train.train at the default batch size.

    The training set is exactly one batch, so every epoch is one optimizer
    step and the per-epoch callback timestamps each step at no cost. A
    round is `steps` steps from the same initial parameters; at least
    MIN_ROUNDS rounds run, more until the time is up, and all must end in
    bitwise-equal parameters.
    """

    def __init__(self, agents, lanes, steps):
        self.agents, self.lanes, self.steps = agents, lanes, steps
        self.cfg = RunConfig()

    def make_inputs(self, seed, workdir):
        self.cfg.seed = seed
        self.train_path = os.path.join(workdir, "train.jsonl")
        self.val_path = os.path.join(workdir, "val.jsonl")
        scene_mod.save_scenes(generate_synthetic(  # exactly one batch
            _spec(self.cfg.optim.batch_size, self.agents, self.lanes), TRAIN_DATA_SEED),
            self.train_path)
        scene_mod.save_scenes(generate_synthetic(
            _spec(VAL_SCENES, self.agents, self.lanes), VAL_SEED), self.val_path)

    def setup(self):
        cfg = self.cfg
        samples = train_mod.prepare_samples(
            scene_mod.load_scenes(self.train_path, cfg.segment_len), cfg)
        val = train_mod.prepare_samples(
            scene_mod.load_scenes(self.val_path, cfg.segment_len), cfg)
        params = model_mod.init_parameters(cfg.model, cfg.seed)
        return samples, val, params

    def measure(self, state, seconds, clock):
        samples, _, init = state
        out = Outcome()
        first = None
        start = time.perf_counter()
        for rounds in itertools.count(1):
            params = _copy_params(init)
            losses = []

            def on_epoch(epoch, lr, loss, current, steps):
                clock.stop("unit")
                losses.append(loss)
                clock.start()
                return False

            out.attempted += self.steps
            clock.start()
            try:
                train_mod.train(samples, params, self.cfg, on_epoch=on_epoch,
                                max_steps=self.steps)
            except Exception as exc:  # a failed step ends the round; count and go on
                out.problems.append(f"train raised {type(exc).__name__}: {exc}")
            out.failed += self.steps - len(losses) + sum(not math.isfinite(v) for v in losses)
            if first is None:
                first = params
            elif any(not np.array_equal(a.data, b.data)
                     for (_, a), (_, b) in zip(first.items(), params.items())):
                out.problems.append("repeated round gave different parameters")
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                break
        self.trained = first
        return out

    def finish(self, state, out):
        """Held-out metrics through evaluate_samples; the first CHECKED_VAL
        predictions are checked, digested and scored again independently.
        The backward pass is checked against a finite difference on the
        first training scene at the trained parameters (where the modes
        differ, so the winner-take-all loss has no tie to step across)."""
        samples, val, _ = state
        cfg = self.cfg
        grad_err = gradient_error(samples[0], self.trained, cfg)
        out.reference["gradient check relative error"] = grad_err
        if not grad_err <= GRAD_CHECK_TOL:
            out.problems.append(f"backward disagrees with a finite difference "
                                f"(relative error {grad_err:.3g})")
        reports, agg = train_mod.evaluate_samples(val, self.trained, cfg.model)
        digest = Digest()
        for _, t in self.trained.items():
            digest.add(t.data)
        for s, (_, report) in zip(val[:CHECKED_VAL], reports):
            pred = model_mod.forward(s.cache, self.trained, cfg.model)
            out.problems.extend(check_prediction(pred, len(s.track_ids), cfg.model))
            digest.add(pred.trajectories.data)
            digest.add(pred.scores.data)
            if metrics_mod.compute_metrics(pred.trajectories.data, s.gt, s.mask) != report:
                out.problems.append(f"evaluate_samples disagrees on {s.scene_id}")
        if not all(math.isfinite(v) for v in agg.as_dict().values()):
            out.problems.append("non-finite held-out metrics")
        cv = cv_baseline([(s.cache.graph.agent_feats[s.cache.graph.readout_index, :4],
                           s.gt, s.mask) for s in val])
        out.digest = digest.hexdigest()
        out.scenes_per_unit = cfg.optim.batch_size
        out.values.update({"val_minADE": agg.minADE, "val_minFDE": agg.minFDE})
        out.reference.update({"cv_minADE": cv.minADE, "cv_minFDE": cv.minFDE})


class PredictWorkload:
    """One closed-loop client: each request is a distinct raw scene taken
    through normalize_scene, build_graph, make_cache and an untaped forward."""

    def __init__(self, agents, lanes, pool=PREDICT_POOL, scored=SCORED_REQUESTS):
        self.agents, self.lanes, self.pool, self.scored = agents, lanes, pool, scored
        self.cfg = RunConfig()

    def make_inputs(self, seed, workdir):
        cfg = self.cfg
        self.pool_path = os.path.join(workdir, "requests.jsonl")
        self.ckpt_path = os.path.join(workdir, "model.bin")
        scene_mod.save_scenes(generate_synthetic(
            _spec(self.pool, self.agents, self.lanes), seed), self.pool_path)
        # an untrained model emits all-zero trajectories, which would hide
        # changes in the encoder; give the head output layers weights
        params = model_mod.init_parameters(cfg.model, seed)
        rng = np.random.default_rng(seed)
        for name, t in params.items():
            if name.startswith("head.") and name.endswith(".l2.weight"):
                t.data = HEAD_OUTPUT_SCALE * rng.standard_normal(t.data.shape)
        model_mod.save_checkpoint(params, self.ckpt_path)

    def setup(self):
        scenes = scene_mod.load_scenes(self.pool_path, self.cfg.segment_len)
        params = model_mod.load_checkpoint(self.ckpt_path, self.cfg.model)
        return scenes, params

    def request(self, scene, params):
        cfg = self.cfg
        norm = scene_mod.normalize_scene(scene)
        graph = graph_mod.build_graph(norm, cfg.graph)
        cache = model_mod.make_cache(graph, cfg.model)
        return model_mod.forward(cache, params, cfg.model), norm

    def measure(self, state, seconds, clock):
        scenes, params = state
        out = Outcome()
        self.served = {}
        start = time.perf_counter()
        for i, scene in enumerate(scenes):
            if out.attempted and time.perf_counter() - start >= seconds:
                break
            out.attempted += 1
            clock.start()
            try:
                pred, norm = self.request(scene, params)
            except Exception as exc:  # a failed request is counted, the client goes on
                out.failed += 1
                out.problems.append(f"request raised {type(exc).__name__}: {exc}")
                continue
            finally:
                clock.stop("unit")
            bad = check_prediction(pred, len(norm.tracks), self.cfg.model)
            out.failed += bool(bad)
            out.problems.extend(bad)
            if i < self.scored:
                self.served[i] = (pred, norm)
        return out

    def finish(self, state, out):
        """Score the first `scored` predictions against the request
        scenes' futures (loss and metrics), check repeatability, digest."""
        scenes, params = state
        cfg = self.cfg
        for i in range(self.scored):
            if i not in self.served:
                self.served[i] = self.request(scenes[i], params)
        again, _ = self.request(scenes[0], params)
        first, _ = self.served[0]
        if not (np.array_equal(again.trajectories.data, first.trajectories.data)
                and np.array_equal(again.scores.data, first.scores.data)):
            out.problems.append("repeated request differs from the first")
        sample = train_mod.prepare_samples([scenes[0]], cfg)[0]
        batch = model_mod.forward(sample.cache, params, cfg.model)
        if not np.array_equal(batch.trajectories.data, first.trajectories.data):
            out.problems.append("request path differs from prepare_samples + forward")

        digest, reports, scored = Digest(), [], []
        for i in range(self.scored):
            pred, norm = self.served[i]
            digest.add(pred.trajectories.data)
            digest.add(pred.scores.data)
            gt, mask = losses_mod.supervision_mask(norm, cfg.loss.supervise_all_agents)
            loss, _, _ = losses_mod.total_loss(pred, gt, mask, cfg.loss)
            if not math.isfinite(loss.item()):
                out.problems.append(f"non-finite loss on request {i}")
            reports.append(metrics_mod.compute_metrics(pred.trajectories.data, gt, mask))
            last = np.array([[st.x, st.y, st.vx, st.vy]
                             for st in (t.past[-1][1] for t in norm.tracks)])
            scored.append((last, gt, mask))
        agg = metrics_mod.aggregate_reports(reports)
        cv = cv_baseline(scored)
        out.digest = digest.hexdigest()
        out.scenes_per_unit = 1
        out.values.update({"val_minADE": agg.minADE, "val_minFDE": agg.minFDE})
        out.reference.update({"cv_minADE": cv.minADE, "cv_minFDE": cv.minFDE})


WORKLOADS = {
    "train-small": lambda: TrainWorkload(agents=4, lanes=2, steps=12),
    "train-dense": lambda: TrainWorkload(agents=16, lanes=8, steps=2),
    "predict-map": lambda: PredictWorkload(agents=8, lanes=16),
}


def run_phase(make_workload, seed, seconds, workdir, setup_repeats=SETUP_REPEATS,
              tracer=None):
    """Inputs, set-ups, timed loop and checks for one workload instance.

    setup_s is the median of `setup_repeats` set-ups; the last one is used.
    """
    workload = make_workload()
    workload.make_inputs(seed, workdir)
    with ScaledClock() as clock:
        if tracer is not None:
            tracer.install(now=clock.now)
        try:
            for _ in range(setup_repeats):
                state = None  # drop the previous set-up before timing the next
                clock.start()
                state = workload.setup()
                clock.stop("setup")
            out = workload.measure(state, seconds, clock)
            try:
                workload.finish(state, out)
            except Exception as exc:  # a program that always fails still gets a report
                out.problems.append(f"finish raised {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
    record_timing(out, clock, out.scenes_per_unit)
    return out
