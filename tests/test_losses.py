import numpy as np
import pytest

from trajgraph import tensor as tg
from trajgraph.errors import ValidationError
from trajgraph.graph import GraphConfig, build_graph
from trajgraph.losses import (
    LossConfig, _smooth_l1, classification_loss, regression_loss,
    supervision_mask, total_loss, winner_modes,
)
from trajgraph.model import ModelConfig, forward, init_parameters, make_cache
from trajgraph.scene import normalize_scene
from trajgraph.synthetic import SyntheticSpec, generate_synthetic


def make_prediction(traj, scores, requires_grad=False):
    from trajgraph.model import Prediction
    return Prediction(trajectories=tg.Tensor(traj, requires_grad=requires_grad),
                      scores=tg.Tensor(scores, requires_grad=requires_grad))


def test_smooth_l1_branch_values():
    out = _smooth_l1(tg.Tensor([0.5, 2.0, -0.5, -2.0]))
    assert out.data.tolist() == [0.125, 1.5, 0.125, 1.5]


def test_smooth_l1_values_and_gradients_equal_the_piecewise_form_bitwise():
    d = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    diff = tg.Tensor(d, requires_grad=True)
    with tg.Tape() as tape:
        out = _smooth_l1(diff)
        total = tg.sum_all(out)
    tape.backward(total)
    want = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
    assert out.data.tobytes() == want.tobytes()
    assert diff.grad.tobytes() == np.clip(d, -1.0, 1.0).tobytes()


def smooth_l1_scalar(d):
    return 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5


def reg_loop_oracle(traj, gt, k_min, mask):
    total, count = 0.0, 0
    t_f = gt.shape[1]
    for a in range(traj.shape[0]):
        if not mask[a]:
            continue
        count += 1
        for t in range(t_f):
            for c in range(2):
                total += smooth_l1_scalar(traj[a, k_min[a], t, c] - gt[a, t, c])
    return total / (count * t_f * 2)


def test_regression_matches_loop_oracle():
    """Value against a per-agent loop; gradient clip(d) / (n*t_f*2) on each
    supervised agent's winning mode and zero everywhere else."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        n_agents = rng.integers(1, 5)
        n_modes = rng.integers(1, 7)
        t_f = rng.integers(1, 6)
        traj = rng.normal(size=(n_agents, n_modes, t_f, 2)) * 2.0
        gt = rng.normal(size=(n_agents, t_f, 2))
        mask = rng.random(n_agents) < 0.8
        if not mask.any():
            mask[0] = True
        pred = make_prediction(traj, np.zeros((n_agents, n_modes)), requires_grad=True)
        k_min = winner_modes(traj, gt, mask)
        with tg.Tape() as tape:
            loss = regression_loss(pred, gt, mask)
        tape.backward(loss)
        assert loss.item() == pytest.approx(reg_loop_oracle(traj, gt, k_min, mask), rel=1e-12)
        want = np.zeros_like(traj)
        n = int(mask.sum()) * t_f * 2
        for a in np.flatnonzero(mask):
            want[a, k_min[a]] = np.clip(traj[a, k_min[a]] - gt[a], -1.0, 1.0) * (1.0 / n)
        assert np.array_equal(pred.trajectories.grad, want)


def test_perfect_prediction_zero_loss():
    gt = np.array([[[1.0, 2.0], [3.0, 4.0]]])          # A=1, T=2
    traj = np.stack([gt[0], gt[0] + 10.0])[None]       # mode 0 perfect
    pred = make_prediction(traj, np.zeros((1, 2)))
    loss = regression_loss(pred, gt, np.array([True]))
    assert loss.item() == 0.0


def test_regression_hand_example():
    # gt (0,0); mode 0 at (1,0), mode 1 at (0,3); k_min = 0
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[1.0, 0.0]], [[0.0, 3.0]]]])
    pred = make_prediction(traj, np.zeros((1, 2)))
    loss = regression_loss(pred, gt, np.array([True]))
    assert loss.item() == pytest.approx(0.25, abs=1e-15)


def test_winner_mode_tie_breaks_low_index():
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[1.0, 0.0]], [[-1.0, 0.0]]]])  # equal final error
    assert winner_modes(traj, gt, np.array([True])).tolist() == [0]


def test_regression_requires_masked_agent():
    pred = make_prediction(np.zeros((1, 2, 1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        regression_loss(pred, np.zeros((1, 1, 2)), np.array([False]))


def test_classification_margin_satisfied():
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[0.0, 0.0]], [[5.0, 0.0]]]])   # k_min = 0
    pred = make_prediction(traj, np.array([[1.0, 0.0]]))
    loss = classification_loss(pred, gt, np.array([True]), margin=0.2)
    assert loss.item() == 0.0


def test_classification_hand_example():
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[0.0, 0.0]], [[5.0, 0.0]]]])
    pred = make_prediction(traj, np.array([[0.0, 0.0]]))
    loss = classification_loss(pred, gt, np.array([True]), margin=0.2)
    assert loss.item() == pytest.approx(0.2, abs=1e-15)


def test_classification_single_mode_zero():
    pred = make_prediction(np.zeros((2, 1, 3, 2)), np.zeros((2, 1)))
    loss = classification_loss(pred, np.zeros((2, 3, 2)), np.array([True, True]), 0.2)
    assert loss.item() == 0.0


def cls_loop_oracle(scores, k_min, mask, margin):
    total, count = 0.0, 0
    n_modes = scores.shape[1]
    for a in range(scores.shape[0]):
        if not mask[a]:
            continue
        count += 1
        for k in range(n_modes):
            if k != k_min[a]:
                total += max(0.0, scores[a, k] + margin - scores[a, k_min[a]])
    return total / (count * (n_modes - 1))


def test_classification_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n_agents = rng.integers(1, 5)
        n_modes = rng.integers(2, 7)
        t_f = rng.integers(1, 6)
        traj = rng.normal(size=(n_agents, n_modes, t_f, 2))
        gt = rng.normal(size=(n_agents, t_f, 2))
        scores = rng.normal(size=(n_agents, n_modes))
        mask = rng.random(n_agents) < 0.8
        if not mask.any():
            mask[0] = True
        pred = make_prediction(traj, scores)
        k_min = winner_modes(traj, gt, mask)
        got = classification_loss(pred, gt, mask, 0.2).item()
        assert got == pytest.approx(cls_loop_oracle(scores, k_min, mask, 0.2), rel=1e-12)


def test_classification_gradient_signs():
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[0.0, 0.0]], [[5.0, 0.0]]]])  # k_min = 0
    scores = tg.Tensor(np.array([[0.0, 0.1]]), requires_grad=True)
    from trajgraph.model import Prediction
    pred = Prediction(trajectories=tg.Tensor(traj), scores=scores)
    with tg.Tape() as tape:
        loss = classification_loss(pred, gt, np.array([True]), margin=0.5)
    tape.backward(loss)
    assert scores.grad[0, 0] <= 0.0       # winner score pushed up
    assert scores.grad[0, 1] >= 0.0       # violating mode pushed down
    assert scores.grad[0, 1] > 0.0


def test_regression_gradient_only_into_winner_mode():
    cfg = ModelConfig(f=8, heads=2, modes=3, t_f=3, t_obs=3, dilation=2)
    spec = SyntheticSpec(scenes=1, agents=1, lanes=1, t_obs=3, t_f=3, dt=0.1, noise=0.1)
    scene = normalize_scene(generate_synthetic(spec, seed=40)[0])
    graph = build_graph(scene, GraphConfig(dilation=2))
    cache = make_cache(graph, cfg)
    params = init_parameters(cfg, seed=41)
    gt, mask = supervision_mask(scene, supervise_all_agents=True)

    with tg.Tape() as tape:
        pred = forward(cache, params, cfg)
        loss = regression_loss(pred, gt, mask)
    k_min = winner_modes(pred.trajectories.data, gt, mask)
    tape.backward(loss)

    winner = int(k_min[0])
    # slice k of each head.reg parameter is mode k's
    for k in range(cfg.modes):
        for path, t in params.items():
            if path.startswith("head.reg."):
                if k == winner:
                    continue
                assert t.grad is None or not t.grad[k].any(), (path, k)
        # scores never receive regression gradient
        for path, t in params.items():
            if path.startswith("head.score."):
                assert t.grad is None or not t.grad.any(), path
    assert any(t.grad is not None and t.grad[winner].any()
               for path, t in params.items()
               if path.startswith("head.reg."))


def test_total_loss_combines():
    gt = np.zeros((1, 1, 2))
    traj = np.array([[[[1.0, 0.0]], [[0.0, 3.0]]]])
    pred = make_prediction(traj, np.array([[0.0, 0.0]]))
    total, reg, cls = total_loss(pred, gt, np.array([True]), LossConfig(cls_weight=2.0))
    assert total.item() == pytest.approx(reg.item() + 2.0 * cls.item(), rel=1e-14)


def test_supervision_mask_ego_only():
    spec = SyntheticSpec(scenes=1, agents=3, lanes=1, t_obs=2, t_f=2, dt=0.1)
    scene = generate_synthetic(spec, seed=42)[0]
    _, mask_all = supervision_mask(scene, supervise_all_agents=True)
    _, mask_ego = supervision_mask(scene, supervise_all_agents=False)
    assert mask_all.sum() == 3
    assert mask_ego.sum() == 1 and mask_ego[0]
