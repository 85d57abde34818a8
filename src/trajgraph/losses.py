"""Winner-takes-all regression plus max-margin score loss.

Per agent only the mode with the smallest final displacement (k_min, ties
to the lowest index) receives regression gradient; scores are trained so
the winning mode beats every other mode by at least the margin. Both terms
gather the winner: its trajectory row and its score.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tg
from .errors import ValidationError


@dataclass
class LossConfig:
    cls_weight: float = 1.0        # weight of the score loss in the total
    margin: float = 0.2            # max-margin gap between winner and rest
    supervise_all_agents: bool = True

    def __post_init__(self):
        if self.cls_weight < 0 or self.margin <= 0:
            raise ValidationError("cls_weight must be >= 0 and margin > 0")


def future_targets(scene):
    """Ground-truth futures [n_tracks, t_f, 2] and a has-future flag per track."""
    n = len(scene.tracks)
    gt = np.zeros((n, scene.t_f, 2))
    has = np.zeros(n, dtype=bool)
    for i, track in enumerate(scene.tracks):
        if track.future is not None and scene.t_f > 0:
            gt[i] = np.asarray(track.future, dtype=np.float64)
            has[i] = True
    return gt, has


def supervision_mask(scene, supervise_all_agents):
    gt, has = future_targets(scene)
    if supervise_all_agents:
        mask = has
    else:
        mask = has & np.array([t.is_ego for t in scene.tracks], dtype=bool)
    return gt, mask


def winner_modes(traj_data, gt, mask):
    """Per agent: mode index minimizing the final-step displacement.

    Ties resolve to the lowest index (np.argmin). Unmasked agents get 0.
    """
    final_err = np.linalg.norm(traj_data[:, :, -1, :] - gt[:, None, -1, :], axis=-1)
    k_min = np.argmin(final_err, axis=1)
    k_min[~mask] = 0
    return k_min


def _smooth_l1(diff):
    """0.5*d^2 for |d| < 1, |d| - 0.5 otherwise, as d*k - 0.5*k^2 with
    k = clip(d, -1, 1) held constant.

    k is the piecewise form's (almost-everywhere) derivative, so both the
    values and the gradient k are the piecewise form's, bit for bit.
    """
    k = np.clip(diff.data, -1.0, 1.0)
    return tg.sub(tg.mul(diff, tg.Tensor(k)), tg.Tensor(0.5 * k * k))


def regression_loss(pred, gt, mask):
    """Mean smooth-L1 over masked agents, timesteps and both coordinates,
    taken only on each agent's winning mode, whose [t_f*2] row is gathered
    from the [agents*modes, t_f*2] trajectories."""
    n_agents, n_modes, t_f, _ = pred.trajectories.data.shape
    n_masked = int(np.count_nonzero(mask))
    if n_masked == 0:
        raise ValidationError("regression loss undefined: no supervised agents")
    k_min = winner_modes(pred.trajectories.data, gt, mask)

    agents = np.flatnonzero(mask)
    rows = tg.reshape(pred.trajectories, (n_agents * n_modes, t_f * 2))
    winners = tg.gather_rows(rows, agents * n_modes + k_min[agents])
    penalty = _smooth_l1(tg.sub(winners, tg.Tensor(gt[mask].reshape(n_masked, t_f * 2))))
    return tg.scale(tg.sum_all(penalty), 1.0 / (n_masked * t_f * 2))


def classification_loss(pred, gt, mask, margin):
    """Max-margin loss: mean over masked agents and non-winning modes of
    max(0, s_k + margin - s_kmin), s_kmin gathered from the [agents*modes, 1]
    scores and broadcast as a column."""
    n_agents, n_modes = pred.scores.data.shape
    if n_modes == 1:
        return tg.Tensor([0.0])
    n_masked = int(np.count_nonzero(mask))
    if n_masked == 0:
        raise ValidationError("classification loss undefined: no supervised agents")
    k_min = winner_modes(pred.trajectories.data, gt, mask)

    agents = np.arange(n_agents)
    winner_col = tg.gather_rows(tg.reshape(pred.scores, (n_agents * n_modes, 1)),
                                agents * n_modes + k_min)
    hinge = tg.relu(tg.add(tg.sub(pred.scores, winner_col),
                           tg.Tensor(np.full((1, n_modes), margin))))

    weights = np.zeros((n_agents, n_modes))
    weights[mask] = 1.0 / (n_masked * (n_modes - 1))
    weights[agents, k_min] = 0.0
    return tg.sum_all(tg.mul(hinge, tg.Tensor(weights)))


def total_loss(pred, gt, mask, cfg):
    reg = regression_loss(pred, gt, mask)
    cls = classification_loss(pred, gt, mask, cfg.margin)
    return tg.add(reg, tg.scale(cls, cfg.cls_weight)), reg, cls
