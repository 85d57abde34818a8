"""Deterministic synthetic scenario generation for tests and demos.

Lanes are straight lines (or, optionally, circular arcs) laid out around
the origin, in mutually-linked left/right pairs; some pairs are split into
two end-to-start connected lane records to exercise cross-lane
connectivity. Agents follow their lane geometry at constant speed, so
futures are exact continuations of the observed motion and a correct model
can drive the training loss near zero. With zero noise and straight lanes
the motion is literally constant-velocity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scene import (DEFAULT_SEGMENT_LEN, ORIGIN_GEOMETRIC_CENTER, AgentState, AgentTrack,
                    Lane, Scene, build_segments, validate_scene)

LANE_LENGTH = 120.0
LANE_SPACING = 3.5
POINT_SPACING = 5.0
SPEED_MIN = 4.0  # m/s; each agent's constant speed is drawn uniformly in between
SPEED_MAX = 9.0


@dataclass
class SyntheticSpec:
    scenes: int
    agents: int
    lanes: int
    t_obs: int
    t_f: int
    dt: float
    noise: float = 0.0
    curved: bool = False
    segment_len: float = DEFAULT_SEGMENT_LEN
    split_pairs: bool = True


def _wrap_heading(h):
    h = math.atan2(math.sin(h), math.cos(h))
    if h <= -math.pi:
        h += 2.0 * math.pi
    return h


class _LaneGeometry:
    """Arc-length parameterized lane shape an agent can follow."""

    def __init__(self, rng, curved):
        self.heading = rng.uniform(0.0, 2.0 * math.pi)
        self.offset = rng.uniform(-15.0, 15.0)
        self.is_arc = bool(curved and rng.random() < 0.5)
        if self.is_arc:
            self.radius = rng.uniform(30.0, 60.0)
            self.turn_sign = 1.0 if rng.random() < 0.5 else -1.0
        ux, uy = math.cos(self.heading), math.sin(self.heading)
        nx, ny = -uy, ux  # left normal
        self.anchor = (self.offset * nx, self.offset * ny)
        self.u = (ux, uy)
        self.n = (nx, ny)
        if self.is_arc:
            # circle center sits one radius to the turning side of the anchor
            cx = self.anchor[0] + self.turn_sign * self.radius * nx
            cy = self.anchor[1] + self.turn_sign * self.radius * ny
            self.center = (cx, cy)
            self.phi0 = math.atan2(self.anchor[1] - cy, self.anchor[0] - cx)

    def point(self, s, lateral=0.0):
        """Position at arc length s from the lane start, shifted left by `lateral`."""
        s0 = s - LANE_LENGTH / 2.0
        if not self.is_arc:
            return (self.anchor[0] + s0 * self.u[0] + lateral * self.n[0],
                    self.anchor[1] + s0 * self.u[1] + lateral * self.n[1])
        r = self.radius - self.turn_sign * lateral
        phi = self.phi0 + self.turn_sign * s0 / self.radius
        return (self.center[0] + r * math.cos(phi), self.center[1] + r * math.sin(phi))

    def tangent(self, s):
        if not self.is_arc:
            return self.u
        phi = self.phi0 + self.turn_sign * (s - LANE_LENGTH / 2.0) / self.radius
        return (-self.turn_sign * math.sin(phi), self.turn_sign * math.cos(phi))

    def polyline(self, lateral=0.0):
        n_pts = int(LANE_LENGTH / POINT_SPACING) + 1
        return [self.point(i * LANE_LENGTH / (n_pts - 1), lateral) for i in range(n_pts)]


def _build_lanes(rng, spec, scene_idx):
    """Lane records plus per-lane geometry handles for agent motion."""
    lanes, geoms = [], []
    pair_count = (spec.lanes + 1) // 2
    for pair in range(pair_count):
        geom = _LaneGeometry(rng, spec.curved)
        members = [0.0]
        if 2 * pair + 1 < spec.lanes:
            members.append(LANE_SPACING)  # partner one lane-width to the left
        ids = [f"s{scene_idx}-l{2 * pair + m}" for m in range(len(members))]
        split = spec.split_pairs and pair % 2 == 0
        for m, lateral in enumerate(members):
            left = ids[m + 1] if m + 1 < len(members) else None
            right = ids[m - 1] if m - 1 >= 0 else None
            pts = geom.polyline(lateral)
            if split:
                half = len(pts) // 2
                for part, chunk in (("a", pts[:half + 1]), ("b", pts[half:])):
                    lanes.append(Lane(
                        lane_id=f"{ids[m]}{part}",
                        centerline=chunk,
                        left_lane_id=f"{left}{part}" if left else None,
                        right_lane_id=f"{right}{part}" if right else None))
            else:
                lanes.append(Lane(ids[m], pts, left, right))
            geoms.append((geom, lateral))
    return lanes, geoms


def _build_track(rng, spec, geom, lateral, agent_id, is_ego):
    speed = rng.uniform(SPEED_MIN, SPEED_MAX)
    s0 = rng.uniform(0.25 * LANE_LENGTH, 0.45 * LANE_LENGTH)
    past = []
    for t in range(spec.t_obs):
        s = s0 + speed * spec.dt * t
        x, y = geom.point(s, lateral)
        tx, ty = geom.tangent(s)
        if spec.noise > 0.0:
            x += rng.normal(0.0, spec.noise)
            y += rng.normal(0.0, spec.noise)
        past.append((t, AgentState(x, y, speed * tx, speed * ty,
                                   _wrap_heading(math.atan2(ty, tx)))))
    last = past[-1][1]
    future = []
    if geom.is_arc:
        s_last = s0 + speed * spec.dt * (spec.t_obs - 1)
        for k in range(1, spec.t_f + 1):
            future.append(geom.point(s_last + speed * spec.dt * k, lateral))
    else:
        # constant velocity: future[k] = last observed + k*dt*velocity, exactly
        for k in range(1, spec.t_f + 1):
            future.append((last.x + k * spec.dt * last.vx,
                           last.y + k * spec.dt * last.vy))
    return AgentTrack(agent_id=agent_id, past=past, future=future, is_ego=is_ego)


def generate_synthetic(spec, seed):
    """Generate `spec.scenes` scenes; identical output for identical seeds."""
    # refuse, before any draw, a spec whose scenes load_scenes would refuse
    validate_scene(Scene("synth-0000", spec.t_obs, spec.t_f, spec.dt, ORIGIN_GEOMETRIC_CENTER))
    if not math.isfinite(spec.noise):
        raise ConfigError(f"noise must be finite, got {spec.noise!r}")
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(spec.scenes):
        lanes, geoms = _build_lanes(rng, spec, i)
        tracks = []
        for a in range(spec.agents):
            geom, lateral = geoms[a % len(geoms)] if geoms else (_LaneGeometry(rng, False), 0.0)
            tracks.append(_build_track(
                rng, spec, geom, lateral, agent_id=f"s{i}-a{a}", is_ego=(a == 0)))
        scene = Scene(
            scene_id=f"synth-{i:04d}", t_obs=spec.t_obs, t_f=spec.t_f, dt=spec.dt,
            origin_rule=ORIGIN_GEOMETRIC_CENTER, tracks=tracks, lanes=lanes)
        scene.segments = build_segments(scene, spec.segment_len)
        scenes.append(scene)
    return scenes
