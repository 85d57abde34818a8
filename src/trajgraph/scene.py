"""Scenario data model and the neutral line-delimited scenario format.

One scene per line, JSON-encoded, fields:
  scene_id, t_obs, t_f, dt, origin_rule,
  tracks[{agent_id, is_ego, past[[t,x,y,vx,vy,heading]], future[[x,y]]}],
  lanes[{lane_id, left_lane_id?, right_lane_id?, centerline[[x,y]]}]
Units are meters, seconds, radians; encoding UTF-8.

Loading a record parses it, validates the scene once, cuts each lane
centerline into fixed-length chords by array code, then checks only the new
chords. The chords stay arrays from the cut to the graph, in one Segments
record per scene. Normalization translates a scene into its local frame and
crops it to the 160 m x 160 m region of interest.
"""

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

CROP_HALF_EXTENT = 80.0  # meters; the region of interest is a 160 m square
DEFAULT_SEGMENT_LEN = 3.0
MAX_LANE_SEGMENTS = 10_000  # 30 km at the default length; bounds load time and memory

ORIGIN_EGO_LAST_STEP = "ego-last-step"
ORIGIN_GEOMETRIC_CENTER = "geometric-center"
ORIGIN_RULES = (ORIGIN_EGO_LAST_STEP, ORIGIN_GEOMETRIC_CENTER)


@dataclass
class AgentState:
    x: float
    y: float
    vx: float
    vy: float
    heading: float


@dataclass
class AgentTrack:
    agent_id: str
    past: list  # list of (timestep, AgentState), timesteps strictly increasing
    future: list  # list of (x, y) of length t_f, or None
    is_ego: bool = False

    def state_at(self, t):
        for step, state in self.past:
            if step == t:
                return state
        return None


@dataclass
class Lane:
    lane_id: str
    centerline: list  # list of (x, y), at least two points
    left_lane_id: str = None
    right_lane_id: str = None


@dataclass(eq=False)
class Segments:
    """Every chord of a scene, lane by lane in chord order. Neighbour lanes
    are read from Scene.lanes, not stored per chord."""
    feats: np.ndarray  # [N, 4] float64 chord midpoint and vector (x, y, dx, dy)
    lane: np.ndarray   # [N] int64 index of the chord's lane in Scene.lanes
    index: np.ndarray  # [N] int64 position of the chord along its lane

    def __eq__(self, other):
        return all(map(np.array_equal, (self.feats, self.lane, self.index),
                       (other.feats, other.lane, other.index)))


def _no_segments():
    return Segments(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@dataclass
class Scene:
    scene_id: str
    t_obs: int
    t_f: int
    dt: float
    origin_rule: str
    tracks: list = field(default_factory=list)
    lanes: list = field(default_factory=list)
    segments: Segments = field(default_factory=_no_segments)


def _require(cond, scene_id, field_name, message, *args):
    """Raise when cond fails; the message is formatted with args only then."""
    if not cond:
        raise ValidationError(
            f"scene {scene_id!r}, field {field_name!r}: {message.format(*args)}")


def _finite(*values):
    return all(map(math.isfinite, values))


def validate_scene(scene):
    """Enforce the data-model invariants; raises ValidationError."""
    _require(scene.t_obs >= 1, scene.scene_id, "t_obs", "must be >= 1")
    _require(scene.t_f >= 0, scene.scene_id, "t_f", "must be >= 0")
    _require(scene.dt > 0 and math.isfinite(scene.dt), scene.scene_id, "dt", "must be positive")
    _require(scene.origin_rule in ORIGIN_RULES, scene.scene_id, "origin_rule",
             "must be one of {}", ORIGIN_RULES)
    seen_agents = set()
    for track in scene.tracks:
        fld = f"tracks[{track.agent_id}]"
        _require(track.agent_id not in seen_agents, scene.scene_id, fld, "duplicate agent_id")
        seen_agents.add(track.agent_id)
        _require(len(track.past) >= 1, scene.scene_id, fld, "past must have at least one state")
        prev = -1
        for t, s in track.past:
            # one test that passes exactly when the four checks below do: t >
            # prev >= -1 gives t >= 0, a finite sum needs finite terms and the
            # heading range holds no non-finite value; the checks run only to
            # report the first failure
            if not (isinstance(t, int) and prev < t < scene.t_obs
                    and math.isfinite(s.x + s.y + s.vx + s.vy)
                    and -math.pi < s.heading <= math.pi):
                _require(isinstance(t, int) and 0 <= t < scene.t_obs, scene.scene_id, fld,
                         "timestep {} outside [0, {})", t, scene.t_obs)
                _require(t > prev, scene.scene_id, fld,
                         "past timesteps must be strictly increasing")
                _require(_finite(s.x, s.y, s.vx, s.vy, s.heading), scene.scene_id, fld,
                         "non-finite state")
                _require(-math.pi < s.heading <= math.pi, scene.scene_id, fld,
                         "heading {} outside (-pi, pi]", s.heading)
            prev = t
        if track.future is not None:
            _require(len(track.future) == scene.t_f, scene.scene_id, fld,
                     "future length {} != t_f {}", len(track.future), scene.t_f)
            _require(_finite(*chain.from_iterable(track.future)), scene.scene_id, fld,
                     "non-finite future position")
    seen_lanes = set()
    for lane in scene.lanes:
        fld = f"lanes[{lane.lane_id}]"
        _require(lane.lane_id not in seen_lanes, scene.scene_id, fld, "duplicate lane_id")
        seen_lanes.add(lane.lane_id)
        _require(len(lane.centerline) >= 2, scene.scene_id, fld, "centerline needs >= 2 points")
        _require(_finite(*chain.from_iterable(lane.centerline)), scene.scene_id, fld,
                 "non-finite centerline point")


def segment_centerline(polyline, target_len, lane_id=""):
    """Resample a polyline by arc length into chords of ~target_len meters.

    Cut points sit every target_len meters of arc length; the last chord
    takes whatever remains (and may be shorter). Returns one (x, y, dx, dy)
    row per chord: the chord midpoint and the chord vector as direction.
    """
    if len(polyline) < 2:
        raise ValidationError(f"lane {lane_id!r}: polyline needs >= 2 points")
    if not target_len > 0:
        raise ValidationError(f"lane {lane_id!r}: target_len must be positive")
    pts = np.asarray(polyline, dtype=np.float64)
    deltas = np.diff(pts, axis=0)
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(cumulative[-1])
    if total <= 0.0:
        raise ValidationError(f"lane {lane_id!r}: degenerate polyline (zero length)")
    if total > MAX_LANE_SEGMENTS * target_len:
        raise ValidationError(f"lane {lane_id!r}: {total:.3g} m, over {MAX_LANE_SEGMENTS} segments")

    # a cut s in (0, total) has cumulative[i] <= s < cumulative[i+1]: its piece is not empty
    cuts = np.cumsum(np.full(int(total / target_len) + 2, target_len, dtype=np.float64))
    cuts = cuts[cuts < total - 1e-9]
    i = np.searchsorted(cumulative, cuts, side="right") - 1
    frac = (cuts - cumulative[i]) / lengths[i]
    points = np.concatenate([pts[:1], pts[i] + frac[:, None] * deltas[i], pts[-1:]])
    return np.concatenate([(points[:-1] + points[1:]) / 2.0, points[1:] - points[:-1]], axis=1)


def build_segments(scene, segment_len=DEFAULT_SEGMENT_LEN):
    rows = [segment_centerline(lane.centerline, segment_len, lane.lane_id)
            for lane in scene.lanes]
    lane = np.repeat(np.arange(len(rows), dtype=np.int64), [r.shape[0] for r in rows])
    index = np.arange(lane.shape[0], dtype=np.int64) - np.searchsorted(lane, lane)
    return Segments(np.concatenate(rows + [np.zeros((0, 4))]), lane, index)


# --- scenario file IO -----------------------------------------------------

def _track_to_record(track):
    rec = {
        "agent_id": track.agent_id,
        "is_ego": track.is_ego,
        "past": [[t, s.x, s.y, s.vx, s.vy, s.heading] for t, s in track.past],
    }
    rec["future"] = [[x, y] for x, y in track.future] if track.future is not None else None
    return rec


def _lane_to_record(lane):
    rec = {"lane_id": lane.lane_id}
    if lane.left_lane_id is not None:
        rec["left_lane_id"] = lane.left_lane_id
    if lane.right_lane_id is not None:
        rec["right_lane_id"] = lane.right_lane_id
    rec["centerline"] = [[x, y] for x, y in lane.centerline]
    return rec


def scene_to_record(scene):
    return {
        "scene_id": scene.scene_id,
        "t_obs": scene.t_obs,
        "t_f": scene.t_f,
        "dt": scene.dt,
        "origin_rule": scene.origin_rule,
        "tracks": [_track_to_record(t) for t in scene.tracks],
        "lanes": [_lane_to_record(l) for l in scene.lanes],
    }


def _record_to_scene(rec, line_no, segment_len):
    try:
        tracks = []
        for tr in rec["tracks"]:
            past = []
            for row in tr["past"]:
                if len(row) != 6 or row[0] != int(row[0]):
                    raise ParseError(f"line {line_no}: bad past row {row!r}")
                past.append((int(row[0]), AgentState(*map(float, row[1:]))))
            future = tr.get("future")
            if future is not None:
                future = [(float(x), float(y)) for x, y in future]
            if not isinstance(tr["is_ego"], bool):
                raise ParseError(f"line {line_no}: is_ego must be true or false, "
                                 f"got {tr['is_ego']!r:.40}")
            tracks.append(AgentTrack(
                agent_id=str(tr["agent_id"]), past=past, future=future, is_ego=tr["is_ego"]))
        lanes = [Lane(
            lane_id=str(ln["lane_id"]),
            centerline=[(float(x), float(y)) for x, y in ln["centerline"]],
            left_lane_id=ln.get("left_lane_id"),
            right_lane_id=ln.get("right_lane_id")) for ln in rec["lanes"]]
        for side in [s for lane in lanes for s in (lane.left_lane_id, lane.right_lane_id)]:
            if side is not None and not isinstance(side, str):
                raise ParseError(f"line {line_no}: lane neighbour ids must be strings or null, "
                                 f"got {side!r:.40}")
        scene = Scene(
            scene_id=str(rec["scene_id"]), t_obs=int(rec["t_obs"]), t_f=int(rec["t_f"]),
            dt=float(rec["dt"]), origin_rule=str(rec["origin_rule"]),
            tracks=tracks, lanes=lanes)
    except ParseError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"line {line_no}: malformed scene record ({exc})") from exc
    validate_scene(scene)
    segs = scene.segments = build_segments(scene, segment_len)
    zero = np.flatnonzero(~segs.feats[:, 2:].any(axis=1))
    if zero.size:
        k = zero[0]
        _require(False, scene.scene_id, f"segments[{scene.lanes[segs.lane[k]].lane_id}:"
                 f"{segs.index[k]}]", "zero direction vector")
    return scene


def load_scenes(path, segment_len=DEFAULT_SEGMENT_LEN):
    """Read a scenario file; raises ParseError/ValidationError on bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file {path} is not UTF-8 text") from exc
    scenes = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        scenes.append(_record_to_scene(rec, line_no, segment_len))
    return scenes


def save_scenes(scenes, path):
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(json.dumps(scene_to_record(scene), allow_nan=False))
            fh.write("\n")


# --- normalization --------------------------------------------------------

def _scene_origin(scene, rule):
    if rule == ORIGIN_EGO_LAST_STEP:
        egos = [t for t in scene.tracks if t.is_ego]
        if len(egos) != 1:
            raise ConfigError(
                f"scene {scene.scene_id!r}: ego-last-step needs exactly one ego track, "
                f"found {len(egos)}")
        state = egos[0].state_at(scene.t_obs - 1)
        if state is None:
            raise ConfigError(
                f"scene {scene.scene_id!r}: ego track has no state at t_obs-1")
        return state.x, state.y
    if rule == ORIGIN_GEOMETRIC_CENTER:
        xs, ys, count = 0.0, 0.0, 0
        for track in scene.tracks:
            for _, state in track.past:
                xs += state.x
                ys += state.y
                count += 1
        if count == 0:
            return 0.0, 0.0
        return xs / count, ys / count
    raise ConfigError(f"unknown origin rule {rule!r}")


def _inside_crop(x, y):
    return abs(x) <= CROP_HALF_EXTENT and abs(y) <= CROP_HALF_EXTENT


def normalize_scene(scene):
    """Translate the scene so its `origin_rule`'s origin is (0,0), then crop.

    Pure translation: velocities, headings and direction vectors are
    untouched. A track is dropped only if its state at t_obs-1 lies outside
    the crop square; map segments are dropped by midpoint.
    """
    ox, oy = _scene_origin(scene, scene.origin_rule)
    # sub-nanometer origins are noise from re-averaging an already-centered
    # scene; snapping keeps normalization exactly idempotent
    if abs(ox) < 1e-9:
        ox = 0.0
    if abs(oy) < 1e-9:
        oy = 0.0

    tracks = []
    for track in scene.tracks:
        past = [(t, AgentState(s.x - ox, s.y - oy, s.vx, s.vy, s.heading))
                for t, s in track.past]
        future = None
        if track.future is not None:
            future = [(x - ox, y - oy) for x, y in track.future]
        moved = AgentTrack(track.agent_id, past, future, track.is_ego)
        last = moved.state_at(scene.t_obs - 1)
        if last is not None and not _inside_crop(last.x, last.y):
            continue
        tracks.append(moved)

    feats = scene.segments.feats - np.array([ox, oy, 0.0, 0.0])
    keep = (np.abs(feats[:, :2]) <= CROP_HALF_EXTENT).all(axis=1)
    segments = Segments(feats[keep], scene.segments.lane[keep], scene.segments.index[keep])

    lanes = [Lane(l.lane_id, [(x - ox, y - oy) for x, y in l.centerline],
                  l.left_lane_id, l.right_lane_id) for l in scene.lanes]

    return Scene(scene.scene_id, scene.t_obs, scene.t_f, scene.dt, scene.origin_rule,
                 tracks=tracks, lanes=lanes, segments=segments)
