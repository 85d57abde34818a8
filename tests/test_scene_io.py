import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajgraph import scene as scene_mod
from trajgraph.errors import ConfigError, ParseError, ValidationError
from trajgraph.scene import (
    AgentState, AgentTrack, Lane, Scene, build_segments, load_scenes,
    normalize_scene, save_scenes, segment_centerline,
)
from trajgraph.synthetic import SyntheticSpec, generate_synthetic

from oracles import polyline_arc_length, segment_centerline_by_loop


def make_scene(tracks, lanes=(), scene_id="s0", t_obs=3, t_f=2, dt=0.1,
               origin_rule="geometric-center"):
    scene = Scene(scene_id, t_obs, t_f, dt, origin_rule,
                  tracks=list(tracks), lanes=list(lanes))
    scene.segments = build_segments(scene)
    return scene


def straight_track(agent_id, x0=0.0, y0=0.0, vx=1.0, vy=0.0, t_obs=3, t_f=2,
                   dt=0.1, is_ego=False):
    past = [(t, AgentState(x0 + vx * dt * t, y0 + vy * dt * t, vx, vy, 0.0))
            for t in range(t_obs)]
    lx, ly = past[-1][1].x, past[-1][1].y
    future = [(lx + vx * dt * k, ly + vy * dt * k) for k in range(1, t_f + 1)]
    return AgentTrack(agent_id, past, future, is_ego)


# --- file format ----------------------------------------------------------

def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_scenes(path) == []


def test_round_trip_identity(tmp_path):
    spec = SyntheticSpec(scenes=3, agents=2, lanes=2, t_obs=4, t_f=5, dt=0.1, noise=0.1)
    scenes = generate_synthetic(spec, seed=9)
    path = tmp_path / "scenes.jsonl"
    save_scenes(scenes, path)
    reloaded = load_scenes(path, segment_len=spec.segment_len)
    assert reloaded == scenes


def test_future_length_mismatch_rejected(tmp_path):
    track = straight_track("a0", t_f=2)
    track.future = track.future[:1]
    scene = Scene("bad", 3, 2, 0.1, "geometric-center", tracks=[track])
    path = tmp_path / "bad.jsonl"
    save_scenes([scene], path)
    with pytest.raises(ValidationError, match="bad.*future"):
        load_scenes(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{ not json }\n")
    with pytest.raises(ParseError, match="line 1"):
        load_scenes(path)


def test_missing_field_is_parse_error(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text(json.dumps({"scene_id": "x"}) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        load_scenes(path)


def test_bad_past_row_message_passes_through(tmp_path):
    scene = make_scene([straight_track("a0")])
    path = tmp_path / "short_row.jsonl"
    save_scenes([scene], path)
    rec = json.loads(path.read_text())
    rec["tracks"][0]["past"][1] = rec["tracks"][0]["past"][1][:5]
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match=r"^line 1: bad past row \[1, "):
        load_scenes(path)


def test_non_finite_position_rejected(tmp_path):
    scene = make_scene([straight_track("a0")])
    rec = json.loads(json.dumps({
        "scene_id": "s0", "t_obs": 3, "t_f": 2, "dt": 0.1,
        "origin_rule": "geometric-center",
        "tracks": [{"agent_id": "a0", "is_ego": False,
                    "past": [[0, 0.0, 0.0, 1.0, 0.0, 0.0]], "future": None}],
        "lanes": []}))
    rec["tracks"][0]["past"][0][1] = float("nan")
    path = tmp_path / "nan.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="non-finite"):
        load_scenes(path)
    del scene


def _first_past_state_error(t_obs, past):
    """validate_scene's four per-state checks one by one, in its order."""
    prev = -1
    for t, s in past:
        if not (isinstance(t, int) and 0 <= t < t_obs):
            return f"timestep {t} outside [0, {t_obs})"
        if not t > prev:
            return "past timesteps must be strictly increasing"
        prev = t
        if not all(map(math.isfinite, (s.x, s.y, s.vx, s.vy, s.heading))):
            return "non-finite state"
        if not -math.pi < s.heading <= math.pi:
            return f"heading {s.heading} outside (-pi, pi]"
    return None


_VALUES = st.sampled_from([0.0, -2.5, 1e308, -1e308, math.nan, math.inf, -math.inf])
_HEADINGS = st.sampled_from([0.0, math.pi, -math.pi, math.nextafter(-math.pi, 0.0), 3.5,
                             math.nan, -math.inf])
_PAST_STATES = st.tuples(st.sampled_from([-1, 0, 1, 2, 3, 2.0]),
                         st.builds(AgentState, _VALUES, _VALUES, _VALUES, _VALUES, _HEADINGS))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAST_STATES, min_size=1, max_size=3))
def test_past_state_checks_report_the_first_failure(past):
    # validate_scene tests a past state at once and checks one by one only
    # when that fails; finite values whose sum overflows must still pass
    scene = make_scene([AgentTrack("a0", past, None)], t_obs=3)
    want = _first_past_state_error(3, past)
    if want is None:
        scene_mod.validate_scene(scene)
    else:
        with pytest.raises(ValidationError) as err:
            scene_mod.validate_scene(scene)
        assert str(err.value) == f"scene 's0', field 'tracks[a0]': {want}"


def test_duplicate_agent_id_rejected(tmp_path):
    scene = make_scene([straight_track("a0"), straight_track("a0", y0=5.0)])
    path = tmp_path / "dup.jsonl"
    save_scenes([scene], path)
    with pytest.raises(ValidationError, match="duplicate agent_id"):
        load_scenes(path)


def test_load_validates_each_scene_once(tmp_path, monkeypatch):
    spec = SyntheticSpec(scenes=3, agents=2, lanes=2, t_obs=4, t_f=3, dt=0.1)
    path = tmp_path / "scenes.jsonl"
    save_scenes(generate_synthetic(spec, seed=2), path)
    calls = []
    validate = scene_mod.validate_scene
    monkeypatch.setattr(scene_mod, "validate_scene",
                        lambda scene: calls.append(scene.scene_id) or validate(scene))
    load_scenes(path)
    assert calls == ["synth-0000", "synth-0001", "synth-0002"]


def test_zero_chord_rejected(tmp_path):
    # out and back: the lane's one 3 m chord starts and ends at the origin
    scene = make_scene([straight_track("a0")],
                       [Lane("l", [(0.0, 0.0), (1.5, 0.0), (0.0, 0.0)])])
    path = tmp_path / "scenes.jsonl"
    save_scenes([scene], path)
    with pytest.raises(ValidationError, match=r"segments\[l:0\].*zero direction vector"):
        load_scenes(path, segment_len=3.0)


# --- normalization --------------------------------------------------------

def test_centered_scene_unchanged():
    tracks = [straight_track("a0", x0=-5.0, y0=-5.0),
              straight_track("a1", x0=5.0 - 0.2, y0=10.0)]
    # shift a1 so the mean of all past positions is exactly zero
    sum_x = sum(s.x for t in tracks for _, s in t.past)
    sum_y = sum(s.y for t in tracks for _, s in t.past)
    n = sum(len(t.past) for t in tracks)
    tracks[1] = straight_track("a1", x0=tracks[1].past[0][1].x - sum_x / n * n / len(tracks[1].past),
                               y0=tracks[1].past[0][1].y - sum_y / n * n / len(tracks[1].past))
    scene = make_scene(tracks)
    norm = normalize_scene(scene)
    ox = sum(s.x for t in norm.tracks for _, s in t.past)
    oy = sum(s.y for t in norm.tracks for _, s in t.past)
    assert abs(ox) < 1e-9 and abs(oy) < 1e-9


def test_single_agent_translated_to_origin():
    track = straight_track("a0", x0=500.0, y0=0.0, vx=0.0, vy=0.0, t_obs=1, t_f=0)
    scene = make_scene([track], t_obs=1, t_f=0)
    norm = normalize_scene(scene)
    assert len(norm.tracks) == 1
    state = norm.tracks[0].past[0][1]
    assert (state.x, state.y) == (0.0, 0.0)


def test_segment_outside_crop_dropped():
    lane = Lane("l0", [(78.0, 0.0), (84.0, 0.0)])  # one 6 m lane, midpoint 81
    track = straight_track("a0", x0=0.0, t_obs=1, t_f=0, vx=0.0)
    scene = make_scene([track], [lane], t_obs=1, t_f=0)
    scene.segments = build_segments(scene, segment_len=6.0)
    assert scene.segments.feats.tolist() == [[81.0, 0.0, 6.0, 0.0]]
    norm = normalize_scene(scene)
    assert norm.segments.feats.shape == (0, 4) and norm.segments.lane.shape == (0,)


def test_track_outside_crop_dropped():
    near = straight_track("a0", x0=0.0, vx=0.0)
    far = straight_track("a1", x0=300.0, vx=0.0)
    scene = make_scene([near, far], origin_rule="ego-last-step")
    scene.tracks[0].is_ego = True
    norm = normalize_scene(scene)
    assert [t.agent_id for t in norm.tracks] == ["a0"]


def test_ego_rule_requires_single_ego():
    scene = make_scene([straight_track("a0")], origin_rule="ego-last-step")
    with pytest.raises(ConfigError, match="ego"):
        normalize_scene(scene)


def test_normalization_is_pure_translation():
    rng = np.random.default_rng(4)
    tracks = [straight_track(f"a{i}", x0=rng.uniform(-30, 30), y0=rng.uniform(-30, 30),
                             vx=rng.uniform(-5, 5), vy=rng.uniform(-5, 5))
              for i in range(4)]
    scene = make_scene(tracks)
    norm = normalize_scene(scene)
    before = [(s.x, s.y) for t in scene.tracks for _, s in t.past]
    after = [(s.x, s.y) for t in norm.tracks for _, s in t.past]
    for (x1, y1), (x2, y2) in zip(before, after):
        for (x3, y3), (x4, y4) in zip(before, after):
            d_before = math.hypot(x1 - x3, y1 - y3)
            d_after = math.hypot(x2 - x4, y2 - y4)
            assert abs(d_before - d_after) < 1e-9
    for t_old, t_new in zip(scene.tracks, norm.tracks):
        for (_, s_old), (_, s_new) in zip(t_old.past, t_new.past):
            assert (s_old.vx, s_old.vy, s_old.heading) == (s_new.vx, s_new.vy, s_new.heading)


def test_normalize_idempotent():
    spec = SyntheticSpec(scenes=4, agents=3, lanes=2, t_obs=5, t_f=4, dt=0.1, noise=0.2)
    for scene in generate_synthetic(spec, seed=2):
        once = normalize_scene(scene)
        twice = normalize_scene(once)
        assert twice == once


# --- centerline segmentation ----------------------------------------------

def test_straight_line_uniform_chords():
    segs = segment_centerline([(0.0, 0.0), (10.0, 0.0)], 2.0, "l")
    assert segs.shape == (5, 4)
    assert segs[:, 2] == pytest.approx([2.0] * 5, abs=1e-12)
    assert (segs[:, 3] == 0.0).all()


def test_short_polyline_single_chord():
    segs = segment_centerline([(0.0, 0.0), (1.0, 0.0)], 2.0, "l")
    assert segs[:, 2:].tolist() == [[1.0, 0.0]]


def test_quarter_circle_chord_length():
    arc = [(10.0 * math.cos(a), 10.0 * math.sin(a))
           for a in np.linspace(0.0, math.pi / 2.0, 200)]
    segs = segment_centerline(arc, 1.0, "arc")
    chord_sum = float(np.hypot(segs[:, 2], segs[:, 3]).sum())
    true_len = 10.0 * math.pi / 2.0
    assert abs(chord_sum - true_len) / true_len < 0.01
    assert abs(polyline_arc_length(arc) - true_len) / true_len < 0.01


def test_segmentation_covers_polyline():
    pts = [(0.0, 0.0), (3.0, 4.0), (9.0, 4.0)]
    segs = segment_centerline(pts, 2.5, "l")
    start = segs[:, :2] - 0.5 * segs[:, 2:]
    end = segs[:, :2] + 0.5 * segs[:, 2:]
    assert start[0].tolist() == [0.0, 0.0]
    assert abs(end[-1, 0] - 9.0) < 1e-9 and abs(end[-1, 1] - 4.0) < 1e-9
    assert (end[:-1] == start[1:]).all()


def test_degenerate_polyline_rejected():
    with pytest.raises(ValidationError, match="degenerate"):
        segment_centerline([(1.0, 1.0), (1.0, 1.0)], 2.0, "l")


def test_overlong_lane_rejected():
    # finite but far-flung points made the resampling loop run without end
    assert len(segment_centerline([(0.0, 0.0), (30000.0, 0.0)], 3.0, "l")) == 10000
    for pts, step in (([(0.0, 0.0), (30003.1, 0.0)], 3.0), ([(0.0, 0.0), (1e300, 0.0)], 3.0),
                      ([(-1e308, 0.0), (1e308, 0.0)], 3.0), ([(0.0, 0.0), (1.0, 0.0)], 1e-9)):
        with pytest.raises(ValidationError, match="over 10000 segments"), \
                np.errstate(over="ignore"):  # the +-1e308 chord overflows to inf
            segment_centerline(pts, step, "l")


_COORD = st.floats(-50.0, 50.0) | st.integers(-40, 40).map(float)
_TARGET_LEN = st.floats(0.1, 30.0) | st.integers(1, 12)


@st.composite
def _free_polylines(draw):
    """Polylines of up to 8 distinct points, each repeated up to 3 times."""
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    return [p for p, r in zip(points, repeats) for _ in range(r)], draw(_TARGET_LEN)


@st.composite
def _multiple_polylines(draw):
    """Straight lines whose length is an exact multiple of target_len or
    within 2e-9 of one, split at up to four drawn fractions (repeats included)."""
    target = draw(_TARGET_LEN)
    nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9]))
    length = draw(st.integers(1, 40)) * target + nudge
    ux, uy = draw(st.sampled_from([(1.0, 0.0), (0.6, 0.8), (0.0, -1.0)]))
    x0, y0 = draw(_COORD), draw(_COORD)
    fracs = [0.0] + sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=4))) + [1.0]
    return [(x0 + f * length * ux, y0 + f * length * uy) for f in fracs], target


@st.composite
def _bound_polylines(draw):
    """Two-point lines around the 10,000-chord bound."""
    target = draw(st.floats(0.01, 5.0) | st.integers(1, 3))
    chords = draw(st.integers(9_999, 10_001))
    nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.5]))
    return [(0.0, 0.0), ((chords + nudge) * target, 0.0)], target


def _bits(chords):
    return [[(type(v), v.hex() if isinstance(v, float) else v) for v in c] for c in chords]


def test_segment_centerline_matches_loop():
    """Cutting by array code gives the loop's chords bit for bit, the sign
    of zero included, or both reject the polyline. build_segments over a
    scene of several lanes gives the loop's chords concatenated over lanes,
    each tagged with its lane's position and its index along the lane."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_free_polylines() | _multiple_polylines() | _bound_polylines(),
           st.lists(_free_polylines() | _multiple_polylines(), max_size=3))
    def check(case, others):
        polyline, target = case
        expected = segment_centerline_by_loop(polyline, target)
        if expected is None:
            with pytest.raises(ValidationError):
                segment_centerline(polyline, target, "l")
        else:
            rows = segment_centerline(polyline, target, "l").tolist()
            assert _bits([row + [i] for i, row in enumerate(rows)]) == _bits(expected)

        lines = [polyline] + [line for line, _ in others]
        scene = Scene("s", 1, 0, 0.1, "geometric-center",
                      lanes=[Lane(f"l{k}", line) for k, line in enumerate(lines)])
        per_lane = [segment_centerline_by_loop(line, target) for line in lines]
        if any(chords is None for chords in per_lane):
            with pytest.raises(ValidationError):
                build_segments(scene, target)
            return
        segs = build_segments(scene, target)
        got = [row + [lane, index] for row, lane, index in
               zip(segs.feats.tolist(), segs.lane.tolist(), segs.index.tolist())]
        assert _bits(got) == _bits([chord[:4] + (k, chord[4])
                                    for k, chords in enumerate(per_lane) for chord in chords])

    check()


# --- synthetic generation ---------------------------------------------------

def test_synthetic_deterministic():
    spec = SyntheticSpec(scenes=2, agents=3, lanes=2, t_obs=4, t_f=3, dt=0.1, noise=0.3)
    assert generate_synthetic(spec, seed=5) == generate_synthetic(spec, seed=5)


def test_synthetic_counts():
    spec = SyntheticSpec(scenes=8, agents=4, lanes=2, t_obs=4, t_f=3, dt=0.1)
    scenes = generate_synthetic(spec, seed=1)
    assert len(scenes) == 8
    assert sum(len(s.tracks) for s in scenes) == 32


def test_synthetic_constant_velocity_future():
    spec = SyntheticSpec(scenes=2, agents=3, lanes=2, t_obs=5, t_f=6, dt=0.1,
                         noise=0.0, curved=False)
    for scene in generate_synthetic(spec, seed=3):
        for track in scene.tracks:
            last = track.past[-1][1]
            for k, (x, y) in enumerate(track.future, start=1):
                assert x == last.x + k * spec.dt * last.vx
                assert y == last.y + k * spec.dt * last.vy


def test_synthetic_curved_scenes_validate():
    spec = SyntheticSpec(scenes=3, agents=2, lanes=3, t_obs=4, t_f=3, dt=0.1,
                         noise=0.1, curved=True)
    scenes = generate_synthetic(spec, seed=11)
    assert all(s.segments.feats.size for s in scenes)
    names = {l.lane_id for s in scenes for l in s.lanes}
    assert len(names) == sum(len(s.lanes) for s in scenes)
