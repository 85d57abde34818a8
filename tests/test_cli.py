import copy
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajgraph
from trajgraph.cli import main
from trajgraph.config import (
    RunConfig, load_config, run_config_from_dict, save_config,
)
from trajgraph.errors import CheckpointError, ConfigError, ParseError, ValidationError
from trajgraph.graph import GraphConfig, build_graph
from trajgraph.losses import LossConfig, supervision_mask
from trajgraph.metrics import aggregate_reports, compute_metrics
from trajgraph.model import (
    CHECKPOINT_MAGIC, ModelConfig, ModelParameters, expected_parameter_specs, init_parameters,
    load_checkpoint, save_checkpoint,
)
from trajgraph.optim import OptimConfig
from trajgraph.scene import load_scenes, normalize_scene
from trajgraph.train import prepare_samples

from oracles import relation_names


def tiny_run_config(**model_kw):
    model = dict(f=8, heads=2, modes=2, t_f=3, t_obs=3, dilation=2)
    model.update(model_kw)
    return RunConfig(
        graph=GraphConfig(dilation=2),
        model=ModelConfig(**model),
        loss=LossConfig(),
        optim=OptimConfig(epochs=2, batch_size=4, weight_decay=0.001),
        seed=3,
    )


def gen_data(tmp_path, name="data.jsonl", scenes=2, agents=2, seed=5, noise=0.1):
    path = tmp_path / name
    rc = main(["gen-synthetic", "--scenes", str(scenes), "--agents", str(agents),
               "--lanes", "2", "--t-obs", "3", "--t-f", "3", "--dt", "0.1",
               "--noise", str(noise), "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def train_run(tmp_path, data, cfg=None, out="run", seed=None):
    out_dir = tmp_path / out
    cfg = cfg or tiny_run_config()
    cfg_path = tmp_path / f"{out}_config.json"
    save_config(cfg, cfg_path)
    argv = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out_dir


# --- config -----------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = tiny_run_config()
    cfg.data = "some/path.jsonl"
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        run_config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="model"):
        run_config_from_dict({"model": {"f": 8, "no_such": 2}})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


_JSON_OF_TYPE = {int: st.integers(), float: st.floats(), bool: st.booleans(),
                 str: st.none() | st.text(max_size=4)}


def _json_objects(cls):
    """JSON objects keyed by some of cls's field names (sections nest), plus
    now and then an unknown key; each value is of the field's type about
    half the time, else any JSON."""
    optional = {f.name: (_json_objects(f.type) if is_dataclass(f.type) else _JSON_OF_TYPE[f.type])
                | _JSON_VALUES for f in fields(cls)}
    known = st.fixed_dictionaries({}, optional=optional)
    return known | st.builds(lambda d, k, v: {**d, k: v}, known, st.text(max_size=3), _JSON_VALUES)


def _assert_field_types(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(f.type):
            assert isinstance(value, f.type)
            _assert_field_types(value)
        elif f.type is float:
            assert type(value) in (int, float), (f.name, value)
        elif f.type is str:
            assert value is None or type(value) is str, (f.name, value)
        else:
            assert type(value) is f.type, (f.name, value)


def test_load_config_fuzz(tmp_path):
    """Any JSON document either loads into a RunConfig whose every field has
    its declared type, or raises an error the CLI maps to exit 2."""
    path = tmp_path / "config.json"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_json_objects(RunConfig) | _JSON_VALUES)
    def check(doc):
        path.write_text(json.dumps(doc))
        try:
            cfg = load_config(path)
        except (ConfigError, ValidationError):
            return
        _assert_field_types(cfg)

    check()


# a small valid scenario record: one ego track, one track that starts late,
# two neighbouring lanes
_SCENE_RECORD = {
    "scene_id": "s0", "t_obs": 2, "t_f": 2, "dt": 0.1, "origin_rule": "geometric-center",
    "tracks": [
        {"agent_id": "a0", "is_ego": True,
         "past": [[0, 0.0, 0.0, 1.0, 0.0, 0.0], [1, 0.1, 0.0, 1.0, 0.0, 0.0]],
         "future": [[0.2, 0.0], [0.3, 0.0]]},
        {"agent_id": "a1", "is_ego": False, "past": [[1, 2.0, 3.5, -1.0, 0.0, 3.0]],
         "future": [[1.9, 3.5], [1.8, 3.5]]},
    ],
    "lanes": [
        {"lane_id": "l0", "left_lane_id": "l1", "centerline": [[-6.0, 0.0], [6.0, 0.0]]},
        {"lane_id": "l1", "right_lane_id": "l0", "centerline": [[-6.0, 3.5], [6.0, 3.5]]},
    ],
}

_REMOVE = object()


def _json_paths(node, path=()):
    """The path of every subtree of a JSON tree, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_paths(child, path + (key,))


@st.composite
def _mutated_records(draw):
    """The record above with one to three subtrees replaced by any JSON
    value or removed."""
    doc = copy.deepcopy(_SCENE_RECORD)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        value = draw(_JSON_VALUES | st.just(_REMOVE)) if path else draw(_JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _REMOVE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def test_load_scenes_fuzz(tmp_path):
    """A mutated scenario record either becomes a training sample or raises
    an error the CLI maps to exit 2."""
    path = tmp_path / "scenes.jsonl"
    run_cfg = tiny_run_config(t_obs=2, t_f=2)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_mutated_records())
    def check(record):
        path.write_text(json.dumps(record) + "\n")
        try:
            prepare_samples(load_scenes(path), run_cfg)
        except (ParseError, ValidationError, ConfigError):
            return

    check()


def test_load_checkpoint_fuzz(tmp_path):
    """A truncated or byte-edited checkpoint either loads or raises
    CheckpointError."""
    cfg = ModelConfig(f=2, heads=1, modes=1, t_f=1, t_obs=1, dilation=1,
                      n_map_layers=1, n_fusion_layers=1)
    valid = tmp_path / "valid.bin"
    save_checkpoint(init_parameters(cfg, seed=0), valid)
    body = valid.read_bytes()
    path = tmp_path / "edited.bin"
    edits = st.lists(st.tuples(st.integers(0, len(body) - 1), st.binary(min_size=1, max_size=8)),
                     max_size=4)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(edits, st.integers(0, len(body)))
    def check(byte_edits, keep):
        edited = bytearray(body)
        for pos, new in byte_edits:
            edited[pos:pos + len(new)] = new
        path.write_bytes(bytes(edited[:keep]))
        try:
            assert isinstance(load_checkpoint(path, cfg), ModelParameters)
        except CheckpointError:
            return

    check()


# --- gen-synthetic ------------------------------------------------------------

def test_gen_counts(tmp_path, capsys):
    path = tmp_path / "scenes.jsonl"
    rc = main(["gen-synthetic", "--scenes", "8", "--agents", "4", "--out", str(path)])
    assert rc == 0
    assert "8 scenes, 32 tracks" in capsys.readouterr().out
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 8
    assert sum(len(json.loads(l)["tracks"]) for l in lines) == 32


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["gen-synthetic", "--scenes", "3", "--agents", "2", "--noise",
                     "0.2", "--seed", "11", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_zero_scenes(tmp_path):
    path = tmp_path / "none.jsonl"
    assert main(["gen-synthetic", "--scenes", "0", "--out", str(path)]) == 0
    assert path.read_text() == ""


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--t-obs", "0"], "field 't_obs': must be >= 1", id="t-obs-0"),
    pytest.param(["--dt", "nan"], "field 'dt': must be positive", id="dt-nan"),
    pytest.param(["--dt", "0"], "field 'dt': must be positive", id="dt-0"),
    pytest.param(["--dt", "-1"], "field 'dt': must be positive", id="dt-negative"),
    pytest.param(["--t-f", "-3"], "field 't_f': must be >= 0", id="t-f-negative"),
    pytest.param(["--noise", "inf"], "noise must be finite, got inf", id="noise-infinity"),
    pytest.param(["--scenes", "-3"], "scenes must be >= 0, got -3", id="scenes-negative"),
    pytest.param(["--agents", "-2"], "agents must be >= 0, got -2", id="agents-negative"),
    pytest.param(["--lanes", "-5"], "lanes must be >= 0, got -5", id="lanes-negative"),
    pytest.param(["--noise", "-1"], "noise must be >= 0, got -1.0", id="noise-negative"),
])
def test_gen_refuses_a_spec_load_would_refuse(tmp_path, flags, message):
    path = tmp_path / "bad.jsonl"
    rc, err = run_cli("gen-synthetic", "--scenes", "2", *flags, "--out", path)
    assert rc == 2 and "Traceback" not in err and len(err.splitlines()) == 1
    assert message in err and not path.exists()


# --- train ------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path):
    data = gen_data(tmp_path)
    cfg = tiny_run_config()
    cfg.optim.epochs = 1
    out = train_run(tmp_path, data, cfg)
    assert (out / "checkpoint_epoch_0000.bin").exists()
    assert (out / "checkpoint_final.bin").exists()
    assert (out / "config.json").exists()
    log = (out / "train_log.txt").read_text().strip().splitlines()
    assert len(log) == 1
    assert log[0].startswith("epoch=0 lr=0.001 ")


def test_train_lr_schedule_in_log(tmp_path):
    data = gen_data(tmp_path)
    cfg = tiny_run_config()
    cfg.optim.epochs = 6
    out = train_run(tmp_path, data, cfg, out="run_sched")
    rows = (out / "train_log.txt").read_text().strip().splitlines()
    lrs = [float(r.split()[1].split("=")[1]) for r in rows]
    assert lrs == [1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 5e-4]


def test_train_deterministic_checkpoint(tmp_path):
    data = gen_data(tmp_path)
    out1 = train_run(tmp_path, data, tiny_run_config(), out="runA")
    out2 = train_run(tmp_path, data, tiny_run_config(), out="runB")
    assert (out1 / "checkpoint_final.bin").read_bytes() == \
        (out2 / "checkpoint_final.bin").read_bytes()


def test_train_rejects_mismatched_t_obs(tmp_path):
    data = gen_data(tmp_path)
    cfg = tiny_run_config(t_obs=5)
    cfg_path = tmp_path / "bad.json"
    save_config(cfg, cfg_path)
    rc = main(["train", "--config", str(cfg_path), "--data", str(data),
               "--out", str(tmp_path / "bad_run")])
    assert rc == 2


# --- eval ---------------------------------------------------------------------

def test_eval_reproduces_final_logged_metrics(tmp_path, capsys):
    data = gen_data(tmp_path)
    out = train_run(tmp_path, data)
    capsys.readouterr()
    report = tmp_path / "report.jsonl"
    rc = main(["eval", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data", str(data), "--report", str(report)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    final_log = (out / "train_log.txt").read_text().strip().splitlines()[-1]
    logged_metrics = " ".join(final_log.split()[4:])
    assert printed == logged_metrics
    lines = [json.loads(l) for l in report.read_text().strip().splitlines()]
    assert lines[-1]["scene_id"] == "__aggregate__"
    assert len(lines) == 3  # two scenes + aggregate


def test_eval_reports_constant_velocity_row(tmp_path):
    # zero noise on straight lanes: every future is exactly constant velocity
    data = gen_data(tmp_path, noise=0.0)
    out = train_run(tmp_path, data)
    report = tmp_path / "report.jsonl"
    rc = main(["eval", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data", str(data), "--report", str(report)])
    assert rc == 0
    lines = [json.loads(l) for l in report.read_text().strip().splitlines()]
    assert [l["scene_id"] for l in lines] == ["synth-0000", "synth-0001", "__aggregate__"]
    for line in lines:
        assert set(line["cv"]) == {"minADE", "minFDE", "minMR", "minJADE", "minJFDE", "minJMR"}
        assert line["cv"]["minADE"] <= 1e-9 and line["cv"]["minFDE"] <= 1e-9


def test_eval_reports_graph_statistics(trained, tmp_path):
    out, data = trained
    report = tmp_path / "report.jsonl"
    rc = main(["eval", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data", str(data), "--report", str(report)])
    assert rc == 0
    cfg = load_config(out / "config.json")
    graphs = {scene.scene_id: build_graph(normalize_scene(scene), cfg.graph)
              for scene in load_scenes(data, cfg.segment_len)}
    lines = [json.loads(l) for l in report.read_text().strip().splitlines()]
    assert [l["scene_id"] for l in lines] == [*graphs, "__aggregate__"]
    assert "graph" not in lines[-1]
    for line in lines[:-1]:
        graph = graphs[line["scene_id"]]
        assert line["graph"] == {
            "agent_nodes": graph.n_agent_nodes, "map_nodes": graph.n_map_nodes,
            "edges": {name: int(pairs.shape[0]) for name, pairs in graph.edges.items()}}
        assert set(line["graph"]["edges"]) == set(relation_names(cfg.graph.dilation))


def test_eval_flag_mismatch_refused(tmp_path, capsys):
    """eval takes its model from the config beside the checkpoint and has no
    ablation flags; a config that drops the map branch of a full checkpoint
    is refused with a short message."""
    data = gen_data(tmp_path)
    out = train_run(tmp_path, data, out="run_full")
    argv = ["eval", "--checkpoint", str(out / "checkpoint_final.bin"),
            "--data", str(data), "--report", str(tmp_path / "r.jsonl")]
    assert main(argv + ["--no-map"]) == 1
    cfg = load_config(out / "config.json")
    full = set(expected_parameter_specs(cfg.model))
    cfg.model.use_map = False
    save_config(cfg, out / "config.json")
    extra = len(full - set(expected_parameter_specs(cfg.model)))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    # counts plus the first five paths of each kind, not every path
    assert f"missing 0, extra {extra} (" in err
    assert err.count("map_layer") + err.count("fusion_layer") <= 5
    assert len(err) < 400


# --- predict --------------------------------------------------------------------

def test_predict_exports(tmp_path, capsys):
    data = gen_data(tmp_path)
    out = train_run(tmp_path, data)
    capsys.readouterr()
    plot = tmp_path / "plot.jsonl"
    rc = main(["predict", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data", str(data), "--scene-id", "synth-0000", "--plot", str(plot)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scene_id"] == "synth-0000"
    assert len(payload["agents"]) == 2

    lines = [json.loads(l) for l in plot.read_text().strip().splitlines()]
    for agent in payload["agents"]:
        modes = [l for l in lines
                 if l.get("agent_id") == agent["agent_id"] and l["role"].startswith("mode-")]
        assert sorted(l["role"] for l in modes) == ["mode-0", "mode-1"]
        best = [l for l in lines
                if l.get("agent_id") == agent["agent_id"] and l["role"] == "best-mode"]
        assert len(best) == 1
        # best tag is the score argmax, and the export round-trips exactly
        best_mode = int(np.argmax(agent["scores"]))
        assert agent["best_mode"] == best_mode
        assert best[0]["points"] == agent["modes"][best_mode]
        for l in modes:
            k = int(l["role"].split("-")[1])
            assert l["points"] == agent["modes"][k]
    assert any(l["role"] == "map-node" for l in lines)
    assert any(l["role"] == "history" for l in lines)
    assert any(l["role"] == "gt" for l in lines)


def test_predict_unknown_scene(tmp_path):
    data = gen_data(tmp_path)
    out = train_run(tmp_path, data)
    rc = main(["predict", "--checkpoint", str(out / "checkpoint_final.bin"),
               "--data", str(data), "--scene-id", "nope", "--plot",
               str(tmp_path / "p.jsonl")])
    assert rc == 2


# --- exit codes --------------------------------------------------------------

def test_usage_error_exit_code():
    assert main(["gen-synthetic"]) == 1          # missing --out
    assert main(["no-such-command"]) == 1
    assert main(["train", "--data", "x"]) == 1   # missing --out


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{ not json }\n")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_zero_chord_lane_exit_code(tmp_path, capsys):
    rec = copy.deepcopy(_SCENE_RECORD)
    rec["lanes"] = [{"lane_id": "l", "centerline": [[0.0, 0.0], [1.5, 0.0], [0.0, 0.0]]}]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rec) + "\n")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "segments[l:0]" in err and "zero direction vector" in err


def test_missing_config_beside_checkpoint(tmp_path):
    ckpt = tmp_path / "lonely.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC)
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", "x",
               "--report", str(tmp_path / "r.jsonl")])
    assert rc == 2


# --- exit codes of the command-line process ----------------------------------

def run_cli(*argv):
    """Run the CLI in its own process; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trajgraph.__file__)))
    proc = subprocess.run([sys.executable, "-m", "trajgraph.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny trained run: (directory, data file)."""
    tmp_path = tmp_path_factory.mktemp("trained")
    data = gen_data(tmp_path)
    return train_run(tmp_path, data), data


def test_non_integer_t_obs_exits_2(tmp_path):
    data = gen_data(tmp_path)
    lines = data.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["t_obs"] = "x"
    data.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    rc, err = run_cli("train", "--data", data, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert "line 1" in err


@pytest.mark.parametrize("track_edit, lane_edit, message", [
    pytest.param({}, {"left_lane_id": ["x"]}, "neighbour ids must be strings or null",
                 id="left-lane-list"),
    pytest.param({}, {"right_lane_id": {"id": "x"}}, "neighbour ids must be strings or null",
                 id="right-lane-object"),
    pytest.param({"is_ego": "false"}, {}, "is_ego must be true or false", id="is-ego-string"),
])
def test_mistyped_scene_field_exits_2(tmp_path, track_edit, lane_edit, message):
    data = gen_data(tmp_path)
    lines = data.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["tracks"][0].update(track_edit)
    rec["lanes"][0].update(lane_edit)
    data.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    rc, err = run_cli("train", "--data", data, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert "line 1" in err and message in err


def test_dangling_lane_token_exits_2(tmp_path):
    rec = copy.deepcopy(_SCENE_RECORD)
    rec["lanes"][0]["left_lane_id"] = "ghost"
    data = tmp_path / "ghost.jsonl"
    data.write_text(json.dumps(rec) + "\n")
    rc, err = run_cli("train", "--data", data, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert "references unknown lane 'ghost'" in err


def test_truncated_checkpoint_exits_2(trained, tmp_path):
    out, data = trained
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "config.json").write_bytes((out / "config.json").read_bytes())
    (cut / "model.bin").write_bytes((out / "checkpoint_final.bin").read_bytes()[:500])
    rc, err = run_cli("eval", "--checkpoint", cut / "model.bin", "--data", data,
                      "--report", tmp_path / "r.jsonl")
    assert rc == 2 and "Traceback" not in err
    assert "truncated checkpoint" in err


def test_repeated_parameter_record_exits_2(trained, tmp_path):
    """A checkpoint that holds a parameter's record twice is refused by the
    parameter's name, with one error line, instead of loading the later
    values."""
    out, data = trained
    dup = tmp_path / "dup"
    dup.mkdir()
    (dup / "config.json").write_bytes((out / "config.json").read_bytes())
    body = (out / "checkpoint_final.bin").read_bytes()
    name = "merge.norm.gain"
    params = load_checkpoint(out / "checkpoint_final.bin", load_config(out / "config.json").model)
    save_checkpoint(ModelParameters({name: params[name]}), tmp_path / "one.bin")
    record = (tmp_path / "one.bin").read_bytes()[len(CHECKPOINT_MAGIC):]
    (dup / "model.bin").write_bytes(body + record)
    for command, output in (("eval", ["--report", tmp_path / "r.jsonl"]),
                            ("predict", ["--scene-id", "synth-0000",
                                         "--plot", tmp_path / "p.jsonl"])):
        rc, err = run_cli(command, "--checkpoint", dup / "model.bin", "--data", data, *output)
        assert rc == 2 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith("error:") and name in line and "twice" in line


def test_missing_data_file_exits_2(trained, tmp_path):
    out, _ = trained
    missing = tmp_path / "missing.jsonl"
    rc, err = run_cli("eval", "--checkpoint", out / "checkpoint_final.bin",
                      "--data", missing, "--report", tmp_path / "r.jsonl")
    assert rc == 2 and "Traceback" not in err
    assert str(missing) in err


def test_missing_checkpoint_beside_config_exits_2(trained, tmp_path):
    out, data = trained
    missing = out / "nope.bin"
    rc, err = run_cli("eval", "--checkpoint", missing, "--data", data,
                      "--report", tmp_path / "r.jsonl")
    assert rc == 2 and "Traceback" not in err
    assert str(missing) in err


def test_missing_config_file_exits_2(trained, tmp_path):
    _, data = trained
    missing = tmp_path / "missing.json"
    rc, err = run_cli("train", "--config", missing, "--data", data, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert str(missing) in err


@pytest.mark.parametrize("command", ["gen-synthetic", "train", "eval", "predict"])
def test_write_failure_exits_2(trained, tmp_path, command):
    """Each command's output path lies under a regular file, so it cannot be
    written: one error line naming the reason and the path."""
    out, data = trained
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "x"
    ckpt = out / "checkpoint_final.bin"
    argv = {"gen-synthetic": ["--scenes", "1", "--out", target],
            "train": ["--data", data, "--out", target],
            "eval": ["--checkpoint", ckpt, "--data", data, "--report", target],
            "predict": ["--checkpoint", ckpt, "--data", data, "--scene-id", "synth-0000",
                        "--plot", target]}[command]
    rc, err = run_cli(command, *argv)
    assert rc == 2 and "Traceback" not in err
    assert err == f"error: Not a directory: {target}\n"


@pytest.mark.parametrize("text, message", [
    pytest.param('{"model": 3}', "expected a JSON object, got int", id="section-int"),
    pytest.param('{"model": {"f": "x"}}', "f must be int, got str", id="width-str"),
    pytest.param('{"seed": "abc"}', "seed must be int, got str", id="seed-str"),
    pytest.param('{"graph": {"dilation": 2.5}}', "dilation must be int, got float",
                 id="dilation-float"),
    pytest.param('{"model": {"heads": 0}}', "f and heads must be positive", id="heads-0"),
    pytest.param('[1, 2]', "expected a JSON object, got list", id="list"),
    pytest.param('{"seed": -1}', "seed must be non-negative", id="seed-negative"),
    pytest.param('{"optim": {"batch_size": 0}}', "batch_size and decay_period must be positive",
                 id="batch-0"),
    pytest.param('{"optim": {"decay_period": 0}}', "batch_size and decay_period must be positive",
                 id="decay-period-0"),
    pytest.param('{"model": {"dilation": 4}, "graph": {"dilation": 2}}',
                 "graph dilation 2 != model dilation 4", id="dilation-model-above-graph"),
    pytest.param('{"model": {"dilation": 2}, "graph": {"dilation": 4}}',
                 "graph dilation 4 != model dilation 2", id="dilation-graph-above-model"),
    pytest.param('{"optim": {"epochs": -1}}', "epochs must be positive", id="epochs-negative"),
    pytest.param('{"model": {"dilation": -1, "n_map_layers": -2}}',
                 "dilation must be positive and layer counts non-negative",
                 id="dilation-and-map-layers-negative"),
    pytest.param('{"model": {"n_fusion_layers": -1}}',
                 "dilation must be positive and layer counts non-negative",
                 id="fusion-layers-negative"),
    pytest.param('{"model": {"dilation": 0}, "graph": {"dilation": 0}}',
                 "dilation must be positive", id="dilation-0"),
    pytest.param('{"graph": {"d_min": NaN}}', "d_min must be finite float, got float nan",
                 id="d-min-nan"),
    pytest.param('{"graph": {"t_th": -1.0}}', "t_th and d_min must be finite and non-negative",
                 id="t-th-negative"),
    pytest.param('{"loss": {"margin": Infinity}}', "margin must be finite float, got float inf",
                 id="margin-infinity"),
    pytest.param('{"model": {"leaky_slope": 1.5}}', "leaky_slope must be in [0, 1], got 1.5",
                 id="leaky-slope-above-one"),
    pytest.param('{"model": {"leaky_slope": -3.3}}', "leaky_slope must be in [0, 1], got -3.3",
                 id="leaky-slope-negative"),
    pytest.param('{"optim": {"lr0": -1.0}}', "lr0, decay_factor and eps must be positive",
                 id="lr0-negative"),
    pytest.param('{"optim": {"decay_factor": -3.0}}',
                 "lr0, decay_factor and eps must be positive", id="decay-factor-negative"),
    pytest.param('{"optim": {"eps": -1.0}}', "lr0, decay_factor and eps must be positive",
                 id="eps-negative"),
    pytest.param('{"optim": {"weight_decay": -1.0}}', "weight_decay must be non-negative",
                 id="weight-decay-negative"),
    pytest.param('{"optim": {"beta1": 1.0}}', "beta1 and beta2 must be in [0, 1)",
                 id="beta1-one"),
    pytest.param('{"optim": {"beta1": -0.5}}', "beta1 and beta2 must be in [0, 1)",
                 id="beta1-negative"),
    pytest.param('{"optim": {"beta2": 1.5}}', "beta1 and beta2 must be in [0, 1)",
                 id="beta2-above-one"),
    pytest.param('{"segment_len": -1.0}', "segment_len must be positive",
                 id="segment-len-negative"),
])
def test_mistyped_config_exits_2(tmp_path, text, message):
    data = gen_data(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(text)
    rc, err = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert message in err


def test_nan_weight_refused_by_eval_and_predict(trained, tmp_path):
    out, data = trained
    bad = tmp_path / "nan"
    bad.mkdir()
    (bad / "config.json").write_bytes((out / "config.json").read_bytes())
    cfg = load_config(bad / "config.json")
    params = load_checkpoint(out / "checkpoint_final.bin", cfg.model)
    params["head.reg.l2.bias"].data[0, 0, 0] = np.nan
    save_checkpoint(params, bad / "model.bin")
    rc, err = run_cli("eval", "--checkpoint", bad / "model.bin", "--data", data,
                      "--report", tmp_path / "r.jsonl")
    assert rc == 3 and "Traceback" not in err
    assert "non-finite prediction" in err
    rc, err = run_cli("predict", "--checkpoint", bad / "model.bin", "--data", data,
                      "--scene-id", "synth-0000", "--plot", tmp_path / "p.jsonl")
    assert rc == 3 and "Traceback" not in err
    assert "non-finite prediction" in err


def test_non_utf8_data_and_config_exit_2(tmp_path):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00junk\n")
    rc, err = run_cli("train", "--data", binary, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert "not UTF-8" in err
    rc, err = run_cli("train", "--config", binary, "--data", binary, "--out", tmp_path / "o")
    assert rc == 2 and "Traceback" not in err
    assert "config" in err and "not UTF-8" in err


def test_exports_follow_the_scene_in_its_track_order(trained, tmp_path):
    """predict's history lines are each track's observed positions and its
    map-node lines each chord's ends, midpoint -/+ half its vector; eval's cv
    entry per scene is the metrics of its tracks' constant-velocity starts.
    The tracks are listed against agent_id order, so a row out of place shows."""
    out, data = trained
    records = [json.loads(l) for l in data.read_text().splitlines()]
    for rec in records:
        rec["tracks"].reverse()
    data = tmp_path / "reversed.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    ckpt = str(out / "checkpoint_final.bin")
    cfg = load_config(out / "config.json")
    scenes = [normalize_scene(s) for s in load_scenes(data, cfg.segment_len)]

    plot = tmp_path / "plot.jsonl"
    assert main(["predict", "--checkpoint", ckpt, "--data", str(data),
                 "--scene-id", scenes[0].scene_id, "--plot", str(plot)]) == 0
    lines = [json.loads(l) for l in plot.read_text().splitlines()]
    assert [(l["agent_id"], l["points"]) for l in lines if l["role"] == "history"] == [
        (t.agent_id, [[s.x, s.y] for _, s in t.past]) for t in scenes[0].tracks]
    ends = np.array([l["points"] for l in lines if l["role"] == "map-node"])
    chords = build_graph(scenes[0], cfg.graph).map_feats
    assert ends.shape == (chords.shape[0], 2, 2)
    np.testing.assert_allclose(ends.mean(axis=1), chords[:, :2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(ends[:, 1] - ends[:, 0], chords[:, 2:], rtol=0, atol=1e-12)

    report = tmp_path / "report.jsonl"
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                 "--report", str(report)]) == 0
    cv = []
    for scene in scenes:
        starts = []
        for track in scene.tracks:
            t_last, s = track.past[-1]
            lead = scene.t_obs - t_last + np.arange(scene.t_f, dtype=np.float64)
            starts.append(np.stack([s.x + s.vx * scene.dt * lead,
                                    s.y + s.vy * scene.dt * lead], axis=1))
        gt, mask = supervision_mask(scene, cfg.loss.supervise_all_agents)
        cv.append(compute_metrics(np.array(starts)[:, None], gt, mask))
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    expected = [rep.as_dict() for rep in cv] + [aggregate_reports(cv).as_dict()]
    assert [l["cv"] for l in lines] == [pytest.approx(e, rel=1e-12, abs=1e-12) for e in expected]
