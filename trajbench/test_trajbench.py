"""Tests of the benchmark's own machinery: wrappers, counts, trace parity.

    python3 -m pytest -q trajbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from trajgraph import model as model_mod  # noqa: E402


def _tiny_train():
    return workloads.TrainWorkload(agents=2, lanes=2, steps=1)


def _tiny_predict():
    return workloads.PredictWorkload(agents=2, lanes=2, pool=4, scored=3)


@pytest.fixture(scope="module")
def traced_phases(tmp_path_factory):
    """One traced train phase and one traced predict phase, one tracer each."""
    result = {}
    for name, make in (("train", _tiny_train), ("predict", _tiny_predict)):
        tr = tracer_mod.Tracer()
        out = workloads.run_phase(make, 5, 0.0, str(tmp_path_factory.mktemp(name)), 1, tracer=tr)
        result[name] = (tr, out)
    return result


def test_every_lookup_site_is_patched_and_restored():
    import trajgraph.train as train_mod
    originals = {(home, attr): getattr(sys.modules[home], attr)
                 for home, attr, _ in tracer_mod.WRAPPED if home in sys.modules}
    tr = tracer_mod.Tracer()
    with tr:
        for (home, attr), fn in originals.items():
            for name, module in sys.modules.items():
                if name.startswith("trajgraph"):
                    assert getattr(module, attr, None) is not fn, f"{name}.{attr} not wrapped"
        for attr in ("forward", "total_loss", "adam_step", "build_graph", "make_cache"):
            assert hasattr(getattr(train_mod, attr), "__wrapped__"), f"train.{attr}"
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[home], attr) is fn
    assert not hasattr(train_mod.forward, "__wrapped__")


def test_every_wrapper_records_calls(traced_phases):
    calls = {}
    for tr, _ in traced_phases.values():
        for span, n in tr.calls.items():
            calls[span] = calls.get(span, 0) + n
    silent = [span for _, _, span in tracer_mod.WRAPPED if not calls.get(span)]
    assert not silent, f"wrappers that recorded no call: {silent}"
    assert calls["tensor.backward"] > 0


def test_train_call_counts(traced_phases):
    tr, out = traced_phases["train"]
    train_scenes, val_scenes = workloads.RunConfig().optim.batch_size, workloads.VAL_SCENES
    trained = out.attempted * train_scenes           # one step is one batch of all scenes
    # forwards: training, evaluate_samples, the independently checked scenes
    # and the gradient check (one taped forward, two untaped)
    forwards = trained + val_scenes + workloads.CHECKED_VAL + 3
    assert tr.calls["model.forward"] == forwards
    assert tr.calls["model.encode"] == forwards
    assert tr.calls["model.head"] == forwards
    assert tr.calls["graph.build"] == train_scenes + val_scenes
    assert tr.calls["model.make_cache"] == train_scenes + val_scenes
    assert tr.counters["scene.loaded"] == train_scenes + val_scenes
    assert tr.calls["losses.total_loss"] == trained + 3
    assert tr.calls["tensor.backward"] == trained + 1
    assert tr.calls["optim.adam"] == out.attempted
    cfg = model_mod.ModelConfig()
    gcn_per_forward = (cfg.n_map_layers * 10 + cfg.n_agent_layers * 2
                       + cfg.n_fusion_layers * 2 + (cfg.n_fusion_layers - 1) * 10)
    assert tr.calls["model.gcn"] == gcn_per_forward * forwards
    gat_per_forward = 2 + cfg.n_fusion_layers * 2 + (cfg.n_fusion_layers - 1) + 1
    assert tr.calls["model.gatv2"] == gat_per_forward * forwards


def test_predict_call_counts(traced_phases):
    tr, out = traced_phases["predict"]
    # timed requests, the scored ones the timed loop did not reach, the
    # repeat of request 0, and the prepare_samples cross-check
    scenes = max(out.attempted, 3) + 1 + 1
    assert tr.calls["scene.normalize"] == scenes
    assert tr.calls["graph.build"] == scenes
    assert tr.calls["model.make_cache"] == scenes
    assert tr.calls["model.forward"] == scenes
    assert tr.calls["losses.total_loss"] == 3
    assert tr.calls["tensor.backward"] == 0
    assert tr.counters["tensor.tape_records"] == 0


def test_stage_times_partition_forward(traced_phases):
    for tr, _ in traced_phases.values():
        staged = sum(tr.stage_fwd[s] for s in tracer_mod.STAGES if s != "loss")
        assert 0.9 * tr.total["model.forward"] <= staged <= tr.total["model.forward"]
    tr, _ = traced_phases["train"]
    staged_bwd = sum(tr.stage_bwd.values())
    assert all(tr.stage_bwd[s] > 0 for s in tracer_mod.STAGES)
    assert staged_bwd <= tr.total["tensor.backward"]


def test_every_parameter_prefix_has_a_stage():
    for path in model_mod.expected_parameter_specs(model_mod.ModelConfig()):
        if not path.startswith(("embed.", "head.")):
            tracer_mod.stage_of_prefix(path)


def test_traced_and_untraced_phases_agree(tmp_path):
    plain = workloads.run_phase(_tiny_train, 7, 0.0, str(tmp_path), 1)
    traced = workloads.run_phase(_tiny_train, 7, 0.0, str(tmp_path), 1, tracer=tracer_mod.Tracer())
    assert plain.digest == traced.digest
    assert not plain.problems and not traced.problems


@pytest.mark.parametrize("workload, module, attr", [
    ("train-small", workloads.train_mod, "train"),
    ("predict-map", workloads.model_mod, "forward"),
])
def test_a_program_that_always_fails_is_reported(workload, module, attr, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("broken on purpose")
    tiny = {"train-small": _tiny_train, "predict-map": _tiny_predict}[workload]
    monkeypatch.setitem(workloads.WORKLOADS, workload, tiny)
    monkeypatch.setattr(module, attr, fail)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_gradient_check_catches_a_broken_backward(tmp_path, monkeypatch):
    tg = workloads.tg
    segment_sum = tg.segment_sum

    def untaped_segment_sum(messages, targets, n):
        return tg.Tensor(segment_sum(messages, targets, n).data)
    monkeypatch.setattr(tg, "segment_sum", untaped_segment_sum)
    out = workloads.run_phase(_tiny_train, 7, 0.0, str(tmp_path), 1)
    assert any("finite difference" in p for p in out.problems), out.problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "trajbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "trajbench/run.py", "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_matches_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    import layers
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
