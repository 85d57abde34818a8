"""Run configuration: one JSON document covering graph construction, model
structure, loss weights, optimizer settings, data paths and the seed."""

import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .graph import GraphConfig
from .losses import LossConfig
from .model import ModelConfig
from .optim import OptimConfig


@dataclass
class RunConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    segment_len: float = 3.0
    seed: int = 0
    data: str = None
    val_data: str = None
    out_dir: str = None

    def to_dict(self):
        return asdict(self)


_SECTIONS = {"graph": GraphConfig, "model": ModelConfig, "loss": LossConfig,
             "optim": OptimConfig}


def _build_section(cls, payload, name):
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown keys {sorted(unknown)}")
    return cls(**payload)


def run_config_from_dict(payload):
    known = {f.name for f in fields(RunConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value, key)
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc.msg})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text") from exc
    return run_config_from_dict(payload)
