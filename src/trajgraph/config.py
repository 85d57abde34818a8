"""Run configuration: one JSON document covering graph construction, model
structure, loss weights, optimizer settings, data paths and the seed."""

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .graph import GraphConfig
from .losses import LossConfig
from .model import ModelConfig
from .optim import OptimConfig
from .scene import DEFAULT_SEGMENT_LEN


@dataclass
class RunConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    segment_len: float = DEFAULT_SEGMENT_LEN
    seed: int = 0
    data: str = None
    val_data: str = None
    out_dir: str = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.segment_len > 0:
            raise ConfigError("segment_len must be positive")
        if self.graph.dilation != self.model.dilation:
            raise ConfigError(f"graph dilation {self.graph.dilation} != "
                              f"model dilation {self.model.dilation}")

    def to_dict(self):
        return asdict(self)


def _type_ok(kind, value):
    """JSON value fits a field type: bool is not a number, a float field
    takes no NaN or infinity, str fields (all default None) take null."""
    if kind is bool:
        return isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        if isinstance(value, float):
            return math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    return value is None or isinstance(value, str)


def _from_object(cls, payload, where):
    """Build dataclass ``cls`` from a JSON object, checking every key and
    value type first; dataclass-typed fields are sections, built the same way."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        kind = types[key]
        if is_dataclass(kind):
            value = _from_object(kind, value, f"config section {key!r}")
        elif not _type_ok(kind, value):
            kind_name = "finite float" if kind is float else kind.__name__
            raise ConfigError(f"{where}: {key} must be {kind_name}, "
                              f"got {type(value).__name__} {value!r:.40}")
        kwargs[key] = value
    return cls(**kwargs)


def run_config_from_dict(payload):
    return _from_object(RunConfig, payload, "config")


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
