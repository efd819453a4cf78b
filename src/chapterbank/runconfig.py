"""JSON run configuration: sections `model`, `train`, `data`,
`retention`.

A document may name a preset at top level (`{"preset": "micro"}`) or
inside the model section (`{"model": {"preset": "micro", "top_k": 2}}`);
presets expand to full documents before validation, and section keys
override preset fields. Unknown keys anywhere are rejected. Parsing the
serialized form reproduces the config value-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .config import Config, ModelConfig, preset
from .errors import ConfigError
from .retention import RetentionConfig
from .train import SYNTHETIC_LENGTH, SYNTHETIC_PERIOD, SYNTHETIC_SEED, TrainConfig

TOP_KEYS = {"preset", "model", "train", "data", "retention"}


@dataclass(frozen=True)
class DataConfig(Config):
    kind: str = "synthetic"
    length: int = SYNTHETIC_LENGTH
    seed: int = SYNTHETIC_SEED
    period: int = SYNTHETIC_PERIOD

    def __post_init__(self) -> None:
        if self.kind != "synthetic":
            raise ConfigError(f"unknown data kind {self.kind!r}; only 'synthetic' is supported")
        if self.length < 4:
            raise ConfigError(f"data length must be >= 4, got {self.length}")
        if not 2 <= self.period <= self.length:
            raise ConfigError(f"data period {self.period} must be in [2, length {self.length}]")


@dataclass(frozen=True)
class RunConfig(Config):
    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    retention: RetentionConfig = field(default_factory=RetentionConfig)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def expand_document(doc: dict) -> dict:
    """Resolve preset references into a fully explicit document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"run config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
    doc = dict(doc)
    preset_name = doc.pop("preset", None)
    model = doc.get("model", {})
    if isinstance(model, dict):  # anything else is rejected by RunConfig.from_dict
        model = dict(model)
        if preset_name is not None and "preset" in model:
            raise ConfigError(
                f"run config names a preset twice, at top level ({preset_name!r}) and in the model section "
                f"({model['preset']!r}); give it once"
            )
        preset_name = model.pop("preset", preset_name)
        if preset_name is not None:
            model = {**preset(preset_name).to_dict(), **model}
    if not model:
        raise ConfigError("run config needs a model section or a preset")
    doc["model"] = model
    return doc


def parse_runconfig(doc: dict | str) -> RunConfig:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ConfigError(f"run config is not valid JSON: {e}") from e
    return RunConfig.from_dict(expand_document(doc))


def load_runconfig(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_runconfig(f.read())
