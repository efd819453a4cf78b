"""The shared config codec: every config class survives a JSON round
trip with a non-default value in every field, and rejects unknown keys
with a message naming the class."""

import json
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from chapterbank.config import ModelConfig, preset
from chapterbank.errors import ConfigError
from chapterbank.optim import AdamWConfig
from chapterbank.retention import FactSpec, InstructionSpec, RetentionConfig
from chapterbank.runconfig import DataConfig, RunConfig, parse_runconfig
from chapterbank.schedule import Schedule, cosine, wsd
from chapterbank.train import TrainConfig

MODEL = ModelConfig(
    d_model=48,
    n_layers=3,
    n_heads=4,
    n_kv_heads=2,
    d_ff=96,
    vocab=300,
    rope_theta=50000.0,
    tied_embeddings=False,
    memory_layer_indices=[0, 2],
    bank_tokens=36,
    chapters=9,
    shared_chapters=2,
    chapter_size=4,
    top_k=3,
    mem_heads=6,
    mem_kv_heads=3,
    routed_scaling=1.5,
    lb_coeff=0.02,
    z_coeff=0.002,
    adapter_enabled=True,
    bank_init_std=0.05,
    max_seq_len=96,
)
SCHEDULE = wsd(3, 20, 0.2, total_steps=40)
TRAIN = TrainConfig(
    steps=30,
    batch_size=3,
    grad_accum=2,
    seq_len=24,
    lr_base=2e-3,
    lr_memory_layers=5e-4,
    lr_memory_bank=1e-4,
    bank_mode="custom",
    schedule=SCHEDULE,
    weight_decay=0.05,
    betas=(0.8, 0.99),
    clip_norm=0.5,
    seed=4,
    eval_every=7,
)
DATA = DataConfig(length=512, seed=3, period=13)  # "synthetic" is the only valid kind
FACT = FactSpec(
    n_facts=5, key_alphabet=6, value_alphabet=7, key_len=3, value_len=2, repeats=9, seed=2, key_base=20, value_base=40
)
INSTRUCTION = InstructionSpec(n_examples=5, src_len=3, alphabet=8, repeats=4, transform="shift", seed=6, symbol_base=200)
RETENTION = RetentionConfig(
    fact=FACT,
    instruction=INSTRUCTION,
    phase_a=TRAIN,
    phase_b=TrainConfig(steps=9, seq_len=32, schedule=cosine(2, total_steps=12), betas=(0.7, 0.9)),
    seed=7,
)
CONFIGS = [MODEL, SCHEDULE, cosine(5, total_steps=11), TRAIN, DATA, FACT, INSTRUCTION, RETENTION]


def json_round_trip(cfg):
    return type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict())))


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: type(c).__name__)
def test_json_round_trip(cfg):
    back = json_round_trip(cfg)
    assert back == cfg
    assert list(back.to_dict()) == [f.name for f in fields(cfg)]


@pytest.mark.parametrize("cfg", [MODEL, TRAIN, FACT, INSTRUCTION, RETENTION], ids=lambda c: type(c).__name__)
def test_fixtures_differ_from_defaults_in_every_field(cfg):
    default = type(cfg)()
    assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == []


def test_nested_values_rebuilt_with_their_types():
    back = json_round_trip(TRAIN)
    assert isinstance(back.schedule, Schedule) and back.betas == (0.8, 0.99)
    back = json_round_trip(RETENTION)
    assert isinstance(back.fact, FactSpec) and isinstance(back.phase_b.schedule, Schedule)


def test_run_config_round_trip_keeps_total_steps():
    rc = RunConfig(model=MODEL, train=TRAIN, data=DATA, retention=RETENTION)
    assert parse_runconfig(rc.to_json()) == rc
    assert json.loads(rc.to_json())["train"]["schedule"]["total_steps"] == 40


@pytest.mark.parametrize(
    "cls, doc, words",
    [
        (ModelConfig, {"n_experts": 8}, "model config"),
        (Schedule, {"kind": "wsd", "warmup": 1, "decay_start": 2, "gamma": 0.9}, "schedule"),
        (TrainConfig, {"steps": 5, "momentum": 0.9}, "train config"),
        (DataConfig, {"shards": 4}, "data config"),
        (FactSpec, {"alphabet": 9}, "fact spec"),
        (InstructionSpec, {"rotate": 1}, "instruction spec"),
        (RetentionConfig, {"phases": {}}, "retention config"),
    ],
)
def test_unknown_keys_named_by_class(cls, doc, words):
    bad = sorted(set(doc) - {f.name for f in fields(cls)})
    with pytest.raises(ConfigError, match=re.escape(f"unknown {words} keys: {bad}")):
        cls.from_dict(doc)


@pytest.mark.parametrize(
    "cls, doc",
    [
        (ModelConfig, {"d_model": 65}),
        (TrainConfig, {"seq_len": 1}),
        (DataConfig, {"length": 2}),
        (Schedule, {"kind": "step", "warmup": 1}),
        (FactSpec, {"n_facts": 0}),
        (InstructionSpec, {"transform": "rotate"}),
        (RetentionConfig, {"phase_b": {"eval_every": 0}}),
    ],
)
def test_from_dict_validates(cls, doc):
    with pytest.raises(ConfigError):
        cls.from_dict(doc)


@pytest.mark.parametrize(
    "cls, doc, words",
    [
        (ModelConfig, {"top_k": 2.0}, "model config key 'top_k': expected int, got float"),
        (ModelConfig, {"d_model": True}, "model config key 'd_model': expected int, got bool"),
        (ModelConfig, {"adapter_enabled": 1}, "model config key 'adapter_enabled': expected bool, got int"),
        (ModelConfig, {"memory_layer_indices": [1, "3"]}, "'memory_layer_indices'[1]: expected int, got str"),
        (TrainConfig, {"betas": [0.9]}, "train config key 'betas': expected 2 items, got 1"),
        (TrainConfig, {"betas": [0.9, None]}, "'betas'[1]: expected float, got NoneType"),
        (TrainConfig, {"schedule": 5}, "train config key 'schedule': expected an object, got int"),
        (TrainConfig, {"lr_base": "1e-3"}, "train config key 'lr_base': expected float, got str"),
        (Schedule, {"warmup": 1}, "schedule is missing required keys: ['kind']"),
        (RetentionConfig, [], "retention config must be a JSON object, got list"),
    ],
)
def test_values_checked_against_field_types(cls, doc, words):
    with pytest.raises(ConfigError, match=re.escape(words)):
        cls.from_dict(doc)


def test_memory_layer_indices_round_trip_as_a_tuple():
    doc = json.loads(json.dumps(preset("micro").to_dict()))
    assert doc["memory_layer_indices"] == [1, 3]  # written as a JSON list
    cfg = ModelConfig.from_dict(doc)
    assert cfg.memory_layer_indices == (1, 3) and cfg == preset("micro")


def test_float_takes_int_and_optional_takes_null():
    cfg = TrainConfig.from_dict({"lr_base": 1, "lr_memory_layers": None, "betas": [0, 0.5]})
    assert (cfg.lr_base, cfg.lr_memory_layers, cfg.betas) == (1, None, (0, 0.5))


@pytest.mark.parametrize(
    "base, bad",
    [
        # the first two once reached flops_model and iso_depth_search unchecked
        (preset("micro"), {"top_k": 40}),
        (preset("micro"), {"n_heads": 5}),
        (preset("micro"), {"memory_layer_indices": [9]}),
        # the next six once crashed on a modulo by zero, or built a model that cannot run
        (preset("micro"), {"n_heads": 0}),
        (preset("micro"), {"n_kv_heads": 0}),
        (preset("micro"), {"mem_heads": 0}),
        (preset("micro"), {"mem_kv_heads": 0}),
        (preset("micro"), {"n_heads": -4, "n_kv_heads": -2}),
        (preset("micro"), {"d_ff": -1}),
        (TrainConfig(), {"seq_len": 1}),
        (TrainConfig(), {"bank_mode": "off"}),
        (DataConfig(), {"length": 2}),
        (DataConfig(), {"length": 50}),
        (FactSpec(), {"n_facts": 0}),
        (FactSpec(), {"key_base": 0, "value_base": 2}),
        (FactSpec(), {"repeats": 0}),
        (InstructionSpec(), {"transform": "rotate"}),
        (InstructionSpec(), {"symbol_base": 4}),
        (cosine(10), {"warmup": -1}),
        (wsd(2, 10), {"decay_start": 1}),
        (AdamWConfig(), {"betas": (0.9, 1.0)}),
        (AdamWConfig(), {"eps": 0.0}),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, dict) else ",".join(f"{k}={v[k]}" for k in v),
)
def test_an_invalid_config_cannot_be_built(base, bad):
    """Built directly, by ``replace`` or by ``from_dict``, a bad value
    raises the same ConfigError."""
    cls = type(base)
    messages = []
    for build in (
        lambda: cls(**{**{f.name: getattr(base, f.name) for f in fields(base)}, **bad}),
        lambda: replace(base, **bad),
        lambda: cls.from_dict({**base.to_dict(), **bad}),
    ):
        with pytest.raises(ConfigError) as info:
            build()
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]


def test_a_built_model_config_cannot_be_changed():
    cfg = preset("micro")
    with pytest.raises(FrozenInstanceError):
        cfg.top_k = 40
