"""JSON run-configuration parsing: preset expansion, overrides,
strict key checking, serialization round trips."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from chapterbank.config import preset
from chapterbank.errors import ConfigError
from chapterbank.runconfig import (
    DataConfig,
    RunConfig,
    expand_document,
    load_runconfig,
    parse_runconfig,
)


class TestPresetExpansion:
    def test_top_level_preset(self):
        rc = parse_runconfig({"preset": "micro"})
        assert rc.model == preset("micro")

    def test_model_level_preset_with_override(self):
        rc = parse_runconfig({"model": {"preset": "micro", "top_k": 2}})
        assert rc.model.top_k == 2
        assert rc.model.d_model == 64  # everything else from the preset

    def test_explicit_model_without_preset(self):
        doc = {"model": preset("micro").to_dict()}
        assert parse_runconfig(doc).model == preset("micro")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_runconfig({"preset": "mega"})

    @pytest.mark.parametrize("model_preset", ["micro", "moc-paper"])
    def test_preset_given_twice_names_the_conflict(self, model_preset):
        doc = {"preset": "micro", "model": {"preset": model_preset}}
        with pytest.raises(ConfigError, match=re.escape(f"preset twice, at top level ('micro') and in the model section ('{model_preset}')")):
            parse_runconfig(doc)

    def test_preset_required_when_model_missing(self):
        with pytest.raises(ConfigError, match="model section or a preset"):
            parse_runconfig({"train": {"steps": 5}})

    def test_expand_keeps_other_sections(self):
        doc = expand_document({"preset": "micro", "train": {"steps": 5}})
        assert doc["train"] == {"steps": 5}
        assert doc["model"]["chapters"] == 17
        assert "preset" not in doc


class TestPresetTable:
    """The README's preset descriptions: one backbone, three deltas."""

    def test_backbone_is_moc_paper_without_memory(self):
        no_memory = dict(memory_layer_indices=[], bank_tokens=0, chapters=0, shared_chapters=0, chapter_size=0, top_k=0)
        assert replace(preset("moc-paper"), **no_memory) == preset("vanilla-backbone")

    def test_iso_is_the_backbone_at_24_layers(self):
        assert replace(preset("vanilla-backbone"), n_layers=24) == preset("vanilla-iso")

    def test_each_call_returns_a_new_config(self):
        assert preset("micro") is not preset("micro")
        with pytest.raises(AttributeError):  # the indices are a tuple, so no preset can be mutated
            preset("micro").memory_layer_indices.append(0)
        assert preset("micro").memory_layer_indices == (1, 3)

    def test_a_config_is_hashable(self):
        assert hash(preset("micro")) == hash(preset("micro"))
        assert len({preset(name) for name in ("micro", "micro", "moc-paper")}) == 2

    def test_a_list_given_through_replace_becomes_a_tuple(self):
        cfg = replace(preset("micro"), memory_layer_indices=[3])
        assert cfg.memory_layer_indices == (3,)
        assert cfg == replace(preset("micro"), memory_layer_indices=(3,))


class TestStrictKeys:
    def test_unknown_top_level_section(self):
        with pytest.raises(ConfigError, match="sections"):
            parse_runconfig({"preset": "micro", "optimizer": {}})

    def test_unknown_model_key_with_preset(self):
        with pytest.raises(ConfigError, match="model config keys"):
            parse_runconfig({"model": {"preset": "micro", "n_experts": 8}})

    def test_unknown_model_key_without_preset(self):
        doc = preset("micro").to_dict()
        doc["n_experts"] = 8
        with pytest.raises(ConfigError, match="model config keys"):
            parse_runconfig({"model": doc})

    def test_unknown_train_key(self):
        with pytest.raises(ConfigError, match="train config keys"):
            parse_runconfig({"preset": "micro", "train": {"stepz": 7}})

    def test_unknown_data_key(self):
        with pytest.raises(ConfigError, match="data config keys"):
            parse_runconfig({"preset": "micro", "data": {"shards": 4}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"train": {"schedule": {"warmup": 1}}}, "train.schedule: schedule is missing required keys: ['kind']"),
            (
                {"retention": {"phase_a": {"schedule": {"warmup": 1}}}},
                "retention.phase_a.schedule: schedule is missing required keys: ['kind']",
            ),
            (
                {"retention": {"phase_b": {"schedule": {"kind": "cosine", "warmup": 1, "gamma": 2}}}},
                "retention.phase_b.schedule: unknown schedule keys: ['gamma']",
            ),
            ({"retention": {"fact": {"n_facts": "3"}}}, "retention.fact: invalid fact spec key 'n_facts': expected int"),
            ({"retention": {"phase_b": {"eval_every": 0}}}, "retention.phase_b: eval_every must be >= 1"),
            ({"train": {"steps": 0.5}}, "train: invalid train config key 'steps': expected int"),
            ({"train": {"schedule": {"kind": "bogus", "warmup": 1}}}, "train.schedule: unknown schedule kind 'bogus'"),
            ({"train": {"schedule": {"kind": "cosine", "warmup": -1}}}, "train.schedule: warmup must be >= 0, got -1"),
            ({"train": {"schedule": {"kind": "wsd", "warmup": 1}}}, "train.schedule: wsd schedule requires decay_start"),
            (
                {"retention": {"phase_a": {"schedule": {"kind": "bogus", "warmup": 1}}}},
                "retention.phase_a.schedule: unknown schedule kind 'bogus'",
            ),
            (
                {"retention": {"phase_a": {"schedule": {"kind": "wsd", "warmup": -1, "decay_start": 2}}}},
                "retention.phase_a.schedule: warmup must be >= 0, got -1",
            ),
        ],
        ids=["train.schedule", "retention.phase_a.schedule", "unknown-key", "invalid-value", "validate", "section",
             "schedule-kind", "schedule-warmup", "wsd-without-decay-start", "retention-schedule-kind",
             "retention-schedule-warmup"],
    )
    def test_nested_errors_start_with_the_key_path(self, doc, message):
        with pytest.raises(ConfigError) as info:
            parse_runconfig({"preset": "micro", **doc})
        assert str(info.value).startswith(message)

    def test_invalid_model_values_still_validated(self):
        with pytest.raises(ConfigError):
            parse_runconfig({"model": {"preset": "micro", "top_k": 99}})


class TestDataConfig:
    def test_defaults(self):
        d = DataConfig()
        assert (d.kind, d.length, d.seed, d.period) == ("synthetic", 8192, 0, 97)

    def test_only_synthetic_supported(self):
        with pytest.raises(ConfigError, match="synthetic"):
            DataConfig(kind="files")

    def test_round_trip(self):
        d = DataConfig(length=512, seed=3, period=13)
        assert DataConfig.from_dict(d.to_dict()) == d

    @pytest.mark.parametrize("data, period", [({"length": 50}, 97), ({"length": 50, "period": 1}, 1)])
    def test_period_must_fit_the_corpus(self, data, period):
        with pytest.raises(ConfigError, match=rf"^data: data period {period} must be in \[2, length 50\]$"):
            parse_runconfig({"preset": "micro", "data": data})
        assert parse_runconfig({"preset": "micro", "data": {"length": 50, "period": 50}}).data.period == 50


class TestSerialization:
    def test_json_round_trip_is_value_identical(self):
        rc = parse_runconfig(
            {
                "preset": "micro",
                "train": {"steps": 12, "bank_mode": "low_lr", "schedule": {"kind": "wsd", "warmup": 2, "decay_start": 8}},
                "data": {"length": 4096},
            }
        )
        again = parse_runconfig(rc.to_json())
        assert again == rc

    def test_to_json_is_sorted_and_parseable(self):
        rc = parse_runconfig({"preset": "micro"})
        doc = json.loads(rc.to_json())
        assert set(doc) == {"model", "train", "data", "retention"}
        assert doc["model"]["d_model"] == 64

    def test_invalid_json_string(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_runconfig("{steps: 7")

    def test_non_object_document(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_runconfig("[1, 2]")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"preset": "micro", "train": {"steps": 3, "schedule": {"kind": "cosine", "warmup": 1}}}))
        rc = load_runconfig(path)
        assert rc.model == preset("micro")
        assert rc.train.steps == 3

    def test_default_sections(self):
        from chapterbank.train import TrainConfig

        rc = parse_runconfig({"preset": "micro"})
        assert rc.train == TrainConfig()
        assert rc.data == DataConfig()
        assert isinstance(rc, RunConfig)


def test_readme_json_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_runconfig(block)
