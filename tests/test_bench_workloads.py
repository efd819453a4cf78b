"""The benchmark workloads (bench/workloads.py) against the optimizer API.

`step_clock` times every optimizer step by subclassing `AdamW`. The train
workload passes such an optimizer to `train`; the retention workload
patches `chapterbank.train.AdamW`, through which `train` and
`resume_train` build their own. One-step micro runs in both styles check
that each step leaves one stamp, so a change to `AdamW.step` or to how
`train` builds its optimizer fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from chapterbank.config import preset
from chapterbank.model import build_model
from chapterbank.optim import AdamWConfig
from chapterbank.schedule import cosine
from chapterbank.tensor import RngState
from chapterbank.train import TrainConfig, make_synthetic_corpus, resume_train, train

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
CORPUS = make_synthetic_corpus(256, 2048, 0)


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def one_step_cfg(**over):
    return TrainConfig(**{**dict(steps=1, batch_size=2, seq_len=16, schedule=cosine(0), eval_every=1), **over})


def test_a_passed_in_step_clock_stamps_every_step(workloads):
    model = build_model(preset("micro"), RngState(0))
    cfg = one_step_cfg()
    log = []
    optimizer = workloads.step_clock(log)(model.params, AdamWConfig(betas=cfg.betas, weight_decay=cfg.weight_decay))
    result = train(model, CORPUS, cfg, optimizer=optimizer)
    assert result.optimizer is optimizer
    assert len(log) == 1 and len(log[0]) == 1 + cfg.steps


def test_the_patched_module_global_builds_a_step_clock(workloads, monkeypatch):
    log = []
    monkeypatch.setattr(importlib.import_module("chapterbank.train"), "AdamW", workloads.step_clock(log))
    cfg = one_step_cfg(bank_mode="frozen")
    first = train(build_model(preset("micro"), RngState(0)), CORPUS, cfg)
    resume_train(first.checkpoint, CORPUS, one_step_cfg(bank_mode="frozen", steps=2))
    assert [len(stamps) for stamps in log] == [2, 2]  # construction, then one step each
