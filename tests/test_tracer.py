"""The benchmark tracer (bench/tracer.py) against the library it patches.

The tracer wraps model, train and retention functions by module and name.
Running one micro train step under it checks that every traced name still
exists, that every `model.*` scope it joins to the FLOPs model is called,
that the optimizer step, clipping and snapshot scopes are called, and that
the join finds every FLOPs line it names; a rename then fails
here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from chapterbank.config import preset
from chapterbank.model import build_model
from chapterbank.schedule import cosine
from chapterbank.tensor import RngState
from chapterbank.train import TrainConfig, make_synthetic_corpus, train

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_micro_train_step_calls_every_model_scope():
    tracer_module = load_tracer()
    cfg = preset("micro")
    model = build_model(cfg, RngState(0))
    corpus = make_synthetic_corpus(cfg.vocab, 2048, 0)
    train_cfg = TrainConfig(steps=1, batch_size=2, seq_len=16, schedule=cosine(0), eval_every=1)
    with tracer_module.Tracer().installed() as tracer:
        train(model, corpus, train_cfg)
    model_scopes = [s for s in tracer_module.SCOPE_FLOPS if s.startswith("model.")]
    assert model_scopes
    assert not [s for s in model_scopes if not tracer.calls[s]], dict(tracer.calls)
    mapped, _, problems = tracer.flops_join()
    assert problems == []
    assert set(model_scopes) <= set(mapped)
    assert tracer.counts["tape_records"] > 0 and tracer.calls["tensor.backward"] == 1
    for scope in ("optim.step", "optim.clip", "checkpoint.snapshot"):
        assert tracer.calls[scope], (scope, dict(tracer.calls))
