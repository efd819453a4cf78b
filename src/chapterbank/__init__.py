"""chapterbank: a transformer with a routed, chaptered latent memory bank.

Desk-scale but complete: deterministic tensor kernels with handwritten
backward passes, the memory-augmented model itself, an exact integer
FLOPs estimator, a reproducible trainer with bank freezing, and a
two-phase retention harness. ``python -m chapterbank.cli --help`` or the
``chapterbank`` script drive everything.
"""

from .checkpoint import Checkpoint, checkpoint_from, load_checkpoint, save_checkpoint
from .config import ModelConfig, preset
from .errors import (
    CheckpointMismatch,
    ConfigError,
    NumericError,
    SequenceLengthError,
    ShapeError,
    TrainingAborted,
)
from .flops import (
    FlopsReport,
    flops_head_and_loss,
    flops_memory_layer_extra,
    flops_model,
    flops_standard_layer,
    iso_depth_search,
)
from .gradcheck import grad_check
from .model import (
    ForwardTrace,
    MemoryBank,
    Model,
    RouterDecision,
    aux_losses,
    build_model,
    mem_read,
    memory_layer_forward,
    model_forward,
    param_count,
    route,
    self_attention_block,
)
from .optim import AdamW, AdamWConfig, clip_grad_norm, global_grad_norm
from .retention import (
    FactSpec,
    InstructionSpec,
    RetentionConfig,
    RetentionReport,
    eval_fact_recall,
    gen_fact_corpus,
    gen_instruction_corpus,
    run_retention_protocol,
)
from .runconfig import DataConfig, RunConfig, load_runconfig, parse_runconfig
from .schedule import Schedule, cosine, lr_at_step, wsd
from .tensor import Parameter, RngState, Tape, Tensor
from .train import (
    Corpus,
    TrainConfig,
    TrainResult,
    continue_train,
    make_synthetic_corpus,
    metrics_csv,
    resume_train,
    train,
)

__all__ = [
    "AdamW",
    "AdamWConfig",
    "Checkpoint",
    "CheckpointMismatch",
    "ConfigError",
    "Corpus",
    "DataConfig",
    "FactSpec",
    "FlopsReport",
    "ForwardTrace",
    "InstructionSpec",
    "MemoryBank",
    "Model",
    "ModelConfig",
    "NumericError",
    "Parameter",
    "RetentionConfig",
    "RetentionReport",
    "RngState",
    "RouterDecision",
    "RunConfig",
    "Schedule",
    "SequenceLengthError",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "TrainingAborted",
    "aux_losses",
    "build_model",
    "checkpoint_from",
    "clip_grad_norm",
    "continue_train",
    "cosine",
    "eval_fact_recall",
    "flops_head_and_loss",
    "flops_memory_layer_extra",
    "flops_model",
    "flops_standard_layer",
    "gen_fact_corpus",
    "gen_instruction_corpus",
    "global_grad_norm",
    "grad_check",
    "iso_depth_search",
    "load_checkpoint",
    "load_runconfig",
    "lr_at_step",
    "make_synthetic_corpus",
    "mem_read",
    "memory_layer_forward",
    "metrics_csv",
    "model_forward",
    "param_count",
    "parse_runconfig",
    "preset",
    "resume_train",
    "route",
    "run_retention_protocol",
    "save_checkpoint",
    "self_attention_block",
    "train",
    "wsd",
]

__version__ = "0.1.0"
