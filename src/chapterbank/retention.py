"""Two-phase forgetting harness on synthetic corpora.

Phase A trains on key->value fact strings; phase B trains on a
sequence-transform instruction task with disjoint marker and symbol
tokens and a doubled context window. Recall of phase-A facts is measured
by greedy decoding before and after phase B; the report carries
per-variant deltas (post-B minus post-A). Three variants run: a
memory-free backbone, the memory model, and the memory model with its
bank frozen during phase B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import Checkpoint
from .config import Config, ModelConfig, preset
from .errors import ConfigError, TrainingAborted
from .model import Model, build_model
from .schedule import cosine
from .tensor import RngState
from .train import Corpus, TrainConfig, _eval_losses, continue_train, train

FACT_OPEN, FACT_SEP, FACT_CLOSE = 1, 2, 3
INSTR_OPEN, INSTR_SEP, INSTR_CLOSE = 4, 5, 6
FACT_MARKERS = (FACT_OPEN, FACT_SEP, FACT_CLOSE)
INSTR_MARKERS = (INSTR_OPEN, INSTR_SEP, INSTR_CLOSE)
VARIANTS = ("vanilla-like", "moc", "moc-frozen-bank")
TRANSFORMS = ("reverse", "shift")
# retention.csv metric -> VariantResult field prefix: <prefix>_a and <prefix>_b hold phases A and B
METRIC_FIELDS = {"fact_recall": "fact_recall", "task_accuracy": "task_acc", "fact_eval_loss": "fact_loss"}


@dataclass(frozen=True)
class FactSpec(Config):
    n_facts: int = 12
    key_alphabet: int = 12
    value_alphabet: int = 12
    key_len: int = 2
    value_len: int = 3
    repeats: int = 40
    seed: int = 0
    key_base: int = 10  # key symbol token ids start here
    value_base: int = 96  # value symbol token ids start here

    def __post_init__(self) -> None:
        for name in ("n_facts", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.key_alphabet < 2 or self.value_alphabet < 2:
            raise ConfigError("key and value alphabets must have >= 2 symbols")
        if self.key_len < 1 or self.value_len < 1:
            raise ConfigError("key_len and value_len must be >= 1")
        if self.key_base <= max(INSTR_MARKERS):
            raise ConfigError(f"key_base {self.key_base} must exceed the marker ids, up to {max(INSTR_MARKERS)}")
        if self.key_alphabet**self.key_len < self.n_facts:
            raise ConfigError(
                f"{self.n_facts} unique keys do not fit in alphabet {self.key_alphabet}^{self.key_len}"
            )
        if self.key_base + self.key_alphabet > self.value_base:
            raise ConfigError("key symbol range overlaps value symbol range")


@dataclass(frozen=True)
class InstructionSpec(Config):
    n_examples: int = 16
    src_len: int = 4
    alphabet: int = 20
    repeats: int = 30
    transform: str = "reverse"
    seed: int = 0
    symbol_base: int = 180

    def __post_init__(self) -> None:
        if self.n_examples < 1 or self.src_len < 1 or self.repeats < 1:
            raise ConfigError("n_examples, src_len, and repeats must be >= 1")
        if self.alphabet < 2:
            raise ConfigError("instruction alphabet must have >= 2 symbols")
        if self.transform not in TRANSFORMS:
            raise ConfigError(f"transform must be one of {TRANSFORMS}, got {self.transform!r}")
        if self.symbol_base <= max(INSTR_MARKERS):
            raise ConfigError(f"symbol_base {self.symbol_base} must exceed the marker ids, up to {max(INSTR_MARKERS)}")

    def apply(self, src: np.ndarray) -> np.ndarray:
        if self.transform == "reverse":
            return src[::-1].copy()
        return self.symbol_base + (src - self.symbol_base + 1) % self.alphabet


@dataclass(frozen=True)
class Probe:
    prompt: np.ndarray  # 1-D token prefix
    expected: np.ndarray  # 1-D tokens to be decoded greedily


def _render_fact(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    return np.concatenate([[FACT_OPEN], key, [FACT_SEP], value, [FACT_CLOSE]]).astype(np.int64)


def gen_fact_corpus(spec: FactSpec, vocab: int) -> tuple[Corpus, list[Probe]]:
    """Render n_facts unique (key, value) pairs `repeats` times each in
    shuffled order; probes pair each key prompt with its value tokens."""
    if spec.value_base + spec.value_alphabet > vocab:
        raise ConfigError(f"value symbols reach {spec.value_base + spec.value_alphabet}, beyond vocab {vocab}")
    rng = RngState(spec.seed)
    n_keys = spec.key_alphabet**spec.key_len
    key_codes = rng.substream("keys").choice(n_keys, size=spec.n_facts, replace=False)
    keys = []
    for code in key_codes:
        digits = []
        for _ in range(spec.key_len):
            digits.append(spec.key_base + code % spec.key_alphabet)
            code //= spec.key_alphabet
        keys.append(np.array(digits, dtype=np.int64))
    values = spec.value_base + rng.substream("values").integers(
        0, spec.value_alphabet, size=(spec.n_facts, spec.value_len)
    ).astype(np.int64)

    renders = [_render_fact(k, v) for k, v in zip(keys, values)]
    order = np.repeat(np.arange(spec.n_facts), spec.repeats)
    rng.substream("order").shuffle(order)
    tokens = np.concatenate([renders[i] for i in order])
    probes = [
        Probe(np.concatenate([[FACT_OPEN], k, [FACT_SEP]]).astype(np.int64), v.copy())
        for k, v in zip(keys, values)
    ]
    return Corpus(tokens, vocab), probes


def gen_instruction_corpus(spec: InstructionSpec, vocab: int) -> tuple[Corpus, list[Probe]]:
    """Transform task: [open] src [sep] f(src) [close], disjoint from the
    fact token ranges."""
    if spec.symbol_base + spec.alphabet > vocab:
        raise ConfigError(f"instruction symbols reach {spec.symbol_base + spec.alphabet}, beyond vocab {vocab}")
    rng = RngState(spec.seed)
    gen = rng.substream("instructions")
    rows = []
    probes = []
    for _ in range(spec.n_examples):
        src = spec.symbol_base + gen.integers(0, spec.alphabet, size=spec.src_len).astype(np.int64)
        dst = spec.apply(src)
        rows.append(np.concatenate([[INSTR_OPEN], src, [INSTR_SEP], dst, [INSTR_CLOSE]]).astype(np.int64))
        probes.append(Probe(np.concatenate([[INSTR_OPEN], src, [INSTR_SEP]]).astype(np.int64), dst))
    order = np.repeat(np.arange(spec.n_examples), spec.repeats)
    rng.substream("order").shuffle(order)
    tokens = np.concatenate([rows[i] for i in order])
    return Corpus(tokens, vocab), probes[: min(64, len(probes))]


def greedy_decode(model: Model, prompts: np.ndarray, n_tokens: int) -> np.ndarray:
    """Batched greedy continuation: returns the (N, n_tokens) argmax
    completions of equal-length prompts."""
    seq = np.asarray(prompts, dtype=np.int64)
    for _ in range(n_tokens):
        logits = model.forward_logits(seq)
        nxt = np.argmax(logits[:, -1, :], axis=-1)
        seq = np.concatenate([seq, nxt[:, None]], axis=1)
    return seq[:, prompts.shape[1] :]


def eval_fact_recall(model: Model, probes: list[Probe]) -> float:
    """Exact-match accuracy of greedy decoding over the probe set."""
    if not probes:
        raise ConfigError("empty probe set")
    if len({p.prompt.size for p in probes}) != 1 or len({p.expected.size for p in probes}) != 1:
        raise ConfigError("probe prompts/answers must share lengths for batched decoding")
    prompts = np.stack([p.prompt for p in probes])
    expected = np.stack([p.expected for p in probes])
    decoded = greedy_decode(model, prompts, expected.shape[1])
    return float(np.mean(np.all(decoded == expected, axis=1)))


@dataclass
class VariantResult:
    variant: str
    failed: bool = False
    fact_recall_a: float = math.nan
    fact_recall_b: float = math.nan
    task_acc_a: float = math.nan
    task_acc_b: float = math.nan
    fact_loss_a: float = math.nan
    fact_loss_b: float = math.nan
    bank_unchanged_in_b: bool | None = None

    @property
    def recall_delta(self) -> float:
        return self.fact_recall_b - self.fact_recall_a

    @property
    def task_delta(self) -> float:
        return self.task_acc_b - self.task_acc_a

    @property
    def loss_delta(self) -> float:
        return self.fact_loss_b - self.fact_loss_a


@dataclass
class RetentionReport:
    seed: int
    variants: dict[str, VariantResult] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, float, float, float]]:
        out = []
        for name in VARIANTS:
            r = self.variants[name]
            for metric, prefix in METRIC_FIELDS.items():
                a, b = getattr(r, f"{prefix}_a"), getattr(r, f"{prefix}_b")
                out.append((name, metric, a, b, b - a))
            out.append((name, "failed", 0.0, 1.0 if r.failed else 0.0, 1.0 if r.failed else 0.0))
        return out

    def to_csv(self) -> str:
        lines = ["variant,metric,phaseA,phaseB,delta"]
        lines += [f"{v},{m},{a!r},{b!r},{d!r}" for v, m, a, b, d in self.rows()]
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"retention protocol, seed {self.seed}"]
        for name in VARIANTS:
            r = self.variants[name]
            if r.failed:
                lines.append(f"  {name:<16} FAILED (training aborted)")
                continue
            lines.append(
                f"  {name:<16} recall {r.fact_recall_a:.3f} -> {r.fact_recall_b:.3f}"
                f" (delta {r.recall_delta:+.3f}); task {r.task_acc_b:.3f};"
                f" fact loss {r.fact_loss_a:.4f} -> {r.fact_loss_b:.4f}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, seed: int = 0) -> "RetentionReport":
        """Parse ``to_csv`` text; a missing header, a row without five
        fields or with a value that is not a number, and a missing or
        repeated (variant, metric) row raise ConfigError naming the line or
        the pair."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != "variant,metric,phaseA,phaseB,delta":
            raise ConfigError(f"bad retention CSV header: {lines[0] if lines else ''!r}")
        report = cls(seed=seed)
        seen = set()
        for ln in lines[1:]:
            try:
                variant, metric, a, b, delta = ln.split(",")
                a, b = float(a), float(b)
                float(delta)  # checked, not kept: rows() recomputes the delta
            except ValueError:
                raise ConfigError(f"bad retention CSV line {ln!r}: want five fields, phaseA, phaseB and delta numbers") from None
            if variant not in VARIANTS:
                raise ConfigError(f"unknown retention variant {variant!r}")
            if (variant, metric) in seen:
                raise ConfigError(f"retention CSV repeats the row ({variant}, {metric})")
            seen.add((variant, metric))
            r = report.variants.setdefault(variant, VariantResult(variant))
            if metric in METRIC_FIELDS:
                setattr(r, f"{METRIC_FIELDS[metric]}_a", a)
                setattr(r, f"{METRIC_FIELDS[metric]}_b", b)
            elif metric == "failed":
                r.failed = b == 1.0
            else:
                raise ConfigError(f"unknown retention metric {metric!r}")
        missing = [(v, m) for v in VARIANTS for m in (*METRIC_FIELDS, "failed") if (v, m) not in seen]
        if missing:
            raise ConfigError(f"retention CSV lacks the row ({missing[0][0]}, {missing[0][1]})")
        return report


@dataclass(frozen=True)
class RetentionConfig(Config):
    fact: FactSpec = FactSpec()
    instruction: InstructionSpec = InstructionSpec()
    phase_a: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            steps=250, batch_size=8, seq_len=16, lr_base=1e-3, schedule=cosine(10), eval_every=50
        )
    )
    phase_b: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            steps=300, batch_size=8, seq_len=32, lr_base=1e-3, schedule=cosine(10), eval_every=50
        )
    )
    seed: int = 0


def variant_model_configs(base: ModelConfig | None = None) -> dict[str, ModelConfig]:
    cfg = base if base is not None else preset("micro")
    if not cfg.has_memory:
        raise ConfigError("retention base config must have memory layers")
    return {
        "vanilla-like": replace(cfg, memory_layer_indices=()),
        "moc": cfg,
        "moc-frozen-bank": cfg,
    }


def _check_disjoint(fact_corpus: Corpus, instr_corpus: Corpus) -> None:
    fact_tokens = set(np.unique(fact_corpus.tokens).tolist())
    instr_tokens = set(np.unique(instr_corpus.tokens).tolist())
    overlap = fact_tokens & instr_tokens
    if overlap:
        raise ConfigError(f"fact and instruction corpora share tokens: {sorted(overlap)[:8]}")


def _phase_a(mc: ModelConfig, corpus: Corpus, cfg: TrainConfig, probes: tuple[list[Probe], list[Probe]]):
    """Pretrain a fresh ``mc`` model on the facts. Returns its (fact recall,
    task accuracy, fact loss), the eval batches that loss was measured on
    and a checkpoint of its weights alone, or None when training aborts.
    The model, the optimizer and its moments die on return."""
    model = build_model(mc, RngState(cfg.seed))
    try:
        res = train(model, corpus, cfg)
    except TrainingAborted:
        return None
    # train() evaluates at its last step, on the final weights; a zero-step run has no eval row
    evals = res.eval_rows()
    fact_loss = evals[-1].lm_loss if evals else _eval_losses(model, res.eval_batches)[0]
    measured = (*(eval_fact_recall(model, p) for p in probes), fact_loss)
    # continue_train starts a fresh optimizer, so no phase B reads a moment
    return measured, res.eval_batches, replace(res.checkpoint, moments={})


def _phase_b(ckpt: Checkpoint, corpus: Corpus, cfg: TrainConfig, probes: tuple[list[Probe], list[Probe]],
             fact_batches: list[np.ndarray]) -> tuple[float, float, float, bool | None]:
    """Fine-tune from ``ckpt``; returns the (fact recall, task accuracy, fact
    loss, bank unchanged) of the result, the last None for a model without a
    bank. The phase-B model dies on return."""
    model = continue_train(ckpt, corpus, cfg).model
    bank_before = ckpt.tensors.get("bank.tokens")
    unchanged = None if bank_before is None else bool(np.array_equal(bank_before, model["bank.tokens"].data))
    return (*(eval_fact_recall(model, p) for p in probes), _eval_losses(model, fact_batches)[0], unchanged)


def _run_group(group: list[VariantResult], mc: ModelConfig, cfg: RetentionConfig, fact_corpus: Corpus,
               instr_corpus: Corpus, probes: tuple[list[Probe], list[Probe]]) -> None:
    """Run one phase A of ``mc`` and, from its weights, each variant's phase
    B, filling ``group``'s results; a phase-A abort fails the whole group."""
    pretrained = _phase_a(mc, fact_corpus, replace(cfg.phase_a, seed=cfg.seed), probes)
    if pretrained is None:
        for result in group:
            result.failed = True
        return
    measured_a, fact_batches, ckpt = pretrained
    for result in group:
        result.fact_recall_a, result.task_acc_a, result.fact_loss_a = measured_a
        phase_b = replace(
            cfg.phase_b,
            seed=cfg.seed + 1,
            bank_mode="frozen" if result.variant == "moc-frozen-bank" else cfg.phase_b.bank_mode,
        )
        try:
            measured_b = _phase_b(ckpt, instr_corpus, phase_b, probes, fact_batches)
        except TrainingAborted:
            result.failed = True
            continue
        result.fact_recall_b, result.task_acc_b, result.fact_loss_b, result.bank_unchanged_in_b = measured_b


def run_retention_protocol(
    cfg: RetentionConfig, model_cfg: ModelConfig | None = None
) -> RetentionReport:
    """Train each variant on facts, fine-tune on the instruction task
    with doubled context, and measure what happened to fact recall.
    Variants with equal model configs branch from one phase-A run, whose
    abort fails them all. Phase B holds phase A's weights and nothing else
    of it, and one phase-B model is alive at a time."""
    fact_corpus, fact_probes = gen_fact_corpus(cfg.fact, vocab=(model_cfg or preset("micro")).vocab)
    instr_corpus, instr_probes = gen_instruction_corpus(
        cfg.instruction, vocab=(model_cfg or preset("micro")).vocab
    )
    _check_disjoint(fact_corpus, instr_corpus)
    configs = variant_model_configs(model_cfg)
    report = RetentionReport(seed=cfg.seed, variants={v: VariantResult(v) for v in configs})
    mcs = list(configs.values())
    for mc in (c for i, c in enumerate(mcs) if c not in mcs[:i]):  # each distinct config once
        group = [report.variants[v] for v, c in configs.items() if c == mc]
        _run_group(group, mc, cfg, fact_corpus, instr_corpus, (fact_probes, instr_probes))
    return report


def run_multi_seed(
    cfg: RetentionConfig, seeds: list[int], model_cfg: ModelConfig | None = None
) -> tuple[list[RetentionReport], RetentionReport]:
    """One report per seed plus a mean report over non-failed variants."""
    if not seeds:
        raise ConfigError("need at least one seed")
    reports = [run_retention_protocol(replace(cfg, seed=s), model_cfg) for s in seeds]
    mean = RetentionReport(seed=-1)
    for variant in VARIANTS:
        oks = [r.variants[variant] for r in reports if not r.variants[variant].failed]
        agg = VariantResult(variant, failed=not oks)
        if oks:
            for name in (f"{prefix}_{phase}" for prefix in METRIC_FIELDS.values() for phase in "ab"):
                setattr(agg, name, float(np.mean([getattr(v, name) for v in oks])))
        mean.variants[variant] = agg
    return reports, mean
