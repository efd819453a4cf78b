"""Model architecture configuration and the named presets."""

from __future__ import annotations

import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError


class Config:
    """Dict codec for the config dataclasses; the fields are the keys.

    ``from_dict`` checks every value against its field's annotation: a
    ``Config`` field takes an object and is rebuilt by that class's
    ``from_dict``, a tuple field is rebuilt as a tuple, and an ``int``
    takes neither a bool nor a float. So a JSON round trip gives an
    equal config, and a malformed document raises ``ConfigError``.
    ``from_dict`` rejects unknown and missing keys. Every config checks
    its own values in ``__post_init__``, so one that is built, directly,
    by ``replace`` or by ``from_dict``, is valid. Errors name the class
    in words; a nested config's errors, those a class raises on
    construction included, begin with its dotted key path, as in
    ``train.schedule: schedule is missing required keys: ['kind']``.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, path: str = ""):
        name = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
        at = f"{path}: " if path else ""
        if not isinstance(d, dict):
            raise ConfigError(f"{at}{name} must be a JSON object, got {type(d).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise ConfigError(f"{at}unknown {name} keys: {sorted(unknown)}")
        missing = [k for k, f in known.items() if k not in d and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{at}{name} is missing required keys: {missing}")
        hints = typing.get_type_hints(cls)
        values = {
            key: _decode(value, hints[key], f"{at}invalid {name} key {key!r}", f"{path}.{key}" if path else key)
            for key, value in d.items()
        }
        try:
            return cls(**values)
        except ConfigError as e:
            raise ConfigError(f"{at}{e}") from None


def _decode(value, hint, where: str, path: str):
    """``value`` checked against the annotation ``hint``; lists become
    tuples for tuple fields and objects become configs. ``where`` opens
    the error message; ``path`` is the value's dotted key path."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    origin = typing.get_origin(hint) or hint
    if origin is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:  # tuple[X, ...]
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(_decode(v, h, f"{where}[{i}]", f"{path}[{i}]") for i, (v, h) in enumerate(zip(value, args)))
    if isinstance(origin, type) and issubclass(origin, Config) and isinstance(value, dict):
        return origin.from_dict(value, path)
    if type(value) is origin or (origin is float and type(value) in (int, float)):
        return value
    raise ConfigError(f"{where}: expected {_type_name(hint)}, got {type(value).__name__}")


def _type_name(hint) -> str:
    if isinstance(hint, type) and issubclass(hint, Config):
        return "an object"
    return hint.__name__ if type(hint) is type else str(hint)


def _plain(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return list(value)
    return value


@dataclass(frozen=True)
class ModelConfig(Config):
    """Complete architectural description of one model.

    The defaults are the paper's 16-layer backbone (``vanilla-backbone``);
    the presets below name only the fields they change.

    Memory geometry: the bank holds ``bank_tokens`` latent tokens split
    into ``chapters`` contiguous blocks of ``chapter_size`` rows each;
    chapters [0, shared_chapters) are always-on, the router picks
    ``top_k`` of the rest per sequence. ``memory_layer_indices`` empty
    means a pure dense model.
    """

    d_model: int = 768
    n_layers: int = 16
    n_heads: int = 12
    n_kv_heads: int = 4
    d_ff: int = 2304
    vocab: int = 49152
    rope_theta: float = 100000.0
    tied_embeddings: bool = True
    memory_layer_indices: tuple[int, ...] = ()
    bank_tokens: int = 0
    chapters: int = 0
    shared_chapters: int = 0
    chapter_size: int = 0
    top_k: int = 0
    mem_heads: int = 12
    mem_kv_heads: int = 12
    routed_scaling: float = 2.5
    lb_coeff: float = 0.01
    z_coeff: float = 0.001
    adapter_enabled: bool = False
    bank_init_std: float = 0.02
    max_seq_len: int = 1024

    @property
    def has_memory(self) -> bool:
        return len(self.memory_layer_indices) > 0

    @property
    def routed_chapters(self) -> int:
        return self.chapters - self.shared_chapters

    @property
    def selected_tokens(self) -> int:
        """Memory tokens attended per sequence: (shared + top_k) * chapter_size."""
        return (self.shared_chapters + self.top_k) * self.chapter_size

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def __post_init__(self) -> None:
        def fail(msg):
            raise ConfigError(f"invalid model config: {msg}")

        object.__setattr__(self, "memory_layer_indices", tuple(self.memory_layer_indices))  # replace may pass a list
        sizes = ("d_model", "n_layers", "vocab", "n_heads", "n_kv_heads", "d_ff")
        for name in sizes + (("mem_heads", "mem_kv_heads") if self.has_memory else ()):
            if getattr(self, name) < 1:
                fail(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            fail(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.n_heads % self.n_kv_heads != 0:
            fail(f"n_heads={self.n_heads} not divisible by n_kv_heads={self.n_kv_heads}")
        if self.head_dim % 2 != 0:
            fail(f"head dimension {self.head_dim} must be even for rotary embedding")
        if self.max_seq_len < 1:
            fail("max_seq_len must be >= 1")
        if not (math.isfinite(self.rope_theta) and self.rope_theta > 0):
            fail(f"rope_theta must be finite and > 0, got {self.rope_theta}")
        for name in ("routed_scaling", "lb_coeff", "z_coeff", "bank_init_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                fail(f"{name} must be finite and >= 0, got {value}")
        bad = [i for i in self.memory_layer_indices if not 0 <= i < self.n_layers]
        if bad:
            fail(f"memory_layer_indices {bad} outside [0, {self.n_layers})")
        if len(set(self.memory_layer_indices)) != len(self.memory_layer_indices):
            fail("memory_layer_indices contains duplicates")
        if self.has_memory:
            if self.bank_tokens != self.chapters * self.chapter_size:
                fail(
                    f"bank_tokens={self.bank_tokens} != chapters*chapter_size="
                    f"{self.chapters}*{self.chapter_size}"
                )
            if self.chapter_size <= 0 or self.chapters <= 0:
                fail("chapters and chapter_size must be positive when memory layers exist")
            if self.shared_chapters < 0 or self.top_k < 1:
                fail("shared_chapters must be >= 0 and top_k >= 1")
            if self.shared_chapters + self.top_k > self.chapters:
                fail(
                    f"shared_chapters+top_k={self.shared_chapters + self.top_k} exceeds "
                    f"chapters={self.chapters}"
                )
            if self.d_model % self.mem_heads != 0:
                fail(f"d_model={self.d_model} not divisible by mem_heads={self.mem_heads}")
            if self.mem_heads % self.mem_kv_heads != 0:
                fail(f"mem_heads={self.mem_heads} not divisible by mem_kv_heads={self.mem_kv_heads}")
            if (self.d_model // self.mem_heads) % 2 != 0:
                fail("memory attention head dimension must be even")


_PRESETS = {
    "moc-paper": lambda: ModelConfig(
        memory_layer_indices=(2, 6, 10, 14),
        bank_tokens=262208,
        chapters=4097,
        shared_chapters=1,
        chapter_size=64,
        top_k=64,
    ),
    "vanilla-backbone": ModelConfig,
    "vanilla-iso": lambda: ModelConfig(n_layers=24),
    "micro": lambda: ModelConfig(
        d_model=64,
        n_layers=4,
        n_heads=4,
        n_kv_heads=2,
        d_ff=192,
        vocab=256,
        memory_layer_indices=(1, 3),
        bank_tokens=136,
        chapters=17,
        shared_chapters=1,
        chapter_size=8,
        top_k=4,
        mem_heads=4,
        mem_kv_heads=4,
        max_seq_len=64,
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ModelConfig:
    """A new config for the named architecture; each preset names only
    the fields that differ from the ``ModelConfig`` defaults."""
    make = _PRESETS.get(name) if isinstance(name, str) else None
    if make is None:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}")
    return make()
