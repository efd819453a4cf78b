"""Binary checkpoints: magic `MOCCKPT1`, length-prefixed JSON header,
raw little-endian tensor payloads.

The header carries the config echo, step counter, RNG seed, and a tensor
directory (name, shape, precision, byte offset/length, zlib CRC-32 of the
payload). Weights live
under their parameter names; optimizer moments under `optim.m.<name>` /
`optim.v.<name>`. Round trips are bit-exact by construction: payloads are
the raw little-endian bytes of each array.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CheckpointMismatch, ConfigError
from .model import Model, param_specs
from .tensor import DTYPE_PRECISION, PRECISION_DTYPES, Parameter, RngState

MAGIC = b"MOCCKPT1"
FORMAT_VERSION = 2  # 2: every tensor entry carries a crc32
_DTYPES = {name: np.dtype(dtype).newbyteorder("<") for name, dtype in PRECISION_DTYPES.items()}  # file byte order


@dataclass
class Checkpoint:
    config: ModelConfig
    step: int
    seed: int
    tensors: dict[str, np.ndarray]  # weights, keyed by parameter name
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def checkpoint_from(model, step: int = 0, seed: int = 0, optimizer=None) -> Checkpoint:
    """Snapshot ``model``'s weights and ``optimizer``'s moments as copies;
    a moment that is all zero (an optimizer that has not stepped) is kept
    instead as a shared read-only view that holds one element. A strided
    sample of each moment is scanned first, so a stepped moment is seldom
    scanned in full."""

    def snapshot(arr: np.ndarray) -> np.ndarray:
        if not arr.reshape(-1)[::1024].any() and not arr.any():
            return np.broadcast_to(np.zeros((), arr.dtype), arr.shape)
        return arr.copy()

    tensors = {name: p.data.copy() for name, p in model.params.items()}
    moments = {}
    if optimizer is not None:
        moments = {name: (snapshot(buf["m"]), snapshot(buf["v"])) for name, buf in optimizer.state.items()}
    return Checkpoint(config=model.config, step=step, seed=seed, tensors=tensors, moments=moments)


def _precision_of(arr: np.ndarray) -> str:
    if arr.dtype not in DTYPE_PRECISION:
        raise ConfigError(f"unsupported tensor dtype {arr.dtype}")
    return DTYPE_PRECISION[arr.dtype]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path`` atomically: the bytes go to a temp file in
    the same directory, which then replaces ``path``. A failed write leaves
    an existing checkpoint at ``path`` unchanged and no temp file behind."""
    entries = []
    payloads = []
    offset = 0

    def put(name: str, arr: np.ndarray):
        nonlocal offset
        precision = _precision_of(arr)
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[precision]).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "precision": precision,
                "offset": offset,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw),
            }
        )
        payloads.append(raw)
        offset += len(raw)

    for name in sorted(ckpt.tensors):
        put(name, ckpt.tensors[name])
    for name in sorted(ckpt.moments):
        m, v = ckpt.moments[name]
        put(f"optim.m.{name}", m)
        put(f"optim.v.{name}", v)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": ckpt.config.to_dict(),
        "step": ckpt.step,
        "rng": {"seed": ckpt.seed, "algorithm": RngState.algorithm},
        "metadata": {},
        "tensors": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HEADER_KEYS = (("format_version", int), ("model_config", dict), ("step", int), ("rng", dict), ("tensors", list))
_ENTRY_KEYS = (("name", str), ("precision", str), ("offset", int), ("nbytes", int), ("shape", list), ("crc32", int))


def _check_keys(obj, keys: tuple[tuple[str, type], ...], where: str, path) -> None:
    """Raise ConfigError naming the first key of ``keys`` that ``obj`` lacks
    or holds with another JSON type (a bool is not an int here)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: checkpoint {where} is not a JSON object")
    for key, kind in keys:
        if key not in obj:
            raise ConfigError(f"{path}: checkpoint {where} is missing {key!r}")
        if type(obj[key]) is not kind:
            raise ConfigError(f"{path}: checkpoint {where} {key!r} must be {kind.__name__}, got {type(obj[key]).__name__}")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated or corrupt file, a payload whose
    CRC-32 differs from its entry's, a header that lacks a key or holds
    one with the wrong type, a name listed twice, or an optimizer moment
    without its pair, raises ConfigError.
    Each payload is read straight into its own array, so the peak is one
    file's worth of memory."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if head[:8] != MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic {head[:8]!r})")
        if size < 16:
            raise ConfigError(f"{path}: truncated checkpoint ({size} bytes, no header length)")
        base = 16 + struct.unpack("<Q", head[8:16])[0]
        if base > size:
            raise ConfigError(f"{path}: truncated checkpoint ({size} bytes, header needs {base})")
        try:
            header = json.loads(f.read(base - 16).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: corrupt checkpoint header ({e})") from None
        _check_keys(header, _HEADER_KEYS, "header", path)
        _check_keys(header["rng"], (("seed", int),), "header rng", path)
        if header["format_version"] != FORMAT_VERSION:
            raise ConfigError(f"unsupported checkpoint format version {header['format_version']}")
        tensors: dict[str, np.ndarray] = {}
        moments_flat: dict[str, np.ndarray] = {}
        for i, entry in enumerate(header["tensors"]):
            _check_keys(entry, _ENTRY_KEYS, f"tensor entry {i}", path)
            if entry["precision"] not in _DTYPES:
                raise ConfigError(f"{path}: tensor {entry['name']} has unknown precision {entry['precision']!r}")
            if not all(type(n) is int and n >= 0 for n in entry["shape"]):
                raise ConfigError(f"{path}: tensor {entry['name']} has a bad shape {entry['shape']}")
            dtype, start, nbytes = np.dtype(_DTYPES[entry["precision"]]), base + entry["offset"], entry["nbytes"]
            if nbytes != math.prod(entry["shape"]) * dtype.itemsize:
                raise ConfigError(f"{path}: tensor {entry['name']} has {nbytes} bytes for shape {entry['shape']}")
            if not base <= start <= size - nbytes:
                raise ConfigError(f"{path}: tensor {entry['name']} runs past the end of the file (truncated checkpoint)")
            arr = np.empty(entry["shape"], dtype=dtype)
            f.seek(start)
            if f.readinto(arr) != nbytes:
                raise ConfigError(f"{path}: tensor {entry['name']} was cut short while being read")
            if zlib.crc32(arr) != entry["crc32"]:
                raise ConfigError(f"{path}: tensor {entry['name']} fails its CRC-32 check (corrupt payload)")
            table = moments_flat if entry["name"].startswith("optim.") else tensors
            if entry["name"] in table:
                raise ConfigError(f"{path}: tensor {entry['name']} appears twice in the tensor table")
            table[entry["name"]] = arr
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for key in moments_flat:
        _, kind, name = (key.split(".", 2) + [""])[:3]
        pair = f"optim.{'v' if kind == 'm' else 'm'}.{name}"
        if kind not in ("m", "v") or not name:
            raise ConfigError(f"{path}: tensor {key} is neither optim.m.<name> nor optim.v.<name>")
        if pair not in moments_flat:
            raise ConfigError(f"{path}: optimizer moment {key} has no {pair}")
        if kind == "m":
            moments[name] = (moments_flat[key], moments_flat[pair])
    return Checkpoint(
        config=ModelConfig.from_dict(header["model_config"]),
        step=header["step"],
        seed=header["rng"]["seed"],
        tensors=tensors,
        moments=moments,
    )


def config_diff(expected: ModelConfig, found: ModelConfig, ignore: set[str] = frozenset()) -> dict:
    a, b = expected.to_dict(), found.to_dict()
    return {
        key: {"expected": a[key], "checkpoint": b[key]}
        for key in a
        if key not in ignore and a[key] != b[key]
    }


def check_config_match(expected: ModelConfig, found: ModelConfig, ignore: set[str] = frozenset()) -> None:
    diff = config_diff(expected, found, ignore)
    if diff:
        raise CheckpointMismatch(diff)


def model_from_checkpoint(ckpt: Checkpoint, max_seq_len: int | None = None) -> Model:
    """Rebuild a model around copies of the checkpoint's weights, in their
    saved precision, drawing no random init; max_seq_len may be raised for
    longer-context continuation. A tensor table that does not match the
    config raises CheckpointMismatch, and weights of mixed precision
    ConfigError."""
    cfg = ckpt.config
    if max_seq_len is not None:
        cfg = replace(cfg, max_seq_len=max(max_seq_len, cfg.max_seq_len))
    specs = param_specs(cfg)
    shapes = {name: shape for name, shape, _, _ in specs}
    missing, extra = set(shapes) - set(ckpt.tensors), set(ckpt.tensors) - set(shapes)
    if missing or extra:
        raise CheckpointMismatch({"tensor_table": {"missing": sorted(missing), "unexpected": sorted(extra)}})
    for name, shape in shapes.items():
        found = tuple(ckpt.tensors[name].shape)
        if found != shape:
            raise CheckpointMismatch({name: {"expected": list(shape), "checkpoint": list(found)}})
    precisions = sorted({_precision_of(arr) for arr in ckpt.tensors.values()})
    if len(precisions) > 1:
        raise ConfigError(f"checkpoint weights mix precisions {precisions}; a checkpoint holds one")
    params = {name: Parameter(ckpt.tensors[name].copy(), name, group) for name, _, group, _ in specs}
    return Model(cfg, params)
