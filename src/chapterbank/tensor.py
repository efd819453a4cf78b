"""Dense tensors, trainable parameters, the autodiff tape, and seeded RNG.

Everything above this module is built from these pieces. Arrays are plain
row-major numpy arrays in float64 ("double") or float32 ("single");
gradients are tracked by an explicit tape of per-op backward closures
(see ops.py), replayed in reverse. There is no graph optimizer. Only
this module builds, merges, reads and densifies a row-sparse ``RowGrad``.

Determinism contract: all array math goes through numpy kernels, whose
accumulation order is fixed per platform, so identical seeds give
bit-identical results across runs on the same machine. Tests rely only on
that run-to-run reproducibility.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

PRECISION_DTYPES = {"double": np.float64, "single": np.float32}
DTYPE_PRECISION = {np.dtype(np.float64): "double", np.dtype(np.float32): "single"}

PARAM_GROUPS = ("base", "memory_layers", "memory_bank")


def _keep_freed_memory() -> None:
    """Keep the memory a consumed tape frees in the process, for the next
    step to reuse. By default glibc serves blocks above an adaptive
    threshold from fresh mmaps and returns heap tops to the OS, so every
    forward faults its activations back in. A fixed 32 MiB mmap threshold
    (glibc's 64-bit maximum) and a trim threshold no step reaches keep freed
    blocks in the heap instead. Process-wide, set once at import; RSS does
    not shrink below its peak. A no-op on any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr name, no libc symbol
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, in bytes
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()


class RowGrad(NamedTuple):
    """The row-sparse gradient of a 2-D table (``Tensor.add_rows``):
    ``ids``, sorted and distinct, and their summed ``rows``, one per id,
    in the table's dtype. Every row not in ``ids`` is exactly 0.0."""

    ids: np.ndarray
    rows: np.ndarray

    def span(self, start: int, stop: int) -> slice:
        """The slice of ``ids`` and ``rows`` whose rows hold flat table
        elements in [start, stop)."""
        d = self.rows.shape[1]
        return slice(*np.searchsorted(self.ids, (start // d, -(-stop // d))))


class Tensor:
    """A dense row-major numeric array with optional gradient tracking.

    ``data`` is the flat storage viewed through ``shape`` (numpy handles
    both); ``grad`` is allocated lazily during backward: an array shaped
    like ``data``, or, for a 2-D table that only row gathers have reached,
    a ``RowGrad`` (``add_rows``), which every other module reads through
    the grad methods. Ops only record onto the tape when one is active, so
    inference runs allocation-free.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, precision: str | None = None, requires_grad: bool = False):
        if precision is not None:
            arr = np.asarray(data, dtype=PRECISION_DTYPES[precision])
        else:
            arr = np.asarray(data)
            if arr.dtype not in DTYPE_PRECISION:
                arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | RowGrad | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def precision(self) -> str:
        return DTYPE_PRECISION[self.data.dtype]

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.ndim else float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add the full-shape ``g`` into ``grad``. The caller hands over an
        exclusive array, one no live tensor holds (an array it has just
        allocated, or the upstream gradient the tape has taken off its
        output), so the first gradient is stored as handed over, cast only
        if its dtype differs. A ``RowGrad`` already held is densified first,
        so the sum is the one a dense gradient would hold. Row gathers add
        their rows through ``add_rows`` instead."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match value shape {self.data.shape}")
        g = g.astype(self.data.dtype, copy=False)
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.dense_grad()
            self.grad += g

    def add_rows(self, ids: np.ndarray, g: np.ndarray) -> None:
        """Scatter-add the rows ``g`` at row ``ids`` of this 2-D table into
        ``grad``, touching no other row and allocating nothing shaped like
        the table: a dense grad already held (the tied embedding's head
        gradient) takes the rows in place; otherwise ``grad`` becomes a
        ``RowGrad`` of the union of the held ids (the other memory layer,
        another micro-batch) and ``ids``.

        Each row starts from 0.0 or its held value and takes its contributions
        in index order, so the result, densified, is bit-identical to numpy's
        unbuffered ``add.at`` into the dense grad, zeros' signs included: a
        stable sort ranks each occurrence of an id by how many came before it,
        and one fancy-index ``+=`` per rank adds the rank's rows, distinct
        within it, in as many passes as the most repeated id has occurrences.
        """
        ids = ids.reshape(-1)
        g = g.astype(self.data.dtype, copy=False).reshape(ids.size, self.shape[1])
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        rank = np.arange(ids.size) - np.searchsorted(sorted_ids, sorted_ids)
        if isinstance(self.grad, np.ndarray):
            target, at = self.grad, ids
        else:
            held, new = self.grad, sorted_ids[rank == 0]
            union = new if held is None else np.union1d(held.ids, new)
            if held is not None and union.size == held.ids.size:
                target = held.rows
            else:
                target = np.zeros((union.size, self.shape[1]), self.data.dtype)
                if held is not None:
                    target[np.searchsorted(union, held.ids)] = held.rows
                self.grad = RowGrad(union, target)
            at = np.searchsorted(union, ids)
        by_rank = order[np.argsort(rank, kind="stable")]
        for sel in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
            target[at[sel]] += g[sel]

    def stored_grad(self) -> np.ndarray | None:
        """The array that holds ``grad``'s stored elements, to scale or check
        in place: a ``RowGrad``'s rows, else ``grad`` itself (or ``None``)."""
        return self.grad.rows if isinstance(self.grad, RowGrad) else self.grad

    def holds_grad(self, start: int, stop: int) -> bool:
        """Whether ``grad`` stores an element among flat elements [start,
        stop), ``start < stop``: a dense grad does, a ``RowGrad`` by row."""
        if isinstance(self.grad, RowGrad):
            return self.grad.ids[self.grad.span(start, stop)].size > 0
        return self.grad is not None

    def read_grad(self, start: int, stop: int, out: np.ndarray) -> None:
        """Write flat elements [start, stop) of ``grad`` densely into the
        flat ``out``, cast to its dtype, a missing grad or row as zeros. The
        rows go in whole, into ``out`` itself when the range starts and stops
        on row boundaries, else into a zeroed window of the rows it touches."""
        grad = self.grad
        if grad is None:
            out[...] = 0
        elif not isinstance(grad, RowGrad):
            out[...] = grad.reshape(-1)[start:stop]
        else:
            d = self.shape[1]
            held = grad.span(start, stop)
            first, lead = divmod(start, d)
            aligned = lead == 0 and out.size % d == 0
            window = out.reshape(-1, d) if aligned else np.empty((-(-stop // d) - first, d), out.dtype)
            window[...] = 0
            window[grad.ids[held] - first] = grad.rows[held]
            if not aligned:
                out[...] = window.reshape(-1)[lead : lead + out.size]

    def dense_grad(self) -> np.ndarray:
        """``grad`` as a full array: the held array when dense, else the
        whole table read by ``read_grad`` into a fresh array, so a missing
        grad and the rows a ``RowGrad`` lacks read as 0.0."""
        if isinstance(self.grad, np.ndarray):
            return self.grad
        out = np.empty(self.shape, self.data.dtype)
        self.read_grad(0, self.size, out.reshape(-1))
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, precision={self.precision}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor. It holds a gradient only from the backward
    that first reaches it to the optimizer step that applies it (or to
    ``zero_grad``); otherwise ``grad`` is ``None``, which counts as zeros.

    Every parameter belongs to exactly one group: base, memory_layers,
    or memory_bank (the per-group learning rates and freezing act on
    these). An optimizer that freezes the group drops the grad and turns
    off ``requires_grad``, so no backward reaches it.
    """

    __slots__ = ("name", "group")

    def __init__(self, data: np.ndarray, name: str, group: str):
        if group not in PARAM_GROUPS:
            raise ValueError(f"unknown parameter group {group!r} for {name!r}")
        super().__init__(data, requires_grad=True)
        self.name = name
        self.group = group

    @property
    def value(self) -> "Parameter":
        """The parameter itself; the benchmark harness reads ``p.value.data``."""
        return self

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, group={self.group!r})"


_ACTIVE_TAPE: list["Tape"] = []


class Tape:
    """Explicit record of applied ops, replayed in reverse for backward.

    Use as a context manager around the forward pass:

        with Tape() as tape:
            loss = forward(...)
        tape.backward(loss)

    Each op appends (output, backward_fn); backward_fn receives the
    output's upstream gradient and accumulates into the inputs. Backward
    consumes the tape: it pops each record and takes the output's grad
    off it through ``dense_grad`` (a row gather of an op output leaves
    its rows alone) before calling the closure, so every intermediate
    gradient and every closure's saved arrays are freed once used, and the
    tape is empty afterwards. Leaves (Parameters and tensors no op
    produced) keep their grads. Outputs never reached by the loss have grad
    None and their records are dropped unrun.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPE.pop()

    def record(self, out: Tensor, backward_fn) -> None:
        self._records.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            out, fn = records.pop()
            if out.grad is not None:  # dense: a row gather of an op output leaves rows, and closures take arrays
                g, out.grad = out.dense_grad(), None
                fn(g)


def active_tape() -> Tape | None:
    return _ACTIVE_TAPE[-1] if _ACTIVE_TAPE else None


def _derive_seed(*parts) -> int:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


class RngState:
    """Seeded randomness with named substreams.

    Backed by numpy's PCG64 generator. A substream is derived from
    (seed, label) via SHA-256, so identical seeds give bit-identical
    draws in any consumption order, independent of how many other
    substreams exist.
    """

    algorithm = "pcg64-sha256-substreams"

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def substream(self, *labels) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_derive_seed(self.seed, *labels)))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, algorithm={self.algorithm!r})"
