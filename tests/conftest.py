import numpy as np
import pytest

from chapterbank.ops import _record
from chapterbank.config import preset
from chapterbank.optim import AdamW
from chapterbank.tensor import Tensor


def rand_tensor(shape, seed=0, scale=1.0, requires_grad=False):
    gen = np.random.default_rng(seed)
    return Tensor(gen.standard_normal(shape) * scale, requires_grad=requires_grad)


def weighted_sum(x, w=1.0):
    """Taped (1, 1) sum of x * w, w broadcast to x's shape and cast to x's
    precision: x flattened to one row times the fixed column w. One record;
    the tests' reduction to a scalar loss. Backward: dx = g * w."""
    col = np.broadcast_to(w, x.shape).reshape(x.size, 1).astype(x.data.dtype)
    out = Tensor(x.data.reshape(1, x.size) @ col)
    return _record(out, [x], lambda g: x.accumulate_grad((g @ col.T).reshape(x.shape)))


@pytest.fixture
def micro_cfg():
    return preset("micro")


@pytest.fixture
def applied_lrs(monkeypatch):
    """A list that gets one {group: lr} entry per completed ``AdamW.step``:
    the rate its update applied to each group the optimizer trains."""
    log = []
    step = AdamW.step

    def recorded(self, group_lrs, t):
        step(self, group_lrs, t)
        log.append({seg.group: float(group_lrs[seg.group]) for seg in self.segments})

    monkeypatch.setattr(AdamW, "step", recorded)
    return log
