"""Finite-difference gradient oracle for every backward pass.

Central differences (f(x+h) - f(x-h)) / 2h against the tape's analytic
gradients, in double precision. For big parameter sets a deterministic
per-tensor subsample keeps the check in minutes; every tensor is still
touched.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .tensor import Parameter, Tape


def _eval_scalar(f, context: str) -> float:
    val = float(f().item())
    if not np.isfinite(val):
        raise NumericError(f"non-finite objective while grad-checking {context}")
    return val


def grad_check(
    f,
    params: list[Parameter],
    h: float = 1e-5,
    max_entries_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and numeric gradients.

    ``f`` is a zero-argument closure over ``params`` returning a scalar
    Tensor; it is re-evaluated with entries perturbed in place. Relative
    error per entry is |analytic - numeric| / max(1, |analytic|,
    |numeric|). With ``max_entries_per_param`` set, that many entries are
    sampled per tensor (seeded, deterministic); otherwise all entries are
    checked.
    """
    for p in params:
        if p.precision != "double":
            raise NumericError(f"grad_check requires double precision, {p.name} is {p.precision}")
        p.zero_grad()

    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.item()):
        raise NumericError("non-finite objective at the expansion point")
    tape.backward(loss)
    analytic = [p.dense_grad() for p in params]  # zeros where f never reaches p

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if max_entries_per_param is None or n <= max_entries_per_param:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=max_entries_per_param, replace=False)
        an = grad.reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = _eval_scalar(f, p.name)
            flat[i] = orig - h
            f_minus = _eval_scalar(f, p.name)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(an[i] - numeric) / max(1.0, abs(an[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst
