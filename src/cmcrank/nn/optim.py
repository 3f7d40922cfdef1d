"""AdamW without weight decay, on a linear warmup/decay schedule.

The effective learning rate at step ``s`` (0-based) is
``learning_rate * warmup_schedule(s, total_steps)``: it rises linearly from
0 over the first ``WARMUP_FRACTION`` (a tenth) of the run and then decays
linearly back to 0.  ``total_steps == 0`` selects a constant schedule,
useful for single-step tests.  The Adam moments use the fixed
``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.  No caller decays
weights, so the update has no decay term.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import InvalidShape, StateError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_FRACTION = 0.1


def warmup_schedule(step: int, total_steps: int) -> float:
    """Linear warmup then linear decay; 1.0 everywhere if total_steps == 0."""
    if total_steps <= 0:
        return 1.0
    warmup_steps = max(1, int(round(WARMUP_FRACTION * total_steps)))
    if step < warmup_steps:
        return step / warmup_steps
    if total_steps <= warmup_steps:
        return 1.0
    return max(0.0, (total_steps - step) / (total_steps - warmup_steps))


@dataclass
class OptimizerState:
    """Per-parameter AdamW moments plus the schedule bookkeeping."""

    learning_rate: float
    total_steps: int = 0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_arrays(cls, arrays: Mapping[str, np.ndarray], learning_rate: float,
                   **kwargs) -> "OptimizerState":
        state = cls(learning_rate=learning_rate, **kwargs)
        state.m = {name: np.zeros_like(a) for name, a in arrays.items()}
        state.v = {name: np.zeros_like(a) for name, a in arrays.items()}
        return state

    def effective_lr(self) -> float:
        return self.learning_rate * warmup_schedule(self.step, self.total_steps)


def adamw_step(arrays: Mapping[str, np.ndarray],
               grads: Mapping[str, np.ndarray],
               state: OptimizerState) -> None:
    """One in-place update over every named parameter buffer; ``grads``
    must hold a gradient for each name in ``arrays``."""
    if state.total_steps > 0 and state.step >= state.total_steps:
        raise StateError(f"optimizer already ran its {state.total_steps} steps")
    lr = state.effective_lr()
    t = state.step + 1
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t

    for name, theta in arrays.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise InvalidShape(
                f"gradient for {name} has shape {g.shape}, parameter {theta.shape}")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / bias1
        v_hat = v / bias2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        theta -= (lr * update).astype(theta.dtype, copy=False)
    state.step += 1
