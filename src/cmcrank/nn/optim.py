"""AdamW without weight decay, on a linear warmup/decay schedule.

The effective learning rate at step ``s`` (0-based) is
``learning_rate * warmup_schedule(s, total_steps)``: it rises linearly from
0 over the first ``WARMUP_FRACTION`` (a tenth) of the run and then decays
linearly back to 0, so step 0 moves no weight.  Every optimizer has a
schedule: ``OptimizerState.total_steps`` is required, an integer of at
least 1 (else ``InvalidConfig``), and stepping past it raises
``StateError``.  The Adam moments use the fixed ``ADAM_BETA1``,
``ADAM_BETA2`` and ``ADAM_EPS``.  No caller decays weights, so the update
has no decay term.  ``adamw_step`` works on whole vectors: one flat
parameter vector (``CmcParams.flat``), a gradient and two moments of the
same layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig, InvalidShape, StateError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_FRACTION = 0.1


def warmup_schedule(step: int, total_steps: int) -> float:
    """Linear warmup over the first tenth of ``total_steps`` (at least one
    step), then linear decay to 0 at ``total_steps``."""
    warmup_steps = max(1, int(round(WARMUP_FRACTION * total_steps)))
    if step < warmup_steps:
        return step / warmup_steps
    return max(0.0, (total_steps - step) / max(1, total_steps - warmup_steps))


@dataclass
class OptimizerState:
    """AdamW moments over one flat parameter vector plus the schedule
    bookkeeping, ``total_steps`` of at least 1; the first ``adamw_step``
    zero-fills ``m`` and ``v``."""

    learning_rate: float
    total_steps: int
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.total_steps, int | np.integer) or self.total_steps < 1:
            raise InvalidConfig(f"total_steps must be an integer of at least 1, "
                                f"got {self.total_steps!r}")

    def effective_lr(self) -> float:
        return self.learning_rate * warmup_schedule(self.step, self.total_steps)


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place update of the vector ``theta`` from the same-shaped
    ``grad``; allocates two scratch vectors and writes everything else in place."""
    if state.step >= state.total_steps:
        raise StateError(f"optimizer already ran its {state.total_steps} steps")
    if grad.shape != theta.shape:
        raise InvalidShape(f"gradient has shape {grad.shape}, parameters {theta.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    lr = state.effective_lr()
    t = state.step + 1
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t

    m, v = state.m, state.v
    a, b = np.empty_like(theta), np.empty_like(theta)
    np.subtract(grad, m, out=a)                 # m += (1 - beta1) * (g - m)
    a *= 1.0 - ADAM_BETA1
    m += a
    np.multiply(grad, grad, out=a)              # v += (1 - beta2) * (g^2 - v)
    a -= v
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(v, bias2, out=a)                  # sqrt(v_hat) + eps
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, bias1, out=b)                  # m_hat / (sqrt(v_hat) + eps)
    b /= a
    b *= lr
    theta -= b
    state.step += 1
