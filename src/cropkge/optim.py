"""Sparse Adam for embedding tables plus the learnable scalars.

Moment and step-count state live per element (row x column). An element is
updated only when its accumulated batch gradient is exactly nonzero, so
rows a step never touches keep their values and bias-correction counters
untouched. All optimizer math runs in float64; table writes cast back to
the table dtype.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SCALARS, CroppableModel

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator floor


def lr_schedule(step: int, max_steps: int, init_lr: float) -> float:
    """Linear decay from init_lr to 0 over max_steps, floored at 0."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    return init_lr * max(0.0, 1.0 - step / max_steps)


@dataclass
class Adam:
    """Per-element Adam state over a model's tables and scalars."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    tstep: dict[str, np.ndarray] = field(default_factory=dict)
    scalar_state: dict[str, list] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: CroppableModel) -> "Adam":
        opt = cls()
        for name, table in model.tables.items():
            opt.m[name] = np.zeros(table.shape, dtype=np.float64)
            opt.v[name] = np.zeros(table.shape, dtype=np.float64)
            opt.tstep[name] = np.zeros(table.shape, dtype=np.int64)
        for name in SCALARS:
            opt.scalar_state[name] = [0.0, 0.0, 0]  # m, v, t
        return opt

    def apply(
        self,
        model: CroppableModel,
        table_grads: dict[str, tuple[np.ndarray, np.ndarray]],
        scalar_grads: dict[str, float],
        lr: float,
    ) -> None:
        """One update from finalized gradients {table: (row ids, block)}."""
        for name, (ids, grad) in table_grads.items():
            width = grad.shape[1]
            mask = grad != 0.0
            if not mask.any():
                continue
            cols = slice(0, width)
            m_b = self.m[name][ids, cols]
            v_b = self.v[name][ids, cols]
            t_b = self.tstep[name][ids, cols]
            t_new = np.where(mask, t_b + 1, t_b)
            m_new = np.where(mask, BETA1 * m_b + (1.0 - BETA1) * grad, m_b)
            v_new = np.where(mask, BETA2 * v_b + (1.0 - BETA2) * grad * grad, v_b)
            t_safe = np.where(mask, t_new, 1)
            m_hat = m_new / (1.0 - BETA1 ** t_safe)
            v_hat = v_new / (1.0 - BETA2 ** t_safe)
            delta = np.where(mask, -lr * m_hat / (np.sqrt(v_hat) + EPS), 0.0)
            table = model.tables[name]
            block = table[ids, cols].astype(np.float64) + delta
            table[ids, cols] = block.astype(table.dtype)
            self.m[name][ids, cols] = m_new
            self.v[name][ids, cols] = v_new
            self.tstep[name][ids, cols] = t_new
        for name, g in scalar_grads.items():
            if g == 0.0:
                continue
            sm, sv, st = self.scalar_state[name]
            st += 1
            sm = BETA1 * sm + (1.0 - BETA1) * g
            sv = BETA2 * sv + (1.0 - BETA2) * g * g
            m_hat = sm / (1.0 - BETA1 ** st)
            v_hat = sv / (1.0 - BETA2 ** st)
            value = getattr(model, name) - lr * m_hat / (np.sqrt(v_hat) + EPS)
            setattr(model, name, float(value))
            self.scalar_state[name] = [sm, sv, st]
