"""The expectation functional I(x, y) = sum_s p_s f(x, y_s, theta_s).

Its codifferential over the joint space factors scenario-blockwise: one
CodiffPair per scenario, never the exponential product polytope.  All
reductions run in ascending scenario order so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codiff import CodiffPair, codiff, dirderiv, expansion_value, quasidiff
from .errors import DimensionMismatch, NonFinite
from .expr import Expr, evaluate
from .model import Point, TwoStageProblem


@dataclass(frozen=True, eq=False)
class BlockCodiff:
    """Scenario-factored codifferential of the expectation integrand."""

    per_scenario: tuple[CodiffPair, ...]
    probs: np.ndarray
    d: int
    m: int

    def __post_init__(self):
        if len(self.per_scenario) != self.probs.shape[0]:
            raise DimensionMismatch("one codifferential pair per scenario required")
        for s, cd in enumerate(self.per_scenario):
            if cd.dim != self.d + self.m:
                raise DimensionMismatch(
                    f"scenario {s} pair has dim {cd.dim}, expected {self.d + self.m}"
                )

    @property
    def S(self) -> int:
        return len(self.per_scenario)


def eval_I(prob: TwoStageProblem, z: Point) -> float:
    """Probability-weighted sum of f over scenarios, ascending index order."""
    prob.check_point(z)
    th = prob.scenarios.params
    vals = [evaluate(prob.f, z.x, z.y[s], th[s]) for s in range(prob.S)]
    total = 0.0
    for s, v in enumerate(vals):
        if not math.isfinite(v):
            raise NonFinite(f"integrand not finite in scenario {s}")
        total += float(prob.scenarios.probs[s]) * v
    return total


def block_codiff(prob: TwoStageProblem, z: Point) -> BlockCodiff:
    """codiff of f at (x, y_s, theta_s) for every scenario s."""
    return _integrand_codiff(prob, prob.f, z)


def _integrand_codiff(prob: TwoStageProblem, integrand: Expr, z: Point) -> BlockCodiff:
    """codiff of a per-scenario integrand at (x, y_s, theta_s) for every s."""
    prob.check_point(z)
    th = prob.scenarios.params
    pairs = [codiff(integrand, z.x, z.y[s], th[s]) for s in range(prob.S)]
    return BlockCodiff(
        per_scenario=tuple(pairs), probs=prob.scenarios.probs, d=prob.d, m=prob.m
    )


def I_expansion(bc: BlockCodiff, dx, dy) -> float:
    """First-order expansion of I: sum_s p_s expansion_value(pair_s, (dx, dy_s))."""
    dx = np.asarray(dx, dtype=np.float64).ravel()
    dy = np.asarray(dy, dtype=np.float64).reshape(bc.S, -1)
    if dx.shape[0] != bc.d or dy.shape[1] != bc.m:
        raise DimensionMismatch(
            f"direction blocks ({dx.shape[0]}, {dy.shape[1]}) do not match ({bc.d}, {bc.m})"
        )
    total = 0.0
    for s in range(bc.S):
        h_s = np.concatenate((dx, dy[s]))
        total += float(bc.probs[s]) * expansion_value(bc.per_scenario[s], h_s)
    return total


def I_dirderiv(prob: TwoStageProblem, z: Point, hx, hy) -> float:
    """Directional derivative of I at z: the weighted sum of per-scenario
    directional derivatives along (hx, hy_s)."""
    bc = block_codiff(prob, z)
    hx = np.asarray(hx, dtype=np.float64).ravel()
    hy = np.asarray(hy, dtype=np.float64).reshape(bc.S, -1)
    if hx.shape[0] != bc.d or hy.shape[1] != bc.m:
        raise DimensionMismatch(
            f"direction blocks ({hx.shape[0]}, {hy.shape[1]}) do not match ({bc.d}, {bc.m})"
        )
    total = 0.0
    for s in range(bc.S):
        qd = quasidiff(bc.per_scenario[s])
        total += float(bc.probs[s]) * dirderiv(qd, np.concatenate((hx, hy[s])))
    return total
