"""Supermartingale certificate machinery for the wait-and-see process.

A weight function W >= 1 on degrees certifies extinction when the two summed
kernel conditions hold with constant K and the decay exponent

    theta(lam) = lam K (1 + 2 lam / v_min^2) + 4 lam^2 K - (v_min/2 ^ 1)

is negative. The functional f scores each vertex by its revealed-edge
weights (R and Q sums) and is bounded below by the infected count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closedform import ConditionError
from .engine import WAIT_AND_SEE, Caps, Simulation
from .graph import GraphView
from .kernels import KernelSpec, edge_law
from .rng import replica_seed


@dataclass(frozen=True)
class WeightFunction:
    """Degree weight W: {1, 2, ...} -> [1, inf)."""

    kind: str  # linear | power | constant
    beta: float = 1.0

    def __call__(self, d: int) -> float:
        if self.kind == "linear":
            return float(d)
        if self.kind == "power":
            try:
                return float(d) ** self.beta
            except OverflowError:
                raise ConditionError(f"power weight {d}^{self.beta:g} overflows") from None
        if self.kind == "constant":
            return 1.0
        raise ConditionError(f"unknown weight kind {self.kind!r}")


LINEAR_WEIGHT = WeightFunction("linear")


@dataclass(frozen=True)
class LyapunovReport:
    K: float
    v_min: float
    lam: float | None
    theta: float | None
    lambda_star: float
    weighted_ratio_max: float  # max_x sum_y W(d_y) p(d_y, d_x) / W(d_x)
    damping_sum_max: float  # max_x sum_y p / v^2

    def theta_at(self, lam: float) -> float:
        c0 = min(self.v_min / 2.0, 1.0)
        return lam * self.K * (1.0 + 2.0 * lam / self.v_min ** 2) + 4.0 * lam * lam * self.K - c0


def check_conditions(graph: GraphView, kernel: KernelSpec,
                     weight: WeightFunction = LINEAR_WEIGHT,
                     lam: float | None = None) -> LyapunovReport:
    """Exhaustive vertex sweep for the two kernel conditions on a finite graph.

    K is the smallest constant satisfying both conditions; lambda_star is the
    largest rate with a negative decay exponent (positive root of the
    quadratic), and theta is reported at `lam` when given.
    """
    if graph.lazy:
        raise ConditionError("condition checking sweeps a finite graph")
    n = graph.n_vertices
    degrees = [graph.degree(x) for x in range(n)]
    weights = [weight(d) for d in degrees]
    if min(weights) < 1.0:
        raise ConditionError("weight function must be >= 1 on all degrees present")
    ratio_max = 0.0
    damp_max = 0.0
    v_min = math.inf
    for x in range(n):
        s_w = 0.0
        s_d = 0.0
        for y in graph.neighbors(x):
            p, v = edge_law(kernel, degrees[y], degrees[x])
            s_w += weights[y] * p
            s_d += p / (v * v) if v * v > 0.0 else math.inf
            v_min = min(v_min, v)
        ratio_max = max(ratio_max, s_w / weights[x])
        damp_max = max(damp_max, s_d)
    big_k = max(ratio_max, damp_max)
    if not math.isfinite(big_k):
        raise ConditionError(f"the condition constant K = max({ratio_max:g}, {damp_max:g}) "
                             f"is not finite: the weights or p / v^2 leave the float range")
    c0 = min(v_min / 2.0, 1.0)
    # theta(l) = A l^2 + K l - c0 with A = 2K/v_min^2 + 4K
    a = 2.0 * big_k / v_min ** 2 + 4.0 * big_k
    lam_star = (-big_k + math.sqrt(big_k * big_k + 4.0 * a * c0)) / (2.0 * a) if big_k > 0 else math.inf
    report = LyapunovReport(K=big_k, v_min=v_min, lam=lam, theta=None,
                            lambda_star=lam_star, weighted_ratio_max=ratio_max,
                            damping_sum_max=damp_max)
    return report if lam is None else replace(report, theta=report.theta_at(lam))


def f_value(infected, revealed_pairs, graph: GraphView, kernel: KernelSpec,
            lam: float, weight: WeightFunction = LINEAR_WEIGHT) -> float:
    """Weighted score sum over vertices for a wait-and-see configuration.

    Infected vertices score 1 + 2Q_x, healthy ones R_x + 2Q_x, where R_x and
    Q_x sum lam/v and lam/v^2 over the revealed edges at x.
    """
    r_sum: dict[int, float] = {}
    q_sum: dict[int, float] = {}
    for u, v in revealed_pairs:
        rate = edge_law(kernel, graph.degree(u), graph.degree(v))[1]
        for x in (u, v):
            r_sum[x] = r_sum.get(x, 0.0) + lam / rate
            q_sum[x] = q_sum.get(x, 0.0) + lam / (rate * rate)
    total = 0.0
    for x in set(infected) | set(r_sum):
        q = q_sum.get(x, 0.0)
        h = 1.0 + 2.0 * q if x in infected else r_sum.get(x, 0.0) + 2.0 * q
        total += weight(graph.degree(x)) * h
    return total


@dataclass(frozen=True)
class DecayTrace:
    lam: float
    theta: float
    f0: float
    times: tuple
    mean_f: tuple
    se_f: tuple
    bound: tuple  # f0 * exp(theta t)
    asserted: bool  # False in report-only mode (theta >= 0)
    passed: bool | None  # None when not asserted
    replicas: int


def supermartingale_trace(graph: GraphView, kernel: KernelSpec, lam: float,
                          weight: WeightFunction, times, replicas: int,
                          seed: int, init=None) -> DecayTrace:
    """Empirical decay of E[f(X_t)] against the f(X_0) e^{theta t} envelope.

    Asserts the one-sided bound mean_f(t) <= f0 e^{theta t} + 3 SE(t) at every
    grid time when theta < 0; refuses to assert otherwise and only reports.
    """
    report = check_conditions(graph, kernel, weight, lam=lam)
    theta = report.theta
    times = tuple(sorted(float(t) for t in times))
    if not times:
        raise ConditionError("need at least one grid time")
    init = {graph.root} if init is None else set(init)
    f0 = f_value(init, (), graph, kernel, lam, weight)
    caps = Caps(horizon=times[-1] + 1e-9)
    samples = np.empty((replicas, len(times)))
    for i in range(replicas):
        sim = Simulation(graph, kernel, lam, WAIT_AND_SEE, init, caps, replica_seed(seed, i))
        sim.run(snapshot_times=times)
        for j, (t, infected, revealed) in enumerate(sim.snapshots):
            val = f_value(infected, revealed, graph, kernel, lam, weight)
            if val < len(infected) - 1e-9:
                raise AssertionError("f must dominate the infected count")
            samples[i, j] = val
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(replicas)
    bound = np.array([f0 * math.exp(theta * t) for t in times])
    asserted = theta < 0.0
    passed = bool(np.all(mean <= bound + 3.0 * se)) if asserted else None
    return DecayTrace(lam=lam, theta=theta, f0=f0, times=times,
                      mean_f=tuple(mean), se_f=tuple(se), bound=tuple(bound),
                      asserted=asserted, passed=passed, replicas=replicas)
