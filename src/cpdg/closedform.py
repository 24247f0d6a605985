"""Closed-form laws, bounds and constants, and the phase classifier.

The single-edge laws (background chain, transmission probability and time,
geometric-sum transform, coupling rate) back the `edge-law` subcommand and
serve as oracles for the engine's tests. `path_lower_bound` is the bound the
`path` experiment is checked against, `star_constants` plans the star
experiments, and `phase_classify` places kernel exponents in the paper's
phase diagram. All of them are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import OffspringDistribution
from .kernels import KernelSpec, p_value, v_value

# exponent of the path-delay Chernoff bound, maximized at theta = 1/2:
# gamma = max_theta (4*theta + 2*log(1-theta)) = 2 - 2*log(2)
GAMMA = 2.0 - 2.0 * math.log(2.0)

# good-neighbour constant c; the paper allows any value in (0, 3 - 2*sqrt(2))
GOOD_NEIGHBOUR_C = 0.15


class ConditionError(ValueError):
    """A closed-form precondition fails for the supplied parameters."""


# ---------------------------------------------------------------------------
# two-state background chain
# ---------------------------------------------------------------------------

def bg_transition(p: float, v: float, open_now: bool, elapsed: float) -> float:
    """P(edge open after `elapsed`) for the update-and-redraw edge chain.

    From closed: p(1 - e^{-v s}); from open: p + (1-p) e^{-v s}.
    """
    if elapsed < 0:
        raise ConditionError("elapsed time must be >= 0")
    decay = math.exp(-v * elapsed)
    if open_now:
        return p + (1.0 - p) * decay
    return p * (1.0 - decay)


# ---------------------------------------------------------------------------
# single-edge transmission law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeLaw:
    """First-transmission law across one edge that starts closed.

    a and b are the rates of the two-exponential representation of the first
    true infection time; a + b = lam + v and a * b = lam * v * p.
    """

    lam: float
    v: float
    p: float
    a: float
    b: float

    @classmethod
    def from_rates(cls, lam: float, v: float, p: float) -> "EdgeLaw":
        if lam <= 0 or v <= 0 or not 0.0 <= p <= 1.0:
            raise ConditionError("need lam > 0, v > 0 and p in [0, 1]")
        half = 0.5 * (lam + v)
        disc = half * half - lam * v * p  # >= (lam-v)^2/4 >= 0 for p <= 1
        root = math.sqrt(max(disc, 0.0))
        return cls(lam=lam, v=v, p=p, a=half + root, b=half - root)


def transmission_prob(lam: float, v: float, p: float) -> float:
    """P(first true infection beats the sender's recovery), edge initially closed."""
    if lam <= 0 or v <= 0 or not 0.0 <= p <= 1.0:
        raise ConditionError("need lam > 0, v > 0 and p in [0, 1]")
    lvp = lam * v * p
    return lvp / (lam + v + lvp + 1.0)


def transmission_time_tail(law: EdgeLaw, t: float) -> float:
    """P(T > t | transmission wins), for the law of EdgeLaw.

    Two-exponential tail with rates a+1 and b+1; the repeated-root case is
    evaluated by its confluent limit (1 + (a+1) t) e^{-(a+1) t}.
    """
    if t < 0:
        raise ConditionError("t must be >= 0")
    a, b = law.a, law.b
    if b <= 0.0:  # p == 0: no transmission to condition on
        raise ConditionError("conditioning event has probability zero (p = 0)")
    scale = max(a, 1.0)
    if abs(a - b) < 1e-9 * scale:
        return (1.0 + (a + 1.0) * t) * math.exp(-(a + 1.0) * t)
    return ((b + 1.0) / (b - a) * math.exp(-(a + 1.0) * t)
            + (a + 1.0) / (a - b) * math.exp(-(b + 1.0) * t))


def geom_exp_laplace(alpha: float, beta: float, q: float, theta: float) -> float:
    """Laplace transform at theta of a Geom(q) sum of Exp(alpha)+Exp(beta) pairs."""
    if alpha <= 0 or beta <= 0 or theta < 0 or not 0.0 < q <= 1.0:
        raise ConditionError("need alpha, beta > 0, theta >= 0 and q in (0, 1]")
    qab = q * alpha * beta
    return qab / (theta * theta + theta * (alpha + beta) + qab)


def lower_bound_rate(lam: float, v: float, p: float) -> float:
    """Static infection rate dominated by the dynamical edge (coupling rate).

    a = (lam + v - sqrt((lam+v)^2 - 4 lam v p)) / 2, which lies between
    lam*v*p/(lam+v) and 2*lam*v*p/(lam+v).
    """
    if lam <= 0 or v <= 0 or not 0.0 <= p <= 1.0:
        raise ConditionError("need lam > 0, v > 0 and p in [0, 1]")
    s = lam + v
    disc = s * s - 4.0 * lam * v * p
    return 0.5 * (s - math.sqrt(max(disc, 0.0)))


# ---------------------------------------------------------------------------
# path transmission bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBound:
    """Lower bound on infecting the far end of a path within 4r time units."""

    r: int
    probability: float  # (1 - e^{-gamma r}) * prod of per-edge transmission probs
    per_edge: tuple


def path_lower_bound(degrees, lam: float, kernel: KernelSpec) -> PathBound:
    """Evaluate the product path bound for consecutive degrees along a path.

    `degrees` lists the degrees of the r+1 path vertices in order.
    """
    degs = [int(d) for d in degrees]
    if len(degs) < 2:
        raise ConditionError("a path needs at least one edge")
    r = len(degs) - 1
    per_edge = []
    for du, dv in zip(degs[:-1], degs[1:]):
        pe = p_value(kernel, du, dv)
        ve = v_value(kernel, du, dv)
        per_edge.append(transmission_prob(lam, ve, pe))
    prod = 1.0
    for q in per_edge:
        prod *= q
    probability = (1.0 - math.exp(-GAMMA * r)) * prod
    return PathBound(r=r, probability=probability, per_edge=tuple(per_edge))


# ---------------------------------------------------------------------------
# star constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarConstants:
    """All derived constants for a star of degree n with pruning level L."""

    n: int
    degree_bound: int
    lam: float
    p_edge: float  # p(n, L)
    window: float  # T = 1 / (1 + v(n, L)) = 1 / (1 + nu n^eta)
    c: float
    low_degree_mass: float  # P(offspring <= L - 1)
    stability_const: float  # c_L = c e^-4 * low_degree_mass
    delta: float  # c_L / 8
    threshold: float  # c_L * n * p(n, L): good-neighbour floor of a stable star
    stable_windows: int  # floor(e^{c_L n p(n,L)}): windows a stable star must cover
    survival_windows: int  # k_bar = floor(e^{delta lam^2 T^2 n p(n,L) / 4})
    survival_span: float  # S = T * k_bar
    mu_pruned: float  # E[zeta 1{zeta < L}]
    kick_ok: bool  # 2 lam T < 1
    local_ok: bool  # (3/2) lam T < 1


def star_constants(n: int, degree_bound: int, lam: float, kernel: KernelSpec,
                   dist: OffspringDistribution) -> StarConstants:
    """Derived star quantities; recomputed from scratch on every call."""
    if not 1 <= degree_bound <= n:
        raise ConditionError("need n >= L >= 1")
    mu_pruned = dist.mean_below(degree_bound)
    if mu_pruned <= 1.0:
        raise ConditionError(
            f"prune level too low: E[offspring below {degree_bound}] = {mu_pruned:.4f} <= 1")
    p_edge = p_value(kernel, n, degree_bound)
    window = 1.0 / (1.0 + v_value(kernel, n, degree_bound))
    phi = dist.prob_le(degree_bound - 1)
    c_l = GOOD_NEIGHBOUR_C * math.exp(-4.0) * phi
    delta = c_l / 8.0
    npe = n * p_edge
    threshold = c_l * npe
    stable_windows = int(math.floor(math.exp(min(threshold, 700.0))))
    expo = delta * lam * lam * window * window * npe / 4.0
    survival_windows = int(math.floor(math.exp(min(expo, 700.0))))
    return StarConstants(
        n=n, degree_bound=degree_bound, lam=lam, p_edge=p_edge, window=window,
        c=GOOD_NEIGHBOUR_C, low_degree_mass=phi, stability_const=c_l, delta=delta,
        threshold=threshold, stable_windows=stable_windows,
        survival_windows=survival_windows, survival_span=window * survival_windows,
        mu_pruned=mu_pruned,
        kick_ok=2.0 * lam * window < 1.0,
        local_ok=1.5 * lam * window < 1.0,
    )


# ---------------------------------------------------------------------------
# phase classifier
# ---------------------------------------------------------------------------

SUBCRITICAL = "Subcritical"
NO_PHASE_TRANSITION = "NoPhaseTransition"
FINITE_CRITICAL = "FiniteCritical"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class PhaseResult:
    regime: str
    lambda2_finite: bool
    rule: str


def phase_classify(alpha: float, sigma: float, eta: float, tail: str,
                   tail_param: float | None = None,
                   offspring_min_one: bool = False) -> PhaseResult:
    """Regime of the phase diagram for sigma kernels on heavy-tailed trees.

    tail: "power_law" (tail_param = pmf exponent b > 1, unused by the rules)
    or "stretched" (tail_param = stretch exponent beta in (0, 1)).
    """
    if alpha < 0 or not 0.0 <= sigma <= 1.0:
        raise ConditionError("need alpha >= 0 and sigma in [0, 1]")
    if tail == "power_law":
        beta = 0.0
    elif tail == "stretched":
        if tail_param is None or not 0.0 < tail_param < 1.0:
            raise ConditionError("stretched tails need beta in (0, 1)")
        beta = tail_param
    else:
        raise ConditionError(f"unknown tail kind {tail!r}")

    finite2 = alpha < 1.0 - beta

    # subcritical phase: penalisation strong and updates fast enough
    if eta >= 0.0 and alpha >= 1.0:
        return PhaseResult(SUBCRITICAL, finite2, "eta>=0 and alpha>=1")
    if eta >= 0.0 and alpha * sigma >= 0.5 and alpha + 2.0 * eta >= 1.0:
        return PhaseResult(SUBCRITICAL, finite2, "eta>=0 and alpha*sigma>=1/2 and alpha+2eta>=1")

    # no phase transition: survival through ever-larger stars
    if eta <= 0.0 and 0.0 <= alpha < 1.0 - beta:
        return PhaseResult(NO_PHASE_TRANSITION, True, "eta<=0 and alpha<1-beta_tail")
    if 0.0 <= eta <= (1.0 - beta) / 2.0 and 0.0 < alpha < 1.0 - beta - 2.0 * eta:
        return PhaseResult(NO_PHASE_TRANSITION, True, "0<=eta<=(1-beta_tail)/2 and alpha<1-beta_tail-2eta")
    # no phase transition by comparison with the fast-update limit
    if eta >= 0.0 and 1.0 - beta - 2.0 * alpha > 0.0 and offspring_min_one:
        return PhaseResult(NO_PHASE_TRANSITION, True, "eta>=0 and alpha<(1-beta_tail)/2 and P(zeta=0)=0")

    if finite2:
        return PhaseResult(FINITE_CRITICAL, True, "alpha<1-beta_tail")
    return PhaseResult(UNKNOWN, False, "outside the classified regions")
