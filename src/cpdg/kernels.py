"""Connection-probability and update-speed kernels, plus percolated offspring.

The parametric family is

    p(dx, dy) = 1 ^ kappa * ((dx ^ dy)^sigma * (dx v dy))^-alpha
    v(dx, dy) = nu * (dx v dy)^eta

with sigma in [0, 1] interpolating between the maximum kernel (sigma=0) and
the product kernel (sigma=1). A custom table or function can replace p; the
speed law v is always the built-in one. A rate is refused unless both v and
its mean holding time 1/v are normal floats: past that range the rate
overflows or vanishes, or a run's clock cannot advance past its own flips.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .graph import OffspringDistribution


class KernelError(ValueError):
    """Invalid kernel parameters or custom-kernel input."""


# update rates v with v and 1/v both normal floats: about [2.2e-308, 4.5e307]
_RATE_MIN = sys.float_info.min
_RATE_MAX = 1.0 / _RATE_MIN


@dataclass(frozen=True)
class KernelSpec:
    alpha: float
    sigma: float = 1.0
    kappa: float = 1.0
    eta: float = 0.0
    nu: float = 1.0
    custom_p: object = None  # callable (dx, dy) -> prob, or dict {(n, m): p}

    def __post_init__(self):
        if self.alpha < 0:
            raise KernelError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.sigma <= 1.0:
            raise KernelError(f"sigma must lie in [0, 1], got {self.sigma}")
        if self.kappa <= 0:
            raise KernelError(f"kappa must be > 0, got {self.kappa}")
        if self.nu <= 0:
            raise KernelError(f"nu must be > 0, got {self.nu}")


def p_value(spec: KernelSpec, dx: int, dy: int) -> float:
    """Probability that an edge between degrees dx, dy is open."""
    if dx < 1 or dy < 1:
        raise KernelError("degrees must be >= 1")
    if spec.custom_p is not None:
        p = _custom_lookup(spec.custom_p, dx, dy)
        if not 0.0 <= p <= 1.0:
            raise KernelError(f"custom kernel returned {p} outside [0, 1]")
        return p
    lo, hi = (dx, dy) if dx <= dy else (dy, dx)
    return min(1.0, spec.kappa * (lo ** spec.sigma * hi) ** (-spec.alpha))


def p_value_array(spec: KernelSpec, dx, dy) -> np.ndarray:
    """Vectorized p_value for integer arrays (sigma kernels only)."""
    if spec.custom_p is not None:
        raise KernelError("vectorized evaluation supports sigma kernels only")
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    lo = np.minimum(dx, dy)
    hi = np.maximum(dx, dy)
    return np.minimum(1.0, spec.kappa * (lo ** spec.sigma * hi) ** (-spec.alpha))


def v_value(spec: KernelSpec, dx: int, dy: int) -> float:
    """Update rate of an edge between degrees dx, dy.

    Raises KernelError unless nu * (dx v dy)^eta and its reciprocal are both
    normal floats; a power that overflows or underflows to 0 fails this too.
    """
    if dx < 1 or dy < 1:
        raise KernelError("degrees must be >= 1")
    d = max(dx, dy)
    try:
        v = spec.nu * float(d) ** spec.eta
    except OverflowError:
        v = math.inf
    if not _RATE_MIN <= v <= _RATE_MAX:
        raise KernelError(f"update rate nu * {d}^eta = {spec.nu:g} * {d}^{spec.eta:g} = {v:g} "
                          f"lies outside [{_RATE_MIN:.3g}, {_RATE_MAX:.3g}]")
    return v


def edge_law(spec: KernelSpec, dx: int, dy: int) -> tuple:
    """(p_value, v_value) for degrees dx, dy, computed once per kernel and pair.

    The memo lives in the instance's ``__dict__`` beside the dataclass fields,
    so repr, equality, hashing and ``asdict`` do not see it; it is keyed by
    the ordered pair, which serves custom tables and callables alike.
    """
    memo = spec.__dict__.get("_edge_laws")
    if memo is None:
        memo = {}
        object.__setattr__(spec, "_edge_laws", memo)
    law = memo.get((dx, dy))
    if law is None:
        law = memo[(dx, dy)] = (p_value(spec, dx, dy), v_value(spec, dx, dy))
    return law


def _custom_lookup(custom, dx, dy):
    if callable(custom):
        return float(custom(dx, dy))
    key = (min(dx, dy), max(dx, dy))
    try:
        return float(custom[key])
    except KeyError:
        raise KernelError(f"custom kernel table has no entry for degrees {key}") from None


def load_kernel_table(path: str) -> dict:
    """Read a custom connection-probability table ("n m p" per line)."""
    table = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    n, m, p = line.split()
                    n, m, p = int(n), int(m), float(p)
                except ValueError:
                    raise KernelError(f"{path}:{lineno}: expected 'n m p', "
                                      f"got {line!r}") from None
                table[(min(n, m), max(n, m))] = p
    except (OSError, UnicodeDecodeError) as exc:
        raise KernelError(f"cannot read kernel table {path}: {exc}") from None
    if not table:
        raise KernelError(f"kernel table {path} is empty")
    return table


# ---------------------------------------------------------------------------
# percolated offspring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PercolatedOffspring:
    """Offspring thinned by edge-openness at a fixed time.

    A sample is sum_i Bernoulli(p(z, z_i)) over i = 1..z where z and the z_i
    are independent offspring draws. Zero counts are clamped to 1 inside the
    kernel (degree arguments must be >= 1; a childless vertex has degree 1).
    """

    base: OffspringDistribution
    kernel: KernelSpec


def sample_zeta_p_array(pd: PercolatedOffspring, gen: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized two-stage sampler for large Monte Carlo runs."""
    z = pd.base.sample_array(gen, n)
    total = int(z.sum())
    out = np.zeros(n, dtype=np.int64)
    if total == 0:
        return out
    child = pd.base.sample_array(gen, total)
    parent = np.repeat(z, z)
    ps = p_value_array(pd.kernel, parent, np.maximum(child, 1))
    hits = (gen.random(total) < ps).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(z)))
    sums = np.add.reduceat(np.concatenate((hits, [0])), bounds[:-1])
    nonempty = z > 0
    out[nonempty] = sums[nonempty]
    return out


# ---------------------------------------------------------------------------
# tail exponent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    exponent: float  # pmf exponent: P(X = k) ~ k^-exponent
    ccdf_exponent: float
    tail_points: int
    reliable: bool
    note: str = ""
    diagnostics: dict = field(default_factory=dict)


def _hill(xs_desc: np.ndarray, k: int) -> float:
    """Hill estimator of the ccdf exponent from the top k order statistics."""
    top = xs_desc[:k].astype(float)
    ref = float(xs_desc[k])
    return 1.0 / float(np.mean(np.log(top / ref)))


def tail_exponent_estimate(samples, top_fraction: float = 0.01,
                           min_tail: int = 100) -> TailEstimate:
    """Hill-type estimate of the power-law pmf exponent of integer samples.

    Cutoff rule: the top `top_fraction` order statistics (at least `min_tail`
    points). The tail's empirical ccdf is then fit both log-log (power) and
    log-linear (exponential-type); the estimate is flagged unreliable when
    the tail is too thin or the exponential shape fits better.
    """
    xs = np.sort(np.asarray(samples, dtype=np.int64))[::-1]
    n = xs.size
    if n < 10_000:
        raise KernelError("tail estimation needs at least 1e4 samples")
    k = max(int(n * top_fraction), min_tail)
    if k >= n:
        raise KernelError("cutoff leaves no bulk below the tail")
    if xs[k] < 1 or xs[0] <= xs[k]:
        return TailEstimate(math.nan, math.nan, k, False, "no usable tail above the cutoff")
    a_hat = _hill(xs, k)
    # shape diagnostic on the tail ccdf: power tails are linear in log-log,
    # (stretched) exponential ones closer to linear in x vs log ccdf
    tail = xs[:k]
    vals, counts = np.unique(tail, return_counts=True)
    r2_power = r2_exp = math.nan
    if vals.size >= 5:
        ccdf = counts[::-1].cumsum()[::-1] / n
        ly = np.log(ccdf)
        r2_power = _corr2(np.log(vals.astype(float)), ly)
        r2_exp = _corr2(vals.astype(float), ly)
    thin = vals.size < 5
    reliable = not thin and r2_power >= r2_exp
    note = "" if reliable else (
        "tail too coarse above the cutoff" if thin else
        f"exponential shape fits the tail better (R2 {r2_exp:.3f} vs {r2_power:.3f})")
    return TailEstimate(
        exponent=a_hat + 1.0,
        ccdf_exponent=a_hat,
        tail_points=k,
        reliable=bool(reliable),
        note=note,
        diagnostics={"cutoff_value": float(xs[k]), "r2_power": r2_power,
                     "r2_exp": r2_exp},
    )


def _corr2(x, y):
    if x.size < 3 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1] ** 2)
