"""Monte Carlo experiment harnesses.

Survival estimation with finite-horizon proxies, star-survival and
stable-star experiments (with a dedicated star simulator that realizes the
good-neighbour window structure exactly), and path-transmission
probabilities against the closed-form lower bound.

Weak survival proxy: still infected at the horizon. Strong survival proxy:
the root is reinfected during the second half of the run. Both are recorded
in every report so thresholds can be re-analyzed offline.
"""

from __future__ import annotations

import heapq
import math
import os
import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import stats

from . import engine
from .closedform import StarConstants, path_lower_bound, star_constants
from .engine import CPDG, Caps
from .graph import GraphView, OffspringDistribution, TreeCaps, build_finite
from .kernels import KernelSpec, p_value_array
from .rng import TAG_EXPERIMENT, TAG_TREE, mix, replica_seed


class ExperimentError(ValueError):
    """Invalid experiment setup."""


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ExperimentError("need at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


# ---------------------------------------------------------------------------
# graph specs (picklable replica factories)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGraphSpec:
    """One fixed finite graph for every replica, built on first use."""

    edges: tuple
    init: tuple = (0,)

    @cached_property
    def _graph(self) -> GraphView:
        return build_finite(self.edges)

    def build(self, rs: int):
        return self._graph, set(self.init)


@dataclass(frozen=True)
class BGWGraphSpec:
    """A fresh offspring tree per replica (annealed estimation)."""

    dist: OffspringDistribution
    caps: TreeCaps = TreeCaps()
    root_degree: int | None = None

    def build(self, rs: int):
        g = GraphView.bgw(self.dist, mix(rs, TAG_TREE), self.caps,
                          forced_root_count=self.root_degree)
        g.offspring_count(g.root)
        return g, {g.root}


# ---------------------------------------------------------------------------
# survival estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalEstimate:
    lam: float
    horizon: float
    replicas: int
    extinct: int
    alive_at_horizon: int
    reinfected_root_late: int
    censored: int
    wilson: tuple  # 95% interval for P(alive at horizon)
    master_seed: int
    variant: str = CPDG
    proxies: tuple = ("weak=alive_at_horizon", "strong=root_reinfected_after_half_horizon")

    @property
    def p_alive(self) -> float:
        return self.alive_at_horizon / self.replicas

    @property
    def se_alive(self) -> float:
        p = self.p_alive
        return math.sqrt(p * (1.0 - p) / self.replicas)


def _survival_chunk(args):
    (spec, kernel, lam, horizon, lo, hi, seed, variant, bg_mode,
     max_infected, collect) = args
    caps = Caps(horizon=horizon, max_infected=max_infected)
    extinct = alive = late = censored = 0
    records = []
    half = horizon / 2.0
    for i in range(lo, hi):
        rs = replica_seed(seed, i)
        graph, init = spec.build(rs)
        rec = engine.run_replica(graph, kernel, lam, variant, init, caps, rs,
                                 bg_mode=bg_mode)
        if rec.outcome == engine.EXTINCT:
            extinct += 1
        elif rec.outcome == engine.HORIZON:
            alive += 1
        else:
            censored += 1
        if any(t > half for t in rec.root_reinfections):
            late += 1
        if collect:
            records.append((i, rec))
    return extinct, alive, late, censored, records


def estimate_survival(spec, kernel: KernelSpec, lam: float, horizon: float,
                      replicas: int, seed: int, variant: str = CPDG,
                      bg_mode: str = "explicit", max_infected: int = 1 << 30,
                      collect_records: bool = False, threads: int = 1):
    """Finite-horizon survival estimate over independent replicas.

    Returns (estimate, records); records is empty unless collect_records.
    Replica seeds are hash-derived from (seed, index), so the result does not
    depend on the parallelism degree; chunk counters merge commutatively.
    """
    if replicas < 1:
        raise ExperimentError("need at least one replica")
    args = (spec, kernel, lam, horizon, 0, replicas, seed, variant, bg_mode,
            max_infected, collect_records)
    if threads <= 1:
        chunks = [_survival_chunk(args)]
    else:
        if callable(kernel.custom_p):
            raise ExperimentError("parallel runs need a picklable kernel (use a table)")
        import multiprocessing
        bounds = np.linspace(0, replicas, 4 * threads + 1).astype(int)
        jobs = [args[:4] + (int(a), int(b)) + args[6:]
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        # no more workers than chunks or cores; the result does not depend on it
        with multiprocessing.Pool(min(threads, len(jobs), os.cpu_count() or 1)) as pool:
            chunks = pool.map(_survival_chunk, jobs)
    extinct = sum(c[0] for c in chunks)
    alive = sum(c[1] for c in chunks)
    late = sum(c[2] for c in chunks)
    censored = sum(c[3] for c in chunks)
    indexed = [rec for c in chunks for rec in c[4]]
    records = [rec for _, rec in sorted(indexed, key=lambda pair: pair[0])]
    if censored == replicas:
        raise ExperimentError("all replicas censored; estimate unusable")
    est = SurvivalEstimate(
        lam=lam, horizon=horizon, replicas=replicas, extinct=extinct,
        alive_at_horizon=alive, reinfected_root_late=late, censored=censored,
        wilson=wilson_interval(alive, replicas), master_seed=seed, variant=variant,
    )
    return est, records


# ---------------------------------------------------------------------------
# star experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableStarReport:
    n: int
    degree_bound: int
    replicas: int
    stable: int
    frequency: float
    wilson: tuple
    bound: float  # 1 - exp(-c_L N p(N, L))
    threshold: float
    windows: int
    underpowered: bool
    master_seed: int


# the most windows a star experiment realizes: star_survival's default
# max_windows, and the cap on the stable-star horizon
MAX_WINDOWS = 1 << 14

# The stable-star count chain. Window k is good for a child open at kT whose
# cells k-2..k+1 hold no update and no recovery; cells before cell 0 count as
# free. Seen at window k, with cells up to k+1 drawn, all that decides a
# child's later windows is one of nine states:
#   _OPEN + r    open, no update in cells k and k+1, the last r cells free
#                (r capped at 4; window k is good in _OPEN + 4)
#   _CLOSED      closed, no update in cells k and k+1
#   _UPD         an update in cell k+1
#   _UPD_FREE    an update in cell k, cell k+1 free
#   _UPD_REC     an update in cell k, cell k+1 a recovery only
# One step draws cell k+2 (free, recovery only or update) and, after an
# update in cell k, a fresh open bit. Children of one degree class are
# i.i.d., so the counts of children per state are a Markov chain.
_OPEN, _CLOSED, _UPD, _UPD_FREE, _UPD_REC = 0, 5, 6, 7, 8
_N_STATES = 9
_GOOD_STATE = _OPEN + 4
# a step's destinations: for _OPEN + r, _CLOSED and _UPD cell k+2 free,
# recovery only, update (and a last, empty column); for _UPD_FREE and
# _UPD_REC open with cell k+2 free, open with a recovery only, closed
# without an update, and an update
_NEXT_STATE = np.array(
    [[_OPEN + min(r + 1, 4), _OPEN, _UPD, _UPD] for r in range(5)]
    + [[_CLOSED, _CLOSED, _UPD, _UPD],
       [_UPD_FREE, _UPD_REC, _UPD, _UPD],
       [_OPEN + 2, _OPEN, _CLOSED, _UPD],
       [_OPEN + 1, _OPEN, _CLOSED, _UPD]])


def _stable_star_chain(n: int, degree_bound: int, kernel: KernelSpec,
                       dist: OffspringDistribution, t_cell: float):
    """Per degree class d = 1..degree_bound: the child law (with the dropped
    children's mass last), the state law at window 0 and the step law."""
    degrees = np.arange(1, degree_bound + 1)
    mass = np.array([dist.pmf_at(d - 1) for d in degrees])
    mass = np.append(mass, max(0.0, 1.0 - mass.sum()))
    p = p_value_array(kernel, np.full(degree_bound, n), degrees)
    u = 1.0 - np.exp(-kernel.nu * np.maximum(float(n), degrees) ** kernel.eta * t_cell)
    q_rec = 1.0 - math.exp(-t_cell)
    f, r = (1.0 - u) * (1.0 - q_rec), (1.0 - u) * q_rec  # free, recovery only
    zero = np.zeros(degree_bound)
    # window 0 reads cells 0 and 1 and an open bit stationary at time 0
    init = np.stack((p * (f + r) * r, p * r * f, zero, zero, p * f * f,
                     (1.0 - p) * (f + r) ** 2, u, u * f, u * r), axis=1)
    carry = np.stack((f, r, u, zero), axis=1)
    redraw = np.stack((p * f, p * r, (1.0 - p) * (f + r), u), axis=1)
    step = np.stack([carry] * 7 + [redraw] * 2, axis=1)
    return mass, init, step


def _good_counts(n, chain, windows, gen, floor):
    """Good-neighbour counts of windows 0..windows of one star replica,
    stopping after the first count <= floor."""
    mass, init, step = chain
    children = gen.multinomial(n, mass)[:-1]
    present = np.nonzero(children)[0]
    counts = gen.multinomial(children[present], init[present]).ravel()
    step = step[present].reshape(-1, 4)
    dest = (_NEXT_STATE + _N_STATES * np.arange(present.size)[:, None, None]).ravel()
    trace = []
    for k in range(windows + 1):
        good = int(counts[_GOOD_STATE::_N_STATES].sum())
        trace.append(good)
        if good <= floor or k == windows:
            return trace
        moved = gen.multinomial(counts, step).ravel()
        counts = np.bincount(dest, weights=moved, minlength=counts.size).astype(np.int64)


def stable_star_frequency(n: int, degree_bound: int, kernel: KernelSpec,
                          dist: OffspringDistribution, replicas: int,
                          seed: int) -> StableStarReport:
    """Empirical frequency of the stable-star event around a degree-n root.

    The good-neighbour sets are functions of per-window-cell event indicators
    (any update / any recovery in each length-T cell) and of the redraw chain.
    Children of one degree class are i.i.d., so the counts of children per
    window state are a Markov chain (nine states per class), sampled exactly
    with one multinomial draw per window: a replica's cost does not grow
    with n.
    Raises ExperimentError when the stable horizon exceeds MAX_WINDOWS.
    """
    sc = star_constants(n, degree_bound, 1.0, kernel, dist)  # lam unused here
    n_windows = sc.stable_windows  # windows 0..n_windows inclusive
    if n_windows > MAX_WINDOWS:
        raise ExperimentError(
            f"stable star at n={n} spans {n_windows:.3g} windows, over the cap of {MAX_WINDOWS}")
    chain = _stable_star_chain(n, degree_bound, kernel, dist, sc.window)
    stable_count = 0
    for i in range(replicas):
        gen = np.random.default_rng(replica_seed(seed, i))
        trace = _good_counts(n, chain, n_windows, gen, sc.threshold)
        stable_count += min(trace) > sc.threshold
    freq = stable_count / replicas
    return StableStarReport(
        n=n, degree_bound=degree_bound, replicas=replicas, stable=stable_count,
        frequency=freq, wilson=wilson_interval(stable_count, replicas),
        bound=1.0 - math.exp(-sc.threshold), threshold=sc.threshold,
        windows=n_windows, underpowered=sc.threshold < 1.0, master_seed=seed,
    )


@dataclass(frozen=True)
class StarReplicaRecord:
    good_min: int
    good_trace: tuple  # |G_k| for k <= stable window count
    stable: bool
    extinction_time: float
    outcome: str
    seed: int


@dataclass(frozen=True)
class StarExperimentRecord:
    constants: StarConstants
    replicas: tuple  # StarReplicaRecord per replica
    median_extinction: float
    stable_fraction: float
    censored: int


@dataclass(frozen=True)
class StarScalingReport:
    records: tuple  # StarExperimentRecord per star size
    medians: tuple
    scale_exponent: float  # 1 - alpha - 2 (eta v 0)
    regression_slope: float
    regression_intercept: float
    regression_r2: float
    mann_whitney_p: tuple  # one-sided p for consecutive size pairs
    master_seed: int


# fewest windows in a replica's first background: half the races end within
# 3-8 windows at lam = 0.4, N = 50..400, and a retry doubles the background.
# A test changes it to check that retries do not change the law.
_FIRST_WINDOWS = 16


def _star_replica(n: int, sc: StarConstants, lam: float, kernel: KernelSpec,
                  dist: OffspringDistribution, rs: int, max_windows: int):
    """One restricted-star run: good-window structure plus the infection race.

    Infection events between the centre and a child are valid only while the
    child is a good neighbour of some window covering the current time. The
    first background covers the stable windows 0..sc.stable_windows and at
    least _FIRST_WINDOWS windows, so the stable-star flag is always judged on
    all of them. An attempt whose result the realized background does not
    determine is replayed, with the same race stream, on a background
    extended to twice as many windows; the replay follows the same trajectory
    as far as the shorter background determined it.
    """
    if sc.stable_windows <= max_windows:
        gen = np.random.default_rng(mix(rs, 1))
        zeta = dist.sample_array(gen, n)
        deg = zeta + 1
        deg = deg[deg <= sc.degree_bound]
        bg = _StarBackground(n, kernel, deg, sc.window,
                             min(max(_FIRST_WINDOWS, sc.stable_windows), max_windows),
                             np.random.default_rng(mix(rs, 3)))
        while True:
            result, t_safe = _star_attempt(sc, lam, bg, random.Random(mix(rs, 4)))
            if result is not None and result.extinction_time < t_safe:
                return result
            if bg.k_max >= max_windows:
                break
            k_max = min(2 * bg.k_max, max_windows)
            bg.extend(k_max, np.random.default_rng(mix(rs, 3, k_max)))
    # still alive where the background of max_windows windows stops deciding,
    # or max_windows cannot hold the stable windows
    horizon = (max_windows + 2) * sc.window
    return StarReplicaRecord(good_min=-1, good_trace=(), stable=False,
                             extinction_time=horizon, outcome=engine.CAP, seed=rs)


class _StarBackground:
    """Every child's update and recovery events on [0, (k_max + 2) T), and
    its redraw chain: the open state at time 0, then after each update.

    Stored flat. `up_t`/`up_child` and `rec_t`/`rec_child` are event times
    with their owning children. Each child's recovery times are one segment,
    `rec_t[rec_start[y]:rec_start[y + 1]]`, and each child's chain is one
    segment of `chain`, children in order. The first span makes the draws
    that a loop over the children would make, in the same order. `extend`
    draws only the added span, from the stream it is given, and appends its
    events and redraws to each child's.
    """

    def __init__(self, n, kernel, deg, t_win, k_max, gen):
        m = deg.size
        self.m = m
        self.t_win = t_win
        self.p = p_value_array(kernel, np.full(m, n), deg) if m else np.empty(0)
        self.v = kernel.nu * np.maximum(float(n), deg) ** kernel.eta if m else np.empty(0)
        self.k_max = k_max
        self.horizon = (k_max + 2) * t_win
        (self.up_t, self.up_child, self.rec_t, self.rec_child,
         self.chain, _) = self._span(gen, 0.0, self.horizon, 1)
        self.rec_start = self._starts(self.rec_child)

    def _span(self, gen, t0, t1, links_at_start):
        span = t1 - t0
        children = np.arange(self.m)
        up_counts = gen.poisson(self.v * span)
        rec_counts = gen.poisson(span * np.ones(self.m))
        up_t = t0 + gen.random(up_counts.sum()) * span
        rec_t = t0 + gen.random(rec_counts.sum()) * span
        links = up_counts + links_at_start
        chain = gen.random(links.sum()) < np.repeat(self.p, links)
        return (up_t, np.repeat(children, up_counts), rec_t, np.repeat(children, rec_counts),
                chain, links)

    def _starts(self, child):
        return np.concatenate(([0], np.cumsum(np.bincount(child, minlength=self.m))))

    def extend(self, k_max, gen):
        """Grow the background to k_max windows; the events drawn so far stay."""
        t1 = (k_max + 2) * self.t_win
        up_t, up_child, rec_t, rec_child, chain, links = self._span(gen, self.horizon, t1, 0)
        children = np.arange(self.m)
        links_before = np.bincount(self.up_child, minlength=self.m) + 1
        self.k_max, self.horizon = k_max, t1
        self.up_t = np.concatenate((self.up_t, up_t))
        self.up_child = np.concatenate((self.up_child, up_child))
        self.rec_t, self.rec_child = _by_child(self.rec_t, self.rec_child, rec_t, rec_child)
        self.chain, _ = _by_child(self.chain, np.repeat(children, links_before),
                                  chain, np.repeat(children, links))
        self.rec_start = self._starts(self.rec_child)


def _by_child(values, child, more_values, more_child):
    """Concatenate, then group by child, keeping each child's order."""
    child = np.concatenate((child, more_child))
    order = np.argsort(child, kind="stable")
    return np.concatenate((values, more_values))[order], child[order]


def _star_attempt(sc, lam, bg, py):
    """Simulate the restricted star on background `bg` of bg.k_max windows.

    Returns (record, t_safe). The record is None if the infection outlived
    the realized background. Otherwise it is exact only if its extinction
    time is below t_safe: the end of the last cell whose covering windows are
    all realized, or earlier, the first time a child was infected with no
    recovery left in the background (the run cannot end before it does).

    Costs O(m * k_max) array work plus O(events) Python work in the race.
    """
    t_win = sc.window
    m = bg.m
    k_max = bg.k_max
    n_cells = k_max + 2
    horizon = n_cells * t_win

    # good windows: open at kT and no update/recovery event inside J_k.
    # Row y of a flat (child, column) table holds child y; an event in cell c
    # marks column c + 2, and window k is blocked by a mark in columns k..k+3
    # (cells k-2..k+1). Update u counts for the windows from w_u on, the
    # first with kT >= t_u: w_u is c, c + 1 or c + 2 for the computed cell c.
    width = k_max + 5
    grid = np.arange(k_max + 4) * t_win
    up_row = bg.up_child * width
    up_cell = (bg.up_t / t_win).astype(np.int64)
    occupied = np.zeros(m * width, dtype=bool)
    occupied[up_row + up_cell + 2] = True
    occupied[bg.rec_child * width + (bg.rec_t / t_win).astype(np.int64) + 2] = True
    occupied = occupied.reshape(m, width)
    from_window = up_cell + (grid[up_cell] < bg.up_t) + (grid[up_cell + 1] < bg.up_t)
    # updates of the children before y, plus y's own at or before kT
    ups_so_far = np.cumsum(np.bincount(up_row + from_window,
                                       minlength=m * width)).reshape(m, width)
    # child y's chain starts after the chains, one link longer than their
    # update counts, of the children before it
    open_at = bg.chain[ups_so_far[:, :k_max + 1] + np.arange(m)[:, None]]
    blocked = (occupied[:, 0:k_max + 1] | occupied[:, 1:k_max + 2]
               | occupied[:, 2:k_max + 3] | occupied[:, 3:k_max + 4])
    good = open_at & ~blocked
    trace = tuple(int(c) for c in good.sum(axis=0)[:sc.stable_windows + 1])
    good_min = min(trace) if trace else 0
    stable = good_min > sc.threshold

    # per-cell validity: good in some window covering the cell
    valid = np.zeros((m, n_cells), dtype=bool)
    for off in (-1, 0, 1, 2):
        src_lo = max(0, -off)
        src_hi = min(n_cells, k_max + 1 - off)
        if src_lo < src_hi:
            valid[:, src_lo:src_hi] |= good[:, src_lo + off:src_hi + off]

    # infection race on the star, restricted to valid children
    t_safe = (k_max - 1) * t_win
    infected = np.zeros(m, dtype=bool)
    root_infected = True
    t_root_rec = py.expovariate(1.0)
    heap = []  # (recovery time, child)
    cell = 0
    t = 0.0
    vcol = valid[:, 0]
    n_valid = int(vcol.sum())
    n_valid_inf = 0

    def rate():
        if root_infected:
            return lam * (n_valid - n_valid_inf)
        return lam * n_valid_inf

    r = rate()
    t_inf = t + py.expovariate(r) if r > 0 else math.inf
    while True:
        if not root_infected and not heap:
            return StarReplicaRecord(good_min=good_min, good_trace=trace,
                                     stable=stable, extinction_time=t,
                                     outcome=engine.EXTINCT, seed=0), t_safe
        t_cell = (cell + 1) * t_win
        t_rec = heap[0][0] if heap else math.inf
        t_root = t_root_rec if root_infected else math.inf
        t_next = min(t_cell, t_rec, t_root, t_inf)
        if t_next >= horizon:
            return None, t_safe  # outlived this background; retry longer
        t = t_next
        if t == t_cell:
            cell += 1
            vcol = valid[:, cell]
            n_valid = int(vcol.sum())
            n_valid_inf = int(np.count_nonzero(vcol & infected))
        elif t == t_root:
            root_infected = False
        elif t == t_rec:
            _, child = heapq.heappop(heap)
            infected[child] = False
            if vcol[child]:
                n_valid_inf -= 1
        else:
            # infection event
            if root_infected:
                cands = np.nonzero(vcol & ~infected)[0]
                child = int(cands[py.randrange(cands.size)])
                infected[child] = True
                n_valid_inf += 1
                recs = bg.rec_t[bg.rec_start[child]:bg.rec_start[child + 1]]
                later = recs[recs > t]
                if later.size:
                    heapq.heappush(heap, (float(later.min()), child))
                else:  # infected past the background's end
                    t_safe = min(t_safe, t)
            else:
                root_infected = True
                t_root_rec = t + py.expovariate(1.0)
        r = rate()
        t_inf = t + py.expovariate(r) if r > 0 else math.inf


def star_survival(n_values, degree_bound: int, lam: float, kernel: KernelSpec,
                  dist: OffspringDistribution, replicas: int, seed: int,
                  max_windows: int = MAX_WINDOWS) -> StarScalingReport:
    """Restricted-star survival across star sizes, with a scaling report.

    Per size: the per-replica minimum good-neighbour count, the stable-star
    flag, and the extinction time of the restricted process started from the
    infected centre. The report regresses log median extinction time on
    N^{1 - alpha - 2 (eta v 0)} and tests ordering of consecutive sizes.

    A replica attempt costs O(m * k_max) array work plus O(events) Python
    work in the infection race, for m kept children and a background of
    k_max windows: at first the stable windows and at least 16, doubled on
    each retry up to max_windows. A star whose stable windows exceed
    max_windows is censored without a draw.
    """
    records = []
    all_times = []
    for j, n in enumerate(sorted(n_values)):
        sc = star_constants(n, degree_bound, lam, kernel, dist)
        if not sc.local_ok:
            raise ExperimentError(f"(3/2) lam T >= 1 at n={n}; shrink lam")
        reps = []
        times = []
        censored = 0
        for i in range(replicas):
            rs = replica_seed(mix(seed, TAG_EXPERIMENT, j), i)
            rec = _star_replica(n, sc, lam, kernel, dist, rs, max_windows)
            rec = replace(rec, seed=rs)
            reps.append(rec)
            times.append(rec.extinction_time)
            if rec.outcome != engine.EXTINCT:
                censored += 1
        records.append(StarExperimentRecord(
            constants=sc, replicas=tuple(reps),
            median_extinction=float(np.median(times)),
            stable_fraction=sum(r.stable for r in reps) / replicas,
            censored=censored,
        ))
        all_times.append(np.asarray(times))
    medians = tuple(r.median_extinction for r in records)
    expo = 1.0 - kernel.alpha - 2.0 * max(kernel.eta, 0.0)
    xs = np.asarray([r.constants.n for r in records], dtype=float) ** expo
    ys = np.log(np.maximum(medians, 1e-12))
    if len(records) >= 2:
        fit = stats.linregress(xs, ys)
        slope, intercept, r2 = fit.slope, fit.intercept, fit.rvalue ** 2
    else:
        slope = intercept = r2 = math.nan
    mw = []
    for a, b in zip(all_times[:-1], all_times[1:]):
        mw.append(float(stats.mannwhitneyu(a, b, alternative="less").pvalue))
    return StarScalingReport(records=tuple(records), medians=medians,
                             scale_exponent=expo, regression_slope=float(slope),
                             regression_intercept=float(intercept),
                             regression_r2=float(r2), mann_whitney_p=tuple(mw),
                             master_seed=seed)


# ---------------------------------------------------------------------------
# path transmission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathPoint:
    r: int
    replicas: int
    hits: int
    p_hat: float
    wilson: tuple
    bound: float


@dataclass(frozen=True)
class PathReport:
    points: tuple
    degree: int
    lam: float
    within_factor: float
    log_r2: float
    master_seed: int


def path_graph_with_degree(r: int, degree: int) -> GraphView:
    """Path 0..r with dummy leaves attached so every path vertex has `degree`."""
    if degree < 2 and r >= 2:
        raise ExperimentError("interior path vertices already have degree 2")
    edges = [(i, i + 1) for i in range(r)]
    nxt = r + 1
    for i in range(r + 1):
        have = 2 if 0 < i < r else 1
        for _ in range(degree - have):
            edges.append((i, nxt))
            nxt += 1
    return build_finite(edges)


def path_transmission(r_values, degree: int, lam: float, kernel: KernelSpec,
                      replicas: int, seed: int, within_factor: float = 4.0) -> PathReport:
    """P(far end of a constant-degree path infected within 4r) vs the bound."""
    points = []
    for j, r in enumerate(sorted(r_values)):
        g = path_graph_with_degree(r, degree)
        allowed = frozenset(range(r + 1))
        caps = Caps(horizon=within_factor * r)
        hits = 0
        for i in range(replicas):
            rs = replica_seed(mix(seed, TAG_EXPERIMENT, j), i)
            rec = engine.run_replica(g, kernel, lam, CPDG, {0}, caps, rs,
                                     allowed=allowed, target=r)
            if rec.outcome == engine.TARGET:
                hits += 1
        bound = path_lower_bound([degree] * (r + 1), lam, kernel).probability
        points.append(PathPoint(r=r, replicas=replicas, hits=hits,
                                p_hat=hits / replicas,
                                wilson=wilson_interval(hits, replicas),
                                bound=bound))
    xs = [p.r for p in points if p.hits > 0]
    ys = [math.log(p.p_hat) for p in points if p.hits > 0]
    r2 = float(stats.linregress(xs, ys).rvalue ** 2) if len(xs) >= 3 else math.nan
    return PathReport(points=tuple(points), degree=degree, lam=lam,
                      within_factor=within_factor, log_r2=r2, master_seed=seed)
