"""Independent oracles used by the tests.

These deliberately avoid the closed forms they are checking: the edge race is
simulated as the raw jump process (open/close/infect/recover clocks), and the
geometric sum is assembled from its defining pieces. The star attempt is the
per-child loop sampler that the flat-array one in `cpdg.experiments` replaced;
the two must return equal records from the same streams. The stable star is
the per-child sampler that the count chain replaced; the two must agree in
law. `tv_distance` compares a sample histogram with an exact law.
`sample_zeta_p` and `sample_mixed_binomial_array` are the per-draw and the
mixed-binomial samplers of the percolated offspring law, references for the
vectorized `cpdg.kernels.sample_zeta_p_array`.
`build_exact_loop` is the per-state assembly of the exact oracle's
generator, the reference for the vectorized `cpdg.oracle.build_exact`.
`waitandsee_model` is the exact generator of the wait-and-see process,
built from its transition rules in the exact oracle's bit encoding.
"""

import bisect
import heapq
import math

import numpy as np
from scipy import sparse

from cpdg import engine, oracle
from cpdg.experiments import StarReplicaRecord
from cpdg.graph import build_finite
from cpdg.kernels import p_value, p_value_array, v_value
from cpdg.rng import mix


def simulate_edge_race(lam, v, p, n, gen):
    """Raw race on one initially-closed edge.

    Returns (success, t_inf): whether the first true transmission beats the
    sender's recovery, and the transmission time (inf where it never fires
    before recovery is irrelevant; t_inf is the raw transmission time).
    """
    t_rec = gen.exponential(1.0, n)
    t_inf = np.zeros(n)
    active = np.arange(n)
    close_rate = (1.0 - p) * v
    while active.size:
        # closed: wait for the next opening
        t_inf[active] += gen.exponential(1.0 / (p * v), active.size)
        # open: race between closing and an infection attempt
        t_inf[active] += gen.exponential(1.0 / (close_rate + lam), active.size)
        fired = gen.random(active.size) < lam / (lam + close_rate)
        active = active[~fired]
    return t_inf < t_rec, t_inf


def simulate_geometric_sum(alpha, beta, q, n, gen):
    """Geom(q) many Exp(alpha)+Exp(beta) pairs, summed."""
    counts = gen.geometric(q, n)
    return gen.gamma(counts, 1.0 / alpha) + gen.gamma(counts, 1.0 / beta)


def sample_zeta_p(pd, rng):
    """One two-stage draw: offspring count, then Bernoulli thinning per child."""
    z = pd.base.sample(rng)
    if z == 0:
        return 0
    count = 0
    for _ in range(z):
        zi = pd.base.sample(rng)
        if rng.random() < p_value(pd.kernel, z, max(zi, 1)):
            count += 1
    return count


def mixed_binomial_success(pd, z):
    """E[p(z', z)] for an offspring count z, with z' an independent copy."""
    if z < 1:
        return 0.0
    vals = pd.base.values
    probs = pd.base.pmf
    ps = p_value_array(pd.kernel, np.full(vals.shape, z), np.maximum(vals, 1))
    acc = float(np.dot(ps, probs))
    if pd.base.tail is not None:
        # analytic-tail children sit beyond the head, where the sigma kernel
        # is monotone; their total mass (<=1e-6) is bounded by the kernel
        # value at the head end
        tail_mass = 1.0 - pd.base.head_mass
        acc += tail_mass * p_value(pd.kernel, z, int(vals[-1]) + 1)
    return min(1.0, acc)


def sample_mixed_binomial_array(pd, gen, n):
    """Direct Bin(z, E[p(z', z) | z]) sampler; equal in law to the two-stage one."""
    z = pd.base.sample_array(gen, n)
    qs = np.array([mixed_binomial_success(pd, int(k)) for k in np.unique(z)])
    lut = dict(zip((int(k) for k in np.unique(z)), qs))
    q = np.array([lut[int(k)] for k in z])
    return gen.binomial(z, q)


def tv_distance(empirical_counts: dict, exact: np.ndarray, n_samples: int) -> float:
    """Total-variation distance between a sample histogram and an exact law."""
    emp = np.zeros_like(exact)
    for idx, cnt in empirical_counts.items():
        emp[idx] = cnt / n_samples
    return 0.5 * float(np.abs(emp - exact).sum())


def build_exact_loop(graph, kernel, lam):
    """The exact oracle's generator, assembled one state at a time.

    The per-state loop that `oracle.build_exact` replaced with masked numpy
    blocks; both must give the same CSR arrays, byte for byte.
    """
    n = graph.n_vertices
    edges = tuple(graph.edges())
    m = len(edges)
    n_states = 1 << (n + m)
    p_open = np.array([p_value(kernel, graph.degree(u), graph.degree(v)) for u, v in edges])
    v_rate = np.array([v_value(kernel, graph.degree(u), graph.degree(v)) for u, v in edges])

    rows, cols, vals = [], [], []

    def add(i, j, r):
        if r > 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(r)

    for s in range(n_states):
        c = s & ((1 << n) - 1)
        b = s >> n
        for j in range(m):
            bit = 1 << j
            if b & bit:
                add(s, s ^ (bit << n), v_rate[j] * (1.0 - p_open[j]))  # close
            else:
                add(s, s ^ (bit << n), v_rate[j] * p_open[j])  # open
        for j, (u, v) in enumerate(edges):
            if b >> j & 1:
                ui = c >> u & 1
                vi = c >> v & 1
                if ui != vi:
                    target = v if ui else u
                    add(s, s | (1 << target), lam)
        ci = c
        while ci:
            low = ci & -ci
            add(s, s ^ low, 1.0)  # recovery
            ci ^= low
    q = sparse.coo_matrix((vals, (rows, cols)), shape=(n_states, n_states)).tocsr()
    diag = np.asarray(q.sum(axis=1)).ravel()
    q = q - sparse.diags(diag)
    return oracle.ExactModel(n_vertices=n, edges=edges, p_open=p_open, lam=lam,
                             generator=q.tocsr(), uniformization_rate=float(diag.max()))


def waitandsee_model(graph, kernel, lam):
    """Exact (infected, revealed) chain of the wait-and-see process.

    States use `oracle.ExactModel`'s encoding with bit j of the edge bits set
    when edge j is revealed. Each infected vertex recovers at rate 1. A
    revealed edge unreveals at rate v and ticks at rate lam, a tick
    infecting the healthy end when exactly one end is infected. An
    unrevealed edge with an infected end reveals at rate lam p and infects
    its far end as it does. Every edge starts unrevealed, so `p_open` is
    zero and `oracle.initial_distribution` gives a point mass.
    """
    n = graph.n_vertices
    edges = tuple(graph.edges())
    m = len(edges)
    p = [p_value(kernel, graph.degree(u), graph.degree(w)) for u, w in edges]
    v = [v_value(kernel, graph.degree(u), graph.degree(w)) for u, w in edges]
    rates = {}

    def add(s, target, r):
        if r > 0.0 and target != s:
            rates[s, target] = rates.get((s, target), 0.0) + r

    for s in range(1 << (n + m)):
        c, b = s & ((1 << n) - 1), s >> n
        for x in range(n):
            if c >> x & 1:
                add(s, s ^ (1 << x), 1.0)
        for j, (u, w) in enumerate(edges):
            ui, wi = c >> u & 1, c >> w & 1
            both = s | (1 << u) | (1 << w)
            if b >> j & 1:
                add(s, s ^ (1 << (n + j)), v[j])
                if ui != wi:
                    add(s, both, lam)
            elif ui or wi:
                add(s, both | (1 << (n + j)), lam * p[j])
    rows, cols = zip(*rates)
    q = sparse.coo_matrix((list(rates.values()), (rows, cols)),
                          shape=(1 << (n + m),) * 2).tocsr()
    out = np.asarray(q.sum(axis=1)).ravel()
    return oracle.ExactModel(n_vertices=n, edges=edges, p_open=np.zeros(m), lam=lam,
                             generator=(q - sparse.diags(out)).tocsr(),
                             uniformization_rate=float(out.max()))


def random_connected_graph(n_vertices, seed, extra_edge_prob=0.4):
    """Random labelled tree on n_vertices, possibly with one extra edge."""
    rng = np.random.default_rng(mix(seed, 0x67726166))
    edges = []
    for v in range(1, n_vertices):
        edges.append((int(rng.integers(0, v)), v))
    if n_vertices >= 3 and rng.random() < extra_edge_prob:
        present = {tuple(sorted(e)) for e in edges}
        for _ in range(10):
            u, w = rng.integers(0, n_vertices, 2)
            key = (min(int(u), int(w)), max(int(u), int(w)))
            if key[0] != key[1] and key not in present:
                edges.append(key)
                break
    return build_finite(edges)


def stable_star_reference(n, kernel, dist, degree_bound, t_cell, n_windows, gen):
    """Good-neighbour counts of windows 0..n_windows around a degree-n root,
    sampled child by child (per-window-cell update and recovery indicators
    and the redraw chain)."""
    n_cells = n_windows + 2
    zeta = dist.sample_array(gen, n)
    deg = zeta + 1
    keep = deg <= degree_bound
    deg = deg[keep]
    m = deg.size
    if m == 0:
        return np.zeros(n_windows + 1, dtype=np.int64)
    p_arr = p_value_array(kernel, np.full(m, n), deg)
    v_arr = kernel.nu * np.maximum(float(n), deg) ** kernel.eta
    q_up = 1.0 - np.exp(-v_arr * t_cell)
    q_rec = 1.0 - math.exp(-t_cell)
    upd = gen.random((m, n_cells)) < q_up[:, None]
    rec = gen.random((m, n_cells)) < q_rec
    blocked = upd | rec
    state = gen.random(m) < p_arr  # stationary at time 0
    # cumulative "no events in cells k-2..k+1"; track states at window starts
    states = np.empty((n_windows + 1, m), dtype=bool)
    states[0] = state
    for k in range(1, n_windows + 1):
        fresh = gen.random(m) < p_arr
        state = np.where(upd[:, k - 1], fresh, state)
        states[k] = state
    blocked_cum = np.zeros((n_cells + 1, m), dtype=np.int16)
    np.cumsum(blocked.T, axis=0, out=blocked_cum[1:])
    counts = np.empty(n_windows + 1, dtype=np.int64)
    for k in range(n_windows + 1):
        lo = max(k - 2, 0)
        hi = min(k + 2, n_cells)  # cells lo..hi-1
        free = blocked_cum[hi] == blocked_cum[lo]
        counts[k] = np.count_nonzero(states[k] & free)
    return counts


def star_attempt_reference(n, sc, lam, kernel, deg, m, gen, py, k_max, stable_w):
    """Simulate the restricted star with a background of k_max windows.

    Returns a StarReplicaRecord, or None if the infection outlived the
    realized background (caller retries with a longer one).
    """
    t_win = sc.window
    n_cells = k_max + 2
    horizon = n_cells * t_win
    p_arr = p_value_array(kernel, np.full(m, n), deg) if m else np.empty(0)
    v_arr = kernel.nu * np.maximum(float(n), deg) ** kernel.eta if m else np.empty(0)

    # realized background: update/recovery event times and redraw chains
    up_counts = gen.poisson(v_arr * horizon) if m else np.empty(0, dtype=int)
    rec_counts = gen.poisson(horizon * np.ones(m)) if m else np.empty(0, dtype=int)
    up_times = [np.sort(gen.random(c)) * horizon for c in up_counts]
    rec_times = [np.sort(gen.random(c)) * horizon for c in rec_counts]
    states = [None] * m
    for y in range(m):
        states[y] = gen.random(up_counts[y] + 1) < p_arr[y]

    # good windows: open at kT and no update/recovery event inside J_k
    good = np.zeros((m, k_max + 1), dtype=bool)
    grid = np.arange(k_max + 1) * t_win
    for y in range(m):
        idx = np.searchsorted(up_times[y], grid, side="right")
        open_at = states[y][idx]
        blocked = np.zeros(k_max + 1, dtype=bool)
        for t_ev in (up_times[y], rec_times[y]):
            if t_ev.size:
                mcell = np.floor(t_ev / t_win).astype(np.int64)
                for off in (-1, 0, 1, 2):
                    ks = mcell + off
                    ks = ks[(ks >= 0) & (ks <= k_max)]
                    blocked[ks] = True
        good[y] = open_at & ~blocked
    trace = tuple(int(c) for c in good.sum(axis=0)[:stable_w + 1])
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
                                     outcome=engine.EXTINCT, seed=0)
        t_cell = (cell + 1) * t_win
        t_rec = heap[0][0] if heap else math.inf
        t_root = t_root_rec if root_infected else math.inf
        t_next = min(t_cell, t_rec, t_root, t_inf)
        if t_next >= horizon:
            return None  # outlived this background; retry longer
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
                nxt = bisect.bisect_right(rec_times[child], t)
                if nxt < rec_times[child].size:
                    heapq.heappush(heap, (float(rec_times[child][nxt]), child))
                # else: no recovery before the horizon; censoring covers it
            else:
                root_infected = True
                t_root_rec = t + py.expovariate(1.0)
        r = rate()
        t_inf = t + py.expovariate(r) if r > 0 else math.inf
