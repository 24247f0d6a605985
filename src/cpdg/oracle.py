"""Exact continuous-time Markov chain computations on small instances.

States are (C, B) pairs encoded as index = c_bits | (b_bits << n_vertices),
with vertex i at bit i of c_bits and edge j (in sorted edge order) at bit j
of b_bits. `build_exact` assembles the sparse generator with numpy bit
operations over all states at once, up to STATE_CAP = 2^20 states. Transient
laws come from uniformization truncated at Poisson quantiles. Absorption
statistics come from one breadth-first search for the states reachable from
the initial law, then sparse linear solves on -Q_TT: LU up to DIRECT_MAX
unknowns; above that Jacobi-preconditioned BiCGSTAB, restarted from its true
residual, whose answer is kept only when that residual is at most
RESIDUAL_GATE relative to the right-hand side, with LU as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import bicgstab, spsolve

from .graph import GraphView
from .kernels import KernelSpec, p_value, v_value

STATE_CAP = 1 << 20
# uniformization takes about mu = rate * t sparse products; past this many a
# transient law is refused before the first one
MAX_PRODUCTS = 10**6
# absorption systems with more unknowns than this go to the Krylov solver:
# LU takes about 10 ms at 512 unknowns but 5 s at 4032 (the 6-cycle)
DIRECT_MAX = 512
# a Krylov answer is kept when |rhs - a x| <= RESIDUAL_GATE |rhs|
RESIDUAL_GATE = 1e-12
KRYLOV_PASSES = 5
# iterations per pass: about ten times the most seen, 93 (9-path, lam = 32)
KRYLOV_MAXITER = 1000


class StateCapExceeded(ValueError):
    """The enumerated (C, B) state space would be too large."""


class UniformizationError(ArithmeticError):
    """A transient law missed its stated error tolerance."""


@dataclass(frozen=True, eq=False)
class ExactModel:
    n_vertices: int
    edges: tuple  # sorted (u, v) pairs
    p_open: np.ndarray
    lam: float
    generator: sparse.csr_matrix
    uniformization_rate: float

    @property
    def n_states(self) -> int:
        return 1 << (self.n_vertices + len(self.edges))

    def encode(self, infected, open_edges) -> int:
        c = 0
        for x in infected:
            c |= 1 << x
        b = 0
        for j, e in enumerate(self.edges):
            if e in open_edges or (e[1], e[0]) in open_edges:
                b |= 1 << j
        return c | (b << self.n_vertices)

    def split_bits(self, idx):
        """(c_bits, b_bits) arrays for an array of state indices."""
        idx = np.asarray(idx)
        mask = (1 << self.n_vertices) - 1
        return idx & mask, idx >> self.n_vertices


def build_exact(graph: GraphView, kernel: KernelSpec, lam: float,
                state_cap: int = STATE_CAP) -> ExactModel:
    """Assemble the sparse generator of the joint (infection, background) chain."""
    if graph.lazy:
        raise StateCapExceeded("exact models need a fully materialized finite graph")
    n = graph.n_vertices
    edges = tuple(graph.edges())
    m = len(edges)
    n_states = 1 << (n + m)
    if n_states > state_cap:
        raise StateCapExceeded(f"2^({n}+{m}) = {n_states} states exceeds the cap {state_cap}")
    p_open = np.array([p_value(kernel, graph.degree(u), graph.degree(v)) for u, v in edges])
    v_rate = np.array([v_value(kernel, graph.degree(u), graph.degree(v)) for u, v in edges])

    # every state at once, as bit patterns; one masked block of transitions
    # per edge flip, per infection along an open edge and per recovery
    s = np.arange(n_states, dtype=np.int32 if n + m < 31 else np.int64)
    rows, cols, vals = [], [], []

    def add(src, dst, rate):
        live = rate > 0.0
        rows.append(src[live])
        cols.append(dst[live])
        vals.append(rate[live])

    for j, (u, v) in enumerate(edges):
        flip = 1 << (n + j)
        is_open = (s & flip) != 0
        add(s, s ^ flip, np.where(is_open, v_rate[j] * (1.0 - p_open[j]), v_rate[j] * p_open[j]))
        src = s[is_open & ((s >> u & 1) != (s >> v & 1))]
        # the healthy end's bit: v's when u is the infected end, else u's
        add(src, src | (src >> u & 1) << v | (src >> v & 1) << u, np.full(src.size, lam))
    for x in range(n):
        src = s[(s >> x & 1) != 0]
        add(src, src ^ (1 << x), np.ones(src.size))
    # one list at a time, so that each list's blocks are freed before the next
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    q = sparse.coo_matrix((vals, (rows, cols)), shape=(n_states, n_states)).tocsr()
    del rows, cols, vals
    diag = np.asarray(q.sum(axis=1)).ravel()
    q = q - sparse.diags(diag)
    return ExactModel(n_vertices=n, edges=edges, p_open=p_open, lam=lam,
                      generator=q.tocsr(), uniformization_rate=float(diag.max()))


def initial_distribution(model: ExactModel, infected) -> np.ndarray:
    """Point mass on C0 times the stationary product law of the background."""
    c = 0
    for x in infected:
        c |= 1 << int(x)
    probs = np.ones(1)
    for p in model.p_open:
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    out = np.zeros(model.n_states)
    out[c | (np.arange(probs.size) << model.n_vertices)] = probs
    return out


def transient_distribution(model: ExactModel, init: np.ndarray, t: float,
                           tol: float = 1e-12) -> np.ndarray:
    """State distribution at time t by uniformization (L1 error below tol).

    With mu = uniformization_rate * t, the law is the Poisson(mu) mixture of
    init P^k, P = I + Q / rate. The weights come from their ratio recursion
    outward from the mode (Fox and Glynn, 1988), normalized over the window
    mode -+ (40 sqrt(mu) + 40), outside which the Poisson mass is below 1e-28.
    The sum stops at the first k whose remaining Poisson mass is at most
    tol / 2, so it takes about mu + O(sqrt(mu)) sparse matrix-vector products:
    the cost is O(mu) products over the whole state space.

    Raises UniformizationError before the first product when the window's
    upper end, mode + spread, exceeds MAX_PRODUCTS (so no call runs more
    products than that), and after the last one if the law's total mass ends
    more than tol away from init's, which rounding over many products can
    cause.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    rate = model.uniformization_rate
    if t == 0.0 or rate == 0.0:
        return init.copy()
    p_mat = sparse.eye(model.n_states, format="csr") + model.generator.multiply(1.0 / rate)
    mu = rate * t
    mode = int(mu)
    spread = int(40.0 * math.sqrt(mu)) + 40
    if mode + spread > MAX_PRODUCTS:
        raise UniformizationError(
            f"uniformization at t = {t:.6g} (mu = {mu:.6g}) needs up to {mode + spread} "
            f"matrix-vector products, over the limit of {MAX_PRODUCTS}")
    lo = max(mode - spread, 0)
    down = np.cumprod(np.arange(mode, lo, -1) / mu)[::-1]
    up = np.cumprod(mu / np.arange(mode + 1, mode + spread + 1))
    weights = np.concatenate((down, [1.0], up))
    weights /= math.fsum(weights)
    # tail[i]: the mass of the weights from index i on, summed smallest first
    tail = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
    n_terms = int(np.argmax(tail <= tol / 2))
    vec = init.copy()
    for _ in range(lo):
        vec = vec @ p_mat
    acc = weights[0] * vec
    for w in weights[1:n_terms]:
        vec = vec @ p_mat
        acc += w * vec
    drift = abs(float(acc.sum()) - float(init.sum()))
    if drift > tol:
        raise UniformizationError(
            f"uniformization over {lo + n_terms - 1} steps (mu = {mu:.6g}) lost {drift:.3g} "
            f"of the mass, above the tolerance {tol:.3g}")
    return acc


def transient_prob(model: ExactModel, init: np.ndarray, t: float, predicate,
                   tol: float = 1e-12) -> float:
    """P(predicate holds at time t); predicate maps (c_bits, b_bits) arrays to bools."""
    dist = transient_distribution(model, init, t, tol=tol)
    c_bits, b_bits = model.split_bits(np.arange(model.n_states))
    mask = np.asarray(predicate(c_bits, b_bits), dtype=bool)
    return float(dist[mask].sum())


@dataclass(frozen=True)
class ExtinctionStats:
    p_extinct: float
    mean_time: float
    n_transient_reachable: int


def extinction_stats(model: ExactModel, init: np.ndarray) -> ExtinctionStats:
    """Absorption analysis: extinction is certain; mean hitting time of C = empty.

    States with C = empty are lumped (the background keeps moving but cannot
    re-infect). One breadth-first search, from a virtual state that leads to
    every state init charges, finds the reachable states; unreachable
    transient states are pruned before the solve. The mean times m solve
    -Q_TT m = 1 and the absorption probabilities solve -Q_TT x = (rates into
    C = empty). Both go through `_solve`: LU up to DIRECT_MAX unknowns, else
    Jacobi-preconditioned BiCGSTAB whose answer is kept only when its true
    relative residual is at most RESIDUAL_GATE, with LU as the fallback.
    """
    n_states = model.n_states
    q = model.generator
    c_bits, _ = model.split_bits(np.arange(n_states))
    transient = c_bits != 0

    support = np.nonzero(init > 0)[0].astype(q.indices.dtype)
    fan_out = sparse.csr_matrix(
        (np.ones(q.nnz + support.size), np.concatenate((q.indices, support)),
         np.append(q.indptr, q.nnz + support.size)), shape=(n_states + 1, n_states + 1))
    reach = np.zeros(n_states + 1, dtype=bool)
    reach[breadth_first_order(fan_out, n_states, directed=True, return_predecessors=False)] = True
    del fan_out
    keep = np.nonzero(transient & reach[:n_states])[0]
    if keep.size == 0:
        return ExtinctionStats(p_extinct=1.0, mean_time=0.0, n_transient_reachable=0)
    a = -q[np.ix_(keep, keep)].tocsc()  # -Q_TT
    # right-hand sides: 1 for the mean times, the rates into the C = empty
    # class for the absorption probabilities
    rhs = np.column_stack((np.ones(keep.size), np.asarray(a.sum(axis=1)).ravel()))
    mean_vec, absorb = _solve(a, rhs).T
    p_ext = float(np.dot(init[keep], absorb) + init[~transient].sum())
    mean_time = float(np.dot(init[keep], mean_vec))
    return ExtinctionStats(p_extinct=p_ext, mean_time=mean_time,
                           n_transient_reachable=int(keep.size))


def _solve(a: sparse.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """The columns x of a x = rhs, for a = -Q_TT.

    LU (`spsolve`, one factorization for every column) fills in almost
    densely on the hypercube-shaped state graph, so it runs only up to
    DIRECT_MAX unknowns, or when a Krylov solve misses its residual gate.
    """
    if rhs.shape[0] > DIRECT_MAX:
        a_csr = a.tocsr()
        cols = [_krylov(a_csr, b) for b in rhs.T]
        if all(x is not None for x in cols):
            return np.column_stack(cols)
    return spsolve(a, rhs)


def _krylov(a: sparse.csr_matrix, rhs: np.ndarray) -> np.ndarray | None:
    """Jacobi-preconditioned BiCGSTAB, restarted from the true residual.

    BiCGSTAB tracks its residual by a recursion that can drift from
    rhs - a x, and can stop on it, so each pass's answer is tested against
    the residual recomputed from x: the first x with
    |rhs - a x| <= RESIDUAL_GATE |rhs| is returned. A pass that misses
    restarts on that residual; None after KRYLOV_PASSES passes.
    """
    jacobi = sparse.diags(1.0 / a.diagonal())
    bound = RESIDUAL_GATE * np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    residual = rhs
    for _ in range(KRYLOV_PASSES):
        # a unit right-hand side, since BiCGSTAB's breakdown tests are absolute
        scale = np.linalg.norm(residual)
        step, _ = bicgstab(a, residual / scale, rtol=0.1 * RESIDUAL_GATE, atol=0.0, M=jacobi,
                           maxiter=KRYLOV_MAXITER)
        x += scale * step
        residual = rhs - a @ x
        if np.linalg.norm(residual) <= bound:
            return x
    return None
