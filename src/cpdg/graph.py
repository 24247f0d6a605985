"""Finite graphs and lazily grown offspring trees with frozen degrees.

Vertices are dense non-negative integers with 0 the root. For a lazily grown
tree the root has degree equal to its offspring count and every other vertex
has degree offspring+1 (the parent edge). Per-vertex randomness is keyed by a
hash of (tree_seed, root-path), so the realized tree does not depend on the
order in which vertices are materialized.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .rng import TAG_TREE, mix


class GraphError(ValueError):
    """Invalid graph construction input."""


class DistributionError(ValueError):
    """Invalid offspring-distribution parameters."""


class TreeCapExceeded(RuntimeError):
    """Raised when growing a tree would exceed its vertex/depth caps.

    Callers must treat this as censoring, never as extinction.
    """


# ---------------------------------------------------------------------------
# offspring distributions
# ---------------------------------------------------------------------------

_PMF_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class _PowerLawTail:
    """Exact sampler for P(k) ~ k^-b on k > head_end via discrete-Pareto rejection."""

    b: float
    head_end: int  # tail support is {head_end+1, head_end+2, ...}

    def sample(self, u01) -> int:
        b = self.b
        m = self.head_end + 1
        bound = (1.0 + 1.0 / m) ** b / (b - 1.0)
        while True:
            y = m * (1.0 - u01()) ** (-1.0 / (b - 1.0))
            k = int(y)
            # accept with prob proportional to pmf(k) / proposal mass of floor(y)=k
            ratio = k ** (-b) / (k ** (1.0 - b) - (k + 1) ** (1.0 - b))
            if u01() * bound <= ratio:
                return k


@dataclass(frozen=True, eq=False)
class OffspringDistribution:
    """Offspring law with exact inverse-CDF sampling and moment queries."""

    kind: str
    support_start: int
    values: np.ndarray  # head support (int64)
    pmf: np.ndarray  # head probabilities, sums to head_mass
    cdf: np.ndarray
    head_mass: float
    mean: float  # math.inf when the mean diverges
    tail: _PowerLawTail | None = None
    params: dict = field(default_factory=dict)

    def pmf_at(self, k: int) -> float:
        if k < self.support_start:
            return 0.0
        if k <= int(self.values[-1]):
            idx = k - self.support_start
            if self.kind in ("deterministic", "tabulated"):
                idx = int(np.searchsorted(self.values, k))
                if idx >= len(self.values) or int(self.values[idx]) != k:
                    return 0.0
            return float(self.pmf[idx])
        if self.tail is not None:
            return k ** (-self.tail.b) / self.params["norm"]
        return 0.0

    def prob_le(self, k: int) -> float:
        """P(offspring <= k)."""
        if k < self.support_start:
            return 0.0
        if k >= int(self.values[-1]) and self.tail is None:
            return 1.0
        if k <= int(self.values[-1]):
            idx = int(np.searchsorted(self.values, k, side="right")) - 1
            return float(self.cdf[idx]) if idx >= 0 else 0.0
        # analytic power-law tail
        return 1.0 - _hurwitz_zeta(self.tail.b, k + 1) / self.params["norm"]

    def mean_below(self, L: int) -> float:
        """E[offspring * 1{offspring < L}] (the pruned-tree mean)."""
        if self.tail is not None and L > int(self.values[-1]) + 1:
            raise DistributionError("pruning level exceeds the tabulated head of a heavy-tailed law")
        mask = self.values < L
        return float(np.dot(self.values[mask], self.pmf[mask]))

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        if u >= self.head_mass:
            return self.tail.sample(rng.random)
        idx = int(np.searchsorted(self.cdf, u, side="right"))
        return int(self.values[min(idx, len(self.values) - 1)])

    def sample_array(self, gen: np.random.Generator, n: int) -> np.ndarray:
        u = gen.random(n)
        out = self.values[np.minimum(np.searchsorted(self.cdf, u, side="right"), len(self.values) - 1)]
        out = out.copy()
        if self.tail is not None:
            in_tail = np.nonzero(u >= self.head_mass)[0]
            if in_tail.size:
                out[in_tail] = [self.tail.sample(gen.random) for _ in range(in_tail.size)]
        return out


def _finalize(kind, start, values, weights, mean, head_mass=1.0, tail=None, params=None):
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    pmf = weights * (head_mass / total)
    cdf = np.cumsum(pmf)
    if tail is None and abs(cdf[-1] - 1.0) > _PMF_TOL:
        raise DistributionError("pmf fails to normalize within 1e-12")
    return OffspringDistribution(
        kind=kind,
        support_start=start,
        values=np.asarray(values, dtype=np.int64),
        pmf=pmf,
        cdf=cdf,
        head_mass=head_mass,
        mean=mean,
        tail=tail,
        params=params or {},
    )


def power_law(b: float, k0: int = 1) -> OffspringDistribution:
    """P(k) = k^-b / zeta(b, k0) on k >= k0.

    Head is tabulated; the far tail is sampled exactly by rejection, so no
    truncation error is introduced for heavy tails.
    """
    if b <= 1.0:
        raise DistributionError(f"power_law requires b > 1, got {b}")
    if k0 < 1:
        raise DistributionError("power_law support must start at k0 >= 1")
    norm = float(_hurwitz_zeta(b, k0))
    # head cutoff: leave <=1e-6 analytic tail mass, capped for memory
    est = (1.0 / ((b - 1.0) * norm * 1e-6)) ** (1.0 / (b - 1.0))
    head_end = int(min(max(est, 4096), 2_000_000))
    ks = np.arange(k0, head_end + 1, dtype=np.int64)
    weights = ks.astype(float) ** (-b)
    tail_mass = float(_hurwitz_zeta(b, head_end + 1)) / norm
    mean = float(_hurwitz_zeta(b - 1.0, k0) / norm) if b > 2.0 else math.inf
    return _finalize(
        "power_law", k0, ks, weights, mean,
        head_mass=1.0 - tail_mass,
        tail=_PowerLawTail(b=b, head_end=head_end),
        params={"b": b, "k0": k0, "norm": norm},
    )


def stretched_exponential(beta: float, scale: float = 1.0, k0: int = 1) -> OffspringDistribution:
    """P(k) ~ exp(-(k/scale)^beta) on k >= k0, tabulated at mass 1 - 1e-12."""
    if not 0.0 < beta < 1.0:
        raise DistributionError(f"stretched_exponential requires beta in (0,1), got {beta}")
    if scale <= 0 or k0 < 0:
        raise DistributionError("scale must be positive and k0 >= 0")
    ks, ws = [], []
    k, total = k0, 0.0
    while True:
        w = math.exp(-((k / scale) ** beta))
        ks.append(k)
        ws.append(w)
        total += w
        # superpolynomial decay: remaining tail < w * k / beta once ratios shrink
        if k > k0 + 8 and w < total * 1e-16:
            break
        k += 1
        if k - k0 > 50_000_000:
            raise DistributionError("stretched_exponential table blew up; increase beta or reduce scale")
    ws = np.asarray(ws)
    mean = float(np.dot(ks, ws / ws.sum()))
    return _finalize("stretched_exponential", k0, ks, ws, mean,
                     params={"beta": beta, "scale": scale, "k0": k0})


def geometric(q: float, k0: int = 0) -> OffspringDistribution:
    """P(k) = q (1-q)^(k-k0) on k >= k0, tabulated at mass 1 - 1e-12."""
    if not 0.0 < q < 1.0:
        raise DistributionError(f"geometric requires q in (0,1), got {q}")
    n = int(math.ceil(math.log(_PMF_TOL) / math.log(1.0 - q))) + 1
    ks = np.arange(k0, k0 + n, dtype=np.int64)
    ws = q * (1.0 - q) ** np.arange(n, dtype=float)
    mean = k0 + (1.0 - q) / q
    return _finalize("geometric", k0, ks, ws, mean, params={"q": q, "k0": k0})


def deterministic(d: int) -> OffspringDistribution:
    """Point mass at d offspring."""
    if d < 0:
        raise DistributionError("offspring count must be non-negative")
    return _finalize("deterministic", d, [d], [1.0], float(d), params={"d": d})


def tabulated(weights, k0: int = 0) -> OffspringDistribution:
    """Explicit pmf proportional to `weights` on k0, k0+1, ..."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or (w < 0).any() or w.sum() <= 0:
        raise DistributionError("weights must be a non-empty non-negative vector with positive sum")
    ks = np.arange(k0, k0 + w.size, dtype=np.int64)
    keep = w > 0
    mean = float(np.dot(ks, w / w.sum()))
    return _finalize("tabulated", k0, ks[keep], w[keep], mean, params={"k0": k0})


# ---------------------------------------------------------------------------
# graph views
# ---------------------------------------------------------------------------

DEFAULT_MAX_VERTICES = 1_000_000
DEFAULT_MAX_DEPTH = 10_000


@dataclass(frozen=True)
class TreeCaps:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_depth: int = DEFAULT_MAX_DEPTH


class GraphView:
    """Finite or lazily grown rooted graph with immutable per-vertex degrees."""

    __slots__ = (
        "lazy", "root", "truncated",
        "_adj", "_n", "_edge_list",
        "dist", "tree_seed", "caps", "forced_root_count",
        "_zeta", "_children", "_parent", "_depth", "_key",
    )

    # -- construction ------------------------------------------------------

    def __init__(self):
        self.lazy = False
        self.root = 0
        self.truncated = False
        self._adj = None
        self._n = 0
        self._edge_list = None

    @classmethod
    def finite(cls, adjacency: list[list[int]]) -> "GraphView":
        g = cls()
        g._adj = adjacency
        g._n = len(adjacency)
        return g

    @classmethod
    def bgw(cls, dist: OffspringDistribution, tree_seed: int,
            caps: TreeCaps, forced_root_count: int | None = None) -> "GraphView":
        g = cls()
        g.lazy = True
        g.dist = dist
        g.tree_seed = tree_seed
        g.caps = caps
        g.forced_root_count = forced_root_count
        g._zeta = [None]
        g._children = [None]
        g._parent = [-1]
        g._depth = [0]
        g._key = [mix(tree_seed, TAG_TREE)]
        return g

    # -- shared queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Total vertex count (finite) or number materialized so far (lazy)."""
        return len(self._zeta) if self.lazy else self._n

    def degree(self, v: int) -> int:
        if not self.lazy:
            return len(self._adj[v])
        z = self.offspring_count(v)
        return z if v == self.root else z + 1

    def neighbors(self, v: int) -> list[int]:
        if not self.lazy:
            return self._adj[v]
        out = [] if v == self.root else [self._parent[v]]
        out.extend(self.children(v))
        return out

    def edges(self) -> tuple:
        """Sorted (u, v) pairs with u < v, built once for a finite graph.
        Materialized edges only for lazy graphs."""
        if self.lazy:
            return tuple((self._parent[v], v) for v in range(1, len(self._parent)))
        if self._edge_list is None:
            self._edge_list = tuple((u, w) for u in range(self._n) for w in self._adj[u] if u < w)
        return self._edge_list

    # -- lazy growth ---------------------------------------------------------

    def offspring_count(self, v: int) -> int:
        """Draw (once) and return the offspring count of v."""
        z = self._zeta[v]
        if z is None:
            if v == self.root and self.forced_root_count is not None:
                z = self.forced_root_count
            else:
                z = self.dist.sample(random.Random(self._key[v]))
            self._zeta[v] = z
        return z

    def children(self, v: int) -> list[int]:
        """Materialize (once) and return the child ids of v."""
        kids = self._children[v]
        if kids is None:
            z = self.offspring_count(v)
            depth = self._depth[v] + 1
            if depth > self.caps.max_depth or len(self._zeta) + z > self.caps.max_vertices:
                self.truncated = True
                raise TreeCapExceeded(f"expanding vertex {v} exceeds caps {self.caps}")
            base = len(self._zeta)
            key = self._key[v]
            kids = list(range(base, base + z))
            for i in range(z):
                self._zeta.append(None)
                self._children.append(None)
                self._parent.append(v)
                self._depth.append(depth)
                self._key.append(mix(key, i + 1))
            self._children[v] = kids
        return kids


def build_finite(edge_list) -> GraphView:
    """Build a simple connected finite graph from (u, v) pairs.

    Rejects self-loops, duplicate edges and disconnected graphs with a
    diagnostic naming the offending item.
    """
    edges = [(int(u), int(v)) for u, v in edge_list]
    if not edges:
        raise GraphError("empty edge list")
    n = max(max(u, v) for u, v in edges) + 1
    if min(min(u, v) for u, v in edges) < 0:
        raise GraphError("vertex ids must be non-negative")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    # connectivity from vertex 0
    stack, visited = [0], {0}
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in visited:
                visited.add(w)
                stack.append(w)
    if len(visited) != n:
        missing = sorted(set(range(n)) - visited)[:5]
        raise GraphError(f"graph is disconnected; unreachable vertices include {missing}")
    return GraphView.finite(adj)


def grow_bgw(dist: OffspringDistribution, seed: int,
             caps: TreeCaps = TreeCaps()) -> GraphView:
    """Lazily grown offspring tree rooted at vertex 0."""
    if caps.max_vertices < 1 or caps.max_depth < 0:
        raise GraphError("caps must allow at least the root")
    g = GraphView.bgw(dist, seed, caps)
    g.offspring_count(g.root)
    return g


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

def load_edge_list(path: str) -> GraphView:
    """Read a `#vertices N` header and one `u v` pair per line.

    Raises GraphError naming the path (and the line) for an unreadable file
    or a malformed line.
    """
    edges = []
    declared = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                fields = line.split()
                if not fields:
                    continue
                try:
                    if fields[0] == "#vertices":
                        (declared,) = map(int, fields[1:])
                        continue
                    u, v = map(int, fields)
                except ValueError:
                    raise GraphError(f"{path}:{lineno}: expected 'u v' or "
                                     f"'#vertices N', got {line.strip()!r}") from None
                edges.append((u, v))
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read edge list {path}: {exc}") from None
    g = build_finite(edges)
    if declared is not None and declared != g.n_vertices:
        raise GraphError(f"header declares {declared} vertices, edge list spans {g.n_vertices}")
    return g
