"""Next-event simulation of the contact process on dynamical percolation graphs.

One simulation owns one replica. Edges are resolved lazily: an edge gets a
state only when it first becomes adjacent to the infection (drawn from the
stationary law), and an edge whose clocks went idle is advanced by the exact
two-state transition law on reactivation. Recoveries use the memoryless
property (one pending recovery per infected vertex). Every runner keys an
edge by its ``(min, max)`` vertex pair.

An edge updates at rate v and is redrawn open with probability p, so its
state is the two-state chain closed -> open at rate v p, open -> closed at
rate v (1 - p). ``Simulation`` runs every edge as such a chain, with rates
fixed by its variant when the edge's record is created: the explicit CPDG
background as above, wait-and-see with revealed as open (reveal at rate
lam p, unreveal at rate v), and no flips in the static-rate variants. Flips
are events, and an edge's infection clock runs only while the edge is open
and touches the infection: a tick that finds its edge closed or idle dies,
and a flip to open or a reactivation re-arms it. Both are exact by
memorylessness; together they schedule no tick on a closed edge and no
update that keeps an edge's state. The thinned CPDG background schedules
no flips; it ticks every active edge and resolves the edge at each tick.

Two families of runners live here:

* ``Simulation`` / ``run_replica`` - the production path (single fast RNG)
  for all four processes: the CPDG (explicit or thinned background), the
  static-rate ``penalised`` and ``lower_bound`` variants, and the dominating
  wait-and-see process. One event loop serves them; caps, tree-truncation
  censoring, root-reinfection records, ``target``, ``allowed`` and
  snapshots work alike for every variant.
* coupled runners (``run_coupled``, ``run_coupled_lambda``,
  ``run_waitandsee_dominating``) - a lower and an upper process driven by one
  realization of every clock of a small finite graph, Harris's graphical
  representation. A coupled run draws from one RNG stream, seeded once, in
  event order: ``_eager_setup`` realizes every edge's and vertex's first
  clock from time zero, and each event draws its successor and any coin it
  needs. All three share one event loop, ``_run_shared``, which renews the
  recovery, update and infection clocks, applies the caps, asserts
  containment after every event and builds both records; each runner
  supplies only its transmission rule for an infection tick.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .closedform import bg_transition, lower_bound_rate
from .graph import GraphView, TreeCapExceeded
from .kernels import KernelSpec, edge_law
from .rng import TAG_SIM, mix

# event kinds
UPDATE = 0
INFECT = 1
RECOVER = 2

# process variants
CPDG = "cpdg"
WAIT_AND_SEE = "wait_and_see"
PENALISED = "penalised"
LOWER_BOUND = "lower_bound"

# outcomes
EXTINCT = "extinct"
HORIZON = "horizon"
CAP = "cap"
TRUNCATED_TREE = "truncated_tree"
TARGET = "target"  # a designated vertex was infected


@dataclass(frozen=True)
class Caps:
    horizon: float
    max_infected: int = 1 << 30
    max_events: int = 1 << 62


@dataclass(frozen=True)
class TrajectoryRecord:
    outcome: str  # extinct | horizon | cap | truncated_tree
    time: float
    peak_infected: int
    total_events: int
    root_reinfections: tuple
    seed: int

    @property
    def extinct(self) -> bool:
        return self.outcome == EXTINCT


# edge record slots; in the wait-and-see process _OPEN means "revealed"
_OPEN = 0
_TIME = 1
_UP = 2  # flips tracked by events: a flip clock is pending or the state absorbs
_INF = 3  # infection clock scheduled
_P = 4
_V = 5
_TO_OPEN = 6  # flip rate closed -> open
_TO_CLOSED = 7  # flip rate open -> closed
_RATE = 8  # infection rate


class Simulation:
    """One replica of the CPDG, a static-rate variant or the wait-and-see process.

    Each active edge runs as a two-state chain: one flip clock, at the
    edge's open -> closed rate while open and its closed -> open rate while
    closed (none at rate 0, as out of an absorbing state), and an infection
    clock only while the edge is open. ``_edge_rates`` fixes the rates per
    variant. A flip that finds its edge idle (no infected end) applies and
    stops the edge's flip clock; an idle CPDG edge is caught up by the
    chain's transition law when it is next touched, and after extinction the
    pending flips still fire for later snapshots. ``total_events`` and
    ``Caps.max_events`` count the events processed, so no tick armed on a
    closed or idle edge and no update that keeps an edge's state. The
    thinned background keeps a rate-lam clock on every active edge and
    resolves the edge state at each tick.

    In the wait-and-see process an open edge is a revealed one. Every edge
    starts unrevealed; it reveals at rate lam * p(dx, dy), only while it
    touches the infection, and transmits as it does, so a reveal flip on an
    idle edge does not apply. A revealed edge unreveals at rate v(dx, dy)
    and carries a rate-lam infection clock while it touches the infection.
    """

    __slots__ = (
        "graph", "kernel", "lam", "variant", "caps", "seed",
        "infected", "edges", "clock", "done", "outcome", "peak",
        "events", "snapshots", "_queue", "_seq", "_rng", "_root",
        "_root_absent", "_reinf", "_allowed", "_thinned", "_has_bg", "_ws", "_target",
        "_horizon", "_max_events",
    )

    def __init__(self, graph: GraphView, kernel: KernelSpec, lam: float,
                 variant: str, init, caps: Caps, seed: int,
                 allowed=None, bg_mode: str = "explicit", target=None):
        if lam < 0:
            raise ValueError("infection rate must be >= 0")
        if bg_mode not in ("explicit", "thinned"):
            raise ValueError(f"unknown bg_mode {bg_mode!r}")
        if bg_mode == "thinned" and variant != CPDG:
            raise ValueError(f"bg_mode 'thinned' thins the background of variant {CPDG!r}; "
                             f"{variant!r} has none")
        self.graph = graph
        self.kernel = kernel
        self.lam = lam
        self.variant = variant
        self.caps = caps
        self.seed = seed
        self.infected = set()
        self.edges = {}
        self.clock = 0.0
        self.done = False
        self.outcome = None
        self.peak = 0
        self.events = 0
        self.snapshots = []
        self._queue = []
        self._seq = 0
        self._rng = random.Random(mix(seed, TAG_SIM))
        self._root = graph.root
        self._root_absent = False
        self._reinf = []
        self._allowed = allowed
        self._thinned = bg_mode == "thinned"
        self._has_bg = variant == CPDG
        self._ws = variant == WAIT_AND_SEE
        self._target = target
        self._horizon = caps.horizon
        self._max_events = caps.max_events
        for x in sorted(set(init)):
            self._infect(int(x), 0.0)
            if self.outcome == TRUNCATED_TREE:
                break
        if not self.infected and not self.done:
            self.done = True
            self.outcome = EXTINCT

    # -- internals ----------------------------------------------------------

    def _edge_rates(self, p: float, v: float) -> tuple:
        """(closed -> open, open -> closed, infection) rates of an edge of law (p, v)."""
        lam = self.lam
        if self.variant == CPDG:
            return v * p, v * (1.0 - p), lam
        if self.variant == WAIT_AND_SEE:
            return lam * p, v, lam
        if self.variant == PENALISED:
            return 0.0, 0.0, lam * p
        if self.variant == LOWER_BOUND:
            return 0.0, 0.0, lower_bound_rate(lam, v, p) if lam > 0 and p > 0 else 0.0
        raise ValueError(f"variant {self.variant!r} not supported by Simulation")

    def _infect(self, y: int, t: float):
        """Infect y at time t; a tree too small for its neighbourhood censors."""
        infected = self.infected
        infected.add(y)
        n = len(infected)
        if n > self.peak:
            self.peak = n
        if n > self.caps.max_infected:
            self.done = True
            self.outcome = CAP
            return
        if y == self._root and self._root_absent:
            self._reinf.append(t)
        if y == self._target:
            self.done = True
            self.outcome = TARGET
            return
        self._seq += 1
        heappush(self._queue, (t - math.log(self._rng.random()), self._seq, RECOVER, y, -1))
        try:
            self._activate_edges(y, t)
        except TreeCapExceeded:
            self.done = True
            self.outcome = TRUNCATED_TREE

    def _edge(self, x: int, y: int, key: tuple, t: float, catch_up: bool) -> list:
        """Record of edge {x, y} at time t.

        A new edge draws its state from the stationary law (it starts open
        in the static-rate variants and unrevealed in wait-and-see); with
        `catch_up`, a CPDG edge whose flips no event tracks (always so in
        thinned mode) is advanced to t by the exact two-state transition.
        """
        e = self.edges.get(key)
        if e is None:
            p, v = edge_law(self.kernel, self.graph.degree(x), self.graph.degree(y))
            is_open = (self._rng.random() < p) if self._has_bg else not self._ws
            e = [is_open, t, False, False, p, v, *self._edge_rates(p, v)]
            self.edges[key] = e
        elif catch_up and not e[_UP] and e[_TIME] < t:
            e[_OPEN] = self._rng.random() < bg_transition(e[_P], e[_V], e[_OPEN], t - e[_TIME])
            e[_TIME] = t
        return e

    def _activate_edges(self, x: int, t: float):
        rng = self._rng
        queue = self._queue
        allowed = self._allowed
        thinned = self._thinned
        catch_up = self._has_bg and not thinned
        for y in self.graph.neighbors(x):
            if allowed is not None and y not in allowed:
                continue
            key = (x, y) if x < y else (y, x)
            e = self._edge(x, y, key, t, catch_up)
            if not (thinned or e[_UP]):
                e[_UP] = True
                flip = e[_TO_CLOSED] if e[_OPEN] else e[_TO_OPEN]
                if flip > 0.0:
                    self._seq += 1
                    heappush(queue, (t - math.log(rng.random()) / flip,
                                     self._seq, UPDATE, key[0], key[1]))
            # an edge ticks only while open, unless its background is thinned
            if (e[_OPEN] or thinned) and e[_RATE] > 0.0 and not e[_INF]:
                e[_INF] = True
                self._seq += 1
                heappush(queue, (t - math.log(rng.random()) / e[_RATE],
                                 self._seq, INFECT, key[0], key[1]))

    # -- public stepping ------------------------------------------------------

    def step(self):
        """Process the earliest event. Returns its heap item (t, seq, kind, u, v),
        or None when done."""
        if self.done:
            return None
        queue = self._queue
        if not queue:
            # no infected vertices and no pending clocks
            self.done = True
            self.outcome = EXTINCT if not self.infected else HORIZON
            return None
        item = heappop(queue)
        t = item[0]
        if t >= self._horizon:
            self.clock = self._horizon
            self.done = True
            self.outcome = HORIZON
            return None
        self.clock = t
        self.events += 1
        if self.events > self._max_events:
            self.done = True
            self.outcome = CAP
            return None
        kind = item[2]
        u = item[3]
        infected = self.infected
        if kind == INFECT:
            v = item[4]
            e = self.edges[(u, v)]
            ui = u in infected
            vi = v in infected
            if not ((ui or vi) and (e[_OPEN] or self._thinned)):
                # the clock dies with the edge idle or, unless thinned, closed
                e[_INF] = False
                return item
            if self._thinned and e[_TIME] < t:
                e[_OPEN] = self._rng.random() < bg_transition(e[_P], e[_V], e[_OPEN], t - e[_TIME])
                e[_TIME] = t
            if e[_OPEN] and ui != vi:
                self._infect(v if ui else u, t)
            if not self.done:
                self._seq += 1
                heappush(queue, (t - math.log(self._rng.random()) / e[_RATE],
                                 self._seq, INFECT, u, v))
            return item
        if kind == RECOVER:
            infected.remove(u)
            if u == self._root:
                self._root_absent = True
            if not infected:
                self.done = True
                self.outcome = EXTINCT
            return item
        # UPDATE: the edge flips. An idle edge stops its flip clock, and a
        # wait-and-see reveal, which needs the infection beside it, does not
        # apply there; an edge touching the infection arms its next flip and,
        # now open, its infection clock, and a reveal transmits.
        v = item[4]
        e = self.edges[(u, v)]
        e[_TIME] = t
        ui = u in infected
        vi = v in infected
        if not (ui or vi):
            e[_OPEN] = not (self._ws or e[_OPEN])
            e[_UP] = False
            return item
        is_open = e[_OPEN] = not e[_OPEN]
        flip = e[_TO_CLOSED] if is_open else e[_TO_OPEN]
        if flip > 0.0:
            self._seq += 1
            heappush(queue, (t - math.log(self._rng.random()) / flip,
                             self._seq, UPDATE, u, v))
        if is_open:
            if e[_RATE] > 0.0 and not e[_INF]:
                e[_INF] = True
                self._seq += 1
                heappush(queue, (t - math.log(self._rng.random()) / e[_RATE],
                                 self._seq, INFECT, u, v))
            if self._ws and ui != vi:
                self._infect(v if ui else u, t)
        return item

    # -- state observation ----------------------------------------------------

    def resolve_edge_state(self, u: int, v: int, t: float) -> bool:
        """Open/closed state of edge {u, v} at time t (resolving lazily if needed)."""
        if not self._has_bg:
            return True
        return self._edge(u, v, (u, v) if u < v else (v, u), t, True)[_OPEN]

    def take_snapshot(self, t: float):
        """Record (t, infected frozenset, edge frozenset): the open edges of a
        finite graph in the CPDG, the revealed edges in wait-and-see, and no
        edges in the static-rate variants."""
        if self._ws:
            shown = frozenset(key for key, e in self.edges.items() if e[_OPEN])
        elif self._has_bg:
            shown = frozenset((u, v) for u, v in self.graph.edges()
                              if self.resolve_edge_state(u, v, t))
        else:
            shown = frozenset()
        self.snapshots.append((t, frozenset(self.infected), shown))

    # -- driving ----------------------------------------------------------------

    def run(self, snapshot_times=()) -> TrajectoryRecord:
        queue = self._queue
        horizon = self._horizon
        step = self.step
        # a snapshot is taken before any event at its own time
        snaps = [s for s in sorted(snapshot_times) if s <= horizon]
        taken = 0
        for t_snap in snaps:
            while queue and queue[0][0] < t_snap:
                if step() is None:
                    break
            if self.done:
                break
            self.take_snapshot(t_snap)
            taken += 1
        while step() is not None:
            pass
        if self.outcome == EXTINCT:
            # the background (the revealed set, in wait-and-see) keeps
            # evolving after extinction, and pending update times carry real
            # information (they are known to exceed the extinction time), so
            # drain them instead of resampling; other clocks no longer matter
            for t_snap in snaps[taken:]:
                while queue and queue[0][0] < t_snap:
                    t, _, kind, u, v = heappop(queue)
                    if kind == UPDATE:
                        e = self.edges[(u, v)]
                        # an idle flip, as in step: no reveal without infection
                        e[_OPEN] = not (self._ws or e[_OPEN])
                        e[_TIME] = t
                        e[_UP] = False
                self.take_snapshot(t_snap)
        time = self.clock if self.outcome != HORIZON else horizon
        return TrajectoryRecord(
            outcome=self.outcome, time=time, peak_infected=self.peak,
            total_events=self.events, root_reinfections=tuple(self._reinf),
            seed=self.seed,
        )


def run_replica(graph: GraphView, kernel: KernelSpec, lam: float, variant: str,
                init, caps: Caps, seed: int, allowed=None,
                bg_mode: str = "explicit", snapshot_times=(), target=None) -> TrajectoryRecord:
    """Run one replica to extinction or censoring; deterministic given seed."""
    sim = Simulation(graph, kernel, lam, variant, init, caps, seed,
                     allowed=allowed, bg_mode=bg_mode, target=target)
    return sim.run(snapshot_times=snapshot_times)


# ---------------------------------------------------------------------------
# eager set-up of a coupled run: every clock realized from time zero
# ---------------------------------------------------------------------------

class _CoupledEdge:
    __slots__ = ("open", "p", "v", "revealed", "b_used")

    def __init__(self, p, v, is_open):
        self.p = p
        self.v = v
        self.open = is_open
        self.revealed = False
        self.b_used = False


def _eager_setup(graph, kernel, random_, lam_clock):
    """Realize the clocks of a small finite graph from time zero.

    Draws from `random_` in a fixed order: per edge in sorted order its
    stationary state, first update and first infection tick, then each
    vertex's first recovery. Returns (queue, seq, edges): the heap of those
    clocks, the last sequence number used and the edge records keyed by (u, v).
    """
    queue = []
    seq = 0
    edges = {}
    degree = graph.degree
    for u, v in graph.edges():
        p, vv = edge_law(kernel, degree(u), degree(v))
        edges[(u, v)] = _CoupledEdge(p, vv, random_() < p)
        seq += 1
        heappush(queue, (-math.log(random_()) / vv, seq, UPDATE, u, v))
        if lam_clock > 0.0:
            seq += 1
            heappush(queue, (-math.log(random_()) / lam_clock, seq, INFECT, u, v))
    for x in range(graph.n_vertices):
        seq += 1
        heappush(queue, (-math.log(random_()), seq, RECOVER, x, -1))
    return queue, seq, edges


# ---------------------------------------------------------------------------
# coupled runners (shared graphical representation)
# ---------------------------------------------------------------------------

@dataclass
class _Tracker:
    """Per-process bookkeeping inside a coupled run."""

    infected: set
    root: int
    extinction_time: float = math.inf
    peak: int = 0
    root_absent: bool = False
    reinfections: list = field(default_factory=list)

    def add(self, y, t):
        self.infected.add(y)
        if len(self.infected) > self.peak:
            self.peak = len(self.infected)
        if y == self.root and self.root_absent:
            self.reinfections.append(t)

    def remove(self, x, t):
        if x in self.infected:
            self.infected.remove(x)
            if x == self.root:
                self.root_absent = True
            if not self.infected and self.extinction_time == math.inf:
                self.extinction_time = t

    def record(self, outcome, clock, events, seed):
        if self.extinction_time < math.inf:
            return TrajectoryRecord(EXTINCT, self.extinction_time, self.peak,
                                    events, tuple(self.reinfections), seed)
        return TrajectoryRecord(outcome, clock, self.peak, events,
                                tuple(self.reinfections), seed)


def _run_shared(graph, kernel, lam_clock, low_init, high_init, caps, seed, transmit):
    """Drive a lower and an upper process by one realization of the clocks.

    Every draw of the run comes from one stream, ``random.Random(mix(seed,
    TAG_SIM))``, in event order, and both processes read the same draws, so
    containment holds pathwise while each process keeps its own law.
    Recoveries and background updates act on both processes alike. On an
    infection tick of edge (u, v) at rate `lam_clock`, ``transmit(e, u, v,
    high, random_)`` reads the edge record `e`, the upper infected set and,
    for any coin it needs, the run's stream, and returns (low_uses,
    high_uses): whether the tick is a transmission attempt in each process,
    which then infects the healthy end of the edge if exactly one end is
    infected. Stops at extinction of the upper process, at the caps, or at
    the first event after which the lower infected set is not contained in
    the upper one. Returns (record_low, record_high, violation).
    """
    random_ = random.Random(mix(seed, TAG_SIM)).random
    queue, seq, edges = _eager_setup(graph, kernel, random_, lam_clock)
    low = _Tracker(infected=set(), root=graph.root)
    high = _Tracker(infected=set(), root=graph.root)
    for x in sorted(high_init):
        high.add(x, 0.0)
        if x in low_init:
            low.add(x, 0.0)
    violation = False
    events = 0
    clock = 0.0
    cl, ch = low.infected, high.infected
    while queue and ch and not violation:
        t, _, kind, u, v = heappop(queue)
        if t >= caps.horizon:
            clock = caps.horizon
            break
        clock = t
        events += 1
        if events > caps.max_events:
            break
        seq += 1
        if kind == RECOVER:
            heappush(queue, (t - math.log(random_()), seq, RECOVER, u, -1))
            low.remove(u, t)
            high.remove(u, t)
        elif kind == UPDATE:
            e = edges[(u, v)]
            e.open = random_() < e.p
            e.revealed = e.b_used = False  # a new background era
            heappush(queue, (t - math.log(random_()) / e.v, seq, UPDATE, u, v))
        else:
            e = edges[(u, v)]
            heappush(queue, (t - math.log(random_()) / lam_clock, seq, INFECT, u, v))
            low_uses, high_uses = transmit(e, u, v, ch, random_)
            if high_uses:
                ui = u in ch
                if ui != (v in ch):
                    high.add(v if ui else u, t)
            if low_uses:
                ui = u in cl
                if ui != (v in cl):
                    low.add(v if ui else u, t)
        violation = not cl <= ch
    outcome = HORIZON if clock >= caps.horizon else (CAP if events > caps.max_events else EXTINCT)
    return (low.record(outcome, clock, events, seed),
            high.record(outcome, clock, events, seed),
            violation)


def _open_rule(e, u, v, high, random_):
    """Both processes transmit across an open edge."""
    return e.open, e.open


def run_coupled(graph: GraphView, kernel: KernelSpec, lam: float,
                init_small, init_big, caps: Caps, seed: int):
    """Two CPDGs on one realized graphical representation, nested initial sets.

    Returns (record_small, record_big, violation) where violation reports any
    failure of the pathwise containment C_small(t) <= C_big(t).
    """
    small_set, big_set = set(init_small), set(init_big)
    if not small_set <= big_set:
        raise ValueError("init_small must be a subset of init_big")
    return _run_shared(graph, kernel, lam, small_set, big_set, caps, seed, _open_rule)


def run_coupled_lambda(graph: GraphView, kernel: KernelSpec, lam_small: float,
                       lam_big: float, init, caps: Caps, seed: int):
    """Two CPDGs sharing one event stream, the smaller rate thinned from the bigger."""
    if not 0.0 <= lam_small <= lam_big:
        raise ValueError("need 0 <= lam_small <= lam_big")
    ratio = lam_small / lam_big if lam_big > 0.0 else 0.0

    def thinned_rule(e, u, v, high, random_):
        # the small process keeps an open-edge tick with probability ratio
        if not e.open:
            return False, False
        return random_() < ratio, True

    init = set(init)
    return _run_shared(graph, kernel, lam_big, init, init, caps, seed, thinned_rule)


def _reveal_rule(e, u, v, cx, random_):
    """CPDG transmits across open edges, wait-and-see across revealed ones.

    An unrevealed edge touching the wait-and-see infection reveals on a tick
    of the full-rate clock, which thins it to rate lam * p: the decision
    reads the open state once per background era and independent coins
    afterwards, drawn from the run's stream.
    """
    if not e.revealed:
        if u not in cx and v not in cx:
            return e.open, False
        if e.b_used:
            decide = random_() < e.p
        else:
            decide = e.open
            e.b_used = True
        if not decide:
            return e.open, False
        e.revealed = True
    return e.open, True


def run_waitandsee_dominating(graph: GraphView, kernel: KernelSpec, lam: float,
                              init, caps: Caps, seed: int):
    """Couple a CPDG with the wait-and-see process on one shared stream.

    The wait-and-see side starts with every edge unrevealed and the same
    infected set; reveal decisions reuse the open/closed state the first time
    after each update and independent coins afterwards. Returns
    (record_cpdg, record_ws, violation) with violation reporting any failure
    of C(t) <= C_ws(t).
    """
    init = set(init)
    return _run_shared(graph, kernel, lam, init, init, caps, seed, _reveal_rule)
