"""r-factors and edge-disjoint perfect matchings in bipartite graphs.

Two independent routes decide whether a balanced bipartite graph contains an
r-factor (an r-regular spanning subgraph):

* a brute-force counting check of the classical condition
  e(A, B) >= r (|A| + |B| - n) over all vertex subset pairs, feasible for
  n <= 6, kept as an oracle;
* a max-flow construction (source -> X at capacity r, unit capacities across
  the bipartition, Y -> sink at capacity r) whose saturation is equivalent
  to the existence of an r-factor and which also produces one.

An r-factor splits into r edge-disjoint perfect matchings by repeatedly
extracting a perfect matching and removing it; regularity is preserved at
each step, so the extraction never gets stuck.  All augmenting searches run
in lowest-index-first order, making every output deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, Failure, InvalidInputError, SizeError
from .graphs import BipartiteGraph

__all__ = [
    "MatchingFamily",
    "gale_ryser_bruteforce",
    "find_r_factor",
    "decompose_regular",
    "find_delta_matchings",
]

GALE_RYSER_MAX_N = 6


@dataclass(frozen=True)
class MatchingFamily:
    """Edge-disjoint perfect matchings, each stored as a partner array.

    matchings[i][x-1] = y means matching i pairs x_x with y_y.  Every
    matching is a bijection and no ordered pair repeats across matchings.
    """

    n: int
    matchings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for m in self.matchings:
            if sorted(m) != list(range(1, self.n + 1)):
                raise InvalidInputError(f"matching {m} is not a bijection on 1..{self.n}")
            for x, y in enumerate(m, start=1):
                if (x, y) in seen:
                    raise InvalidInputError(f"edge (x{x},y{y}) repeats across matchings")
                seen.add((x, y))

    def __len__(self) -> int:
        return len(self.matchings)

    def edges(self, i: int) -> list[tuple[int, int]]:
        return [(x, y) for x, y in enumerate(self.matchings[i], start=1)]

    def all_edges(self) -> set[tuple[int, int]]:
        return {(x, y) for m in self.matchings for x, y in enumerate(m, start=1)}

    def to_json(self) -> list[list[int]]:
        return [list(m) for m in self.matchings]


def _gale_ryser_violation(bipartite: BipartiteGraph, r: int):
    """First (A, B) subset pair violating e(A,B) >= r(|A|+|B|-n), or None.

    Subset pairs are scanned in increasing bitmask order, so the witness is
    deterministic.
    """
    n = bipartite.n
    ymask = [0] * (n + 1)
    for x in range(1, n + 1):
        for y in bipartite.x_adj[x]:
            ymask[x] |= 1 << (y - 1)
    for amask in range(1 << n):
        rows = [x for x in range(1, n + 1) if amask >> (x - 1) & 1]
        for bmask in range(1 << n):
            size_b = bin(bmask).count("1")
            cross = sum(bin(ymask[x] & bmask).count("1") for x in rows)
            if cross < r * (len(rows) + size_b - n):
                a = tuple(rows)
                b = tuple(y for y in range(1, n + 1) if bmask >> (y - 1) & 1)
                return (a, b)
    return None


def gale_ryser_bruteforce(bipartite: BipartiteGraph, r: int) -> bool:
    """Exhaustive r-factor existence check; only for n <= 6.

    r beyond n is permitted; the counting condition itself rules it out
    (take A = X, B = Y).
    """
    if bipartite.n > GALE_RYSER_MAX_N:
        raise SizeError(f"brute-force check limited to n <= {GALE_RYSER_MAX_N}, got {bipartite.n}")
    if r < 0:
        raise InvalidInputError(f"need r >= 0, got r={r}")
    return _gale_ryser_violation(bipartite, r) is None


class _Dinic:
    """Max flow with deterministic lowest-index augmenting order."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.num_nodes
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            ptr = [0] * self.num_nodes

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while ptr[u] < len(self.head[u]):
                    idx = self.head[u][ptr[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    ptr[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed


def find_r_factor(bipartite: BipartiteGraph, r: int):
    """An r-factor of the graph as a BipartiteGraph, or None if none exists.

    Built from the flow network source -> X (capacity r), unit edges across
    the bipartition, Y -> sink (capacity r); a flow of value r*n saturates
    exactly the arcs of an r-factor.
    """
    n = bipartite.n
    if r < 0:
        raise InvalidInputError(f"need r >= 0, got r={r}")
    if r > n:
        return None
    if r == 0:
        return BipartiteGraph(n, [])
    source, sink = 0, 2 * n + 1
    net = _Dinic(2 * n + 2)
    for x in range(1, n + 1):
        net.add_edge(source, x, r)
    # the cross arcs, in the graph's sorted edge order, sit at every other
    # index from here
    first = len(net.to)
    for x, y in bipartite.edges():
        net.add_edge(x, n + y, 1)
    for y in range(1, n + 1):
        net.add_edge(n + y, sink, r)
    if net.max_flow(source, sink) != r * n:
        return None
    saturated = np.array(net.cap[first:first + 2 * bipartite.edge_count:2]) == 0
    return BipartiteGraph(n, (bipartite.xs[saturated], bipartite.ys[saturated]))


def _perfect_matching(n: int, adj: list[list[int]]):
    """Hopcroft-Karp perfect matching on mutable adjacency, or None.

    adj[x] lists the neighbors of x in ascending order; scanning is always
    lowest index first.
    """
    INF = float("inf")
    match_x = [0] * (n + 1)
    match_y = [0] * (n + 1)
    dist = [INF] * (n + 1)

    def bfs() -> bool:
        queue = []
        for x in range(1, n + 1):
            if match_x[x] == 0:
                dist[x] = 0
                queue.append(x)
            else:
                dist[x] = INF
        found = False
        for x in queue:
            for y in adj[x]:
                nx = match_y[y]
                if nx == 0:
                    found = True
                elif dist[nx] is INF:
                    dist[nx] = dist[x] + 1
                    queue.append(nx)
        return found

    def dfs(root: int) -> bool:
        # augmenting-path search on an explicit stack of (vertex, neighbour
        # scan) frames, so that a long path cannot overflow Python's stack
        stack = [(root, iter(adj[root]))]
        while stack:
            x, scan = stack[-1]
            want = dist[x] + 1
            for y in scan:
                nx = match_y[y]
                if nx == 0:
                    # flip the path: each vertex passes its old partner
                    # to the vertex below it
                    for x, _ in reversed(stack):
                        match_y[y] = x
                        match_x[x], y = y, match_x[x]
                    return True
                if dist[nx] == want:
                    stack.append((nx, iter(adj[nx])))
                    break
            else:
                dist[x] = INF
                stack.pop()
        return False

    matched = 0
    while bfs():
        for x in range(1, n + 1):
            if match_x[x] == 0 and dfs(x):
                matched += 1
    if matched != n:
        return None
    return tuple(match_x[1:])


def decompose_regular(regular: BipartiteGraph, r: int) -> MatchingFamily:
    """Split an r-regular bipartite graph into r edge-disjoint perfect matchings.

    The input must be exactly r-regular on both sides.  Matchings are
    extracted one at a time; each extraction leaves an (r-1)-regular graph,
    so a perfect matching always exists.  The union of the outputs is
    exactly the input edge set.
    """
    n = regular.n
    for x in range(1, n + 1):
        if regular.deg_x(x) != r:
            raise InvalidInputError(f"x{x} has degree {regular.deg_x(x)}, expected {r}")
    for y in range(1, n + 1):
        if regular.deg_y(y) != r:
            raise InvalidInputError(f"y{y} has degree {regular.deg_y(y)}, expected {r}")
    adj = [list(regular.x_adj[x]) for x in range(n + 1)]
    matchings = []
    for _ in range(r):
        m = _perfect_matching(n, adj)
        if m is None:
            raise InvalidInputError("extraction stuck; input was not regular")
        for x, y in enumerate(m, start=1):
            adj[x].remove(y)
        matchings.append(m)
    assert all(not a for a in adj[1:])
    return MatchingFamily(n, tuple(matchings))


def find_delta_matchings(bipartite: BipartiteGraph, x_plus: int, y_minus: int):
    """delta edge-disjoint perfect matchings, delta = the smaller of the two
    designated degrees.

    Returns (delta, MatchingFamily) when a delta-factor exists (delta = 0
    succeeds trivially with an empty family), else (delta, Failure) where
    the failure carries a violating subset pair when n is small enough to
    search for one exhaustively.
    """
    n = bipartite.n
    if not (1 <= x_plus <= n and 1 <= y_minus <= n):
        raise DimensionError(f"designated vertices ({x_plus},{y_minus}) outside 1..{n}")
    delta = min(bipartite.deg_x(x_plus), bipartite.deg_y(y_minus))
    if delta == 0:
        return 0, MatchingFamily(n, ())
    factor = find_r_factor(bipartite, delta)
    if factor is None:
        detail: dict = {"delta": delta}
        if n <= GALE_RYSER_MAX_N:
            witness = _gale_ryser_violation(bipartite, delta)
            if witness is not None:
                detail["witness"] = [list(witness[0]), list(witness[1])]
        return delta, Failure("matchings", detail)
    return delta, decompose_regular(factor, delta)
