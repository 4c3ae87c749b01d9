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
each step, so the extraction never gets stuck.

Every output is fixed by a lowest-index-first order: Dinic's blocking flow
(Dinic, 1970) with arcs tried by ascending index for the factor, and
Hopcroft-Karp (1973) with neighbours scanned ascending for each matching.
Both algorithms do almost all of their work in their first phase, and in
that phase the order pins the result down to a plain greedy pass: each x in
turn takes its lowest ys that still have room.  Both routines run their
first phase as that pass, and later phases on flat per-vertex state with
searches on explicit stacks, so that a long augmenting path cannot
overflow Python's stack.  Their BFS layers are distances, which do not
depend on the order the BFS visits vertices in, so a BFS may stop once the
rest of it cannot change anything the search reads.
"""

from dataclasses import dataclass
from itertools import accumulate

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
        n = self.n
        # the first matching that is not a bijection; no edge may repeat
        # before it
        bad = next((i for i, m in enumerate(self.matchings)
                    if sorted(m) != list(range(1, n + 1))), len(self.matchings))
        if bad:
            # edge (x, y) as the key x (n + 1) + y, in (matching, x) order
            keys = (np.arange(1, n + 1) * (n + 1) + np.array(self.matchings[:bad])).ravel()
            first = np.zeros(keys.size, dtype=bool)
            first[np.unique(keys, return_index=True)[1]] = True
            if not first.all():
                i = int(first.argmin())
                raise InvalidInputError(
                    f"edge (x{i % n + 1},y{keys[i] % (n + 1)}) repeats across matchings")
        if bad < len(self.matchings):
            raise InvalidInputError(
                f"matching {self.matchings[bad]} is not a bijection on 1..{n}")

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


def _row_starts(rows: list[list[int]]) -> list[int]:
    """Where each row starts when the rows are laid end to end: row v is
    positions starts[v] .. starts[v + 1] - 1."""
    return list(accumulate(map(len, rows), initial=0))


def find_r_factor(bipartite: BipartiteGraph, r: int):
    """An r-factor of the graph as a BipartiteGraph, or None if none exists.

    The factor is the saturated cross arcs of a maximum flow in the network
    source -> x (capacity r), x -> y (capacity 1) for each edge, y -> sink
    (capacity r): a flow of value r*n exists exactly when an r-factor does.

    The flow is Dinic's, with each phase's blocking flow found by a
    depth-first search that tries the source's arcs by ascending x, each
    x's arcs by ascending y, and each y's back arcs (to the xs that send it
    flow) by ascending x before its arc to the sink.  Every augmenting path
    carries one unit, and within a phase an arc that stops being admissible
    never becomes admissible again, so a phase's augmenting paths are, one
    after another, the first admissible path in that order.

    In the first phase every x is at level 1, every y at level 2, the sink
    at 3 and no back arc is admissible, so every path is source -> x -> y
    -> sink and the blocking flow is: each x in turn takes its lowest ys
    that still have room at the sink, up to r.  That phase runs as a plain
    loop.  Each later phase builds its levels by BFS, stopping at the sink's
    level (no admissible path runs through a vertex at or past it), and
    finds its paths with an explicit stack whose per-vertex pointers move
    exactly where a recursive search's would.
    """
    n = bipartite.n
    if r < 0:
        raise InvalidInputError(f"need r >= 0, got r={r}")
    if r > n:
        return None
    if r == 0:
        return BipartiteGraph(n, [])
    x_adj, y_adj = bipartite.x_adj, bipartite.y_adj
    # edges are numbered in the graph's sorted (x, y) order, so x's j-th
    # edge is first_x[x] + j; flow[e] is 1 on an edge that carries flow
    first_x = _row_starts(x_adj)
    flow = bytearray(bipartite.edge_count)
    sent = [0] * (n + 1)
    room = [0] + [r] * n

    for x in range(1, n + 1):
        took = 0
        for e, y in enumerate(x_adj[x], first_x[x]):
            if room[y]:
                room[y] -= 1
                flow[e] = 1
                took += 1
                if took == r:
                    break
        sent[x] = took
    total = sum(sent)

    if total < r * n:
        # y's j-th back arc, to its j-th lowest neighbour, is the edge
        # back[first_y[y] + j]
        back = memoryview(np.argsort(bipartite.ys, kind="stable"))
        first_y = _row_starts(y_adj)

    def layers():
        # BFS levels of the residual network from the source: x -> y over an
        # edge without flow, y -> x back over one with flow; -1 = unreached
        level_x = [-1] * (n + 1)
        level_y = [-1] * (n + 1)
        frontier = [x for x in range(1, n + 1) if sent[x] < r]
        for x in frontier:
            level_x[x] = 1
        level = 1
        while frontier:
            level += 1
            reached = []
            for x in frontier:
                for e, y in enumerate(x_adj[x], first_x[x]):
                    if level_y[y] < 0 and not flow[e]:
                        level_y[y] = level
                        reached.append(y)
            if any(room[y] for y in reached):
                return level_x, level_y, level + 1
            level += 1
            frontier = []
            for y in reached:
                for j, x in enumerate(y_adj[y], first_y[y]):
                    if level_x[x] < 0 and flow[back[j]]:
                        level_x[x] = level
                        frontier.append(x)
        return None

    def augment(root: int) -> bool:
        # push one unit along the first admissible path from root; path
        # holds x, y, x, y, ..., and each arc on it is the one at its tail's
        # pointer: x's index into x_adj[x], y's into y_adj[y] (its degree
        # standing for the sink arc)
        path = [root]
        while path:
            if len(path) & 1:
                x = path[-1]
                row, j, want = x_adj[x], ptr_x[x], level_x[x] + 1
                base, deg = first_x[x], len(row)
                while j < deg and (flow[base + j] or level_y[row[j]] != want):
                    j += 1
                ptr_x[x] = j
                if j < deg:
                    path.append(row[j])
                    continue
            else:
                y = path[-1]
                row, j, want = y_adj[y], ptr_y[y], level_y[y] + 1
                base, deg = first_y[y], len(row)
                while j < deg and (not flow[back[base + j]] or level_x[row[j]] != want):
                    j += 1
                ptr_y[y] = j
                if j < deg:
                    path.append(row[j])
                    continue
                if room[y] and want == sink_level:
                    sent[root] += 1
                    room[y] -= 1
                    for x in path[0::2]:
                        flow[first_x[x] + ptr_x[x]] = 1
                    for y in path[1:-1:2]:
                        flow[back[first_y[y] + ptr_y[y]]] = 0
                    return True
            # a dead end: its parent moves past the arc into it
            path.pop()
            if path:
                ptr = ptr_x if len(path) & 1 else ptr_y
                ptr[path[-1]] += 1
        return False

    while total < r * n:
        found = layers()
        if found is None:
            return None
        level_x, level_y, sink_level = found
        ptr_x = [0] * (n + 1)
        ptr_y = [0] * (n + 1)
        for root in range(1, n + 1):
            if level_x[root] == 1:
                while sent[root] < r and augment(root):
                    total += 1
    used = np.frombuffer(flow, dtype=bool)
    return BipartiteGraph(n, (bipartite.xs[used], bipartite.ys[used]))


def _hopcroft_karp(n: int, adj: list[list[int]]):
    """Hopcroft-Karp perfect matching of a regular graph as a partner tuple.

    adj[x] lists x's neighbours in ascending order, at least one each, and
    every search scans them lowest first.  None if there is no perfect
    matching, which a regular graph always has.

    In the first phase every x is free, so every BFS distance is 0: each
    search takes the root's lowest free y or fails at once, and the phase
    is a greedy pass.  A later BFS stops once every x has its distance,
    since the rest of it could change neither a distance nor whether it
    reaches a free y: it does, as every free y has a neighbour, all reached.
    """
    INF = float("inf")
    match_x = [0] * (n + 1)
    match_y = [0] * (n + 1)

    def bfs():
        dist = [INF] * (n + 1)
        queue = [x for x in range(1, n + 1) if match_x[x] == 0]
        for x in queue:
            dist[x] = 0
        found = False
        for x in queue:
            if len(queue) == n:
                return True, dist
            d = dist[x] + 1
            for y in adj[x]:
                nx = match_y[y]
                if nx == 0:
                    found = True
                elif dist[nx] is INF:
                    dist[nx] = d
                    queue.append(nx)
        return found, dist

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
    for x in range(1, n + 1):
        for y in adj[x]:
            if not match_y[y]:
                match_y[y], match_x[x] = x, y
                matched += 1
                break
    while matched < n:
        found, dist = bfs()
        if not found:
            return None
        for x in range(1, n + 1):
            if match_x[x] == 0 and dfs(x):
                matched += 1
    return tuple(match_x[1:])


def decompose_regular(regular: BipartiteGraph, r: int) -> MatchingFamily:
    """Split an r-regular bipartite graph into r edge-disjoint perfect matchings.

    The input must be exactly r-regular on both sides.  Matchings are
    extracted one at a time by _hopcroft_karp, each from what the earlier
    ones left; each extraction leaves an (r-1)-regular graph, so a perfect
    matching always exists.  The union of the outputs is exactly the input
    edge set.
    """
    n = regular.n
    for x in range(1, n + 1):
        if regular.deg_x(x) != r:
            raise InvalidInputError(f"x{x} has degree {regular.deg_x(x)}, expected {r}")
    for y in range(1, n + 1):
        if regular.deg_y(y) != r:
            raise InvalidInputError(f"y{y} has degree {regular.deg_y(y)}, expected {r}")
    adj = [list(row) for row in regular.x_adj]
    matchings = []
    for _ in range(r):
        m = _hopcroft_karp(n, adj)
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
