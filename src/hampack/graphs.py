"""Core graph types: digraphs, bipartite graphs, permutations, cycles, 1-factors.

Vertices are the integers 1..n throughout; adjacency is stored sorted so that
every iteration order is deterministic.  Graph objects are immutable after
construction and safe to share between trials.

The bipartite-to-digraph bridge is the structural heart of the generator: a
bipartite graph B on X = {x_1..x_n}, Y = {y_1..y_n} together with a bijection
pi on [1..n] induces the digraph with an edge i -> pi(j) for every x_i y_j in
E(B), loops erased.  Perfect matchings of B then map to 1-regular spanning
subdigraphs, i.e. vertex-disjoint cycle covers.
"""

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, InvalidInputError

__all__ = [
    "Digraph",
    "BipartiteGraph",
    "Permutation",
    "Cycle",
    "OneFactor",
    "edge_arrays",
    "bipartite_to_digraph",
    "matching_to_one_factor",
    "is_heavy",
    "min_degree_vertices",
    "degree_profile",
]


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """An edge list as two index arrays (first ends, second ends).

    edges is an iterable of (a, b) pairs, or already a pair of integer
    index arrays, which is returned as it is.
    """
    if (isinstance(edges, tuple) and len(edges) == 2
            and all(isinstance(side, np.ndarray) for side in edges)):
        return edges
    pairs = list(edges)
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    except OverflowError:
        # such an index is out of range; keep Python ints so the range check names it
        flat = np.array(list(chain.from_iterable(pairs)), dtype=object)
    return flat[0::2], flat[1::2]


def _rows(n: int, keys: np.ndarray, values: np.ndarray) -> list[list[int]]:
    """values grouped into rows 0..n by keys, which must be sorted."""
    ends = np.cumsum(np.bincount(keys, minlength=n + 1)).tolist()
    flat = values.tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _build(n: int, edges, errors: tuple) -> tuple:
    """Validate an edge list and lay it out as sorted arrays and rows.

    errors holds the range, loop and duplicate messages (loop None when
    loops are allowed), formatted with the pair and n.  The first bad pair
    in input order is reported, checked for range, then loop, then
    duplicate (a pair equal to an earlier one).  Returns the edges sorted by
    (a, b) as two read-only int32 arrays, then the b's of each a and the a's
    of each b, as sorted lists indexed 0..n.
    """
    a, b = edge_arrays(edges)
    out_of_range = (a < 1) | (a > n) | (b < 1) | (b > n)
    loop = (a == b) if errors[1] else np.zeros(len(a), dtype=bool)
    # clipping keeps the key small; a clipped pair is out of range anyway
    key = (np.clip(a, 0, n + 1).astype(np.int64) * (n + 2)
           + np.clip(b, 0, n + 1).astype(np.int64))
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(a), dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = out_of_range | loop | repeat
    if bad.any():
        i = int(bad.argmax())
        message = errors[0] if out_of_range[i] else errors[1] if loop[i] else errors[2]
        raise InvalidInputError(message.format(int(a[i]), int(b[i]), n=n))
    # int32 halves the arrays' memory, which counts because every trial
    # report carries its final digraph
    a = a[order].astype(np.int32)
    b = b[order].astype(np.int32)
    a.flags.writeable = b.flags.writeable = False
    # b lies in 1..n; numpy sorts a 16-bit copy by radix, much faster
    by_b = np.argsort(b.astype(np.uint16) if n < 2 ** 16 else b, kind="stable")
    # the rows share one int object per vertex, not one per entry
    vertex = np.arange(n + 1, dtype=object)
    return a, b, _rows(n, a, vertex[b]), _rows(n, b[by_b], vertex[a[by_b]])


class _EdgeListText:
    """The text form shared by both graph types: a header line 'n m', then
    one 'a b' line per edge in the order edges() gives."""

    __slots__ = ()

    def to_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{a} {b}" for a, b in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        """Parse the text form; there must be as many edge lines as m says."""
        return cls(*_parse_edge_list(text))


class Digraph(_EdgeListText):
    """Simple directed graph on vertices 1..n (no loops, no parallel edges).

    edges is an iterable of (u, v) pairs or a (tails, heads) pair of integer
    index arrays.  tails and heads (int32) hold the edges in lexicographic
    order.
    """

    __slots__ = ("n", "tails", "heads", "out_adj", "in_adj", "_out_sets", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise DimensionError(f"vertex count must be nonnegative, got {n}")
        self.tails, self.heads, self.out_adj, self.in_adj = _build(n, edges, (
            "edge ({0},{1}) outside vertex range 1..{n}",
            "loop at vertex {0} not allowed",
            "duplicate edge ({0},{1})"))
        self.n = n
        self._out_sets = [frozenset(a) for a in self.out_adj]
        self.edge_count = len(self.tails)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._out_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in lexicographic order."""
        return zip(self.tails.tolist(), self.heads.tolist())

    def out_degree(self, u: int) -> int:
        return len(self.out_adj[u])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.tails, other.tails)
                and np.array_equal(self.heads, other.heads))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.edge_count})"


class BipartiteGraph(_EdgeListText):
    """Bipartite graph on X = {x_1..x_n} and Y = {y_1..y_n}.

    Edges are (x, y) index pairs, given as pairs or as an (xs, ys) pair of
    integer index arrays; xs and ys hold them sorted.  Both sides are
    indexed 1..n; the graph is balanced by construction.
    """

    __slots__ = ("n", "xs", "ys", "x_adj", "y_adj", "_x_sets", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise DimensionError(f"side size must be nonnegative, got {n}")
        self.xs, self.ys, self.x_adj, self.y_adj = _build(n, edges, (
            "edge (x{0},y{1}) outside index range 1..{n}",
            None,
            "duplicate edge (x{0},y{1})"))
        self.n = n
        self._x_sets = [frozenset(a) for a in self.x_adj]
        self.edge_count = len(self.xs)

    def has_edge(self, x: int, y: int) -> bool:
        return 1 <= x <= self.n and y in self._x_sets[x]

    def edges(self) -> Iterator[tuple[int, int]]:
        return zip(self.xs.tolist(), self.ys.tolist())

    def deg_x(self, x: int) -> int:
        return len(self.x_adj[x])

    def deg_y(self, y: int) -> int:
        return len(self.y_adj[y])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys))

    def __repr__(self) -> str:
        return f"BipartiteGraph(n={self.n}, m={self.edge_count})"


def _int_pair(line: str, form: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise InvalidInputError(f"{form}, got {line!r}")


def _parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise InvalidInputError("empty graph text")
    n, m = _int_pair(lines[0], "header must be 'n m' (two integers)")
    pairs = [_int_pair(ln, "edge line must be 'u v' (two integers)") for ln in lines[1:]]
    if len(pairs) != m:
        raise InvalidInputError(f"header claims {m} edges, file has {len(pairs)} lines")
    return n, pairs


class Permutation:
    """Bijection on [1..n], stored as the image tuple (image[i-1] = pi(i))."""

    __slots__ = ("image", "n")

    def __init__(self, image: Sequence[int]):
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise InvalidInputError("image is not a bijection on 1..n")
        self.image = tuple(image)
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def of(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition; each cycle starts at its minimum element,
        cycles listed by increasing minimum."""
        seen = [False] * (self.n + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.of(start)
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.of(j)
            out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image == other.image

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


class Cycle:
    """Directed cycle as an ordered vertex tuple in canonical form.

    Canonical form rotates the tuple so the minimum vertex comes first;
    traversal direction is preserved.  A length-1 cycle is a degenerate
    singleton and carries no edges (loops do not exist in our digraphs).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[int]):
        vs = list(vertices)
        if not vs:
            raise InvalidInputError("cycle must have at least one vertex")
        if len(set(vs)) != len(vs):
            raise InvalidInputError(f"repeated vertex in cycle {vs}")
        k = vs.index(min(vs))
        self.vertices = tuple(vs[k:] + vs[:k])

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Cycle{self.vertices}"

    def edges(self) -> list[tuple[int, int]]:
        """Consecutive edges including the wrap-around; empty for singletons."""
        vs = self.vertices
        if len(vs) == 1:
            return []
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def successor(self, v: int) -> int:
        i = self.vertices.index(v)
        return self.vertices[(i + 1) % len(self.vertices)]

    def path_from(self, start: int) -> tuple[int, ...]:
        """Vertex order of the cycle rotated to begin at start."""
        i = self.vertices.index(start)
        return self.vertices[i:] + self.vertices[:i]

    def path_ending_at(self, last: int) -> tuple[int, ...]:
        """Vertex order of the cycle rotated to end at last."""
        i = self.vertices.index(last)
        return self.vertices[i + 1:] + self.vertices[:i + 1]


class OneFactor:
    """Spanning union of vertex-disjoint cycles covering 1..n.

    Cycles are stored longest first (ties by minimum vertex) so the first
    entry is always a maximum-length cycle; this is the order downstream
    merge procedures consume.
    """

    __slots__ = ("n", "cycles", "vertex_to_cycle")

    def __init__(self, n: int, cycles: Iterable[Cycle]):
        cyc = sorted(cycles, key=lambda c: (-len(c), c.vertices[0]))
        covered: dict[int, int] = {}
        for idx, c in enumerate(cyc):
            for v in c.vertices:
                if v in covered:
                    raise InvalidInputError(f"vertex {v} appears in two cycles")
                if not (1 <= v <= n):
                    raise InvalidInputError(f"vertex {v} outside 1..{n}")
                covered[v] = idx
        if len(covered) != n:
            missing = sorted(set(range(1, n + 1)) - set(covered))
            raise InvalidInputError(f"cycles do not cover all vertices; missing {missing}")
        self.n = n
        self.cycles = tuple(cyc)
        self.vertex_to_cycle = covered

    def __len__(self) -> int:
        return len(self.cycles)

    def edges(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for c in self.cycles:
            out.extend(c.edges())
        return out

    def singleton_count(self) -> int:
        return sum(1 for c in self.cycles if len(c) == 1)

    def __repr__(self) -> str:
        return f"OneFactor(n={self.n}, cycles={[len(c) for c in self.cycles]})"


def bipartite_to_digraph(bipartite: BipartiteGraph, pi: Permutation) -> Digraph:
    """Induced digraph: edge i -> pi(j) for each x_i y_j, loops erased.

    pi is a bijection, so distinct bipartite edges at x_i map to distinct
    heads; no parallel edges can arise.  Edges with pi(j) = i are dropped.
    """
    if bipartite.n != pi.n:
        raise DimensionError(f"graph has n={bipartite.n} but permutation has n={pi.n}")
    image = np.fromiter(pi.image, np.int64, pi.n)
    heads = image[bipartite.ys - 1]
    keep = heads != bipartite.xs
    return Digraph(bipartite.n, (bipartite.xs[keep], heads[keep]))


def matching_to_one_factor(n: int, matching: Sequence[int], pi: Permutation) -> OneFactor:
    """1-factor induced by a perfect matching under the bijection pi.

    matching[x-1] = y gives the matched partner of x_x.  The digraph image
    of the matching is the functional graph of x -> pi(matching(x)); its
    cycle decomposition is the 1-factor.  Fixed points of the composition
    (loops, which the digraph erases) become degenerate length-1 cycles.
    """
    if len(matching) != n or pi.n != n:
        raise DimensionError("matching, permutation and n must agree")
    composed = Permutation([pi.of(matching[x - 1]) for x in range(1, n + 1)])
    return OneFactor(n, (Cycle(c) for c in composed.cycles()))


def is_heavy(v: int, block: Sequence[int], c: float, digraph: Digraph) -> bool:
    """Whether v has at least c*|block| out- or in-neighbors inside block.

    block is a vertex subset containing v; neighbor counts are taken in the
    given digraph.  The boundary case counts: exactly c*|block| neighbors
    is heavy.
    """
    bset = set(block)
    if v not in bset:
        raise InvalidInputError(f"vertex {v} not in the block")
    threshold = c * len(bset)
    out_in = sum(1 for u in digraph.out_adj[v] if u in bset)
    if out_in >= threshold:
        return True
    in_in = sum(1 for u in digraph.in_adj[v] if u in bset)
    return in_in >= threshold


def min_degree_vertices(bipartite: BipartiteGraph) -> tuple[int, int]:
    """Lowest-index minimum-degree vertex on each side, as (x_index, y_index)."""
    if bipartite.n == 0:
        raise DimensionError("empty graph has no minimum-degree vertex")
    degs_x = [bipartite.deg_x(x) for x in range(1, bipartite.n + 1)]
    degs_y = [bipartite.deg_y(y) for y in range(1, bipartite.n + 1)]
    x_min = degs_x.index(min(degs_x)) + 1
    y_min = degs_y.index(min(degs_y)) + 1
    return (x_min, y_min)


def degree_profile(digraph: Digraph) -> dict:
    """Degree summary: min out, min in, min of per-vertex two-sided minima.

    Returns {"delta_out", "delta_in", "delta_pm", "per_vertex"} where
    per_vertex[v-1] = min(out_degree(v), in_degree(v)).  For a digraph the
    two-sided minimum equals min(delta_out, delta_in).
    """
    if digraph.n == 0:
        raise DimensionError("empty digraph has no degree profile")
    outs = [digraph.out_degree(v) for v in range(1, digraph.n + 1)]
    ins = [digraph.in_degree(v) for v in range(1, digraph.n + 1)]
    per_vertex = [min(o, i) for o, i in zip(outs, ins)]
    return {
        "delta_out": min(outs),
        "delta_in": min(ins),
        "delta_pm": min(per_vertex),
        "per_vertex": per_vertex,
    }
