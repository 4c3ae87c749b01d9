"""Edge-exposure machinery: derived probabilities, exposure rounds, audit.

A target edge density p is split across two exposure rounds on the bipartite
side, (1-p0)(1-p1) = 1-p, with the second-round rate p1 = sqrt(p/(n log^4 n)),
and a per-attempt rate q = sqrt(p/(n log^8 n)) = p1/log^2 n used by all later
online exposures.  As long as an individual edge is attempted no more than
log^2 n times, the accumulated attempt probability stays below p1, so the
generated digraph is stochastically dominated by the binomial model at
density p.  The ledger records every attempt so this budget can be audited
after the fact; violations are flagged, never discarded.

All logarithms are natural.

Strict mode enforces the analytical validity window
log^15 n / n <= p <= 8^8 / (2 (9e)^9) and rejects anything outside it; at
small n that window is empty, which strict mode reports as a parameter-range
error.  Practical mode accepts any p in [0, 1] and clamps derived
probabilities into [0, 1], recording which ones were clamped.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InvalidInputError, ParameterRangeError
from .graphs import BipartiteGraph, Digraph
from .rng import SeededRng

__all__ = [
    "EPSILON_DENSITY",
    "Params",
    "derive_parameters",
    "ExposureLedger",
    "expose",
    "expose_many",
    "first_exposure",
    "second_exposure",
    "AvailableEdgeSet",
    "init_available_edges",
    "coupling_audit",
]

# upper edge of the valid density window: 8^8 / (2 * (9e)^9)
EPSILON_DENSITY = 8.0 ** 8 / (2.0 * (9.0 * math.e) ** 9)

MODES = ("practical", "strict")


@dataclass(frozen=True)
class Params:
    """Derived exposure parameters for one (n, p) instance."""

    n: int
    p: float
    p0: float
    p1: float
    q: float
    mode: str
    p0_raw: float
    p1_raw: float
    q_raw: float
    clamped: tuple[str, ...]
    epsilon: float = EPSILON_DENSITY

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "p0": self.p0,
            "p1": self.p1,
            "q": self.q,
            "mode": self.mode,
            "p0_raw": self.p0_raw,
            "p1_raw": self.p1_raw,
            "q_raw": self.q_raw,
            "clamped": list(self.clamped),
            "epsilon": self.epsilon,
        }


def strict_density_window(n: int) -> tuple[float, float]:
    """Valid [low, high] density window for strict mode at this n."""
    low = math.log(n) ** 15 / n
    return (low, EPSILON_DENSITY)


def derive_parameters(n: int, p: float, mode: str = "practical") -> Params:
    """Split the density p into the two-round rates p0, p1 and the rate q.

    Requires n >= 5 and 0 <= p <= 1.  Strict mode additionally requires p
    inside the validity window, which is empty until n is astronomically
    large; it exists so the analytical regime is honestly represented, not
    because it can run at desk scale.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 5:
        raise ParameterRangeError(f"need n >= 5, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ParameterRangeError(f"p must lie in [0, 1], got {p}")
    if mode == "strict":
        low, high = strict_density_window(n)
        if not (low <= p <= high):
            raise ParameterRangeError(
                f"strict mode requires log^15(n)/n <= p <= {high:.6g}; "
                f"at n={n} the window is [{low:.6g}, {high:.6g}] and p={p} is outside it"
            )
    ln = math.log(n)
    p1_raw = math.sqrt(p / (n * ln ** 4))
    q_raw = math.sqrt(p / (n * ln ** 8))
    # solves (1-p0)(1-p1) = 1-p exactly for the unclamped p1
    p0_raw = (p - p1_raw) / (1.0 - p1_raw) if p1_raw < 1.0 else 1.0
    clamped = []
    vals = {}
    for name, raw in (("p0", p0_raw), ("p1", p1_raw), ("q", q_raw)):
        v = raw
        if v < 0.0 or v > 1.0:
            v = min(1.0, max(0.0, v))
            clamped.append(name)
        vals[name] = v
    if clamped and mode == "strict":
        raise ParameterRangeError(f"derived probabilities out of [0,1] in strict mode: {clamped}")
    return Params(
        n=n, p=float(p), p0=vals["p0"], p1=vals["p1"], q=vals["q"], mode=mode,
        p0_raw=p0_raw, p1_raw=p1_raw, q_raw=q_raw, clamped=tuple(clamped),
    )


class ExposureLedger:
    """Per-edge attempt and success counts for all online exposures.

    attempts is a Counter: attempts[(u, v)] counts every Bernoulli attempt
    on the ordered pair, across every procedure and retry of a trial, and
    an edge listed twice in one batch counts twice.  successes holds the
    pairs that succeeded at least once; they are part of the generated
    digraph whether or not any cycle ended up using them.
    """

    def __init__(self) -> None:
        self.attempts: Counter[tuple[int, int]] = Counter()
        self.successes: set[tuple[int, int]] = set()
        self.total_attempts = 0
        self.total_successes = 0

    def record_many(self, edges: list[tuple[int, int]], hits: list[tuple[int, int]]) -> None:
        """Record one attempt on each of edges, of which hits succeeded."""
        self.attempts.update(edges)
        self.total_attempts += len(edges)
        self.successes.update(hits)
        self.total_successes += len(hits)

    def max_attempts(self) -> int:
        return max(self.attempts.values(), default=0)


def expose_many(edges: list[tuple[int, int]], prob: float, ledger: ExposureLedger,
                rng: SeededRng) -> list[tuple[int, int]]:
    """One recorded Bernoulli(prob) attempt on each ordered edge, as one batch.

    Returns the successful edges in list order.  The edges are drawn in list
    order from one array draw; since the stream yields the same doubles in
    bulk as one at a time, and a step's pool does not change while its
    edges are drawn, this equals exposing the edges one by one.
    """
    hits = list(compress(edges, rng.bernoulli_many(len(edges), prob)))
    ledger.record_many(edges, hits)
    return hits


def expose(edge: tuple[int, int], prob: float, ledger: ExposureLedger, rng: SeededRng) -> bool:
    """One recorded Bernoulli(prob) attempt on an ordered edge."""
    return bool(expose_many([edge], prob, ledger, rng))


def first_exposure(n: int, p0: float, rng: SeededRng) -> BipartiteGraph:
    """Round one: every (x, y) pair appears independently with probability p0.

    Pairs are drawn in row-major order (x outer, y inner), one draw each.
    """
    if n < 1:
        raise ParameterRangeError(f"need n >= 1, got {n}")
    xs, ys = rng.bernoulli_matrix(n, n, p0).nonzero()
    return BipartiteGraph(n, (xs + 1, ys + 1))


def second_exposure(b_prime: BipartiteGraph, x_plus: int, y_minus: int,
                    p1: float, rng: SeededRng) -> BipartiteGraph:
    """Round two: re-expose the row of x_plus and the column of y_minus.

    Each pair touching x_plus or y_minus that is not already present gets one
    Bernoulli(p1) draw; present edges are kept as is (union semantics, no
    re-draw).  The shared pair (x_plus, y_minus) is drawn at most once.
    Draw order: the full row y = 1..n, then the column x = 1..n skipping
    x_plus.  The absent pairs are drawn in that order as one batch.
    """
    n = b_prime.n
    if not (1 <= x_plus <= n and 1 <= y_minus <= n):
        raise InvalidInputError(f"designated vertices ({x_plus},{y_minus}) outside 1..{n}")
    # masks over 0..n rather than a list of pair tuples: no allocation per pair
    row = np.ones(n + 1, dtype=bool)
    row[[0, *b_prime.x_adj[x_plus]]] = False
    col = np.ones(n + 1, dtype=bool)
    col[[0, x_plus, *b_prime.y_adj[y_minus]]] = False
    ys, xs = row.nonzero()[0], col.nonzero()[0]
    hits = rng.bernoulli_matrix(1, len(ys) + len(xs), p1)[0]
    ys, xs = ys[hits[:len(ys)]], xs[hits[len(ys):]]
    if not len(ys) + len(xs):
        return b_prime
    return BipartiteGraph(n, (np.concatenate([b_prime.xs, np.full(len(ys), x_plus), xs]),
                              np.concatenate([b_prime.ys, ys, np.full(len(xs), y_minus)])))


class AvailableEdgeSet:
    """The shrinking pool of ordered pairs still available for exposure.

    A rule plus the removals: a pair (u, v) in 1..n is available when
    u != v, u != x_plus (the protected source), v != target (the protected
    target), (u, v) is not an edge of the blocked digraph, and (u, v) has
    not been removed.  Vertex 0 protects nothing.  Only removals are stored;
    the blocked digraph is held by reference and must not change.  Pairs
    only ever leave the pool; the removal log records the order in which
    they left, and a removed pair can never return.
    """

    def __init__(self, blocked: Digraph, x_plus: int = 0, target: int = 0):
        self.n = blocked.n
        self._blocked = blocked
        self._x_plus, self._target = x_plus, target
        self._removed: set[tuple[int, int]] = set()
        self.removal_log: list[tuple[int, int]] = []

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "AvailableEdgeSet":
        """A pool of exactly the given pairs: the rest blocked, none protected."""
        blocked = ~np.eye(n + 1, dtype=bool)
        blocked[0, :] = blocked[:, 0] = False
        for u, v in pairs:
            if u == v:
                raise InvalidInputError(f"loop ({u},{v}) cannot be available")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidInputError(f"pair ({u},{v}) outside 1..{n}")
            blocked[u, v] = False
        return cls(Digraph(n, blocked.nonzero()))

    def __len__(self) -> int:
        # inclusion-exclusion over row x and column t: non-loop pairs less blocked edges
        n, x, t, d = self.n, self._x_plus, self._target, self._blocked
        pairs = n * (n - 1) - (n - 1) * (bool(x) + bool(t)) + bool(x and t and x != t)
        blocked = d.edge_count - d.out_degree(x) - d.in_degree(t) + d.has_edge(x, t)
        return pairs - blocked - len(self._removed)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return (u != v and u != self._x_plus and v != self._target
                and 1 <= u <= self.n and 1 <= v <= self.n
                and not self._blocked.has_edge(u, v) and (u, v) not in self._removed)

    def remove_edges(self, edges) -> None:
        """Remove each edge once; every edge must currently be present."""
        for e in sorted(set(edges)):
            if e not in self:
                raise InvalidInputError(f"edge {e} not available (already removed or never present)")
            self._removed.add(e)
            self.removal_log.append(e)

    def _scan(self, tails, heads) -> list[tuple[int, int]]:
        # shared by both public scans, so that each of them is one profiled
        # layer; it reads the digraph's prebuilt row sets rather than copying
        # rows, and plain loops spare the tiny closing scans a comprehension call
        n, x_plus, target, removed = self.n, self._x_plus, self._target, self._removed
        rows = self._blocked._out_sets
        out = []
        for t in tails:
            if t == x_plus or not 1 <= t <= n:
                continue
            blocked = rows[t]
            for h in heads:
                if h != t and h != target and h not in blocked and (t, h) not in removed:
                    out.append((t, h))
        return out

    def edges_out_of(self, tail: int, heads) -> list[tuple[int, int]]:
        """Available edges tail -> head for heads (vertices in 1..n) in the given order."""
        return self._scan((tail,), heads)

    def edges_between(self, tails, heads) -> list[tuple[int, int]]:
        """Available pairs (t, h), tails x heads, in sorted order."""
        return self._scan(sorted(set(tails)), sorted(set(heads)))


def init_available_edges(d_prime: Digraph, x_plus: int, target: int) -> AvailableEdgeSet:
    """Initial availability pool for the conversion phase.

    Every ordered non-loop pair is available except the edges already in
    the generated subdigraph d_prime, every pair with tail x_plus (that
    row's exposure budget is spent), and every pair with head equal to the
    image of the protected column (likewise spent).  The pool applies this
    rule to d_prime by reference and stores only later removals.
    """
    n = d_prime.n
    if not (1 <= x_plus <= n and 1 <= target <= n):
        raise InvalidInputError(f"protected vertices ({x_plus},{target}) outside 1..{n}")
    return AvailableEdgeSet(d_prime, x_plus, target)


def coupling_audit(ledger: ExposureLedger, params: Params) -> dict:
    """Post-hoc check that no edge exceeded its attempt budget.

    An edge stays within the coupling budget while its attempt count X_e is
    at most log^2 n (equivalently X_e * q <= p1).  Violations are reported,
    never discarded; the flag is informational.
    """
    bound = math.log(params.n) ** 2
    histogram = Counter(ledger.attempts.values())
    violations = sorted([u, v, c] for (u, v), c in ledger.attempts.items() if c > bound)
    return {
        "max_attempts": ledger.max_attempts(),
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "violations": violations,
        "bound": bound,
        "ok": not violations,
        "total_attempts": ledger.total_attempts,
        "distinct_edges": len(ledger.attempts),
    }
