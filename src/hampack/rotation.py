"""Path rotations with online edge sprinkling.

A path P = (u_1, ..., u_m) is split by position into quarters

    V1 = {i : 1 <= i < m/4}     V2 = {j : m/4 <= j < m/2}
    V3 = {s : m/2 < s <= 3m/4}  V4 = {t : 3m/4 < t <= m}

(for even m the middle position m/2 belongs to none).  A left rotation with
pivots x at a V1 position and y at a V2 position replaces the edges
x -> x+ and y -> y+ with y -> u_1 and x -> y+, producing a path with left
endpoint x+ and an untouched right half.  A right rotation mirrors this on
the other side.  Because the two sides never touch each other's half, any
left-rotation chain composes with any right-rotation chain.

Rotation rounds sprinkle their connecting edges online: in each round, for
every current endpoint, the edges that would let some pivot pair fire are
exposed independently with probability 100 log n / m (clamped to 1 in
practical mode), and every success spawns a new endpoint.  Endpoints are
stored as derivation records (parent endpoint, pivot pair), never as
materialized paths; a path is rebuilt on demand by replaying one chain,
which costs O(m) per round of depth.  At most two derivations are retained
per endpoint per round; further ones are dropped deterministically and
counted, since the analysis expects a third derivation never to occur.

Each step of a round exposes its pairs as one batch in list order: step 1
the pairs of one endpoint in quarter order, step 2 the pairs of one fired
position in quarter order.  Pairs already out of the pool are filtered
first, as the pool only changes after a merge ends; and the stream yields
the same doubles in bulk as one at a time, so a batch equals exposing its
pairs one by one.

A round that produces no endpoint at all falls back to the previous round's
endpoint set, so the process can stall but never lose ground.  Rounds stop
as soon as the endpoint set reaches the caller's target size; the round
counts are therefore minimal per side.
"""

import math
from dataclasses import dataclass, field

from .errors import Failure, InvalidInputError, ParameterRangeError
from .exposure import AvailableEdgeSet, ExposureLedger, expose_many
from .rng import SeededRng

__all__ = [
    "QuarterPartition",
    "quarter_partition",
    "left_rotate",
    "right_rotate",
    "RotationState",
    "sprinkle_rotations",
    "rotate_to_target",
    "reconstruct_path",
]


@dataclass(frozen=True)
class QuarterPartition:
    """Position quarters of a path on m vertices (1-based positions)."""

    m: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]
    v3: tuple[int, ...]
    v4: tuple[int, ...]


def quarter_partition(m: int) -> QuarterPartition:
    """Quarter the positions 1..m; every quarter is nonempty for m >= 5."""
    if m < 5:
        raise InvalidInputError(f"quarter partition needs m >= 5, got {m}")
    v1 = tuple(i for i in range(1, m + 1) if 4 * i < m)
    v2 = tuple(j for j in range(1, m + 1) if 4 * j >= m and 2 * j < m)
    v3 = tuple(s for s in range(1, m + 1) if 2 * s > m and 4 * s <= 3 * m)
    v4 = tuple(t for t in range(1, m + 1) if 4 * t > 3 * m)
    assert v1 and v2 and v3 and v4
    return QuarterPartition(m, v1, v2, v3, v4)


def left_rotate(path: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    """Left rotation with pivots x (V1 position) and y (V2 position).

    Removes x -> x+ and y -> y+, adds y -> u_1 and x -> y+.  The result
    starts at x+ and agrees with path on every position after pos(y); in
    particular the right half is untouched.
    """
    qp = quarter_partition(len(path))
    px = path.index(x) + 1
    py = path.index(y) + 1
    if px not in qp.v1:
        raise InvalidInputError(f"pivot {x} at position {px} is not in the first quarter")
    if py not in qp.v2:
        raise InvalidInputError(f"pivot {y} at position {py} is not in the second quarter")
    return path[px:py] + path[:px] + path[py:]


def right_rotate(path: tuple[int, ...], z: int, w: int) -> tuple[int, ...]:
    """Right rotation with pivots w (V3 position) and z (V4 position).

    Removes z- -> z and w- -> w, adds u_m -> w and w- -> z.  The result
    ends at z- and agrees with path on every position before pos(w); in
    particular the left half is untouched.
    """
    qp = quarter_partition(len(path))
    pz = path.index(z) + 1
    pw = path.index(w) + 1
    if pw not in qp.v3:
        raise InvalidInputError(f"pivot {w} at position {pw} is not in the third quarter")
    if pz not in qp.v4:
        raise InvalidInputError(f"pivot {z} at position {pz} is not in the fourth quarter")
    return path[:pw - 1] + path[pz - 1:] + path[pw - 1:pz - 1]


@dataclass
class _Round:
    """One executed rotation round on one side.

    ends maps each endpoint created this round to its derivation records
    (parent endpoint, pivot pair), at most two.  A fallback round created
    no endpoint and inherits the previous round's set.
    """

    fallback: bool
    ends: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)


class RotationState:
    """Derivation-tree bookkeeping for the rotation rounds of one path."""

    def __init__(self, path: tuple[int, ...], n: int, mode: str = "practical"):
        if len(set(path)) != len(path) or len(path) < 2:
            raise InvalidInputError("path must have at least 2 distinct vertices")
        self.base = tuple(path)
        self.m = len(path)
        self.n = n
        self.mode = mode
        raw_prob = 100.0 * math.log(n) / self.m
        if raw_prob > 1.0 and mode == "strict":
            raise ParameterRangeError(
                f"sprinkle probability 100 log n / m = {raw_prob:.4g} exceeds 1 in strict mode")
        self.sprinkle_prob = min(1.0, raw_prob)
        self.prob_clamped = raw_prob > 1.0
        self.left_rounds: list[_Round] = []
        self.right_rounds: list[_Round] = []
        self.exposed_success: set[tuple[int, int]] = set()
        self.overflow_count = 0
        self.round_log: list[dict] = []
        self.t_left: int | None = None
        self.t_right: int | None = None

    def _rounds(self, side: str) -> list[_Round]:
        if side == "left":
            return self.left_rounds
        if side == "right":
            return self.right_rounds
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")

    def end_set(self, side: str, t: int) -> list[int]:
        """Endpoint set after round t on the given side, sorted."""
        rounds = self._rounds(side)
        if not (0 <= t <= len(rounds)):
            raise InvalidInputError(f"round {t} not executed on side {side}")
        while t > 0 and rounds[t - 1].fallback:
            t -= 1
        if t == 0:
            return [self.base[0] if side == "left" else self.base[-1]]
        return sorted(rounds[t - 1].ends)

    def reconstruct_side(self, side: str, endpoint: int, t: int) -> tuple[int, ...]:
        """Path for an endpoint of round t, replaying only this side's chain."""
        chain = self.pivot_chain(side, endpoint, t)
        rotate = left_rotate if side == "left" else right_rotate
        path = self.base
        for a, b in chain:
            path = rotate(path, a, b)
        return path

    def pivot_chain(self, side: str, endpoint: int, t: int) -> list[tuple[int, int]]:
        """Pivot pairs that derive the endpoint, in application order."""
        rounds = self._rounds(side)
        chain: list[tuple[int, int]] = []
        v = endpoint
        while t > 0:
            if rounds[t - 1].fallback:
                t -= 1
                continue
            recs = rounds[t - 1].ends.get(v)
            if not recs:
                raise InvalidInputError(f"no derivation for {side} endpoint {v} at round {t}")
            parent, a, b = recs[0]
            chain.append((a, b))
            v = parent
            t -= 1
        anchor = self.base[0] if side == "left" else self.base[-1]
        if v != anchor:
            raise InvalidInputError(f"chain for {endpoint} does not reach the round-0 endpoint")
        chain.reverse()
        return chain


def sprinkle_rotations(state: RotationState, side: str, avail: AvailableEdgeSet,
                       ledger: ExposureLedger, rng: SeededRng) -> int:
    """Run one rotation round on one side; returns the new endpoint count.

    For each current endpoint the connecting edges are exposed online with
    the state's sprinkle probability and every success spawns an endpoint
    via the corresponding rotation.  All successes join the state's exposed
    set whether or not any final path uses them.  If nothing fires the
    round is recorded as a fallback and the endpoint set is inherited.
    """
    if state.m < 5:
        raise InvalidInputError(f"rotation rounds need m >= 5, got {state.m}")
    rounds = state._rounds(side)
    t_prev = len(rounds)
    parents = state.end_set(side, t_prev)
    qp = quarter_partition(state.m)
    prob = state.sprinkle_prob
    new_ends: dict[int, list[tuple[int, int, int]]] = {}
    produced = False

    def fire(at: dict[tuple[int, int], int]) -> list[int]:
        # expose the available edges of at (edge -> path position) as one
        # batch; the edges are distinct, so each hit maps back to its position
        hits = expose_many([e for e in at if e in avail], prob, ledger, rng)
        state.exposed_success.update(hits)
        return [at[e] for e in hits]

    for u in parents:
        path_u = state.reconstruct_side(side, u, t_prev)
        if side == "left":
            # step 1: edges from the second quarter into the left endpoint;
            # step 2: edges from the first quarter into each fired successor
            for j in fire({(path_u[j - 1], u): j for j in qp.v2}):
                y, y_next = path_u[j - 1], path_u[j]
                for i in fire({(path_u[i - 1], y_next): i for i in qp.v1}):
                    produced = True
                    recs = new_ends.setdefault(path_u[i], [])
                    if len(recs) < 2:
                        recs.append((u, path_u[i - 1], y))
                    else:
                        state.overflow_count += 1
        else:
            # step 1: edges from the right endpoint into the third quarter;
            # step 2: edges from each fired predecessor into the fourth quarter
            for s in fire({(u, path_u[s - 1]): s for s in qp.v3}):
                w, w_prev = path_u[s - 1], path_u[s - 2]
                for t in fire({(w_prev, path_u[t - 1]): t for t in qp.v4}):
                    produced = True
                    recs = new_ends.setdefault(path_u[t - 2], [])
                    if len(recs) < 2:
                        recs.append((u, path_u[t - 1], w))
                    else:
                        state.overflow_count += 1
    rounds.append(_Round(fallback=not produced, ends=new_ends))
    t = len(rounds)
    size = len(state.end_set(side, t))
    lnn = math.log(state.n)
    state.round_log.append({
        "side": side,
        "round": t,
        "size": size,
        "fallback": not produced,
        "sandwich_low": (2 * lnn) ** (2 * t),
        "sandwich_high": (50 * lnn) ** (2 * t),
    })
    return size


def rotate_to_target(path: tuple[int, ...], avail: AvailableEdgeSet,
                     ledger: ExposureLedger, rng: SeededRng, target: int,
                     t_max: int, n: int, mode: str = "practical"):
    """Rotate both sides until each endpoint set reaches the target size.

    Runs the minimal number of rounds per side (left side first, then
    right).  If a side cannot reach the target within t_max rounds the
    result is a tagged failure.  With target <= 1 no round runs at all and
    paths shorter than 5 are accepted; rounds themselves need m >= 5.
    """
    state = RotationState(path, n, mode)
    for side in ("left", "right"):
        t = 0
        while len(state.end_set(side, t)) < target:
            if t >= t_max:
                return Failure(f"rotate.{side}", {
                    "reason": "round budget exhausted below target",
                    "target": target, "t_max": t_max,
                    "size": len(state.end_set(side, t)),
                })
            if state.m < 5:
                return Failure(f"rotate.{side}", {
                    "reason": "path too short for rotation rounds",
                    "target": target, "m": state.m,
                })
            sprinkle_rotations(state, side, avail, ledger, rng)
            t += 1
        if side == "left":
            state.t_left = t
        else:
            state.t_right = t
    return state


def reconstruct_path(state: RotationState, left_end: int, right_end: int) -> tuple[int, ...]:
    """Materialize the path with the given endpoint pair.

    Replays the left chain on the base path, then applies the right chain;
    the chains commute because each is confined to its own half.  The
    endpoints must belong to the final endpoint sets of their sides.
    """
    t_left = state.t_left if state.t_left is not None else len(state.left_rounds)
    t_right = state.t_right if state.t_right is not None else len(state.right_rounds)
    path = state.reconstruct_side("left", left_end, t_left)
    for z, w in state.pivot_chain("right", right_end, t_right):
        path = right_rotate(path, z, w)
    if path[0] != left_end or path[-1] != right_end:
        raise InvalidInputError("reconstructed path does not realize the requested endpoints")
    return path
