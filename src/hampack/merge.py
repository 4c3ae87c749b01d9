"""Merging cycles into Hamilton cycles by exposure and rotation.

One merge absorbs a cycle C* into the growing cycle C through its designated
vertex v1:

1. pick E1, a uniform subset of the available edges from v1 into V(C) of
   nominal size ceil(b log^7 n / sqrt(n p)) (b = |C|), and expose each at
   rate q; no success is a step-2 failure;
2. open both cycles along a successful edge v1 -> u1 into the path
   (v2, ..., v_a, v1, u1, ..., u_b);
3. rotate both sides until each endpoint set reaches
   T = ceil(log n / (100 sqrt q)), sprinkling connecting edges online;
4. expose every available edge from a right endpoint to a left endpoint at
   rate q; a success y -> x closes the reconstructed path into a cycle on
   V(C) u V(C*);
5. all successfully exposed edges from the rotation rounds, the opening
   edge and the closing edge leave the availability pool.

In strict mode the nominal E1 size is binding: if fewer eligible edges
exist, E1 is empty and step 2 fails.  Practical mode uses every eligible
edge in that case, and may retry a failed merge with fresh randomness;
every retry's exposures still hit the ledger.  The eligible set depends
only on v1, V(C) and the pool, none of which a failed attempt changes, so
it is scanned once per merge; when it is empty every attempt would draw
nothing and fail alike, and the merge ends after the first.

Each exposure step draws its pairs in list order as one batch: the E1
sample in sampled order, then the closing candidates in sorted order.  The
pool does not change within a step and the stream yields the same doubles
in bulk as one at a time, so a batch equals exposing its pairs one by one.

Converting a 1-factor threads one merge per remaining cycle, longest first,
through a shared availability pool; converting a family of factors threads
the pool across factors in order.  Designated vertices for every merge are
drawn up front, one uniform vertex per non-initial cycle, and tallied so
reports can flag vertices designated more often than the analysis expects.
"""

import math
from dataclasses import dataclass, field

from .errors import Failure, InvalidInputError
from .exposure import AvailableEdgeSet, ExposureLedger, expose_many
from .graphs import Cycle, OneFactor
from .rng import SeededRng
from .rotation import RotationState, reconstruct_path, rotate_to_target

__all__ = [
    "MergeSettings",
    "MergeResult",
    "DesignationLedger",
    "choose_designated",
    "merge_two_cycles",
    "one_factor_to_hamilton",
    "convert_all",
]


@dataclass(frozen=True)
class MergeSettings:
    """Knobs shared by every merge of a trial."""

    n: int
    p: float
    q: float
    mode: str = "practical"
    t_max: int = 10
    retries: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"need n >= 1, got {self.n}")
        if not (0.0 <= self.q <= 1.0):
            raise InvalidInputError(f"q must lie in [0, 1], got {self.q}")
        if self.retries < 0:
            raise InvalidInputError(f"need retries >= 0, got {self.retries}")
        if self.mode == "strict" and self.retries:
            raise InvalidInputError("strict mode does not retry failed merges")

    def rotation_target(self) -> int:
        if self.q == 0.0:
            # unreachable through the pipeline (step 2 fails first);
            # direct callers get the largest meaningful demand
            return self.n
        return max(1, math.ceil(math.log(self.n) / (100.0 * math.sqrt(self.q))))

    def nominal_opening_size(self, b: int) -> int:
        if self.p == 0.0:
            return b + 1
        return math.ceil(b * math.log(self.n) ** 7 / math.sqrt(self.n * self.p))


@dataclass
class MergeResult:
    """Outcome of one merge call, successful or not."""

    outcome: Cycle | Failure
    attempts: int
    opening_edge: tuple[int, int] | None = None
    closing_edge: tuple[int, int] | None = None
    consumed: tuple[tuple[int, int], ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return isinstance(self.outcome, Cycle)


class DesignationLedger:
    """Counts how often each vertex is designated across a whole trial."""

    def __init__(self, n: int):
        self.n = n
        self.counts: dict[int, int] = {}

    def record(self, v: int) -> None:
        self.counts[v] = self.counts.get(v, 0) + 1

    def threshold(self, p: float) -> float:
        """Usage level above which a vertex is worth flagging."""
        return (self.n * p) ** (1.0 / 3.0) * math.log(self.n) ** 2

    def flagged(self, p: float) -> list[list[int]]:
        bound = self.threshold(p)
        return [[v, c] for v, c in sorted(self.counts.items()) if c > bound]

    def to_json_dict(self, p: float) -> dict:
        return {
            "counts": {str(v): self.counts[v] for v in sorted(self.counts)},
            "threshold": self.threshold(p),
            "flagged": self.flagged(p),
        }


def choose_designated(factors: list[OneFactor], rng: SeededRng,
                      designations: DesignationLedger) -> list[tuple[int, ...]]:
    """One uniform designated vertex per non-initial cycle of each factor.

    Returns, per factor, the tuple (v_1, ..., v_N) aligned with the
    factor's cycles after the first.  All draws happen up front, before any
    merge, so designation randomness is independent of merge outcomes.
    """
    out = []
    for factor in factors:
        chosen = []
        for cyc in factor.cycles[1:]:
            v = rng.choice(cyc.vertices)
            designations.record(v)
            chosen.append(v)
        out.append(tuple(chosen))
    return out


def _merge_once(cycle: Cycle, absorbee: Cycle, v1: int, eligible: list[tuple[int, int]],
                avail: AvailableEdgeSet, settings: MergeSettings, ledger: ExposureLedger,
                sprinkle_rng: SeededRng, closure_rng: SeededRng):
    """One attempt of the merge procedure; no retries, no pool mutation on failure.

    eligible is the pool's edges from v1 into V(cycle), in vertex order.
    """
    b = len(cycle)
    nominal = settings.nominal_opening_size(b)
    # the sampled order is kept: with several successes the first in draw
    # order wins, which makes retries anchor at fresh cycle vertices
    if not eligible:
        opening_set = []
    elif len(eligible) >= nominal:
        opening_set = list(sprinkle_rng.sample(eligible, nominal))
    elif settings.mode == "strict":
        opening_set = []
    else:
        opening_set = list(sprinkle_rng.sample(eligible, len(eligible)))
    opened = expose_many(opening_set, settings.q, ledger, sprinkle_rng)
    if not opened:
        return Failure("step2", {"eligible": len(eligible), "attempted": len(opening_set)})
    opening = opened[0]
    u1 = opening[1]
    path = absorbee.path_ending_at(v1) + cycle.path_from(u1)
    target = settings.rotation_target()
    rotated = rotate_to_target(path, avail, ledger, sprinkle_rng,
                               target=target, t_max=settings.t_max,
                               n=settings.n, mode=settings.mode)
    if isinstance(rotated, Failure):
        return rotated.tagged("step4")
    assert isinstance(rotated, RotationState)
    lefts = rotated.end_set("left", rotated.t_left)
    rights = rotated.end_set("right", rotated.t_right)
    closing_candidates = avail.edges_between(rights, lefts)
    closed = expose_many(closing_candidates, settings.q, ledger, closure_rng)
    if not closed:
        return Failure("step5", {
            "candidates": len(closing_candidates),
            "left_ends": len(lefts), "right_ends": len(rights),
        })
    closing = closed[0]
    y, x = closing
    final_path = reconstruct_path(rotated, x, y)
    merged = Cycle(final_path)
    consumed = set(rotated.exposed_success) | {opening, closing}
    avail.remove_edges(consumed)
    diag = {
        "m": len(path),
        "target": target,
        "t_left": rotated.t_left,
        "t_right": rotated.t_right,
        "overflow": rotated.overflow_count,
        "prob_clamped": rotated.prob_clamped,
        "rounds": rotated.round_log,
        "opening_attempts": len(opening_set),
        "closing_candidates": len(closing_candidates),
    }
    return merged, opening, closing, tuple(sorted(consumed)), diag


def merge_two_cycles(cycle: Cycle, absorbee: Cycle, v1: int, avail: AvailableEdgeSet,
                     settings: MergeSettings, ledger: ExposureLedger,
                     sprinkle_rng: SeededRng, closure_rng: SeededRng) -> MergeResult:
    """Merge absorbee into cycle through its designated vertex v1.

    The two cycles must be vertex-disjoint and v1 must lie on the absorbee.
    On success the merged cycle spans both vertex sets and the consumed
    edges have left the availability pool; on failure the pool is
    untouched.  A failed attempt is retried up to settings.retries times
    (always 0 in strict mode) with fresh randomness from the same streams,
    except that an empty eligible set (no pool edge from v1 into the cycle)
    ends the merge at once: it is fixed for the whole merge and no retry
    could draw anything.  A failure reports the full attempt budget either
    way.
    """
    if v1 not in absorbee.vertices:
        raise InvalidInputError(f"designated vertex {v1} is not on the absorbed cycle")
    if set(cycle.vertices) & set(absorbee.vertices):
        raise InvalidInputError("cycles to merge must be vertex-disjoint")
    attempts_allowed = 1 + settings.retries
    eligible = avail.edges_out_of(v1, sorted(cycle.vertices))
    last_failure: Failure | None = None
    for attempt in range(1, attempts_allowed + 1):
        got = _merge_once(cycle, absorbee, v1, eligible, avail, settings, ledger,
                          sprinkle_rng, closure_rng)
        if isinstance(got, Failure):
            last_failure = got
            if not eligible:
                break
            continue
        merged, opening, closing, consumed, diag = got
        assert set(merged.vertices) == set(cycle.vertices) | set(absorbee.vertices)
        return MergeResult(outcome=merged, attempts=attempt, opening_edge=opening,
                           closing_edge=closing, consumed=consumed, diagnostics=diag)
    assert last_failure is not None
    detail = dict(last_failure.detail)
    detail["attempts"] = attempts_allowed
    return MergeResult(outcome=Failure(last_failure.stage, detail), attempts=attempts_allowed)


def one_factor_to_hamilton(factor: OneFactor, designated: tuple[int, ...],
                           avail: AvailableEdgeSet, settings: MergeSettings,
                           ledger: ExposureLedger, sprinkle_rng: SeededRng,
                           closure_rng: SeededRng):
    """Grow the factor's longest cycle into a Hamilton cycle.

    Remaining cycles are absorbed in stored order (longest first) through
    their designated vertices.  Returns (Cycle, merge diagnostics) on
    success or (Failure, diagnostics) tagged with the merge index and inner
    stage.  A factor that is already a single cycle converts immediately.
    """
    if len(designated) != len(factor.cycles) - 1:
        raise InvalidInputError(
            f"need {len(factor.cycles) - 1} designated vertices, got {len(designated)}")
    current = factor.cycles[0]
    merge_log: list[dict] = []
    for i, absorbee in enumerate(factor.cycles[1:], start=1):
        result = merge_two_cycles(current, absorbee, designated[i - 1], avail,
                                  settings, ledger, sprinkle_rng, closure_rng)
        merge_log.append({
            "merge_index": i,
            "absorbed_size": len(absorbee),
            "ok": result.ok,
            "attempts": result.attempts,
            "diagnostics": result.diagnostics,
        })
        if not result.ok:
            assert isinstance(result.outcome, Failure)
            return result.outcome.tagged(f"merge[{i}]"), merge_log
        current = result.outcome
    assert len(current) == factor.n
    return current, merge_log


def convert_all(factors: list[OneFactor], designated: list[tuple[int, ...]],
                avail: AvailableEdgeSet, settings: MergeSettings,
                ledger: ExposureLedger, sprinkle_rng: SeededRng,
                closure_rng: SeededRng):
    """Convert every factor in order, threading one availability pool.

    Returns (hamilton cycles, per-factor logs) on success, or
    (Failure, logs) where the failure is tagged with the factor index.
    Edges consumed by earlier factors are gone for later ones, which is
    what makes the resulting cycles pairwise edge-disjoint.
    """
    if len(designated) != len(factors):
        raise InvalidInputError("designation list must align with factors")
    hamiltons: list[Cycle] = []
    logs: list[list[dict]] = []
    for k, factor in enumerate(factors):
        out, merge_log = one_factor_to_hamilton(factor, designated[k], avail,
                                                settings, ledger, sprinkle_rng,
                                                closure_rng)
        logs.append(merge_log)
        if isinstance(out, Failure):
            return out.tagged(f"factor[{k}]"), logs
        hamiltons.append(out)
    return hamiltons, logs
