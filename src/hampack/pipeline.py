"""End-to-end trial: random digraph in, verified Hamilton packing out.

A trial runs the two bipartite exposure rounds, extracts the matching
family and the one-factors through a uniform permutation, then converts
each factor to a Hamilton cycle with rotation sprinkling, all on dedicated
seeded streams.  Everything observable lands in a TrialReport whose JSON
form is byte-stable for a fixed configuration, so replays can be compared
directly.  A config the report schema cannot hold raises InvalidInputError;
stage failures and configs the analysis rejects are recorded, never raised.
"""

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass, field

import numpy as np
from jsonschema import Draft7Validator, ValidationError
from jsonschema.exceptions import best_match

from .errors import Failure, InvalidInputError, ParameterRangeError
from .exposure import (ExposureLedger, Params, coupling_audit, derive_parameters,
                       first_exposure, init_available_edges, second_exposure)
from .graphs import (BipartiteGraph, Digraph, OneFactor, Permutation,
                     bipartite_to_digraph, degree_profile, edge_arrays,
                     matching_to_one_factor, min_degree_vertices)
from .matching import MatchingFamily, find_delta_matchings
from .merge import DesignationLedger, MergeSettings, choose_designated, convert_all
from .rng import SeededRng, streams
from .verify import verify_packing

__all__ = ["TrialReport", "Generation", "generate", "full_pipeline", "phase_one",
           "HEAVY_LEVEL", "check_trial_config", "load_report_schema", "report_schema_error"]

HEAVY_LEVEL = 1.0 / 9.0


def _json_safe(obj):
    """Recursively coerce report payloads to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # the cycles, matchings and factors are long lists of plain ints;
        # type() rather than isinstance() so that bools take the slow path
        if all(type(v) is int for v in obj):
            return list(obj)
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_json_safe(v) for v in sorted(obj)]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def _stage(name: str, status: str, detail: dict) -> dict:
    return {"stage": name, "status": status, "detail": detail}


@functools.cache
def load_report_schema() -> dict:
    """The shipped trial-report schema, read once per process; do not mutate it."""
    ref = importlib.resources.files("hampack") / "schemas" / "trial_report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.cache
def _report_validator() -> Draft7Validator:
    return Draft7Validator(load_report_schema())


def report_schema_error(doc: dict) -> ValidationError | None:
    """The most relevant way doc breaks the report schema, or None if it holds."""
    return best_match(_report_validator().iter_errors(doc))


def check_trial_config(config: dict) -> None:
    """Raise InvalidInputError, naming the knob, if the report schema's config
    block cannot hold config's knobs or one of them is a number that is not
    finite; what the analysis rejects passes here.  config may hold fewer
    knobs than a report does: phase one has no merge budgets."""
    validator = _report_validator()
    block = validator.schema["properties"]["config"]
    required = [key for key in block["required"] if key in config]
    error = best_match(validator.evolve(schema=dict(block, required=required))
                       .iter_errors(config))
    if error is not None:
        where = ".".join(["config", *map(str, error.absolute_path)])
        raise InvalidInputError(f"{where}: {error.message}")
    for key, value in config.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidInputError(f"config.{key}: {value} is not a finite number")


@dataclass
class TrialReport:
    """Everything a trial produced, in a replayable form.

    outcome is SUCCESS when the full cycle family was built (including the
    trivial delta = 0 case), FAILURE when a stage stalled, ERROR when the
    configuration was rejected up front.  json_bytes() of two runs with the
    same configuration are identical byte for byte.
    """

    n: int
    p: float
    seed: int
    mode: str
    retries: int
    t_max: int
    q_override: float | None
    params: dict | None
    delta: int | None
    outcome: str
    failure_stage: str | None
    stage_outcomes: list[dict] = field(default_factory=list)
    cycles: list[list[int]] = field(default_factory=list)
    matchings: list[list[int]] = field(default_factory=list)
    one_factors: list[list[list[int]]] = field(default_factory=list)
    ledger_audit: dict | None = None
    verification: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    # in-memory handles for re-verification; never serialized, so they do
    # not participate in byte-replay comparisons
    d_final: Digraph | None = field(default=None, repr=False, compare=False)
    exposure_ledger: ExposureLedger | None = field(default=None, repr=False,
                                                  compare=False)

    def config(self) -> dict:
        """The knobs that replay this trial as full_pipeline(**config)."""
        return {k: getattr(self, k) for k in
                ("n", "p", "seed", "mode", "retries", "t_max", "q_override")}

    def to_json_dict(self) -> dict:
        return _json_safe({
            "schema": "hampack/trial-report/v1",
            "config": self.config(),
            "params": self.params,
            "delta": self.delta,
            "outcome": self.outcome,
            "failure_stage": self.failure_stage,
            "stage_outcomes": self.stage_outcomes,
            "cycles": self.cycles,
            "matchings": self.matchings,
            "one_factors": self.one_factors,
            "ledger_audit": self.ledger_audit,
            "verification": self.verification,
            "diagnostics": self.diagnostics,
        })

    def json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False).encode("utf-8")


def _screen_heaviness(d_prime: Digraph, factors: list[OneFactor]) -> dict:
    """Count vertices with many same-block neighbours on each long cycle.

    Only cycles of length at least n / log^3 n are screened; a vertex
    counts when its out- or in-neighbourhood inside its own cycle reaches
    HEAVY_LEVEL times the cycle length.  Purely diagnostic.
    """
    n = d_prime.n
    min_len = n / math.log(n) ** 3
    # numpy indexes and counts with intp; convert once, not per factor
    tails, heads = d_prime.tails.astype(np.intp), d_prime.heads.astype(np.intp)
    per_factor = []
    for factor in factors:
        # label[v]: v's cycle index, or -1 when that cycle is not screened;
        # need[v] stays infinite there, so an unscreened vertex is never heavy
        label = np.full(n + 1, -1, dtype=np.int32)
        need = np.full(n + 1, np.inf)
        screened = 0
        for idx, cyc in enumerate(factor.cycles):
            if len(cyc) >= min_len:
                screened += 1
                vertices = list(cyc.vertices)
                label[vertices] = idx
                need[vertices] = HEAVY_LEVEL * len(cyc)
        same = label[tails] == label[heads]
        out_in = np.bincount(tails, weights=same, minlength=n + 1)
        in_in = np.bincount(heads, weights=same, minlength=n + 1)
        heavy = int(np.count_nonzero((out_in >= need) | (in_in >= need)))
        per_factor.append({"screened_cycles": screened, "heavy_vertices": heavy})
    return {
        "level": HEAVY_LEVEL,
        "length_threshold": min_len,
        "per_factor": per_factor,
    }


@dataclass
class Generation:
    """Phase one of a trial: both exposure rounds and the matching family.

    pi and the one-factors are set only when the family exists.  D' is left
    out; a caller that needs it builds it from b and pi.
    """

    b_prime: BipartiteGraph
    x_plus: int
    y_minus: int
    b: BipartiteGraph
    delta: int
    family: MatchingFamily | Failure
    pi: Permutation | None = None
    factors: list[OneFactor] = field(default_factory=list)


def generate(n: int, params: Params, rngs: dict[str, SeededRng]) -> Generation:
    """Draw phase one on the trial's streams, in the one fixed draw order.

    Both exposure rounds draw from rngs["phase1"], then the permutation from
    rngs["permutation"]; no other stream is touched.
    """
    b_prime = first_exposure(n, params.p0, rngs["phase1"])
    x_plus, y_minus = min_degree_vertices(b_prime)
    b = second_exposure(b_prime, x_plus, y_minus, params.p1, rngs["phase1"])
    delta, family = find_delta_matchings(b, x_plus, y_minus)
    gen = Generation(b_prime, x_plus, y_minus, b, delta, family)
    if not isinstance(family, Failure):
        gen.pi = Permutation(rngs["permutation"].uniform_permutation(n))
        gen.factors = [matching_to_one_factor(n, m, gen.pi) for m in family.matchings]
    return gen


def phase_one(n: int, p: float, seed: int, mode: str = "practical") -> dict:
    """Generation phase only: exposures, matchings, permutation, factors.

    Returns a JSON-ready document with the induced subdigraph in text form,
    so the conversion phase can be studied separately.  Parameter errors
    and missing matching families are recorded in the document; knobs that
    check_trial_config rejects raise InvalidInputError.
    """
    config = {"n": n, "p": p, "seed": seed, "mode": mode}
    check_trial_config(config)
    doc: dict = {
        "schema": "hampack/phase1/v1",
        "config": config,
        "outcome": "ERROR",
        "failure": None,
        "params": None,
    }
    try:
        params = derive_parameters(n, p, mode=mode)
    except (ParameterRangeError, InvalidInputError) as exc:
        doc["failure"] = {"stage": "parameters", "message": str(exc)}
        return doc
    doc["params"] = params.to_json_dict()

    gen = generate(n, params, streams(seed))
    doc.update({
        "x_plus": gen.x_plus,
        "y_minus": gen.y_minus,
        "delta": gen.delta,
        "first_edges": gen.b_prime.edge_count,
        "second_added": gen.b.edge_count - gen.b_prime.edge_count,
    })
    if isinstance(gen.family, Failure):
        doc["outcome"] = "FAILURE"
        doc["failure"] = _json_safe(dict(gen.family.detail, stage=gen.family.stage))
        return doc

    doc.update({
        "outcome": "SUCCESS",
        "matchings": gen.family.to_json(),
        "pi": list(gen.pi.image),
        "digraph": bipartite_to_digraph(gen.b, gen.pi).to_text(),
        "one_factors": [[list(c.vertices) for c in f.cycles] for f in gen.factors],
    })
    return doc


def full_pipeline(n: int, p: float, seed: int, mode: str = "practical",
                  retries: int = 3, t_max: int = 10,
                  q_override: float | None = None) -> TrialReport:
    """Run one complete trial and return its report.

    q_override replaces the derived sprinkling probability for the merge
    phase only (practical mode only); the natural value stays in the
    parameter block so the report shows both.  A config the report schema
    cannot hold raises InvalidInputError before any draw.
    """
    stages: list[dict] = []
    report = TrialReport(n=n, p=p, seed=seed, mode=mode, retries=retries,
                         t_max=t_max, q_override=q_override, params=None,
                         delta=None, outcome="ERROR", failure_stage=None,
                         stage_outcomes=stages)
    check_trial_config(report.config())

    try:
        if q_override is not None:
            if mode != "practical":
                raise InvalidInputError("q override requires practical mode")
            if not 0.0 <= q_override <= 1.0:
                raise InvalidInputError(f"need 0 <= q_override <= 1, got {q_override}")
        params = derive_parameters(n, p, mode=mode)
    except (ParameterRangeError, InvalidInputError) as exc:
        stages.append(_stage("parameters", "error", {"message": str(exc)}))
        report.failure_stage = "parameters"
        return report

    q_used = params.q if q_override is None else float(q_override)
    report.params = dict(params.to_json_dict(), q_used=q_used)
    stages.append(_stage("parameters", "ok", {
        "p0": params.p0, "p1": params.p1, "q": params.q,
        "q_used": q_used, "clamped": list(params.clamped),
    }))

    rngs = streams(seed)
    gen = generate(n, params, rngs)
    b_prime, x_plus, y_minus, b = gen.b_prime, gen.x_plus, gen.y_minus, gen.b
    stages.append(_stage("first_exposure", "ok", {"edges": b_prime.edge_count}))
    stages.append(_stage("min_degree", "ok", {
        "x_plus": x_plus, "y_minus": y_minus,
        "deg_x_plus": b_prime.deg_x(x_plus),
        "deg_y_minus": b_prime.deg_y(y_minus),
    }))
    stages.append(_stage("second_exposure", "ok",
                         {"added": b.edge_count - b_prime.edge_count}))

    delta, family, factors = gen.delta, gen.family, gen.factors
    report.delta = delta
    if isinstance(family, Failure):
        stages.append(_stage("matchings", "failure",
                             dict(family.detail, stage=family.stage)))
        report.outcome = "FAILURE"
        report.failure_stage = "matchings"
        return report
    stages.append(_stage("matchings", "ok", {"delta": delta}))
    report.matchings = family.to_json()

    d_prime = bipartite_to_digraph(b, gen.pi)
    target = gen.pi.of(y_minus)
    profile_prime = degree_profile(d_prime)
    stages.append(_stage("digraph", "ok", {
        "edges": d_prime.edge_count,
        "loops_erased": b.edge_count - d_prime.edge_count,
        "target": target,
        "delta_pm": profile_prime["delta_pm"],
    }))

    cycle_counts = [len(f.cycles) for f in factors]
    singletons = sum(f.singleton_count() for f in factors)
    stages.append(_stage("one_factors", "ok", {
        "count": delta, "cycle_counts": cycle_counts, "singletons": singletons,
    }))
    report.one_factors = [[list(c.vertices) for c in f.cycles] for f in factors]

    heaviness = _screen_heaviness(d_prime, factors)
    stages.append(_stage("heaviness", "ok", {
        "screened": sum(e["screened_cycles"] for e in heaviness["per_factor"]),
        "heavy": sum(e["heavy_vertices"] for e in heaviness["per_factor"]),
    }))

    avail = init_available_edges(d_prime, x_plus, target)
    pool_initial = len(avail)

    designation_ledger = DesignationLedger(n)
    designated = choose_designated(factors, rngs["designation"], designation_ledger)
    stages.append(_stage("designation", "ok", {
        "draws": sum(len(d) for d in designated),
        "flagged": designation_ledger.flagged(p),
    }))

    settings = MergeSettings(n=n, p=p, q=q_used, mode=mode, t_max=t_max,
                             retries=0 if mode == "strict" else retries)
    ledger = ExposureLedger()
    result, merge_logs = convert_all(factors, designated, avail, settings,
                                     ledger, rngs["sprinkling"], rngs["closure"])
    success = not isinstance(result, Failure)
    if success:
        stages.append(_stage("conversion", "ok", {"hamiltons": len(result)}))
        report.cycles = [list(c.vertices) for c in result]
    else:
        stages.append(_stage("conversion", "failure",
                             dict(result.detail, stage=result.stage)))
        report.failure_stage = result.stage

    # every exposed pair came from the pool, which excludes D', so the
    # successes only add edges; the build rejects a repeat
    added_tails, added_heads = edge_arrays(ledger.successes)
    d_final = Digraph(n, (np.concatenate([d_prime.tails, added_tails]),
                          np.concatenate([d_prime.heads, added_heads])))
    report.d_final = d_final
    report.exposure_ledger = ledger
    profile_final = degree_profile(d_final)
    stages.append(_stage("final_digraph", "ok", {
        "edges": d_final.edge_count,
        "exposed_added": len(ledger.successes),
        "delta_pm": profile_final["delta_pm"],
    }))

    if success:
        verdict = verify_packing(d_final, result, profile_final["delta_pm"])
        report.verification = verdict.to_json_dict()
        stages.append(_stage("verification", "ok" if verdict.ok else "failure",
                             report.verification))

    report.ledger_audit = coupling_audit(ledger, params)
    report.outcome = "SUCCESS" if success else "FAILURE"
    report.diagnostics = {
        "x_plus": x_plus,
        "y_minus": y_minus,
        "pi_target": target,
        "degree_dprime": {k: profile_prime[k]
                          for k in ("delta_out", "delta_in", "delta_pm")},
        "degree_final": {k: profile_final[k]
                         for k in ("delta_out", "delta_in", "delta_pm")},
        "first_exposure_edges": b_prime.edge_count,
        "second_exposure_added": b.edge_count - b_prime.edge_count,
        "loops_erased": b.edge_count - d_prime.edge_count,
        "factor_cycle_counts": cycle_counts,
        "singleton_cycles": singletons,
        "cycle_count_bound": 4.0 * math.log(n),
        "factors_exceeding_cycle_bound":
            [i for i, c in enumerate(cycle_counts) if c > 4.0 * math.log(n)],
        "long_cycle_reference": n / (4.0 * math.log(n)),
        "factors_with_short_longest":
            [i for i, f in enumerate(factors)
             if len(f.cycles[0]) < n / (4.0 * math.log(n))],
        "heaviness": heaviness,
        "designation": designation_ledger.to_json_dict(p),
        "pool": {"initial": pool_initial, "remaining": len(avail),
                 "consumed": pool_initial - len(avail)},
        "draw_counts": {label: rng.n_bernoulli for label, rng in rngs.items()},
        "merge_logs": merge_logs,
    }
    return report
