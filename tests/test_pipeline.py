"""End-to-end trial pipeline: stages, reports, replay, error paths."""

import hashlib
import json
import math

from hypothesis import given, strategies as st

from hampack.graphs import Cycle, Digraph, OneFactor, Permutation, is_heavy
from hampack.pipeline import HEAVY_LEVEL, _screen_heaviness, full_pipeline, phase_one
from hampack.stats import designation_moment_estimate

SUCCESS_STAGES = [
    "parameters", "first_exposure", "min_degree", "second_exposure",
    "matchings", "digraph", "one_factors", "heaviness", "designation",
    "conversion", "final_digraph", "verification",
]


def run_success(n=30, p=0.4, seed=1):
    # seed 1 is a known full-success configuration for these sizes
    report = full_pipeline(n=n, p=p, seed=seed, q_override=1.0, retries=8)
    assert report.outcome == "SUCCESS"
    return report


class TestSuccessPath:
    def test_success_report_shape(self):
        r = run_success()
        assert r.delta == len(r.cycles) > 0
        assert [s["stage"] for s in r.stage_outcomes] == SUCCESS_STAGES
        assert all(s["status"] == "ok" for s in r.stage_outcomes)
        assert r.failure_stage is None

    def test_success_verifies(self):
        r = run_success()
        assert r.verification["ok"] is True
        assert r.verification["witness"] is None

    def test_cycles_cover_vertex_set(self):
        r = run_success()
        for cyc in r.cycles:
            assert sorted(cyc) == list(range(1, 31))

    def test_factor_counts_align(self):
        r = run_success()
        assert len(r.matchings) == r.delta
        assert len(r.one_factors) == r.delta
        assert len(r.diagnostics["merge_logs"]) == r.delta
        for factor, count in zip(r.one_factors,
                                 r.diagnostics["factor_cycle_counts"]):
            assert len(factor) == count

    def test_ledger_totals_equal_draw_counts(self):
        r = run_success()
        draws = r.diagnostics["draw_counts"]
        assert (r.ledger_audit["total_attempts"]
                == draws["sprinkling"] + draws["closure"])

    def test_audit_flag_matches_recount(self):
        r = run_success()
        bound = r.ledger_audit["bound"]
        recount = sum(int(k) > bound and v > 0
                      for k, v in r.ledger_audit["histogram"].items())
        assert r.ledger_audit["ok"] == (recount == 0)

    def test_pool_accounting(self):
        r = run_success()
        pool = r.diagnostics["pool"]
        assert pool["initial"] == pool["remaining"] + pool["consumed"]
        assert pool["consumed"] > 0

    def test_q_override_recorded(self):
        r = run_success()
        assert r.params["q_used"] == 1.0
        assert r.params["q"] < 1e-2
        assert r.to_json_dict()["config"]["q_override"] == 1.0


class TestReplay:
    def test_byte_identical_replay(self):
        a = full_pipeline(n=20, p=0.4, seed=5, q_override=1.0, retries=4)
        b = full_pipeline(n=20, p=0.4, seed=5, q_override=1.0, retries=4)
        assert a.json_bytes() == b.json_bytes()

    def test_seed_changes_report(self):
        a = full_pipeline(n=20, p=0.4, seed=5, q_override=1.0, retries=4)
        b = full_pipeline(n=20, p=0.4, seed=6, q_override=1.0, retries=4)
        assert a.json_bytes() != b.json_bytes()

    def test_json_is_loadable(self):
        r = full_pipeline(n=12, p=0.5, seed=7, q_override=1.0, retries=8)
        doc = json.loads(r.json_bytes().decode())
        assert doc["schema"] == "hampack/trial-report/v1"
        assert list(doc) == ["schema", "config", "params", "delta", "outcome",
                             "failure_stage", "stage_outcomes", "cycles",
                             "matchings", "one_factors", "ledger_audit",
                             "verification", "diagnostics"]


class TestFailurePaths:
    def test_natural_rate_starves_opening(self):
        r = full_pipeline(n=30, p=0.4, seed=1)
        assert r.outcome == "FAILURE"
        assert r.failure_stage.endswith("step2")
        assert r.diagnostics["pool"]["consumed"] == 0
        assert r.verification is None
        assert r.cycles == []

    def test_failure_keeps_audit_and_stages(self):
        r = full_pipeline(n=30, p=0.4, seed=1)
        names = [s["stage"] for s in r.stage_outcomes]
        assert names[-2:] == ["conversion", "final_digraph"]
        assert r.ledger_audit["total_attempts"] > 0


class TestErrorPaths:
    def test_strict_window_is_empty_at_desk_scale(self):
        r = full_pipeline(n=100, p=0.2, seed=0, mode="strict")
        assert r.outcome == "ERROR"
        assert r.failure_stage == "parameters"
        assert r.stage_outcomes[0]["status"] == "error"
        assert r.params is None and r.delta is None

    def test_q_override_out_of_range(self):
        r = full_pipeline(n=20, p=0.4, seed=0, q_override=2.0)
        assert r.outcome == "ERROR"

    def test_q_override_needs_practical_mode(self):
        r = full_pipeline(n=20, p=0.4, seed=0, mode="strict", q_override=1.0)
        assert r.outcome == "ERROR"
        assert "practical" in r.stage_outcomes[0]["detail"]["message"]

    def test_tiny_n_rejected(self):
        r = full_pipeline(n=3, p=0.4, seed=0)
        assert r.outcome == "ERROR"

    def test_error_report_still_replays(self):
        a = full_pipeline(n=3, p=0.4, seed=0)
        b = full_pipeline(n=3, p=0.4, seed=0)
        assert a.json_bytes() == b.json_bytes()


class TestDegenerateDensity:
    def test_zero_density_trivial_success(self):
        r = full_pipeline(n=10, p=0.0, seed=4)
        assert r.outcome == "SUCCESS"
        assert r.delta == 0
        assert r.cycles == []
        assert r.verification["ok"] is True
        assert r.diagnostics["draw_counts"]["sprinkling"] == 0


# sha256 of json_bytes() for (n, p, seed) at q_override=1.0, retries=8.  A
# change that moves the replay bytes fails here; update the hashes only
# together with a CHANGES.md entry that says why the bytes changed.
PINNED_REPLAY_SHA256 = {
    (40, 0.3, 0): "ae1125a9eda15b56c78298bcb63bbf725a405c6ee0f7a2766b241dd5fa642f9c",
    (40, 0.3, 1): "c9ffc534b6798b5d8319a154c97e81621362a2e92ee1450f81b074deaaff4928",
    (40, 0.3, 2): "43228cbb2c9fb331d0fdd2ff32f76a12a20325dd8a8e20fd12e7b2730b7fa0a4",
    (80, 0.3, 0): "ba15ea6c23104586ecf3c06372c948d2d808667272185a421d064ced4550c0c9",
    (80, 0.3, 1): "85d9087a264520e60e557fc14dfd8b400a3c00e00e208937b8aad6bfbdf318c6",
    (80, 0.3, 2): "beeaa88fbe75cf5a837a9f5493cccf04c01808d6283a810deb6667223d6c2cd7",
    (30, 0.4, 1): "a346be25ee9f8442676d463c5373ae67c2425c11f6000937930e11148f1a60e4",
}


def test_replay_bytes_pinned():
    got = {cfg: hashlib.sha256(full_pipeline(*cfg, q_override=1.0, retries=8)
                               .json_bytes()).hexdigest()
           for cfg in PINNED_REPLAY_SHA256}
    assert got == PINNED_REPLAY_SHA256


# sha256 of json_bytes() for ((n, p, seed), q_override) at retries=8, where
# q < 1 so that a draw taken out of order changes which exposures succeed
# (at q = 1 every draw succeeds, whatever its order).  The q = 0.5 cells fail
# at step 5 after hundreds of sprinkling draws and a few closure draws; the
# natural-q cell fails at step 2 after its opening draws.  Same update rule.
PINNED_REPLAY_SHA256_BELOW_ONE = {
    ((40, 0.3, 0), 0.5): "b0fe10135cb13cb56c669f1a35d1d4bea3fb923dfb9600954d36b74d3b65f176",
    ((40, 0.3, 1), 0.5): "c95d9664e4069897ec5d0fc4c7d3bd507642aa6352f706fb4e0a42fcf58e4b7a",
    ((80, 0.3, 2), 0.5): "88bb2cd006dc2922c0573b3a37ad31881fc2bb5961d82b3fca5a2be9e55e2b62",
    ((120, 0.3, 1), 0.5): "40be504db4da8268c336c48f437a6ecb25925b25686c2a031baf0695fd6b9999",
    ((40, 0.3, 1), None): "150700e3f8a2099a5b4416e124884990e64100a6df89e5ad64887b4759e6a34b",
}


def test_replay_bytes_pinned_below_unit_rate():
    reports = {key: full_pipeline(*key[0], q_override=key[1], retries=8)
               for key in PINNED_REPLAY_SHA256_BELOW_ONE}
    draws = [r.diagnostics["draw_counts"] for r in reports.values()]
    assert all(d["sprinkling"] > 0 for d in draws)
    assert all(d["closure"] > 0 for d in draws[:4])
    got = {key: hashlib.sha256(r.json_bytes()).hexdigest() for key, r in reports.items()}
    assert got == PINNED_REPLAY_SHA256_BELOW_ONE


# sha256 of the phase_one document as `hampack generate` prints it, for (n, p, seed)
# or (n, p, seed, mode); the same rule as above holds for updating them
PINNED_PHASE_ONE_SHA256 = {
    (40, 0.3, 0): "bfdc9ffde7b950d871b90a02f6012aca6d64ca88a84ec3176d119bab1d559dfe",
    (60, 0.2, 1): "349ed3ab302b49e0ee2ec5d280bb4dc5fde63c529b82e58a7b1754fbfbbd86f6",
    (12, 0.2, 0): "0ef699ba878f22182c3ef5de7d277f42940cf4520c88067853156c35034bf186",
    (3, 0.4, 0): "30f1d0011d2c8b98ed2b7ab6331403361a51b56619bdb97c7a2168da7b5cdb89",
    (100, 0.2, 0, "strict"): "f30d4227d9fed56ab86c52a849d3bc632b99a0c5059db4bc3d2c0919867d283c",
}


def test_phase_one_bytes_pinned():
    docs = {cfg: phase_one(*cfg) for cfg in PINNED_PHASE_ONE_SHA256}
    assert [d["outcome"] for d in docs.values()] == [
        "SUCCESS", "SUCCESS", "FAILURE", "ERROR", "ERROR"]
    got = {cfg: hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
           for cfg, doc in docs.items()}
    assert got == PINNED_PHASE_ONE_SHA256


def test_moment_estimate_pinned():
    est = designation_moment_estimate(20, 0.4, trials=10, seed=0)
    assert (est["completed"], est["skipped"]) == (9, 1)
    assert (hashlib.sha256(json.dumps(est).encode()).hexdigest()
            == "630e55705d1b8b502c52c5d60a5b5315ae58d5ccd5c15c56786b77b5b7009804")


def test_phase_one_agrees_with_full_pipeline():
    for n, p, seed in [(40, 0.3, 0), (60, 0.2, 1), (12, 0.2, 0)]:
        doc = phase_one(n, p, seed)
        report = full_pipeline(n, p, seed, q_override=1.0, retries=8)
        min_degree = next(s["detail"] for s in report.stage_outcomes
                          if s["stage"] == "min_degree")
        assert (min_degree["x_plus"], min_degree["y_minus"]) == (doc["x_plus"], doc["y_minus"])
        assert report.delta == doc["delta"]
        assert report.matchings == doc.get("matchings", [])
        assert report.one_factors == doc.get("one_factors", [])


def heaviness_by_vertex(d, factors):
    """The screen's counts, one is_heavy call per screened vertex."""
    min_len = d.n / math.log(d.n) ** 3
    counts = []
    for f in factors:
        screened = [c for c in f.cycles if len(c) >= min_len]
        heavy = sum(is_heavy(v, c.vertices, HEAVY_LEVEL, d)
                    for c in screened for v in c.vertices)
        counts.append({"screened_cycles": len(screened), "heavy_vertices": heavy})
    return counts


def one_factor(image):
    return OneFactor(len(image), [Cycle(c) for c in Permutation(image).cycles()])


class TestHeavinessScreen:
    @given(st.integers(3, 12), st.data())
    def test_matches_per_vertex_count(self, n, data):
        universe = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = data.draw(st.lists(st.sampled_from(universe), unique=True))
        images = data.draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
        d, factors = Digraph(n, edges), [one_factor(im) for im in images]
        assert _screen_heaviness(d, factors)["per_factor"] == heaviness_by_vertex(d, factors)

    def test_boundary_counts_as_heavy(self):
        # one 18-cycle: the level asks for 2 neighbours inside it
        factor = one_factor(list(range(2, 19)) + [1])
        d = Digraph(18, [(1, 5), (1, 9), (2, 7), (11, 2), (4, 3), (6, 3), (8, 12)])
        # 1 has 2 out, 3 has 2 in; 2 has 1 out and 1 in, so it stays light
        assert heaviness_by_vertex(d, [factor]) == [{"screened_cycles": 1, "heavy_vertices": 2}]
        assert _screen_heaviness(d, [factor])["per_factor"] == heaviness_by_vertex(d, [factor])
