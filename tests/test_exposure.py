"""Exposure engine: derived parameters, exposure rounds, availability, audit.

Reference values were computed independently at 40-digit precision from the
closed forms p1 = sqrt(p/(n log^4 n)), q = sqrt(p/(n log^8 n)) and the
splitting identity (1-p0)(1-p1) = 1-p, then frozen here.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hampack.errors import InvalidInputError, ParameterRangeError
from hampack.exposure import (
    EPSILON_DENSITY,
    AvailableEdgeSet,
    ExposureLedger,
    coupling_audit,
    derive_parameters,
    expose,
    expose_many,
    first_exposure,
    init_available_edges,
    second_exposure,
    strict_density_window,
)
from hampack.graphs import BipartiteGraph, Digraph
from hampack.rng import SeededRng


class TestDeriveParameters:
    def test_frozen_reference_values(self):
        params = derive_parameters(4096, 0.1)
        assert params.p1 == pytest.approx(7.14178236892519248e-05, rel=1e-12)
        assert params.q == pytest.approx(1.03226974248428081e-06, rel=1e-12)
        assert params.p0 == pytest.approx(0.09993571936789682309, rel=1e-12)
        assert params.clamped == ()

    def test_splitting_identity(self):
        for n in (5, 64, 1000, 4096):
            for p in (0.0, 0.05, 0.3, 0.9, 1.0):
                params = derive_parameters(n, p)
                assert (1 - params.p0_raw) * (1 - params.p1_raw) == pytest.approx(1 - p, abs=1e-12)

    def test_q_is_p1_over_log_squared(self):
        params = derive_parameters(4096, 0.1)
        assert params.q == pytest.approx(params.p1 / math.log(4096) ** 2, rel=1e-12)

    def test_p_zero_gives_all_zero(self):
        params = derive_parameters(100, 0.0)
        assert params.p0 == params.p1 == params.q == 0.0

    def test_p_one_gives_p0_one(self):
        params = derive_parameters(100, 1.0)
        assert params.p0 == 1.0
        assert 0 < params.p1 < 1 and 0 < params.q < 1

    def test_tiny_p_clamps_p0_to_zero(self):
        params = derive_parameters(5, 0.001)
        assert params.clamped == ("p0",)
        assert params.p0 == 0.0
        assert params.p0_raw < 0.0

    def test_epsilon_constant(self):
        assert EPSILON_DENSITY == pytest.approx(2.672126279413046e-06, rel=1e-12)

    def test_strict_window_empty_at_desk_scale(self):
        low, high = strict_density_window(100)
        assert low > 1.0 > high

    def test_strict_mode_rejects_desk_scale(self):
        with pytest.raises(ParameterRangeError):
            derive_parameters(100, 0.2, mode="strict")

    def test_preconditions(self):
        with pytest.raises(ParameterRangeError):
            derive_parameters(4, 0.5)
        with pytest.raises(ParameterRangeError):
            derive_parameters(100, 1.5)
        with pytest.raises(ParameterRangeError):
            derive_parameters(100, -0.1)
        with pytest.raises(InvalidInputError):
            derive_parameters(100, 0.5, mode="turbo")


class TestSeededRng:
    def test_replay_identical(self):
        a = SeededRng(42, "phase1")
        b = SeededRng(42, "phase1")
        assert [a.bernoulli(0.5) for _ in range(50)] == [b.bernoulli(0.5) for _ in range(50)]
        assert a.uniform_permutation(10) == b.uniform_permutation(10)

    def test_streams_differ(self):
        a = SeededRng(42, "phase1")
        b = SeededRng(42, "closure")
        assert [a.bernoulli(0.5) for _ in range(50)] != [b.bernoulli(0.5) for _ in range(50)]

    def test_bernoulli_counted(self):
        rng = SeededRng(0, "phase1")
        rng.bernoulli(0.5)
        rng.bernoulli_matrix(3, 4, 0.5)
        assert rng.n_bernoulli == 13

    def test_permutation_is_bijection(self):
        rng = SeededRng(7, "permutation")
        assert sorted(rng.uniform_permutation(30)) == list(range(1, 31))

    def test_sample_distinct(self):
        rng = SeededRng(7, "sprinkling")
        seq = list(range(100))
        got = rng.sample(seq, 10)
        assert len(set(got)) == 10

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="need seed >= 0, got -1"):
            SeededRng(-1, "phase1")


class TestExposeAndLedger:
    def test_attempts_and_successes_recorded(self):
        ledger = ExposureLedger()
        rng = SeededRng(1, "sprinkling")
        for _ in range(5):
            expose((1, 2), 1.0, ledger, rng)
        for _ in range(3):
            expose((3, 4), 0.0, ledger, rng)
        assert ledger.attempts == {(1, 2): 5, (3, 4): 3}
        assert ledger.successes == {(1, 2)}
        assert ledger.total_attempts == 8
        assert ledger.total_successes == 5
        assert ledger.max_attempts() == 5

    def test_draws_match_attempts(self):
        ledger = ExposureLedger()
        rng = SeededRng(2, "closure")
        for i in range(20):
            expose((1 + i % 3, 5), 0.5, ledger, rng)
        assert rng.n_bernoulli == ledger.total_attempts == 20


class TestBatchedExposure:
    """A batch of k exposures equals k scalar exposures on a twin stream."""

    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 300))
    def test_bulk_doubles_equal_scalar_doubles(self, seed, k):
        # the premise of batching: random(k) consumes PCG64 exactly as k
        # scalar random() calls, and the streams agree afterwards too
        bulk, scalar = SeededRng(seed, "sprinkling"), SeededRng(seed, "sprinkling")
        assert bulk._gen.random(k).tolist() == [scalar._gen.random() for _ in range(k)]
        assert bulk._gen.random() == scalar._gen.random()

    @given(seed=st.integers(0, 2 ** 32),
           edges=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=40),
           prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           pre=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5))
    @example(seed=0, edges=[], prob=0.5, pre=[])
    @example(seed=1, edges=[(1, 2), (1, 2), (2, 1)], prob=0.5, pre=[(1, 2)])
    @example(seed=2, edges=[(1, 2), (3, 4)], prob=0.0, pre=[])
    @example(seed=3, edges=[(1, 2), (3, 4), (1, 2)], prob=1.0, pre=[])
    def test_expose_many_equals_scalar_loop(self, seed, edges, prob, pre):
        batch_rng, loop_rng = SeededRng(seed, "closure"), SeededRng(seed, "closure")
        batch = ExposureLedger()
        # a ledger that already holds attempts, so the batch adds to them
        expose_many(pre, 0.5, batch, batch_rng)
        attempts = dict(batch.attempts)
        successes, hits = set(batch.successes), []
        for _ in pre:
            loop_rng.bernoulli(0.5)
        for e in edges:
            attempts[e] = attempts.get(e, 0) + 1
            if loop_rng.bernoulli(prob):
                hits.append(e)
                successes.add(e)
        total_successes = batch.total_successes + len(hits)
        assert expose_many(edges, prob, batch, batch_rng) == hits
        assert batch.attempts == attempts
        assert batch.successes == successes
        assert batch.total_attempts == len(pre) + len(edges) == sum(attempts.values())
        assert batch.total_successes == total_successes
        assert batch_rng.n_bernoulli == loop_rng.n_bernoulli == len(pre) + len(edges)
        assert batch_rng._gen.random() == loop_rng._gen.random()

    def test_second_exposure_draws_row_then_column_as_scalars(self):
        # the batched round equals one scalar draw per absent pair, the row
        # of x_plus first, then the column of y_minus without x_plus
        n, x_plus, y_minus = 9, 3, 5
        b = BipartiteGraph(n, [(x_plus, 1), (x_plus, 5), (2, y_minus), (7, 7)])
        twin = SeededRng(4, "phase1")
        expected = set(b.edges())
        for x, y in ([(x_plus, y) for y in range(1, n + 1)]
                     + [(x, y_minus) for x in range(1, n + 1) if x != x_plus]):
            if not b.has_edge(x, y) and twin.bernoulli(0.5):
                expected.add((x, y))
        rng = SeededRng(4, "phase1")
        assert set(second_exposure(b, x_plus, y_minus, 0.5, rng).edges()) == expected
        # the row's 9 pairs less its 2 edges, the column's 8 less its 1
        assert rng.n_bernoulli == twin.n_bernoulli == 14


class TestFirstExposure:
    def test_extremes(self):
        rng = SeededRng(0, "phase1")
        empty = first_exposure(6, 0.0, rng)
        assert empty.edge_count == 0
        full = first_exposure(6, 1.0, rng)
        assert full.edge_count == 36

    def test_mean_edge_count(self):
        # 200 seeds at n=50, p0=0.3: per-trial variance n^2 p (1-p) = 525,
        # so a 3-sigma band for the mean of 200 trials is 750 +- 4.86
        counts = [first_exposure(50, 0.3, SeededRng(seed, "phase1")).edge_count
                  for seed in range(200)]
        mean = sum(counts) / len(counts)
        assert abs(mean - 750.0) <= 3 * math.sqrt(525.0 / 200.0)

    def test_deterministic(self):
        a = first_exposure(20, 0.4, SeededRng(5, "phase1"))
        b = first_exposure(20, 0.4, SeededRng(5, "phase1"))
        assert a == b


class TestSecondExposure:
    def test_only_row_and_column_touched(self):
        base = first_exposure(12, 0.3, SeededRng(3, "phase1"))
        out = second_exposure(base, 4, 7, 1.0, SeededRng(3, "phase1"))
        new = set(out.edges()) - set(base.edges())
        assert new
        assert all(x == 4 or y == 7 for x, y in new)
        assert out.deg_x(4) == 12 and out.deg_y(7) == 12

    def test_union_preserves_existing(self):
        base = first_exposure(10, 0.5, SeededRng(9, "phase1"))
        out = second_exposure(base, 1, 1, 0.5, SeededRng(10, "phase1"))
        assert set(base.edges()) <= set(out.edges())

    def test_shared_pair_drawn_once(self):
        base = BipartiteGraph(5, [])
        rng = SeededRng(0, "phase1")
        second_exposure(base, 2, 3, 0.5, rng)
        # full row (5 draws) plus column minus the shared pair (4 draws)
        assert rng.n_bernoulli == 9

    def test_present_edges_not_redrawn(self):
        base = BipartiteGraph(5, [(2, 1), (2, 3), (4, 3)])
        rng = SeededRng(0, "phase1")
        out = second_exposure(base, 2, 3, 0.0, rng)
        assert rng.n_bernoulli == 9 - 3
        assert out == base


def pool_members(pool: AvailableEdgeSet) -> set[tuple[int, int]]:
    """The pool's contents, by membership over all n^2 pairs."""
    n = pool.n
    return {(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if (u, v) in pool}


def explicit_pool(d: Digraph, x_plus: int, target: int) -> set[tuple[int, int]]:
    """The initial pool enumerated pair by pair from its definition."""
    n = d.n
    return {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if u != v and u != x_plus and v != target and not d.has_edge(u, v)}


@st.composite
def pool_inputs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    d = Digraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    x_plus = draw(st.integers(1, n))
    target = draw(st.one_of(st.just(x_plus), st.integers(1, n)))
    return d, x_plus, target


class TestAvailableEdges:
    def test_frozen_four_vertex_example(self):
        pool = init_available_edges(Digraph(4, []), 1, 2)
        assert pool_members(pool) == {(2, 1), (2, 3), (2, 4), (3, 1), (3, 4), (4, 1), (4, 3)}
        assert len(pool) == 7

    def test_frozen_two_vertex_example(self):
        pool = init_available_edges(Digraph(2, []), 1, 2)
        assert pool_members(pool) == {(2, 1)}
        assert len(pool) == 1

    def test_excludes_generated_edges(self):
        d = Digraph(4, [(2, 3), (3, 4)])
        pool = init_available_edges(d, 1, 2)
        assert (2, 3) not in pool
        assert (3, 4) not in pool
        assert (2, 4) in pool

    def test_protected_rows_and_columns(self):
        pool = init_available_edges(Digraph(5, []), 2, 4)
        for u, v in pool_members(pool):
            assert u != 2 and v != 4 and u != v
        assert len(pool_members(pool)) == len(pool) == 13

    def test_removal_is_monotone(self):
        pool = AvailableEdgeSet.from_pairs(4, [(1, 2), (2, 1), (3, 4)])
        pool.remove_edges([(1, 2), (3, 4)])
        assert (1, 2) not in pool and (3, 4) not in pool
        assert pool.removal_log == [(1, 2), (3, 4)]
        assert pool_members(pool) == {(2, 1)}
        with pytest.raises(InvalidInputError):
            pool.remove_edges([(1, 2)])

    def test_queries(self):
        pool = AvailableEdgeSet.from_pairs(5, [(1, 3), (2, 3), (4, 3), (3, 1), (3, 5)])
        assert [(t, 3) for t in [1, 2, 5] if (t, 3) in pool] == [(1, 3), (2, 3)]
        assert pool.edges_out_of(3, [1, 2, 5]) == [(3, 1), (3, 5)]
        assert pool.edges_between([1, 2, 4], [3, 5]) == [(1, 3), (2, 3), (4, 3)]

    def test_from_pairs_rejects_loop(self):
        with pytest.raises(InvalidInputError):
            AvailableEdgeSet.from_pairs(3, [(2, 2)])

    @settings(max_examples=200, deadline=None)
    @given(pool_inputs(), st.data())
    def test_rule_matches_explicit_reference(self, inputs, data):
        d, x_plus, target = inputs
        n = d.n
        pool = init_available_edges(d, x_plus, target)
        expected = explicit_pool(d, x_plus, target)
        listed = AvailableEdgeSet.from_pairs(n, expected)
        assert pool_members(listed) == expected and len(listed) == len(expected)
        removed = data.draw(st.sets(st.sampled_from(sorted(expected)))) if expected else set()
        pool.remove_edges(removed)
        assert pool.removal_log == sorted(removed)
        expected -= removed
        assert len(pool) == len(expected)
        assert pool_members(pool) == expected
        vertex = st.integers(1, n)
        heads = data.draw(st.lists(vertex, max_size=12))
        for tail in range(1, n + 1):
            assert pool.edges_out_of(tail, heads) == [(tail, h) for h in heads
                                                      if (tail, h) in expected]
        tails, heads = data.draw(st.lists(vertex)), data.draw(st.lists(vertex))
        assert pool.edges_between(tails, heads) == sorted(
            (t, h) for t, h in expected if t in tails and h in heads)
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if (u, v) not in expected:
                    with pytest.raises(InvalidInputError):
                        pool.remove_edges([(u, v)])
        assert len(pool) == len(expected)


class TestCouplingAudit:
    def test_flags_match_recomputation(self):
        ledger = ExposureLedger()
        rng = SeededRng(11, "sprinkling")
        params = derive_parameters(50, 0.3)
        bound = math.log(50) ** 2
        for k, edge in enumerate([(1, 2), (2, 3), (3, 4)]):
            for _ in range(7 + 6 * k):
                expose(edge, 0.5, ledger, rng)
        audit = coupling_audit(ledger, params)
        expected_violations = [[u, v, c] for (u, v), c in sorted(ledger.attempts.items())
                               if c > bound]
        assert audit["violations"] == expected_violations
        assert audit["ok"] == (not expected_violations)
        assert audit["max_attempts"] == 19
        assert audit["histogram"] == {"7": 1, "13": 1, "19": 1}

    def test_clean_ledger_passes(self):
        ledger = ExposureLedger()
        rng = SeededRng(0, "closure")
        expose((1, 2), 0.5, ledger, rng)
        audit = coupling_audit(ledger, derive_parameters(50, 0.3))
        assert audit["ok"] and audit["violations"] == []

    def test_bound_equivalence(self):
        # X_e <= log^2 n is the same cut as X_e * q <= p1 because q = p1/log^2 n
        params = derive_parameters(200, 0.4)
        for attempts in range(1, 60):
            assert (attempts <= math.log(200) ** 2) == (attempts * params.q <= params.p1 * (1 + 1e-12))
