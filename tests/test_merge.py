"""Merge engine: opening, rotation, closing, designation, factor conversion."""

import pytest

from hampack.errors import Failure, InvalidInputError
from hampack.exposure import AvailableEdgeSet, ExposureLedger
from hampack import merge
from hampack.graphs import Cycle, OneFactor, Permutation, matching_to_one_factor
from hampack.merge import (
    DesignationLedger,
    MergeResult,
    MergeSettings,
    choose_designated,
    convert_all,
    merge_two_cycles,
    one_factor_to_hamilton,
)
from hampack.rng import SeededRng


def pool_without(n: int, excluded) -> AvailableEdgeSet:
    ex = set(excluded)
    return AvailableEdgeSet.from_pairs(
        n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if u != v and (u, v) not in ex])


def fast_settings(n: int, **kw) -> MergeSettings:
    return MergeSettings(n=n, p=kw.pop("p", 0.5), q=kw.pop("q", 1.0), **kw)


def streams(seed: int) -> tuple[SeededRng, SeededRng]:
    return SeededRng(seed, "sprinkling"), SeededRng(seed, "closure")


class TestMergeSettings:
    def test_rotation_target_with_unit_rate(self):
        assert fast_settings(10).rotation_target() == 1
        assert fast_settings(10, q=1e-4).rotation_target() == 3

    def test_nominal_opening_size_grows_with_cycle(self):
        s = fast_settings(50, p=0.2)
        assert s.nominal_opening_size(10) > s.nominal_opening_size(1) > 0

    def test_strict_mode_forbids_retries(self):
        with pytest.raises(InvalidInputError):
            MergeSettings(n=10, p=0.5, q=0.5, mode="strict")
        MergeSettings(n=10, p=0.5, q=0.5, mode="strict", retries=0)

    @pytest.mark.parametrize("mode", ["practical", "strict"])
    def test_negative_retries_rejected(self, mode):
        with pytest.raises(InvalidInputError, match="need retries >= 0, got -1"):
            MergeSettings(n=10, p=0.5, q=0.5, mode=mode, retries=-1)


class TestMergeTwoCycles:
    def test_frozen_two_cycle_merge(self):
        cycle = Cycle(range(1, 9))
        absorbee = Cycle([9, 10])
        blocked = [(9, u) for u in range(2, 9)]
        pool = pool_without(10, Cycle(range(1, 9)).edges() + absorbee.edges() + blocked)
        ledger = ExposureLedger()
        result = merge_two_cycles(cycle, absorbee, 9, pool, fast_settings(10),
                                  ledger, *streams(0))
        assert result.ok
        merged = result.outcome
        assert set(merged.vertices) == set(range(1, 11))
        # the only eligible opening edge is (9, 1); the base path is
        # (10, 9, 1, ..., 8) so the closing edge runs 8 -> 10
        assert result.opening_edge == (9, 1)
        assert result.closing_edge == (8, 10)
        assert result.consumed == ((8, 10), (9, 1))
        assert (9, 1) not in pool and (8, 10) not in pool
        assert merged.vertices == (1, 2, 3, 4, 5, 6, 7, 8, 10, 9)

    def test_singleton_absorbee_path_shape(self):
        cycle = Cycle(range(1, 9))
        absorbee = Cycle([9])
        pool = pool_without(9, cycle.edges())
        result = merge_two_cycles(cycle, absorbee, 9, pool, fast_settings(9),
                                  ExposureLedger(), *streams(0))
        assert result.ok
        assert result.diagnostics["m"] == 9
        assert set(result.outcome.vertices) == set(range(1, 10))

    def test_edge_provenance(self):
        cycle = Cycle(range(1, 9))
        absorbee = Cycle([9, 10, 11])
        original = set(cycle.edges()) | set(absorbee.edges())
        pool = pool_without(11, original)
        result = merge_two_cycles(cycle, absorbee, 10, pool, fast_settings(11),
                                  ExposureLedger(), *streams(4))
        assert result.ok
        for e in result.outcome.edges():
            assert e in original or e in set(result.consumed)

    def test_requires_disjoint_cycles(self):
        with pytest.raises(InvalidInputError):
            merge_two_cycles(Cycle([1, 2, 3]), Cycle([3, 4]), 3,
                             pool_without(4, []), fast_settings(4),
                             ExposureLedger(), *streams(0))

    def test_requires_designated_on_absorbee(self):
        with pytest.raises(InvalidInputError):
            merge_two_cycles(Cycle([1, 2, 3]), Cycle([4, 5]), 1,
                             pool_without(5, []), fast_settings(5),
                             ExposureLedger(), *streams(0))

    def test_step2_failure_exhausts_retries(self):
        cycle = Cycle(range(1, 6))
        absorbee = Cycle([6])
        pool = pool_without(6, cycle.edges())
        ledger = ExposureLedger()
        result = merge_two_cycles(cycle, absorbee, 6, pool, fast_settings(6, q=0.0),
                                  ledger, *streams(0))
        assert not result.ok
        assert result.outcome.stage == "step2"
        assert result.attempts == 4
        assert result.outcome.detail["attempts"] == 4
        # 5 eligible opening edges attempted on each of the 4 tries
        assert ledger.total_attempts == 20
        assert pool.removal_log == []

    def test_dead_end_merge_stops_after_one_attempt(self, monkeypatch):
        # no pool edge leaves v1 = 6 into the cycle, so every attempt would
        # draw nothing; the merge scans once, draws nothing and still
        # reports the whole budget, exactly as when all 9 attempts ran
        cycle = Cycle(range(1, 6))
        absorbee = Cycle([6])
        pool = pool_without(6, list(cycle.edges()) + [(6, u) for u in range(1, 6)])
        scans, tries = [], []
        edges_out_of = AvailableEdgeSet.edges_out_of
        monkeypatch.setattr(AvailableEdgeSet, "edges_out_of",
                            lambda self, *a: scans.append(a) or edges_out_of(self, *a))
        merge_once = merge._merge_once
        monkeypatch.setattr(merge, "_merge_once", lambda *a: tries.append(a) or merge_once(*a))
        sprinkle, closure = streams(0)
        ledger = ExposureLedger()
        result = merge_two_cycles(cycle, absorbee, 6, pool, fast_settings(6, retries=8),
                                  ledger, sprinkle, closure)
        assert len(scans) == len(tries) == 1
        assert sprinkle.n_bernoulli == closure.n_bernoulli == ledger.total_attempts == 0
        assert result == MergeResult(
            outcome=Failure("step2", {"eligible": 0, "attempted": 0, "attempts": 9}),
            attempts=9)
        assert pool.removal_log == []

    def test_step5_failure_when_closing_edge_missing(self):
        cycle = Cycle([1, 2, 3])
        absorbee = Cycle([4])
        pool = pool_without(4, list(cycle.edges()) + [(3, 4), (2, 4), (1, 4)])
        result = merge_two_cycles(cycle, absorbee, 4, pool, fast_settings(4),
                                  ExposureLedger(), *streams(0))
        assert not result.ok
        assert result.outcome.stage == "step5"

    def test_strict_mode_empty_opening_set(self):
        # nominal size far exceeds the eligible count, so strict mode takes
        # the empty set and step 2 must fail
        cycle = Cycle(range(1, 6))
        absorbee = Cycle([6])
        pool = pool_without(6, cycle.edges())
        settings = MergeSettings(n=6, p=0.5, q=1.0, mode="strict", retries=0)
        ledger = ExposureLedger()
        result = merge_two_cycles(cycle, absorbee, 6, pool, settings, ledger, *streams(0))
        assert not result.ok
        assert result.outcome.stage == "step2"
        assert result.outcome.detail["attempted"] == 0
        assert ledger.total_attempts == 0

    def test_failure_leaves_pool_untouched(self):
        cycle = Cycle([1, 2, 3])
        absorbee = Cycle([4])
        pool = pool_without(4, list(cycle.edges()) + [(3, 4), (2, 4), (1, 4)])

        def contents():
            return len(pool), {(u, v) for u in range(1, 5) for v in range(1, 5) if (u, v) in pool}

        before = contents()
        result = merge_two_cycles(cycle, absorbee, 4, pool, fast_settings(4),
                                  ExposureLedger(), *streams(1))
        assert not result.ok
        assert contents() == before
        assert pool.removal_log == []

    def test_replay_identical(self):
        def run(seed):
            pool = pool_without(10, Cycle(range(1, 8)).edges())
            result = merge_two_cycles(Cycle(range(1, 8)), Cycle([8, 9, 10]), 9,
                                      pool, fast_settings(10), ExposureLedger(),
                                      *streams(seed))
            return (result.ok, result.opening_edge, result.closing_edge, result.consumed)

        assert run(21) == run(21)


class TestDesignation:
    def test_alignment_with_cycle_order(self):
        factor = OneFactor(6, [Cycle([1, 2, 3]), Cycle([4, 5]), Cycle([6])])
        ledger = DesignationLedger(6)
        chosen = choose_designated([factor], SeededRng(0, "designation"), ledger)
        assert len(chosen) == 1 and len(chosen[0]) == 2
        assert chosen[0][0] in {4, 5}
        assert chosen[0][1] == 6
        assert sum(ledger.counts.values()) == 2

    def test_longest_cycle_never_designated(self):
        factor = OneFactor(6, [Cycle([5, 6]), Cycle([1, 2, 3, 4])])
        assert factor.cycles[0].vertices == (1, 2, 3, 4)
        ledger = DesignationLedger(6)
        for _ in range(200):
            choose_designated([factor], SeededRng(0, "designation"), ledger)
        assert set(ledger.counts) <= {5, 6}

    def test_uniform_over_absorbed_cycle(self):
        # binomial(1e5, 1/2) has sigma ~ 158, so a 3-sigma band is +-475
        factor = OneFactor(6, [Cycle([1, 2]), Cycle([3, 4, 5, 6])])
        assert factor.cycles[0].vertices == (3, 4, 5, 6)
        rng = SeededRng(123, "designation")
        ledger = DesignationLedger(6)
        for _ in range(100_000):
            choose_designated([factor], rng, ledger)
        for v in (1, 2):
            assert abs(ledger.counts[v] - 50_000) <= 3 * 158.2
        assert set(ledger.counts) == {1, 2}

    def test_threshold_and_flagging(self):
        ledger = DesignationLedger(100)
        bound = ledger.threshold(0.4)
        for _ in range(int(bound) + 1):
            ledger.record(7)
        ledger.record(8)
        assert ledger.flagged(0.4) == [[7, int(bound) + 1]]


class TestFactorConversion:
    def test_single_cycle_factor_is_immediate(self):
        factor = OneFactor(10, [Cycle(range(1, 11))])
        pool = pool_without(10, factor.edges())
        ledger = ExposureLedger()
        out, log = one_factor_to_hamilton(factor, (), pool, fast_settings(10),
                                          ledger, *streams(0))
        assert isinstance(out, Cycle) and len(out) == 10
        assert log == [] and ledger.total_attempts == 0

    def test_designation_arity_checked(self):
        factor = OneFactor(4, [Cycle([1, 2, 3]), Cycle([4])])
        with pytest.raises(InvalidInputError):
            one_factor_to_hamilton(factor, (), pool_without(4, []),
                                   fast_settings(4), ExposureLedger(), *streams(0))

    def test_failure_tagged_with_merge_index(self):
        factor = OneFactor(6, [Cycle([1, 2, 3, 4]), Cycle([5, 6])])
        pool = AvailableEdgeSet.from_pairs(6, [])
        out, log = one_factor_to_hamilton(factor, (5,), pool,
                                          fast_settings(6), ExposureLedger(), *streams(0))
        assert isinstance(out, Failure)
        assert out.stage == "merge[1].step2"
        assert log[0]["ok"] is False

    def test_two_disjoint_factors_convert_to_disjoint_hamiltons(self):
        shift1 = matching_to_one_factor(10, tuple(range(1, 11)),
                                        Permutation([i % 10 + 1 for i in range(1, 11)]))
        shift2 = matching_to_one_factor(10, tuple(range(1, 11)),
                                        Permutation([(i + 1) % 10 + 1 for i in range(1, 11)]))
        assert len(shift1.cycles) == 1
        assert [len(c) for c in shift2.cycles] == [5, 5]
        used = set(shift1.edges()) | set(shift2.edges())
        pool = pool_without(10, used)
        designations = DesignationLedger(10)
        chosen = choose_designated([shift1, shift2], SeededRng(2, "designation"), designations)
        out, logs = convert_all([shift1, shift2], chosen, pool, fast_settings(10),
                                ExposureLedger(), *streams(2))
        assert not isinstance(out, Failure)
        h1, h2 = out
        assert len(h1) == 10 and len(h2) == 10
        assert set(h1.edges()) & set(h2.edges()) == set()
        # first factor was already a Hamilton cycle and is untouched
        assert set(h1.edges()) == set(shift1.edges())

    def test_factor_failure_tagged(self):
        shift1 = matching_to_one_factor(6, tuple(range(1, 7)),
                                        Permutation([2, 3, 4, 5, 6, 1]))
        pair_factor = matching_to_one_factor(6, tuple(range(1, 7)),
                                             Permutation([2, 1, 4, 3, 6, 5]))
        pool = AvailableEdgeSet.from_pairs(6, [])
        chosen = choose_designated([shift1, pair_factor], SeededRng(0, "designation"),
                                   DesignationLedger(6))
        out, logs = convert_all([shift1, pair_factor], chosen, pool, fast_settings(6),
                                ExposureLedger(), *streams(0))
        assert isinstance(out, Failure)
        assert out.stage.startswith("factor[1].merge[1].")

    def test_bulk_random_factors(self):
        ok = 0
        for seed in range(40):
            rng = SeededRng(seed, "permutation")
            pi = Permutation(rng.uniform_permutation(12))
            sigma = Permutation(rng.uniform_permutation(12))
            factor = matching_to_one_factor(12, sigma.image, pi)
            pool = pool_without(12, factor.edges())
            chosen = choose_designated([factor], SeededRng(seed, "designation"),
                                       DesignationLedger(12))
            out, _ = convert_all([factor], chosen, pool, fast_settings(12),
                                 ExposureLedger(), *streams(seed))
            if isinstance(out, Failure):
                continue
            ok += 1
            ham = out[0]
            assert len(ham) == 12
            original = set(factor.edges())
            consumed = set(pool.removal_log)
            for e in ham.edges():
                assert e in original or e in consumed
        assert ok >= 32
