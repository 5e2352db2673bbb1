"""The constant-query tester: sample sizes, verdicts, uniformity, queries."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from bttest import tester
from bttest.tournament import MAX_PAIRS
from conftest import oracle_unbalanced_count, reference_triangle


class TestSampleSize:
    def test_frozen_values(self):
        # ceil(ln 3 / -ln(1-eps)) evaluated by hand
        assert bt.sample_size(0.5) == 2
        assert bt.sample_size(0.1) == 11
        assert bt.sample_size(0.01) == 110

    def test_below_two_over_eps(self):
        for eps in np.linspace(0.005, 0.995, 100):
            assert bt.sample_size(float(eps)) < 2.0 / eps

    def test_failure_bound(self):
        for eps in np.linspace(0.005, 0.995, 100):
            for delta in (1.0 / 3.0, 0.1, 0.01):
                k = bt.sample_size(float(eps), delta)
                assert (1.0 - eps) ** k <= delta * (1.0 + 1e-12)

    def test_delta_monotone(self):
        assert bt.sample_size(0.1, 0.01) >= bt.sample_size(0.1, 1.0 / 3.0)

    def test_validation(self):
        for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(bt.ParameterOutOfRangeError):
                bt.sample_size(eps, delta)

    def test_a_count_past_the_pair_ceiling_is_refused(self):
        assert bt.sample_size(1e-12) <= MAX_PAIRS  # every eps >= 1e-12 at delta = 1/3
        for eps in (1e-13, 1e-300, 5e-324):  # 5e-324 asks for inf samples
            with pytest.raises(bt.ParameterOutOfRangeError, match="more than 2\\*\\*40"):
                bt.sample_size(eps)
        with pytest.raises(bt.ParameterOutOfRangeError, match="more than 2\\*\\*40"):
            bt.TesterConfig(eps=1e-300)


class TestConfig:
    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, np.int64(-3), "1"])
    def test_seed_checked_where_given(self, seed):
        # numpy would refuse -1 only inside test_bt, and draw OS entropy for None
        with pytest.raises(bt.ParameterOutOfRangeError, match="seed"):
            bt.TesterConfig(eps=0.5, seed=seed)

    def test_numpy_integer_seeds_accepted(self, cyclic3):
        expected = bt.test_bt(cyclic3, bt.TesterConfig(eps=0.5, seed=3))
        for seed in (np.int64(3), np.uint64(3), np.uint8(3)):
            assert bt.test_bt(cyclic3, bt.TesterConfig(eps=0.5, seed=seed)) == expected
        assert bt.test_bt(cyclic3, bt.TesterConfig(eps=0.5, seed=2**70)).samples_used == 1

    def test_validation(self):
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.TesterConfig(eps=1.5)
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.TesterConfig(eps=0.5, delta=1.0)
        # a NaN bound would accept every triangle, so a far input would pass
        for eps_balance in (0.0, float("nan")):
            with pytest.raises(bt.ParameterOutOfRangeError):
                bt.TesterConfig(eps=0.5, eps_balance=eps_balance)


class TestVerdicts:
    def test_cyclic3_rejects_with_witness(self, cyclic3):
        # only one triangle exists, so it is sampled immediately
        v = bt.test_bt(cyclic3, bt.TesterConfig(eps=0.5, seed=0))
        assert not v.accepted
        assert v.outcome == "reject"
        assert v.witness.vertices() == (0, 1, 2)
        assert v.samples_used == 1

    def test_bt_accepts(self, bt124):
        for seed in range(50):
            v = bt.test_bt(bt124, bt.TesterConfig(eps=0.3, seed=seed))
            assert v.accepted
            assert v.witness is None
            assert v.samples_used == bt.sample_size(0.3)

    def test_tiny_weights_stored_against_query_accepted(self, floor_bt3):
        for seed in range(20):
            assert bt.test_bt(floor_bt3, bt.TesterConfig(eps=0.5, seed=seed)).accepted

    def test_one_sided_on_balanced_inputs(self):
        rng = np.random.default_rng(12)
        t = bt.gen_bt(rng.uniform(0.1, 10.0, size=12))
        for seed in range(200):
            assert bt.test_bt(t, bt.TesterConfig(eps=0.1, seed=seed)).accepted

    def test_witness_recheckable(self):
        t = bt.gen_perturbed(bt.gen_bt(np.ones(8)), 0.3, 1)
        rejected = 0
        for seed in range(30):
            v = bt.test_bt(t, bt.TesterConfig(eps=0.2, seed=seed))
            if not v.accepted:
                rejected += 1
                assert not bt.is_balanced(t, v.witness)
                assert v.samples_used <= bt.sample_size(0.2)
        assert rejected > 0

    def test_deterministic_given_seed(self):
        t = bt.gen_random(15, 2)
        a = bt.test_bt(t, bt.TesterConfig(eps=0.1, seed=77))
        b = bt.test_bt(t, bt.TesterConfig(eps=0.1, seed=77))
        assert a == b

    def test_too_few_vertices(self):
        t = bt.new_tournament(2, [(0, 1, 0.5)])
        with pytest.raises(bt.TooFewVerticesError):
            bt.test_bt(t, bt.TesterConfig(eps=0.5, seed=0))

    def test_eps_balance_switch(self, fair3):
        # lambda = 1.05: rejected under exact balance, accepted under the
        # multiplicative predicate at eps = 0.1
        t = bt.set_prob(fair3, 0, 1, 1.05 / 2.05)
        strict = bt.test_bt(t, bt.TesterConfig(eps=0.5, seed=0))
        loose = bt.test_bt(t, bt.TesterConfig(eps=0.5, seed=0, eps_balance=0.1))
        assert not strict.accepted
        assert loose.accepted


class TestQueryComplexity:
    class _CountingView:
        """Duck-typed tournament that counts edge queries: one per entry of
        the index arrays handed to ``log_odds``."""

        def __init__(self, t):
            self._t = t
            self.n = t.n
            self.calls = 0

        def log_odds(self, x, y):
            self.calls += np.size(x)
            return self._t.log_odds(x, y)

    def test_queries_at_most_three_per_sample(self):
        for n in (5, 40, 200):
            t = bt.gen_bt(np.linspace(1.0, 3.0, n))
            view = self._CountingView(t)
            cfg = bt.TesterConfig(eps=0.1, seed=4)
            verdict = bt.test_bt(view, cfg)
            assert verdict.accepted
            assert view.calls == 3 * bt.sample_size(0.1)  # independent of n
            assert verdict.queries == view.calls

    def test_early_stop_queries(self, cyclic3):
        view = self._CountingView(cyclic3)
        verdict = bt.test_bt(view, bt.TesterConfig(eps=0.5, seed=0))
        assert view.calls == 3  # rejected on the first triangle
        assert verdict.queries == view.calls

    def test_late_reject_reads_fewer_than_six_edges_per_sample(self):
        # one unbalanced triangle among C(12, 3) = 220: rejects come late
        t = bt.set_prob(bt.gen_bt(np.ones(12)), 0, 1, 0.9)
        late = 0
        for seed in range(40):
            view = self._CountingView(t)
            verdict = bt.test_bt(view, bt.TesterConfig(eps=1e-3, seed=seed))
            assert verdict.queries == view.calls
            if not verdict.accepted:
                late += verdict.samples_used > 1
                assert view.calls < 6 * verdict.samples_used
        assert late > 0


class TestSamplingUniformity:
    def test_every_triangle_within_five_se(self):
        n, draws = 6, 20000
        rng = np.random.default_rng(123)
        counts = {tri: 0 for tri in combinations(range(n), 3)}
        for _ in range(draws):
            counts[bt.sample_triangle(rng, n).vertices()] += 1
        total_triangles = math.comb(n, 3)
        p = 1.0 / total_triangles
        se = math.sqrt(p * (1.0 - p) / draws)
        for c in counts.values():
            assert abs(c / draws - p) <= 5.0 * se

    def test_needs_three_vertices(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 2):
            with pytest.raises(bt.TooFewVerticesError):
                bt.sample_triangle(rng, n)

    def test_vertices_distinct_and_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            tri = bt.sample_triangle(rng, 4)
            assert len(set(tri.vertices())) == 3
            assert all(0 <= v < 4 for v in tri.vertices())

    def test_frozen_draw_sequence(self):
        # pins the PCG64 + partial-Fisher-Yates scheme: recorded seeds stay
        # meaningful only while this exact sequence is produced
        rng = np.random.default_rng(0)
        seq = [bt.sample_triangle(rng, 10).vertices() for _ in range(6)]
        assert seq == [
            (1, 6, 8),
            (0, 2, 3),
            (0, 1, 3),
            (6, 8, 9),
            (5, 6, 9),
            (1, 6, 7),
        ]

    def test_frozen_verdict(self):
        t = bt.gen_random(12, 8)
        v = bt.test_bt(t, bt.TesterConfig(eps=0.2, seed=99))
        assert not v.accepted
        assert v.witness.vertices() == (6, 9, 11)
        assert v.samples_used == 1


class TestBoundedSampling:
    @pytest.mark.parametrize("n", [3, 4, 100, 2**33])
    def test_chunked_draws_match_one_draw(self, n):
        k = 2 * tester._CHUNK + 5
        draws = np.random.default_rng(5).integers(np.tile(np.arange(3), k), n)
        expected = [reference_triangle(d) for d in draws.reshape(k, 3).tolist()]
        for chunk in (1, tester._CHUNK):
            got = list(tester._triangles(np.random.default_rng(5), n, k, chunk))
            assert all(tri.shape[1:] == (3,) for tri in got)
            assert max(len(tri) for tri in got) == tester._CHUNK
            assert [tuple(row) for tri in got for row in tri.tolist()] == expected

    @pytest.mark.parametrize("eps, calls", [(0.1, 2), (0.01, 2), (1e-3, 6)])
    def test_generator_calls_per_accept(self, monkeypatch, eps, calls):
        # k = 11, 110, 1099: chunk 1 alone, chunks 2-64 in one call, then one per chunk
        draws = self._count_draws(monkeypatch)
        t = bt.gen_bt(np.linspace(1.0, 3.0, 100))
        assert bt.test_bt(t, bt.TesterConfig(eps=eps, seed=2)).accepted
        assert len(draws) == calls
        assert sum(d[0] for d in draws) == bt.sample_size(eps)

    def test_reject_at_sample_one_draws_one_triangle(self, monkeypatch, cyclic3):
        draws = self._count_draws(monkeypatch)
        verdict = bt.test_bt(cyclic3, bt.TesterConfig(eps=1e-3, seed=0))
        assert verdict.samples_used == 1
        assert draws == [(1, 3)]

    @staticmethod
    def _count_draws(monkeypatch):
        """The shapes of the ``integers`` calls the tester's generator gets."""
        draws = []

        class Counting:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def integers(self, *args, **kwargs):
                out = self._rng.integers(*args, **kwargs)
                draws.append(out.shape)
                return out

        monkeypatch.setattr(tester, "_rng", Counting)
        return draws

    def test_memory_does_not_grow_with_sample_size(self):
        t = bt.gen_cyclic(50, 0.9)
        tracemalloc.start()
        try:
            bt.test_bt(t, bt.TesterConfig(eps=1e-6))  # about 1.1e6 samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestEstimateUnbalancedFraction:
    def test_bt_is_zero(self, bt124):
        assert bt.estimate_unbalanced_fraction(bt124, 100, 0) == 0.0

    def test_cyclic3_is_one(self, cyclic3):
        assert bt.estimate_unbalanced_fraction(cyclic3, 50, 0) == 1.0

    def test_matches_exhaustive_count(self):
        t = bt.gen_cyclic(9, 0.9)
        exact = oracle_unbalanced_count(t) / math.comb(9, 3)
        samples = 4000
        est = bt.estimate_unbalanced_fraction(t, samples, 7)
        se = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(est - exact) <= 3.0 * se

    def test_validation(self, cyclic3):
        for samples in (0, float("nan"), 2.5, True):
            with pytest.raises(bt.ParameterOutOfRangeError):
                bt.estimate_unbalanced_fraction(cyclic3, samples, 0)

    @pytest.mark.parametrize("samples", [MAX_PAIRS + 1, 10**30])
    def test_a_count_past_the_ceiling_draws_nothing(self, monkeypatch, cyclic3, samples):
        # refused before any draw: without the ceiling the call draws until killed
        monkeypatch.setattr(tester, "_rng", None)
        with pytest.raises(bt.ParameterOutOfRangeError, match=r"in \[1, 2\*\*40\]"):
            bt.estimate_unbalanced_fraction(cyclic3, samples, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, False])
    def test_seed_validation(self, cyclic3, seed):
        with pytest.raises(bt.ParameterOutOfRangeError, match="seed"):
            bt.estimate_unbalanced_fraction(cyclic3, 10, seed)
