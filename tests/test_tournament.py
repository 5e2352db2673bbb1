"""Tournament construction, queries, Markov chains, generators."""

import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from bttest.tournament import logistic, logit
from conftest import dense_probs


class TestNewTournament:
    def test_symmetric_coin(self):
        t = bt.new_tournament(2, [(0, 1, 0.5)])
        assert t.prob(0, 1) == 0.5
        assert t.prob(1, 0) == 0.5

    def test_cyclic_example(self):
        t = bt.new_tournament(3, [(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9)])
        assert t == bt.gen_cyclic(3, 0.9)

    def test_missing_pair(self):
        with pytest.raises(bt.MissingPairError):
            bt.new_tournament(3, [(0, 1, 0.9), (1, 2, 0.9)])

    def test_duplicate_pair(self):
        with pytest.raises(bt.DuplicatePairError):
            bt.new_tournament(2, [(0, 1, 0.4), (1, 0, 0.4)])

    def test_self_loop(self):
        with pytest.raises(bt.SelfLoopError):
            bt.new_tournament(2, [(1, 1, 0.5)])

    def test_vertex_out_of_range(self):
        with pytest.raises(bt.VertexOutOfRangeError):
            bt.new_tournament(2, [(0, 2, 0.5)])

    def test_out_of_range_probability(self):
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.new_tournament(2, [(0, 1, 1.0)])
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.new_tournament(2, [(0, 1, 0.0)])
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.new_tournament(2, [(0, 1, 1.5)])

    def test_structural_fault_reported_before_weight(self):
        # the weights are checked together once every record is placed
        with pytest.raises(bt.DuplicatePairError):
            bt.new_tournament(2, [(0, 1, 1.5), (1, 0, 0.4)])

    def test_weight_error_names_the_pair_as_stored(self):
        with pytest.raises(bt.OutOfRangeProbabilityError, match=r"pair \(2, 0\)"):
            bt.new_tournament(3, [(0, 1, 0.5), (2, 0, 0.0), (1, 2, 0.5)])
        with pytest.raises(bt.OutOfRangeProbabilityError, match=r"pair \(2, 0\)"):
            bt.StochasticTournament(3, [0.5, np.nan, 0.5], [True, False, True])

    @pytest.mark.parametrize("p", ["0.5", "x", b"0.5", None, 0.5j, np.complex128(0.5)])
    def test_non_real_weight_names_the_pair(self, p):
        with pytest.raises(bt.OutOfRangeProbabilityError,
                           match=r"for pair \(2, 0\) is not a real number"):
            bt.new_tournament(3, [(0, 1, 0.5), (2, 0, p), (1, 2, 0.5)])

    @pytest.mark.parametrize("p", [Decimal("0.5"), Fraction(1, 2), np.float32(0.5),
                                   np.array(0.5)])
    def test_other_numbers_are_read_as_floats(self, p):
        t = bt.new_tournament(3, [(0, 1, 0.5), (2, 0, p), (1, 2, 0.5)])
        assert t.weights.tolist() == [0.5, 0.5, 0.5]

    def test_record_list_errors_print_the_callers_values(self):
        with pytest.raises(bt.SelfLoopError, match=r"entry \(True, True\)"):
            bt.new_tournament(3, [(True, True, 0.5), (0, 2, 0.5)])

    def test_first_missing_pair_in_lexicographic_order(self):
        entries = [(3, 2, 0.5), (0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (0, 3, 0.5)]
        with pytest.raises(bt.MissingPairError, match=r"\{1, 3\}"):
            bt.new_tournament(4, entries)
        with pytest.raises(bt.MissingPairError, match=r"\{0, 1\}"):
            bt.new_tournament(4, [])

    def test_orientation_taken_from_entry(self):
        t = bt.new_tournament(2, [(1, 0, 0.9)])
        assert list(t.edges()) == [(1, 0, 0.9)]
        assert t.prob(1, 0) == 0.9
        assert t.prob(0, 1) == pytest.approx(0.1)


class TestProb:
    def test_cyclic_probs(self, cyclic3):
        assert cyclic3.prob(0, 1) == 0.9
        assert cyclic3.prob(1, 0) == pytest.approx(0.1)
        assert cyclic3.prob(2, 0) == 0.9

    def test_self_loop(self, cyclic3):
        with pytest.raises(bt.SelfLoopError):
            cyclic3.prob(0, 0)

    def test_out_of_range(self, cyclic3):
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.prob(0, 3)

    def test_complement_closure_exact(self):
        # the complement is computed, never stored: p + (1 - p) == 1 bit-exactly
        for seed in range(20):
            t = bt.gen_random(8, seed)
            for x in range(8):
                for y in range(8):
                    if x != y:
                        assert t.prob(x, y) + t.prob(y, x) == 1.0

    def test_complement_exact_near_floor(self):
        t = bt.new_tournament(2, [(0, 1, bt.ETA)])
        assert t.prob(0, 1) + t.prob(1, 0) == 1.0
        t = bt.new_tournament(2, [(0, 1, 1.0 - bt.ETA)])
        assert t.prob(0, 1) + t.prob(1, 0) == 1.0

    @pytest.mark.parametrize("read", [
        lambda t: t.prob(0.5, 1),
        lambda t: t.log_odds(np.array([0.0]), np.array([1.0])),
        lambda t: bt.set_prob(t, 0.5, 2, 0.3),
        lambda t: bt.repair_with_root(t, 1.5),
        lambda t: bt.scores_from_root(t, 1.5),
        lambda t: bt.new_tournament(2, [(0.5, 1, 0.3)]),
    ], ids=["prob", "log_odds", "set_prob", "repair_with_root", "scores_from_root",
            "new_tournament"])
    def test_non_integer_vertex(self, cyclic3, read):
        with pytest.raises(bt.VertexOutOfRangeError):
            read(cyclic3)

    @pytest.mark.parametrize("read", [
        lambda t: bt.TreeWeights(3, ((0.5, 1, 0.3), (1, 2, 0.4))),
        lambda t: bt.check_fundamental_cycles(t, [(0.5, 1), (1, 2)]),
        lambda t: bt.fundamental_cycles(3, [(0.5, 1), (1, 2)]),  # at the call
    ], ids=["TreeWeights", "check_fundamental_cycles", "fundamental_cycles"])
    def test_non_integer_tree_vertex(self, cyclic3, read):
        # TreeWeights must refuse 0.5 rather than truncate it to vertex 0
        with pytest.raises(bt.NotASpanningTreeError):
            read(cyclic3)

    def test_immutable(self, cyclic3):
        with pytest.raises(ValueError):
            cyclic3.weights[0] = 0.3

    def test_edges_are_python_values_in_stored_orientation(self):
        t = bt.StochasticTournament(4, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [True, False] * 3)
        edges = list(t.edges())
        assert edges == [
            (0, 1, 0.1), (2, 0, 0.2), (0, 3, 0.3), (2, 1, 0.4), (1, 3, 0.5), (3, 2, 0.6)
        ]
        assert all(type(x) is int and type(y) is int for x, y, _ in edges)
        assert all(type(w) is float and t.prob(x, y) == w for x, y, w in edges)


class TestEtaFloor:
    def test_eta_below_the_ulp_of_one(self):
        # 1 - 1e-20 == 1.0, so the band would admit a weight of exactly 1
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.StochasticTournament(2, [1.0], [True], eta=1e-20)
        assert bt.StochasticTournament(2, [1.0 - 1e-16], [True], eta=1e-16).n == 2

    def test_eta_whose_triangle_ratio_overflows(self):
        # three weights of 1e-301 against the canonical orientation give
        # log lambda = 2072, past what a float exp can hold
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.StochasticTournament(3, [1e-301] * 3, [False, True, False], eta=1e-301)


class TestLogistic:
    def test_inverts_logit_on_stored_weights(self):
        # exp turns the rounding of z = logit(w) into a relative error of
        # about |z| ulp, so the round trip is within 2 ulp where |z| <= 1
        # and within 2 + 2|z| ulp down to the floor
        w = np.concatenate([
            bt.gen_random(60, 3).weights,
            [bt.ETA, 2 * bt.ETA, 1e-9, 1e-3, 0.5, 1.0 - 1e-9, 1.0 - bt.ETA],
        ])
        z = logit(w)
        ulps = np.abs(logistic(z) - w) / np.spacing(w)
        assert np.all(ulps[np.abs(z) <= 1.0] <= 2.0)
        assert np.all(ulps <= 2.0 + 2.0 * np.abs(z))

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic(800.0) == 1.0
            assert logistic(-800.0) == 0.0
            assert logistic(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]

    def test_scalar_and_array_agree(self):
        z = np.linspace(-40.0, 40.0, 81)
        assert [logistic(float(v)) for v in z] == logistic(z).tolist()


class TestMarkovMatrix:
    def test_two_vertices(self):
        t = bt.new_tournament(2, [(0, 1, 0.5)])
        q = bt.markov_matrix(t)
        np.testing.assert_allclose(q, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_cyclic_diagonal(self, cyclic3):
        # row 0 keeps 1 - (p_01 + p_02)/3 = 1 - (0.9 + 0.1)/3
        q = bt.markov_matrix(cyclic3)
        assert q[0, 0] == pytest.approx(1.0 - (0.9 + 0.1) / 3.0, abs=1e-15)
        assert q[0, 1] == pytest.approx(0.3)

    def test_rows_sum_to_one(self):
        for seed in range(10):
            t = bt.gen_random(9, seed)
            q = bt.markov_matrix(t)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_entries_match_definition(self):
        t = bt.gen_random(7, 5)
        q = bt.markov_matrix(t)
        for x in range(7):
            off = 0.0
            for y in range(7):
                if x == y:
                    continue
                assert q[x, y] == t.prob(x, y) / 7
                off += t.prob(x, y)
            assert q[x, x] == pytest.approx(1.0 - off / 7, abs=1e-15)

    def test_detailed_balance_same_over_p_and_q(self):
        # pi_x q_xy == pi_y q_yx iff pi_x p_xy == pi_y p_yx (q = p / n)
        rng = np.random.default_rng(6)
        for seed in range(5):
            t = bt.gen_random(6, seed)
            pi = rng.uniform(0.1, 1.0, size=6)
            pi /= pi.sum()
            q = bt.markov_matrix(t)
            flow = pi[:, None] * q
            off = ~np.eye(6, dtype=bool)
            q_balanced = bool(
                np.all(
                    np.abs(flow - flow.T)[off]
                    <= 1e-9 * np.maximum(flow, flow.T)[off]
                )
            )
            assert q_balanced == bt.check_reversible(t, pi, 0.0)


class TestCheckReversible:
    def test_fair_uniform(self, fair3):
        assert bt.check_reversible(fair3, np.ones(3) / 3, 0.0)

    def test_cyclic_uniform_fails(self, cyclic3):
        assert not bt.check_reversible(cyclic3, np.ones(3) / 3, 0.0)

    def test_bt_inverse_scores(self, bt124):
        pi = np.array([1.0, 0.5, 0.25])
        pi /= pi.sum()
        assert bt.check_reversible(bt124, pi, 0.0)

    def test_scale_free(self, bt124):
        pi = np.array([1.0, 0.5, 0.25])  # unnormalised on purpose
        assert bt.check_reversible(bt124, pi, 0.0)

    def test_eps_form(self, cyclic3):
        # uniform pi gives ratios 9 and 1/9 on the cycle edges
        pi = np.ones(3) / 3
        assert not bt.check_reversible(cyclic3, pi, 1.0)
        t = bt.gen_cyclic(3, 0.51)
        # ratios 0.51/0.49 = 1.0408...: within eps = 0.05, not within 0.02
        assert bt.check_reversible(t, pi, 0.05)
        assert not bt.check_reversible(t, pi, 0.02)

    def test_dimension_mismatch(self, cyclic3):
        with pytest.raises(bt.DimensionMismatchError):
            bt.check_reversible(cyclic3, np.ones(4) / 4, 0.0)

    def test_nonpositive_pi(self, cyclic3):
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.check_reversible(cyclic3, np.array([0.5, 0.5, 0.0]), 0.0)

    def test_random_bt_tournaments_reversible(self):
        # pi proportional to inverse scores always satisfies detailed balance
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.1, 10.0, size=int(rng.integers(3, 9)))
            t = bt.gen_bt(a)
            pi = (1.0 / a) / (1.0 / a).sum()
            assert bt.check_reversible(t, pi, 0.0)


class TestGenerators:
    def test_bt_equal_scores(self):
        t = bt.gen_bt([3.0, 3.0, 3.0])
        assert all(w == 0.5 for _, _, w in t.edges())

    def test_bt_124(self, bt124):
        assert bt124.prob(0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert bt124.prob(1, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert bt124.prob(0, 2) == pytest.approx(1.0 / 5.0, abs=1e-15)

    def test_bt_matches_per_pair_formula(self):
        for n in (2, 3, 50):
            a = np.random.default_rng(n).uniform(0.1, 10.0, size=n)
            expected = [a[x] / (a[x] + a[y]) for x, y in combinations(range(n), 2)]
            assert bt.gen_bt(a).weights.tolist() == expected

    def test_bt_triangles_balanced(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = bt.gen_bt(rng.uniform(0.1, 10.0, size=6))
            for tri in bt.enumerate_triangles(6):
                assert bt.is_balanced(t, tri)

    def test_bt_extreme_ratio_rejected(self):
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.gen_bt([1.0, 1e15])

    def test_bt_bad_scores(self):
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.gen_bt([1.0, -2.0])

    def test_cyclic_structure(self):
        t = bt.gen_cyclic(5, 0.8)
        for x in range(5):
            assert t.prob(x, (x + 1) % 5) == 0.8
        assert t.prob(0, 2) == 0.5
        assert t.prob(1, 3) == 0.5

    @pytest.mark.parametrize("p", ["0.9", "x", None, 0.9j])
    def test_cyclic_refuses_a_non_real_weight(self, p):
        with pytest.raises(bt.OutOfRangeProbabilityError,
                           match=r"for pair \(0, 1\) is not a real number"):
            bt.gen_cyclic(3, p)

    def test_perturbed_zero_noise_is_identity(self, cyclic3):
        assert bt.gen_perturbed(cyclic3, 0.0, 123) == cyclic3

    def test_perturbed_deterministic(self, cyclic3):
        a = bt.gen_perturbed(cyclic3, 0.05, 9)
        b = bt.gen_perturbed(cyclic3, 0.05, 9)
        assert a == b
        assert a != bt.gen_perturbed(cyclic3, 0.05, 10)

    def test_perturbed_clamps(self):
        t = bt.new_tournament(2, [(0, 1, 0.999999)])
        p = bt.gen_perturbed(t, 0.4, 0)
        assert bt.ETA <= p.weights[0] <= 1.0 - bt.ETA

    def test_perturbed_noise_range(self, cyclic3):
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.gen_perturbed(cyclic3, 0.5, 0)

    def test_random_deterministic(self):
        assert bt.gen_random(12, 5) == bt.gen_random(12, 5)
        assert bt.gen_random(12, 5) != bt.gen_random(12, 6)

    def test_random_weights_in_band(self):
        t = bt.gen_random(20, 0)
        assert np.all(t.weights >= bt.ETA)
        assert np.all(t.weights <= 1.0 - bt.ETA)


class TestSetProb:
    def test_exact_and_complement(self, cyclic3):
        t = bt.set_prob(cyclic3, 1, 0, 0.25)
        assert t.prob(1, 0) == 0.25
        assert t.prob(0, 1) == 0.75
        assert t.prob(1, 2) == 0.9  # untouched

    def test_validation(self, cyclic3):
        with pytest.raises(bt.SelfLoopError):
            bt.set_prob(cyclic3, 1, 1, 0.5)
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.set_prob(cyclic3, 0, 1, 1.0)

    @pytest.mark.parametrize("p", ["0.5", "x", b"0.5", None, 0.5j])
    def test_non_real_weight_names_the_pair(self, cyclic3, p):
        with pytest.raises(bt.OutOfRangeProbabilityError,
                           match=r"for pair \(1, 0\) is not a real number"):
            bt.set_prob(cyclic3, 1, 0, p)


def test_pair_index_is_lexicographic():
    n = 7
    expected = 0
    for x in range(n - 1):
        for y in range(x + 1, n):
            assert bt.pair_index(n, x, y) == expected
            expected += 1
    assert expected == n * (n - 1) // 2


def test_dense_probs_matches_queries():
    # prob_matrix must agree bit-for-bit with one-at-a-time queries
    t = bt.gen_random(6, 11)
    np.testing.assert_array_equal(dense_probs(t), t.prob_matrix())


def _read_battery():
    """Random, cyclic, mixed-orientation and floor-weight inputs."""
    rng = np.random.default_rng(41)
    mixed = []
    for n in (3, 6, 11):
        m = n * (n - 1) // 2
        w = rng.uniform(bt.ETA, 1.0 - bt.ETA, m)
        w[::3], w[1::4] = bt.ETA, 1.0 - bt.ETA
        mixed.append(bt.StochasticTournament(n, w, rng.random(m) < 0.5))
    floor = bt.StochasticTournament(4, [1e-12, 1.0 - 1e-12] * 3, [True, False] * 3)
    return [bt.gen_random(9, s) for s in range(3)] + [bt.gen_cyclic(7, 0.9), floor] + mixed


class TestArrayReads:
    """``log_odds`` over index arrays, and the scalar callers built on it,
    give the bits of one-at-a-time reads and of ``log_odds_matrix()``."""

    @pytest.mark.parametrize("t", _read_battery())
    def test_scalar_and_array_reads_match_the_matrix(self, t):
        ell = t.log_odds_matrix()
        xs, ys = np.nonzero(~np.eye(t.n, dtype=bool))
        arr = t.log_odds(xs, ys)
        assert arr.tobytes() == ell[xs, ys].tobytes()
        scalars = [t.log_odds(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == arr.tobytes()
        grid = t.log_odds(xs.reshape(-1, 1), ys.reshape(-1, 1))
        assert grid.shape == (xs.size, 1)
        assert grid.tobytes() == arr.tobytes()
        mixed = t.log_odds(xs.astype(np.uint64), ys.astype(np.int64))
        assert mixed.tobytes() == arr.tobytes()
        assert t.log_odds(np.uint64(xs[0]), int(ys[0])) == scalars[0]

    @pytest.mark.parametrize("t", _read_battery())
    def test_scalar_callers_keep_their_bits(self, t):
        ell = t.log_odds_matrix().tolist()
        tris = list(combinations(range(t.n), 3))
        for x, y, z in tris:
            expected = ell[x][y] + ell[y][z] + ell[z][x]
            got = bt.log_triangle_ratio(t, bt.Triangle(x, y, z))
            assert got.hex() == expected.hex()
        batched = bt.log_triangle_ratio(t, np.array(tris))
        singles = [bt.log_triangle_ratio(t, bt.Triangle(*v)) for v in tris]
        assert batched.tobytes() == np.array(singles).tobytes()
        rng = np.random.default_rng(t.n)
        for size in range(3, t.n + 1):
            vs = rng.permutation(t.n)[:size].tolist()
            cycle = bt.DirectedCycle(tuple(vs))
            expected = sum(ell[u][v] for u, v in zip(vs, vs[1:] + vs[:1]))
            assert bt.log_cycle_ratio(t, cycle).hex() == expected.hex()
        for r in range(t.n):
            expected = np.exp([ell[y][r] if y != r else 0.0 for y in range(t.n)])
            assert bt.scores_from_root(t, r).tobytes() == expected.tobytes()

    def test_array_errors_match_the_scalar_ones(self, cyclic3):
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(np.array([0, 1, 3]), np.array([1, 2, 0]))
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(np.array([0, -1]), np.array([1, 2]))
        with pytest.raises(bt.SelfLoopError):
            cyclic3.log_odds(np.array([0, 2]), np.array([1, 2]))
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(0, 3)
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(2**70, 0)
        with pytest.raises(bt.SelfLoopError):
            cyclic3.log_odds(1, 1)
        with pytest.raises(bt.VertexOutOfRangeError):
            bt.scores_from_root(cyclic3, 3)
