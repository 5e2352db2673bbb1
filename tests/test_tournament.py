"""Tournament construction, queries, Markov chains, generators."""

import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from bttest.tournament import _pair_index, _pair_of, logistic, logit
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

    def test_the_floor_is_the_complement_of_the_top(self):
        # against an edge stored at 1 - ETA, prob reads 1 - (1 - ETA) < ETA
        t = bt.StochasticTournament(2, [1.0 - bt.ETA], [True])
        low = t.prob(1, 0)
        assert low < bt.ETA and 1.0 - low == 1.0 - bt.ETA
        assert bt.StochasticTournament(2, [low], [True]).prob(1, 0) == 1.0 - bt.ETA
        # float32(1e-12) is 9.9999998e-13 as float64, inside the band
        assert bt.StochasticTournament(2, [np.float32(1e-12)], [True]).weights[0] < bt.ETA
        below = np.nextafter(low, 0.0)
        for build in (lambda: bt.StochasticTournament(2, [below], [True]),
                      lambda: bt.set_prob(t, 0, 1, below),
                      lambda: bt.TreeWeights(2, ((0, 1, below),))):
            with pytest.raises(bt.OutOfRangeProbabilityError,
                               match=r"outside \[1e-12, 0\.999999999999\]"):
                build()

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

    def test_equality_and_hash(self, cyclic3):
        same = bt.gen_cyclic(3, 0.9)
        assert same == cyclic3 and hash(same) == hash(cyclic3)
        assert cyclic3 != bt.gen_cyclic(3, 0.8)
        assert cyclic3 != (3, cyclic3.weights, cyclic3.low_wins)
        assert cyclic3.__eq__("cyclic3") is NotImplemented

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

    def test_eps_validation(self):
        t, pi = bt.gen_bt([1, 2, 4]), bt.scores_to_stationary([1, 2, 4])
        for eps in (-1.0, float("nan")):
            with pytest.raises(bt.ParameterOutOfRangeError):
                bt.check_reversible(t, pi, eps)

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

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_seed_checked_where_given(self, cyclic3, seed):
        # None would draw OS entropy; numpy would raise its own error for the rest
        with pytest.raises(bt.ParameterOutOfRangeError, match="seed"):
            bt.gen_random(4, seed)
        with pytest.raises(bt.ParameterOutOfRangeError, match="seed"):
            bt.gen_perturbed(cyclic3, 0.1, seed)

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


def test_pair_index_takes_a_pair_in_either_order():
    assert bt.pair_index(4, 3, 1) == bt.pair_index(4, 1, 3) == 4
    assert type(bt.pair_index(4, 3, 1)) is int
    np.testing.assert_array_equal(bt.pair_index(4, [3, 0, 2], [1, 3, 0]), [4, 2, 1])


@pytest.mark.parametrize("n, x, y, error", [
    (4, "a", 1, bt.VertexOutOfRangeError),
    (4, 1, 4, bt.VertexOutOfRangeError),
    (4, -1, 2, bt.VertexOutOfRangeError),
    (4, 0.0, 1, bt.VertexOutOfRangeError),
    (4, [0, 1.5], [1, 2], bt.VertexOutOfRangeError),
    (4, 2**70, 1, bt.VertexOutOfRangeError),
    (4, 1, 1, bt.SelfLoopError),
    (4, [0, 2], [1, 2], bt.SelfLoopError),
    (4, [0, 1], [1, 2, 3], bt.DimensionMismatchError),
    (1, 0, 1, bt.VertexOutOfRangeError),
    (4.0, 0, 1, bt.ParameterOutOfRangeError),
    (10**30, 0, 1, bt.ParameterOutOfRangeError),
])
def test_pair_index_checks_its_count_and_ids(n, x, y, error):
    with pytest.raises(error):
        bt.pair_index(n, x, y)


@st.composite
def positions(draw):
    n = draw(st.integers(2, 2**32))
    m = n * (n - 1) // 2
    x = draw(st.integers(0, n - 2))
    # the first and last pair of a row, where a rounded square root would slip;
    # n runs past the vertex-count ceiling, so through the unchecked arithmetic
    ends = [_pair_index(n, x, x + 1), _pair_index(n, x, n - 1), 0, m - 1]
    return n, draw(st.one_of(st.integers(0, m - 1), st.sampled_from(ends)))


@settings(max_examples=500, deadline=None)
@given(positions())
def test_pair_of_inverts_pair_index(position):
    n, i = position
    x, y = _pair_of(n, i)
    assert 0 <= x < y < n and _pair_index(n, x, y) == i


def test_pair_of_names_every_pair_in_order():
    for n in range(2, 30):
        pairs = [_pair_of(n, i) for i in range(n * (n - 1) // 2)]
        assert pairs == list(combinations(range(n), 2))
    # numpy integers, as argmin returns them, give Python ints
    assert _pair_of(np.int64(29), np.int64(405)) == (27, 28)
    assert all(type(v) is int for v in _pair_of(np.int64(29), np.int64(405)))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_pair_index_does_not_wrap_on_narrow_integers(dtype):
    n = 20
    x, y = np.triu_indices(n, k=1)
    expected = np.arange(n * (n - 1) // 2)
    assert bt.pair_index(n, dtype(15), dtype(16)) == 180
    np.testing.assert_array_equal(bt.pair_index(n, x.astype(dtype), y.astype(dtype)), expected)
    assert bt.pair_index(n, 15, 16) == 180 and type(bt.pair_index(n, 15, 16)) is int
    assert bt.pair_index(np.uint8(200), 150, 160) == bt.pair_index(200, 150, 160) == 18684


class TestVertexCount:
    @pytest.mark.parametrize("make", [
        lambda n: bt.gen_random(n, 0),
        lambda n: bt.gen_cyclic(n, 0.9),
        lambda n: bt.StochasticTournament(n, [0.5] * 4, [True] * 4),
        lambda n: bt.new_tournament(n, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)]),
        lambda n: bt.sample_triangle(np.random.default_rng(0), n),
    ])
    @pytest.mark.parametrize("n", [3.5, 3.0, "3", None, True, np.float64(4.0)])
    def test_not_an_integer(self, make, n):
        with pytest.raises(bt.ParameterOutOfRangeError, match="vertex count must be an integer"):
            make(n)

    @pytest.mark.parametrize("make", [
        lambda n: bt.gen_random(n, 0),
        lambda n: bt.gen_cyclic(n, 0.9),
        lambda n: bt.StochasticTournament(n, [], []),
        lambda n: bt.new_tournament(n, []),
    ])
    @pytest.mark.parametrize("n", [1, 0, -2, np.int8(1)])
    def test_below_two_keeps_its_error(self, make, n):
        with pytest.raises(bt.VertexOutOfRangeError, match="need at least 2 vertices"):
            make(n)

    @pytest.mark.parametrize("make", [
        lambda n: bt.gen_random(n, 0),
        lambda n: bt.gen_cyclic(n, 0.9),
        lambda n: bt.StochasticTournament(n, [], []),
        lambda n: bt.new_tournament(n, []),
        lambda n: bt.enumerate_triangles(n),
        lambda n: bt.fundamental_cycles(n, []),
        lambda n: bt.sample_triangle(np.random.default_rng(0), n),
    ])
    @pytest.mark.parametrize("n", [2**21, 2**33, 2**40, 10**30, np.uint64(2**63)], ids=repr)
    def test_past_the_pair_ceiling_is_refused_before_any_allocation(self, make, n):
        tracemalloc.start()
        try:
            with pytest.raises(bt.ParameterOutOfRangeError, match=r"more than 2\*\*40 pairs"):
                make(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_pair_ceiling_admits_a_million_vertices(self):
        top = (1 + math.isqrt(1 + 8 * bt.tournament.MAX_PAIRS)) // 2
        assert top * (top - 1) // 2 <= 2**40 < (top + 1) * top // 2
        assert top > 10**6
        rng = np.random.default_rng(0)
        assert max(bt.sample_triangle(rng, top).vertices()) < top  # no pair array
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.sample_triangle(rng, top + 1)

    def test_numpy_integers_are_counts(self):
        # n(n - 1)/2 in uint8 would wrap at n = 200
        assert bt.gen_random(np.uint8(200), 0) == bt.gen_random(200, 0)
        assert bt.gen_cyclic(np.int16(4), 0.9) == bt.gen_cyclic(4, 0.9)
        t = bt.StochasticTournament(np.uint8(3), [0.5] * 3, [True] * 3)
        assert type(t.n) is int


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
        # the message names the Python value, not np.int64(3)
        with pytest.raises(bt.VertexOutOfRangeError, match=r"^vertex 3 is"):
            cyclic3.log_odds(np.array([0, 1, 3]), np.array([1, 2, 0]))
        with pytest.raises(bt.VertexOutOfRangeError, match=r"^vertex 1\.0 is"):
            cyclic3.log_odds(np.array([1.0]), np.array([2]))
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(np.array([0, -1]), np.array([1, 2]))
        with pytest.raises(bt.SelfLoopError):
            cyclic3.log_odds(np.array([0, 2]), np.array([1, 2]))
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(0, 3)
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(2**70, 0)
        with pytest.raises(bt.VertexOutOfRangeError, match=r"^vertex 18446744073709551615 is"):
            cyclic3.log_odds(np.array([2**64 - 1], dtype=np.uint64), np.array([0]))
        with pytest.raises(bt.SelfLoopError):
            cyclic3.log_odds(1, 1)
        with pytest.raises(bt.VertexOutOfRangeError):
            bt.scores_from_root(cyclic3, 3)

    @pytest.mark.parametrize("index", [
        "a", b"a", None, np.array(["a", 1], dtype=object), np.array([None, 0]),
        np.array(["0"]),
    ], ids=["str", "bytes", "None", "object-str", "object-None", "str-array"])
    def test_non_integer_index_refused_before_arithmetic(self, cyclic3, index):
        # numpy's min or compare would raise its own TypeError first
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(index, np.ones(np.shape(index), dtype=np.int64))
        with pytest.raises(bt.VertexOutOfRangeError):
            cyclic3.log_odds(1, index)

    def test_object_arrays_of_ints_read_like_int64(self, cyclic3):
        x, y = [0, 2, 1], [1, 0, 2]
        got = cyclic3.log_odds(np.array(x, dtype=object), np.array(y, dtype=object))
        assert got.tobytes() == cyclic3.log_odds(np.array(x), np.array(y)).tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint16])
    def test_narrow_integer_indices_read_the_int64_pair(self, dtype):
        # the pair index of an int8 array used to wrap at n = 12 and raise at n = 100
        for n in (12, 100):
            t = bt.gen_random(n, 4)
            x, y = np.array([n - 2, 3, n - 1]), np.array([n - 1, n - 2, 0])
            want = t.log_odds(x, y)
            assert t.log_odds(x.astype(dtype), y.astype(dtype)).tobytes() == want.tobytes()
            assert t.log_odds(dtype(n - 2), dtype(n - 1)) == want[0]

    def test_bool_arrays_read_as_vertices_0_and_1(self, cyclic3):
        # a bool is an int, as for prob(True, False)
        assert cyclic3.log_odds(np.array([True]), np.array([False])).tolist() == [
            cyclic3.log_odds(1, 0)]


#: Malformed ids of an edge query on 3 vertices, with the error and the
#: start of its message: the first bad entry in broadcast order, x before y
#: within an entry, named as a Python value.
MALFORMED = [
    ("a", 1, bt.VertexOutOfRangeError, "vertex 'a' is"),
    (None, 1, bt.VertexOutOfRangeError, "vertex None is"),
    (0.5, 1, bt.VertexOutOfRangeError, "vertex 0.5 is"),
    (2**70, 1, bt.VertexOutOfRangeError, "vertex 1180591620717411303424 is"),
    (-1, 1, bt.VertexOutOfRangeError, "vertex -1 is"),
    (0, 3, bt.VertexOutOfRangeError, "vertex 3 is"),
    (3, "b", bt.VertexOutOfRangeError, "vertex 3 is"),
    (1, 1, bt.SelfLoopError, "x == y is no pair (x = 1)"),
    (np.int64(2), np.uint8(2), bt.SelfLoopError, "x == y is no pair (x = 2)"),
    (np.int64(5), 0, bt.VertexOutOfRangeError, "vertex 5 is"),
    (1, np.float64(2.0), bt.VertexOutOfRangeError, "vertex 2.0 is"),
    ([0, 1], [1, 2, 0], bt.DimensionMismatchError, "id shapes (2,) and (3,)"),
    ([[0, 1], [1]], 2, bt.DimensionMismatchError, "a ragged nest"),
    ([0, [1]], [1, 2], bt.DimensionMismatchError, "a ragged nest"),
    ([0, 1, 3], [1, 2, 0], bt.VertexOutOfRangeError, "vertex 3 is"),
    ([1, 0], [1, 5], bt.SelfLoopError, "x == y is no pair (x = 1)"),
    ([[0], [1]], [1, 9], bt.VertexOutOfRangeError, "vertex 9 is"),
    (np.array([0, "a"], dtype=object), [1, 9], bt.VertexOutOfRangeError, "vertex 'a' is"),
    (np.array([1.0]), [2], bt.VertexOutOfRangeError, "vertex 1.0 is"),
    (np.array([2**64 - 1], dtype=np.uint64), 0, bt.VertexOutOfRangeError,
     "vertex 18446744073709551615 is"),
]


@pytest.mark.parametrize("x, y, error, message", MALFORMED)
def test_every_edge_query_refuses_an_id_alike(cyclic3, x, y, error, message):
    queries = [lambda: bt.pair_index(3, x, y), lambda: cyclic3.prob(x, y),
               lambda: cyclic3.log_odds(x, y)]
    if not isinstance(x, (list, np.ndarray)) and not isinstance(y, (list, np.ndarray)):
        queries.append(lambda: bt.set_prob(cyclic3, x, y, 0.5))
    raised = []
    for query in queries:
        with pytest.raises(error) as info:
            query()
        raised.append((type(info.value), str(info.value)))
    assert raised == [raised[0]] * len(queries)
    assert raised[0][1].startswith(message)


@pytest.mark.parametrize("root", [np.int64(5), np.uint64(2**64 - 1), 3, -1, "a", 0.5, None])
def test_a_root_is_named_like_a_query_id(cyclic3, root):
    with pytest.raises(bt.VertexOutOfRangeError) as query:
        cyclic3.prob(root, 0)
    for call in (bt.repair_with_root, bt.scores_from_root):
        with pytest.raises(bt.VertexOutOfRangeError) as info:
            call(cyclic3, root)
        assert str(info.value) == str(query.value)


def _vertex_sites(t, v):
    """Every site that reads a vertex id, with ``v`` for vertex 1 of the
    3-vertex ``t``: each returns what it reads, or raises."""
    return {
        "prob": lambda: t.prob(v, 0),
        "log_odds": lambda: t.log_odds(v, 0),
        "pair_index": lambda: bt.pair_index(3, v, 0),
        "set_prob": lambda: bt.set_prob(t, v, 0, 0.25).prob(1, 0),
        "repair_with_root": lambda: bt.repair_with_root(t, v)[0],
        "scores_from_root": lambda: bt.scores_from_root(t, v).tolist(),
        "Triangle": lambda: bt.Triangle(v, 0, 2),
        "DirectedCycle": lambda: bt.DirectedCycle((v, 0, 2)),
        "new_tournament": lambda: bt.new_tournament(3, [(v, 0, 0.25), (0, 2, 0.5), (2, v, 0.5)]),
        "TreeWeights": lambda: bt.TreeWeights(3, [(v, 0, 0.25), (v, 2, 0.5)]),
        "check_fundamental_cycles": lambda: bt.check_fundamental_cycles(t, [(v, 0), (v, 2)]),
    }


def _id_arrays(v):
    """``v`` in an object array and in a typed array of its own dtype, each
    of one entry: what the edge queries take for one id."""
    held = np.empty(1, dtype=object)
    held[0] = v
    return held, np.array([v])


@pytest.mark.parametrize("v, admitted", [
    (np.True_, True), (True, True), (np.timedelta64(1), False),
], ids=repr)
def test_an_id_gets_one_verdict_at_every_vertex_site(cyclic3, v, admitted):
    # np.True_ and True are vertex 1, as in a bool array; a duration is no
    # id, bare, in an object array or as an m8 array
    calls = _vertex_sites(cyclic3, v)
    for form, ids in zip(("object array", "typed array"), _id_arrays(v)):
        calls |= {f"{name} on an {form}": call for name, call in _vertex_sites(cyclic3, ids).items()
                  if name in ("prob", "log_odds", "pair_index")}
    verdicts = {}
    for name, call in calls.items():
        try:
            call()
            verdicts[name] = True
        except bt.TournamentError:
            verdicts[name] = False
    assert verdicts == dict.fromkeys(calls, admitted)
    if admitted:
        ones = _vertex_sites(cyclic3, 1)
        for name, call in _vertex_sites(cyclic3, v).items():
            assert call() == ones[name]()


@pytest.mark.parametrize("x, y", [
    ([0, 1], 2), (np.array([0]), [1]), (np.array(0), 1), ((0,), (1,)), ([], 1),
])
def test_set_prob_sets_one_pair(cyclic3, x, y):
    with pytest.raises(bt.VertexOutOfRangeError, match="^vertex .* is not an integer"):
        bt.set_prob(cyclic3, x, y, 0.5)


def test_an_empty_list_of_ids_reads_nothing(cyclic3):
    # [] is a float64 array, so it takes the per-entry path
    for got, dtype in ((bt.pair_index(3, [], 1), np.int64), (cyclic3.prob([], 1), float),
                       (cyclic3.log_odds(1, []), float)):
        assert got.shape == (0,) and got.dtype == dtype
