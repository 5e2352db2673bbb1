"""Repair, score construction, approximation chain, tree extension, fitting,
and the desk-scale distance oracle."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from bttest.repair import _l1_objective
from conftest import (
    all_triangles_balanced,
    dense_probs,
    oracle_per_root_sums,
    perturbed_bt_instance,
    random_tree,
)


class TestRepairWithRoot:
    def test_cyclic_single_edit(self, cyclic3):
        repaired, report = bt.repair_with_root(cyclic3, 2)
        assert report.root == 2
        assert len(report.edits) == 1
        x, y, old, new = report.edits[0]
        assert (x, y) == (0, 1)
        assert old == 0.9
        # balancing value: p_21 p_02 / (p_21 p_02 + p_12 p_20)
        assert new == pytest.approx(0.01 / 0.82, rel=1e-12)
        assert repaired.prob(0, 1) == pytest.approx(0.01 / 0.82, rel=1e-12)
        assert bt.is_balanced(repaired, bt.Triangle(0, 1, 2))
        assert report.per_edge_bound_ok
        assert report.total_change == pytest.approx(0.9 - 0.01 / 0.82, rel=1e-9)

    def test_bt_input_is_identity(self, bt124):
        repaired, report = bt.repair_with_root(bt124, 1)
        assert report.edits == ()
        assert report.total_change == 0.0
        assert repaired == bt124

    def test_edits_only_opposite_root(self):
        t = bt.gen_random(8, 17)
        for r in (0, 3, 7):
            repaired, report = bt.repair_with_root(t, r)
            for x, y, _, _ in report.edits:
                assert r not in (x, y)
            for v in range(8):
                if v != r:
                    assert repaired.prob(r, v) == t.prob(r, v)

    def test_output_fully_balanced(self):
        # balancing the root's triangles already certifies every triangle
        for seed in range(5):
            t = bt.gen_random(7, seed)
            repaired, _ = bt.repair_with_root(t, 4)
            assert all_triangles_balanced(repaired, tol=1e-9)

    def test_per_edge_bound_against_oracle(self):
        t = bt.gen_random(7, 23)
        p = dense_probs(t)
        _, report = bt.repair_with_root(t, 0)
        assert report.per_edge_bound_ok
        for x, y, old, new in report.edits:
            alpha = p[x, y] - (
                p[0, y] * p[x, 0] / (p[0, y] * p[x, 0] + p[y, 0] * p[0, x])
            )
            # the edit on the edge opposite the root is exactly the
            # single-edge fix of its triangle, hence within the discrepancy
            assert abs(new - old) == pytest.approx(abs(alpha), abs=1e-12)

    def test_total_change_below_root_family_sum(self):
        for seed in range(5):
            t = bt.gen_random(9, seed)
            per_root = oracle_per_root_sums(t)
            for r in (0, 5):
                _, report = bt.repair_with_root(t, r)
                assert report.total_change <= per_root[r] + 1e-9

    def test_clamped_balancing_value(self):
        # eta = 0.3 with all cycle weights 0.7: the balancing odds for the
        # edge opposite the root fall below the floor and must clamp
        t = bt.gen_cyclic(3, 0.7, eta=0.3)
        repaired, report = bt.repair_with_root(t, 2)
        assert report.clamped == ((0, 1),)
        assert repaired.prob(0, 1) == 0.3

    def test_edit_set_is_the_unbalanced_opposite_edges(self):
        # edited pairs are exactly those whose triangle with the root is
        # unbalanced (beyond tau)
        t = bt.gen_perturbed(bt.gen_bt(np.linspace(1.0, 2.0, 7)), 0.2, 41)
        r = 3
        _, report = bt.repair_with_root(t, r)
        edited = {(min(x, y), max(x, y)) for x, y, _, _ in report.edits}
        expected = {
            (u, v)
            for u, v in combinations(range(7), 2)
            if r not in (u, v) and not bt.is_balanced(t, bt.Triangle(u, v, r))
        }
        assert edited == expected

    def test_edit_list_matches_per_edge_reference(self):
        # one edge at a time, in pair order and stored orientation, with the
        # balancing value written as den / (den + num), each probability
        # one query in the direction it is used
        def reference(t, r):
            edits = []
            for u, v, old in t.edges():
                if r in (u, v):
                    continue
                num = t.prob(v, r) * t.prob(r, u)
                den = t.prob(r, v) * t.prob(u, r)
                if abs(math.log(old / (1.0 - old)) + math.log(num / den)) <= bt.TAU:
                    continue
                new = min(max(den / (den + num), t.eta), 1.0 - t.eta)
                edits.append((u, v, old, new))
            return tuple(edits)

        rng = np.random.default_rng(12)
        corrupted = bt.set_prob(bt.set_prob(bt.gen_bt(np.linspace(1, 3, 9)), 5, 2, 0.3), 1, 6, 0.8)
        mixed = bt.StochasticTournament(9, bt.gen_random(9, 4).weights, rng.random(36) < 0.5)
        clamping = bt.gen_cyclic(5, 0.7, eta=0.3)
        for t in (corrupted, mixed, clamping):
            for r in range(t.n):
                assert bt.repair_with_root(t, r)[1].edits == reference(t, r)

    def test_balancing_weight_reads_both_directions(self):
        # p_02 = 1 - 1e-12 is stored as its complement 2 -> 0, so recomputing
        # p_20 as 1 - p_02 keeps few digits of 1e-12
        t = bt.StochasticTournament(3, [1e-12, 1e-12, 0.3], [False, False, True])
        repaired, report = bt.repair_with_root(t, 0)
        assert report.edits == ((1, 2, 0.3, 0.5),)
        assert abs(bt.log_triangle_ratio(repaired, bt.Triangle(0, 1, 2))) <= bt.TAU
        assert report.per_edge_bound_ok

    def test_vertex_validation(self, cyclic3):
        with pytest.raises(bt.VertexOutOfRangeError):
            bt.repair_with_root(cyclic3, 3)


class TestBestRoot:
    def test_bt_tie_breaks_to_zero(self):
        t = bt.gen_bt([1.0, 3.0, 0.5, 2.0])
        assert bt.best_root(t) == 0

    def test_single_triangle_symmetric(self, cyclic3):
        assert bt.best_root(cyclic3) == 0

    def test_matches_exhaustive_argmin(self):
        for seed in range(8):
            t = bt.gen_random(7, seed)
            sums = oracle_per_root_sums(t)
            assert bt.best_root(t) == int(np.argmin(sums))


class TestRepair:
    def test_bt_identity(self, bt124):
        repaired, report = bt.repair(bt124)
        assert report.total_change == 0.0
        assert repaired == bt124

    def test_cyclic_total_change(self, cyclic3):
        _, report = bt.repair(cyclic3)
        disc = 0.9 - 0.01 / 0.82
        assert report.total_change == pytest.approx(disc, rel=1e-9)
        assert report.total_change <= (3.0 / 3.0) * disc + 1e-12

    def test_averaging_bound_and_reversibility(self):
        for seed in range(5):
            t = bt.gen_random(10, seed)
            td = bt.total_discrepancy(t)
            repaired, report = bt.repair(t)
            assert report.total_change <= (3.0 / 10.0) * td.total + 1e-6
            scores = bt.scores_from_root(repaired, 0)
            pi = bt.scores_to_stationary(scores)
            assert bt.check_reversible(repaired, pi, 0.0)


class TestScoresFromRoot:
    def test_recovers_bt_scores(self, bt124):
        np.testing.assert_allclose(
            bt.scores_from_root(bt124, 0), [1.0, 2.0, 4.0], rtol=1e-9
        )

    def test_all_half_gives_ones(self, fair3):
        np.testing.assert_allclose(bt.scores_from_root(fair3, 1), 1.0, rtol=1e-12)

    def test_tiny_weights_stored_against_root(self, floor_bt3):
        for r in range(3):
            scores = bt.scores_from_root(floor_bt3, r)
            assert bt.min_verification_eps(floor_bt3, scores) <= 1e-15

    def test_round_trip_any_root(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.uniform(0.1, 10.0, size=6)
            t = bt.gen_bt(a)
            for r in range(6):
                np.testing.assert_allclose(
                    bt.scores_from_root(t, r), a / a[r], rtol=1e-9
                )


class TestVerifyApproxBt:
    def test_exact_bt_any_eps(self, bt124):
        for eps in (1e-9, 0.01, 1.0):
            assert bt.verify_approx_bt(bt124, [1.0, 2.0, 4.0], eps)

    def test_cyclic_with_flat_scores_fails(self, cyclic3):
        # needs p_01 = 0.9 <= 1.1 * 0.5, which is false
        assert not bt.verify_approx_bt(cyclic3, [1.0, 1.0, 1.0], 0.1)

    def test_scale_invariance(self):
        t = bt.gen_perturbed(bt.gen_bt([1.0, 2.0, 3.0, 4.0]), 0.05, 3)
        a = bt.fit_scores_least_squares(t)
        for eps in (0.05, 0.2, 0.8):
            assert bt.verify_approx_bt(t, a, eps) == bt.verify_approx_bt(
                t, 3.7 * a, eps
            )

    def test_validation(self, cyclic3):
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.verify_approx_bt(cyclic3, [1.0, 1.0, 1.0], 0.0)
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.verify_approx_bt(cyclic3, [1.0, 1.0, 1.0], 1.5)
        with pytest.raises(bt.DimensionMismatchError):
            bt.verify_approx_bt(cyclic3, [1.0, 1.0], 0.5)
        with pytest.raises(bt.ParameterOutOfRangeError):
            bt.verify_approx_bt(cyclic3, [1.0, -1.0, 1.0], 0.5)


class TestScoresToStationary:
    def test_flat(self):
        np.testing.assert_allclose(
            bt.scores_to_stationary([1.0, 1.0, 1.0]), [1 / 3, 1 / 3, 1 / 3]
        )

    def test_124(self):
        np.testing.assert_allclose(
            bt.scores_to_stationary([1.0, 2.0, 4.0]),
            [4 / 7, 2 / 7, 1 / 7],
            rtol=1e-14,
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pi = bt.scores_to_stationary(rng.uniform(0.1, 10.0, size=9))
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi > 0.0)


class TestApproximationChain:
    def test_perturbed_instances(self):
        # odds scaled by factors within [1/(1+eps), 1+eps]:
        # (a) root triangles are eps'-balanced with eps' <= (1+eps)^3 - 1,
        # (b) root scores pass the two-sided check at eps',
        # (c) inverse scores give a 3*eps'-approximately reversible pair,
        # (d) every triangle is 7*eps'-balanced
        rng = np.random.default_rng(8)
        eps = 0.15
        cap = (1.0 + eps) ** 3 - 1.0
        for _ in range(10):
            t, _ = perturbed_bt_instance(7, eps, rng)
            eps_prime = 0.0
            for tri in bt.enumerate_triangles(7):
                if 0 in tri.vertices():
                    lam = bt.triangle_ratio(t, tri)
                    eps_prime = max(eps_prime, max(lam, 1.0 / lam) - 1.0)
            assert eps_prime <= cap * (1.0 + 1e-9)
            eps_prime *= 1.0 + 1e-9  # absorb one-ulp boundary effects
            a = bt.scores_from_root(t, 0)
            assert bt.verify_approx_bt(t, a, eps_prime)
            pi = bt.scores_to_stationary(a)
            assert bt.check_reversible(t, pi, 3.0 * eps_prime)
            assert bt.check_seven_eps(t, pi, 3.0 * eps_prime)
            for tri in bt.enumerate_triangles(7):
                assert bt.is_eps_balanced(t, tri, 7.0 * eps_prime)


class TestCheckSevenEps:
    def test_exactly_reversible(self, bt124):
        pi = bt.scores_to_stationary([1.0, 2.0, 4.0])
        assert bt.check_seven_eps(bt124, pi, 1e-9)

    def test_precondition_failure(self, cyclic3):
        with pytest.raises(bt.PreconditionFailedError):
            bt.check_seven_eps(cyclic3, np.ones(3) / 3, 0.01)

    def test_boundary_cycle(self):
        # p = 1.5/2.5 puts every detailed-balance ratio at 1.5 against the
        # uniform distribution; the lone triangle sits at 1.5^3 = 3.375,
        # inside 1 + 7 * 0.5 = 4.5
        t = bt.gen_cyclic(3, 1.5 / 2.5)
        pi = np.ones(3) / 3
        eps = 0.5 + 1e-9
        assert bt.check_reversible(t, pi, eps)
        assert bt.check_seven_eps(t, pi, eps)


class TestExtendTree:
    def test_star_example(self):
        tw = bt.TreeWeights(3, ((0, 1, 0.9), (0, 2, 0.5)))
        t = bt.extend_tree(tw)
        # grown measure is (1, 9, 1); chord odds pi(2)/pi(1) = 1/9
        assert t.prob(1, 2) == pytest.approx(0.1, abs=1e-12)
        assert t.prob(0, 1) == 0.9
        assert t.prob(0, 2) == 0.5
        pi = np.array([1.0, 9.0, 1.0]) / 11.0
        assert bt.check_reversible(t, pi, 0.0)

    @pytest.mark.parametrize("w", ["0.5", "x", None, 0.5j])
    def test_tree_refuses_a_non_real_weight(self, w):
        with pytest.raises(bt.OutOfRangeProbabilityError,
                           match=r"for pair \(2, 0\) is not a real number"):
            bt.TreeWeights(3, ((1, 0, 0.5), (2, 0, w)))

    def test_respects_edge_orientation(self):
        # same star, but the {0,1} edge stored as 1 -> 0 with weight 0.1
        tw = bt.TreeWeights(3, ((1, 0, 0.1), (0, 2, 0.5)))
        t = bt.extend_tree(tw)
        assert t.prob(1, 0) == 0.1  # bit-exact restriction
        assert t.prob(1, 2) == pytest.approx(0.1, abs=1e-12)

    def test_all_half_tree(self):
        tw = bt.TreeWeights(4, ((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)))
        t = bt.extend_tree(tw)
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert t.prob(x, y) == 0.5

    def test_random_trees_balanced_and_bit_exact(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            edges = random_tree(8, rng)
            weighted = tuple(
                (u, v, float(w))
                for (u, v), w in zip(edges, rng.uniform(0.05, 0.95, size=7))
            )
            tw = bt.TreeWeights(8, weighted)
            t = bt.extend_tree(tw)
            assert all_triangles_balanced(t, tol=1e-9)
            for u, v, w in weighted:
                assert t.prob(u, v) == w

    def test_chords_store_their_small_side(self):
        # the chord {1, 2} has weight 1 - w on 1 -> 2; stored that way, its
        # complement would keep about ulp / w of w's digits
        for w in (1e-12, 2e-12, 1e-9):
            tw = bt.TreeWeights(3, ((1, 0, 0.5), (2, 0, w)))
            t = bt.extend_tree(tw)
            assert list(t.edges())[2] == (2, 1, t.weights[2])
            assert t.weights[2] <= 0.5
            assert bt.check_fundamental_cycles(t, [(1, 0), (2, 0)])

    def test_chord_at_eta_does_not_warn(self):
        # the chord's exact weight is eta; it rounds 4 ulp below and is
        # raised back to eta, which is no clamp worth a warning
        tw = bt.TreeWeights(3, ((1, 0, 0.5), (2, 0, 1e-12)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", bt.ClampWarning)
            t = bt.extend_tree(tw)
        assert t.prob(2, 1) == bt.ETA

    def test_chord_clamping_warns(self):
        tw = bt.TreeWeights(3, ((0, 1, 0.8), (1, 2, 0.8)))
        with pytest.warns(bt.ClampWarning):
            t = bt.extend_tree(tw, eta=0.2)
        # pi = (1, 4, 16): chord odds 16 -> 16/17 clamped to 1 - eta
        assert t.prob(0, 2) == pytest.approx(0.8)

    def test_long_path_clamps_instead_of_overflowing(self):
        # pi falls by a factor 1e12 per step, so the chord (0, 29) has
        # log-odds about -801 and e^801 overflows a float
        tw = bt.TreeWeights(30, tuple((v, v + 1, 1e-12) for v in range(29)))
        with pytest.warns(bt.ClampWarning):
            t = bt.extend_tree(tw)
        assert t.prob(0, 29) == bt.ETA
        assert all(t.prob(v, v + 1) == 1e-12 for v in range(29))

    def test_tree_weight_outside_band(self):
        tw = bt.TreeWeights(3, ((0, 1, 1e-14), (0, 2, 0.5)))
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.extend_tree(tw)

    def test_tree_weights_validation(self):
        with pytest.raises(bt.NotASpanningTreeError):
            bt.TreeWeights(3, ((0, 1, 0.5),))
        with pytest.raises(bt.NotASpanningTreeError):
            bt.TreeWeights(4, ((0, 1, 0.5), (2, 3, 0.5), (0, 1, 0.4)))
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.TreeWeights(3, ((0, 1, 0.0), (0, 2, 0.5)))

    def test_scores_recover_inverse_of_grown_measure(self):
        # detailed balance gives p_y0 / p_0y = pi(0) / pi(y), so the root
        # scores of the extension are proportional to 1 / pi
        rng = np.random.default_rng(47)
        edges = random_tree(7, rng)
        weighted = tuple(
            (u, v, float(w))
            for (u, v), w in zip(edges, rng.uniform(0.2, 0.8, size=6))
        )
        t = bt.extend_tree(bt.TreeWeights(7, weighted))
        # independent recursion for the grown measure
        adj = {}
        for u, v, w in weighted:
            adj.setdefault(u, []).append((v, w / (1.0 - w)))
            adj.setdefault(v, []).append((u, (1.0 - w) / w))
        pi = {0: 1.0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, odds in adj[u]:
                if v not in pi:
                    pi[v] = pi[u] * odds
                    stack.append(v)
        expected = np.array([1.0 / pi[v] for v in range(7)])
        scores = bt.scores_from_root(t, 0)
        np.testing.assert_allclose(scores, expected / expected[0], rtol=1e-9)
        # each chord, one pair at a time: w / (1 - w) = pi(hi) / pi(lo)
        tree = {frozenset((u, v)) for u, v, _ in weighted}
        for lo, hi in combinations(range(7), 2):
            if frozenset((lo, hi)) not in tree:
                chord = pi[hi] / (pi[lo] + pi[hi])
                assert t.prob(lo, hi) == pytest.approx(chord, rel=1e-12)


class TestFitScores:
    def test_recovers_exact_model(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.2, 5.0, size=12)
        t = bt.gen_bt(a)
        np.testing.assert_allclose(
            bt.fit_scores_least_squares(t), a / a[0], rtol=1e-9
        )

    def test_all_half(self, fair3):
        np.testing.assert_allclose(bt.fit_scores_least_squares(fair3), 1.0)

    def test_cyclic_residual(self, cyclic3):
        # the cyclic log-odds vector is orthogonal to every potential, so
        # the optimum is flat and the residual is 3 * (log 9)^2
        scores = bt.fit_scores_least_squares(cyclic3)
        np.testing.assert_allclose(scores, 1.0, atol=1e-12)
        phi = np.log(scores)
        residual = sum(
            (math.log(cyclic3.prob(x, y) / cyclic3.prob(y, x)) - phi[x] + phi[y])
            ** 2
            for x, y in combinations(range(3), 2)
        )
        assert residual == pytest.approx(3.0 * math.log(9.0) ** 2, rel=1e-9)

    def test_gradient_vanishes_vs_central_differences(self):
        t = bt.gen_random(6, 19)
        phi = np.log(bt.fit_scores_least_squares(t))
        ell = {}
        for x, y in combinations(range(6), 2):
            ell[(x, y)] = math.log(t.prob(x, y) / t.prob(y, x))

        def objective(v):
            return sum(
                (ell[(x, y)] - v[x] + v[y]) ** 2
                for x, y in combinations(range(6), 2)
            )

        h = 1e-5
        for i in range(6):
            up, down = phi.copy(), phi.copy()
            up[i] += h
            down[i] -= h
            grad = (objective(up) - objective(down)) / (2.0 * h)
            assert abs(grad) <= 1e-8


class TestMinVerificationEps:
    def test_exact_bt_tiny(self, bt124):
        eps = bt.min_verification_eps(bt124, [1.0, 2.0, 4.0])
        assert eps is not None and eps <= 1e-6 * 1.01

    def test_cyclic_none(self, cyclic3):
        # 0.1 >= (1+eps)^-1 * 0.5 would need eps >= 4
        assert bt.min_verification_eps(cyclic3, [1.0, 1.0, 1.0]) is None

    def test_bracket_property(self):
        t = bt.gen_perturbed(bt.gen_bt([1.0, 2.0, 3.0, 4.0, 5.0]), 0.08, 5)
        a = bt.scores_from_root(t, 0)
        eps = bt.min_verification_eps(t, a)
        assert eps is not None
        assert bt.verify_approx_bt(t, a, eps)
        assert not bt.verify_approx_bt(t, a, max(eps - 2e-6, 1e-9))


class TestDistanceOracle:
    def test_bt_is_zero(self, bt124):
        bounds = bt.l1_distance_oracle(bt124, budget=20)
        assert bounds.upper == 0.0
        assert bounds.lower == 0.0

    def test_cyclic_bounds(self, cyclic3):
        bounds = bt.l1_distance_oracle(cyclic3, budget=40)
        assert bounds.upper <= 0.9 - 0.01 / 0.82 + 1e-9
        assert bounds.lower > 0.0
        assert bounds.lower <= bounds.upper

    def test_refinement_never_worse_than_repair(self):
        for seed in range(4):
            t = bt.gen_random(5, seed)
            root_upper = min(
                bt.repair_with_root(t, r)[1].total_change for r in range(5)
            )
            bounds = bt.l1_distance_oracle(t, budget=120)
            assert bounds.upper <= root_upper + 1e-12
            assert bounds.lower <= bounds.upper

    def test_objective_matches_per_pair_loop(self):
        t = bt.gen_random(7, 3)
        p = t.prob_matrix()
        phis = np.random.default_rng(4).normal(0.0, 3.0, size=(5, 7))
        expected = [
            sum(
                abs(p[x, y] - 1.0 / (1.0 + math.exp(phi[y] - phi[x])))
                for x, y in combinations(range(7), 2)
            )
            for phi in phis
        ]
        np.testing.assert_allclose(_l1_objective(p, phis), expected, rtol=1e-12)
        assert _l1_objective(p, phis[0]) == pytest.approx(expected[0], rel=1e-12)

    def test_budget_zero_still_bracketed(self, cyclic3):
        bounds = bt.l1_distance_oracle(cyclic3, budget=0)
        assert bounds.lower <= bounds.upper

    def test_desk_scale_limit(self):
        with pytest.raises(bt.DeskScaleExceededError):
            bt.l1_distance_oracle(bt.gen_random(9, 0))
