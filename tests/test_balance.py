"""Triangle/cycle balance, discrepancy, aggregate sums, fundamental cycles."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from conftest import (
    dense_probs,
    oracle_disc,
    oracle_lambda,
    random_tree,
)


class TestTriangle:
    def test_canonical_order(self):
        tri = bt.Triangle(5, 1, 3)
        assert tri.vertices() == (1, 3, 5)

    def test_distinct(self):
        with pytest.raises(bt.SelfLoopError):
            bt.Triangle(1, 1, 2)


class TestDirectedCycle:
    def test_too_short(self):
        with pytest.raises(bt.DegenerateCycleError):
            bt.DirectedCycle((0, 1))

    def test_repeats(self):
        with pytest.raises(bt.DegenerateCycleError):
            bt.DirectedCycle((0, 1, 2, 1))

    def test_edges(self):
        c = bt.DirectedCycle((2, 0, 3))
        assert list(c.edges()) == [(2, 0), (0, 3), (3, 2)]


class TestTriangleRatio:
    def test_fair(self, fair3):
        assert bt.triangle_ratio(fair3, bt.Triangle(0, 1, 2)) == 1.0

    def test_cyclic_729(self, cyclic3):
        lam = bt.triangle_ratio(cyclic3, bt.Triangle(0, 1, 2))
        assert lam == pytest.approx(729.0, rel=1e-6)

    def test_bt_is_one(self, bt124):
        # (1/3 * 1/3 * 4/5) / (2/3 * 2/3 * 1/5) = 1
        lam = bt.triangle_ratio(bt124, bt.Triangle(0, 1, 2))
        assert abs(math.log(lam)) <= 1e-12

    def test_matches_product_oracle(self):
        t = bt.gen_random(7, 21)
        p = dense_probs(t)
        for x, y, z in combinations(range(7), 3):
            lam = bt.triangle_ratio(t, bt.Triangle(x, y, z))
            assert lam == pytest.approx(oracle_lambda(p, x, y, z), rel=1e-12)

    def test_an_array_of_triangles_gives_one_ratio_each(self):
        t = bt.gen_random(6, 3)
        tri = np.array(list(combinations(range(6), 3)))
        ratios = bt.triangle_ratio(t, tri)
        assert ratios.shape == (len(tri),)
        np.testing.assert_array_equal(ratios, np.exp(bt.log_triangle_ratio(t, tri)))
        # one triangle keeps math.exp of its own log ratio
        one = bt.triangle_ratio(t, bt.Triangle(0, 1, 2))
        assert type(one) is float and one == math.exp(bt.log_triangle_ratio(t, bt.Triangle(0, 1, 2)))

    def test_tiny_weight_stored_against_query_is_balanced(self, floor_bt3):
        assert bt.log_triangle_ratio(floor_bt3, bt.Triangle(0, 1, 2)) == 0.0

    def test_reversed_orientation_inverts(self):
        t = bt.gen_random(5, 2)
        for x, y, z in combinations(range(5), 3):
            forward = bt.cycle_ratio(t, bt.DirectedCycle((x, y, z)))
            backward = bt.cycle_ratio(t, bt.DirectedCycle((x, z, y)))
            assert forward * backward == pytest.approx(1.0, rel=1e-12)


class TestBalancePredicates:
    def test_lambda_one_any_tol(self, fair3):
        # a curl of exactly 0 passes every bound, TAU's included
        assert bt.log_triangle_ratio(fair3, bt.Triangle(0, 1, 2)) == 0.0
        assert bt.is_balanced(fair3, bt.Triangle(0, 1, 2))

    def test_729_not_eps_balanced(self, cyclic3):
        assert not bt.is_eps_balanced(cyclic3, bt.Triangle(0, 1, 2), 1.0)

    def test_lambda_105_inside_eps_01(self, fair3):
        # nudge one edge so lambda = 1.05 exactly by the odds construction
        t = bt.set_prob(fair3, 0, 1, 1.05 / 2.05)
        tri = bt.Triangle(0, 1, 2)
        assert bt.triangle_ratio(t, tri) == pytest.approx(1.05, rel=1e-12)
        assert bt.is_eps_balanced(t, tri, 0.1)
        assert not bt.is_balanced(t, tri)

    def test_eps_balanced_orientation_symmetric(self):
        t = bt.gen_random(4, 8)
        for x, y, z in combinations(range(4), 3):
            tri = bt.Triangle(x, y, z)
            lam = bt.triangle_ratio(t, tri)
            eps = max(lam, 1.0 / lam) - 1.0
            assert bt.is_eps_balanced(t, tri, eps * 1.000001)

    def test_eps_above_one_allowed(self, cyclic3):
        assert bt.is_eps_balanced(cyclic3, bt.Triangle(0, 1, 2), 729.0)

    def test_eps_validation(self, fair3):
        for eps in (0.0, float("nan")):
            with pytest.raises(bt.ParameterOutOfRangeError):
                bt.is_eps_balanced(fair3, bt.Triangle(0, 1, 2), eps)


class TestDiscrepancy:
    def test_balanced_is_zero(self, bt124):
        assert bt.discrepancy(bt124, bt.Triangle(0, 1, 2)).value <= 1e-9

    def test_cyclic_frozen_value(self, cyclic3):
        d = bt.discrepancy(cyclic3, bt.Triangle(0, 1, 2))
        expected = 0.9 - 0.01 / 0.82  # = alpha by direct evaluation
        assert d.alpha == pytest.approx(expected, abs=1e-12)
        assert d.beta == pytest.approx(expected, abs=1e-12)  # symmetry
        assert d.gamma == pytest.approx(expected, abs=1e-12)
        assert d.value == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle(self):
        t = bt.gen_random(6, 33)
        p = dense_probs(t)
        for x, y, z in combinations(range(6), 3):
            d = bt.discrepancy(t, bt.Triangle(x, y, z))
            a, b, g = oracle_disc(p, x, y, z)
            assert d.alpha == pytest.approx(a, abs=1e-14)
            assert d.beta == pytest.approx(b, abs=1e-14)
            assert d.gamma == pytest.approx(g, abs=1e-14)

    def test_value_in_unit_interval(self):
        for seed in range(10):
            t = bt.gen_random(6, seed)
            for tri in bt.enumerate_triangles(6):
                assert 0.0 <= bt.discrepancy(t, tri).value <= 1.0

    def test_each_single_edge_fix_balances(self):
        # subtracting alpha from p_xy (or beta from p_yz, gamma from p_zx)
        # must make the triangle exactly balanced
        rng = np.random.default_rng(4)
        for _ in range(30):
            probs = rng.uniform(0.05, 0.95, size=3)
            t = bt.new_tournament(
                3, [(0, 1, probs[0]), (1, 2, probs[1]), (2, 0, probs[2])]
            )
            tri = bt.Triangle(0, 1, 2)
            d = bt.discrepancy(t, tri)
            for x, y, delta in ((0, 1, d.alpha), (1, 2, d.beta), (2, 0, d.gamma)):
                fixed = bt.set_prob(t, x, y, t.prob(x, y) - delta)
                assert bt.is_balanced(fixed, tri)


class TestTotalDiscrepancy:
    def test_bt_total_near_zero(self):
        t = bt.gen_bt(np.linspace(0.5, 4.0, 8))
        td = bt.total_discrepancy(t)
        assert td.total <= 56 * 1e-9  # C(8,3) * tau

    def test_cyclic3_values(self, cyclic3):
        td = bt.total_discrepancy(cyclic3)
        expected = 0.9 - 0.01 / 0.82
        assert td.total == pytest.approx(expected, abs=1e-12)
        # the single triangle lies in every root family
        np.testing.assert_allclose(td.per_root, expected, atol=1e-12)
        assert td.per_root.sum() == pytest.approx(3 * td.total, abs=1e-12)

    def test_per_root_identity(self):
        for seed in (0, 1):
            t = bt.gen_random(9, seed)
            td = bt.total_discrepancy(t)
            assert td.per_root.sum() == pytest.approx(3.0 * td.total, rel=1e-12)

    def test_working_memory_is_quadratic(self):
        # one float per triangle would be C(300, 3) * 8 bytes, about 35.6 MB
        n = 300
        t = bt.gen_random(n, 1)
        tracemalloc.start()
        try:
            bt.total_discrepancy(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * n * n

    def test_two_calls_deterministic(self):
        t = bt.gen_random(10, 3)
        first = bt.total_discrepancy(t)
        second = bt.total_discrepancy(t)
        assert first.total == second.total
        np.testing.assert_array_equal(first.per_root, second.per_root)


def test_triangle_counting():
    n = 7
    triangles = list(bt.enumerate_triangles(n))
    assert len(triangles) == math.comb(n, 3)
    for r in range(n):
        family = [tri for tri in triangles if r in tri.vertices()]
        assert len(family) == math.comb(n - 1, 2)
    assert sum(r in tri.vertices() for tri in triangles for r in range(n)) == (
        3 * math.comb(n, 3)
    )


class TestCycleRatio:
    def test_triangle_as_cycle(self):
        t = bt.gen_random(6, 14)
        for x, y, z in combinations(range(6), 3):
            assert bt.cycle_ratio(t, bt.DirectedCycle((x, y, z))) == pytest.approx(
                bt.triangle_ratio(t, bt.Triangle(x, y, z)), rel=1e-12
            )

    def test_tiny_weight_cycle_both_orientations(self, floor_bt3):
        cycle = bt.DirectedCycle((0, 1, 2))
        assert bt.log_cycle_ratio(floor_bt3, cycle) == 0.0
        assert bt.log_cycle_ratio(floor_bt3, cycle.reversed()) == 0.0

    def test_overflow_is_inf(self):
        t = bt.gen_cyclic(40, 1.0 - 1e-12)  # log lambda about 40 * 27.6
        cycle = bt.DirectedCycle(tuple(range(40)))
        assert bt.cycle_ratio(t, cycle) == math.inf
        assert bt.cycle_ratio(t, cycle.reversed()) == 0.0

    def test_four_cycle_in_bt_model(self):
        t = bt.gen_bt([1.0, 2.0, 4.0, 8.0])
        # odds telescope around any cycle of an exact model
        assert abs(bt.log_cycle_ratio(t, bt.DirectedCycle((0, 1, 2, 3)))) <= 1e-12

    def test_concatenation_over_shared_edge(self):
        # triangles (x,y,z) and (y,x,w) share edge xy with opposite direction;
        # their sum is the 4-cycle y->z->x->w->y and ratios multiply
        t = bt.gen_random(5, 44)
        for x, y, z, w in [(0, 1, 2, 3), (1, 3, 0, 4), (2, 0, 4, 1)]:
            lam_c = bt.cycle_ratio(t, bt.DirectedCycle((x, y, z)))
            lam_d = bt.cycle_ratio(t, bt.DirectedCycle((y, x, w)))
            lam_sum = bt.cycle_ratio(t, bt.DirectedCycle((y, z, x, w)))
            assert lam_c * lam_d == pytest.approx(lam_sum, rel=1e-10)

    def test_integer_combination_linearity(self):
        # log lambda of an integer combination of basis cycles is the same
        # combination of the basis log lambdas, checked against an edge-sum
        rng = np.random.default_rng(5)
        t = bt.gen_random(6, 55)
        tree = random_tree(6, rng)
        cycles = list(bt.fundamental_cycles(6, tree))
        p = dense_probs(t)
        ell = np.zeros((6, 6))
        for x in range(6):
            for y in range(6):
                if x != y:
                    ell[x, y] = math.log(p[x, y] / p[y, x])
        coeffs = rng.integers(-2, 3, size=len(cycles))
        flow = np.zeros((6, 6))
        for c, cyc in zip(coeffs, cycles):
            for u, v in cyc.edges():
                flow[u, v] += c
        combined = float((flow * ell).sum())
        via_parts = sum(
            c * bt.log_cycle_ratio(t, cyc) for c, cyc in zip(coeffs, cycles)
        )
        assert combined == pytest.approx(via_parts, abs=1e-9)


class TestFundamentalCycles:
    def test_star_tree_gives_root_triangles(self):
        star = [(0, v) for v in range(1, 6)]
        cycles = list(bt.fundamental_cycles(6, star))
        assert len(cycles) == math.comb(6, 2) - 5
        for c in cycles:
            assert len(c.vertices) == 3
            assert 0 in c.vertices

    def test_bt_star_true(self):
        t = bt.gen_bt([1.0, 1.5, 2.0, 3.0, 5.0])
        assert bt.check_fundamental_cycles(t, [(0, v) for v in range(1, 5)])

    def test_cyclic_any_tree_false(self, cyclic3):
        for tree in ([(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2)]):
            assert not bt.check_fundamental_cycles(cyclic3, tree)

    def test_repaired_random_tree_true(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            t = bt.gen_random(7, seed)
            repaired, _ = bt.repair(t)
            tree = random_tree(7, rng)
            assert bt.check_fundamental_cycles(repaired, tree)

    def test_tree_given_as_an_iterator(self):
        tree = [(0, 1), (2, 1), (1, 3)]
        cycles = list(bt.fundamental_cycles(4, tree))
        assert list(bt.fundamental_cycles(4, iter(tree))) == cycles
        t = bt.gen_random(4, 0)
        assert bt.check_fundamental_cycles(t, iter(tree)) == bt.check_fundamental_cycles(t, tree)

    def test_a_tree_that_misses_a_vertex(self):
        # three distinct edges for n = 4, but a triangle that leaves out 3
        with pytest.raises(bt.NotASpanningTreeError, match="does not reach every vertex"):
            bt.fundamental_cycles(4, [(0, 1), (1, 2), (0, 2)])

    def test_not_a_spanning_tree(self, cyclic3):
        with pytest.raises(bt.NotASpanningTreeError):
            bt.check_fundamental_cycles(cyclic3, [(0, 1)])  # too few
        with pytest.raises(bt.NotASpanningTreeError):
            bt.check_fundamental_cycles(cyclic3, [(0, 1), (0, 1)])  # duplicate
        with pytest.raises(bt.NotASpanningTreeError):
            t4 = bt.gen_random(4, 0)
            bt.check_fundamental_cycles(t4, [(0, 1), (1, 0), (2, 3)])
        with pytest.raises(bt.NotASpanningTreeError):
            bt.check_fundamental_cycles(cyclic3, [(0, 0), (1, 2)])  # self-loop
        with pytest.raises(bt.NotASpanningTreeError):
            bt.check_fundamental_cycles(cyclic3, [(0, 1), (0, 3)])  # out of range
