"""
Discrepancy, repair, scores and distance
========================================

Measure how unbalanced each triangle is, rewrite a tournament into an
exactly reversible one with a bounded total edit, read scores off a root,
and bracket the L1 distance to the nearest reversible weighting.
"""

import numpy as np

import bttest as bt

rps = bt.gen_cyclic(3, 0.9)
tri = bt.Triangle(0, 1, 2)

# Each triangle can be balanced by changing a single edge; the discrepancy
# is the largest of the three required changes.
d = bt.discrepancy(rps, tri)
print("triangle ratio:", bt.triangle_ratio(rps, tri))
print("single-edge fixes:", d.alpha, d.beta, d.gamma)
print("disc =", d.value)

# Repairing at a root rewrites only the edges opposite it.
fixed, report = bt.repair_with_root(rps, 2)
print("\nedits:", report.edits)
print("total change:", report.total_change)
print("now balanced:", bt.is_balanced(fixed, tri))

# On bigger random tournaments, the root is chosen to minimise the total
# discrepancy of its triangles, which caps the total edit at 3/n of the
# sum over all triangles.
t = bt.gen_random(10, seed=3)
td = bt.total_discrepancy(t)
fixed, report = bt.repair(t)
print(f"\nn=10 random: sum disc = {td.total:.3f}, root {report.root},",
      f"total change = {report.total_change:.3f} <= {0.3 * td.total:.3f}")

# Scores come straight off a root once its triangles are balanced.
scores = bt.scores_from_root(fixed, 0)
pi = bt.scores_to_stationary(scores)
print("repaired tournament reversible:", bt.check_reversible(fixed, pi, 0.0))

# Approximate version: scale the odds of a model by up to 10% and chase
# the guarantees through.
rng = np.random.default_rng(1)
base = rng.uniform(0.5, 2.0, size=8)
entries = []
for x in range(7):
    for y in range(x + 1, 8):
        odds = base[x] / base[y] * np.exp(rng.uniform(-0.09, 0.09))
        entries.append((x, y, odds / (1 + odds)))
near = bt.new_tournament(8, entries)

eps_prime = max(
    max(lam := bt.triangle_ratio(near, tr), 1 / lam) - 1
    for tr in bt.enumerate_triangles(8)
    if 0 in tr.vertices()
)
a = bt.scores_from_root(near, 0)
print(f"\nmeasured eps' = {eps_prime:.4f}")
print("approximate scores verified:", bt.verify_approx_bt(near, a, eps_prime * 1.001))
print("3*eps' reversible:", bt.check_reversible(near, bt.scores_to_stationary(a), 3 * eps_prime))
print("7*eps' balance everywhere:", bt.check_seven_eps(near, bt.scores_to_stationary(a), 3 * eps_prime))

# Least-squares fitting recovers exact models and gives the best potential
# otherwise; the distance oracle brackets the L1 edit distance at desk scale.
print("\nfit on exact model:", bt.fit_scores_least_squares(bt.gen_bt([1, 2, 4])))
bounds = bt.l1_distance_oracle(rps)
print(f"distance of the cyclic tournament: [{bounds.lower:.4f}, {bounds.upper:.4f}]")
