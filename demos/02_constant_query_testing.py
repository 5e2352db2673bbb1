"""
Testing with a constant number of queries
=========================================

Decide whether a tournament is (close to) a Bradley-Terry model by looking
at a handful of random triangles.  The number of edge queries depends only
on the farness parameter, never on the number of players.
"""

import numpy as np

import bttest as bt

# How many triangles must be sampled?  At failure probability 1/3 the
# sample size stays below 2/eps.
for eps in (0.5, 0.1, 0.01):
    print(f"eps = {eps:<5} -> {bt.sample_size(eps):>4} samples")

# A score-generated tournament is accepted with probability one, no matter
# the seed: the tester is one-sided.
rng = np.random.default_rng(0)
model = bt.gen_bt(rng.uniform(0.5, 2.0, size=500))
verdict = bt.test_bt(model, bt.TesterConfig(eps=0.1, seed=123))
print("\n500-player model:", verdict.outcome, "after", verdict.samples_used, "samples")
print("edge queries:", verdict.queries, "(3 per sample, whatever the number of players)")

# The cyclic tournament is rejected, and the verdict carries a witness
# triangle that anyone can re-check.
rps = bt.gen_cyclic(3, 0.9)
verdict = bt.test_bt(rps, bt.TesterConfig(eps=0.5, seed=123))
print("cyclic tournament:", verdict.outcome, "witness", verdict.witness)
print("witness really unbalanced:", not bt.is_balanced(rps, verdict.witness))
print("edge queries:", verdict.queries, "(the run stops at the first unbalanced triangle)")

# Larger cyclic tournaments have many unbalanced triangles; the sampled
# fraction estimates how many.
big = bt.gen_cyclic(60, 0.9)
frac = bt.estimate_unbalanced_fraction(big, samples=2000, seed=5)
print(f"\nestimated unbalanced fraction at n=60: {frac:.3f}")

# About a tenth of the triangles are unbalanced here, so running the tester
# at eps = 0.1 must reject at least two thirds of the time.
eps, rounds = 0.1, 300
f = bt.sample_size(eps)
rejects = sum(
    not bt.test_bt(big, bt.TesterConfig(eps=eps, seed=s)).accepted
    for s in range(rounds)
)
print(f"reject rate at eps={eps}: {rejects / rounds:.2f} with {f} samples each")
