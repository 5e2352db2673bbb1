"""Property-based checks of the exhaustive kernels on small tournaments,
with weights drawn up to the probability floor eta."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from conftest import dense_probs, oracle_per_root_sums

ETA = bt.ETA

#: Weights anywhere in [eta, 1 - eta], with the band edges drawn often.
weight = st.one_of(
    st.floats(ETA, 1.0 - ETA),
    st.sampled_from([ETA, 2 * ETA, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - ETA]),
)


@st.composite
def tournaments(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    low_wins = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return bt.StochasticTournament(n, weights, low_wins)


#: Vertex labels the file format can carry: no comma, no whitespace.
label = st.text("abcxyzAZ019_-.", min_size=1, max_size=6)


@st.composite
def spanning_trees(draw):
    """A random spanning tree: each vertex after 0 hangs off an earlier one,
    in a random orientation, with a weight anywhere in [eta, 1 - eta]."""
    n = draw(st.integers(2, 12))
    edges = []
    for v in range(1, n):
        u, w = draw(st.integers(0, v - 1)), draw(weight)
        edges.append((u, v, w) if draw(st.booleans()) else (v, u, w))
    return bt.TreeWeights(n, tuple(draw(st.permutations(edges))))


@st.composite
def near_bt(draw):
    """A tournament whose log-odds are an exact model's plus bounded noise,
    together with the model's scores."""
    n = draw(st.integers(2, 12))
    scores = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    noise = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    x, y = np.triu_indices(n, k=1)
    lo = np.log(scores[x] / scores[y])
    lo += np.random.default_rng(seed).uniform(-noise, noise, lo.size)
    weights = np.clip(1.0 / (1.0 + np.exp(-lo)), ETA, 1.0 - ETA)
    return bt.StochasticTournament(n, weights, np.ones(lo.size, dtype=bool)), scores


@settings(max_examples=60, deadline=None)
@given(tournaments())
def test_total_discrepancy_matches_brute_force(t):
    td = bt.total_discrepancy(t)
    oracle = oracle_per_root_sums(t)
    np.testing.assert_allclose(td.per_root, oracle, rtol=1e-12, atol=1e-12)
    assert math.isclose(td.per_root.sum(), 3.0 * td.total, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(near_bt(), st.booleans())
def test_min_verification_eps_is_the_threshold(case, fitted):
    t, scores = case
    if fitted:
        scores = bt.fit_scores_least_squares(t)
    eps = bt.min_verification_eps(t, scores)
    if eps is None:
        assert not bt.verify_approx_bt(t, scores, 1.0)
        return
    assert 0.0 < eps <= 1.0
    assert bt.verify_approx_bt(t, scores, eps)
    below = eps * (1.0 - 1e-9)
    # the check compares against 1 + eps; a smaller eps that rounds to
    # within one float of the same 1 + eps is not a smaller threshold
    if below > 0.0 and 1.0 + below < math.nextafter(1.0 + eps, 0.0):
        assert not bt.verify_approx_bt(t, scores, below)


def _rounding_slack(p, x, y, z):
    """Error of a triangle's log-odds sum that comes from storing each
    weight as a double: about one ulp of 1 over min(p, 1 - p) per edge."""
    return sum(
        8.0 * 2.0**-52 / min(p[a, b], p[b, a]) for a, b in ((x, y), (y, z), (z, x))
    )


@settings(max_examples=60, deadline=None)
@given(tournaments(), st.data())
def test_repair_balances_every_triangle_through_the_root(t, data):
    r = data.draw(st.integers(0, t.n - 1))
    repaired, report = bt.repair_with_root(t, r)
    p = dense_probs(repaired)
    clamped = {frozenset(e) for e in report.clamped}
    for u in range(t.n):
        for v in range(u + 1, t.n):
            if r in (u, v) or frozenset((u, v)) in clamped:
                continue
            log_lam = math.log(p[r, u] / p[u, r]) + math.log(p[u, v] / p[v, u])
            log_lam += math.log(p[v, r] / p[r, v])
            assert abs(log_lam) <= bt.TAU + _rounding_slack(p, r, u, v)


@settings(max_examples=60, deadline=None)
@given(tournaments(min_n=2))
def test_log_odds_matrix_is_the_per_edge_query(t):
    ell = t.log_odds_matrix()
    assert np.array_equal(ell, -ell.T)
    for x in range(t.n):
        for y in range(t.n):
            if x != y:
                assert ell[x, y] == t.log_odds(x, y)


@settings(max_examples=40, deadline=None)
@given(tournaments(max_n=6))
def test_distance_bracket_is_ordered_and_below_every_root_repair(t):
    bounds = bt.l1_distance_oracle(t)
    root_upper = min(bt.repair_with_root(t, r)[1].total_change for r in range(t.n))
    assert bounds.lower <= bounds.upper <= root_upper + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=6))
def test_distance_of_an_exact_model_is_zero(scores):
    bounds = bt.l1_distance_oracle(bt.gen_bt(scores))
    assert (bounds.lower, bounds.upper) == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(tournaments(min_n=2), st.data())
def test_tournament_file_round_trip_is_bit_exact(t, data):
    labels = data.draw(
        st.none() | st.lists(label, min_size=t.n, max_size=t.n, unique=True).map(tuple)
    )
    doc = bt.parse_document(bt.serialize_tournament(t, labels))
    assert doc.labels == labels
    assert doc.tournament.weights.tobytes() == t.weights.tobytes()
    assert np.array_equal(doc.tournament.low_wins, t.low_wins)


@settings(max_examples=60, deadline=None)
@given(spanning_trees())
def test_tree_file_round_trip(tw):
    assert bt.parse_tree(bt.serialize_tree(tw)) == tw
