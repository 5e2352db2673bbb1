"""Property-based checks of the exhaustive kernels and the tester on small
tournaments, with weights drawn up to the probability floor ETA."""

import math
import warnings
from itertools import combinations, permutations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bttest as bt
from bttest import tester
from bttest.balance import _disc_components, _disc_max, _disc_min
from bttest.tournament import logistic, logit
from conftest import (
    dense_probs,
    oracle_per_root_sums,
    reference_estimate,
    reference_log_odds,
    reference_test_bt,
    reference_total_discrepancy,
    reference_triangle,
    reference_triangles,
)

ETA = bt.ETA

#: Weights anywhere in [ETA, 1 - ETA], with the band edges drawn often.
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
def tree_edges(draw, n):
    """A random spanning tree on [0, n): each vertex after 0 hangs off an
    earlier one, in a random orientation, edges in a random order."""
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return draw(st.permutations([e if draw(st.booleans()) else e[::-1] for e in edges]))


@st.composite
def spanning_trees(draw):
    """A random spanning tree with a weight anywhere in [ETA, 1 - ETA] on
    each edge."""
    n = draw(st.integers(2, 12))
    edges = draw(tree_edges(n))
    weights = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    return bt.TreeWeights(n, tuple((u, v, w) for (u, v), w in zip(edges, weights)))


@st.composite
def near_bt(draw, min_n=2, max_noise=1.0):
    """A tournament whose log-odds are an exact model's plus bounded noise,
    together with the model's scores."""
    n = draw(st.integers(min_n, 12))
    scores = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    noise = draw(st.floats(0.0, max_noise))
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
@given(tournaments())
def test_best_root_is_the_lowest_tau_tied_argmin(t):
    oracle = oracle_per_root_sums(t)
    r = bt.best_root(t)
    slack = 1e-12 * (1.0 + oracle.max())  # the oracle sums in another order
    assert oracle[r] <= oracle.min() + bt.TAU + slack
    assert np.all(oracle[:r] > oracle.min() + bt.TAU - slack)


@st.composite
def floor_tournaments(draw):
    """Weights only at the floor, its complement and a coin, in random
    orientations: saturated triangles and exactly balanced ones."""
    n = draw(st.integers(3, 12))
    m = n * (n - 1) // 2
    levels = st.sampled_from([ETA, 2 * ETA, 0.5, 1.0 - 2 * ETA, 1.0 - ETA])
    weights = draw(st.lists(levels, min_size=m, max_size=m))
    low_wins = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return bt.StochasticTournament(n, weights, low_wins)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    tournaments(max_n=24), floor_tournaments(), near_bt(min_n=3).map(lambda c: c[0]),
    near_bt(min_n=3, max_noise=0.0).map(lambda c: c[0])))
def test_total_discrepancy_matches_the_component_reference(t):
    total, per_root = reference_total_discrepancy(t)
    td = bt.total_discrepancy(t)
    assert td.total.hex() == total.hex()
    np.testing.assert_allclose(td.per_root, per_root, rtol=1e-13, atol=0.0)
    assert bt.best_root(t) == int(np.argmax(per_root <= per_root.min() + bt.TAU))


#: Edge log-odds as the log-odds matrix holds them: anywhere in the band,
#: often at its ends or at 0.
log_odds = st.one_of(
    st.floats(float(logit(ETA)), float(logit(1.0 - ETA))),
    st.sampled_from([float(logit(ETA)), float(logit(1.0 - ETA)), 0.0, -0.0]))


@st.composite
def triangle_log_odds(draw):
    """One triangle's (L_xy, L_yz, L_zx): arbitrary, with zero curl, or with
    two or three edges at the same gap |e_i - h|, in any order."""
    a, b, c = draw(st.tuples(log_odds, log_odds, log_odds))
    kind = draw(st.sampled_from(["any", "zero_curl", "tie", "all_equal"]))
    e = {"any": (a, b, c), "zero_curl": (a, b, -(a + b)),
         "tie": (a, a, c), "all_equal": (a, a, a)}[kind]
    return draw(st.permutations(e))


@settings(max_examples=300, deadline=None)
@given(st.lists(triangle_log_odds(), min_size=1, max_size=20))
def test_disc_extremes_are_the_component_extremes(columns):
    e = np.array(columns).T
    components = np.abs(_disc_components(e))
    assert _disc_max(e).tobytes() == components.max(axis=0).tobytes()
    assert _disc_min(e).tobytes() == components.min(axis=0).tobytes()


class _LogOddsOnly:
    """Duck-typed tournament with ``log_odds`` and nothing else, counting one
    edge read per entry of the index arrays."""

    def __init__(self, t):
        self._t, self.reads = t, 0

    def log_odds(self, x, y):
        self.reads += np.size(x)
        return self._t.log_odds(x, y)


@settings(max_examples=60, deadline=None)
@given(tournaments(), st.data())
def test_discrepancy_reads_three_edges_and_no_probability(t, data):
    tri = bt.Triangle(*data.draw(st.permutations(range(t.n)))[:3])
    view = _LogOddsOnly(t)
    assert bt.discrepancy(view, tri) == bt.discrepancy(t, tri)
    assert view.reads == 3


def test_discrepancy_sums_read_no_probability_matrix(monkeypatch):
    """The exhaustive paths read the stored pairs: no probability, and
    neither dense matrix."""
    near = bt.gen_perturbed(bt.gen_bt(np.linspace(1.0, 3.0, 7)), 0.01, 0)
    pi = bt.scores_to_stationary(bt.fit_scores_least_squares(near))
    star = [(0, v) for v in range(1, 7)]

    def run(t):
        td = bt.total_discrepancy(t)
        return (td.total, td.per_root.tolist(), bt.best_root(t),
                [bt.repair_with_root(t, r) for r in (0, 4)] + [bt.repair(t)],
                bt.fit_scores_least_squares(t).tolist(),
                bt.check_fundamental_cycles(t, star),
                [bt.check_reversible(t, pi, eps) for eps in (0.0, 0.02, 0.1)])

    t = bt.gen_random(7, 0)
    expected = run(t), run(near), bt.check_seven_eps(near, pi, 0.1)

    def refuse(*args):
        raise AssertionError("read a probability or a dense matrix")

    monkeypatch.setattr(bt.StochasticTournament, "prob_matrix", refuse)
    monkeypatch.setattr(bt.StochasticTournament, "log_odds_matrix", refuse)
    monkeypatch.setattr(bt.StochasticTournament, "prob", refuse)
    assert (run(t), run(near), bt.check_seven_eps(near, pi, 0.1)) == expected


@settings(max_examples=60, deadline=None)
@given(tournaments(min_n=2))
def test_the_pair_vector_is_the_upper_triangle_of_log_odds(t):
    lo, hi, ell = t._pairs()
    assert [lo.tolist(), hi.tolist()] == [a.tolist() for a in np.triu_indices(t.n, k=1)]
    assert ell.tobytes() == t.log_odds_matrix()[lo, hi].tobytes()
    assert ell.tobytes() == t.log_odds(lo, hi).tobytes()


@settings(max_examples=60, deadline=None)
@given(tournaments(max_n=24))
def test_hodge_identities_tie_the_curl_to_the_fit(t):
    """With phi the row mean of L and R = L - (phi_x - phi_y) its residual
    (Jiang, Lim, Yao & Ye 2011): the squared curls sum to n * S, where S is
    the sum of R_xy^2 over pairs; those through r sum to S + n * rho_r,
    with rho_r the sum of R_ry^2 over y; and phi is the log of the fit."""
    n = t.n
    ell = t.log_odds_matrix()
    phi = ell.sum(axis=1) / n
    resid = ell - (phi[:, None] - phi[None, :])
    x, y, z = np.array(list(combinations(range(n), 3))).T
    curl2 = (ell[x, y] + ell[y, z] + ell[z, x]) ** 2
    lo, hi = np.triu_indices(n, k=1)
    s = math.fsum((resid[lo, hi] ** 2).tolist())
    # R is L less a fit of L's own size, so its rounding scales with L
    atol = 1e-13 * n * math.fsum((ell[lo, hi] ** 2).tolist())
    assert math.isclose(math.fsum(curl2.tolist()), n * s, rel_tol=1e-12, abs_tol=atol)
    rho = (resid**2).sum(axis=1)
    for r in range(n):
        mine = curl2[(x == r) | (y == r) | (z == r)]
        assert math.isclose(math.fsum(mine.tolist()), s + n * rho[r],
                            rel_tol=1e-12, abs_tol=atol)
    fit = np.log(bt.fit_scores_least_squares(t))
    np.testing.assert_allclose(fit, phi - phi[0], rtol=0, atol=1e-12 * (1 + np.abs(phi).max()))


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
            assert abs(bt.log_triangle_ratio(repaired, bt.Triangle(r, u, v))) <= bt.TAU


@settings(max_examples=60, deadline=None)
@given(tournaments(min_n=2))
def test_log_odds_matrix_is_the_per_edge_query(t):
    ell = t.log_odds_matrix()
    assert np.array_equal(ell, -ell.T)
    for x in range(t.n):
        for y in range(t.n):
            if x != y:
                assert ell[x, y] == t.log_odds(x, y)


@settings(max_examples=80, deadline=None)
@given(tournaments(min_n=2) | near_bt().map(lambda case: case[0])
       # noise of a few TAU puts cycle sums on both sides of the bound
       | near_bt(max_noise=3 * bt.TAU).map(lambda case: case[0]), st.data())
def test_cycle_check_matches_the_per_cycle_reference(t, data):
    tree = data.draw(tree_edges(t.n))
    cycles = list(bt.fundamental_cycles(t.n, tree))
    for c in cycles:
        size = sum(abs(t.log_odds(a, b)) for a, b in c.edges())
        # the residual and the cycle sum round differently
        assume(abs(abs(bt.log_cycle_ratio(t, c)) - bt.TAU) > 1e-12 * (1.0 + size))
    expected = all(bt.is_cycle_balanced(t, c) for c in cycles)
    assert bt.check_fundamental_cycles(t, tree) == expected


@settings(max_examples=60, deadline=None)
@given(spanning_trees(), st.data())
def test_extended_tree_passes_the_cycle_check_on_any_tree(tw, data):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", bt.ClampWarning)
        t = bt.extend_tree(tw)
    assume(not caught)
    # every chord is stored as its small side, so no read loses digits
    own = [(u, v) for u, v, _ in tw.edges]
    assert bt.check_fundamental_cycles(t, own)
    assert bt.check_fundamental_cycles(t, data.draw(tree_edges(tw.n)))


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


# -- the batched tester against a one-draw, one-triangle-at-a-time reference


def _reference_curls(t, seed, k):
    """Log-ratio of each of the k triangles a seeded run draws: one
    ``integers`` draw, the dict-based shuffle, and the curl read off
    ``log_odds_matrix()``, one triangle at a time."""
    draws = np.random.default_rng(seed).integers(np.tile(np.arange(3), k), t.n)
    ell = t.log_odds_matrix().tolist()
    for d in draws.reshape(k, 3).tolist():
        x, y, z = reference_triangle(d)
        yield (x, y, z), ell[x][y] + ell[y][z] + ell[z][x]


def _reference_queries(i, k):
    """Edges read up to the end of the chunk holding sample i, for chunks of
    1, 2, 4, ... up to ``_CHUNK`` triangles."""
    end, c = 0, 1
    while end < i:
        end, c = end + c, min(2 * c, tester._CHUNK)
    return 3 * min(end, k)


@st.composite
def exact_models(draw, max_resets=0):
    """An exact model with a random subset of pairs re-stored as their
    complement edge, then up to ``max_resets`` pairs set to any weight, so
    that rejects come late or not at all."""
    n = draw(st.integers(3, 12))
    exact = bt.gen_bt(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    m = n * (n - 1) // 2
    flip = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    weights = np.where(flip, 1.0 - exact.weights, exact.weights)
    t = bt.StochasticTournament(n, weights, exact.low_wins ^ flip)
    for _ in range(draw(st.integers(0, max_resets))):
        x, y = draw(st.permutations(range(n)))[:2]
        t = bt.set_prob(t, x, y, draw(weight))
    return t


#: eps with k anywhere from 1 to past one full chunk (k = 1099 at 1e-3).
tester_eps = st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-3, 5e-3]))
seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(tournaments() | exact_models(max_resets=3), tester_eps, seeds,
       st.none() | st.floats(1e-9, 2.0))
def test_tester_matches_the_reference(t, eps, seed, eps_balance):
    cfg = bt.TesterConfig(eps=eps, seed=seed, eps_balance=eps_balance)
    k = bt.sample_size(eps)
    bound = bt.TAU if eps_balance is None else math.log1p(eps_balance)
    expected = (True, None, k, 3 * k)
    for i, (tri, curl) in enumerate(_reference_curls(t, seed, k), 1):
        if abs(curl) > bound:
            expected = (False, tri, i, _reference_queries(i, k))
            break
    v = bt.test_bt(t, cfg)
    witness = v.witness.vertices() if v.witness else None
    assert (v.accepted, witness, v.samples_used, v.queries) == expected
    assert v.queries <= 3 * k
    if not v.accepted:
        assert v.queries < 6 * v.samples_used


@settings(max_examples=60, deadline=None)
@given(tournaments() | exact_models(max_resets=3), st.integers(1, 2500), seeds)
def test_estimate_matches_the_reference(t, samples, seed):
    bad = sum(abs(curl) > bt.TAU for _, curl in _reference_curls(t, seed, samples))
    assert bt.estimate_unbalanced_fraction(t, samples, seed) == bad / samples


@settings(max_examples=60, deadline=None)
@given(exact_models(), tester_eps, seeds)
def test_tester_is_one_sided_whatever_the_stored_orientation(t, eps, seed):
    assert bt.test_bt(t, bt.TesterConfig(eps=eps, seed=seed)).accepted


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.text(st.characters() | st.sampled_from(" ,\t\n\x0b\x1c\x85\xa0\u2028"), max_size=4),
    min_size=1, max_size=2,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=2)))
def test_any_label_round_trips_or_is_refused_on_write(labels):
    """Two labels drawn from a pool of one or two, so that a repeat is common."""
    t = bt.gen_cyclic(2, 0.9)
    try:
        text = bt.serialize_tournament(t, tuple(labels))
    except bt.LabelError:
        assert any("," in s or s.split() != [s] for s in labels) or labels[0] == labels[1]
        return
    assert bt.parse_document(text).labels == tuple(labels)


@settings(max_examples=60, deadline=None)
@given(near_bt(min_n=3, max_noise=0.0), tester_eps, seeds, st.data())
def test_equivalence_circle(case, eps, seed, data):
    """On an exact model the fit is reversible, every triangle and every
    fundamental cycle is balanced and the tester accepts; moving one pair's
    log-odds breaks both the cycle check and reversibility."""
    t, _ = case
    n = t.n
    ell = t.log_odds_matrix()
    x, y, z = np.array(list(combinations(range(n), 3))).T
    tree = data.draw(tree_edges(n))
    pi = bt.scores_to_stationary(bt.fit_scores_least_squares(t))
    assert bt.check_reversible(t, pi)
    assert np.abs(ell[x, y] + ell[y, z] + ell[z, x]).max() <= bt.TAU
    assert bt.check_fundamental_cycles(t, tree)
    assert bt.test_bt(t, bt.TesterConfig(eps=eps, seed=seed)).accepted

    i = data.draw(st.integers(0, t.weights.size - 1))
    delta = data.draw(st.floats(1e-6, 1.0))
    weights = t.weights.copy()
    weights[i] = logistic(logit(weights[i]) + delta)
    moved = bt.StochasticTournament(n, weights, t.low_wins)
    # for n >= 3 every pair lies on some fundamental cycle of any tree
    assert not bt.check_fundamental_cycles(moved, tree)
    assert not bt.check_fundamental_cycles(moved, data.draw(tree_edges(n)))
    assert not bt.check_reversible(moved, pi)
    assert not bt.check_reversible(
        moved, bt.scores_to_stationary(bt.fit_scores_least_squares(moved))
    )


# -- block draws and the lean log_odds read against the per-chunk reference


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 2**33), st.integers(1, 3000), st.integers(1, tester._CHUNK), seeds)
def test_block_draws_give_the_reference_chunks(n, k, c, seed):
    got = [tri.tolist() for tri in tester._triangles(np.random.default_rng(seed), n, k, c)]
    want = [tri.tolist() for tri in reference_triangles(np.random.default_rng(seed), n, k, c)]
    assert got == want


@st.composite
def verdict_inputs(draw):
    """Random weights, or a perturbed exact model, a cyclic tournament or
    one whose weights sit at the floor and the fair coin."""
    kind = draw(st.sampled_from(["random", "perturbed", "cyclic", "floor"]))
    if kind == "random":
        return draw(tournaments())
    n = draw(st.integers(3, 40))
    if kind == "perturbed":
        scores = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        return bt.gen_perturbed(bt.gen_bt(scores), draw(st.floats(0.0, 0.3)),
                                draw(st.integers(0, 2**32 - 1)))
    if kind == "cyclic":
        return bt.gen_cyclic(n, draw(weight))
    m = n * (n - 1) // 2
    weights = draw(st.lists(st.sampled_from([ETA, 0.5, 1.0 - ETA]), min_size=m, max_size=m))
    low_wins = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return bt.StochasticTournament(n, weights, low_wins)


@settings(max_examples=100, deadline=None)
@given(verdict_inputs(), tester_eps, seeds, st.none() | st.floats(1e-9, 2.0))
def test_tester_verdicts_match_the_per_chunk_reference(t, eps, seed, eps_balance):
    cfg = bt.TesterConfig(eps=eps, seed=seed, eps_balance=eps_balance)
    v = bt.test_bt(t, cfg)
    witness = v.witness.vertices() if v.witness else None
    assert (v.outcome, witness, v.samples_used, v.queries) == reference_test_bt(t, cfg)


@settings(max_examples=60, deadline=None)
@given(verdict_inputs(), st.integers(1, 2500), seeds)
def test_estimate_matches_the_per_chunk_reference(t, samples, seed):
    assert bt.estimate_unbalanced_fraction(t, samples, seed) == reference_estimate(
        t, samples, seed)


#: Index dtypes ``log_odds`` reads; "python" gives plain ints (0-d only).
index_dtypes = st.sampled_from(["int64", "int32", "uint64", "uint8", "bool", "object"])

#: Shapes of x and y: equal, then broadcast but not equal.
id_shapes = st.sampled_from([((), ()), ((0,), (0,)), ((1,), (1,)), ((7,), (7,)), ((4, 3), (4, 3)),
                             ((0, 3), (0, 3)), ((4, 1), (3,)), ((), (7,))])


def _per_entry(t, x, y, read):
    """``read(t, i, a, b)`` of the pair position i of each entry (a, b) of
    the broadcast ids, as Python values: one value for 0-d ids, else a list
    and the broadcast shape."""
    x, y = np.broadcast_arrays(x, y)
    got = []
    for a, b in zip(x.ravel().tolist(), y.ravel().tolist()):
        lo, hi = min(a, b), max(a, b)
        got.append(read(t, lo * (2 * t.n - lo - 1) // 2 + (hi - lo - 1), a, b))
    return got[0] if x.ndim == 0 else (got, x.shape)


def _reference_prob(t, x, y):
    """``prob`` read per entry: the stored weight, or its complement."""
    got = _per_entry(t, x, y, lambda t, i, a, b: float(t.weights[i])
                     if bool(t.low_wins[i]) == (a < b) else 1.0 - float(t.weights[i]))
    return got if type(got) is float else np.array(got[0], dtype=float).reshape(got[1])


def _reference_pair_index(t, x, y):
    got = _per_entry(t, x, y, lambda t, i, a, b: i)
    return got if type(got) is int else np.array(got[0], dtype=np.int64).reshape(got[1])


@settings(max_examples=150, deadline=None)
@given(tournaments(), id_shapes, index_dtypes, index_dtypes, st.booleans(), st.data())
def test_log_odds_matches_the_reference_bit_for_bit(t, shapes, dx, dy, python, data):
    """``log_odds``, ``prob`` and ``pair_index`` over ids of any index dtype,
    of equal shapes or shapes that broadcast, give the bits of per-entry
    reads."""
    sx, sy = shapes
    top = 1 if "bool" in (dx, dy) else t.n - 1
    if sx == sy:
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, top), st.integers(0, top)).filter(lambda p: p[0] != p[1]),
            min_size=math.prod(sx), max_size=math.prod(sx)))
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
    else:  # each x meets each y: draw them from the two sides of a cut
        ids = data.draw(st.permutations(range(top + 1)))
        cut = data.draw(st.integers(1, top))
        xs, ys = (data.draw(st.lists(st.sampled_from(side), min_size=math.prod(s),
                                     max_size=math.prod(s)))
                  for side, s in ((ids[:cut], sx), (ids[cut:], sy)))
    x, y = (v[0] if python and s == () else np.array(v, dtype=d).reshape(s)
            for v, d, s in ((xs, dx, sx), (ys, dy, sy)))
    shape = np.broadcast_shapes(sx, sy)
    for read, reference in ((t.log_odds, reference_log_odds),
                            (t.prob, _reference_prob),
                            (lambda x, y: bt.pair_index(t.n, x, y), _reference_pair_index)):
        got, want = read(x, y), reference(t, x, y)
        assert type(got) is type(want)
        if shape == ():
            assert np.array(got).tobytes() == np.array(want).tobytes()
            continue
        assert got.shape == shape
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        if got.size:  # the log-odds reference read an empty unsigned array as shape (0,)
            assert want.shape == shape


#: Weights at the band's two edges, where a complement leaves the band
#: [ETA, 1 - ETA] in floating point, and anywhere inside it.
edge_weight = st.sampled_from([ETA, 1.0 - ETA]) | weight


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(edge_weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_a_read_weight_is_taken_back(case):
    """Every ``prob`` is a weight: ``set_prob`` stores it back, and a tree
    edge carries it."""
    t = bt.StochasticTournament(*case)
    for x, y in permutations(range(t.n), 2):
        p = t.prob(x, y)
        assert bt.set_prob(t, x, y, p).prob(x, y) == p
        rest = tuple((x, z, 0.5) for z in range(t.n) if z not in (x, y))
        assert bt.TreeWeights(t.n, ((x, y, p), *rest)).edges[0] == (x, y, p)
