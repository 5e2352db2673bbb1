"""How a tournament is built: the constructor keeps a read-only array that
owns its data and copies anything else, every builder hands it fresh frozen
arrays, and the results, errors included, are the ones the copying
constructor gave."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from conftest import (
    random_tree,
    reference_extend_tree,
    reference_gen_bt,
    reference_gen_cyclic,
    reference_gen_perturbed,
    reference_gen_random,
    reference_new_tournament,
    reference_repair_with_root,
    reference_set_prob,
    reference_tournament,
)

ETA = bt.ETA


def outcome(build):
    """What a build gives: the arrays' dtypes and bytes, or the error's
    type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", bt.ClampWarning)
            t = build()
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)
    if isinstance(t, tuple):  # a repair: (tournament, report)
        return outcome(lambda: t[0]), t[1]
    return (t.n, t.weights.dtype.str, t.weights.tobytes(),
            t.low_wins.dtype.str, t.low_wins.tobytes(),
            t.weights.flags.writeable, t.low_wins.flags.writeable)


def frozen(a):
    a.setflags(write=False)
    return a


# weights at, inside and outside the band, NaN and infinities
weight = st.one_of(
    st.floats(ETA, 1.0 - ETA),
    st.sampled_from([ETA, 1.0 - ETA, 0.0, 1.0, -0.5, 1.5, np.nan, np.inf, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)
in_band = st.one_of(st.floats(ETA, 1.0 - ETA), st.sampled_from([ETA, 0.5, 1.0 - ETA]))

#: The forms a caller hands an array in: all copied but the frozen owner.
FORMS = ["list", "writeable", "frozen", "frozen view", "other dtype"]


def as_form(form, values, dtype):
    if form == "list":
        return list(values)
    if form == "other dtype":
        dtype = np.float32 if dtype is float else np.int8
    with np.errstate(over="ignore"):  # a float32 weight may overflow to inf
        a = np.array(values, dtype=dtype)
    if form == "writeable":
        return a
    if form == "frozen view":
        a = np.concatenate([a, a[:1]])[: len(values)]
    return frozen(a)


@st.composite
def construction_args(draw):
    n = draw(st.integers(2, 8))
    m = n * (n - 1) // 2
    size = draw(st.sampled_from([m, m, m, m - 1, m + 1]))
    weights = draw(st.lists(st.one_of(weight, in_band), min_size=size, max_size=size))
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    if draw(st.booleans()):
        flags = [int(f) for f in flags]
    return (n, as_form(draw(st.sampled_from(FORMS)), weights, float),
            as_form(draw(st.sampled_from(FORMS)), flags, bool))


@st.composite
def tournaments(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return bt.StochasticTournament(
        n,
        draw(st.lists(in_band, min_size=m, max_size=m)),
        draw(st.lists(st.booleans(), min_size=m, max_size=m)),
    )


# -- the constructor and every builder give what they gave when copying ---


@settings(max_examples=300, deadline=None)
@given(construction_args())
def test_constructor_matches_the_copying_reference(args):
    n, weights, low_wins = args
    assert outcome(lambda: bt.StochasticTournament(n, weights, low_wins)) == outcome(
        lambda: reference_tournament(n, weights, low_wins))


scores = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -1.0, np.nan, np.inf, 1e-300, 1e300]),
    st.integers(-2, 10**6),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(scores, min_size=0, max_size=9), st.booleans())
def test_gen_bt_matches_the_reference(values, as_array):
    a = np.array(values) if as_array and values else values
    assert outcome(lambda: bt.gen_bt(a)) == outcome(lambda: reference_gen_bt(a))


@settings(max_examples=100, deadline=None)
@given(st.integers(-1, 9), st.one_of(weight, st.integers(-1, 2), st.just("0.9")))
def test_gen_cyclic_matches_the_reference(n, p):
    assert outcome(lambda: bt.gen_cyclic(n, p)) == outcome(lambda: reference_gen_cyclic(n, p))


@settings(max_examples=150, deadline=None)
@given(tournaments(),
       st.one_of(st.floats(-0.1, 0.6), st.sampled_from([0.0, 0.49, 0.5, np.nan]),
                 st.integers(0, 1)),
       st.integers(-1, 2**63 - 1))
def test_gen_perturbed_matches_the_reference(base, noise, seed):
    assert outcome(lambda: bt.gen_perturbed(base, noise, seed)) == outcome(
        lambda: reference_gen_perturbed(base, noise, seed))


@settings(max_examples=100, deadline=None)
@given(st.integers(-1, 40), st.integers(-1, 2**63 - 1))
def test_gen_random_matches_the_reference(n, seed):
    assert outcome(lambda: bt.gen_random(n, seed)) == outcome(
        lambda: reference_gen_random(n, seed))


@settings(max_examples=200, deadline=None)
@given(tournaments(), st.data())
def test_set_prob_matches_the_reference(t, data):
    x, y = data.draw(st.integers(-1, t.n)), data.draw(st.integers(-1, t.n))
    p = data.draw(st.one_of(weight, st.just(None)))
    assert outcome(lambda: bt.set_prob(t, x, y, p)) == outcome(
        lambda: reference_set_prob(t, x, y, p))


@settings(max_examples=150, deadline=None)
@given(tournaments(min_n=3), st.data())
def test_repair_with_root_matches_the_reference(t, data):
    r = data.draw(st.integers(-1, t.n))
    assert outcome(lambda: bt.repair_with_root(t, r)) == outcome(
        lambda: reference_repair_with_root(t, r))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.data())
def test_extend_tree_matches_the_reference(n, seed, data):
    edges = random_tree(n, np.random.default_rng(seed))
    w = data.draw(st.lists(st.one_of(in_band, st.sampled_from([1e-11, 1.0 - 1e-11])),
                           min_size=n - 1, max_size=n - 1))
    tw = bt.TreeWeights(n, tuple((u, v, p) for (u, v), p in zip(edges, w)))
    assert outcome(lambda: bt.extend_tree(tw)) == outcome(lambda: reference_extend_tree(tw))


@settings(max_examples=100, deadline=None)
@given(tournaments(), st.data())
def test_new_tournament_on_a_record_array_matches_the_reference(t, data):
    records = list(data.draw(st.permutations(list(t.edges()))))
    table = np.array(records, dtype=[("x", "<i8"), ("y", "<i8"), ("p", "<f8")])
    assert outcome(lambda: bt.new_tournament(t.n, table)) == outcome(
        lambda: reference_new_tournament(t.n, records))


# -- the adoption rule ----------------------------------------------------


class TestAdoption:
    def test_a_writeable_array_is_copied(self):
        w, f = np.full(3, 0.5), np.ones(3, dtype=bool)
        t = bt.StochasticTournament(3, w, f)
        w[0], f[0] = 0.25, False
        assert t.weights[0] == 0.5 and t.low_wins[0]
        assert w.flags.writeable and f.flags.writeable  # not frozen in place

    def test_a_read_only_view_of_a_writeable_base_is_copied(self):
        base, fbase = np.full(4, 0.5), np.ones(4, dtype=bool)
        w, f = frozen(base[:3]), frozen(fbase[:3])
        t = bt.StochasticTournament(3, w, f)
        assert t.weights is not w and t.low_wins is not f
        base[0], fbase[0] = 0.25, False
        assert t.weights[0] == 0.5 and t.low_wins[0]

    def test_a_frozen_owning_array_is_kept(self):
        w, f = frozen(np.full(3, 0.5)), frozen(np.ones(3, dtype=bool))
        t = bt.StochasticTournament(3, w, f)
        assert t.weights is w and t.low_wins is f

    @pytest.mark.parametrize("w", [np.full(3, 0.5, dtype=np.float32),
                                   np.full(3, 0.5, dtype=">f8")])
    def test_a_frozen_array_of_another_dtype_is_copied(self, w):
        t = bt.StochasticTournament(3, frozen(w), frozen(np.array([1, 0, 1], dtype=np.int8)))
        assert t.weights.dtype == np.float64 and t.low_wins.dtype == bool
        assert not t.weights.flags.writeable and not t.low_wins.flags.writeable

    def test_gen_perturbed_shares_the_base_flags(self):
        b = bt.gen_random(6, 1)
        assert bt.gen_perturbed(b, 0.1, 2).low_wins is b.low_wins

    @pytest.mark.parametrize("build", [
        lambda: bt.gen_bt([1.0, 2.0, 3.0]),
        lambda: bt.gen_cyclic(4, 0.9),
        lambda: bt.gen_random(4, 0),
        lambda: bt.gen_perturbed(bt.gen_random(4, 0), 0.1, 1),
        lambda: bt.set_prob(bt.gen_random(4, 0), 0, 1, 0.3),
        lambda: bt.new_tournament(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)]),
        lambda: bt.repair_with_root(bt.gen_cyclic(4, 0.9), 0)[0],
        lambda: bt.extend_tree(bt.TreeWeights(3, ((0, 1, 0.3), (1, 2, 0.6)))),
    ])
    def test_every_builder_hands_over_frozen_owning_arrays(self, build):
        t = build()
        for a in (t.weights, t.low_wins):
            assert a.flags.owndata and not a.flags.writeable


@pytest.mark.parametrize("build", ["random", "perturbed"])
def test_a_generator_allocates_little_beyond_its_result(build):
    n = 1000
    base = bt.gen_random(n, 1)
    bt.gen_perturbed(bt.gen_random(3, 0), 0.1, 0)  # first-call imports
    tracemalloc.start()
    try:
        t = bt.gen_random(n, 2) if build == "random" else bt.gen_perturbed(base, 0.1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fresh = t.weights.nbytes + (t.low_wins.nbytes if build == "random" else 0)
    assert peak <= 1.1 * fresh


def test_a_weight_error_names_its_pair_without_a_pair_table():
    # n = 4000: a table of every pair would take 128 MB, the mask takes 16
    n = 4000
    m = n * (n - 1) // 2
    weights, flags = np.full(m, 0.5), np.zeros(m, dtype=bool)
    weights[m - 2] = 1.0
    weights.setflags(write=False)
    flags.setflags(write=False)
    tracemalloc.start()
    try:
        with pytest.raises(bt.OutOfRangeProbabilityError, match=r"for pair \(3999, 3997\)"):
            bt.StochasticTournament(n, weights, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# -- arguments refused ----------------------------------------------------


class TestOrientationFlags:
    @pytest.mark.parametrize("low_wins, pair, flag", [
        (["a", "", ""], (0, 1), "'a'"),
        ([2, 0, 1], (0, 1), "2"),
        ([0.5, 0, 1], (0, 1), "0.5"),
        ([True, False, 1.0], (1, 2), "1.0"),
        ([True, None, True], (0, 2), "None"),
        (np.array([1, 0, -1]), (1, 2), "-1"),
        (np.array([1.0, 0.0, 1.0]), (0, 1), "1.0"),
        ([True, np.timedelta64(1), True], (0, 2), r"np\.timedelta64\(1\)"),
        (np.array([1, 0, 1], dtype="m8"), (0, 1), r"np\.timedelta64\(1\)"),
        (np.array([1, 0, 1], dtype="m8[s]"), (0, 1), r"np\.timedelta64\(1,'s'\)"),
    ])
    def test_anything_but_a_bool_or_0_or_1_is_refused(self, low_wins, pair, flag):
        with pytest.raises(bt.ParameterOutOfRangeError,
                           match=rf"^orientation flag {flag} for pair \({pair[0]}, {pair[1]}\)"):
            bt.StochasticTournament(3, [0.5] * 3, low_wins)

    @pytest.mark.parametrize("low_wins", [
        [1, 0, 1], [True, 0, np.True_], np.array([1, 0, 1], dtype=np.uint8),
        np.array([True, 0, 1], dtype=object),
    ])
    def test_bools_and_integers_0_and_1_are_flags(self, low_wins):
        t = bt.StochasticTournament(3, [0.5] * 3, low_wins)
        assert t.low_wins.tolist() == [True, False, True]


@pytest.mark.parametrize("weights, entry", [
    (np.array([1, 1, 1], dtype="m8"), r"np\.timedelta64\(1\)"),
    (np.array([1, 1, 1], dtype="m8[s]"), r"np\.timedelta64\(1,'s'\)"),
    (np.array([True, True, True]), "True"), (np.array(["0.5"] * 3), "'0.5'"),
])
def test_a_typed_weights_array_is_judged_by_its_dtype(weights, entry):
    with pytest.raises(bt.OutOfRangeProbabilityError,
                       match=rf"^p={entry} for pair \(0, 1\) is not a real number$"):
        bt.StochasticTournament(3, weights, [True] * 3)


@pytest.mark.parametrize("scores", [
    ["1", "2"], [1, "x"], [1, True], [1, None], [1, 2j], [b"1", 2],
    np.array([True, True]), np.array(["1", "2"]), np.array([1, 2j]),
    np.array([1, 2], dtype="m8"), np.array([1, 2], dtype="m8[s]"),
])
def test_gen_bt_refuses_a_score_that_is_not_a_number(scores):
    with pytest.raises(bt.ParameterOutOfRangeError, match="is not a real number"):
        bt.gen_bt(scores)


@pytest.mark.parametrize("noise", ["0.1", None, True, np.False_, 0.1j])
def test_gen_perturbed_refuses_a_noise_that_is_not_a_number(noise):
    with pytest.raises(bt.ParameterOutOfRangeError, match="noise must be a real number"):
        bt.gen_perturbed(bt.gen_random(3, 0), noise, 0)


@pytest.mark.parametrize("base", [None, [0.5, 0.5, 0.5], bt.gen_random(3, 0).weights])
def test_gen_perturbed_refuses_a_base_that_is_not_a_tournament(base):
    with pytest.raises(bt.ParameterOutOfRangeError, match="base must be a StochasticTournament"):
        bt.gen_perturbed(base, 0.1, 0)
