"""Every public numeric and vector parameter goes through one of two rules:
a value that is not a number, or lies outside its range, raises
ParameterOutOfRangeError, and a vector of the wrong shape raises
DimensionMismatchError.  A vertex that is not an integer, a vertex count
that is not one and a record of the wrong length raise library errors too.
On none of the inputs below does a raw numpy or Python error escape."""

import io
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import bttest as bt

T = bt.gen_bt([1.0, 2.0, 4.0])
PI = bt.scores_to_stationary([1.0, 2.0, 4.0])
TRI = bt.Triangle(0, 1, 2)
#: The tournament whose stationary measure is proportional to [1, 2, 4].
T_PI = bt.gen_bt([4.0, 2.0, 1.0])

#: One call per scalar parameter, with the value under test as its argument.
SCALARS = {
    "sample_size eps": lambda v: bt.sample_size(v),
    "sample_size delta": lambda v: bt.sample_size(0.1, v),
    "TesterConfig eps": lambda v: bt.TesterConfig(eps=v),
    "TesterConfig delta": lambda v: bt.TesterConfig(eps=0.1, delta=v),
    "TesterConfig seed": lambda v: bt.TesterConfig(eps=0.1, seed=v),
    "TesterConfig eps_balance": lambda v: bt.TesterConfig(eps=0.1, eps_balance=v),
    "estimate_unbalanced_fraction samples": lambda v: bt.estimate_unbalanced_fraction(T, v, 0),
    "estimate_unbalanced_fraction seed": lambda v: bt.estimate_unbalanced_fraction(T, 10, v),
    "is_eps_balanced eps": lambda v: bt.is_eps_balanced(T, TRI, v),
    "check_reversible eps": lambda v: bt.check_reversible(T, PI, v),
    "check_seven_eps eps": lambda v: bt.check_seven_eps(T, PI, v),
    "verify_approx_bt eps": lambda v: bt.verify_approx_bt(T, [1.0, 2.0, 4.0], v),
    "gen_perturbed noise": lambda v: bt.gen_perturbed(T, v, 0),
    "gen_perturbed seed": lambda v: bt.gen_perturbed(T, 0.1, v),
    "gen_random seed": lambda v: bt.gen_random(3, v),
}

#: One call per score vector or measure, with the vector under test (three
#: entries where the tournament fixes the length) as its argument.
VECTORS = {
    "gen_bt scores": bt.gen_bt,
    "check_reversible pi": lambda v: bt.check_reversible(T, v),
    "check_seven_eps pi": lambda v: bt.check_seven_eps(T_PI, v, 0.1),
    "verify_approx_bt scores": lambda v: bt.verify_approx_bt(T, v, 0.1),
    "min_verification_eps scores": lambda v: bt.min_verification_eps(T, v),
    "scores_to_stationary scores": bt.scores_to_stationary,
}


class Opaque:
    """An object of no number type, with a repr that names the test alike on
    every run."""

    def __repr__(self):
        return "Opaque()"


NOT_NUMBERS = ["0.1", None, 0.1j, True, np.True_, float("nan"),
               [], {}, (0.1,), Opaque(), np.array([0.1, 0.2])]

#: The values above that may stand as an entry of a vector: a sequence there
#: makes the vector ragged, which is a wrong shape (see below).
NOT_ENTRIES = [v for v in NOT_NUMBERS if np.ndim(v) == 0]


@pytest.mark.parametrize("site, value", [
    (site, value) for site in SCALARS for value in NOT_NUMBERS
    # None is eps_balance's default: the eps-balanced form is off
    if not (site == "TesterConfig eps_balance" and value is None)
], ids=repr)
def test_a_scalar_that_is_not_a_number_in_range_is_refused(site, value):
    with pytest.raises(bt.ParameterOutOfRangeError):
        SCALARS[site](value)


@pytest.mark.parametrize("site", VECTORS)
@pytest.mark.parametrize("value", NOT_ENTRIES + [0.0, -1.0, float("inf")], ids=repr)
def test_a_vector_entry_that_is_not_a_positive_number_is_refused(site, value):
    # a list and an object array keep the caller's entries; a float array
    # would have read True as 1.0
    for vector in ([1.0, 2.0, value], np.array([1.0, 2.0, value], dtype=object)):
        with pytest.raises(bt.ParameterOutOfRangeError):
            VECTORS[site](vector)


@pytest.mark.parametrize("site", VECTORS)
@pytest.mark.parametrize("vector", [
    np.array([1, 2, 4], dtype="m8"), np.array([1, 2, 4], dtype="m8[s]"),
    np.array([True, True, True]), np.array(["1", "2", "4"]), np.array([1, 2, 4], dtype=complex),
], ids=repr)
def test_a_typed_vector_is_judged_by_its_dtype(site, vector):
    # every entry of a typed array is of its dtype, so the first is named
    with pytest.raises(bt.ParameterOutOfRangeError, match="entry .* is not a real number"):
        VECTORS[site](vector)


@pytest.mark.parametrize("site", VECTORS)
@pytest.mark.parametrize("value", [[1.0], [[1.0, 2.0, 4.0]], 1.0, None, "124", np.ones((3, 1)),
                                   [[1.0, 2.0], [4.0]], [1.0, [2.0, 4.0]]], ids=repr)
def test_a_vector_of_the_wrong_shape_is_refused(site, value):
    with pytest.raises(bt.DimensionMismatchError):
        VECTORS[site](value)


@pytest.mark.parametrize("site", [s for s in VECTORS if s.split()[0] not in (
    "gen_bt", "scores_to_stationary")])
def test_a_vector_of_another_length_than_the_tournament_is_refused(site):
    with pytest.raises(bt.DimensionMismatchError):
        VECTORS[site]([1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize("site", SCALARS)
def test_a_valid_scalar_passes(site):
    value = 3 if "seed" in site or "samples" in site else 0.25
    SCALARS[site](value)
    SCALARS[site](np.int64(value) if isinstance(value, int) else np.float64(value))


@pytest.mark.parametrize("site", VECTORS)
def test_a_valid_vector_gives_one_result_in_any_form(site):
    forms = ([1.0, 2.0, 4.0], [1, 2, 4], (1.0, 2.0, 4.0), np.array([1, 2, 4], dtype=np.int8),
             np.array([1.0, 2.0, 4.0], dtype=object), [Fraction(1), 2, np.float32(4)])
    first = VECTORS[site](forms[0])
    for vector in forms[1:]:
        np.testing.assert_equal(VECTORS[site](vector), first)


def test_the_message_names_the_parameter_and_its_rule():
    with pytest.raises(bt.ParameterOutOfRangeError, match=r"^eps must be in \(0, 1\), got 1\.5$"):
        bt.sample_size(1.5)
    with pytest.raises(bt.ParameterOutOfRangeError, match=r"^eps must be a real number, got '0\.1'$"):
        bt.check_reversible(T, PI, "0.1")
    with pytest.raises(bt.ParameterOutOfRangeError, match=r"^pi entry None is not a real number$"):
        bt.check_reversible(T, [1.0, 1.0, None])
    with pytest.raises(bt.DimensionMismatchError, match=r"^scores must be a 1-D vector of length 3$"):
        bt.verify_approx_bt(T, [1.0, 2.0], 0.1)


TREE = [(0, 1, 0.5), (1, 2, 0.5)]
T2 = bt.gen_random(2, 0)

#: One call per malformed vertex, vertex count or record: the error it
#: raises and a pattern its message matches.
MALFORMED = {
    "DirectedCycle float vertex": (lambda: bt.DirectedCycle((0, 1, 2.5)),
                                   bt.VertexOutOfRangeError, "vertex 2.5 "),
    "DirectedCycle text vertex": (lambda: bt.DirectedCycle((0, "1", 2)),
                                  bt.VertexOutOfRangeError, "vertex '1' "),
    "Triangle float vertex": (lambda: bt.Triangle(0, 1.5, 2),
                              bt.VertexOutOfRangeError, "vertex 1.5 "),
    "Triangle text vertex": (lambda: bt.Triangle(0, 1, "2"),
                             bt.VertexOutOfRangeError, "vertex '2' "),
    "Triangle numpy float vertex": (lambda: bt.Triangle(0, np.float64(1.5), 2),
                                    bt.VertexOutOfRangeError, "vertex 1.5 "),
    "DirectedCycle numpy text vertex": (lambda: bt.DirectedCycle((0, 1, np.str_("x"))),
                                        bt.VertexOutOfRangeError, "vertex 'x' "),
    "enumerate_triangles text count": (lambda: bt.enumerate_triangles("5"),
                                       bt.ParameterOutOfRangeError, "n='5'"),
    "fundamental_cycles float count": (lambda: bt.fundamental_cycles(3.0, [(0, 1), (1, 2)]),
                                       bt.ParameterOutOfRangeError, "n=3.0"),
    "TreeWeights text count": (lambda: bt.TreeWeights("3", TREE),
                               bt.ParameterOutOfRangeError, "n='3'"),
    "new_tournament two-field record": (
        lambda: bt.new_tournament(3, [(0, 1), (0, 2, 0.5), (1, 2, 0.5)]),
        bt.DimensionMismatchError, r"record \(0, 1\) "),
    "new_tournament record that is no sequence": (
        lambda: bt.new_tournament(3, [(0, 1, 0.5), 7, (1, 2, 0.5)]),
        bt.DimensionMismatchError, "record 7 "),
    "TreeWeights two-field record": (lambda: bt.TreeWeights(3, [(0, 1), (1, 2, 0.5)]),
                                     bt.DimensionMismatchError, r"record \(0, 1\) "),
    "fundamental_cycles three-field edge": (lambda: bt.fundamental_cycles(3, TREE),
                                            bt.DimensionMismatchError, r"record \(0, 1, 0\.5\) "),
    "DirectedCycle no collection": (lambda: bt.DirectedCycle(5),
                                    bt.DegenerateCycleError, "got 5$"),
    "DirectedCycle 0-d array": (lambda: bt.DirectedCycle(np.array(5)),
                                bt.DegenerateCycleError, r"got array\(5\)$"),
    "fundamental_cycles unhashable vertex": (lambda: bt.fundamental_cycles(3, [([0], 1), (1, 2)]),
                                             bt.NotASpanningTreeError, r"\(\[0\], 1\)"),
    "new_tournament records that are no collection": (lambda: bt.new_tournament(3, 7),
                                                      bt.DimensionMismatchError, "^7 is not"),
    "new_tournament 0-d array record": (lambda: bt.new_tournament(2, [np.array(7)]),
                                        bt.DimensionMismatchError, r"record array\(7\) "),
    "TreeWeights edges that are no collection": (lambda: bt.TreeWeights(3, None),
                                                 bt.DimensionMismatchError, "^None is not"),
    "StochasticTournament ragged weights": (
        lambda: bt.StochasticTournament(3, [0.5, [0.5], 0.5], [True] * 3),
        bt.DimensionMismatchError, "expected 3 pair entries"),
    "StochasticTournament bool weights": (
        lambda: bt.StochasticTournament(3, np.array([True] * 3), [True] * 3),
        bt.OutOfRangeProbabilityError, r"^p=True for pair \(0, 1\) is not a real number$"),
    "log_triangle_ratio two vertices": (lambda: bt.log_triangle_ratio(T, [0, 1]),
                                        bt.DimensionMismatchError, r"got shape \(2,\)"),
    "test_bt two vertices": (lambda: bt.test_bt(T2, bt.TesterConfig(0.1)),
                             bt.TooFewVerticesError, "^need at least 3 vertices, got n=2$"),
    "estimate_unbalanced_fraction two vertices": (
        lambda: bt.estimate_unbalanced_fraction(T2, 10, 0),
        bt.TooFewVerticesError, "^need at least 3 vertices, got n=2$"),
    "best_root two vertices": (lambda: bt.best_root(T2),
                               bt.TooFewVerticesError, "^need at least 3 vertices, got n=2$"),
    "load_tournament file descriptor": (lambda: bt.load_tournament(1),
                                        bt.ParameterOutOfRangeError, "^path must be"),
    "load_tree file descriptor": (lambda: bt.load_tree(0),
                                  bt.ParameterOutOfRangeError, "^path must be"),
    "serialize_tournament labels that are no sequence": (
        lambda: bt.serialize_tournament(T, 3), bt.LabelError, "got 3$"),
    "parse_tournament binary stream": (
        lambda: bt.parse_tournament(io.BytesIO(bt.serialize_tournament(T).encode())),
        bt.ParseError, "^line 1: expected text, got bytes$"),
    "serialize_tournament labels that are no text": (
        lambda: bt.serialize_tournament(T, [0, 1, 2]), bt.LabelError, "nonempty"),
}

def _objects(*values):
    """An object array of ``values`` as they are: a list would make a
    sequence among them a ragged shape."""
    a = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        a[i] = v
    return a


#: One call per weight site, with the weight under test as its argument.
WEIGHTS = {
    "StochasticTournament": lambda w: bt.StochasticTournament(3, _objects(0.5, w, 0.5), [True] * 3),
    "new_tournament": lambda w: bt.new_tournament(3, [(0, 1, 0.5), (0, 2, w), (1, 2, 0.5)]),
    "TreeWeights": lambda w: bt.TreeWeights(3, [(0, 1, 0.5), (1, 2, w)]),
    "set_prob": lambda w: bt.set_prob(T, 0, 1, w),
    "gen_cyclic": lambda w: bt.gen_cyclic(3, w),
}


@pytest.mark.parametrize("site", WEIGHTS)
@pytest.mark.parametrize("value", [[0.5], {}, Opaque(), np.array([0.5, 0.5]), np.array([0.5]),
                                   np.array("0.5"), np.timedelta64(1, "s"), True, np.True_],
                         ids=repr)
def test_a_weight_that_is_not_a_number_is_refused(site, value):
    with pytest.raises(bt.OutOfRangeProbabilityError, match="is not a real number"):
        WEIGHTS[site](value)


@pytest.mark.parametrize("site", WEIGHTS)
def test_a_weight_outside_the_band_gives_one_message(site):
    with pytest.raises(bt.OutOfRangeProbabilityError,
                       match=r"^p=1\.5 for pair \(\d, \d\) outside \[1e-12, 0\.999999999999\]$"):
        WEIGHTS[site](1.5)


def _entry(call, form):
    """``call`` with the value under test as the last entry of a vector,
    in a list or, for ``form == "object"``, an object array."""
    if form == "object":
        return lambda v: call(_objects(1.0, 2.0, v))
    return lambda v: call([1.0, 2.0, v])


#: Every site that takes a number: each scalar parameter, each vector
#: entry in a list and in an object array, and each weight.
NUMBER_SITES = {
    **SCALARS,
    **{f"{site} {form} entry": _entry(call, form)
       for site, call in VECTORS.items() for form in ("list", "object")},
    **{f"{site} weight": call for site, call in WEIGHTS.items()},
}


@pytest.mark.parametrize("site", NUMBER_SITES)
def test_every_nan_gets_one_verdict_at_each_number_site(site):
    raised = []
    for value in (float("nan"), Decimal("NaN"), Decimal("sNaN")):
        with pytest.raises(bt.TournamentError) as exc:
            NUMBER_SITES[site](value)
        raised.append(type(exc.value))
    assert raised == [raised[0]] * 3


@pytest.mark.parametrize("site", MALFORMED)
def test_a_malformed_vertex_count_or_record_is_refused(site):
    call, error, message = MALFORMED[site]
    with pytest.raises(error, match=message):
        call()
