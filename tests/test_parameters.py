"""Every public numeric and vector parameter goes through one of two rules:
a value that is not a number, or lies outside its range, raises
ParameterOutOfRangeError, and a vector of the wrong shape raises
DimensionMismatchError.  A vertex that is not an integer, a vertex count
that is not one and a record of the wrong length raise library errors too.
On none of the inputs below does a raw numpy or Python error escape."""

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

NOT_NUMBERS = ["0.1", None, 0.1j, True, np.True_, float("nan")]


@pytest.mark.parametrize("site, value", [
    (site, value) for site in SCALARS for value in NOT_NUMBERS
    # None is eps_balance's default: the eps-balanced form is off
    if not (site == "TesterConfig eps_balance" and value is None)
], ids=repr)
def test_a_scalar_that_is_not_a_number_in_range_is_refused(site, value):
    with pytest.raises(bt.ParameterOutOfRangeError):
        SCALARS[site](value)


@pytest.mark.parametrize("site", VECTORS)
@pytest.mark.parametrize("value", NOT_NUMBERS + [0.0, -1.0, float("inf")], ids=repr)
def test_a_vector_entry_that_is_not_a_positive_number_is_refused(site, value):
    # a list and an object array keep the caller's entries; a float array
    # would have read True as 1.0
    for vector in ([1.0, 2.0, value], np.array([1.0, 2.0, value], dtype=object)):
        with pytest.raises(bt.ParameterOutOfRangeError):
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
}


@pytest.mark.parametrize("site", MALFORMED)
def test_a_malformed_vertex_count_or_record_is_refused(site):
    call, error, message = MALFORMED[site]
    with pytest.raises(error, match=message):
        call()
