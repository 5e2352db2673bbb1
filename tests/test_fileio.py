"""File formats: round trips, validation, line-numbered errors, reports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt


class TestParseTournament:
    def test_two_vertex_file(self):
        t = bt.parse_tournament("bt-tournament v1\nn=2\n0 1 0.5\n")
        assert t.n == 2
        assert t.prob(0, 1) == 0.5

    def test_cyclic_file(self, cyclic3):
        text = "bt-tournament v1\nn=3\n0 1 0.9\n1 2 0.9\n2 0 0.9\n"
        assert bt.parse_tournament(text) == cyclic3

    def test_out_of_range_probability(self):
        with pytest.raises(bt.OutOfRangeProbabilityError):
            bt.parse_tournament("bt-tournament v1\nn=2\n0 1 1.5\n")

    def test_bad_header(self):
        with pytest.raises(bt.ParseError) as exc:
            bt.parse_tournament("something else\nn=2\n0 1 0.5\n")
        assert exc.value.line == 1

    def test_bad_probability_token(self):
        with pytest.raises(bt.ParseError) as exc:
            bt.parse_tournament("bt-tournament v1\nn=2\n0 1 half\n")
        assert exc.value.line == 3

    def test_bad_record_shape(self):
        with pytest.raises(bt.ParseError) as exc:
            bt.parse_tournament("bt-tournament v1\nn=2\n0 1\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, message", [
        ("bt-tournament v1\nn=abc\n0 1 0.5\n", "line 2: bad vertex count 'abc'"),
        ("bt-tournament v1\n", "line 1: missing n= line"),
        ("bt-tournament v1\n# no body\n\n", "line 3: missing n= line"),
    ])
    def test_bad_or_absent_count(self, text, message):
        with pytest.raises(bt.ParseError, match=f"^{message}$"):
            bt.parse_tournament(text)

    def test_missing_n(self):
        with pytest.raises(bt.ParseError):
            bt.parse_tournament("bt-tournament v1\n0 1 0.5\n")

    def test_missing_pair(self):
        with pytest.raises(bt.MissingPairError):
            bt.parse_tournament("bt-tournament v1\nn=3\n0 1 0.5\n1 2 0.5\n")

    def test_duplicate_pair(self):
        with pytest.raises(bt.DuplicatePairError):
            bt.parse_tournament(
                "bt-tournament v1\nn=2\n0 1 0.5\n1 0 0.5\n"
            )

    def test_missing_pair_is_named(self):
        with pytest.raises(bt.MissingPairError, match=r"\{0, 2\}"):
            bt.parse_tournament("bt-tournament v1\nn=3\n0 1 0.5\n1 2 0.5\n")

    def test_first_bad_record_wins(self):
        text = (
            "bt-tournament v1\nn=3\n0 1 0.5\n1 0 0.5\n"
            "1 2 0.5\n0 7 0.5\n0 2 0.5\n"
        )
        with pytest.raises(bt.DuplicatePairError):
            bt.parse_tournament(text)

    @pytest.mark.parametrize("n", [1, 0, -1, -3])
    def test_too_few_vertices(self, n):
        with pytest.raises(bt.VertexOutOfRangeError, match="need at least 2"):
            bt.parse_tournament(f"bt-tournament v1\nn={n}\n")

    def test_comments_and_blank_lines(self):
        text = "# produced by hand\nbt-tournament v1\n\nn=2\n# body\n0 1 0.25\n"
        assert bt.parse_tournament(text).prob(0, 1) == 0.25


class TestLabels:
    def test_labelled_body(self):
        text = (
            "bt-tournament v1\nn=3\nlabels=ann,bob,cid\n"
            "ann bob 0.9\nbob cid 0.9\ncid ann 0.9\n"
        )
        doc = bt.parse_document(text)
        assert doc.labels == ("ann", "bob", "cid")
        assert doc.tournament == bt.gen_cyclic(3, 0.9)

    def test_duplicate_labels(self):
        with pytest.raises(bt.ParseError):
            bt.parse_document(
                "bt-tournament v1\nn=2\nlabels=a,a\n0 1 0.5\n"
            )

    def test_label_count_mismatch(self):
        with pytest.raises(bt.ParseError):
            bt.parse_document(
                "bt-tournament v1\nn=3\nlabels=a,b\n0 1 .5\n0 2 .5\n1 2 .5\n"
            )

    def test_unknown_vertex_token(self):
        with pytest.raises(bt.ParseError) as exc:
            bt.parse_document("bt-tournament v1\nn=2\n0 bob 0.5\n")
        assert exc.value.line == 3

    def test_labels_line_after_the_body(self):
        text = "bt-tournament v1\nn=2\nbob ann 0.25\nlabels=ann,bob\n"
        doc = bt.parse_document(text)
        assert doc.labels == ("ann", "bob")
        assert doc.tournament.prob(1, 0) == 0.25

    def test_integer_tokens_beat_numeric_labels(self):
        # a body token that parses as an integer is always the vertex id,
        # even when some label happens to look like a number
        text = "bt-tournament v1\nn=2\nlabels=1,0\n0 1 0.9\n"
        doc = bt.parse_document(text)
        assert doc.tournament.prob(0, 1) == 0.9

    def test_malformed_labels_rejected(self):
        with pytest.raises(bt.ParseError):
            bt.parse_document("bt-tournament v1\nn=2\nlabels=a,\n0 1 0.5\n")
        t = bt.gen_cyclic(3, 0.9)
        with pytest.raises(ValueError):
            bt.serialize_tournament(t, ("a,b", "c", "d"))
        with pytest.raises(ValueError):
            bt.serialize_tournament(t, ("a", "b"))

    @pytest.mark.parametrize("bad", ["a\x0bb", "a\nb", "\xa0a", "a b", "", "a\u2028"])
    def test_whitespace_labels_rejected_on_write(self, bad):
        # each would write a file that fails to parse or reads back changed
        with pytest.raises(bt.LabelError) as exc:
            bt.serialize_tournament(bt.gen_cyclic(2, 0.9), (bad, "z"))
        assert isinstance(exc.value, bt.TournamentError)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("bad", ["\xa0a", "a\x1fb", "a\u3000"])
    def test_whitespace_labels_rejected_on_read(self, bad):
        with pytest.raises(bt.ParseError) as exc:
            bt.parse_document(f"bt-tournament v1\nn=2\nlabels={bad},z\n0 1 0.5\n")
        assert exc.value.line == 3

    def test_spaces_around_commas_still_read(self):
        doc = bt.parse_document("bt-tournament v1\nn=2\nlabels=ann , bob\n0 1 0.5\n")
        assert doc.labels == ("ann", "bob")


class TestRoundTrip:
    def test_generators_bit_exact(self):
        cases = [
            bt.gen_cyclic(3, 0.9),
            bt.gen_bt([1.0, 2.0, 4.0]),
            bt.gen_random(9, 0),
            bt.gen_random(9, 1),
            bt.gen_perturbed(bt.gen_random(6, 2), 0.2, 3),
        ]
        for t in cases:
            assert bt.parse_tournament(bt.serialize_tournament(t)) == t

    def test_near_floor_weights(self):
        t = bt.new_tournament(2, [(0, 1, bt.ETA)])
        assert bt.parse_tournament(bt.serialize_tournament(t)) == t

    def test_labels_preserved(self):
        t = bt.gen_cyclic(3, 0.9)
        labels = ("x", "y", "z")
        doc = bt.parse_document(bt.serialize_tournament(t, labels))
        assert doc.labels == labels
        assert doc.tournament == t

    def test_orientation_preserved(self):
        t = bt.new_tournament(3, [(1, 0, 0.2), (2, 1, 0.7), (0, 2, 0.4)])
        again = bt.parse_tournament(bt.serialize_tournament(t))
        assert list(again.edges()) == list(t.edges())


class TestTreeFiles:
    def test_round_trip(self):
        tw = bt.TreeWeights(4, ((0, 1, 0.9), (2, 1, 0.25), (2, 3, 0.5)))
        assert bt.parse_tree(bt.serialize_tree(tw)) == tw

    @pytest.mark.parametrize(
        "record, message",
        [
            ("0 1", "expected 'x y w'"),
            ("0 1 heavy", "bad weight"),
            ("0 bob 0.5", "unknown vertex"),
        ],
    )
    def test_bad_record_line(self, record, message):
        with pytest.raises(bt.ParseError, match=message) as exc:
            bt.parse_tree(f"bt-tree v1\nn=3\n0 2 0.5\n{record}\n")
        assert exc.value.line == 4

    def test_parse_errors(self):
        with pytest.raises(bt.ParseError):
            bt.parse_tree("bt-tournament v1\nn=2\n0 1 0.5\n")
        with pytest.raises(bt.NotASpanningTreeError):
            bt.parse_tree("bt-tree v1\nn=3\n0 1 0.5\n0 1 0.4\n")


class TestReports:
    def test_deterministic_minus_timestamp(self):
        a = bt.make_report("test", config={"eps": 0.1}, result={"ok": True}, seed=5)
        b = bt.make_report("test", config={"eps": 0.1}, result={"ok": True}, seed=5)
        ja = json.loads(bt.report_json(a))
        jb = json.loads(bt.report_json(b))
        ja.pop("timestamp")
        jb.pop("timestamp")
        assert ja == jb

    def test_seed_records_rng(self):
        with_seed = bt.make_report("gen", config={}, result={}, seed=1)
        without = bt.make_report("disc", config={}, result={})
        assert with_seed["rng"] == bt.RNG_ALGORITHM
        assert without["rng"] is None

    def test_report_is_one_line(self):
        report = bt.make_report(
            "fit", config={"file": "a.bt"}, result={"scores": [0.1, 1 / 3, -2.5e-17]}
        )
        text = bt.report_json(report)
        assert "\n" not in text
        assert json.loads(text) == report

    @pytest.mark.parametrize(
        "report",
        [
            {},
            bt.make_report("disc", {"file": "a.bt"}, {"total": 0.25}),
            bt.make_report("test", {"eps": 0.1}, {"witness": [0, 1, 2]}, seed=7),
            bt.make_report(
                "validate", {"file": "caf\u00e9.bt"},
                {"valid": True, "labels": ["\u00e9clair", "\u5317\u4eac", "a\"b"]},
            ),
            {"seed": None, "nested": {"deeper": {"x": [1.5, None, {"y": {}}]}}},
            {"": 1e-300, "inf": float("inf"), "nan": float("nan"), "big": 10**30},
            {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        ],
    )
    def test_plain_dict_encodes_as_json_dumps(self, report):
        assert bt.report_json(report) == json.dumps(report)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text() | st.integers() | st.none(), inner, max_size=3),
            max_leaves=12,
        ).map(lambda value: {"seed": None, "value": value})
    )
    def test_any_plain_dict_encodes_as_json_dumps(self, report):
        assert bt.report_json(report) == json.dumps(report)

    def test_unsupported_key_is_refused_as_json_dumps_refuses_it(self):
        with pytest.raises(TypeError):
            json.dumps({(0, 1): 0.5})
        with pytest.raises(TypeError):
            bt.report_json({(0, 1): 0.5})
