"""The reader's columnar body decode against the line-by-line reference.

``fileio._read`` hands a file's body to one ``np.loadtxt`` call and falls
back to decoding it record by record where that call refuses.  Every file,
valid or not, must come out as the reference reader plus the reference
``new_tournament`` loop in ``conftest`` make it: the same document bit for
bit, or the same error class, message and line.
"""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from bttest import fileio
from conftest import reference_new_tournament, reference_read

TOURNAMENT, TREE = fileio.TOURNAMENT_TAG, fileio.TREE_TAG

#: Tokens that Python's int/float and np.loadtxt may read differently.
ODD_TOKENS = [
    "1.0", "+1", "-1", "-0", "007", "1_0", "١", "99999999999999999999",
    "9223372036854775808", "nan", "-nan", "inf", "1e400", "1e-400", "0x1",
    "0.5", "1e-12", "a", "#", "0.5#", "1\u01fe", "\u01fe",
]

#: Separators python's str.split() and np.loadtxt may treat differently.
ODD_SPACES = ["\t", "\xa0", "\x1f", "　", "  ", "\x00"]

weight = st.one_of(
    st.floats(bt.ETA, 1.0 - bt.ETA),
    st.sampled_from([bt.ETA, 0.5, 1.0 - bt.ETA, 0.0, 1.0, 1.5]),
)


@st.composite
def files(draw):
    """A well-formed tournament or tree file, then 0-4 mutations."""
    tag = draw(st.sampled_from([TOURNAMENT, TREE]))
    n = draw(st.integers(2, 5))
    if tag == TOURNAMENT:
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    else:
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [p if draw(st.booleans()) else p[::-1] for p in pairs]
    names = [f"v{i}" for i in range(n)] if draw(st.booleans()) else None
    lines = [tag, f"n={n}"]
    if names:
        lines.append("labels=" + ",".join(names))
    for x, y in pairs:
        ids = (names[x], names[y]) if names and draw(st.booleans()) else (x, y)
        lines.append(f"{ids[0]} {ids[1]} {draw(weight)!r}")
    for _ in range(draw(st.integers(0, 4))):
        if lines:
            lines = draw(mutated(lines, n))
    return tag, "\n".join(lines) + "\n"


@st.composite
def mutated(draw, lines, n):
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines)))
    line = lines[i]
    op = draw(st.sampled_from(
        ["delete", "duplicate", "swap", "insert", "token", "space", "trailing"]))
    if op == "delete":
        return lines[:i] + lines[i + 1:]
    if op == "duplicate":
        return lines[:j] + [line] + lines[j:]
    if op == "swap":
        out = list(lines)
        k = draw(st.integers(0, len(lines) - 1))
        out[i], out[k] = out[k], out[i]
        return out
    if op == "insert":
        extra = draw(st.sampled_from([
            "", "   ", "\t", "# a comment", "#0 1 0.5", f"n={n}", "n=2",
            "labels=" + ",".join(f"v{i}" for i in range(n)), "labels=a,b",
        ]))
        return lines[:j] + [extra] + lines[j:]
    tokens = line.split(" ")
    if op == "token":
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(st.sampled_from(ODD_TOKENS))
        line = " ".join(tokens)
    elif op == "space":
        line = draw(st.sampled_from(ODD_SPACES)).join(tokens)
    else:
        line += draw(st.sampled_from([" #", "#", " # note", " ", "\xa0"]))
    return lines[:i] + [line] + lines[i + 1:]


def outcome(build):
    """A comparable digest of what ``build()`` returns or raises."""
    try:
        doc = build()
    except Exception as e:  # the class itself is compared
        return type(e), str(e), getattr(e, "line", None)
    if isinstance(doc, bt.TreeWeights):
        return doc.n, tuple((u, v, w.hex()) for u, v, w in doc.edges)
    t = doc.tournament
    return t.n, t.weights.tobytes(), t.low_wins.tobytes(), doc.labels


def reference(tag, text):
    n, labels, records = reference_read(text, tag)
    if tag == TREE:
        return bt.TreeWeights(n, tuple(records))
    return fileio.TournamentDocument(reference_new_tournament(n, records), labels)


@settings(max_examples=600, deadline=None)
@given(files())
def test_reader_agrees_with_the_record_by_record_reference(case):
    tag, text = case
    parse = bt.parse_tree if tag == TREE else bt.parse_document
    assert outcome(lambda: parse(text)) == outcome(lambda: reference(tag, text))


#: A vertex id as a caller may pass one: mostly in range, sometimes not an
#: int, or a bool, which an error message must print as given, or a
#: duration, which is no id (built, since hypothesis cannot hash it).
vertex = st.one_of(st.integers(-1, 5), st.sampled_from(
    [0.5, 1.0, 2**63, 2**70, np.int64(1), True, False, np.True_]),
    st.builds(np.timedelta64, st.just(1)))


@st.composite
def record_lists(draw):
    """n and a shuffled record list: every pair in a random orientation, some
    dropped, plus a few arbitrary records."""
    n = draw(st.integers(2, 5))
    entries = [(x, y, draw(weight)) if draw(st.booleans()) else (y, x, draw(weight))
               for x in range(n) for y in range(x + 1, n)]
    entries = entries[:draw(st.integers(len(entries) - 1, len(entries)))]
    entries += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=2))
    return n, draw(st.permutations(entries))


@settings(max_examples=300, deadline=None)
@given(record_lists())
def test_new_tournament_agrees_with_the_loop_on_record_lists(case):
    n, entries = case
    def digest(build):
        try:
            t = build()
        except Exception as e:
            return type(e), str(e)
        return t.weights.tobytes(), t.low_wins.tobytes()

    assert digest(lambda: bt.new_tournament(n, entries)) == digest(
        lambda: reference_new_tournament(n, entries))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(bt.ETA, 1.0 - bt.ETA), min_size=3, max_size=3))
def test_repr_of_an_in_band_double_reads_back_bit_exact(ws):
    text = f"{TOURNAMENT}\nn=3\n0 1 {ws[0]!r}\n2 0 {ws[1]!r}\n1 2 {ws[2]!r}\n"
    t = bt.parse_tournament(text)
    assert t.weights.tobytes() == np.array(ws).tobytes()


class TestNoWarningLeaks:
    """Bodies np.loadtxt warns about fall back quietly."""

    @pytest.mark.parametrize("body", ["", "# only a comment\n", "\n   \n\t\n"])
    def test_empty_body(self, body):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(bt.MissingPairError, match=r"\{0, 1\}"):
                bt.parse_document(f"{TOURNAMENT}\nn=2\n{body}")
        assert caught == []

    def test_float_in_an_integer_column(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(bt.ParseError, match="unknown vertex '1.0'") as exc:
                bt.parse_document(f"{TOURNAMENT}\nn=2\n0 1.0 0.5\n")
        assert exc.value.line == 3
        assert caught == []

    @pytest.mark.parametrize("lines", [[], ["", "  "], ["0 1.0 0.5"], ["0 1 2 3"]])
    def test_refused_bodies_give_none(self, lines):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fileio._columns(lines, all_ascii=False) is None
        assert caught == []


def test_overlapping_parses_leave_the_warning_filters_as_they_were(monkeypatch):
    # parse A holds the warning filters while parse B starts; unguarded, B
    # would save A's "error" filter, then put it back after A restored them
    loadtxt = np.loadtxt
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def slow_loadtxt(*args, **kwargs):
        if not a_in.is_set():
            a_in.set()
            b_in.wait(0.5)  # B gets this far only if nothing holds it back
        else:
            b_in.set()
            a_out.wait(5)
        return loadtxt(*args, **kwargs)

    def parse_a():
        bt.parse_tournament(text)
        a_out.set()

    monkeypatch.setattr(np, "loadtxt", slow_loadtxt)
    text = bt.serialize_tournament(bt.gen_random(4, 0))
    before = list(warnings.filters)
    a = threading.Thread(target=parse_a)
    a.start()
    a_in.wait(5)
    b = threading.Thread(target=bt.parse_tournament, args=(text,))
    b.start()
    a.join()
    b.join()
    assert warnings.filters == before


class TestPaths:
    def test_plain_body_is_one_record_array(self):
        text = bt.serialize_tournament(bt.gen_random(5, 0))
        n, labels, records = fileio._read(text, TOURNAMENT)
        assert isinstance(records, np.ndarray) and records.dtype == fileio._RECORD
        assert bt.parse_tournament(text) == bt.gen_random(5, 0)

    @pytest.mark.parametrize("tail", ["# end\n", "\n# end\n  \n", "  # a\n#b\n\n"])
    def test_trailing_comments_keep_the_record_array(self, tail):
        t = bt.gen_random(5, 0)
        text = bt.serialize_tournament(t) + tail
        records = fileio._read(text, TOURNAMENT)[2]
        assert isinstance(records, np.ndarray) and records.dtype == fileio._RECORD
        parsed = bt.parse_tournament(text)
        assert parsed.weights.tobytes() == t.weights.tobytes()
        assert np.array_equal(parsed.low_wins, t.low_wins)

    @pytest.mark.parametrize("odd", [
        "labels=a,b,c\na b 0.5\nc a 0.5\nb c 0.5\n",  # labels in the body
        "0 1 0.5\n# note\n0 2 0.5\n1 2 0.5\n",  # a comment inside the body
        "0 1 0.5\n0 2 0.5\n1 1_0 0.5\n",  # a token only int() reads
    ])
    def test_irregular_bodies_take_the_record_path(self, odd):
        text = f"{TOURNAMENT}\nn=3\n{odd}"
        assert isinstance(fileio._read(text, TOURNAMENT)[2], list)
        assert outcome(lambda: bt.parse_document(text)) == outcome(
            lambda: reference(TOURNAMENT, text))

    def test_non_ascii_digits_take_the_record_path(self):
        # np.loadtxt alone reads "2\u01fe" as the integer 482
        assert fileio._columns(["1 2\u01fe 0.5"], all_ascii=False) is None
        with pytest.raises(bt.ParseError, match="unknown vertex '2\u01fe'") as exc:
            bt.parse_document(f"{TOURNAMENT}\nn=3\n0 1 0.5\n0 2 0.5\n1 2\u01fe 0.5\n")
        assert exc.value.line == 5

    def test_non_ascii_labels_keep_an_ascii_body_on_the_record_array(self):
        # the text is not ASCII, so each body line is checked on its own
        t = bt.gen_random(3, 0)
        body = bt.serialize_tournament(t).split("\n", 2)[2]
        text = f"{TOURNAMENT}\nn=3\nlabels=\u00e9,\u5317,c\n{body}"
        assert isinstance(fileio._read(text, TOURNAMENT)[2], np.ndarray)
        assert bt.parse_tournament(text).weights.tobytes() == t.weights.tobytes()
