"""The error surface, swept: every public callable in ``bttest.__all__`` and
every query method of a tournament, given a value of the wrong type, shape
or size, or a number judged by its float, for any one argument, for any
one field of one record of an argument that holds records, or for any one
entry of a vector argument, returns or raises a ``TournamentError``.  No
raw numpy or Python exception escapes, apart from the few written out in
``OUT_OF_SCOPE``.  Both sweeps run twice: in the default decimal context
and in one that traps ``FloatOperation``, where a ``Decimal`` that meets a
float raises.

Each call starts from one valid set of arguments, read by parameter name
from ``VALID`` (or ``VALID_FOR`` where a name means something else), and
replaces one of them.  The sweep is deterministic: it tries every value
below for every argument of every callable.  No value is a valid size that
costs real work: counts are only far past ``MAX_PAIRS`` pairs, which
``_check_n`` refuses before anything is allocated, and no sample count is
valid and large."""

import contextlib
import decimal
import inspect
import io
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import bttest as bt

SCORES = [1.0, 2.0, 4.0, 8.0]
T = bt.gen_bt(SCORES)
TREE = ((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5))

#: A valid value for each parameter name.
VALID = {
    "t": T, "base": T, "n": 4, "x": 0, "y": 1, "z": 2, "r": 0, "p": 0.3,
    "eps": 0.1, "delta": 0.25, "seed": 0, "noise": 0.1, "eps_balance": None,
    "samples": 5, "pi": bt.scores_to_stationary(SCORES), "scores": SCORES,
    "entries": list(T.edges()), "weights": T.weights, "low_wins": T.low_wins,
    "tri": bt.Triangle(0, 1, 2), "cycle": bt.DirectedCycle((0, 1, 2)),
    "vertices": (0, 1, 2), "tree_edges": [e[:2] for e in TREE],
    "edges": TREE, "tw": bt.TreeWeights(4, TREE), "cfg": bt.TesterConfig(0.1),
    "rng": np.random.default_rng(0), "labels": ("a", "b", "c", "d"),
    "source": bt.serialize_tournament(T), "path": os.devnull,
    "command": "fit", "config": {}, "result": {}, "report": {},
    # plain records, which check nothing
    "alpha": 0.0, "beta": 0.0, "gamma": 0.0, "total": 0.0, "per_root": np.zeros(4),
    "accepted": True, "witness": None, "samples_used": 1, "queries": 3,
    "root": 0, "total_change": 0.0, "per_edge_bound_ok": True, "clamped": (),
    "upper": 0.0, "lower": 0.0, "tournament": T, "edits": (),
}

#: Where a name means something else in one callable.
VALID_FOR = {"parse_tree": {"source": bt.serialize_tree(bt.TreeWeights(4, TREE))}}

#: Values of the wrong type or shape for any parameter.
WRONG = [
    None, "0.1", "", b"0", 0.5j, True, np.True_, object(), {}, [], (0.1,), {0.1},
    Decimal("NaN"), Decimal("sNaN"), np.timedelta64(1, "s"), np.array("0.1"),
    np.array([0.1, 0.2]), np.array([0.1]), np.array([]), np.ones((2, 2)),
    [[0.1, 0.2], [0.3]], [0.1, [0.2]],
]

#: Values of the wrong size for any parameter: negative, not finite.
WRONG_SIZE = [-1, -2**70, -1e-300, -1.0, float("nan"), float("inf"), float("-inf")]

#: Numbers judged as their float, for any parameter: an int past the float
#: range, which has none, a Fraction whose float is 0.0 and one whose float
#: is 1.0, and a Decimal, valid wherever a real is taken.
REALS = [10**400, Fraction(1, 10**400), 1 - Fraction(1, 10**400), Decimal("0.3")]

#: Further wrong sizes by parameter name: counts past the pair ceiling and
#: vertex ids past any tournament here.
TOO_LARGE = {
    "n": [0, 1, 2**21, 2**33, 2**40, 10**30],
    **{v: [4, 2**33, 2**70] for v in ("x", "y", "z", "r")},
}


#: Arguments that hold records or entries, a field of which the sweep also
#: replaces (a vertex of ``vertices`` and an entry of a vector stand as a
#: record of their own), and the values it puts there: every wrong value and
#: size and every number above, ids past any tournament here, and durations,
#: bare and as an array.
RECORDS = ("entries", "edges", "tree_edges", "vertices", "scores", "pi", "weights", "low_wins")
WRONG_FIELD = [*WRONG, *WRONG_SIZE, *REALS, *TOO_LARGE["x"], np.timedelta64(1),
               np.array([1], dtype="m8")]


def binary():
    """A stream opened in binary mode, fresh for each call."""
    return io.BytesIO(b"bt-tournament v1\nn=2\n0 1 0.5\n")


#: (callable, parameter, exception type) that stay out of scope, and why:
#: an object that is not a tournament, tree, tester config, triangle,
#: cycle or text stream where one goes has no attribute the call reads,
#: which is Python's usual contract; ``sample_triangle`` draws from the
#: generator it is given; ``report_json`` is ``json.dumps``, whose error names
#: a value JSON cannot hold; and a path that names no readable file gets
#: the file system's own error.
DUCK = ("t", "tw", "cfg", "tri", "cycle", "source")
OUT_OF_SCOPE = (
    lambda name, arg, exc: arg in DUCK and isinstance(exc, AttributeError),
    lambda name, arg, exc: name == "sample_triangle" and arg == "rng",
    lambda name, arg, exc: name == "report_json" and isinstance(exc, TypeError),
    lambda name, arg, exc: arg == "path" and isinstance(exc, OSError),
)


#: The query methods of a tournament, walked on ``T``.
QUERIES = ("prob", "log_odds", "prob_matrix", "log_odds_matrix")


def _callables():
    """Every name in ``bttest.__all__`` that can be called, exceptions and
    warnings aside, and each of ``QUERIES`` as ``T.<name>``, with its valid
    arguments.  A parameter that ``VALID`` does not name fails here, at
    collection, so no new callable goes untested."""
    calls = {}
    for name in bt.__all__:
        obj = getattr(bt, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        valid = {**VALID, **VALID_FOR.get(name, {})}
        calls[name] = (obj, {p: valid[p] for p in inspect.signature(obj).parameters})
    for name in QUERIES:
        method = getattr(T, name)
        calls[f"T.{name}"] = (method, {p: VALID[p] for p in inspect.signature(method).parameters})
    return calls


CALLS = _callables()


@contextlib.contextmanager
def _float_operation_trapped():
    """A decimal context in which a ``Decimal`` that meets a float raises
    ``decimal.FloatOperation``."""
    with decimal.localcontext() as context:
        context.traps[decimal.FloatOperation] = True
        yield


#: The decimal contexts each sweep runs in.
CONTEXTS = {"default": contextlib.nullcontext, "FloatOperation trapped": _float_operation_trapped}


def _run(call, kwargs):
    """``call(**kwargs)``, with a lazy result drawn to its end."""
    result = call(**kwargs)
    if hasattr(result, "__next__"):
        list(result)


def test_every_public_callable_runs_on_its_valid_arguments(tmp_path):
    # a path is valid once a file is there; the drawn values replace it
    sources = {"load_tournament": VALID["source"], "load_tree": VALID_FOR["parse_tree"]["source"]}
    for name, (call, kwargs) in CALLS.items():
        if name in sources:
            kwargs = {"path": tmp_path / name}
            kwargs["path"].write_text(sources[name])
        _run(call, kwargs)


@pytest.mark.parametrize("context", CONTEXTS.values(), ids=CONTEXTS)
def test_a_wrong_argument_raises_a_library_error(context):
    escapes = []
    for name, (call, kwargs) in CALLS.items():
        for arg in kwargs:
            for value in [*WRONG, *WRONG_SIZE, *REALS, *TOO_LARGE.get(arg, ()), binary()]:
                try:
                    with context():
                        _run(call, {**kwargs, arg: value})
                except bt.TournamentError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the assertion is that none escapes
                    if not any(rule(name, arg, exc) for rule in OUT_OF_SCOPE):
                        escapes.append(f"{name}({arg}={value!r}): {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


def _with_field(records, i, j, value):
    """``records`` with field ``j`` of record ``i`` set to ``value``, or with
    record ``i`` set to it where a record is a bare value."""
    rows = list(records)
    rows[i] = value if np.ndim(rows[i]) == 0 else (*rows[i][:j], value, *rows[i][j + 1:])
    return rows


@pytest.mark.parametrize("context", CONTEXTS.values(), ids=CONTEXTS)
def test_a_wrong_record_field_raises_a_library_error(context):
    escapes = []
    for name, (call, kwargs) in CALLS.items():
        for arg in kwargs.keys() & RECORDS:
            for i, record in enumerate(kwargs[arg]):
                for j in range(len(record) if np.ndim(record) else 1):
                    for value in WRONG_FIELD:
                        try:
                            with context():
                                _run(call, {**kwargs, arg: _with_field(kwargs[arg], i, j, value)})
                        except bt.TournamentError:
                            pass
                        except Exception as exc:  # noqa: BLE001 - the assertion is that none escapes
                            escapes.append(f"{name}({arg}[{i}][{j}]={value!r}): "
                                           f"{type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)
