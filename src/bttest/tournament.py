"""Stochastic tournaments and their Markov chains.

A stochastic tournament on ``n`` vertices assigns to every unordered pair
``{x, y}`` an oriented edge (the "present" edge, say ``x -> y``) and a win
probability ``w`` for its tail, so that ``p_xy = w`` and ``p_yx = 1 - w``.
Only the ``n*(n-1)/2`` present-edge weights are stored; the complement is
computed on read, which makes ``prob(x, y) + prob(y, x) == 1.0`` hold
bit-exactly for every pair (the subtraction ``1 - w`` never accumulates).
Log-odds are the logit of the stored weight, negated against the present
edge, so ``log_odds(x, y) == -log_odds(y, x)`` holds bit-exactly too.

Probabilities are kept inside ``[ETA, 1 - ETA]`` for the fixed floor
``ETA = 1e-12``: every downstream ratio ``p_xy / p_yx`` must stay finite, so
weights of exactly 0 or 1 are rejected rather than special-cased.  The
weight rule's floor is the complement of the top, a hair below ETA, so
that a weight read against its present edge is taken back.  Exact
balance and exact reversibility are judged up to the fixed tolerance
``TAU``; a looser bound is set only through the eps-balanced forms.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicatePairError,
    MissingPairError,
    OutOfRangeProbabilityError,
    ParameterOutOfRangeError,
    SelfLoopError,
    TooFewVerticesError,
    VertexOutOfRangeError,
)

#: Positivity floor for edge probabilities: what every clamp, floor and
#: generator writes.
ETA = 1e-12

#: The least weight the weight rule admits: the complement of the top
#: ``1 - ETA``, a hair below ETA, so that the band up to ``1 - ETA`` is
#: closed under ``w -> 1 - w`` in floating point and every ``prob`` read
#: off a tournament is a weight the library takes back.
_FLOOR = 1.0 - (1.0 - ETA)

#: Tolerance, one bound on a |log| for both checks: on |log lambda|
#: for "balanced", and on |log(pi_x p_xy / (pi_y p_yx))| for "reversible".
TAU = 1e-9

#: Identifier of the generator behind every seeded operation.
RNG_ALGORITHM = "numpy-pcg64"

#: Most pairs a vertex count may have (n = 10**6 has 5e11): a larger count
#: is refused before any array is asked for.
MAX_PAIRS = 2**40

#: The largest vertex count with at most ``MAX_PAIRS`` pairs.
_MAX_N = (1 + math.isqrt(1 + 8 * MAX_PAIRS)) // 2


def _check_param(name: str, value, rule: str, inside) -> float:
    """The one rule for a real parameter: the float of ``value`` under
    :func:`_number`, returned when ``inside`` holds for it (written so that
    NaN fails it); else ParameterOutOfRangeError naming ``rule`` and the
    float it judged."""
    f = _number(value)
    if f is None:
        raise ParameterOutOfRangeError(f"{name} must be a real number, got {value!r}")
    if not inside(f):
        raise ParameterOutOfRangeError(f"{name} must be {rule}, got {f}")
    return f


def _check_integer(name: str, value, rule: str, inside) -> int:
    """The one rule for an integer parameter: an ``int`` or numpy integer,
    not a bool, for which ``inside`` holds, returned as an ``int``; else
    ParameterOutOfRangeError naming ``rule``."""
    if isinstance(value, (bool, np.bool_)) or not (_is_integer(value) and inside(value)):
        raise ParameterOutOfRangeError(f"{name} must be {rule}, got {_named(value)!r}")
    return int(value)


def _check_positive(name: str, values, n: int | None = None) -> np.ndarray:
    """The one rule for a score vector or measure: a 1-D vector of ``n``
    entries (at least 2 when ``n`` is None), each a number under
    :func:`_number`, finite and > 0; returned as float64."""
    given = _shaped(values)
    if given.ndim != 1 or (given.size < 2 if n is None else given.size != n):
        raise DimensionMismatchError(
            f"{name} must be a 1-D vector of length {'>= 2' if n is None else n}")
    a, bad = _floats(values, given, np.asarray)
    if bad:
        raise ParameterOutOfRangeError(f"{name} entry {bad[1]!r} is not a real number")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ParameterOutOfRangeError(f"{name} must be strictly positive and finite")
    return a


def _check_seed(seed) -> int:
    """The one rule for a seed: an ``int`` or numpy integer >= 0, not a bool.
    None is refused too, since it would draw OS entropy and the run could
    not be repeated."""
    return _check_integer("seed", seed, "an integer >= 0", lambda s: s >= 0)


def _check_n(n, least: int = 2) -> int:
    """The one rule for a vertex count: an ``int`` or numpy integer, not a
    bool, of at least ``least`` and with at most ``MAX_PAIRS`` pairs,
    returned as an ``int`` so that no count arithmetic wraps in a narrow
    type.  Below 2 there is no tournament (VertexOutOfRangeError); below a
    larger ``least`` the operation has too few vertices
    (TooFewVerticesError); past the ceiling, ParameterOutOfRangeError, before
    anything is allocated."""
    if isinstance(n, (bool, np.bool_)) or not _is_integer(n):
        raise ParameterOutOfRangeError(f"vertex count must be an integer, got n={n!r}")
    if n < least:
        error = VertexOutOfRangeError if least == 2 else TooFewVerticesError
        raise error(f"need at least {least} vertices, got n={n}")
    if n > _MAX_N:
        raise ParameterOutOfRangeError(f"vertex count n={n} has more than 2**40 pairs")
    return int(n)


def _rng(seed) -> np.random.Generator:
    """The PCG64 generator of a seed that passes :func:`_check_seed`: what
    ``np.random.default_rng(seed)`` returns, built in half its time."""
    return np.random.Generator(np.random.PCG64(_check_seed(seed)))


def pair_index(n: int, x, y):
    """Lexicographic position of the unordered pair {x, y}, given in either
    order: ``n`` follows the vertex-count rule and the ids the edge-query
    rule of :func:`_locate`.  Two ids (or 0-d arrays) give an ``int``,
    arrays an int64 array."""
    i, _ = _locate(_check_n(n), x, y)
    return i if np.ndim(i) else int(i)


def _locate(n: int, x, y):
    """The one rule for an edge query: the position of each pair {x, y} and
    whether x is its low end, an ``int`` and a bool for two ``int`` ids,
    else int64 and bool arrays of the shape ``x`` and ``y`` broadcast to.
    The first entry in broadcast order that is no pair goes through the
    vertex rule, x before y, so the error names its first bad id, else
    raises SelfLoopError (x == y); ids that do not broadcast, or a ragged
    nest, raise DimensionMismatchError."""
    if type(x) is int and type(y) is int and x != y and 0 <= x < n and 0 <= y < n:
        return _pair_index(n, min(x, y), max(x, y)), x < y
    try:
        x, y = np.asarray(x), np.asarray(y)
    except ValueError:  # [[0, 1], [1]] has no shape
        raise DimensionMismatchError("a ragged nest of ids has no shape") from None
    try:
        lo, hi, x_low, i = _ends(n, x, y)
    except ValueError:
        raise DimensionMismatchError(
            f"id shapes {x.shape} and {y.shape} do not broadcast") from None
    if i < lo.size:
        u, v = (np.broadcast_to(c, lo.shape).flat[i] for c in (x, y))
        _check_vertex(u, n)
        _check_vertex(v, n)
        raise SelfLoopError(f"x == y is no pair (x = {u})")
    return _pair_index(n, lo, hi), x_low


def _ids(v: np.ndarray) -> np.ndarray:
    """An id array as int64, -1 where an entry is no integer: an integer or
    bool dtype as it is (a uint64 past 2**63 wraps negative), any other dtype
    all -1; an object array by its entry types, once each, then one ``astype``."""
    if v.dtype.kind in "biu":
        return v.astype(np.int64, copy=False)
    if v.dtype != object:
        return np.full(v.shape, -1, dtype=np.int64)
    if all(map(_integer_type, set(map(type, v.flat)))):
        try:
            return v.astype(np.int64)
        except OverflowError:  # an int past int64 is no vertex
            pass
    ids = [int(e) if _is_integer(e) else -1 for e in v.flat]  # entry by entry
    return np.array([i if 0 <= i < 2**63 else -1 for i in ids], np.int64).reshape(v.shape)


def _ends(n: int, x: np.ndarray, y: np.ndarray):
    """Each pair {x, y} of id arrays that broadcast, read by :func:`_ids`:
    its low and high end, whether x is the low one, and the flat position
    of the first that is no 0 <= lo < hi < n, else their count."""
    a, b = _ids(x), _ids(y)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ulo, uhi = lo.view(np.uint64), hi.view(np.uint64)  # as unsigned, a negative id lies past n
    ok = (ulo < uhi) & (uhi < n)
    return lo, hi, a < b, ok.size if ok.all() else int(np.argmin(ok))


def _pair_index(n: int, x, y):
    """:func:`pair_index` of checked ids x < y, unchecked:
    ``x(2n - x - 1)/2 + (y - x - 1)``, with the ``- x`` taken into the
    product and the halving done as a shift.  Two ``int`` give an ``int``;
    anything else is computed in int64, and ``n`` as an ``int``, so a
    narrow integer type does not wrap."""
    if type(x) is not int or type(y) is not int:
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    return (x * (2 * int(n) - 3 - x) >> 1) + y - 1


def _pair_of(n: int, i: int) -> tuple[int, int]:
    """The pair ``(x, y)``, x < y, at position ``i``: the exact inverse of
    :func:`_pair_index`.  Position j from the end is in the row of k + 1
    pairs where k(k+1)/2 <= j < (k+1)(k+2)/2."""
    n, i = int(n), int(i)
    k = (math.isqrt(8 * (n * (n - 1) // 2 - 1 - i) + 1) - 1) // 2
    x = n - 2 - k
    return x, i - _pair_index(n, x, x + 1) + x + 1


def _is_integer(v) -> bool:
    """An ``int`` or numpy integer, ``bool`` and ``np.bool_`` included; not
    ``np.timedelta64``, a duration that numpy derives from its integers."""
    return type(v) is int or _integer_type(type(v))


def _integer_type(kind: type) -> bool:
    """:func:`_is_integer` of every value of type ``kind``."""
    return issubclass(kind, (int, np.integer, np.bool_)) and not issubclass(kind, np.timedelta64)


def _check_vertex(v, n: int | None = None) -> int:
    """The one rule for a vertex id: ``v`` as an ``int`` when it is an
    integer in ``[0, n)``, or any integer when no ``n`` bounds it; else an
    error that names it as a Python value under :func:`_named`."""
    if not (_is_integer(v) and (n is None or 0 <= v < n)):
        where = "" if n is None else f" in [0, {n})"
        raise VertexOutOfRangeError(f"vertex {_named(v)!r} is not an integer{where}")
    return int(v)


def _named(v):
    """A numpy scalar as the Python value a message names (5, not
    np.int64(5)); a ``np.timedelta64``, which may read as an int, as it is."""
    return v.item() if isinstance(v, np.generic) and not isinstance(v, np.timedelta64) else v


def _number(v) -> float | None:
    """The float of a number, or None for no number: the one number rule,
    for every real parameter, weight and vector entry.  A number is a
    ``numbers.Real``, where numpy's real scalars and ``Fraction`` register,
    or a ``decimal.Decimal`` but a NaN, which has no order (nor, when
    signaling, a float), or a 0-d array of one, judged by its element; not
    a bool, which is a flag, nor ``np.timedelta64``, a duration that numpy
    registers there too.  A number is judged and used as ``float(v)``, so an
    ``int`` or ``Fraction`` past the float range, which has none, is no
    number.  An array of one or more dimensions is no number, one element
    or many."""
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v[()]
    if isinstance(v, decimal.Decimal):
        return None if v.is_nan() else float(v)
    if _non_number_type(type(v)):
        return None
    try:
        return float(v)
    except OverflowError:  # an int or Fraction past the float range
        return None


@functools.cache
def _non_number_type(kind: type) -> bool:
    """True where :func:`_number` refuses every value of type ``kind`` but a
    0-d array or a ``Decimal``, which is judged by value, so True here.
    Cached per type, since the tester checks its parameters on every run."""
    return not issubclass(kind, numbers.Real) or issubclass(kind, (bool, np.bool_, np.timedelta64))


def _screen(values, given: np.ndarray, refused_type, refused) -> tuple[int, object] | None:
    """The first entry of ``values`` that ``refused`` refuses, with its
    position, or None.  A typed array fails at its first entry when
    ``refused_type`` refuses its dtype.  A list or object array is judged as
    the caller wrote it ([1, True] holds a bool): each entry type once by
    ``refused_type``, and only entries of a refused type by ``refused``."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return (0, _named(given[0])) if refused_type(given.dtype.type) else None
    entries = list(values)
    failed = {k for k in set(map(type, entries)) if refused_type(k)}
    if failed:
        for i, v in enumerate(entries):
            if type(v) in failed and refused(v):
                return i, v
    return None


def _floats(values, given: np.ndarray, convert):
    """The number rule on a vector: ``(convert(given, np.float64), None)``,
    or ``(None, (i, v))`` for its first entry ``v`` that has no float under
    :func:`_number`, at position ``i``.  Entries are screened by type under
    :func:`_screen`; an ``int`` or ``Fraction`` past the float range, which
    only the conversion meets, is then looked for entry by entry."""
    bad = _screen(values, given, _non_number_type, lambda v: _number(v) is None)
    if not bad:
        try:
            return convert(given, np.float64), None
        except OverflowError:  # an object array, holding the caller's entries
            bad = next((i, v) for i, v in enumerate(given) if _number(v) is None)
    return None, bad


def _real(w, x, y) -> float:
    """The float of ``w`` under :func:`_number` when it lies in
    ``[_FLOOR, 1 - ETA]``; else an error that names the pair (x, y) it was
    given for.  The message says ``[ETA, 1 - ETA]``: every number the floor
    refuses lies below ETA too."""
    f = _number(w)
    if f is None:
        raise OutOfRangeProbabilityError(
            f"p={w!r} for pair ({x}, {y}) is not a real number"
        )
    if not _FLOOR <= f <= 1.0 - ETA:  # NaN too
        raise OutOfRangeProbabilityError(
            f"p={f} for pair ({x}, {y}) outside [{ETA}, {1.0 - ETA}]"
        )
    return f


def _shaped(values) -> np.ndarray:
    """``np.asarray(values)``, or an empty 2-D array for a ragged nest such as
    ``[[1, 2], [3]]``, which has no shape and so fits no vector."""
    try:
        return np.asarray(values)
    except ValueError:
        return np.empty((0, 0))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` marked read-only, so that the constructor keeps it."""
    a.setflags(write=False)
    return a


def _adopt(a: np.ndarray, dtype) -> np.ndarray:
    """``a`` itself when it is an ``np.ndarray`` of ``dtype`` that owns its
    data and is read-only; else a frozen copy of it as ``dtype`` (freezing
    a caller's array in place would be rude)."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    return _frozen(np.array(a, dtype=dtype))


def logit(w):
    """Log-odds ``log(w / (1 - w))`` of a weight; scalars and arrays go
    through the same ``np.log``, so both give the same bits."""
    return np.log(w / (1.0 - w))


def logistic(z):
    """Inverse of :func:`logit`, ``1 / (1 + e^-z)``: 0.0 where ``e^-z``
    overflows.  Scalars and arrays go through the same ``np.exp``, and no
    overflow warning escapes."""
    return _logistic_of_minus(np.negative(z))


def _logistic_of_minus(a):
    """``logistic(-a)``, ``1 / (1 + e^a)``: the one logistic formula,
    computed in ``a`` itself when it is a float array."""
    out = a if isinstance(a, np.ndarray) and a.dtype.kind == "f" else None
    with np.errstate(over="ignore"):
        a = np.exp(a, out=out)
    a += 1.0
    return np.divide(1.0, a, out=out)


@dataclass(frozen=True, eq=False)
class StochasticTournament:
    """Weighted orientation of the complete graph on vertices 0..n-1.

    Attributes
    ----------
    n : int
        Vertex count, at least 2.
    weights : np.ndarray
        Shape ``(n*(n-1)//2,)``; weight of the present directed edge of each
        unordered pair, pairs in lexicographic order.
    low_wins : np.ndarray
        Boolean, same shape; True where the present edge points from the
        lower to the higher vertex id.

    Instances are immutable (the arrays are marked read-only); all methods
    are safe to call concurrently.  The constructor keeps an array it is
    handed, without a copy, when that array is an ``np.ndarray`` that owns
    its data and is read-only, of dtype float64 for ``weights`` and bool
    for ``low_wins``; anything else (a writeable array, a view, a list,
    another dtype) is copied and the copy frozen.  As with unfreezing
    ``t.weights`` itself, a caller who keeps a writeable view of an array
    they froze can still change the tournament through it.

    An orientation flag is a bool or an integer 0 or 1; anything else
    raises ParameterOutOfRangeError, naming the pair of the first bad flag.
    """

    n: int
    weights: np.ndarray
    low_wins: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _check_n(self.n))
        m = self.n * (self.n - 1) // 2
        given = _shaped(self.weights)
        flags = _shaped(self.low_wins)
        if given.shape != (m,) or flags.shape != (m,):
            raise DimensionMismatchError(
                f"expected {m} pair entries for n={self.n}, "
                f"got {given.shape} / {flags.shape}"
            )
        bad = _screen(self.low_wins, flags, lambda k: not _integer_type(k),
                      lambda f: not _is_integer(f))
        if not bad and flags.dtype != bool:  # integers: 0 or 1, tested at once
            i = int(np.argmax((flags != 0) & (flags != 1)))
            bad = None if flags[i] in (0, 1) else (i, _named(flags[i]))
        if bad:
            raise ParameterOutOfRangeError(
                f"orientation flag {bad[1]!r} for pair {_pair_of(self.n, bad[0])} "
                "is not a bool or an integer 0 or 1"
            )
        low_wins = _adopt(flags, bool)

        def pair(i):  # the pair of entry i, as stored
            lo, hi = _pair_of(self.n, i)
            return (lo, hi) if low_wins[i] else (hi, lo)

        weights, bad = _floats(self.weights, given, _adopt)
        if bad:
            _real(bad[1], *pair(bad[0]))  # raises
        if not (_FLOOR <= weights.min() and weights.max() <= 1.0 - ETA):  # NaN too
            inside = _FLOOR <= weights
            inside &= weights <= 1.0 - ETA
            i = int(np.argmin(inside))
            _real(weights[i], *pair(i))  # raises
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "low_wins", low_wins)

    # -- queries ---------------------------------------------------------

    def prob(self, x, y):
        """Probability that ``x`` beats ``y``: one edge query per entry of ids
        under :func:`_locate`, a float for two ids."""
        i, x_low = _locate(self.n, x, y)
        w = self.weights[i]
        p = np.where(self.low_wins[i] == x_low, w, 1.0 - w)
        return float(p) if p.ndim == 0 else p

    def log_odds(self, x, y):
        """``log(p_xy / p_yx)`` from the stored weight, read like :meth:`prob`;
        exactly skew."""
        i, x_low = _locate(self.n, x, y)
        ell = logit(self.weights[i])
        ell = np.where(self.low_wins[i] == x_low, ell, -ell)
        return float(ell) if ell.ndim == 0 else ell

    def _oriented(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head ``(u, v)`` of every present edge u -> v, pairs in
        lexicographic order."""
        lo, hi = np.triu_indices(self.n, k=1)
        return np.where(self.low_wins, lo, hi), np.where(self.low_wins, hi, lo)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Present directed edges ``(x, y, p_xy)`` in pair-lexicographic order."""
        u, v = self._oriented()
        return zip(u.tolist(), v.tolist(), self.weights.tolist())

    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, L[lo, hi])`` over every pair lo < hi in lexicographic
        order: the logit of each stored weight, negated where the present
        edge is hi -> lo; ``log_odds_matrix()[lo, hi]`` bit for bit."""
        ell = logit(self.weights)
        return (*np.triu_indices(self.n, k=1), np.negative(ell, out=ell, where=~self.low_wins))

    def _dense(self, stored: np.ndarray, reverse: np.ndarray) -> np.ndarray:
        """``n x n`` matrix holding each pair's ``stored`` value along its
        present edge and ``reverse`` against it; the diagonal is 0."""
        upper = np.arange(self.n)[:, None] < np.arange(self.n)
        out = np.zeros((self.n, self.n))
        # boolean-mask assignment fills (lo, hi) in pair-lexicographic order
        out[upper] = np.where(self.low_wins, stored, reverse)
        out.T[upper] = np.where(self.low_wins, reverse, stored)
        return out

    def prob_matrix(self) -> np.ndarray:
        """Dense ``n x n`` matrix of p_xy.  Diagonal is 0 and meaningless.

        Intended for desk-scale exhaustive operations; the constant-query
        tester never calls this.
        """
        return self._dense(self.weights, 1.0 - self.weights)

    def log_odds_matrix(self) -> np.ndarray:
        """Dense ``n x n`` matrix ``L[x, y] = log_odds(x, y)``, entry for
        entry; exactly skew-symmetric, with a zero diagonal."""
        ell = logit(self.weights)
        return self._dense(ell, -ell)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticTournament):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.low_wins, other.low_wins)
        )

    def __hash__(self):
        return hash((self.n, self.weights.tobytes(), self.low_wins.tobytes()))


def _columns(records, fields: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """One column per field of the records: the fields of a record array
    of as many fields as they are; for any other collection, object arrays
    that hold the caller's values, or an error that names the first record
    that is not one, or ``records`` when it is no collection."""
    if isinstance(records, np.ndarray) and len(records.dtype.names or ()) == len(fields):
        return tuple(records[f] for f in records.dtype.names)
    try:
        records = iter(records)
    except TypeError:
        raise DimensionMismatchError(
            f"{records!r} is not a collection of ({', '.join(fields)}) records") from None
    rows = []
    for r in records:
        try:
            fits = len(r) == len(fields)
        except TypeError:  # no sized collection: 7, np.array(7)
            fits = False
        if not fits:
            raise DimensionMismatchError(f"record {r!r} is not ({', '.join(fields)})")
        rows.append(tuple(r))
    return tuple(np.fromiter((r[j] for r in rows), object, len(rows)) for j in range(len(fields)))


def _same(u, v) -> bool:
    """``u == v`` as a truth, False where it has none ([0.1, 0.2] == 1, or
    a signaling ``Decimal`` NaN, which raises)."""
    try:
        return bool(u == v)
    except (ArithmeticError, TypeError, ValueError):
        return False


def new_tournament(
    n: int, entries: Iterable[tuple[int, int, float]]
) -> StochasticTournament:
    """Build a tournament from one ``(x, y, p)`` record per unordered pair.

    The record direction fixes the present edge: ``p_xy = p`` and
    ``p_yx = 1 - p``.  Every unordered pair must appear exactly once, and
    every ``p`` must be a real number in ``[ETA, 1 - ETA]``.  A vertex
    count that is not an integer >= 2 raises first, then a record that is
    not three fields.  The records are checked as arrays: the first record,
    in record order, that is a self loop, names a vertex outside ``[0, n)``
    or repeats an earlier pair raises (in that order within a record); then
    the first missing pair in lexicographic order; then the weights.
    ``entries`` may also be a record array, as the file reader builds.

    Raises
    ------
    ParameterOutOfRangeError, DimensionMismatchError, SelfLoopError,
    VertexOutOfRangeError, DuplicatePairError, MissingPairError,
    OutOfRangeProbabilityError
    """
    n = _check_n(n)
    x, y, p = _columns(entries, ("x", "y", "p"))
    # records before the first that is no pair of vertices can only repeat
    lo, hi, low_wins, k = _ends(n, x, y)
    key = _pair_index(n, lo[:k], hi[:k])
    order = np.argsort(key, kind="stable")
    key = key[order]
    # a stable sort keeps each pair's first record ahead of its repeats
    i = order[1:][key[1:] == key[:-1]].min(initial=k)
    if i < x.size:
        if i == k and _same(x[i], y[i]):
            raise SelfLoopError(f"entry ({x[i]}, {y[i]}) is a self loop")
        if i == k:
            raise VertexOutOfRangeError(f"entry ({x[i]}, {y[i]}) is not in [0, {n})")
        raise DuplicatePairError(f"pair {{{x[i]}, {y[i]}}} given twice")
    if k < n * (n - 1) // 2:
        # positions present are distinct and sorted: the first missing one
        # is the first that does not sit at its own index
        gap = np.flatnonzero(key != np.arange(k))
        lo, hi = _pair_of(n, gap[0] if gap.size else k)
        raise MissingPairError(f"no weight for pair {{{lo}, {hi}}}")
    return StochasticTournament(n, _frozen(p[order]), _frozen(low_wins[order]))


def markov_matrix(t: StochasticTournament) -> np.ndarray:
    """Transition matrix of the Markov chain attached to the tournament.

    Off-diagonal: ``q_xy = p_xy / n``.  Diagonal: ``q_xx = 1 - sum_z p_xz / n``,
    so the matrix is row-stochastic (each row sums to 1 within 1e-12).
    """
    p = t.prob_matrix()
    q = p / t.n
    np.fill_diagonal(q, 1.0 - p.sum(axis=1) / t.n)
    return q


def _is_gradient(t: StochasticTournament, pot: np.ndarray, bound: float) -> bool:
    """``|L[x, y] - (pot[y] - pot[x])| <= bound`` over the pairs x < y, which
    decide, since (y, x) gives the exact negation: L is the gradient of pot."""
    lo, hi, ell = t._pairs()
    return bool(np.all(np.abs(ell - (pot[hi] - pot[lo])) <= bound))


def check_reversible(
    t: StochasticTournament, pi: Sequence[float] | np.ndarray, eps: float = 0.0
) -> bool:
    """Detailed-balance check of ``pi`` against the tournament.

    Tests ``|D| <= TAU`` at ``eps == 0``, else ``|D| <= log1p(eps)``, where
    ``D = log(pi_x p_xy / (pi_y p_yx))`` is read off the stored pairs and
    ``log(pi)`` (so ``pi`` need not be normalised).  With ``eps > 0`` this is

        (1 + eps)^-1  <=  pi_x p_xy / (pi_y p_yx)  <=  1 + eps

    for all ordered pairs, so ``eps = expm1(b)`` sets any bound ``b`` on
    ``|D|``.  Detailed balance over the Markov matrix and over the
    probability matrix coincide because ``q_xy = p_xy / n``.
    """
    pi = _check_positive("pi", pi, t.n)
    eps = _check_param("eps", eps, ">= 0", lambda e: e >= 0.0)
    # pi / max first: at pi ~ 1e-300, log(pi) ~ -690 has an ulp of 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):  # a spread past 1e323 gives 0
        return _is_gradient(t, np.log(pi / pi.max()), TAU if eps == 0.0 else np.log1p(eps))


# -- generators ----------------------------------------------------------


def gen_bt(scores: Sequence[float] | np.ndarray) -> StochasticTournament:
    """Tournament of an exact Bradley-Terry model: p_xy = a(x) / (a(x) + a(y)).

    Every triangle of the output is balanced.  A score is a number under
    the one number rule: text, None, complex or a bool raises
    ParameterOutOfRangeError.  Raises OutOfRangeProbabilityError if a score
    ratio pushes a probability outside ``[ETA, 1 - ETA]``.
    """
    a = _check_positive("scores", scores)
    n = a.size
    m = n * (n - 1) // 2
    weights = np.empty(m)
    i = 0
    for x in range(n - 1):
        weights[i : i + n - 1 - x] = a[x] / (a[x] + a[x + 1 :])
        i += n - 1 - x
    return StochasticTournament(n, _frozen(weights), _frozen(np.ones(m, dtype=bool)))


def gen_cyclic(n: int, p: float) -> StochasticTournament:
    """Rock-paper-scissors style tournament: x_i beats x_{i+1 mod n} with
    probability ``p``; all other pairs are fair coins."""
    n = _check_n(n)
    p = _real(p, 0, 1)
    m = n * (n - 1) // 2
    weights = np.full(m, 0.5)
    low_wins = np.ones(m, dtype=bool)
    x = np.arange(n - 1)
    weights[_pair_index(n, x, x + 1)] = p
    # the wrap pair is stored n - 1 -> 0, last, so that at n = 2 it wins
    wrap = _pair_index(n, 0, n - 1)
    weights[wrap], low_wins[wrap] = p, False
    return StochasticTournament(n, _frozen(weights), _frozen(low_wins))


def gen_perturbed(
    base: StochasticTournament, noise: float, seed: int
) -> StochasticTournament:
    """Add seeded uniform noise in [-noise, noise] to every present-edge
    weight, clamping into [ETA, 1 - ETA].  Pure function of (base, noise, seed).
    The output shares ``base.low_wins``, which is read-only.  A ``base``
    that is not a tournament, or a ``noise`` that is text, None, complex or
    a bool, raises ParameterOutOfRangeError."""
    if not isinstance(base, StochasticTournament):
        raise ParameterOutOfRangeError(
            f"base must be a StochasticTournament, got {type(base).__name__}")
    noise = _check_param("noise", noise, "in [0, 0.5)", lambda e: 0.0 <= e < 0.5)
    w = _rng(seed).uniform(-noise, noise, size=base.weights.size)
    np.add(base.weights, w, out=w)
    np.clip(w, ETA, 1.0 - ETA, out=w)
    return StochasticTournament(base.n, _frozen(w), base.low_wins)


def gen_random(n: int, seed: int) -> StochasticTournament:
    """Every present-edge weight drawn uniformly from [ETA, 1 - ETA];
    edges oriented low id -> high id.  Pure function of (n, seed)."""
    n = _check_n(n)
    m = n * (n - 1) // 2
    weights = _rng(seed).uniform(ETA, 1.0 - ETA, size=m)
    return StochasticTournament(n, _frozen(weights), _frozen(np.ones(m, dtype=bool)))


def set_prob(
    t: StochasticTournament, x: int, y: int, p: float
) -> StochasticTournament:
    """Copy of ``t`` with ``p_xy`` replaced by ``p`` (and ``p_yx`` by ``1 - p``).

    The pair's present edge becomes ``x -> y`` carrying weight exactly ``p``,
    so ``prob(x, y)`` returns ``p`` bit-for-bit (storing the complement
    instead could lose ulps near the floor).
    """
    _locate(t.n, _check_vertex(x, t.n), _check_vertex(y, t.n))  # one pair, no self loop
    return _with_pairs(t, x, y, _real(p, x, y))


def _with_pairs(t: StochasticTournament, x, y, w) -> StochasticTournament:
    """Copy of ``t`` with each pair {x_k, y_k} stored as x_k -> y_k at weight
    w_k, for checked distinct ids and weights: the one writer of pairs."""
    i = _pair_index(t.n, np.minimum(x, y), np.maximum(x, y))
    weights, low_wins = t.weights.copy(), t.low_wins.copy()
    weights[i], low_wins[i] = w, np.less(x, y)
    return StochasticTournament(t.n, _frozen(weights), _frozen(low_wins))


def _small_side(ell):
    """Stored form of pairs whose first vertex beats the second at log-odds
    ``ell``: the small side's weight ``logistic(-|ell|)`` (at most 1/2)
    floored at ETA, whether the first vertex is its tail (also on a tie),
    and where the floor moved a weight by more than rounding.  The weights
    are computed in one buffer."""
    weights = _logistic_of_minus(np.abs(ell))
    # a weight whose exact value is ETA can round a few ulp below it
    floored = weights < ETA - 16 * np.spacing(ETA)
    return np.maximum(weights, ETA, out=weights), ell <= 0.0, floored
