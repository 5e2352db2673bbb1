"""Stochastic tournaments and their Markov chains.

A stochastic tournament on ``n`` vertices assigns to every unordered pair
``{x, y}`` an oriented edge (the "present" edge, say ``x -> y``) and a win
probability ``w`` for its tail, so that ``p_xy = w`` and ``p_yx = 1 - w``.
Only the ``n*(n-1)/2`` present-edge weights are stored; the complement is
computed on read, which makes ``prob(x, y) + prob(y, x) == 1.0`` hold
bit-exactly for every pair (the subtraction ``1 - w`` never accumulates).
Log-odds are the logit of the stored weight, negated against the present
edge, so ``log_odds(x, y) == -log_odds(y, x)`` holds bit-exactly too.

Probabilities are kept inside ``[eta, 1 - eta]`` for a configurable floor
``eta`` (default 1e-12): every downstream ratio ``p_xy / p_yx`` must stay
finite, so weights of exactly 0 or 1 are rejected rather than special-cased.
"""

from __future__ import annotations

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
    VertexOutOfRangeError,
)

#: Default positivity floor for edge probabilities.
ETA = 1e-12

#: Default tolerance, one bound on a |log| for both checks: on |log lambda|
#: for "balanced", and on |log(pi_x p_xy / (pi_y p_yx))| for "reversible".
TAU = 1e-9

#: Identifier of the generator behind every seeded operation.
RNG_ALGORITHM = "numpy-pcg64"

#: Types a vertex id may have, built once rather than on every check.
_INTEGER = (int, np.integer)


def pair_index(n: int, x, y):
    """Lexicographic position of the unordered pair {x, y}, x < y; elementwise."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


def _is_vertex(v, n: int) -> bool:
    """The one rule for a vertex id: an ``int`` or numpy integer in ``[0, n)``."""
    return isinstance(v, _INTEGER) and 0 <= v < n


def _non_real(kind: type) -> bool:
    """A weight type that is text, None or complex, which numpy would parse,
    refuse with a raw error or truncate; a weight of any other type is read
    with ``float`` as given."""
    return kind is type(None) or issubclass(kind, (str, bytes)) or (
        issubclass(kind, numbers.Complex) and not issubclass(kind, numbers.Real))


def _real(w, x, y):
    """``w`` as given, unless :func:`_non_real` refuses its type: then an
    error that names the pair (x, y) it was given for."""
    if _non_real(type(w)):
        raise OutOfRangeProbabilityError(
            f"p={w!r} for pair ({x}, {y}) is not a real number"
        )
    return w


def logit(w):
    """Log-odds ``log(w / (1 - w))`` of a weight; scalars and arrays go
    through the same ``np.log``, so both give the same bits."""
    return np.log(w / (1.0 - w))


def logistic(z):
    """Inverse of :func:`logit`, ``1 / (1 + e^-z)``: 0.0 where ``e^-z``
    overflows.  Scalars and arrays go through the same ``np.exp``, and no
    overflow warning escapes."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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
    eta : float
        Positivity floor actually enforced on ``weights``.

    Instances are immutable (the arrays are marked read-only); all methods
    are safe to call concurrently.
    """

    n: int
    weights: np.ndarray
    low_wins: np.ndarray
    eta: float = ETA

    def __post_init__(self):
        if self.n < 2:
            raise VertexOutOfRangeError(f"need at least 2 vertices, got n={self.n}")
        m = self.n * (self.n - 1) // 2
        given = np.asarray(self.weights)
        # private copy: freezing a caller's array in place would be rude
        low_wins = np.array(self.low_wins, dtype=bool)
        if given.shape != (m,) or low_wins.shape != (m,):
            raise DimensionMismatchError(
                f"expected {m} pair entries for n={self.n}, "
                f"got {given.shape} / {low_wins.shape}"
            )
        # a tiny eta makes 1 - eta round to 1.0, which would admit a weight of 1
        if not (0.0 < self.eta < 0.5) or 1.0 - self.eta == 1.0:
            raise ParameterOutOfRangeError(
                f"eta must be in (0, 0.5) with 1 - eta < 1, got {self.eta}"
            )

        def pair(i):  # the pair of entry i, as stored
            lo, hi = np.triu_indices(self.n, k=1)
            return (lo[i], hi[i]) if low_wins[i] else (hi[i], lo[i])

        if given.dtype.kind not in "biuf":
            # the caller's entries, not numpy's coercion: [0.5, "x"] is all strings
            kinds = [type(w) for w in self.weights]
            bad = {k for k in set(kinds) if _non_real(k)}  # one check per type
            if bad:
                i = next(i for i, k in enumerate(kinds) if k in bad)
                _real(self.weights[i], *pair(i))  # raises
        weights = np.array(given, dtype=float)
        outside = ~((self.eta <= weights) & (weights <= 1.0 - self.eta))  # NaN too
        if outside.any():
            i = int(np.argmax(outside))
            x, y = pair(i)
            raise OutOfRangeProbabilityError(
                f"p={weights[i]} for pair ({x}, {y}) outside [{self.eta}, {1.0 - self.eta}]"
            )
        weights.setflags(write=False)
        low_wins.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "low_wins", low_wins)

    # -- queries ---------------------------------------------------------

    def _check_vertex(self, v: int):
        if not _is_vertex(v, self.n):
            raise VertexOutOfRangeError(f"vertex {v!r} is not an integer in [0, {self.n})")

    def _stored(self, x: int, y: int) -> tuple[float, bool]:
        """Stored weight of the pair {x, y} and whether it is stored as x -> y."""
        self._check_vertex(x)
        self._check_vertex(y)
        if x == y:
            raise SelfLoopError(f"p_xx is undefined (x = {x})")
        lo, hi = (x, y) if x < y else (y, x)
        i = pair_index(self.n, lo, hi)
        return float(self.weights[i]), bool(self.low_wins[i]) == (x < y)

    def prob(self, x: int, y: int) -> float:
        """Probability that ``x`` beats ``y``.  One edge query."""
        w, forward = self._stored(x, y)
        return w if forward else 1.0 - w

    def log_odds(self, x, y):
        """``log(p_xy / p_yx)`` from the stored weight, one edge query per entry
        of equal-shape index arrays, a float for two ints; exactly skew."""
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype.kind == "u" or y.dtype.kind == "u":  # uint64 with int64 gives float64
            x, y = np.asarray(x.tolist()), np.asarray(y.tolist())
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        # a float index array passes the range test, so only ints skip the check
        if not (x.dtype.kind == y.dtype.kind == "i"
                and np.all((0 <= lo) & (lo < hi) & (hi < self.n))):
            for a, b in np.broadcast(x, y):
                self._stored(a, b)  # raises on the first bad entry
        i = pair_index(self.n, lo, hi)
        ell = logit(self.weights[i]) * np.where(self.low_wins[i] == (x < y), 1, -1)
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

    def _dense(self, stored: np.ndarray, reverse: np.ndarray) -> np.ndarray:
        """``n x n`` matrix holding each pair's ``stored`` value along its
        present edge and ``reverse`` against it; the diagonal is 0."""
        upper = np.triu(np.ones((self.n, self.n), dtype=bool), k=1)
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


def _entry_columns(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x``, ``y`` and ``p`` columns of the records: the three fields of a
    record array as they are; for any other iterable of ``(x, y, p)``,
    object arrays that hold the caller's values."""
    if isinstance(entries, np.ndarray) and entries.dtype.names:
        x, y, p = (entries[f] for f in entries.dtype.names)
        return x, y, p
    rows = [(x, y, p) for x, y, p in entries]
    x, y, p = (np.fromiter((r[j] for r in rows), object, len(rows)) for j in range(3))
    return x, y, p


def _vertices(v: np.ndarray, n: int) -> np.ndarray:
    """:func:`_is_vertex` of every entry of a column."""
    if v.dtype.kind in "iu":
        return (0 <= v) & (v < n)
    return np.fromiter((_is_vertex(a, n) for a in v), bool, len(v))


def new_tournament(
    n: int, entries: Iterable[tuple[int, int, float]]
) -> StochasticTournament:
    """Build a tournament from one ``(x, y, p)`` record per unordered pair.

    The record direction fixes the present edge: ``p_xy = p`` and
    ``p_yx = 1 - p``.  Every unordered pair must appear exactly once, and
    every ``p`` must be a real number in ``[ETA, 1 - ETA]``.  The records
    are checked as arrays: the first record, in record order, that is a
    self loop, names a vertex outside ``[0, n)`` or repeats an earlier
    pair raises (in that order within a record); then the first missing
    pair in lexicographic order; then the weights.  ``entries`` may be a
    record array with three fields, as the file reader builds.

    Raises
    ------
    SelfLoopError, VertexOutOfRangeError, DuplicatePairError,
    MissingPairError, OutOfRangeProbabilityError
    """
    x, y, p = _entry_columns(entries)
    loop = x == y
    vertex = _vertices(x, n) & _vertices(y, n)
    rows = np.flatnonzero(~loop & vertex)
    xs, ys = x[rows].astype(np.int64), y[rows].astype(np.int64)
    lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # a stable sort keeps each pair's first record ahead of its repeats
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    fault = loop | ~vertex
    fault[rows[order[1:][repeat]]] = True
    if fault.any():
        i = int(np.argmax(fault))
        if loop[i]:
            raise SelfLoopError(f"entry ({x[i]}, {y[i]}) is a self loop")
        if not vertex[i]:
            raise VertexOutOfRangeError(f"entry ({x[i]}, {y[i]}) is not in [0, {n})")
        raise DuplicatePairError(f"pair {{{x[i]}, {y[i]}}} given twice")
    # below 2 vertices StochasticTournament raises the vertex-count error
    if n >= 2 and rows.size < n * (n - 1) // 2:
        # pairs present are distinct and sorted: the first missing one is
        # the successor of the last pair where the run (0, 1), (0, 2), ... breaks
        wrap = hi + 1 == n
        want_lo = np.concatenate(([0], np.where(wrap, lo + 1, lo)))
        want_hi = np.concatenate(([1], np.where(wrap, lo + 2, hi + 1)))
        gap = np.flatnonzero((want_lo[:-1] != lo) | (want_hi[:-1] != hi))
        j = gap[0] if gap.size else rows.size
        raise MissingPairError(f"no weight for pair {{{want_lo[j]}, {want_hi[j]}}}")
    return StochasticTournament(n, p[order], xs[order] < ys[order])


def markov_matrix(t: StochasticTournament) -> np.ndarray:
    """Transition matrix of the Markov chain attached to the tournament.

    Off-diagonal: ``q_xy = p_xy / n``.  Diagonal: ``q_xx = 1 - sum_z p_xz / n``,
    so the matrix is row-stochastic (each row sums to 1 within 1e-12).
    """
    p = t.prob_matrix()
    q = p / t.n
    np.fill_diagonal(q, 1.0 - p.sum(axis=1) / t.n)
    return q


def _potential_residual(ell: np.ndarray, pot: np.ndarray) -> np.ndarray:
    """``L[x, y] - (pot[y] - pot[x])``: 0 iff ``L`` is the gradient of ``pot``."""
    return ell - (pot[None, :] - pot[:, None])


def check_reversible(
    t: StochasticTournament, pi: Sequence[float] | np.ndarray, eps: float = 0.0
) -> bool:
    """Detailed-balance check of ``pi`` against the tournament.

    Tests ``|D| <= TAU`` at ``eps == 0``, else ``|D| <= log1p(eps)``, where
    ``D = log(pi_x p_xy / (pi_y p_yx))`` is read off the log-odds matrix and
    ``log(pi)`` (so ``pi`` need not be normalised).  With ``eps > 0`` this is

        (1 + eps)^-1  <=  pi_x p_xy / (pi_y p_yx)  <=  1 + eps

    for all ordered pairs, so ``eps = expm1(b)`` sets any bound ``b`` on
    ``|D|``.  Detailed balance over the Markov matrix and over the
    probability matrix coincide because ``q_xy = p_xy / n``.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (t.n,):
        raise DimensionMismatchError(f"pi has shape {pi.shape}, expected ({t.n},)")
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
        raise ParameterOutOfRangeError("pi must be strictly positive and finite")
    if eps < 0.0:
        raise ParameterOutOfRangeError(f"eps must be >= 0, got {eps}")
    # pi / max first: at pi ~ 1e-300, log(pi) ~ -690 has an ulp of 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):  # a spread past 1e323 gives 0
        residual = _potential_residual(t.log_odds_matrix(), np.log(pi / pi.max()))
    return bool(np.all(np.abs(residual) <= (TAU if eps == 0.0 else np.log1p(eps))))


# -- generators ----------------------------------------------------------


def gen_bt(scores: Sequence[float] | np.ndarray) -> StochasticTournament:
    """Tournament of an exact Bradley-Terry model: p_xy = a(x) / (a(x) + a(y)).

    Every triangle of the output is balanced.  Raises
    OutOfRangeProbabilityError if a score ratio pushes a probability outside
    ``[ETA, 1 - ETA]``.
    """
    a = np.asarray(scores, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise DimensionMismatchError("scores must be a 1-D vector of length >= 2")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ParameterOutOfRangeError("scores must be strictly positive and finite")
    n = a.size
    m = n * (n - 1) // 2
    weights = np.empty(m)
    i = 0
    for x in range(n - 1):
        weights[i : i + n - 1 - x] = a[x] / (a[x] + a[x + 1 :])
        i += n - 1 - x
    return StochasticTournament(n, weights, np.ones(m, dtype=bool))


def gen_cyclic(n: int, p: float, eta: float = ETA) -> StochasticTournament:
    """Rock-paper-scissors style tournament: x_i beats x_{i+1 mod n} with
    probability ``p``; all other pairs are fair coins."""
    if n < 2:
        raise VertexOutOfRangeError(f"need at least 2 vertices, got n={n}")
    m = n * (n - 1) // 2
    weights = np.full(m, 0.5)
    low_wins = np.ones(m, dtype=bool)
    for x in range(n):
        y = (x + 1) % n
        i = pair_index(n, min(x, y), max(x, y))
        weights[i] = _real(p, x, y)
        low_wins[i] = x < y
    return StochasticTournament(n, weights, low_wins, eta)


def gen_perturbed(
    base: StochasticTournament, noise: float, seed: int
) -> StochasticTournament:
    """Add seeded uniform noise in [-noise, noise] to every present-edge
    weight, clamping into [eta, 1 - eta].  Pure function of (base, noise, seed)."""
    if not 0.0 <= noise < 0.5:
        raise ParameterOutOfRangeError(f"noise must be in [0, 0.5), got {noise}")
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-noise, noise, size=base.weights.size)
    weights = np.clip(base.weights + delta, base.eta, 1.0 - base.eta)
    return StochasticTournament(base.n, weights, base.low_wins, base.eta)


def gen_random(n: int, seed: int) -> StochasticTournament:
    """Every present-edge weight drawn uniformly from [ETA, 1 - ETA];
    edges oriented low id -> high id.  Pure function of (n, seed)."""
    m = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    weights = rng.uniform(ETA, 1.0 - ETA, size=m)
    return StochasticTournament(n, weights, np.ones(m, dtype=bool))


def set_prob(
    t: StochasticTournament, x: int, y: int, p: float
) -> StochasticTournament:
    """Copy of ``t`` with ``p_xy`` replaced by ``p`` (and ``p_yx`` by ``1 - p``).

    The pair's present edge becomes ``x -> y`` carrying weight exactly ``p``,
    so ``prob(x, y)`` returns ``p`` bit-for-bit (storing the complement
    instead could lose ulps near the floor).
    """
    t._stored(x, y)  # raises on a bad vertex or a self loop
    i = pair_index(t.n, min(x, y), max(x, y))
    weights = t.weights.copy()
    low_wins = t.low_wins.copy()
    weights[i] = _real(p, x, y)
    low_wins[i] = x < y
    return StochasticTournament(t.n, weights, low_wins, t.eta)
