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

#: Default tolerance on |log lambda| for "balanced", and on the relative
#: detailed-balance residual for "reversible".
TAU = 1e-9


def pair_index(n: int, x, y):
    """Lexicographic position of the unordered pair {x, y}, x < y; elementwise."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


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
        # private copies: freezing a caller's array in place would be rude
        weights = np.array(self.weights, dtype=float)
        low_wins = np.array(self.low_wins, dtype=bool)
        if weights.shape != (m,) or low_wins.shape != (m,):
            raise DimensionMismatchError(
                f"expected {m} pair entries for n={self.n}, "
                f"got {weights.shape} / {low_wins.shape}"
            )
        if not (0.0 < self.eta < 0.5):
            raise ParameterOutOfRangeError(f"eta must be in (0, 0.5), got {self.eta}")
        if not np.all(np.isfinite(weights)):
            raise OutOfRangeProbabilityError("non-finite edge weight")
        if np.any(weights < self.eta) or np.any(weights > 1.0 - self.eta):
            bad = int(np.argmax((weights < self.eta) | (weights > 1.0 - self.eta)))
            raise OutOfRangeProbabilityError(
                f"weight {weights[bad]} outside [{self.eta}, {1.0 - self.eta}]"
            )
        weights.setflags(write=False)
        low_wins.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "low_wins", low_wins)

    # -- queries ---------------------------------------------------------

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(f"vertex {v} not in [0, {self.n})")

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
        if not np.all((0 <= lo) & (lo < hi) & (hi < self.n)):
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


def new_tournament(
    n: int,
    entries: Iterable[tuple[int, int, float]],
    eta: float = ETA,
) -> StochasticTournament:
    """Build a tournament from one ``(x, y, p)`` record per unordered pair.

    The record direction fixes the present edge: ``p_xy = p`` and
    ``p_yx = 1 - p``.  Every unordered pair must appear exactly once.

    Raises
    ------
    SelfLoopError, VertexOutOfRangeError, DuplicatePairError,
    MissingPairError, OutOfRangeProbabilityError
    """
    m = n * (n - 1) // 2
    weights: list = [None] * m  # None: pair not seen yet
    low_wins = [False] * m
    for x, y, p in entries:
        if x == y:
            raise SelfLoopError(f"entry ({x}, {y}) is a self loop")
        if not (0 <= x < n and 0 <= y < n):
            raise VertexOutOfRangeError(f"entry ({x}, {y}) outside [0, {n})")
        if not (eta <= p <= 1.0 - eta):
            raise OutOfRangeProbabilityError(
                f"p={p} for pair ({x}, {y}) outside [{eta}, {1.0 - eta}]"
            )
        i = pair_index(n, min(x, y), max(x, y))
        if weights[i] is not None:
            raise DuplicatePairError(f"pair {{{x}, {y}}} given twice")
        weights[i] = p
        low_wins[i] = x < y
    # below 2 vertices StochasticTournament raises the vertex-count error
    if n >= 2 and None in weights:
        i = weights.index(None)
        lo, hi = np.triu_indices(n, k=1)
        raise MissingPairError(f"no weight for pair {{{lo[i]}, {hi[i]}}}")
    return StochasticTournament(n, weights, low_wins, eta)


def markov_matrix(t: StochasticTournament) -> np.ndarray:
    """Transition matrix of the Markov chain attached to the tournament.

    Off-diagonal: ``q_xy = p_xy / n``.  Diagonal: ``q_xx = 1 - sum_z p_xz / n``,
    so the matrix is row-stochastic (each row sums to 1 within 1e-12).
    """
    p = t.prob_matrix()
    q = p / t.n
    np.fill_diagonal(q, 1.0 - p.sum(axis=1) / t.n)
    return q


def check_reversible(
    t: StochasticTournament,
    pi: Sequence[float] | np.ndarray,
    eps: float = 0.0,
    tol: float = TAU,
) -> bool:
    """Detailed-balance check of ``pi`` against the tournament.

    With ``eps == 0`` this tests ``pi_x p_xy == pi_y p_yx`` for every pair,
    up to relative tolerance ``tol`` (the residual is scale-free, so ``pi``
    need not be normalised).  With ``eps > 0`` it tests the approximate form

        (1 + eps)^-1  <=  pi_x p_xy / (pi_y p_yx)  <=  1 + eps

    for all ordered pairs.  Detailed balance over the Markov matrix and over
    the probability matrix coincide because ``q_xy = p_xy / n``.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (t.n,):
        raise DimensionMismatchError(f"pi has shape {pi.shape}, expected ({t.n},)")
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
        raise ParameterOutOfRangeError("pi must be strictly positive and finite")
    if eps < 0.0:
        raise ParameterOutOfRangeError(f"eps must be >= 0, got {eps}")
    p = t.prob_matrix()
    flow = pi[:, None] * p  # flow[x, y] = pi_x * p_xy
    if eps == 0.0:
        num = np.abs(flow - flow.T)
        den = np.maximum(flow, flow.T)
        np.fill_diagonal(den, 1.0)
        return bool(np.all(num <= tol * den))
    iu = np.triu_indices(t.n, k=1)
    ratio = flow[iu] / flow.T[iu]
    hi = 1.0 + eps
    return bool(np.all(ratio <= hi) and np.all(ratio >= 1.0 / hi))


# -- generators ----------------------------------------------------------


def gen_bt(scores: Sequence[float] | np.ndarray, eta: float = ETA) -> StochasticTournament:
    """Tournament of an exact Bradley-Terry model: p_xy = a(x) / (a(x) + a(y)).

    Every triangle of the output is balanced.  Raises
    OutOfRangeProbabilityError if a score ratio pushes a probability outside
    ``[eta, 1 - eta]``.
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
    return StochasticTournament(n, weights, np.ones(m, dtype=bool), eta)


def gen_cyclic(n: int, p: float, eta: float = ETA) -> StochasticTournament:
    """Rock-paper-scissors style tournament: x_i beats x_{i+1 mod n} with
    probability ``p``; all other pairs are fair coins."""
    if n < 2:
        raise VertexOutOfRangeError(f"need at least 2 vertices, got n={n}")
    if not (eta <= p <= 1.0 - eta):
        raise OutOfRangeProbabilityError(f"p={p} outside [{eta}, {1.0 - eta}]")
    m = n * (n - 1) // 2
    weights = np.full(m, 0.5)
    low_wins = np.ones(m, dtype=bool)
    for x in range(n):
        y = (x + 1) % n
        i = pair_index(n, min(x, y), max(x, y))
        weights[i] = p
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


def gen_random(n: int, seed: int, eta: float = ETA) -> StochasticTournament:
    """Every present-edge weight drawn uniformly from [eta, 1 - eta];
    edges oriented low id -> high id.  Pure function of (n, seed)."""
    if n < 2:
        raise VertexOutOfRangeError(f"need at least 2 vertices, got n={n}")
    m = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    weights = rng.uniform(eta, 1.0 - eta, size=m)
    return StochasticTournament(n, weights, np.ones(m, dtype=bool), eta)


def set_prob(
    t: StochasticTournament, x: int, y: int, p: float
) -> StochasticTournament:
    """Copy of ``t`` with ``p_xy`` replaced by ``p`` (and ``p_yx`` by ``1 - p``).

    The pair's present edge becomes ``x -> y`` carrying weight exactly ``p``,
    so ``prob(x, y)`` returns ``p`` bit-for-bit (storing the complement
    instead could lose ulps near the floor).
    """
    t._check_vertex(x)
    t._check_vertex(y)
    if x == y:
        raise SelfLoopError(f"cannot set p_xx (x = {x})")
    if not (t.eta <= p <= 1.0 - t.eta):
        raise OutOfRangeProbabilityError(f"p={p} outside [{t.eta}, {1.0 - t.eta}]")
    i = pair_index(t.n, min(x, y), max(x, y))
    weights = t.weights.copy()
    low_wins = t.low_wins.copy()
    weights[i] = p
    low_wins[i] = x < y
    return StochasticTournament(t.n, weights, low_wins, t.eta)
