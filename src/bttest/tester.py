"""Constant-query randomized tester for the Bradley-Terry / reversibility
property.

The tester samples triangles independently and uniformly at random and
accepts iff every sampled triangle is balanced.  It is one-sided: a
tournament whose triangles are all balanced is accepted with probability 1.
A tournament that is eps-far (in total L1 weight change) from every
reversible weighting has at least an eps fraction of unbalanced triangles,
so each sample catches one with probability >= eps and the sample size

    f(eps, delta) = ceil( ln(1/delta) / -ln(1 - eps) )

drives the false-accept probability below delta.  The tester reads only
``n`` and ``log_odds`` over index arrays (the pair oracle): 3k edges on an
accept, 3 on a reject at the first sample and fewer than 6i at sample i.

Randomness comes from numpy's PCG64 generator (``numpy.random.default_rng``),
which is seedable and deterministic across platforms; reports should carry
:data:`bttest.tournament.RNG_ALGORITHM` alongside the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .balance import Triangle, log_triangle_ratio
from .errors import ParameterOutOfRangeError, TooFewVerticesError
from .tournament import TAU, StochasticTournament

_FY_LOWS = np.arange(3)

#: Triangles drawn per call into the generator; bounds the tester's memory.
_CHUNK = 1024


@dataclass(frozen=True)
class TesterConfig:
    """Knobs of one tester run.

    ``eps`` is the farness parameter, ``delta`` the allowed probability of
    accepting a far input (1/3 gives the classical 2/3 success bound),
    ``tol`` the balance tolerance on |log lambda|, and ``seed`` the RNG
    seed.  Setting ``eps_balance`` switches the per-triangle predicate from
    exact balance to the multiplicative eps-balanced form.
    """

    eps: float
    delta: float = 1.0 / 3.0
    tol: float = TAU
    seed: int = 0
    eps_balance: float | None = None

    def __post_init__(self):
        sample_size(self.eps, self.delta)  # raises on an eps or delta outside (0, 1)
        if self.tol < 0.0:
            raise ParameterOutOfRangeError(f"tol must be >= 0, got {self.tol}")
        if self.eps_balance is not None and self.eps_balance <= 0.0:
            raise ParameterOutOfRangeError(
                f"eps_balance must be > 0, got {self.eps_balance}"
            )


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of a tester run.

    ``witness`` is present iff the run rejected; it is an unbalanced
    triangle of the input, re-checkable by the caller.  ``samples_used``
    counts the triangles actually examined (the run stops at the first
    failure), never more than the requested sample size.  ``queries`` counts
    the edges read: ``3 * samples_used`` on accept, under twice that on reject.
    """

    accepted: bool
    witness: Triangle | None
    samples_used: int
    queries: int

    @property
    def outcome(self) -> str:
        return "accept" if self.accepted else "reject"


def sample_size(eps: float, delta: float = 1.0 / 3.0) -> int:
    """Number of triangle samples needed: ceil(ln(1/delta) / -ln(1-eps)).

    Satisfies (1-eps)^result <= delta.  At delta = 1/3 the result stays
    below 2/eps for every eps in (0, 1).
    """
    if not 0.0 < eps < 1.0:
        raise ParameterOutOfRangeError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must be in (0, 1), got {delta}")
    return math.ceil(math.log(1.0 / delta) / -math.log1p(-eps))


def sample_triangle(rng: np.random.Generator, n: int) -> Triangle:
    """One triangle uniform over all C(n, 3), via partial Fisher-Yates.

    Three draws from a virtual index array give a uniformly random ordered
    triple of distinct vertices in O(1) space; dropping the order makes the
    unordered triple exactly uniform.
    """
    return Triangle(*next(_triangles(rng, n, 1))[0].tolist())


def _triangles(rng, n: int, k: int, c: int = 1) -> Iterator[np.ndarray]:
    """``k`` triangles as ``sample_triangle`` draws them, in sorted ``(c, 3)``
    arrays, ``c`` doubling up to ``_CHUNK``; equal to one ``integers`` draw."""
    while k > 0:
        d = rng.integers(_FY_LOWS, n, size=(min(c, k), 3))
        # partial Fisher-Yates on the identity array: position i swaps with
        # position d_i >= i; positions 1, 2 then hold c1, c2
        d0, d1, d2 = d.T
        c2 = np.where(d2 == d1, d0 != 1, np.where(d2 == d0, 0, d2))
        d1[d1 == d0] = 0
        d2[:] = c2
        d.sort(axis=1)
        yield d
        k, c = k - len(d), min(2 * c, _CHUNK)


def test_bt(t: StochasticTournament, cfg: TesterConfig) -> TestVerdict:
    """Accept iff every sampled triangle is balanced.

    Draws ``sample_size(cfg.eps, cfg.delta)`` triangles i.i.d. uniformly
    (with replacement), checking each for |log lambda| <= ``cfg.tol`` (or
    ``log1p(cfg.eps_balance)``, the eps-balanced form).  Rejects with the
    first unbalanced triangle as witness; deterministic given the seed.
    Reads ``t`` only through ``t.n`` and one ``t.log_odds`` call per chunk.
    """
    if t.n < 3:
        raise TooFewVerticesError(f"tester needs n >= 3, got n={t.n}")
    k = sample_size(cfg.eps, cfg.delta)
    bound = cfg.tol if cfg.eps_balance is None else math.log1p(cfg.eps_balance)
    used = 0
    for tri in _triangles(np.random.default_rng(cfg.seed), t.n, k):
        bad = abs(log_triangle_ratio(t, tri)) > bound
        if bad.any():
            i = int(np.argmax(bad))
            witness = Triangle(*tri[i].tolist())
            return TestVerdict(False, witness, used + i + 1, 3 * (used + len(tri)))
        used += len(tri)
    return TestVerdict(True, None, k, 3 * k)


def estimate_unbalanced_fraction(
    t: StochasticTournament, samples: int, seed: int
) -> float:
    """Fraction of ``samples`` uniform triangles that are unbalanced
    (beyond ``TAU`` on |log lambda|).

    Unbiased estimator of |B| / C(n, 3) where B is the set of unbalanced
    triangles; purely diagnostic.
    """
    if t.n < 3:
        raise TooFewVerticesError(f"need n >= 3, got n={t.n}")
    if samples < 1:
        raise ParameterOutOfRangeError(f"samples must be >= 1, got {samples}")
    chunks = _triangles(np.random.default_rng(seed), t.n, samples, _CHUNK)
    bad = sum(np.count_nonzero(abs(log_triangle_ratio(t, c)) > TAU) for c in chunks)
    return bad / samples
