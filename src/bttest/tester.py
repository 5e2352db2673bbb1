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

Randomness comes from numpy's PCG64 generator (the ``Generator`` that
``numpy.random.default_rng`` returns), which is seedable and deterministic
across platforms; a seed is an integer >= 0, and reports should carry
:data:`bttest.tournament.RNG_ALGORITHM` alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .balance import Triangle, log_triangle_ratio
from .errors import ParameterOutOfRangeError
from .tournament import (
    MAX_PAIRS, TAU, StochasticTournament, _check_integer, _check_n, _check_param, _check_seed,
    _number, _rng)

#: Triangles per chunk at most; bounds the tester's memory.
_CHUNK = 1024

#: Chunks below this size, after the first, share one generator call.
_BLOCK = 128

#: Lower bounds of the three Fisher-Yates draws, one row per triangle: an
#: ``integers`` call given the lows in full skips broadcasting them to a size.
_FY_LOWS = np.tile(np.arange(3), (_CHUNK, 1))


@dataclass(frozen=True)
class TesterConfig:
    """Knobs of one tester run.

    ``eps`` is the farness parameter, ``delta`` the allowed probability of
    accepting a far input (1/3 gives the classical 2/3 success bound), and
    ``seed`` the RNG seed, an integer >= 0.  A triangle passes when
    |log lambda| <= ``TAU``; setting ``eps_balance`` switches to the
    multiplicative eps-balanced form, |log lambda| <= log1p(eps_balance).
    """

    eps: float
    delta: float = 1.0 / 3.0
    seed: int = 0
    eps_balance: float | None = None

    def __post_init__(self):
        sample_size(self.eps, self.delta)  # raises on an eps or delta outside (0, 1)
        _check_seed(self.seed)
        if self.eps_balance is not None:
            _check_param("eps_balance", self.eps_balance, "> 0", lambda e: e > 0.0)


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
    below 2/eps for every eps in (0, 1).  A run's cost grows linearly with
    it, so a result above ``MAX_PAIRS`` (2**40, admitted at delta = 1/3 for
    every eps >= 1e-12) raises ParameterOutOfRangeError.
    """
    eps = _check_param("eps", eps, "in (0, 1)", lambda e: 0.0 < e < 1.0)
    delta = _check_param("delta", delta, "in (0, 1)", lambda d: 0.0 < d < 1.0)
    k = math.log(1.0 / delta) / -math.log1p(-eps)
    if not k <= MAX_PAIRS:  # inf too
        raise ParameterOutOfRangeError(
            f"eps={eps}, delta={delta} need {k:.3g} samples, more than 2**40")
    return math.ceil(k)


def sample_triangle(rng: np.random.Generator, n: int) -> Triangle:
    """One triangle uniform over all C(n, 3), via partial Fisher-Yates.

    Three draws from a virtual index array give a uniformly random ordered
    triple of distinct vertices in O(1) space; dropping the order makes the
    unordered triple exactly uniform.
    """
    n = _check_n(n, 3)
    return Triangle(*next(_triangles(rng, n, 1))[0].tolist())


def _triangles(rng, n: int, k: int, c: int = 1) -> Iterator[np.ndarray]:
    """``k`` triangles as ``sample_triangle`` draws them, in sorted ``(c, 3)``
    chunks, ``c`` doubling up to ``_CHUNK``.

    One ``integers`` call and one shuffle serve a block of chunks, each chunk
    a slice of it: the first chunk alone (a reject at sample 1 draws no
    more), then the chunks below ``_BLOCK`` together, then one block per
    chunk.  PCG64's bounded draws do not depend on how they are split, so
    every split gives the triangles of one ``integers`` draw.
    """
    first = True
    while k > 0:
        sizes = []
        while k > 0 and (not sizes or (not first and c < _BLOCK)):
            sizes.append(min(c, k))
            k, c = k - sizes[-1], min(2 * c, _CHUNK)
        first = False
        d = rng.integers(_FY_LOWS[: sum(sizes)], n)
        # partial Fisher-Yates on the identity array: position i swaps with
        # position d_i >= i.  c1 is d1, or 0 where d1 hit d0; c2 is d2, or 0
        # where d2 hit d0, or where d2 hit d1 what position 1 held: 0 if d0
        # took it, else 1
        d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
        at1 = d2 == d1
        d2 *= d2 != d0
        np.copyto(d2, d0 != 1, where=at1)
        d1 *= d1 != d0
        d.sort(axis=1)
        end = 0
        for size in sizes:
            yield d[end : end + size]
            end += size


def test_bt(t: StochasticTournament, cfg: TesterConfig) -> TestVerdict:
    """Accept iff every sampled triangle is balanced.

    Draws ``sample_size(cfg.eps, cfg.delta)`` triangles i.i.d. uniformly
    (with replacement), checking each for |log lambda| <= ``TAU`` (or
    ``log1p(cfg.eps_balance)``, the eps-balanced form).  Rejects with the
    first unbalanced triangle as witness; deterministic given the seed.
    Reads ``t`` only through ``t.n`` and one ``t.log_odds`` call per chunk.
    """
    _check_n(t.n, 3)
    k = sample_size(cfg.eps, cfg.delta)
    # TesterConfig admitted eps_balance
    bound = TAU if cfg.eps_balance is None else math.log1p(_number(cfg.eps_balance))
    used = 0
    for tri in _triangles(_rng(cfg.seed), t.n, k):
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
    triangles; purely diagnostic.  The cost grows linearly with
    ``samples``, an integer in ``[1, MAX_PAIRS]`` (2**40), checked before
    any draw.
    """
    _check_n(t.n, 3)
    samples = _check_integer("samples", samples, "an integer in [1, 2**40]",
                             lambda k: 1 <= k <= MAX_PAIRS)
    chunks = _triangles(_rng(seed), t.n, samples, _CHUNK)
    bad = sum(np.count_nonzero(abs(log_triangle_ratio(t, c)) > TAU) for c in chunks)
    return bad / samples
