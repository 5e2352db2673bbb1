"""Repair into an exactly reversible tournament, score construction and
fitting, spanning-tree extension, and a desk-scale distance oracle.

The repair fixes a root vertex r and rewrites each edge yz opposite r to
the unique weight that balances the triangle {r, y, z}; edges incident to
r are untouched.  Every triangle through r is then balanced, which already
certifies full reversibility, and each rewritten edge moves by at most the
discrepancy of its triangle.  Choosing the root that minimises the sum of
discrepancies over its triangles keeps the total movement below
``(3/n) * sum_T disc(T)`` by the averaging identity

    sum_r sum_{T owns r} disc(T)  ==  3 * sum_T disc(T).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .balance import (
    TreeWeights,
    _curl,
    _disc_max,
    _disc_min,
    _tree_potential,
    _tree_structure,
    _triangle_slabs,
    total_discrepancy,
)
from .errors import (
    ClampWarning,
    DeskScaleExceededError,
    PreconditionFailedError,
)
from .tournament import (
    ETA,
    TAU,
    StochasticTournament,
    _check_n,
    _check_param,
    _check_positive,
    _check_vertex,
    _frozen,
    _number,
    _pair_index,
    _small_side,
    _with_pairs,
    check_reversible,
    logistic,
    logit,
)

#: Desk-scale ceiling for the exhaustive L1 distance oracle.
DESK_SCALE = 8

#: Cap on the distance oracle's line searches; inputs up to DESK_SCALE
#: converge well inside it.
_LINE_SEARCHES = 200


@dataclass(frozen=True)
class RepairReport:
    """What a repair did.

    ``edits`` lists the rewritten edges as ``(x, y, old, new)``, where
    x -> y is the pair's stored orientation in the repaired tournament,
    its small side: ``new`` is the stored weight, at most 1/2, and ``old``
    is p_xy of the input.  Only edges opposite the root in some unbalanced
    triangle appear; nothing incident to the root is ever edited.
    ``per_edge_bound_ok`` records that every edit stayed within the
    discrepancy of its triangle; ``clamped`` lists, in the same
    orientation, the pairs whose balancing weight fell below ETA and now
    sit at ETA.  A clamped pair already stored at ETA is not an edit.
    """

    root: int
    edits: tuple[tuple[int, int, float, float], ...]
    total_change: float
    per_edge_bound_ok: bool
    clamped: tuple[tuple[int, int], ...]


def repair_with_root(
    t: StochasticTournament, r: int
) -> tuple[StochasticTournament, RepairReport]:
    """Rebalance every triangle through ``r`` by rewriting its opposite edge.

    For each pair {u, v} avoiding r whose triangle {r, u, v} is unbalanced
    (beyond ``TAU`` on |log lambda|), the pair gets the log-odds
    ``L[u, v] = L[u, r] + L[r, v]``, which balances the triangle exactly,
    and is stored as its small side.  Triangles already balanced within
    ``TAU`` keep their pair's weight and orientation bit for bit, so
    repairing a reversible tournament is the identity with total_change 0.
    Where no pair is edited the result is ``t`` itself, not a copy
    (tournaments are immutable).  Balancing weights below ETA are floored
    at ETA and flagged.
    """
    r = _check_vertex(r, t.n)
    u, v = t._oriented()
    col = np.insert(t.log_odds(np.delete(np.arange(t.n), r), r), r, 0.0)  # L[., r]
    # edge log-odds of triangle (u, v, r) traversed u -> v -> r -> u, with
    # L[u, v] of the stored edge u -> v the logit of its weight
    e = np.stack((logit(t.weights), col[v], -col[u]))
    # a pair through r has a curl of exactly 0: L is exactly skew and col[r] = 0
    idx = np.flatnonzero(np.abs(_curl(e)) > TAU)
    u, v, e, w = u[idx], v[idx], e[:, idx], t.weights[idx]
    # L[u, r] + L[r, v], reordered exactly
    new, keep, clamp = _small_side(-(e[1] + e[2]))
    x, y = np.where(keep, u, v), np.where(keep, v, u)
    old = np.where(keep, w, 1.0 - w)
    edit = old != new
    repaired = _with_pairs(t, x[edit], y[edit], new[edit]) if edit.any() else t
    # every |edit| must stay within the discrepancy of its triangle
    disc = _disc_max(e)
    change = np.abs(new - old)
    return repaired, RepairReport(
        root=r,
        edits=tuple(zip(*(a[edit].tolist() for a in (x, y, old, new)))),
        total_change=math.fsum(change.tolist()),
        per_edge_bound_ok=bool(np.all(change <= disc + 1e-12)),
        clamped=tuple(zip(x[clamp].tolist(), y[clamp].tolist())),
    )


def best_root(t: StochasticTournament) -> int:
    """Vertex whose triangles carry the least total discrepancy.

    O(n^3).  Per-root sums within ``TAU`` of the minimum count as tied
    and the lowest id wins, so floating-point dust cannot perturb the
    choice on an already-reversible input.  The winning sum is at most
    ``(3/n) * sum_T disc(T)`` by the averaging identity.
    """
    _check_n(t.n, 3)
    per_root = total_discrepancy(t).per_root
    return int(np.argmax(per_root <= per_root.min() + TAU))


def repair(t: StochasticTournament) -> tuple[StochasticTournament, RepairReport]:
    """Repair at the best root.

    Output is reversible; ``total_change <= (3/n) * sum_T disc(T)`` (plus
    tie tolerance), so a tournament whose triangle discrepancies sum below
    ``eps * C(n, 3)`` moves by less than ``eps * C(n, 2)`` in total.
    """
    return repair_with_root(t, best_root(t))


def scores_from_root(t: StochasticTournament, r: int) -> np.ndarray:
    """Scores read off against a root: a(r) = 1, a(y) = p_yr / p_ry.

    If every triangle through r is balanced these satisfy the exact
    Bradley-Terry identity; if every triangle through r is eps-balanced
    they form an eps-approximate score vector.
    """
    r = _check_vertex(r, t.n)
    y = np.arange(t.n)
    return np.exp(np.insert(t.log_odds(y[y != r], r), r, 0.0))


def verify_approx_bt(
    t: StochasticTournament, scores: Sequence[float] | np.ndarray, eps: float
) -> bool:
    """Two-sided check that ``scores`` is an eps-approximate score vector:

        (1+eps)^-1 * a(x)/(a(x)+a(y))  <=  p_xy  <=  (1+eps) * a(x)/(a(x)+a(y))

    for all ordered pairs.  Scale-free in ``scores``.
    """
    p, pred = _observed_and_predicted(t, scores)
    return _within(p, pred, _check_param("eps", eps, "in (0, 1]", lambda e: 0.0 < e <= 1.0))


def _observed_and_predicted(
    t: StochasticTournament, scores: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p_xy`` and ``a(x) / (a(x) + a(y))`` as ``n x n`` matrices, both
    with a diagonal of 1, after validating ``scores``."""
    a = _check_positive("scores", scores, t.n)
    p = t.prob_matrix()
    pred = a[:, None] / (a[:, None] + a[None, :])
    np.fill_diagonal(pred, 1.0)
    np.fill_diagonal(p, 1.0)
    return p, pred


def _within(p: np.ndarray, pred: np.ndarray, eps: float) -> bool:
    hi = 1.0 + eps
    return bool(np.all(p <= hi * pred) and np.all(p >= pred / hi))


def scores_to_stationary(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Stationary distribution of a score vector: pi_x proportional to 1/a(x).

    If ``scores`` is an eps-approximate score vector for a tournament, the
    pair (tournament, pi) passes ``check_reversible`` at 3*eps.
    """
    inv = 1.0 / _check_positive("scores", scores)
    return inv / inv.sum()


def check_seven_eps(
    t: StochasticTournament,
    pi: Sequence[float] | np.ndarray,
    eps: float,
) -> bool:
    """Given (t, pi) eps-approximately reversible, check that every triangle
    is 7*eps-balanced.

    The implication always holds (each triangle ratio is a product of three
    detailed-balance ratios, and (1+eps)^3 <= 1+7*eps for eps <= 1); it is
    exposed as a checkable property.  Raises PreconditionFailedError when
    (t, pi) does not pass ``check_reversible`` at ``eps`` in the first place.
    """
    if not check_reversible(t, pi, eps):
        raise PreconditionFailedError(
            f"(t, pi) is not {eps}-approximately reversible"
        )
    bound = math.log1p(7.0 * _number(eps))  # check_reversible admitted eps
    return all(np.all(np.abs(_curl(e)) <= bound) for _, _, e in _triangle_slabs(*t._pairs()))


def extend_tree(tw: TreeWeights) -> StochasticTournament:
    """Extend spanning-tree weights to a reversible tournament.

    A stationary measure is grown along the tree from its lowest vertex
    (pi(root) = 1, pi(child) = pi(parent) * odds of the parent beating the
    child), then every chord gets the unique detailed-balance weight
    ``p_lo,hi / p_hi,lo = pi(hi) / pi(lo)``, stored along its small side
    (weight at most 1/2, low -> high on a tie) so that no read loses digits.
    Tree edges keep their input weight and orientation bit-for-bit
    (``TreeWeights`` holds them inside [ETA, 1 - ETA]).  Chord weights
    below ETA are clamped up to it with a ClampWarning.  The
    measure is accumulated in log space so long ratio chains cannot
    overflow.
    """
    n = tw.n
    u, v, w = (np.array(c) for c in zip(*tw.edges))
    parent, depth = _tree_structure(n, [(a, b) for a, b, _ in tw.edges])
    # each child's rise from its parent: logit(w), negated where the edge
    # u -> v runs up, child -> parent
    up, ell = parent[u] == v, logit(w)
    rise = np.empty(n)
    rise[np.where(up, u, v)] = np.negative(ell, out=ell, where=up)
    log_pi = _tree_potential(parent, depth, rise[1:])

    # L[lo, hi] = log_pi[hi] - log_pi[lo] over the pairs lo < hi, row by row
    weights, low_wins, outside = _small_side(
        np.concatenate([log_pi[x + 1:] - log_pi[x] for x in range(n - 1)]))
    # a tree edge keeps its input weight, so a floor there is no clamp
    tree = _pair_index(n, np.minimum(u, v), np.maximum(u, v))
    clamped = int(outside.sum() - outside[tree].sum())
    if clamped:
        warnings.warn(
            f"{clamped} chord weight(s) clamped into [{ETA}, {1.0 - ETA}]",
            ClampWarning,
            stacklevel=2,
        )
    weights[tree], low_wins[tree] = w, u < v
    return StochasticTournament(n, _frozen(weights), _frozen(low_wins))


def fit_scores_least_squares(t: StochasticTournament) -> np.ndarray:
    """Scores whose log minimises the squared log-odds residual

        sum_{x<y} ( log(p_xy / p_yx) - (log a(x) - log a(y)) )^2 .

    On the complete graph the normal equations have the closed form
    ``log a(x) = mean over y of log(p_xy / p_yx)`` up to an additive
    constant; the result is normalised so a(0) = 1.  Exactly consistent
    inputs are recovered up to scale; otherwise this is the L2-optimal
    log-odds potential.
    """
    lo, hi, ell = t._pairs()
    phi = (np.bincount(lo, ell, t.n) - np.bincount(hi, ell, t.n)) / t.n
    return np.exp(phi - phi[0])


def min_verification_eps(
    t: StochasticTournament, scores: Sequence[float] | np.ndarray
) -> float | None:
    """Smallest eps in (0, 1] at which ``verify_approx_bt`` passes; None
    when even eps = 1 fails.

    Closed form: the largest of ``max(p_xy / pred_xy, pred_xy / p_xy) - 1``
    over ordered pairs, with ``pred_xy = a(x) / (a(x) + a(y))``, floored at
    machine epsilon.  Rounding can leave it a few ulps short of passing,
    so ``1 + eps`` is then stepped up one float at a time until the check
    passes (at eps = 1 at the latest).
    """
    p, pred = _observed_and_predicted(t, scores)
    if not _within(p, pred, 1.0):
        return None
    # the diagonal holds 1 in both, so it contributes a ratio of 1
    worst = float(np.max(np.maximum(p / pred, pred / p)))
    hi = min(max(worst, 1.0 + sys.float_info.epsilon), 2.0)
    while not _within(p, pred, hi - 1.0):
        hi = math.nextafter(hi, math.inf)
    return hi - 1.0


@dataclass(frozen=True)
class DistanceBounds:
    """Bracketing of the L1 distance to the nearest reversible weighting."""

    upper: float
    lower: float


def _l1_objective(p: np.ndarray, phi: np.ndarray):
    """``sum_{x<y} |p_xy - logistic(phi_x - phi_y)|`` for each potential
    along the last axis of ``phi``."""
    x, y = np.triu_indices(p.shape[0], k=1)
    return np.abs(p[x, y] - logistic(phi[..., x] - phi[..., y])).sum(axis=-1)


def l1_distance_oracle(t: StochasticTournament) -> DistanceBounds:
    """Bracket the L1 edit distance to the reversible property (n <= 8).

    Upper bound: the cheapest single-root repair, refined by coordinate
    descent on the log-score potential minimising the absolute deviation
    from the induced model (sweeps of single-coordinate line searches,
    started from the least-squares potential, until a sweep gains nothing
    or ``_LINE_SEARCHES`` have run).  A line search over phi_i
    evaluates the objective at once on a candidate set: the n - 1 points
    ``phi_y + L[i, y]``, each fitting pair {i, y} exactly, and the
    midpoints between consecutive sorted points, where saturating terms
    can leave an interior minimum; it moves to the best candidate if that
    improves the objective by more than 1e-12.  Lower bound: the largest,
    over triangles unbalanced beyond ``TAU``, of the cheapest single-edge
    fix of that triangle, capped at the upper bound so the bracket is
    always ordered.
    Exactly reversible inputs report (0, 0).
    """
    if t.n > DESK_SCALE:
        raise DeskScaleExceededError(
            f"distance oracle is desk-scale only (n <= {DESK_SCALE}), got n={t.n}"
        )
    upper = min(repair_with_root(t, r)[1].total_change for r in range(t.n))

    p = t.prob_matrix()
    ell = t.log_odds_matrix()
    phi = np.log(fit_scores_least_squares(t))
    best = float(_l1_objective(p, phi))
    steps = 0
    improved = True
    while improved and steps < _LINE_SEARCHES:
        improved = False
        for i in range(1, t.n):  # phi[0] pinned: the objective is scale-free
            if steps >= _LINE_SEARCHES:
                break
            kinks = np.sort(np.delete(phi + ell[i], i))
            trials = np.tile(phi, (2 * kinks.size - 1, 1))
            trials[:, i] = np.concatenate([kinks, (kinks[:-1] + kinks[1:]) / 2])
            values = _l1_objective(p, trials)
            k = int(np.argmin(values))
            steps += 1
            if values[k] < best - 1e-12:
                best = float(values[k])
                phi[i] = trials[k, i]
                improved = True
    upper = min(upper, best)

    lower = 0.0
    for _, _, e in _triangle_slabs(*t._pairs()):
        fixes = _disc_min(e)[np.abs(_curl(e)) > TAU]
        lower = max(lower, float(fixes.max(initial=0.0)))
    return DistanceBounds(upper=upper, lower=min(lower, upper))
