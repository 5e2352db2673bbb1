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
    _disc_components,
    _edge_log_odds,
    _tree_potential,
    _triangle_slabs,
    total_discrepancy,
)
from .errors import (
    ClampWarning,
    DeskScaleExceededError,
    DimensionMismatchError,
    OutOfRangeProbabilityError,
    ParameterOutOfRangeError,
    PreconditionFailedError,
    TooFewVerticesError,
)
from .tournament import (
    ETA,
    TAU,
    StochasticTournament,
    check_reversible,
    logistic,
    logit,
    pair_index,
)

#: Desk-scale ceiling for the exhaustive L1 distance oracle.
DESK_SCALE = 8


@dataclass(frozen=True)
class RepairReport:
    """What a repair did.

    ``edits`` lists the rewritten present edges as ``(x, y, old, new)``
    where x -> y is the edge's stored orientation.  Only edges opposite the
    root in some unbalanced triangle appear; nothing incident to the root
    is ever edited.  ``per_edge_bound_ok`` records that every edit stayed
    within the discrepancy of its triangle; ``clamped`` lists pairs whose
    balancing value fell outside [eta, 1 - eta] and was clamped.

    An edit keeps the pair's stored orientation.  When its balancing weight
    w lies within about 1e-9 of 1 that stores the large side, whose
    complement carries about ulp/(1 - w) relative error, so the triangle is
    balanced only to about that, not to ``tol``: weights (1e-12, 0.5, 0.5)
    on n = 3, stored high -> low, repaired at root 0, leave |log lambda| =
    2.2e-5 after the edit 2 -> 1 to 0.999999999999.
    """

    root: int
    edits: tuple[tuple[int, int, float, float], ...]
    total_change: float
    per_edge_bound_ok: bool
    clamped: tuple[tuple[int, int], ...]


def _balancing_weight(p_xz, p_zy, p_zx, p_yz):
    """``p_xy`` that alone balances the triangle {x, y, z}; elementwise.  Each
    edge is read in both directions: ``1 - (1 - w)`` keeps few digits of w ~ 0."""
    via = p_xz * p_zy
    return via / (via + p_zx * p_yz)


def repair_with_root(
    t: StochasticTournament, r: int
) -> tuple[StochasticTournament, RepairReport]:
    """Rebalance every triangle through ``r`` by rewriting its opposite edge.

    For each pair {u, v} avoiding r whose triangle {r, u, v} is unbalanced
    (beyond ``TAU`` on |log lambda|), the present edge u -> v gets the
    unique weight with odds ``(p_ur / p_ru) * (p_rv / p_vr)``, which
    balances the triangle exactly.  Triangles already balanced within
    ``TAU`` are left alone, so repairing a reversible tournament is the
    identity with total_change 0.  Balancing values outside
    [eta, 1 - eta] are clamped and flagged.
    """
    t._check_vertex(r)
    u, v = t._oriented()
    # edge log-odds of triangle (u, v, r) traversed u -> v -> r -> u
    e = _edge_log_odds(t.log_odds_matrix(), u, v, r)
    idx = np.flatnonzero((np.abs(_curl(e)) > TAU) & (u != r) & (v != r))
    u, v, old = u[idx], v[idx], t.weights[idx]
    p = t.prob_matrix()
    new = _balancing_weight(p[u, r], p[r, v], p[r, u], p[v, r])
    clamp = (new < t.eta) | (new > 1.0 - t.eta)
    new = np.clip(new, t.eta, 1.0 - t.eta)
    new_weights = t.weights.copy()
    new_weights[idx] = new
    repaired = StochasticTournament(t.n, new_weights, t.low_wins, t.eta)
    # every |edit| must stay within the discrepancy of its triangle
    disc = np.abs(_disc_components(e[:, idx])).max(axis=0)
    change = np.abs(new - old)
    u, v = u.tolist(), v.tolist()
    return repaired, RepairReport(
        root=r,
        edits=tuple(zip(u, v, old.tolist(), new.tolist())),
        total_change=math.fsum(change.tolist()),
        per_edge_bound_ok=bool(np.all(change <= disc + 1e-12)),
        clamped=tuple((a, b) for a, b, c in zip(u, v, clamp) if c),
    )


def best_root(t: StochasticTournament) -> int:
    """Vertex whose triangles carry the least total discrepancy.

    O(n^3).  Per-root sums within ``TAU`` of the minimum count as tied
    and the lowest id wins, so floating-point dust cannot perturb the
    choice on an already-reversible input.  The winning sum is at most
    ``(3/n) * sum_T disc(T)`` by the averaging identity.
    """
    if t.n < 3:
        raise TooFewVerticesError(f"best_root needs n >= 3, got n={t.n}")
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
    if not 0.0 < eps <= 1.0:
        raise ParameterOutOfRangeError(f"eps must be in (0, 1], got {eps}")
    return _within(p, pred, eps)


def _observed_and_predicted(
    t: StochasticTournament, scores: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p_xy`` and ``a(x) / (a(x) + a(y))`` as ``n x n`` matrices, both
    with a diagonal of 1, after validating ``scores``."""
    a = np.asarray(scores, dtype=float)
    if a.shape != (t.n,):
        raise DimensionMismatchError(f"scores shape {a.shape}, expected ({t.n},)")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ParameterOutOfRangeError("scores must be strictly positive and finite")
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
    a = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ParameterOutOfRangeError("scores must be strictly positive and finite")
    inv = 1.0 / a
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
    bound = math.log1p(7.0 * eps)
    ell = t.log_odds_matrix()
    return all(
        np.all(np.abs(_curl(_edge_log_odds(ell, x, ys, zs))) <= bound)
        for x, ys, zs in _triangle_slabs(t.n)
    )


def extend_tree(tw: TreeWeights, eta: float = ETA) -> StochasticTournament:
    """Extend spanning-tree weights to a reversible tournament.

    A stationary measure is grown along the tree from its lowest vertex
    (pi(root) = 1, pi(child) = pi(parent) * odds of the parent beating the
    child), then every chord gets the unique detailed-balance weight
    ``p_lo,hi / p_hi,lo = pi(hi) / pi(lo)``, stored along its small side
    (weight at most 1/2, low -> high on a tie) so that no read loses digits.
    Tree edges keep their input weight and orientation bit-for-bit.  Chord
    weights below eta are clamped up to it with a ClampWarning.  The
    measure is accumulated in log space so long ratio chains cannot
    overflow.
    """
    n = tw.n
    for u, v, w in tw.edges:
        if not (eta <= w <= 1.0 - eta):
            raise OutOfRangeProbabilityError(
                f"tree weight {w} on ({u}, {v}) outside [{eta}, {1.0 - eta}]"
            )
    rise = {(u, v): logit(w) for u, v, w in tw.edges}
    rise.update({(v, u): -ell for (u, v), ell in rise.items()})
    log_pi = _tree_potential(n, [(u, v) for u, v, _ in tw.edges], rise)

    lo, hi = np.triu_indices(n, k=1)
    ell = log_pi[hi] - log_pi[lo]  # log-odds of lo beating hi
    low_wins = ell <= 0.0
    weights = logistic(-np.abs(ell))  # the small side, at most 1/2
    # a chord whose exact weight is eta can round a few ulp below it
    outside = weights < eta - 16 * np.spacing(eta)
    weights = np.maximum(weights, eta)
    for u, v, w in tw.edges:
        i = pair_index(n, min(u, v), max(u, v))
        weights[i], low_wins[i], outside[i] = w, u < v, False
    clamped = int(outside.sum())
    if clamped:
        warnings.warn(
            f"{clamped} chord weight(s) clamped into [{eta}, {1.0 - eta}]",
            ClampWarning,
            stacklevel=2,
        )
    return StochasticTournament(n, weights, low_wins, eta)


def fit_scores_least_squares(t: StochasticTournament) -> np.ndarray:
    """Scores whose log minimises the squared log-odds residual

        sum_{x<y} ( log(p_xy / p_yx) - (log a(x) - log a(y)) )^2 .

    On the complete graph the normal equations have the closed form
    ``log a(x) = mean over y of log(p_xy / p_yx)`` up to an additive
    constant; the result is normalised so a(0) = 1.  Exactly consistent
    inputs are recovered up to scale; otherwise this is the L2-optimal
    log-odds potential.
    """
    phi = t.log_odds_matrix().sum(axis=1) / t.n
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


def l1_distance_oracle(t: StochasticTournament, budget: int = 200) -> DistanceBounds:
    """Bracket the L1 edit distance to the reversible property (n <= 8).

    Upper bound: the cheapest single-root repair, refined by coordinate
    descent on the log-score potential minimising the absolute deviation
    from the induced model (``budget`` single-coordinate line searches,
    started from the least-squares potential).  A line search over phi_i
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
    if budget < 0:
        raise ParameterOutOfRangeError(f"budget must be >= 0, got {budget}")

    upper = min(repair_with_root(t, r)[1].total_change for r in range(t.n))

    p = t.prob_matrix()
    ell = t.log_odds_matrix()
    phi = np.log(fit_scores_least_squares(t))
    best = float(_l1_objective(p, phi))
    steps = 0
    improved = True
    while improved and steps < budget:
        improved = False
        for i in range(1, t.n):  # phi[0] pinned: the objective is scale-free
            if steps >= budget:
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
    for x, ys, zs in _triangle_slabs(t.n):
        e = _edge_log_odds(ell, x, ys, zs)
        fixes = np.abs(_disc_components(e)).min(axis=0)[np.abs(_curl(e)) > TAU]
        lower = max(lower, float(fixes.max(initial=0.0)))
    return DistanceBounds(upper=upper, lower=min(lower, upper))
