"""Shared fixtures and independent oracle helpers.

The oracle functions re-derive every quantity from the definitional
formulas (cross-multiplied products, explicit per-edge loops) rather than
calling back into the library paths they are used to check.
"""

import heapq
import json
import math
import re
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from bttest.balance import _curl, _disc_max, _tree_potential, _tree_structure
from bttest.errors import ParseError
from bttest.tournament import _check_n, _check_vertex, _real, _small_side, logit, pair_index


@pytest.fixture
def cyclic3():
    """Three players, each beating the next with probability 0.9."""
    return bt.gen_cyclic(3, 0.9)


@pytest.fixture
def bt124():
    """Exact Bradley-Terry tournament with scores (1, 2, 4)."""
    return bt.gen_bt([1.0, 2.0, 4.0])


@pytest.fixture
def fair3():
    """All-coin-flip tournament on 3 vertices."""
    return bt.gen_cyclic(3, 0.5)


@pytest.fixture
def floor_bt3():
    """Exact Bradley-Terry tournament with two weights at 1e-12, every pair
    stored high -> low, so the canonical triangle queries two of its edges
    against their stored orientation."""
    return bt.StochasticTournament(3, [0.5, 1e-12, 1e-12], [False] * 3)


# -- oracles ---------------------------------------------------------------


def dense_probs(t):
    """Probability matrix built one query at a time (diagonal left at 0)."""
    p = np.zeros((t.n, t.n))
    for x in range(t.n):
        for y in range(t.n):
            if x != y:
                p[x, y] = t.prob(x, y)
    return p


def oracle_lambda(p, x, y, z):
    """Triangle ratio straight from the product definition."""
    return (p[x, y] * p[y, z] * p[z, x]) / (p[y, x] * p[z, y] * p[x, z])


def oracle_balanced(p, x, y, z, rel=1e-9):
    num = p[x, y] * p[y, z] * p[z, x]
    den = p[y, x] * p[z, y] * p[x, z]
    return abs(num - den) <= rel * max(num, den)


def oracle_disc(p, x, y, z):
    """(alpha, beta, gamma) written out term by term from the definition."""
    alpha = p[x, y] - p[z, y] * p[x, z] / (p[z, y] * p[x, z] + p[y, z] * p[z, x])
    beta = p[y, z] - p[y, x] * p[x, z] / (p[y, x] * p[x, z] + p[x, y] * p[z, x])
    gamma = p[z, x] - p[y, x] * p[z, y] / (p[y, x] * p[z, y] + p[x, y] * p[y, z])
    return alpha, beta, gamma


def oracle_disc_value(p, x, y, z):
    return max(abs(c) for c in oracle_disc(p, x, y, z))


def oracle_per_root_sums(t):
    """Per-root discrepancy sums by brute-force triple enumeration."""
    p = dense_probs(t)
    sums = np.zeros(t.n)
    for x, y, z in combinations(range(t.n), 3):
        d = oracle_disc_value(p, x, y, z)
        sums[x] += d
        sums[y] += d
        sums[z] += d
    return sums


def oracle_unbalanced_count(t, rel=1e-9):
    p = dense_probs(t)
    return sum(
        not oracle_balanced(p, x, y, z, rel)
        for x, y, z in combinations(range(t.n), 3)
    )


def all_triangles_balanced(t, tol=1e-9):
    p = dense_probs(t)
    return all(
        abs(np.log(oracle_lambda(p, x, y, z))) <= tol
        for x, y, z in combinations(range(t.n), 3)
    )


def reference_triangle(draws):
    """Partial Fisher-Yates on a virtual identity array: position i swaps
    with position draws[i], and positions 0..2 end up holding the triple."""
    arr = {}
    for i, j in enumerate(draws):
        arr[i], arr[j] = arr.get(j, j), arr.get(i, i)
    return tuple(sorted(arr[i] for i in range(3)))


def random_tree(n, rng):
    """Uniform random labelled tree on [0, n) via a Prufer sequence."""
    if n == 2:
        return [(0, 1)]
    prufer = [int(v) for v in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def perturbed_bt_instance(n, eps, rng):
    """Tournament whose odds are exact-model odds scaled by random factors
    in [(1+eps)^-1, 1+eps].  Returns (tournament, true scores)."""
    scores = rng.uniform(0.5, 2.0, size=n)
    entries = []
    for x in range(n - 1):
        for y in range(x + 1, n):
            rho = np.exp(rng.uniform(-np.log1p(eps), np.log1p(eps)))
            odds = (scores[x] / scores[y]) * rho
            entries.append((x, y, odds / (1.0 + odds)))
    return bt.new_tournament(n, entries), scores


def reference_read(text, tag):
    """(n, labels, records) of a file, validated and decoded line by line:
    the reader as it was before the columnar body decode."""
    value_name = {"bt-tournament v1": ("p", "probability"), "bt-tree v1": ("w", "weight")}
    lines = text.splitlines()
    n = None
    labels = None
    body = []
    saw_tag = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_tag:
            if line != tag:
                raise ParseError(lineno, f"expected header {tag!r}, got {line!r}")
            saw_tag = True
            continue
        if line.startswith("n="):
            if n is not None:
                raise ParseError(lineno, "duplicate n= line")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(lineno, f"bad vertex count {line[2:]!r}") from None
            continue
        if line.startswith("labels="):
            if labels is not None:
                raise ParseError(lineno, "duplicate labels= line")
            labels = tuple(s.strip(" \t") for s in line[len("labels="):].split(","))
            if any(s.split() != [s] for s in labels):
                raise ParseError(lineno, "labels must be nonempty text, no whitespace")
            if len(set(labels)) != len(labels):
                raise ParseError(lineno, "labels are not unique")
            continue
        if n is None:
            raise ParseError(lineno, "body record before n= line")
        body.append((lineno, line))
    if n is None:
        raise ParseError(len(lines) or 1, "missing n= line")
    if labels is not None and len(labels) != n:
        raise ParseError(1, f"{len(labels)} labels for n={n} vertices")
    letter, word = value_name[tag]
    label_ids = {s: i for i, s in enumerate(labels or ())}
    records = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(lineno, f"expected 'x y {letter}', got {' '.join(tokens)!r}")
        ids = []
        for token in tokens[:2]:
            try:
                ids.append(int(token))
            except ValueError:
                if token not in label_ids:
                    raise ParseError(lineno, f"unknown vertex {token!r}") from None
                ids.append(label_ids[token])
        try:
            value = float(tokens[2])
        except ValueError:
            raise ParseError(lineno, f"bad {word} {tokens[2]!r}") from None
        records.append((ids[0], ids[1], value))
    return n, labels, records


def reference_new_tournament(n, entries):
    """``new_tournament`` one record at a time, with ``None`` marking a
    pair not seen yet."""
    m = n * (n - 1) // 2
    weights = [None] * m
    low_wins = [False] * m
    for x, y, p in entries:
        try:
            loop = bool(x == y)
        except (ArithmeticError, TypeError, ValueError):  # 2**63 == np.timedelta64(1) raises
            loop = False  # no truth, no self loop
        if loop:
            raise bt.SelfLoopError(f"entry ({x}, {y}) is a self loop")
        # an int or numpy integer, a bool or np.bool_ among them; not a duration
        if not all(isinstance(v, (int, np.integer, np.bool_))
                   and not isinstance(v, np.timedelta64) and 0 <= v < n for v in (x, y)):
            raise bt.VertexOutOfRangeError(f"entry ({x}, {y}) is not in [0, {n})")
        lo, hi = (x, y) if x < y else (y, x)
        i = pair_index(n, lo, hi)
        if weights[i] is not None:
            raise bt.DuplicatePairError(f"pair {{{x}, {y}}} given twice")
        weights[i] = p
        low_wins[i] = x < y
    if n >= 2 and None in weights:
        i = weights.index(None)
        lo, hi = np.triu_indices(n, k=1)
        raise bt.MissingPairError(f"no weight for pair {{{lo[i]}, {hi[i]}}}")
    return reference_tournament(n, weights, low_wins)


# -- construction as it was before the constructor kept frozen arrays -------


def reference_tournament(n, weights, low_wins):
    """``StochasticTournament(n, weights, low_wins)`` as the constructor
    built it before it kept the frozen arrays it is handed: a private copy
    of both arrays whatever they are, flags through ``np.array(..., bool)``
    (so give it bools or integers 0 and 1 only) and the range check through
    a mask.  The result holds the checked copies."""
    n = _check_n(n)
    m = n * (n - 1) // 2
    given = np.asarray(weights)
    flags = np.array(low_wins, dtype=bool)
    if given.shape != (m,) or flags.shape != (m,):
        raise bt.DimensionMismatchError(
            f"expected {m} pair entries for n={n}, got {given.shape} / {flags.shape}")
    lo, hi = np.triu_indices(n, k=1)

    def pair(i):
        return (lo[i], hi[i]) if flags[i] else (hi[i], lo[i])

    if given.dtype.kind not in "biuf":
        for i, w in enumerate(weights):
            _real(w, *pair(i))  # raises on the first non-real entry
    w = np.array(given, dtype=float)
    # the floor is the complement of the top, a hair below ETA
    outside = ~((1.0 - (1.0 - bt.ETA) <= w) & (w <= 1.0 - bt.ETA))
    if outside.any():
        i = int(np.argmax(outside))
        x, y = pair(i)
        raise bt.OutOfRangeProbabilityError(
            f"p={w[i]} for pair ({x}, {y}) outside [{bt.ETA}, {1.0 - bt.ETA}]")
    w.setflags(write=False)
    flags.setflags(write=False)
    return bt.StochasticTournament(n, w, flags)


def reference_gen_bt(scores):
    """``gen_bt`` before it refused text and bool scores."""
    a = np.asarray(scores, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise bt.DimensionMismatchError("scores must be a 1-D vector of length >= 2")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise bt.ParameterOutOfRangeError("scores must be strictly positive and finite")
    n = a.size
    lo, hi = np.triu_indices(n, k=1)
    return reference_tournament(n, a[lo] / (a[lo] + a[hi]), np.ones(lo.size, dtype=bool))


def reference_gen_cyclic(n, p):
    n = _check_n(n)
    m = n * (n - 1) // 2
    weights = np.full(m, 0.5)
    low_wins = np.ones(m, dtype=bool)
    for x in range(n):
        y = (x + 1) % n
        i = pair_index(n, min(x, y), max(x, y))
        weights[i] = _real(p, x, y)
        low_wins[i] = x < y
    return reference_tournament(n, weights, low_wins)


def reference_gen_perturbed(base, noise, seed):
    """``gen_perturbed`` drawing its noise, adding and clamping in three
    arrays."""
    if not 0.0 <= noise < 0.5:
        raise bt.ParameterOutOfRangeError(f"noise must be in [0, 0.5), got {noise}")
    bt.tournament._check_seed(seed)
    delta = np.random.default_rng(seed).uniform(-noise, noise, size=base.weights.size)
    weights = np.clip(base.weights + delta, bt.ETA, 1.0 - bt.ETA)
    return reference_tournament(base.n, weights, base.low_wins)


def reference_gen_random(n, seed):
    n = _check_n(n)
    bt.tournament._check_seed(seed)
    m = n * (n - 1) // 2
    weights = np.random.default_rng(seed).uniform(bt.ETA, 1.0 - bt.ETA, size=m)
    return reference_tournament(n, weights, np.ones(m, dtype=bool))


def reference_set_prob(t, x, y, p):
    t.prob(x, y)  # raises on a bad vertex or a self loop
    i = pair_index(t.n, min(x, y), max(x, y))
    weights, low_wins = t.weights.copy(), t.low_wins.copy()
    weights[i] = _real(p, x, y)
    low_wins[i] = x < y
    return reference_tournament(t.n, weights, low_wins)


def reference_repair_with_root(t, r):
    """(tournament, report) of ``repair_with_root`` built through
    ``reference_tournament``."""
    _check_vertex(r, t.n)
    u, v = t._oriented()
    ell = t.log_odds_matrix()
    e = np.stack((ell[u, v], ell[v, r], ell[r, u]))
    idx = np.flatnonzero((np.abs(_curl(e)) > bt.TAU) & (u != r) & (v != r))
    u, v, e, w = u[idx], v[idx], e[:, idx], t.weights[idx]
    new, keep, clamp = _small_side(-(e[1] + e[2]))
    x, y = np.where(keep, u, v), np.where(keep, v, u)
    old = np.where(keep, w, 1.0 - w)
    edit = old != new
    weights, low_wins = t.weights.copy(), t.low_wins.copy()
    weights[idx[edit]] = new[edit]
    low_wins[idx[edit]] = (x < y)[edit]
    change = np.abs(new - old)
    return reference_tournament(t.n, weights, low_wins), bt.RepairReport(
        root=r,
        edits=tuple(zip(*(a[edit].tolist() for a in (x, y, old, new)))),
        total_change=math.fsum(change.tolist()),
        per_edge_bound_ok=bool(np.all(change <= _disc_max(e) + 1e-12)),
        clamped=tuple(zip(x[clamp].tolist(), y[clamp].tolist())),
    )


def reference_extend_tree(tw):
    """``extend_tree`` built through ``reference_tournament``, without its
    ClampWarning."""
    n = tw.n
    parent, depth = _tree_structure(n, [(u, v) for u, v, _ in tw.edges])
    rise = np.zeros(n)  # each child's rise from its parent, one edge at a time
    for u, v, w in tw.edges:
        if parent[v] == u:
            rise[v] = logit(w)
        else:
            rise[u] = -logit(w)
    log_pi = _tree_potential(parent, depth, rise[1:])
    lo, hi = np.triu_indices(n, k=1)
    weights, low_wins, _ = _small_side(log_pi[hi] - log_pi[lo])
    for u, v, w in tw.edges:
        i = pair_index(n, min(u, v), max(u, v))
        weights[i], low_wins[i] = w, u < v
    return reference_tournament(n, weights, low_wins)


def reference_total_discrepancy(t):
    """(total, per_root) the way the kernel computed them before it read
    one pair accumulator: per slab, the stacked edge log-odds by 2-D index,
    all three single-edge components and their largest magnitude, and two
    ``np.bincount`` calls into the slab's y and z."""
    ell = t.log_odds_matrix()
    partials = []
    per_root = np.zeros(t.n)
    for x in range(t.n - 2):
        ys, zs = np.triu_indices(t.n - x - 1, k=1)
        ys, zs = ys + (x + 1), zs + (x + 1)
        e = np.stack((ell[x, ys], ell[ys, zs], ell[zs, x]))
        h = (e[0] + e[1] + e[2]) / 2
        d = np.abs(np.sinh(h) / (np.cosh(h) + np.cosh(e - h))).max(axis=0)
        partials.append(float(np.sum(d)))
        per_root[x] += partials[-1]
        per_root += np.bincount(ys, weights=d, minlength=t.n)
        per_root += np.bincount(zs, weights=d, minlength=t.n)
    return math.fsum(partials), per_root


def reference_triangles(rng, n, k, c=1):
    """``tester._triangles`` as it drew before block draws: one ``integers``
    call, with the lows broadcast to a size, per chunk of c, 2c, 4c, ... up
    to 1024 triangles, each shuffled through two ``np.where`` calls."""
    while k > 0:
        d = rng.integers(np.arange(3), n, size=(min(c, k), 3))
        d0, d1, d2 = d.T
        c2 = np.where(d2 == d1, d0 != 1, np.where(d2 == d0, 0, d2))
        d1[d1 == d0] = 0
        d2[:] = c2
        d.sort(axis=1)
        yield d
        k, c = k - len(d), min(2 * c, 1024)


def reference_log_odds(t, x, y):
    """``StochasticTournament.log_odds`` as it read before the lean fast
    path: min and max, a range test under ``np.all``, the pair index by
    ``// 2`` and the sign as a multiplier."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind == "u" or y.dtype.kind == "u":
        x, y = np.asarray(x.tolist()), np.asarray(y.tolist())
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    if not (x.dtype.kind == y.dtype.kind == "i"
            and np.all((0 <= lo) & (lo < hi) & (hi < t.n))):
        x, y = np.broadcast_arrays(x, y)
        for a, b in zip(x.ravel().tolist(), y.ravel().tolist()):
            t.prob(a, b)  # raises on the first bad entry
        x, y = x.astype(np.int64), y.astype(np.int64)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
    i = lo * (2 * t.n - lo - 1) // 2 + (hi - lo - 1)
    ell = np.log(t.weights[i] / (1.0 - t.weights[i]))
    ell = ell * np.where(t.low_wins[i] == (x < y), 1, -1)
    return float(ell) if ell.ndim == 0 else ell


def _reference_curl(t, tri):
    """log lambda of each sorted triangle row, summed in the order
    ``log_triangle_ratio`` sums it."""
    e = reference_log_odds(t, tri, tri.take([1, 2, 0], axis=-1))
    return e[:, 0] + e[:, 1] + e[:, 2]


def reference_test_bt(t, cfg):
    """``test_bt`` as it ran before block draws, on ``reference_triangles``
    and ``reference_log_odds``: (outcome, witness, samples_used, queries)."""
    k = bt.sample_size(cfg.eps, cfg.delta)
    bound = bt.TAU if cfg.eps_balance is None else math.log1p(cfg.eps_balance)
    used = 0
    for tri in reference_triangles(np.random.default_rng(cfg.seed), t.n, k):
        bad = np.abs(_reference_curl(t, tri)) > bound
        if bad.any():
            i = int(np.argmax(bad))
            return "reject", tuple(tri[i].tolist()), used + i + 1, 3 * (used + len(tri))
        used += len(tri)
    return "accept", None, k, 3 * k


def reference_estimate(t, samples, seed):
    """``estimate_unbalanced_fraction`` as it ran before block draws."""
    chunks = reference_triangles(np.random.default_rng(seed), t.n, samples, 1024)
    bad = sum(np.count_nonzero(np.abs(_reference_curl(t, c)) > bt.TAU) for c in chunks)
    return bad / samples


def mask_timestamp(report_text):
    """A report's text with the value of its ``timestamp`` field blanked."""
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', report_text)


def reference_repair_output(path, root, output):
    """(stdout, repaired file text) of ``bttest repair path [--root root] -o
    output`` as the command encoded its report before the edit list was
    formatted straight from the report's tuples: one dict and one list per
    edit, then ``json.dumps`` of the whole report."""
    doc = bt.load_tournament(path)
    if root is not None:
        repaired, report = bt.repair_with_root(doc.tournament, root)
    else:
        repaired, report = bt.repair(doc.tournament)
    result = {
        "root": report.root,
        "edits": [
            {"edge": [x, y], "old": old, "new": new}
            for x, y, old, new in report.edits
        ],
        "total_change": report.total_change,
        "per_edge_bound_ok": report.per_edge_bound_ok,
        "clamped": [list(e) for e in report.clamped],
    }
    config = {"file": path, "root": root, "output": output}
    stdout = json.dumps(bt.make_report("repair", config, result)) + "\n"
    return stdout, bt.serialize_tournament(repaired, doc.labels)
