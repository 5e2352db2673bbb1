"""Shared fixtures and independent oracle helpers.

The oracle functions re-derive every quantity from the definitional
formulas (cross-multiplied products, explicit per-edge loops) rather than
calling back into the library paths they are used to check.
"""

import heapq
from itertools import combinations

import numpy as np
import pytest

import bttest as bt
from bttest.errors import ParseError
from bttest.tournament import pair_index


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
                raise ParseError(lineno, "labels must be nonempty, no whitespace")
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
        if x == y:
            raise bt.SelfLoopError(f"entry ({x}, {y}) is a self loop")
        if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in (x, y)):
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
    return bt.StochasticTournament(n, weights, low_wins)
