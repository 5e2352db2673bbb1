"""Balance of triangles and cycles, and the discrepancy of a triangle.

A triangle on vertices x < y < z (canonical orientation x -> y -> z -> x)
is *balanced* when

    p_xy * p_yz * p_zx  ==  p_yx * p_zy * p_xz,

equivalently when its ratio ``lambda`` is 1.  The balance predicate is
evaluated on ``|log lambda| <= tol`` rather than on cross-multiplied
products: the condition is multiplicative, so a log-scale tolerance is
invariant under rescaling of the odds.

The *discrepancy* of a triangle is the largest of the three single-edge
weight changes that each individually make the triangle balanced; its
components alpha, beta, gamma are the signed changes for the edges xy, yz,
zx of the canonical orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateCycleError,
    NotASpanningTreeError,
    OutOfRangeProbabilityError,
    ParameterOutOfRangeError,
    SelfLoopError,
)
from .tournament import (
    TAU,
    StochasticTournament,
    _is_vertex,
    _potential_residual,
    _real,
)


@dataclass(frozen=True)
class Triangle:
    """Three distinct vertices, stored sorted (x < y < z)."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        a, b, c = sorted((self.x, self.y, self.z))
        if a == b or b == c:
            raise SelfLoopError(f"triangle vertices must be distinct: {self}")
        object.__setattr__(self, "x", a)
        object.__setattr__(self, "y", b)
        object.__setattr__(self, "z", c)

    def vertices(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class DirectedCycle:
    """A cyclically traversed sequence of >= 3 distinct vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(int(v) for v in self.vertices)
        if len(vs) < 3 or len(set(vs)) != len(vs):
            raise DegenerateCycleError(
                f"cycle needs >= 3 distinct vertices, got {vs}"
            )
        object.__setattr__(self, "vertices", vs)

    def reversed(self) -> "DirectedCycle":
        return DirectedCycle(tuple(reversed(self.vertices)))

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for i in range(len(vs)):
            yield vs[i], vs[(i + 1) % len(vs)]


@dataclass(frozen=True)
class Discrepancy:
    """Signed single-edge repair amounts for a triangle.

    ``alpha``, ``beta``, ``gamma`` are the changes to subtract from p_xy,
    p_yz, p_zx respectively (canonical orientation); each one alone
    rebalances the triangle.  ``value`` is the largest magnitude.
    """

    alpha: float
    beta: float
    gamma: float

    @property
    def value(self) -> float:
        return max(abs(self.alpha), abs(self.beta), abs(self.gamma))


def log_triangle_ratio(t: StochasticTournament, tri) -> float | np.ndarray:
    """log of the balance ratio; exactly 3 edge queries.  Also takes a
    ``(c, 3)`` array of sorted triangles and reads its 3c edges in one call."""
    v = np.asarray(tri.vertices() if isinstance(tri, Triangle) else tri)
    ell = t.log_odds(v, v.take([1, 2, 0], axis=-1))  # edges xy, yz, zx
    ratio = ell[..., 0] + ell[..., 1] + ell[..., 2]
    return float(ratio) if ratio.ndim == 0 else ratio


def triangle_ratio(t: StochasticTournament, tri: Triangle) -> float:
    """Balance ratio lambda = (p_xy p_yz p_zx) / (p_yx p_zy p_xz) for the
    canonical orientation x -> y -> z -> x.  Reversing the orientation
    inverts the ratio."""
    return math.exp(log_triangle_ratio(t, tri))


def is_balanced(t: StochasticTournament, tri: Triangle, tol: float = TAU) -> bool:
    """True when |log lambda| <= tol.  Orientation-invariant."""
    return abs(log_triangle_ratio(t, tri)) <= tol


def is_eps_balanced(t: StochasticTournament, tri: Triangle, eps: float) -> bool:
    """True when (1+eps)^-1 <= lambda <= 1+eps, evaluated in log form as
    |log lambda| <= log1p(eps).

    The interval is closed under inversion, so the predicate does not
    depend on the orientation.  ``eps`` may exceed 1 (needed when checking
    7-eps balance for larger eps).
    """
    if eps <= 0.0:
        raise ParameterOutOfRangeError(f"eps must be > 0, got {eps}")
    return abs(log_triangle_ratio(t, tri)) <= math.log1p(eps)


def discrepancy(t: StochasticTournament, tri: Triangle) -> Discrepancy:
    """Single-edge repair amounts of the triangle (canonical orientation).

    alpha = p_xy - p_zy p_xz / (p_zy p_xz + p_yz p_zx), and cyclically for
    beta (edge yz) and gamma (edge zx), from exactly 3 edge queries.  Each
    component alone, subtracted from its edge, rebalances the triangle;
    ``value`` is in [0, 1] and is 0 (within tolerance) iff it is balanced.
    """
    v = np.array(tri.vertices())
    return Discrepancy(*_disc_components(t.log_odds(v, v[[1, 2, 0]])).tolist())


def _disc_components(e):
    """Stacked (alpha, beta, gamma) of the triangles with edge log-odds ``e``.
    With h half the curl, an edge alone balances at log-odds e - 2h, so its
    weight moves by sigma(e) - sigma(e - 2h) = sinh h / (cosh h + cosh(e - h))."""
    h = _curl(e) / 2
    return np.sinh(h) / (np.cosh(h) + np.cosh(e - h))


def enumerate_triangles(n: int) -> Iterator[Triangle]:
    """All C(n, 3) triangles in lexicographic order."""
    for x, y, z in combinations(range(n), 3):
        yield Triangle(x, y, z)


def _triangle_slabs(n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every triangle x < y < z as one slab ``(x, ys, zs)`` per x, in
    lexicographic order; working memory is O(n^2) per slab."""
    for x in range(n - 2):
        ys, zs = np.triu_indices(n - x - 1, k=1)
        yield x, ys + (x + 1), zs + (x + 1)


def _edge_log_odds(ell: np.ndarray, x, y, z) -> np.ndarray:
    """Stacked edge log-odds ``(L_xy, L_yz, L_zx)`` of triangles x -> y -> z -> x."""
    return np.stack((ell[x, y], ell[y, z], ell[z, x]))


def _curl(e: np.ndarray):
    """log lambda = L_xy + L_yz + L_zx of the stacked edge log-odds ``e``."""
    return e[0] + e[1] + e[2]


@dataclass(frozen=True)
class TotalDiscrepancy:
    """Sum of disc(T) over all triangles, plus per-root sums over the
    triangles containing each vertex.  Each triangle has 3 vertices, so
    ``per_root.sum() == 3 * total`` up to accumulated rounding."""

    total: float
    per_root: np.ndarray


def total_discrepancy(t: StochasticTournament) -> TotalDiscrepancy:
    """Exhaustive O(n^3) discrepancy sums over the log-odds matrix, one
    slab (every y < z above a fixed x) at a time in O(n^2) working memory.

    ``total`` is ``math.fsum`` over the per-slab ``np.sum`` partials;
    ``per_root`` adds each slab into its three vertices with
    ``np.bincount``.  The same input always gives bit-identical sums.
    """
    ell = t.log_odds_matrix()
    partials = []
    per_root = np.zeros(t.n)
    for x, ys, zs in _triangle_slabs(t.n):
        d = np.abs(_disc_components(_edge_log_odds(ell, x, ys, zs))).max(axis=0)
        partials.append(float(np.sum(d)))
        per_root[x] += partials[-1]
        per_root += np.bincount(ys, weights=d, minlength=t.n)
        per_root += np.bincount(zs, weights=d, minlength=t.n)
    return TotalDiscrepancy(math.fsum(partials), per_root)


def log_cycle_ratio(t: StochasticTournament, cycle: DirectedCycle) -> float:
    """log lambda of a directed cycle: sum of edge log-odds along it."""
    return sum(t.log_odds(cycle.vertices, np.roll(cycle.vertices, -1)).tolist())


def cycle_ratio(t: StochasticTournament, cycle: DirectedCycle) -> float:
    """lambda of a directed cycle; multiplicative over cycle sums.
    ``math.inf`` when lambda overflows a float."""
    try:
        return math.exp(log_cycle_ratio(t, cycle))
    except OverflowError:
        return math.inf


def is_cycle_balanced(
    t: StochasticTournament, cycle: DirectedCycle, tol: float = TAU
) -> bool:
    return abs(log_cycle_ratio(t, cycle)) <= tol


# -- spanning trees and fundamental cycles --------------------------------


@dataclass(frozen=True)
class TreeWeights:
    """A weighted, oriented spanning tree of the complete graph.

    ``edges`` holds ``(u, v, w)`` triples: the tree edge {u, v} is oriented
    u -> v and carries weight w in (0, 1).
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        edges = tuple(self.edges)
        _tree_structure(self.n, [(u, v) for u, v, _ in edges])  # validates
        edges = tuple((int(u), int(v), float(_real(w, u, v))) for u, v, w in edges)
        for u, v, w in edges:
            if not 0.0 < w < 1.0:
                raise OutOfRangeProbabilityError(
                    f"tree weight {w} on ({u}, {v}) outside (0, 1)"
                )
        object.__setattr__(self, "edges", edges)


def _tree_structure(n: int, tree_edges) -> tuple[np.ndarray, np.ndarray]:
    """Parent/depth arrays of the tree rooted at its lowest vertex.

    Raises NotASpanningTreeError unless the edges form a spanning tree of
    the complete graph on [0, n).
    """
    edges = list(tree_edges)
    if len(edges) != n - 1 or len({frozenset(e) for e in edges}) != len(edges):
        raise NotASpanningTreeError(
            f"expected {n - 1} distinct edges, got {len(edges)}"
        )
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v or not (_is_vertex(u, n) and _is_vertex(v, n)):
            raise NotASpanningTreeError(f"bad tree edge ({u}, {v})")
        adj[u].append(v)
        adj[v].append(u)
    parent = np.full(n, -1, dtype=int)
    depth = np.full(n, -1, dtype=int)
    depth[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if depth[v] < 0:
                parent[v], depth[v] = u, depth[u] + 1
                stack.append(v)
    if np.any(depth < 0):
        raise NotASpanningTreeError("tree does not reach every vertex")
    return parent, depth


def _tree_potential(n: int, tree_edges, ell) -> np.ndarray:
    """Potential of a spanning tree, set parents first: ``pot[0] = 0`` and
    ``pot[v] - pot[u] = ell[u, v]`` along every tree edge, read from the
    log-odds matrix or a lookup holding both directions of each tree edge.
    Validates the tree like ``_tree_structure`` before the first read."""
    parent, depth = _tree_structure(n, tree_edges)
    pot = np.zeros(n)
    for v in np.argsort(depth, kind="stable")[1:].tolist():
        pot[v] = pot[parent[v]] + ell[parent[v], v]
    return pot


def _tree_path(parent, depth, a: int, b: int) -> list[int]:
    """Unique tree path from a to b, inclusive, by walking both ends to
    their meeting point."""
    left, right = [a], [b]
    while depth[left[-1]] > depth[right[-1]]:
        left.append(int(parent[left[-1]]))
    while depth[right[-1]] > depth[left[-1]]:
        right.append(int(parent[right[-1]]))
    while left[-1] != right[-1]:
        left.append(int(parent[left[-1]]))
        right.append(int(parent[right[-1]]))
    return left + right[-2::-1]


def fundamental_cycles(
    n: int, tree_edges: Iterable[tuple[int, int]]
) -> Iterator[DirectedCycle]:
    """Fundamental cycle of every chord of the tree, chords in
    pair-lexicographic order.  Each cycle runs chord u -> v, then back
    along the tree path from v to u."""
    parent, depth = _tree_structure(n, tree_edges)  # raises here, not at next()

    def cycles():
        for u, v in combinations(range(n), 2):
            if parent[u] == v or parent[v] == u:
                continue  # a tree edge
            path = _tree_path(parent, depth, v, u)  # v .. u through the tree
            yield DirectedCycle((u, *path[:-1]))

    return cycles()


def check_fundamental_cycles(
    t: StochasticTournament,
    tree_edges: Iterable[tuple[int, int]],
    tol: float = TAU,
) -> bool:
    """True iff every fundamental cycle of the spanning tree is balanced.

    The log-odds along the tree telescope into a potential ``pot``, so this
    is one O(n^2) residual ``L[u, v] - (pot[v] - pot[u])`` over the log-odds
    matrix: a chord's entry is its fundamental cycle's log lambda, a tree
    edge's is rounding.  The fundamental cycles span the cycle space, so
    True certifies that every cycle is balanced."""
    ell = t.log_odds_matrix()
    pot = _tree_potential(t.n, tree_edges, ell)
    return bool(np.all(np.abs(_potential_residual(ell, pot)) <= tol))
