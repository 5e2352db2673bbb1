"""Balance of triangles and cycles, and the discrepancy of a triangle.

A triangle on vertices x < y < z (canonical orientation x -> y -> z -> x)
is *balanced* when

    p_xy * p_yz * p_zx  ==  p_yx * p_zy * p_xz,

equivalently when its ratio ``lambda`` is 1.  The balance predicate is
evaluated on ``|log lambda| <= TAU`` rather than on cross-multiplied
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
from itertools import combinations, starmap
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateCycleError,
    DimensionMismatchError,
    NotASpanningTreeError,
    SelfLoopError,
)
from .tournament import (
    TAU,
    StochasticTournament,
    _check_n,
    _check_param,
    _check_vertex,
    _columns,
    _ends,
    _is_gradient,
    _pair_index,
    _real,
    _shaped,
)


@dataclass(frozen=True)
class Triangle:
    """Three distinct integer vertices, stored sorted (x < y < z)."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        a, b, c = sorted(map(_check_vertex, (self.x, self.y, self.z)))
        if a == b or b == c:
            raise SelfLoopError(f"triangle vertices must be distinct: {self}")
        object.__setattr__(self, "x", a)
        object.__setattr__(self, "y", b)
        object.__setattr__(self, "z", c)

    def vertices(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class DirectedCycle:
    """A cyclically traversed sequence of >= 3 distinct integer vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        try:
            vs = tuple(map(_check_vertex, self.vertices))
        except TypeError:  # 5, or a 0-d array: no collection of vertices
            raise DegenerateCycleError(
                f"cycle vertices must be a collection, got {self.vertices!r}") from None
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
    v = _shaped(tri.vertices() if isinstance(tri, Triangle) else tri)
    if v.shape[-1:] != (3,):
        raise DimensionMismatchError(f"a triangle is 3 vertices, got shape {v.shape}")
    ell = t.log_odds(v, v.take([1, 2, 0], axis=-1))  # edges xy, yz, zx
    ratio = ell[..., 0] + ell[..., 1] + ell[..., 2]
    return float(ratio) if ratio.ndim == 0 else ratio


def triangle_ratio(t: StochasticTournament, tri) -> float | np.ndarray:
    """Balance ratio lambda = (p_xy p_yz p_zx) / (p_yx p_zy p_xz) for the
    canonical orientation x -> y -> z -> x.  Reversing the orientation
    inverts the ratio.  Takes what :func:`log_triangle_ratio` takes: an
    array of triangles gives ``np.exp`` of its log ratios, one triangle
    ``math.exp`` of its own."""
    ratio = log_triangle_ratio(t, tri)
    return math.exp(ratio) if isinstance(ratio, float) else np.exp(ratio)


def is_balanced(t: StochasticTournament, tri: Triangle) -> bool:
    """True when |log lambda| <= ``TAU``.  Orientation-invariant."""
    return abs(log_triangle_ratio(t, tri)) <= TAU


def is_eps_balanced(t: StochasticTournament, tri: Triangle, eps: float) -> bool:
    """True when (1+eps)^-1 <= lambda <= 1+eps, evaluated in log form as
    |log lambda| <= log1p(eps).

    The interval is closed under inversion, so the predicate does not
    depend on the orientation.  ``eps`` may exceed 1 (needed when checking
    7-eps balance for larger eps).
    """
    _check_param("eps", eps, "> 0", lambda e: e > 0.0)
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


def _disc_at(e, pick):
    """|component| of ``_disc_components(e)`` at the edge ``pick`` chooses:
    the components share the numerator sinh h and their denominators grow
    with the gap |e_i - h|, so ``np.minimum`` of the gaps gives the largest
    and ``np.maximum`` the smallest, with the same bits and 3 transcendentals
    instead of 5.  ``e`` is a ``(3, k)`` array or a tuple of three arrays."""
    h = _curl(e)
    h /= 2
    # in place from here: a slab's arrays are the kernel's largest
    gap, g = np.abs(e[0] - h), np.empty_like(h)
    for ei in (e[1], e[2]):
        pick(gap, np.abs(np.subtract(ei, h, out=g), out=g), out=gap)
    denom = np.add(np.cosh(h, out=g), np.cosh(gap, out=gap), out=gap)
    d = np.abs(np.sinh(h, out=h), out=h)
    d /= denom
    return d


def _disc_max(e):
    """disc(T): the largest |component|, read at the edge nearest h."""
    return _disc_at(e, np.minimum)


def _disc_min(e):
    """The cheapest single-edge fix: the smallest |component|, read at the
    edge farthest from h."""
    return _disc_at(e, np.maximum)


def enumerate_triangles(n: int) -> Iterator[Triangle]:
    """All C(n, 3) triangles in lexicographic order; a bad ``n`` raises here."""
    return starmap(Triangle, combinations(range(_check_n(n)), 3))


def _triangle_slabs(
    lo: np.ndarray, hi: np.ndarray, ell: np.ndarray
) -> Iterator[tuple[int, int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Every triangle x < y < z of the pair vector ``ell = L[lo, hi]``
    (as ``StochasticTournament._pairs`` gives it) as one slab ``(x, s, e)``
    per x, in lexicographic order.

    The pairs y < z above x are the suffix of the pair list that starts at
    ``s = _pair_index(n, x + 1, x + 2)``, and ``e = (L_xy, L_yz, L_zx)`` is
    read over them as ``row[ys]``, ``ell[s:]`` and ``-row[zs]``, where
    ``row`` holds the segment of pairs (x, x+1 .. n-1) that ends at ``s``;
    ``-L_xz`` is ``L_zx`` bit for bit because L is exactly skew.  Working
    memory is O(n^2)."""
    n = int(hi[-1]) + 1
    row = np.empty(n)
    for x in range(n - 2):
        s = _pair_index(n, x + 1, x + 2)
        row[x + 1:] = ell[s - (n - 1 - x):s]
        yield x, s, (row[lo[s:]], ell[s:], -row[hi[s:]])


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
    """Exhaustive O(n^3) discrepancy sums over the stored pairs, one
    slab (every pair y < z above a fixed x, a suffix of the pair list) at
    a time in O(n^2) working memory.

    ``total`` is ``math.fsum`` over the per-slab ``np.sum`` partials.
    ``per_root`` gets each partial at its slab's x; one accumulator over
    the pairs gathers every slab's disc(T) at its pair {y, z}, and two
    ``np.bincount`` calls add it into y and z at the end.  The same input
    always gives bit-identical sums.
    """
    lo, hi, ell = t._pairs()
    partials = []
    per_root = np.zeros(t.n)
    acc = np.zeros(lo.size)
    for x, s, e in _triangle_slabs(lo, hi, ell):
        d = _disc_max(e)
        partials.append(float(np.sum(d)))
        per_root[x] += partials[-1]
        acc[s:] += d
    per_root += np.bincount(lo, weights=acc, minlength=t.n)
    per_root += np.bincount(hi, weights=acc, minlength=t.n)
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


def is_cycle_balanced(t: StochasticTournament, cycle: DirectedCycle) -> bool:
    """True when |log lambda| <= ``TAU`` along the cycle."""
    return abs(log_cycle_ratio(t, cycle)) <= TAU


# -- spanning trees and fundamental cycles --------------------------------


@dataclass(frozen=True)
class TreeWeights:
    """A weighted, oriented spanning tree of the complete graph.

    ``edges`` holds ``(u, v, w)`` triples: the tree edge {u, v} is oriented
    u -> v and carries weight w in ``[ETA, 1 - ETA]``.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        u, v, w = _columns(self.edges, ("u", "v", "w"))
        _tree_structure(self.n, zip(u, v))  # validates
        edges = tuple((int(a), int(b), float(_real(c, a, b))) for a, b, c in zip(u, v, w))
        object.__setattr__(self, "n", _check_n(self.n))
        object.__setattr__(self, "edges", edges)


def _tree_structure(n: int, tree_edges) -> tuple[np.ndarray, np.ndarray]:
    """Parent/depth arrays of the tree rooted at its lowest vertex.

    Raises NotASpanningTreeError unless the edges form a spanning tree of
    the complete graph on [0, n).
    """
    n = _check_n(n)
    u, v = _columns(tree_edges, ("u", "v"))
    lo, hi, _, i = _ends(n, u, v)
    if i < lo.size:
        raise NotASpanningTreeError(f"bad tree edge ({u[i]}, {v[i]})")
    if lo.size != n - 1 or np.unique(_pair_index(n, lo, hi)).size != lo.size:
        raise NotASpanningTreeError(f"expected {n - 1} distinct edges, got {lo.size}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(lo.tolist(), hi.tolist()):
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


def _tree_potential(parent, depth, rise) -> np.ndarray:
    """Potential of the tree of :func:`_tree_structure`, set parents first:
    ``pot[0] = 0`` and ``pot[v] = pot[parent[v]] + rise[v - 1]``, where
    ``rise`` holds each vertex's log-odds from its parent, ``L[parent[v], v]``,
    for v = 1 .. n-1."""
    pot = np.insert(rise, 0, 0.0)
    for v in np.argsort(depth, kind="stable")[1:].tolist():
        pot[v] += pot[parent[v]]
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
    t: StochasticTournament, tree_edges: Iterable[tuple[int, int]]
) -> bool:
    """True iff every fundamental cycle of the spanning tree is balanced.

    The log-odds along the tree telescope into a potential ``pot``, so this
    is one O(n^2) residual ``L[u, v] - (pot[v] - pot[u])`` over the stored
    pairs: a chord's entry is its fundamental cycle's log lambda, a tree
    edge's is rounding.  The fundamental cycles span the cycle space, so
    True certifies that every cycle is balanced."""
    parent, depth = _tree_structure(t.n, tree_edges)
    rise = t.log_odds(parent[1:], np.arange(1, t.n))  # the tree's edges, one call
    return _is_gradient(t, _tree_potential(parent, depth, rise), TAU)
