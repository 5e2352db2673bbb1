"""Output checker: re-derives every result with its own numpy code.

Nothing here calls the library paths it checks.  The only library call is
``gen_random`` in :func:`check_gen`, which is the reference the ``gen``
command's file must reproduce bit-exactly.  Each check returns a list of
problems; an empty list means the output is correct.

A tournament is handled as ``(n, w, low)``: the stored weight of each
unordered pair in lexicographic order and whether the lower id wins it, or
as the dense matrix ``P[x, y] = p_xy`` when n is small enough.
"""

from __future__ import annotations

import math

import numpy as np

#: Balance tolerance on |log lambda| and the fit bisection resolution, the
#: library's documented defaults.
TOL = 1e-9
FIT_RESOLUTION = 1e-6
ETA = 1e-12
#: Slack for sums evaluated in a different order than the library's.
REL = 1e-9

EXIT_OK, EXIT_REJECT = 0, 1


# -- tournament representations ------------------------------------------


def pair_index(n: int, x, y):
    """Lexicographic position of pair {x, y}, x < y (works on arrays)."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


def write_tournament(path: str, n: int, w: np.ndarray, low: np.ndarray) -> int:
    """Write the ``bt-tournament v1`` format; returns the bytes written."""
    xs, ys = np.triu_indices(n, k=1)
    src = np.where(low, xs, ys).tolist()
    dst = np.where(low, ys, xs).tolist()
    lines = [f"{a} {b} {p!r}" for a, b, p in zip(src, dst, w.tolist())]
    text = f"bt-tournament v1\nn={n}\n" + "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return len(text)


def read_tournament(text: str):
    """Parse a tournament file without labels into ``(n, w, low)``.

    Returns None when the text is not one record per pair in the stored
    format the CLI writes.
    """
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "bt-tournament v1" or not lines[1].startswith("n="):
        return None
    n = int(lines[1][2:])
    toks = " ".join(lines[2:]).split()
    if len(toks) != 3 * (n * (n - 1) // 2):
        return None
    try:
        src = np.fromiter(map(int, toks[0::3]), dtype=np.int64)
        dst = np.fromiter(map(int, toks[1::3]), dtype=np.int64)
        p = np.fromiter(map(float, toks[2::3]), dtype=float)
    except ValueError:
        return None
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    idx = pair_index(n, lo, hi)
    if np.any(lo == hi) or np.any(hi >= n) or np.any(lo < 0):
        return None
    if not np.array_equal(np.sort(idx), np.arange(idx.size)):
        return None
    w = np.empty(idx.size)
    low = np.empty(idx.size, dtype=bool)
    w[idx] = p
    low[idx] = src < dst
    return n, w, low


def dense(n: int, w: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``P[x, y] = p_xy`` with the complement computed as ``1 - w``."""
    xs, ys = np.triu_indices(n, k=1)
    fwd = np.where(low, w, 1.0 - w)
    p = np.zeros((n, n))
    p[xs, ys] = fwd
    p[ys, xs] = np.where(low, 1.0 - w, w)
    return p


def prob(n: int, w, low, x, y):
    """p_xy for arrays of vertex pairs."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    i = pair_index(n, lo, hi)
    forward = low[i] == (x < y)
    return np.where(forward, w[i], 1.0 - w[i])


def log_odds(p):
    return np.log(p / (1.0 - p))


# -- triangle quantities ---------------------------------------------------


def disc_matrix_through(p: np.ndarray, r: int) -> np.ndarray:
    """``D[u, v]`` = discrepancy of triangle {r, u, v} (0 where undefined)."""
    n = p.shape[0]
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ok = (u != v) & (u != r) & (v != r)
    tri = np.sort(np.stack([np.full_like(u, r), u, v]), axis=0)
    d = _disc(p, tri[0], tri[1], tri[2])
    return np.where(ok, d, 0.0)


def _disc(p, x, y, z):
    """Discrepancy of triangles x < y < z (canonical orientation)."""
    p_xy, p_yz, p_zx = p[x, y], p[y, z], p[z, x]
    p_yx, p_zy, p_xz = 1.0 - p_xy, 1.0 - p_yz, 1.0 - p_zx
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = p_xy - p_zy * p_xz / (p_zy * p_xz + p_yz * p_zx)
        beta = p_yz - p_yx * p_xz / (p_yx * p_xz + p_xy * p_zx)
        gamma = p_zx - p_yx * p_zy / (p_yx * p_zy + p_xy * p_yz)
    return np.maximum(np.maximum(np.abs(alpha), np.abs(beta)), np.abs(gamma))


def all_disc(p: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of disc over all triangles and per-vertex sums, one x at a time."""
    n = p.shape[0]
    total = []
    per_root = np.zeros(n)
    for x in range(n - 2):
        ys, zs = np.triu_indices(n - x - 1, k=1)
        ys, zs = ys + x + 1, zs + x + 1
        d = _disc(p, np.full_like(ys, x), ys, zs)
        s = math.fsum(d.tolist())
        total.append(s)
        per_root[x] += s
        per_root += np.bincount(ys, weights=d, minlength=n)
        per_root += np.bincount(zs, weights=d, minlength=n)
    return math.fsum(total), per_root


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- the tester's samples --------------------------------------------------


def sample_size(eps: float, delta: float) -> int:
    return math.ceil(math.log(1.0 / delta) / -math.log1p(-eps))


def sampled_triangles(n: int, k: int, seed: int) -> np.ndarray:
    """The k triangles a seeded tester run draws, as sorted rows.

    Draws ``integers([0, 1, 2] * k, n)`` from PCG64 and applies the partial
    Fisher-Yates shuffle in closed form: the chosen vertices are d0, then
    d1 unless it hit position d0 (then 0), then d2 unless it hit d1
    (then the value left at position 1) or d0 (then 0).
    """
    rng = np.random.default_rng(seed)
    d = rng.integers(np.tile(np.arange(3), k), n).reshape(k, 3)
    d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
    c1 = np.where(d1 == d0, 0, d1)
    at1 = np.where(d0 == 1, 0, 1)
    c2 = np.where(d2 == d1, at1, np.where(d2 == d0, 0, d2))
    return np.sort(np.stack([d0, c1, c2], axis=1), axis=1)


def log_lambda(n: int, w, low, tri: np.ndarray) -> np.ndarray:
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    return (
        log_odds(prob(n, w, low, x, y))
        + log_odds(prob(n, w, low, y, z))
        + log_odds(prob(n, w, low, z, x))
    )


def _unbalanced(n, w, low, tri, eps_balance):
    lam = log_lambda(n, w, low, tri)
    if eps_balance is None:
        return np.abs(lam) > TOL
    return np.abs(lam) > math.log1p(eps_balance)


# -- checks, one per kind of output ----------------------------------------


def check_exit(command: str, code: int, expected: int) -> list[str]:
    if code != expected:
        return [f"{command}: exit {code}, expected {expected}"]
    return []


def check_validate(result: dict, n: int) -> list[str]:
    if result.get("valid") is not True or result.get("n") != n:
        return [f"validate: {result} for a valid n={n} file"]
    if result.get("pairs") != n * (n - 1) // 2:
        return [f"validate: pairs {result.get('pairs')} for n={n}"]
    return []


def check_disc(result: dict, p: np.ndarray) -> list[str]:
    total, per_root = all_disc(p)
    errs = []
    if not _close(result["total"], total):
        errs.append(f"disc: total {result['total']} != {total}")
    reported = np.asarray(result.get("per_root", []), dtype=float)
    if reported.shape != per_root.shape or not np.allclose(
        reported, per_root, rtol=REL, atol=1e-12
    ):
        errs.append("disc: per_root differs from the re-derived sums")
    elif not _close(math.fsum(reported.tolist()), 3.0 * result["total"]):
        errs.append("disc: per_root does not sum to 3 * total")
    return errs


def check_repair(result: dict, p_in: np.ndarray, out_text: str, root=None) -> list[str]:
    """The repaired file is reversible and the report matches it.

    ``root`` is the requested root, or None when the command chose the best
    root; then the total change must stay within (3/n) * sum disc plus the
    tie tolerance.
    """
    n = p_in.shape[0]
    r = result["root"]
    if root is not None and r != root:
        return [f"repair: root {r}, requested {root}"]
    parsed = read_tournament(out_text)
    if parsed is None or parsed[0] != n:
        return ["repair: output file is not a complete tournament"]
    p_out = dense(*parsed)
    errs = []
    clamped = {tuple(e) for e in result["clamped"]}
    # every triangle through r is balanced, except at clamped pairs
    lo = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    lo[off] = log_odds(p_out[off])
    imb = lo + lo[:, [r]].T + lo[[r], :].T  # L[u,v] + L[r,u] + L[v,r]
    bad = (np.abs(imb) > TOL) & off
    bad[r, :] = bad[:, r] = False
    for u, v in clamped:
        bad[u, v] = bad[v, u] = False
    if np.any(bad):
        u, v = np.argwhere(bad)[0]
        errs.append(f"repair: triangle ({r}, {u}, {v}) unbalanced after repair")
    if not (np.array_equal(p_out[r], p_in[r]) and np.array_equal(p_out[:, r], p_in[:, r])):
        errs.append("repair: an edge incident to the root changed")
    # the edit list is exactly the set of changed pairs
    changed = np.argwhere(np.triu(p_out != p_in, k=1))
    edits = result["edits"]
    if len(edits) != len(changed):
        errs.append(f"repair: {len(edits)} edits reported, {len(changed)} pairs changed")
    d_r = disc_matrix_through(p_in, r)
    if edits:
        xy = np.array([e["edge"] for e in edits], dtype=np.int64)
        old = np.array([e["old"] for e in edits], dtype=float)
        new = np.array([e["new"] for e in edits], dtype=float)
        x, y = xy[:, 0], xy[:, 1]
        if not (np.array_equal(p_in[x, y], old) and np.array_equal(p_out[x, y], new)):
            errs.append("repair: the edit list does not match the files")
        if np.any(old == new):
            errs.append("repair: an edit leaves its weight unchanged")
        if np.any(np.abs(new - old) > d_r[x, y] + 1e-12):
            errs.append("repair: an edit exceeds its triangle's discrepancy")
        total = math.fsum(np.abs(new - old).tolist())
    else:
        total = 0.0
    if not _close(result["total_change"], total):
        errs.append(f"repair: total_change {result['total_change']} != {total}")
    if root is None:
        disc_total, per_root = all_disc(p_in)
        if per_root[r] > per_root.min() + TOL + REL * per_root.min():
            errs.append(f"repair: root {r} is not a best root")
        bound = 3.0 / n * disc_total + TOL
        if result["total_change"] > bound * (1 + REL):
            errs.append(f"repair: total_change {result['total_change']} > (3/n) sum disc {bound}")
    else:
        bound = math.fsum(np.triu(d_r, k=1).ravel().tolist())
        if result["total_change"] > bound * (1 + REL) + 1e-12:
            errs.append(f"repair: total_change exceeds root {r}'s discrepancy sum")
    for u, v in clamped:
        if p_out[u, v] not in (ETA, 1.0 - ETA):
            errs.append(f"repair: clamped pair ({u}, {v}) not at the floor")
    return errs


def check_fit(result: dict, p: np.ndarray) -> list[str]:
    """Least-squares scores and the smallest eps of the two-sided check."""
    n = p.shape[0]
    q = p.copy()
    np.fill_diagonal(q, 0.5)
    phi = np.log(q / q.T).sum(axis=1) / n
    ref = np.exp(phi - phi[0])
    a = np.asarray(result["scores"], dtype=float)
    if a.shape != (n,) or not np.allclose(a, ref, rtol=REL, atol=0.0):
        return ["fit: scores differ from the least-squares potential"]
    pred = a[:, None] / (a[:, None] + a[None, :])
    off = ~np.eye(n, dtype=bool)
    ratio = p[off] / pred[off]
    e_star = float(np.max(np.maximum(ratio, 1.0 / ratio))) - 1.0
    eps = result["verification_eps"]
    if eps is None:
        if e_star <= 1.0 - 1e-12:
            return [f"fit: no eps reported, but the check passes at {e_star}"]
        return []
    hi = 1.0 + eps
    if not (np.all(p[off] <= hi * pred[off]) and np.all(p[off] >= pred[off] / hi)):
        return [f"fit: verification_eps {eps} fails the two-sided check"]
    if eps - e_star > FIT_RESOLUTION + 1e-9:
        return [f"fit: verification_eps {eps} is not minimal (closed form {e_star})"]
    return []


def check_test(verdict: dict, n: int, w, low, eps: float, delta: float, seed: int,
               eps_balance=None, balanced_input=False) -> list[str]:
    """Re-derives the tester's run: samples used, outcome and witness.

    ``verdict`` has ``outcome``, ``samples_used`` and ``witness`` (sorted
    vertex list or None).  A balanced input must be accepted; a witness
    must be unbalanced.
    """
    k = sample_size(eps, delta)
    tri = sampled_triangles(n, k, seed)
    bad = _unbalanced(n, w, low, tri, eps_balance)
    errs = []
    if verdict["outcome"] == "reject":
        wit = verdict["witness"]
        if wit is None or not _unbalanced(n, w, low, np.array([sorted(wit)]), eps_balance)[0]:
            errs.append(f"test: witness {wit} is balanced")
        if balanced_input:
            errs.append("test: balanced input rejected")
    if np.any(bad):
        first = int(np.argmax(bad))
        expect = ("reject", first + 1, tri[first].tolist())
    else:
        expect = ("accept", k, None)
    got = (verdict["outcome"], verdict["samples_used"], verdict["witness"])
    if got != expect:
        errs.append(f"test: got {got}, re-derived {expect}")
    return errs


def check_estimate(fraction: float, n: int, w, low, samples: int, seed: int) -> list[str]:
    tri = sampled_triangles(n, samples, seed)
    expect = int(np.count_nonzero(_unbalanced(n, w, low, tri, None))) / samples
    if fraction != expect:
        return [f"estimate: {fraction}, re-derived {expect}"]
    return []


def check_gen(out_text: str, n: int, reference) -> list[str]:
    """The written file reproduces ``reference`` (gen_random(n, seed)) bit-exactly."""
    parsed = read_tournament(out_text)
    if parsed is None or parsed[0] != n:
        return ["gen: output file is not a complete tournament"]
    _, w, low = parsed
    if not (np.array_equal(w, reference.weights) and np.array_equal(low, reference.low_wins)):
        return ["gen: output does not round-trip to gen_random(n, seed)"]
    return []
