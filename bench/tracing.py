"""Spans recorded from outside the library.

``install`` replaces public functions at the module attributes their
callers look up (``bttest.cli.total_discrepancy``,
``bttest.repair.verify_approx_bt``, ``StochasticTournament.prob_matrix``,
...) with wrappers that open a span, call the original and close the span.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or -1), ``op`` the id shared by every span of
one operation, and ``attrs`` holds the counts taken at that boundary
(bytes, pairs, samples, edits).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def current(self) -> int:
        return self._stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Merge spans dumped by a child process under span ``parent``.

        ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so the child's
        timestamps are on the parent's time line.
        """
        base = len(self.spans)
        op = self.spans[parent][OP]
        for s in child_spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] < 0 else s[PARENT] + base
            s[OP] = op
            self.spans.append(s)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _wrap(tracer: Tracer, fn, name: str, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                attrs = post(result, args, kwargs)
            return result
        finally:
            tracer.close(idx, attrs)

    return wrapper


# -- counts taken at the boundaries ----------------------------------------


def _load_attrs(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _parse_attrs(result, args, kwargs):
    return {"pairs": _n_pairs(result.tournament.n)}


def _serialize_attrs(result, args, kwargs):
    return {"bytes": len(result.encode("utf-8")), "pairs": _n_pairs(args[0].n)}


def _report_attrs(result, args, kwargs):
    return {"bytes": len(result.encode("utf-8"))}


def _disc_attrs(result, args, kwargs):
    n = args[0].n
    return {"triangles": n * (n - 1) * (n - 2) // 6}


def _repair_attrs(result, args, kwargs):
    _, report = result
    n = args[0].n
    return {
        "edits": len(report.edits),
        "clamped": len(report.clamped),
        "opposite_pairs": _n_pairs(n - 1),
    }


def _test_attrs(result, args, kwargs):
    import check  # not at the top: launch.py times the package import alone

    t, cfg = args[0], args[1]
    return {
        "n": t.n,
        "samples_used": result.samples_used,
        "samples_requested": check.sample_size(cfg.eps, cfg.delta),
    }


def _estimate_attrs(result, args, kwargs):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return {"n": args[0].n, "samples": samples}


def _targets():
    """(owner, attribute, span name, post hook) for every wrapped callable.

    Each function is wrapped where its caller looks it up: the CLI's
    globals for the commands, ``bttest.repair``'s globals for the calls
    ``repair``, ``best_root`` and ``min_verification_eps`` make, and the
    ``bttest.tester``/``bttest.tournament`` attributes the benchmark calls
    itself.
    """
    # import_module, not ``import bttest.repair``: the package re-exports a
    # function named ``repair`` that shadows the submodule attribute
    cli, fileio, repair, tester, tournament = (
        importlib.import_module(f"bttest.{m}")
        for m in ("cli", "fileio", "repair", "tester", "tournament")
    )

    out = [(cli, "main", "cli.main", None)]
    for cmd in ("validate", "test", "disc", "repair", "fit", "gen"):
        out.append((cli, f"cmd_{cmd}", f"cli.{cmd}", None))
    out += [
        (cli, "load_tournament", "fileio.load", _load_attrs),
        (fileio, "parse_document", "fileio.parse", _parse_attrs),
        (cli, "serialize_tournament", "fileio.serialize", _serialize_attrs),
        (cli, "make_report", "fileio.report", None),
        (cli, "report_json", "fileio.report", _report_attrs),
        (fileio, "new_tournament", "tournament.new_tournament", None),
        (tournament.StochasticTournament, "prob_matrix", "tournament.prob_matrix", None),
        (cli, "gen_random", "tournament.gen", None),
        (tournament, "gen_bt", "tournament.gen", None),
        (tournament, "gen_cyclic", "tournament.gen", None),
        (tournament, "gen_perturbed", "tournament.gen", None),
        (tournament, "gen_random", "tournament.gen", None),
        (cli, "total_discrepancy", "balance.total_discrepancy", _disc_attrs),
        (repair, "total_discrepancy", "balance.total_discrepancy", _disc_attrs),
        (cli, "test_bt", "tester.test_bt", _test_attrs),
        (tester, "test_bt", "tester.test_bt", _test_attrs),
        (tester, "estimate_unbalanced_fraction", "tester.estimate", _estimate_attrs),
        (cli, "repair", "repair.repair", None),
        (repair, "best_root", "repair.best_root", None),
        (cli, "repair_with_root", "repair.repair_with_root", _repair_attrs),
        (repair, "repair_with_root", "repair.repair_with_root", _repair_attrs),
        (cli, "fit_scores_least_squares", "repair.fit", None),
        (cli, "min_verification_eps", "repair.min_verification_eps", None),
        (repair, "verify_approx_bt", "repair.verify_approx_bt", None),
    ]
    return out


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for owner, attr, name, post in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, post))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- aggregation -----------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another (single thread, one child
    process at a time), so the covered time is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    return "bench" if name.startswith("op.") else name.split(".", 1)[0]
