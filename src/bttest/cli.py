"""Command-line interface.

Every subcommand delegates to one library operation and prints a JSON
report to stdout.  Exit codes are a stable contract: 0 when the command
succeeded (or the tested property holds), 1 when a checked property is
rejected (``test`` rejecting, ``validate`` on a bad file), 2 for usage or
runtime errors.  All randomness requires a seed, which is echoed in the
report together with the RNG algorithm identifier.

``test`` judges balance up to the library's fixed tolerance ``TAU``;
``--eps-balance`` switches it to the eps-balanced predicate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._version import __version__
from .balance import total_discrepancy
from .errors import TournamentError
from .fileio import (
    load_tournament,
    load_tree,
    make_report,
    report_json,
    serialize_tournament,
)
from .repair import (
    extend_tree,
    fit_scores_least_squares,
    l1_distance_oracle,
    min_verification_eps,
    repair,
    repair_with_root,
    scores_from_root,
)
from .tester import TesterConfig, test_bt
from .tournament import gen_bt, gen_cyclic, gen_random


#: One ``repair`` edit ``(x, y, old, new)`` as ``json.dumps`` writes its
#: ``{"edge": [x, y], "old": old, "new": new}``: ``%r`` of a float is the
#: text ``json`` writes for it, and weights are finite.
_EDIT = '{"edge": [%d, %d], "old": %r, "new": %r}'

#: Edits formatted and written at a time, about 0.5 MB of text.
_EDITS_PER_BLOCK = 8192

#: Stands in for the edit list in the ``repair`` report: no other value there
#: holds its JSON, ``"\u0000edits"``, since a path holds no NUL.
_EDITS = "\0edits"

#: Most characters handed to ``sys.stdout`` in one write: ``print`` of a
#: whole report would encode it into one bytes object as large as the report.
_SLICE = 1 << 20


def _emit(command: str, config: dict, result: dict, seed=None, edits=None) -> None:
    """Write the report and a newline to stdout, the bytes ``print`` writes,
    in slices of at most ``_SLICE`` characters.  A repair's ``edits`` take
    the place of ``_EDITS`` in its report, ``_EDITS_PER_BLOCK`` at a time, so
    that no step holds the text of all C(n - 1, 2) of a near-BT input."""
    text = report_json(make_report(command, config, result, seed))
    if edits is not None:
        head, _, text = text.rpartition(json.dumps(_EDITS))
        sys.stdout.write(head)
        for i in range(0, len(edits), _EDITS_PER_BLOCK):
            block = edits[i : i + _EDITS_PER_BLOCK]
            sys.stdout.write((", " if i else "") + ", ".join([_EDIT % e for e in block]))
    for i in range(0, len(text), _SLICE):
        sys.stdout.write(text[i : i + _SLICE])
    sys.stdout.write("\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def cmd_validate(args) -> int:
    try:
        doc = load_tournament(args.file)
    except TournamentError as exc:
        _emit("validate", {"file": args.file}, {"valid": False, "error": str(exc)})
        return 1
    t = doc.tournament
    _emit(
        "validate",
        {"file": args.file},
        {
            "valid": True,
            "n": t.n,
            "pairs": int(t.weights.size),
            "labels": list(doc.labels) if doc.labels else None,
        },
    )
    return 0


def cmd_test(args) -> int:
    doc = load_tournament(args.file)
    cfg = TesterConfig(
        eps=args.eps,
        delta=args.delta,
        seed=args.seed,
        eps_balance=args.eps_balance,
    )
    verdict = test_bt(doc.tournament, cfg)
    witness = list(verdict.witness.vertices()) if verdict.witness else None
    result = {
        "outcome": verdict.outcome,
        "witness": witness,
        "samples_used": verdict.samples_used,
        "queries": verdict.queries,
    }
    if witness and doc.labels:
        result["witness_labels"] = [doc.labels[v] for v in witness]
    config = {
        "file": args.file,
        "eps": cfg.eps,
        "delta": cfg.delta,
        "eps_balance": cfg.eps_balance,
    }
    _emit("test", config, result, seed=cfg.seed)
    return 0 if verdict.accepted else 1


def cmd_disc(args) -> int:
    doc = load_tournament(args.file)
    td = total_discrepancy(doc.tournament)
    result: dict = {"total": td.total}
    if args.per_root:
        result["per_root"] = [float(v) for v in td.per_root]
    _emit("disc", {"file": args.file, "per_root": args.per_root}, result)
    return 0


def cmd_repair(args) -> int:
    doc = load_tournament(args.file)
    if args.root is not None:
        repaired, report = repair_with_root(doc.tournament, args.root)
    else:
        repaired, report = repair(doc.tournament)
    _write(args.output, serialize_tournament(repaired, doc.labels))
    _emit(
        "repair",
        {"file": args.file, "root": args.root, "output": args.output},
        {
            "root": report.root,
            "edits": [_EDITS],
            "total_change": report.total_change,
            "per_edge_bound_ok": report.per_edge_bound_ok,
            "clamped": [list(e) for e in report.clamped],
        },
        edits=report.edits,
    )
    return 0


def cmd_fit(args) -> int:
    doc = load_tournament(args.file)
    t = doc.tournament
    if args.root is not None:
        scores = scores_from_root(t, args.root)
        method = f"root-{args.root}"
    else:
        scores = fit_scores_least_squares(t)
        method = "least-squares"
    eps = min_verification_eps(t, scores)
    _emit(
        "fit",
        {"file": args.file, "method": method},
        {"scores": [float(a) for a in scores], "verification_eps": eps},
    )
    return 0


def cmd_gen(args) -> int:
    seed = None
    if args.kind == "bt":
        scores = [float(s) for s in args.scores.split(",")]
        t = gen_bt(scores)
        config = {"kind": "bt", "scores": scores}
    elif args.kind == "cyclic":
        t = gen_cyclic(args.n, args.p)
        config = {"kind": "cyclic", "n": args.n, "p": args.p}
    else:
        t = gen_random(args.n, args.seed)
        seed = args.seed
        config = {"kind": "random", "n": args.n}
    _write(args.output, serialize_tournament(t))
    _emit("gen", config, {"n": t.n, "output": args.output}, seed=seed)
    return 0


def cmd_extend_tree(args) -> int:
    tw = load_tree(args.treefile)
    t = extend_tree(tw)
    _write(args.output, serialize_tournament(t))
    _emit(
        "extend-tree",
        {"treefile": args.treefile, "output": args.output},
        {"n": t.n, "output": args.output},
    )
    return 0


def cmd_distance(args) -> int:
    doc = load_tournament(args.file)
    bounds = l1_distance_oracle(doc.tournament)
    _emit("distance", {"file": args.file}, {"upper": bounds.upper, "lower": bounds.lower})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bttest",
        description="Test, repair, fit and generate stochastic tournaments.",
    )
    parser.add_argument("--version", action="version", version=f"bttest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and invariant check of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("test", help="constant-query balance tester")
    p.add_argument("file")
    p.add_argument("--eps", type=float, required=True, help="farness parameter")
    p.add_argument("--delta", type=float, default=1.0 / 3.0,
                   help="failure probability (default 1/3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-balance", type=float, default=None, dest="eps_balance",
                   help="use the eps-balanced predicate at this eps instead")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("disc", help="exhaustive discrepancy sums")
    p.add_argument("file")
    p.add_argument("--per-root", action="store_true", dest="per_root")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("repair", help="rewrite into a reversible tournament")
    p.add_argument("file")
    p.add_argument("--root", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("fit", help="fit scores and report the verification eps")
    p.add_argument("file")
    p.add_argument("--root", type=int, default=None,
                   help="read scores off this root (default: least-squares fit)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gen", help="generate a tournament file")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("bt")
    g.add_argument("--scores", required=True, help="comma-separated positive reals")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("cyclic")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("extend-tree", help="extend tree weights to a reversible tournament")
    p.add_argument("treefile")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_extend_tree)

    p = sub.add_parser("distance", help="L1 distance bounds (desk scale)")
    p.add_argument("file")
    p.set_defaults(func=cmd_distance)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on first use: a build costs about
    2 ms, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (TournamentError, OSError, ValueError, MemoryError) as exc:
        print(f"bttest: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
