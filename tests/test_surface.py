"""The public surface, pinned as a literal table: every parameter of every
name in ``bttest.__all__`` and every option of every CLI subcommand.  A
knob added or removed shows up here as a diff.  Behind the surface, every
private module-level name of the package is read somewhere in it."""

import argparse
import ast
import inspect
from pathlib import Path

import bttest as bt
from bttest.cli import build_parser

#: Parameter names of each exported name; None for a constant or an
#: exception class that takes only a message.
API = {
    "__version__": None,
    "ETA": None,
    "TAU": None,
    "StochasticTournament": ("n", "weights", "low_wins"),
    "new_tournament": ("n", "entries"),
    "markov_matrix": ("t",),
    "check_reversible": ("t", "pi", "eps"),
    "gen_bt": ("scores",),
    "gen_cyclic": ("n", "p"),
    "gen_perturbed": ("base", "noise", "seed"),
    "gen_random": ("n", "seed"),
    "set_prob": ("t", "x", "y", "p"),
    "pair_index": ("n", "x", "y"),
    "Triangle": ("x", "y", "z"),
    "DirectedCycle": ("vertices",),
    "Discrepancy": ("alpha", "beta", "gamma"),
    "TotalDiscrepancy": ("total", "per_root"),
    "triangle_ratio": ("t", "tri"),
    "log_triangle_ratio": ("t", "tri"),
    "is_balanced": ("t", "tri"),
    "is_eps_balanced": ("t", "tri", "eps"),
    "discrepancy": ("t", "tri"),
    "total_discrepancy": ("t",),
    "cycle_ratio": ("t", "cycle"),
    "log_cycle_ratio": ("t", "cycle"),
    "is_cycle_balanced": ("t", "cycle"),
    "enumerate_triangles": ("n",),
    "fundamental_cycles": ("n", "tree_edges"),
    "check_fundamental_cycles": ("t", "tree_edges"),
    "RNG_ALGORITHM": None,
    "TesterConfig": ("eps", "delta", "seed", "eps_balance"),
    "TestVerdict": ("accepted", "witness", "samples_used", "queries"),
    "sample_size": ("eps", "delta"),
    "sample_triangle": ("rng", "n"),
    "test_bt": ("t", "cfg"),
    "estimate_unbalanced_fraction": ("t", "samples", "seed"),
    "DESK_SCALE": None,
    "RepairReport": ("root", "edits", "total_change", "per_edge_bound_ok", "clamped"),
    "TreeWeights": ("n", "edges"),
    "DistanceBounds": ("upper", "lower"),
    "repair_with_root": ("t", "r"),
    "best_root": ("t",),
    "repair": ("t",),
    "scores_from_root": ("t", "r"),
    "verify_approx_bt": ("t", "scores", "eps"),
    "scores_to_stationary": ("scores",),
    "check_seven_eps": ("t", "pi", "eps"),
    "extend_tree": ("tw",),
    "fit_scores_least_squares": ("t",),
    "min_verification_eps": ("t", "scores"),
    "l1_distance_oracle": ("t",),
    "TournamentDocument": ("tournament", "labels"),
    "parse_document": ("source",),
    "parse_tournament": ("source",),
    "serialize_tournament": ("t", "labels"),
    "parse_tree": ("source",),
    "serialize_tree": ("tw",),
    "load_tournament": ("path",),
    "load_tree": ("path",),
    "make_report": ("command", "config", "result", "seed"),
    "report_json": ("report",),
    "TournamentError": None,
    "SelfLoopError": None,
    "VertexOutOfRangeError": None,
    "DuplicatePairError": None,
    "MissingPairError": None,
    "OutOfRangeProbabilityError": None,
    "DimensionMismatchError": None,
    "DegenerateCycleError": None,
    "NotASpanningTreeError": None,
    "TooFewVerticesError": None,
    "ParameterOutOfRangeError": None,
    "PreconditionFailedError": None,
    "DeskScaleExceededError": None,
    "ParseError": ("line", "message"),
    "LabelError": None,
    "ClampWarning": None,
}

#: Positional arguments and option strings of each subcommand, "-h" aside.
CLI = {
    "": ("--version",),
    "validate": ("file",),
    "test": ("file", "--eps", "--delta", "--seed", "--eps-balance"),
    "disc": ("file", "--per-root"),
    "repair": ("file", "--root", "-o", "--output"),
    "fit": ("file", "--root"),
    "gen": (),
    "gen bt": ("--scores", "-o", "--output"),
    "gen cyclic": ("--n", "--p", "-o", "--output"),
    "gen random": ("--n", "--seed", "-o", "--output"),
    "extend-tree": ("treefile", "-o", "--output"),
    "distance": ("file",),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # not callable, or no signature of its own
        return None


def _options(parser, command=()):
    """``{subcommand: arguments}`` for ``parser`` and every parser below it."""
    table, own = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_options(sub, command + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            own.extend(action.option_strings or [action.dest])
    table[" ".join(command)] = tuple(own)
    return table


def test_api_parameters():
    assert {name: _parameters(getattr(bt, name)) for name in bt.__all__} == API


def test_cli_options():
    assert _options(build_parser()) == CLI


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def test_every_private_module_name_is_used():
    # a merged rule leaves no helper or constant behind that nothing reads;
    # a name read only inside its own definition is not read
    private, used = set(), set()
    for path in Path(bt.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = {n for n in _defined(node) if n.startswith("_") and not n.endswith("__")}
            private |= names
            reads = {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            reads |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            used |= reads - names
    assert not private - used, sorted(private - used)
