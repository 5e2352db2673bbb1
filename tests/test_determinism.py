"""Seeded determinism of every CLI command: two in-process runs on the same
drawn input and seed give the same exit code and the same report apart
from ``timestamp``, and byte-identical output files."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from bttest.cli import main
from test_properties import label, spanning_trees, tournaments


def assert_deterministic(argv, output=None):
    """Run the CLI twice on ``argv``; both runs must give the same exit
    code, report (``timestamp`` aside) and bytes at ``output``."""
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore", bt.ClampWarning)
            code = main(argv)
        report = json.loads(out.getvalue())
        assert "timestamp" in report
        del report["timestamp"]
        runs.append((code, report, Path(output).read_bytes() if output else None))
    assert runs[0] == runs[1]


seeds = st.integers(0, 2**63 - 1)


@settings(max_examples=30, deadline=None)
@given(tournaments(min_n=3, max_n=9), st.data(), seeds, st.floats(0.05, 0.9),
       st.none() | st.floats(1e-9, 2.0))
def test_file_commands_are_deterministic(t, data, seed, eps, eps_balance):
    labels = data.draw(
        st.none() | st.lists(label, min_size=t.n, max_size=t.n, unique=True).map(tuple)
    )
    root = str(data.draw(st.integers(0, t.n - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        f, out = str(Path(tmp) / "t.bt"), str(Path(tmp) / "out.bt")
        Path(f).write_text(bt.serialize_tournament(t, labels))
        test = ["test", f, "--eps", str(eps), "--seed", str(seed)]
        if eps_balance is not None:
            test += ["--eps-balance", str(eps_balance)]
        for argv in (
            ["validate", f],
            test,
            ["disc", f, "--per-root"],
            ["fit", f],
            ["fit", f, "--root", root],
        ):
            assert_deterministic(argv)
        assert_deterministic(["repair", f, "-o", out], out)
        assert_deterministic(["repair", f, "--root", root, "-o", out], out)
        if t.n <= bt.DESK_SCALE:
            assert_deterministic(["distance", f, "--budget", "20"])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), seeds, st.floats(0.01, 0.99),
       st.lists(st.floats(0.1, 10.0), min_size=2, max_size=12))
def test_gen_is_deterministic(n, seed, p, scores):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "gen.bt")
        assert_deterministic(["gen", "random", "--n", str(n), "--seed", str(seed), "-o", out], out)
        assert_deterministic(["gen", "cyclic", "--n", str(n), "--p", str(p), "-o", out], out)
        assert_deterministic(["gen", "bt", "--scores", ",".join(map(str, scores)), "-o", out], out)


@settings(max_examples=30, deadline=None)
@given(spanning_trees())
def test_extend_tree_is_deterministic(tw):
    with tempfile.TemporaryDirectory() as tmp:
        tree, out = str(Path(tmp) / "tree.txt"), str(Path(tmp) / "out.bt")
        Path(tree).write_text(bt.serialize_tree(tw))
        assert_deterministic(["extend-tree", tree, "-o", out], out)
