"""The benchmark's output checker accepts every repair report the CLI writes.

``bench/check.py`` re-derives the repaired file and the report with its own
numpy code; a slip in the report's contract (an edit's orientation, its
``old`` bits, a no-op edit, a clamped pair off the floor) would otherwise
only fail once a benchmark run checks a ``repair`` op.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

import bttest as bt
from bttest.cli import main

CHECK = Path(__file__).resolve().parent.parent / "bench" / "check.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("bench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mixed(n, seed):
    """Weights in [0.01, 0.99] in random orientations: many edits flip."""
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    return bt.StochasticTournament(n, rng.uniform(0.01, 0.99, m), rng.random(m) < 0.5)


#: Root edges stay at or above 1e-7: the checker reads each reverse weight
#: as ``1 - w``, which keeps too few digits of a weight near ETA.
CASES = {
    # at every root the opposite pair flips and is clamped at ETA
    "flip_and_clamp": (bt.gen_cyclic(3, 1e-7), [None, 2]),
    # at every root the opposite pair flips to its small side
    "flip": (bt.gen_cyclic(3, 0.1), [None, 2]),
    "mixed": (_mixed(7, 3), [None, 0, 5]),
    # 0 -> 1 balances below ETA, where it is already stored: no edit
    "no_op": (bt.new_tournament(3, [(0, 1, bt.ETA), (0, 2, 1e-6), (2, 1, 1e-7)]), [2]),
}


@pytest.mark.parametrize(
    "name, root", [(name, root) for name, (_, roots) in CASES.items() for root in roots]
)
def test_checker_accepts_the_repair_report(check, tmp_path, name, root):
    t = CASES[name][0]
    src, out = tmp_path / "in.bt", tmp_path / "out.bt"
    check.write_tournament(str(src), t.n, t.weights, t.low_wins)
    argv = ["repair", str(src), "-o", str(out)] + ([] if root is None else ["--root", str(root)])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    result = json.loads(buf.getvalue())["result"]
    p = check.dense(t.n, t.weights, t.low_wins)
    assert check.check_repair(result, p, out.read_text(), root=root) == []

