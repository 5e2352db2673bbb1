"""The checker accepts the library's real outputs and flags a corrupted
output of each kind.  Run with ``python -m pytest bench``."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bttest  # noqa: E402
import bttest.cli as cli  # noqa: E402

import check  # noqa: E402

N = 12


def _near_bt(n=N, seed=0):
    rng = np.random.default_rng(seed)
    exact = bttest.gen_bt(np.exp(rng.normal(0.0, 1.0, n)))
    lo = np.log(exact.weights / (1.0 - exact.weights))
    w = 1.0 / (1.0 + np.exp(-(lo * np.exp(rng.normal(0.0, 0.02, lo.size)))))
    return bttest.StochasticTournament(n, w, exact.low_wins)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())["result"]


@pytest.fixture
def near_file(tmp_path):
    t = _near_bt()
    path = tmp_path / "near.bt"
    check.write_tournament(str(path), t.n, t.weights, t.low_wins)
    return t, str(path), check.dense(t.n, t.weights, t.low_wins)


def test_reader_round_trips_the_writer(near_file):
    t, path, _ = near_file
    n, w, low = check.read_tournament(Path(path).read_text())
    assert n == t.n and np.array_equal(w, t.weights) and np.array_equal(low, t.low_wins)


@pytest.mark.parametrize("root", [None, 3])
def test_repair_flags_unbalanced_file_and_bad_total(near_file, tmp_path, root):
    _, path, p = near_file
    out = tmp_path / "out.bt"
    argv = ["repair", path, "-o", str(out)] + ([] if root is None else ["--root", str(root)])
    code, result = _run_cli(argv)
    text = out.read_text()
    assert code == 0 and check.check_repair(result, p, text, root=root) == []

    lines = text.splitlines()
    r = result["root"]
    k = next(i for i, ln in enumerate(lines[2:], 2) if str(r) not in ln.split()[:2])
    x, y, w = lines[k].split()
    lines[k] = f"{x} {y} {float(w) * 0.9!r}"
    assert any("unbalanced" in e for e in check.check_repair(result, p, "\n".join(lines), root=root))

    inflated = dict(result, total_change=result["total_change"] * 10)
    assert check.check_repair(inflated, p, text, root=root)


def test_disc_flags_wrong_total_and_per_root_sum(near_file):
    t, _, p = near_file
    td = bttest.total_discrepancy(t)
    result = {"total": td.total, "per_root": td.per_root.tolist()}
    assert check.check_disc(result, p) == []
    assert check.check_disc(dict(result, total=td.total * 1.01), p)
    shifted = (td.per_root + 1e-3).tolist()
    assert check.check_disc(dict(result, per_root=shifted), p)


def test_fit_flags_eps_that_fails_or_is_not_minimal(near_file):
    _, path, p = near_file
    code, result = _run_cli(["fit", path])
    assert code == 0 and result["verification_eps"] is not None
    assert check.check_fit(result, p) == []
    eps = result["verification_eps"]
    assert check.check_fit(dict(result, verification_eps=eps / 2), p)
    assert check.check_fit(dict(result, verification_eps=eps + 0.01), p)
    assert check.check_fit(dict(result, verification_eps=None), p)
    assert check.check_fit(dict(result, scores=[s * 1.01 for s in result["scores"]]), p)


def test_sampled_triangles_match_the_tester():
    t = bttest.gen_random(9, 1)
    for seed in range(20):
        tri = check.sampled_triangles(t.n, 1, seed)[0].tolist()
        assert tri == list(bttest.sample_triangle(np.random.default_rng(seed), t.n).vertices())


def test_tester_flags_rejected_bt_and_balanced_witness():
    bt = bttest.gen_bt(np.arange(1.0, 11.0))
    cfg = bttest.TesterConfig(eps=0.05, seed=4)
    v = bttest.test_bt(bt, cfg)
    verdict = {"outcome": v.outcome, "samples_used": v.samples_used, "witness": None}
    args = (bt.n, bt.weights, bt.low_wins, cfg.eps, cfg.delta, cfg.seed)
    assert check.check_test(verdict, *args, balanced_input=True) == []
    rejected = {"outcome": "reject", "samples_used": 1, "witness": [0, 1, 2]}
    errs = check.check_test(rejected, *args, balanced_input=True)
    assert any("balanced input rejected" in e for e in errs)
    assert any("witness" in e for e in errs)

    far = bttest.gen_perturbed(bt, 0.05, 1)
    v = bttest.test_bt(far, cfg)
    verdict = {"outcome": v.outcome, "samples_used": v.samples_used,
               "witness": list(v.witness.vertices())}
    args = (far.n, far.weights, far.low_wins, cfg.eps, cfg.delta, cfg.seed)
    assert v.outcome == "reject" and check.check_test(verdict, *args) == []
    assert check.check_test(dict(verdict, samples_used=v.samples_used + 1), *args)


def test_estimate_flags_wrong_fraction():
    t = bttest.gen_cyclic(30, 0.9)
    f = bttest.estimate_unbalanced_fraction(t, 200, 5)
    assert check.check_estimate(f, t.n, t.weights, t.low_wins, 200, 5) == []
    assert check.check_estimate(f + 0.005, t.n, t.weights, t.low_wins, 200, 5)


def test_gen_flags_changed_digit(tmp_path):
    out = tmp_path / "gen.bt"
    code, _ = _run_cli(["gen", "random", "--n", "7", "--seed", "3", "-o", str(out)])
    text = out.read_text()
    ref = bttest.gen_random(7, 3)
    assert code == 0 and check.check_gen(text, 7, ref) == []
    lines = text.splitlines()
    x, y, w = lines[5].split()
    lines[5] = f"{x} {y} {float(np.nextafter(float(w), 1.0))!r}"
    assert check.check_gen("\n".join(lines) + "\n", 7, ref)


def test_validate_and_exit_codes_flag_mismatches():
    assert check.check_validate({"valid": True, "n": 5, "pairs": 10}, 5) == []
    assert check.check_validate({"valid": True, "n": 5, "pairs": 9}, 5)
    assert check.check_validate({"valid": False, "error": "x"}, 5)
    assert check.check_exit("test", 1, check.EXIT_REJECT) == []
    assert check.check_exit("fit", 2, check.EXIT_OK)


def test_benchmark_json_matches_the_runner():
    import run
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
