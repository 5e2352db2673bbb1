"""CLI subcommands: exit codes, reports, files written."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bttest as bt
from bttest import cli
from bttest.cli import main
from conftest import mask_timestamp, reference_repair_output


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.bt"
    path.write_text(bt.serialize_tournament(bt.gen_cyclic(3, 0.9)))
    return str(path)


@pytest.fixture
def bt_file(tmp_path):
    path = tmp_path / "model.bt"
    path.write_text(bt.serialize_tournament(bt.gen_bt([1.0, 2.0, 4.0, 8.0])))
    return str(path)


class TestValidate:
    def test_good_file(self, capsys, cyclic_file):
        code, report = run(capsys, "validate", cyclic_file)
        assert code == 0
        assert report["result"] == {
            "valid": True,
            "n": 3,
            "pairs": 3,
            "labels": None,
        }

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.bt"
        path.write_text("bt-tournament v1\nn=2\n0 1 1.5\n")
        code, report = run(capsys, "validate", str(path))
        assert code == 1
        assert report["result"]["valid"] is False

    def test_missing_file(self, capsys, tmp_path):
        code = main(["validate", str(tmp_path / "absent.bt")])
        assert code == 2


class TestTest:
    def test_reject_cyclic(self, capsys, cyclic_file):
        code, report = run(
            capsys, "test", cyclic_file, "--eps", "0.5", "--seed", "7"
        )
        assert code == 1
        assert report["result"]["outcome"] == "reject"
        assert report["result"]["witness"] == [0, 1, 2]
        assert report["result"]["queries"] == 3  # rejected at the first sample
        assert report["seed"] == 7
        assert report["rng"] == bt.RNG_ALGORITHM

    def test_accept_bt(self, capsys, bt_file):
        code, report = run(capsys, "test", bt_file, "--eps", "0.5")
        assert code == 0
        assert report["result"]["outcome"] == "accept"
        assert report["result"]["witness"] is None
        assert report["result"]["queries"] == 3 * bt.sample_size(0.5)

    def test_deterministic_report(self, capsys, cyclic_file):
        _, a = run(capsys, "test", cyclic_file, "--eps", "0.3", "--seed", "5")
        _, b = run(capsys, "test", cyclic_file, "--eps", "0.3", "--seed", "5")
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_eps_balance_flag(self, capsys, tmp_path):
        t = bt.set_prob(bt.gen_cyclic(3, 0.5), 0, 1, 1.05 / 2.05)
        path = tmp_path / "mild.bt"
        path.write_text(bt.serialize_tournament(t))
        code, _ = run(capsys, "test", str(path), "--eps", "0.5")
        assert code == 1
        code, _ = run(
            capsys, "test", str(path), "--eps", "0.5", "--eps-balance", "0.1"
        )
        assert code == 0

    def test_eps_balance_is_the_only_looser_bound(self, capsys, cyclic_file):
        with pytest.raises(SystemExit) as exc:
            main(["test", cyclic_file, "--eps", "0.5", "--tol", "7"])
        assert exc.value.code == 2
        code, report = run(capsys, "test", cyclic_file, "--eps", "0.5")
        assert code == 1 and "tol" not in report["config"]
        # the one triangle has |log lambda| = 3 logit(0.9) = 6.59 < log1p(1096) = 7.0
        code, _ = run(capsys, "test", cyclic_file, "--eps", "0.5", "--eps-balance", "1096")
        assert code == 0

    def test_whitespace_label_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nbsp.bt"
        text = "bt-tournament v1\nn=3\nlabels=\xa0a,b,c\n0 1 .5\n0 2 .5\n1 2 .5\n"
        path.write_text(text, encoding="utf-8")
        assert main(["test", str(path), "--eps", "0.5"]) == 2
        assert "labels must be nonempty" in capsys.readouterr().err

    def test_bad_eps(self, capsys, cyclic_file):
        code = main(["test", cyclic_file, "--eps", "2.0"])
        assert code == 2
        # NaN would print a report that is not JSON
        code = main(["test", cyclic_file, "--eps", "0.5", "--eps-balance", "nan"])
        assert (code, capsys.readouterr().out) == (2, "")


class TestDisc:
    def test_total(self, capsys, cyclic_file):
        code, report = run(capsys, "disc", cyclic_file)
        assert code == 0
        assert report["result"]["total"] == pytest.approx(0.9 - 0.01 / 0.82)
        assert "per_root" not in report["result"]

    def test_per_root(self, capsys, cyclic_file):
        _, report = run(capsys, "disc", cyclic_file, "--per-root")
        per_root = report["result"]["per_root"]
        assert len(per_root) == 3
        assert sum(per_root) == pytest.approx(3 * report["result"]["total"])


class TestRepair:
    def test_repairs_to_accepted_file(self, capsys, cyclic_file, tmp_path):
        out = str(tmp_path / "fixed.bt")
        code, report = run(capsys, "repair", cyclic_file, "-o", out)
        assert code == 0
        assert report["result"]["total_change"] == pytest.approx(
            0.9 - 0.01 / 0.82, rel=1e-9
        )
        assert report["result"]["per_edge_bound_ok"] is True
        code, _ = run(capsys, "test", out, "--eps", "0.5")
        assert code == 0

    def test_explicit_root(self, capsys, cyclic_file, tmp_path):
        out = str(tmp_path / "fixed2.bt")
        _, report = run(capsys, "repair", cyclic_file, "--root", "2", "-o", out)
        assert report["result"]["root"] == 2
        assert report["result"]["edits"][0]["edge"] == [0, 1]


def same_text(got, want):
    """``got == want``, failing with the first difference: pytest's own diff
    of two long one-line strings takes minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"differ at {i}: {got[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}")


class TestRepairReportBytes:
    """``repair`` stdout (timestamp masked) and the file it writes are the
    bytes the dict-plus-``json.dumps`` encoder gives.  The edit list is
    written two edits a block unless a case says otherwise, so that most
    cases cross a block edge."""

    @staticmethod
    def check(tmp_dir, t, labels=None, root=None, per_block=2, name="out.bt"):
        path, out = str(tmp_dir / "in.bt"), str(tmp_dir / name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(bt.serialize_tournament(t, labels))
        argv = ["repair", path, "-o", out]
        if root is not None:
            argv[2:2] = ["--root", str(root)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                mock.patch.object(cli, "_EDITS_PER_BLOCK", per_block):
            assert main(argv) == 0
        with open(out, encoding="utf-8") as f:
            written = f.read()
        stdout, text = reference_repair_output(path, root, out)
        same_text(mask_timestamp(buf.getvalue()), mask_timestamp(stdout))
        same_text(written, text)
        return json.loads(stdout)["result"]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 8),
        data=st.data(),
        labelled=st.booleans(),
    )
    def test_matches_the_reference(self, tmp_path_factory, n, data, labelled):
        m = n * (n - 1) // 2
        weight = st.sampled_from([bt.ETA, 1e-7, 0.5, 1.0 - 1e-7, 1.0 - bt.ETA]) | st.floats(
            bt.ETA, 1.0 - bt.ETA)
        t = bt.StochasticTournament(
            n,
            data.draw(st.lists(weight, min_size=m, max_size=m)),
            data.draw(st.lists(st.booleans(), min_size=m, max_size=m)),
        )
        root = data.draw(st.none() | st.integers(0, n - 1))
        labels = tuple(f"v\u00e9{i}" for i in range(n)) if labelled else None
        self.check(tmp_path_factory.mktemp("repair"), t, labels, root)

    @pytest.mark.parametrize("root", [None, 0])
    def test_no_edits(self, tmp_path, root):
        result = self.check(tmp_path, bt.gen_bt([1.0, 2.0, 4.0, 8.0]), root=root)
        assert result["edits"] == []

    def test_clamped_pair(self, tmp_path):
        result = self.check(tmp_path, bt.gen_cyclic(3, 1e-7), root=2)
        assert result["clamped"] == [[1, 0]] and len(result["edits"]) == 1

    def test_pair_already_at_the_floor(self, tmp_path):
        t = bt.new_tournament(3, [(0, 1, bt.ETA), (0, 2, 1e-6), (2, 1, 1e-7)])
        result = self.check(tmp_path, t, root=2)
        assert result["clamped"] == [[0, 1]] and result["edits"] == []

    def test_labelled_file(self, tmp_path):
        result = self.check(tmp_path, bt.gen_cyclic(5, 0.9), labels=tuple("abcde"))
        assert result["edits"]

    @pytest.mark.parametrize("per_block", [2, cli._EDITS_PER_BLOCK])
    @pytest.mark.parametrize("root", [None, 250])
    def test_three_digit_ids(self, tmp_path, root, per_block):
        rng = np.random.default_rng(300)
        t = bt.gen_perturbed(bt.gen_bt(rng.uniform(0.5, 2.0, 300)), 0.001, 1)
        result = self.check(tmp_path, t, root=root, per_block=per_block)
        assert max(max(e["edge"]) for e in result["edits"]) >= 100
        assert len(result["edits"]) > 2 * cli._EDITS_PER_BLOCK

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
    def test_edit_counts_at_block_edges(self, tmp_path, count):
        # at root 0 of n = 5, six pairs avoid the root; each one moved off
        # its BT weight is one edit
        t = bt.gen_bt([1.0, 2.0, 4.0, 8.0, 16.0])
        for x, y in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)][:count]:
            t = bt.set_prob(t, x, y, 0.5)
        assert len(self.check(tmp_path, t, root=0)["edits"]) == count

    def test_output_path_holding_the_placeholder_text(self, tmp_path):
        # the file name is the placeholder's JSON text, "\u0000edits".bt
        result = self.check(tmp_path, bt.gen_cyclic(5, 0.9), name=json.dumps(cli._EDITS) + ".bt")
        assert result["edits"]


def stdout_bytes(write, newline):
    """The bytes ``write()`` puts on a UTF-8 stdout with ``newline`` translation."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline=newline)
    with contextlib.redirect_stdout(out):
        write()
    out.flush()
    return buf.getvalue()


class TestEmitSlices:
    """``_emit`` writes the report in slices; stdout holds the bytes that
    ``print`` of the whole report writes."""

    @staticmethod
    def check(text, size, newline):
        # the report is ``text`` itself, so that no timestamp differs
        with mock.patch.object(cli, "make_report", lambda *a: text), \
                mock.patch.object(cli, "report_json", lambda r: r), \
                mock.patch.object(cli, "_SLICE", size):
            got = stdout_bytes(lambda: cli._emit("x", {}, {}), newline)
        assert got == stdout_bytes(lambda: print(text), newline)

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.integers(1, 9), st.sampled_from([None, "", "\r\n"]))
    def test_any_text_and_slice(self, text, size, newline):
        self.check(text, size, newline)

    @pytest.mark.parametrize("length", [0, 1, 8, 15, 16, 17, 24])
    def test_slice_boundaries(self, length):
        self.check("a\u00e9\n\U0001f600" * (length // 4) + "b" * (length % 4), 4, None)

    def test_a_report_of_several_slices(self):
        text = json.dumps({"edits": [[i, i + 1, 0.1 * i] for i in range(200_000)]})
        assert len(text) > 3 * cli._SLICE
        self.check(text, cli._SLICE, None)

    def test_the_edit_list_is_never_held_whole(self):
        edits = [(i % 997, i % 991, 0.1 + 1e-7 * i, 0.2 + 3e-7 * i) for i in range(200_000)]
        length = len(", ".join([cli._EDIT % e for e in edits]))
        result = {"root": 0, "edits": [cli._EDITS], "total_change": 0.5}
        with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                cli._emit("repair", {}, result, edits=edits)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < length / 4


class TestFit:
    def test_lsq_on_bt(self, capsys, bt_file):
        code, report = run(capsys, "fit", bt_file)
        assert code == 0
        scores = report["result"]["scores"]
        assert scores == pytest.approx([1.0, 2.0, 4.0, 8.0], rel=1e-9)
        assert report["result"]["verification_eps"] <= 1e-5

    def test_root_fit(self, capsys, bt_file):
        _, report = run(capsys, "fit", bt_file, "--root", "1")
        assert report["result"]["scores"] == pytest.approx(
            [0.5, 1.0, 2.0, 4.0], rel=1e-9
        )

    def test_cyclic_has_no_verification_eps(self, capsys, cyclic_file):
        _, report = run(capsys, "fit", cyclic_file)
        assert report["result"]["verification_eps"] is None


class TestGen:
    def test_gen_cyclic_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "c.bt")
        code, _ = run(capsys, "gen", "cyclic", "--n", "3", "--p", "0.9", "-o", out)
        assert code == 0
        assert bt.load_tournament(out).tournament == bt.gen_cyclic(3, 0.9)

    def test_gen_bt(self, capsys, tmp_path):
        out = str(tmp_path / "m.bt")
        run(capsys, "gen", "bt", "--scores", "1,2,4", "-o", out)
        assert bt.load_tournament(out).tournament == bt.gen_bt([1.0, 2.0, 4.0])

    def test_gen_random_seeded(self, capsys, tmp_path):
        out1, out2 = str(tmp_path / "r1.bt"), str(tmp_path / "r2.bt")
        _, report = run(
            capsys, "gen", "random", "--n", "6", "--seed", "9", "-o", out1
        )
        assert report["seed"] == 9
        run(capsys, "gen", "random", "--n", "6", "--seed", "9", "-o", out2)
        assert (
            bt.load_tournament(out1).tournament
            == bt.load_tournament(out2).tournament
        )

    def test_gen_random_requires_seed(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", "--n", "6", "-o", str(tmp_path / "x.bt")])
        assert exc.value.code == 2


    def test_gen_random_too_few_vertices(self, capsys, tmp_path):
        code = main(["gen", "random", "--n", "1", "--seed", "0",
                     "-o", str(tmp_path / "x.bt")])
        assert code == 2
        assert "need at least 2 vertices" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, capsys, tmp_path):
        # numpy refuses the 35 PiB request before it touches any memory
        code = main(["gen", "random", "--n", "100000000", "--seed", "1",
                     "-o", str(tmp_path / "x.bt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bttest: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["repair {f} --root 5 -o {out}", "fit {f} --root 5"])
def test_vertex_errors_name_python_values(capsys, tmp_path, command):
    f = tmp_path / "five.bt"
    f.write_text(bt.serialize_tournament(bt.gen_random(5, 0)))
    code = main(command.format(f=f, out=tmp_path / "out.bt").split())
    assert code == 2
    err = capsys.readouterr().err
    assert "vertex 5 is not an integer in [0, 5)" in err and "np." not in err


class TestExtendTree:
    def test_extension_accepted(self, capsys, tmp_path):
        tree = tmp_path / "star.tree"
        tree.write_text("bt-tree v1\nn=4\n0 1 0.9\n0 2 0.5\n0 3 0.25\n")
        out = str(tmp_path / "ext.bt")
        code, _ = run(capsys, "extend-tree", str(tree), "-o", out)
        assert code == 0
        doc = bt.load_tournament(out)
        assert doc.tournament.prob(0, 1) == 0.9
        code, _ = run(capsys, "test", out, "--eps", "0.5")
        assert code == 0


class TestDistance:
    def test_cyclic(self, capsys, cyclic_file):
        code, report = run(capsys, "distance", cyclic_file)
        assert code == 0
        res = report["result"]
        assert res["lower"] <= res["upper"] <= 0.9 - 0.01 / 0.82 + 1e-9

    def test_too_large(self, capsys, tmp_path):
        path = tmp_path / "big.bt"
        path.write_text(bt.serialize_tournament(bt.gen_random(9, 0)))
        code = main(["distance", str(path)])
        assert code == 2


def test_back_to_back_calls_leak_no_options(capsys, bt_file):
    # main reuses one parser; no option given in one call reaches the next
    run(capsys, "fit", bt_file, "--root", "1")
    _, report = run(capsys, "fit", bt_file)
    assert report["config"]["method"] == "least-squares"
    run(capsys, "test", bt_file, "--eps", "0.5", "--eps-balance", "0.1")
    _, report = run(capsys, "test", bt_file, "--eps", "0.5")
    assert report["config"]["eps_balance"] is None


def test_negative_seed_exits_2(capsys, bt_file, tmp_path):
    assert main(["test", bt_file, "--eps", "0.5", "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert main(["gen", "random", "--n", "4", "--seed", "-1", "-o", str(tmp_path / "r.bt")]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_full_workflow(capsys, tmp_path):
    """gen random -> validate -> disc -> repair -> test -> fit, end to end."""
    raw = str(tmp_path / "raw.bt")
    fixed = str(tmp_path / "fixed.bt")

    code, _ = run(capsys, "gen", "random", "--n", "7", "--seed", "21", "-o", raw)
    assert code == 0
    code, _ = run(capsys, "validate", raw)
    assert code == 0

    code, disc_report = run(capsys, "disc", raw, "--per-root")
    assert code == 0
    total = disc_report["result"]["total"]
    assert total > 0

    code, rep_report = run(capsys, "repair", raw, "-o", fixed)
    assert code == 0
    assert rep_report["result"]["total_change"] <= (3 / 7) * total + 1e-9

    code, _ = run(capsys, "test", raw, "--eps", "0.3", "--seed", "1")
    assert code == 1  # raw random tournament is far from reversible
    code, _ = run(capsys, "test", fixed, "--eps", "0.3", "--seed", "1")
    assert code == 0  # repaired one always accepted

    code, fit_report = run(capsys, "fit", fixed, "--root", "0")
    assert code == 0
    assert fit_report["result"]["verification_eps"] <= 1e-5


def test_import_and_cli_leave_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    env = {**os.environ, "PYTHONPATH": path}
    # a None entry is an import blocked on purpose, not a loaded module
    probe = (
        "import sys, bttest; print([m for m, mod in sys.modules.items()"
        " if m.split('.')[0] == 'scipy' and mod is not None])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # -X importtime lists every module the process imports on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bttest.cli", "--version"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("bttest ")
    assert "bttest.repair" in proc.stderr and "scipy" not in proc.stderr
