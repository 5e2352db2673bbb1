"""The three workloads: inputs made from the seed, the fixed op list of one
round, and the check of every op's output.

Each workload is a closed loop with one client: an op starts when the
previous one has ended, and nothing runs in parallel.  A round runs every
op of the list once, so every run measures the same mix of ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np

import check

TEST_EPS = (1e-2, 1e-3)
DELTA = 1.0 / 3.0


def child_env(root) -> dict:
    """Environment for a child ``python -m bttest.cli``: the checkout's
    ``src/`` first on the path, and the library's default tolerance."""
    env = dict(os.environ)
    env.pop("BT_DEFAULT_TOL", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


#: rng_for key of each round's op order (keys 1 to 3 make the inputs).
ORDER_KEY = 4


def op_seed(seed: int, rnd: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, i]).generate_state(1)[0] >> 1)


def bt_scores(rng, n: int) -> np.ndarray:
    return np.exp(rng.normal(0.0, 1.0, n))


def from_log_odds(lo: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-lo))


def stored_log_odds(t) -> np.ndarray:
    return np.log(t.weights / (1.0 - t.weights))


def near_bt(lo: np.ndarray, rng) -> np.ndarray:
    """Weights with every log-odds scaled by exp(N(0, 0.02)): each triangle
    is slightly unbalanced."""
    return from_log_odds(lo * np.exp(rng.normal(0.0, 0.02, lo.size)))


class Op:
    """One operation of a round.

    ``run(seed, tracer)`` performs it and returns its raw output;
    ``check(out, seed)`` returns the problems found in that output.  The
    op's seed is drawn before its clock starts.
    """

    def __init__(self, command, kind, n, run, check_fn, extra=""):
        self.command, self.kind, self.n = command, kind, n
        self.run, self.check = run, check_fn
        self.label = f"{command}/{kind}/n{n}{extra}"


class Workload:
    name = ""
    why = ""
    kinds: tuple[str, ...] = ()
    #: Op count at which latency_tail_ms takes its percentile: the highest
    #: percentile with at least 10 ops beyond it at this count.
    fixed_ops = 0

    def __init__(self, root, work, seed):
        self.root, self.work, self.seed = root, work, seed
        self.bisecting_fits = 0
        self.fits = 0
        self.early_stops = 0
        self.tests = 0

    def tail_pct(self) -> float:
        return math.floor(1000.0 * (self.fixed_ops - 10) / self.fixed_ops) / 10.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def note_fit(self, result):
        self.fits += 1
        self.bisecting_fits += result["verification_eps"] is not None

    def note_test(self, used, requested):
        self.tests += 1
        self.early_stops += used < requested

    def check_cli(self, command, out, n, w, low, repaired, root=None):
        """Checks validate, disc, repair or fit run through the CLI, which
        must exit 0; ``repaired`` is the file ``repair`` wrote."""
        code, text = out
        errs = check.check_exit(command, code, check.EXIT_OK)
        if errs:
            return errs
        result = json.loads(text)["result"]
        if command == "validate":
            return check.check_validate(result, n)
        p = check.dense(n, w, low)
        if command == "disc":
            return check.check_disc(result, p)
        if command == "repair":
            with open(repaired, encoding="utf-8") as f:
                return check.check_repair(result, p, f.read(), root=root)
        self.note_fit(result)
        return check.check_fit(result, p)


# -- dense: in-process CLI on the O(n^3) path -------------------------------


class Dense(Workload):
    name = "dense"
    why = ("in-process CLI validate, disc, repair and fit at n in {48, 96}: the "
           "O(n^3) discrepancy, best-root and bisection path; parse is a small share")
    kinds = ("exact", "near", "corrupt", "random")
    sizes = (48, 96)
    fixed_ops = 96

    def setup(self):
        import bttest.tournament as tournament

        self.inputs = {}
        for n in self.sizes:
            rng = rng_for(self.seed, 1, n)
            exact = tournament.gen_bt(bt_scores(rng, n))
            lo = stored_log_odds(exact)
            near = near_bt(lo, rng)
            bent = lo.copy()
            idx = rng.choice(lo.size, 5, replace=False)
            bent[idx] += rng.choice([-1.0, 1.0], 5) * rng.uniform(0.2, 0.5, 5)
            rand = tournament.gen_random(n, int(rng.integers(2**31)))
            weights = {
                "exact": exact.weights,
                "near": near,
                "corrupt": from_log_odds(bent),
                "random": rand.weights,
            }
            for kind, w in weights.items():
                path = str(self.work / f"{kind}{n}.bt")
                low = np.ones(w.size, dtype=bool)
                check.write_tournament(path, n, w, low)
                self.inputs[(kind, n)] = (path, w, low)
        self._cli(["validate", self.inputs[("exact", 48)][0]])  # warm-up

    def _cli(self, argv):
        import bttest.cli as cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def ops(self):
        out_path = str(self.work / "repaired.bt")
        ops = []
        for n in self.sizes:
            for kind in self.kinds:
                path, w, low = self.inputs[(kind, n)]
                for command, argv in (
                    ("validate", ["validate", path]),
                    ("disc", ["disc", path, "--per-root"]),
                    ("repair", ["repair", path, "-o", out_path]),
                    ("fit", ["fit", path]),
                ):
                    def chk(out, s, command=command, n=n, w=w, low=low):
                        return self.check_cli(command, out, n, w, low, out_path)

                    ops.append(Op(command, kind, n,
                                  lambda s, tracer, argv=argv: self._cli(argv), chk))
        return ops

    def working_set(self):
        return {f"n{n}": _dense_bytes(n, self.inputs[("near", n)][0]) for n in self.sizes}


def _dense_bytes(n, path=None):
    pairs = n * (n - 1) // 2
    out = {"weights_bytes": 9 * pairs, "prob_matrix_bytes": 8 * n * n}
    if path is not None:
        out["file_bytes"] = os.path.getsize(path)
    return out


# -- query: in-process tester, constant queries -----------------------------


class Query(Workload):
    name = "query"
    why = ("in-process test_bt and estimate_unbalanced_fraction on in-memory "
           "tournaments at n in {100, 1000, 3000}: the constant-query path, no parse")
    kinds = ("exact", "cyclic", "perturbed", "noisy")
    sizes = (100, 1000, 3000)
    #: The noisy kind moves each log-odds by at most 0.01, so every triangle
    #: is within 0.03 of balance and passes the predicate at this eps.
    noisy_eps_balance = 0.05
    #: A 20 s run makes 3000-4500 ops, but its p99.7 and p99 land among the
    #: ops hit by scheduling spikes on a shared 2-core host and moved by a
    #: third between runs; p95, the rule's percentile at 200 ops, lies in
    #: the cluster of the slowest op types (n=3000, 1099 samples).
    fixed_ops = 200

    def setup(self):
        import bttest
        import bttest.tournament as tournament

        self.inputs = None  # free the previous set before building the next
        inputs = {}
        for n in self.sizes:
            rng = rng_for(self.seed, 2, n)
            exact = tournament.gen_bt(bt_scores(rng, n))
            inputs[("exact", n)] = exact
            inputs[("cyclic", n)] = tournament.gen_cyclic(n, 0.9)
            inputs[("perturbed", n)] = tournament.gen_perturbed(
                exact, 0.01, int(rng.integers(2**31)))
            noise = rng.uniform(-0.01, 0.01, exact.weights.size)
            inputs[("noisy", n)] = bttest.StochasticTournament(
                n, from_log_odds(stored_log_odds(exact) + noise), exact.low_wins)
        self.inputs = inputs
        import bttest.tester as tester

        tester.test_bt(inputs[("exact", 100)], tester.TesterConfig(eps=1e-2))  # warm-up

    def ops(self):
        import bttest.tester as tester

        ops = []
        for n in self.sizes:
            for kind in self.kinds:
                t = self.inputs[(kind, n)]
                eb = self.noisy_eps_balance if kind == "noisy" else None
                for eps in TEST_EPS:
                    def run(s, tracer, t=t, eps=eps, eb=eb):
                        cfg = tester.TesterConfig(eps=eps, seed=s, eps_balance=eb)
                        return tester.test_bt(t, cfg)

                    ops.append(Op("test_bt", kind, n, run,
                                  self._test_checker(t, eps, eb, kind), f"/eps{eps:g}"))
                for eps in TEST_EPS:
                    samples = check.sample_size(eps, DELTA)

                    def run(s, tracer, t=t, samples=samples):
                        return tester.estimate_unbalanced_fraction(t, samples, s)

                    def chk(out, s, t=t, samples=samples):
                        return check.check_estimate(out, t.n, t.weights, t.low_wins, samples, s)

                    ops.append(Op("estimate", kind, n, run, chk, f"/samples{samples}"))
        return ops

    def _test_checker(self, t, eps, eb, kind):
        requested = check.sample_size(eps, DELTA)

        def chk(v, s):
            self.note_test(v.samples_used, requested)
            verdict = {
                "outcome": v.outcome,
                "samples_used": v.samples_used,
                "witness": list(v.witness.vertices()) if v.witness else None,
            }
            return check.check_test(verdict, t.n, t.weights, t.low_wins, eps, DELTA, s,
                                    eps_balance=eb,
                                    balanced_input=kind in ("exact", "noisy"))

        return chk

    def working_set(self):
        return {f"n{n}": {"weights_bytes_per_tournament": 9 * (n * (n - 1) // 2),
                          "tournaments": len(self.kinds)} for n in self.sizes}


# -- files: the real command, one fresh process per op ----------------------


class Files(Workload):
    name = "files"
    why = ("python -m bttest.cli in a fresh process per op (gen, validate, test, "
           "repair --root 0, fit) at n in {100, 400}: start-up, parse and serialize")
    kinds = ("exact", "near")
    sizes = (100, 400)
    fixed_ops = 18
    timeout_s = 150

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.env = child_env(root)
        self.launcher = str(root / "bench" / "launch.py")
        self.spans_path = str(work / "child_spans.json")

    def setup(self):
        import bttest.tournament as tournament

        self.inputs = {}
        for n in self.sizes:
            rng = rng_for(self.seed, 3, n)
            exact = tournament.gen_bt(bt_scores(rng, n))
            lo = stored_log_odds(exact)
            near = near_bt(lo, rng)
            for kind, w in (("exact", exact.weights), ("near", near)):
                path = str(self.work / f"{kind}{n}.bt")
                low = np.ones(w.size, dtype=bool)
                check.write_tournament(path, n, w, low)
                self.inputs[(kind, n)] = (path, w, low)
        self.child(["--version"], None)  # warm-up: byte-compiles the package once

    def child(self, argv, tracer):
        """Run one CLI command in a fresh process; returns (exit code, stdout)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "bttest.cli", *argv]
        else:
            cmd = [sys.executable, self.launcher, self.spans_path, *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=self.timeout_s, cwd=str(self.root))
        if tracer is not None:
            with open(self.spans_path, encoding="utf-8") as f:
                tracer.adopt(json.load(f), tracer.current())
        return proc.returncode, proc.stdout

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def ops(self):
        import bttest.tournament as tournament

        ops = []
        rep_out = str(self.work / "repaired.bt")
        for n in self.sizes:
            gen_out = str(self.work / f"gen{n}.bt")

            def chk_gen(out, s, n=n, gen_out=gen_out):
                code, text = out
                errs = check.check_exit("gen", code, check.EXIT_OK)
                if not errs:
                    with open(gen_out, encoding="utf-8") as f:
                        errs = check.check_gen(f.read(), n, tournament.gen_random(n, s))
                return errs

            ops.append(Op("gen", "random", n,
                          lambda s, tracer, n=n, o=gen_out: self.child(
                              ["gen", "random", "--n", str(n), "--seed", str(s), "-o", o], tracer),
                          chk_gen))
            for kind in self.kinds:
                path = self.inputs[(kind, n)][0]
                for command, argv in (
                    ("validate", lambda s, path=path: ["validate", path]),
                    ("test", lambda s, path=path: ["test", path, "--eps", "1e-3", "--seed", str(s)]),
                    ("repair", lambda s, path=path: ["repair", path, "--root", "0", "-o", rep_out]),
                    ("fit", lambda s, path=path: ["fit", path]),
                ):
                    def run(s, tracer, argv=argv):
                        return self.child(argv(s), tracer)

                    ops.append(Op(command, kind, n, run,
                                  self._checker(command, kind, n, rep_out)))
        return ops

    def _checker(self, command, kind, n, rep_out):
        path, w, low = self.inputs[(kind, n)]

        def chk(out, s):
            if command != "test":
                return self.check_cli(command, out, n, w, low, rep_out, root=0)
            code, text = out
            result = json.loads(text)["result"]
            requested = check.sample_size(1e-3, DELTA)
            self.note_test(result["samples_used"], requested)
            errs = check.check_test(result, n, w, low, 1e-3, DELTA, s,
                                    balanced_input=kind == "exact")
            expected = check.EXIT_OK if result["outcome"] == "accept" else check.EXIT_REJECT
            return errs + check.check_exit(command, code, expected)

        return chk

    def working_set(self):
        return {f"n{n}": _dense_bytes(n, self.inputs[("near", n)][0]) for n in self.sizes}


WORKLOADS = {w.name: w for w in (Dense, Query, Files)}
