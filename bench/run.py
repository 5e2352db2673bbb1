"""End-to-end and per-layer benchmark of bttest.

    python3 bench/run.py --workload {dense,query,files} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (input generation from the seed, file writes, warm-up)
runs several times and reports the median.  The timed phase then runs
whole rounds of the workload's op list until the ops have taken ``--seconds``
in total, checking every op's output.  With ``--trace 1`` a second, traced
phase follows and per-layer metrics are reported instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (machine, workload mix, input shares, accounting).
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs at least SETUP_MIN_REPS times and until it has taken
#: SETUP_MIN_S in total (at most SETUP_MAX_REPS), so cheap set-ups get a
#: median of many repeats.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 25, 2.0
STARTUP_PROBES = 3
#: Op id of the traced set-up's spans; timed ops have ids from 0.
SETUP_OP = -2

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units.  Times and counts are per round of
#: the workload's op list unless the name says otherwise (a rate per pair,
#: triangle or sample, a ratio, or tournament.gen_s, which is per set-up).
LAYER_UNITS = {
    "cli.startup_ms": "ms", "cli.import_ms": "ms",
    "cli.validate_ms": "ms", "cli.disc_ms": "ms", "cli.repair_ms": "ms",
    "cli.fit_ms": "ms", "cli.test_ms": "ms", "cli.gen_ms": "ms",
    "fileio.parse_s": "s", "fileio.parse_ns_per_pair": "ns",
    "fileio.serialize_s": "s", "fileio.serialize_ns_per_pair": "ns",
    "fileio.report_s": "s", "fileio.report_bytes": "bytes",
    "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
    "tournament.new_tournament_s": "s", "tournament.prob_matrix_s": "s",
    "tournament.prob_matrix_calls": "count", "tournament.gen_s": "s",
    "balance.total_discrepancy_s": "s", "balance.triangles": "count",
    "balance.ns_per_triangle": "ns",
    "tester.test_bt_s": "s", "tester.samples": "count", "tester.queries": "count",
    "tester.samples_used_ratio": "ratio", "tester.us_per_sample.n100": "us",
    "tester.us_per_sample.n1000": "us", "tester.us_per_sample.n3000": "us",
    "tester.flatness": "ratio", "tester.estimate_s": "s",
    "repair.best_root_s": "s", "repair.repair_with_root_s": "s",
    "repair.edits": "count", "repair.edit_ratio": "ratio", "repair.clamped": "count",
    "repair.fit_s": "s", "repair.min_verification_eps_s": "s",
    "repair.verify_calls": "count", "repair.verify_calls_per_fit": "ratio",
    "trace.overhead_frac": "ratio",
}


def import_library():
    """Import bttest from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "bttest" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bttest package under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("BT_DEFAULT_TOL", None)
    import bttest

    if Path(bttest.__file__).resolve().parent != (src / "bttest").resolve():
        raise SystemExit(f"bench: imported bttest from {bttest.__file__}, not {src}")


# -- phases ----------------------------------------------------------------


def run_phase(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds of the op list until the ops have taken ``seconds``.

    Each round runs the ops in its own seeded order, so that the ops of one
    type are spread over the run instead of sharing a few seconds of it:
    the host's speed changes every few seconds.
    """
    from workloads import ORDER_KEY, op_seed, rng_for

    ops = wl.ops()
    lat: list[tuple[int, float]] = []  # (op index in the op list, seconds)
    failures = []
    attempted = failed = 0
    busy = 0.0
    rnd = 0
    while busy < seconds or rnd == 0:
        for i in rng_for(wl.seed, ORDER_KEY, rnd).permutation(len(ops)):
            i, op = int(i), ops[i]
            s = op_seed(wl.seed, rnd, i)
            span = None
            if tracer is not None:
                tracer.op = rnd * len(ops) + i
                span = tracer.open("op." + op.command)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run(s, tracer)
            except Exception:  # an op that raises is a failed op
                out, errs = None, [traceback.format_exc(limit=3)]
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.close(span, {"label": op.label})
            if out is not None:
                try:
                    errs = op.check(out, s)
                except Exception:  # output the checker cannot read
                    errs = [f"{op.label}: unreadable output\n{traceback.format_exc(limit=3)}"]
            busy += dt
            lat.append((i, dt))
            if errs:
                failed += 1
                failures.append({"op": op.label, "round": rnd, "errors": errs[:3]})
        rnd += 1
    return {"ops": ops, "lat": lat, "rounds": rnd, "busy": busy,
            "attempted": attempted, "failed": failed, "failures": failures}


def end_to_end(phase: dict, setup_times: list, wl) -> dict:
    lat_ms = np.array([dt for _, dt in phase["lat"]]) * 1e3
    return {
        "setup_s": statistics.median(setup_times),
        # one round with each op at its upper-quartile latency of the run: a
        # mean or a median over the run follows the share of the run that the
        # host spent in its fast speed mode; the upper quartile stays in the
        # slow mode unless nearly all of the run was fast
        "ops_per_s": len(phase["ops"]) / sum(op_upper_quartiles(phase)),
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": float(np.percentile(lat_ms, wl.tail_pct())),
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def op_upper_quartiles(phase: dict) -> list:
    """The upper quartile of each op's latencies in seconds, one per op of the list."""
    by: dict[int, list] = {}
    for i, dt in phase["lat"]:
        by.setdefault(i, []).append(dt)
    return [float(np.percentile(v, 75)) for v in by.values()]


def medians_ms(phase: dict, key: str) -> dict:
    """Median latency of the phase's ops grouped by ``Op.command`` or ``Op.label``."""
    by: dict[str, list] = {}
    for i, dt in phase["lat"]:
        by.setdefault(getattr(phase["ops"][i], key), []).append(dt * 1e3)
    return {k: statistics.median(v) for k, v in by.items()}


# -- start-up probes -------------------------------------------------------


def startup_probes() -> tuple[float, float]:
    """Median wall time of ``--version`` and cumulative ``import bttest`` time."""
    from workloads import child_env

    env = child_env(ROOT)
    walls, imports = [], []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "bttest.cli", "--version"], env=env,
                       capture_output=True, check=True, cwd=str(ROOT))
        walls.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bttest"],
                              env=env, capture_output=True, text=True, check=True,
                              cwd=str(ROOT))
        line = next(ln for ln in proc.stderr.splitlines() if ln.rstrip().endswith("| bttest"))
        imports.append(int(line.split("|")[1]) / 1e3)
    return statistics.median(walls), statistics.median(imports)


# -- per-layer metrics -----------------------------------------------------


def per_layer(traced: dict, untraced: dict, spans: list, startup) -> tuple[dict, dict]:
    from tracing import ATTRS, END, NAME, OP, START, layer_of, self_times

    st = self_times(spans)
    rounds = traced["rounds"]
    timed = [k for k, s in enumerate(spans) if s[OP] >= 0]
    setup = [k for k, s in enumerate(spans) if s[OP] == SETUP_OP]

    def pick(name, among=timed):
        return [k for k in among if spans[k][NAME] == name]

    def dur(ks):
        return sum(spans[k][END] - spans[k][START] for k in ks)

    def attr(ks, key):
        return sum((spans[k][ATTRS] or {}).get(key, 0) for k in ks)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    parse, ser, rep = pick("fileio.parse"), pick("fileio.serialize"), pick("fileio.report")
    disc, tests = pick("balance.total_discrepancy"), pick("tester.test_bt")
    fixes, mve = pick("repair.repair_with_root"), pick("repair.min_verification_eps")
    verifies = pick("repair.verify_approx_bt")
    by_n = {}
    for n in (100, 1000, 3000):
        ks = [k for k in tests if spans[k][ATTRS]["n"] == n]
        by_n[n] = ratio(dur(ks), attr(ks, "samples_used"), 1e6)
    cmd_ms = medians_ms(untraced, "command")
    m = {
        "cli.startup_ms": startup[0],
        "cli.import_ms": startup[1],
        **{f"cli.{c}_ms": cmd_ms.get(c, 0.0)
           for c in ("validate", "disc", "repair", "fit", "test", "gen")},
        "fileio.parse_s": sum(st[k] for k in parse) / rounds,
        "fileio.parse_ns_per_pair": ratio(sum(st[k] for k in parse), attr(parse, "pairs"), 1e9),
        "fileio.serialize_s": dur(ser) / rounds,
        "fileio.serialize_ns_per_pair": ratio(dur(ser), attr(ser, "pairs"), 1e9),
        "fileio.report_s": dur(rep) / rounds,
        "fileio.report_bytes": attr(rep, "bytes") / rounds,
        "fileio.bytes_read": attr(pick("fileio.load"), "bytes") / rounds,
        "fileio.bytes_written": attr(ser, "bytes") / rounds,
        "tournament.new_tournament_s": dur(pick("tournament.new_tournament")) / rounds,
        "tournament.prob_matrix_s": dur(pick("tournament.prob_matrix")) / rounds,
        "tournament.prob_matrix_calls": len(pick("tournament.prob_matrix")) / rounds,
        "tournament.gen_s": dur(pick("tournament.gen", setup)),
        "balance.total_discrepancy_s": dur(disc) / rounds,
        "balance.triangles": attr(disc, "triangles") / rounds,
        "balance.ns_per_triangle": ratio(dur(disc), attr(disc, "triangles"), 1e9),
        "tester.test_bt_s": dur(tests) / rounds,
        "tester.samples": attr(tests, "samples_used") / rounds,
        "tester.queries": 3 * attr(tests, "samples_used") / rounds,
        "tester.samples_used_ratio": ratio(attr(tests, "samples_used"),
                                           attr(tests, "samples_requested")),
        "tester.us_per_sample.n100": by_n[100],
        "tester.us_per_sample.n1000": by_n[1000],
        "tester.us_per_sample.n3000": by_n[3000],
        "tester.flatness": ratio(by_n[3000], by_n[100]),
        "tester.estimate_s": dur(pick("tester.estimate")) / rounds,
        "repair.best_root_s": sum(st[k] for k in pick("repair.best_root")) / rounds,
        "repair.repair_with_root_s": dur(fixes) / rounds,
        "repair.edits": attr(fixes, "edits") / rounds,
        "repair.edit_ratio": ratio(attr(fixes, "edits"), attr(fixes, "opposite_pairs")),
        "repair.clamped": attr(fixes, "clamped") / rounds,
        "repair.fit_s": dur(pick("repair.fit")) / rounds,
        "repair.min_verification_eps_s": dur(mve) / rounds,
        "repair.verify_calls": len(verifies) / rounds,
        "repair.verify_calls_per_fit": ratio(len(verifies), len(mve)),
        "trace.overhead_frac": (traced["busy"] / rounds) / (untraced["busy"] / untraced["rounds"]) - 1.0,
    }

    # accounting: layer self times per round, and for the ops of the type
    # whose untraced median is nearest latency_p50_ms, against that median
    def by_layer(ks, scale):
        out: dict[str, float] = {}
        for k in ks:
            layer = layer_of(spans[k][NAME])
            out[layer] = out.get(layer, 0.0) + st[k] * scale
        return dict(sorted(out.items()))

    p50 = float(np.median([dt for _, dt in untraced["lat"]]))
    labels = medians_ms(untraced, "label")
    median_label = min(labels, key=lambda k: abs(labels[k] - p50 * 1e3))
    op_ids = {spans[k][OP] for k in timed if spans[k][NAME].startswith("op.")
              and spans[k][ATTRS]["label"] == median_label}
    median_layers = by_layer([k for k in timed if spans[k][OP] in op_ids], 1e3 / len(op_ids))
    accounting = {
        "self_s_per_round_by_layer": by_layer(timed, 1.0 / rounds),
        "traced_op_s_per_round": traced["busy"] / rounds,
        "untraced_op_s_per_round": untraced["busy"] / untraced["rounds"],
        "median_op": {
            "label": median_label,
            "untraced_latency_p50_ms": p50 * 1e3,
            "untraced_label_median_ms": labels[median_label],
            "traced_self_ms_by_layer": median_layers,
            "traced_self_ms_sum": sum(median_layers.values()),
        },
    }
    return m, accounting


# -- metadata --------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def machine() -> dict:
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/size")
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head and head.startswith("ref: "):
        head = _read(str(ROOT / ".git" / head[5:]))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_of_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": head or "unknown (checkout is not a git repository)",
        "l3_note": ("no workload's working set reaches 4x the L3: that needs about "
                    "420 MB of weights, n > 10,000, whose gen_bt alone outlasts a run"),
    }


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, work, args.seed)

    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    untraced = run_phase(wl, args.seconds)
    e2e = end_to_end(untraced, setup_times, wl)
    phases = [untraced]
    n_ops = len(untraced["ops"])
    details = {
        "workload": wl.name,
        "why": wl.why,
        "loop": "closed, 1 client, ops run one at a time",
        "seed": args.seed,
        "rounds": untraced["rounds"],
        "round_s": [round(sum(dt for _, dt in untraced["lat"][r * n_ops:(r + 1) * n_ops]), 4)
                    for r in range(untraced["rounds"])],
        "ops": len(untraced["lat"]),
        "ops_per_round": len(untraced["ops"]),
        "kind_share": {k: round(sum(o.kind == k for o in untraced["ops"]) / len(untraced["ops"]), 4)
                       for k in sorted({o.kind for o in untraced["ops"]})},
        "tail": {"percentile": wl.tail_pct(), "fixed_op_count": wl.fixed_ops,
                 "ops_measured": len(untraced["lat"])},
        "input_shares": {
            "fits_that_bisect": f"{wl.bisecting_fits}/{wl.fits}",
            "test_bt_calls_stopping_early": f"{wl.early_stops}/{wl.tests}",
        },
        "op_median_ms": {k: round(v, 3) for k, v in medians_ms(untraced, "label").items()},
        "working_set_computed": wl.working_set(),
        "machine": machine(),
    }
    if args.trace:
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            tracer.op = SETUP_OP
            span = tracer.open("op.setup")
            wl.setup()
            tracer.close(span)
            traced = run_phase(wl, args.seconds, tracer)
        finally:
            tracing.uninstall(saved)
        phases.append(traced)
        tracer.dump(str(work / f"spans_seed{args.seed}.json"))
        metrics, details["accounting"] = per_layer(traced, untraced, tracer.spans,
                                                   startup_probes())
        units = LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    details["error_rate"] = failed / attempted
    details["end_to_end"] = e2e
    details["failures"] = [f for p in phases for f in p["failures"]][:5]
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
