"""Benchmark for carnotcert: certificate latency, throughput, set-up time and
memory on four workloads, and a separate traced run timing each module.

From the root of a checkout:

    python3 perfbench/run.py --workload box-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload deep-path --seed 1 --seconds 10 --trace 1

It prints a readable report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Exit code 1 means a wrong
output, 2 that the program or a worker could not be run.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cli_oneshot  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# name -> (op, rate, least ops per run).  A run does a fixed amount of work,
# round(seconds * rate) ops, so that counters and memory growth repeat
# exactly for a seed and the traced and untraced runs do the same work.  The
# rates are about the baseline's ops per second, so the timed part takes
# about --seconds; lattice-systole's is higher, because its few ops vary in
# cost with t and a run needs ten of them for a steady median.
WORKLOADS = {
    "box-stream": ("one engel box sample certified with certified_dcc_upper", 55.0, 20),
    "deep-path": ("one free_nilpotent(2,4) certified path to a rational target", 1.3, 4),
    "lattice-systole": ("one systole report, integer Engel lattice dilated by t, radius 4", 1.0, 3),
    "cli-oneshot": ("one CLI command in a fresh process", 8.0, 18),
}
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
EXIT_WRONG = 1
EXIT_BROKEN = 2

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "run_s": "s",
    "peak_rss_mb": "MB", "mem_growth_mb": "MB",
}

# Per-layer metrics: (name, unit, source, key).  Sources: a span summary
# entry ("calls", "self_s", or "total_s" = inclusive time), a counter, or a
# value derived below.
PER_LAYER = [
    ("scalars.mul.calls", "count", "scalars.mul", "calls"),
    ("scalars.mul.self_s", "s", "scalars.mul", "self_s"),
    ("scalars.sign_of.calls", "count", "scalars.sign_of", "calls"),
    ("scalars.signed_root.self_s", "s", "scalars.signed_root", "self_s"),
    ("scalars.radicals", "count", "counter", None),
    ("scalars.tower_depth_max", "count", "counter", None),
    ("scalars.terms_per_coord_max", "count", "counter", None),
    ("graded_algebra.bracket.calls", "count", "graded_algebra.bracket", "calls"),
    ("graded_algebra.bracket.self_s", "s", "graded_algebra.bracket", "self_s"),
    ("bch_engine.bch_product.calls", "count", "bch_engine.bch_product", "calls"),
    ("bch_engine.bch_product.self_s", "s", "bch_engine.bch_product", "self_s"),
    ("bch_engine.table_builds", "count", "counter", None),
    ("bch_engine.table_build_s", "s", "bch_engine.table", "total_s"),
    ("words.series_mul.calls", "count", "words.series_mul", "calls"),
    ("words.series_mul.self_s", "s", "words.series_mul", "self_s"),
    ("ratlinalg.self_s", "s", "ratlinalg", "self_s"),
    ("popp_metric.build_s", "s", "popp_metric.build", "total_s"),
    ("popp_metric.quadform.calls", "count", "popp_metric.quadform", "calls"),
    ("popp_metric.quadform.self_s", "s", "popp_metric.quadform", "self_s"),
    ("popp_metric.minimal_preimage.self_s", "s", "popp_metric.minimal_preimage", "self_s"),
    ("adjustment.adjust_tuple.self_s", "s", "adjustment.adjust_tuple", "self_s"),
    ("adjustment.verify.self_s", "s", "adjustment.verify", "self_s"),
    ("adjustment.commutator_product.self_s", "s", "adjustment.commutator_product", "self_s"),
    ("adjustment.cache_entries", "count", "counter", None),
    ("adjustment.cache_hits", "count", "derived", None),
    ("adjustment.cache_hit_ratio", "ratio", "derived", None),
    ("certificates.global_constants_s", "s", "certificates.global_constants", "total_s"),
    ("path_synth.fold.self_s", "s", "path_synth.fold", "self_s"),
    ("path_synth.fold.total_s", "s", "path_synth.fold", "total_s"),
    ("path_synth.verify.self_s", "s", "path_synth.verify", "self_s"),
    ("path_synth.segments", "count", "counter", None),
    ("lattice_systole.enumerate.self_s", "s", "lattice_systole.enumerate", "self_s"),
    ("lattice_systole.elements", "count", "counter", None),
    ("lattice_systole.certified", "count", "counter", None),
    ("cli_reports.import_s", "s", "derived", None),
    ("cli_reports.report.self_s", "s", "cli_reports.report", "self_s"),
    ("cli_reports.sample.self_s", "s", "cli_reports.sample", "self_s"),
]
# Times that stay 0 on some workload (the layer is not on its path) are
# printed in the report but left out of the JSON line, which holds the
# same metrics on every workload.
REPORT_ONLY = {
    "certificates.global_constants_s", "lattice_systole.enumerate.self_s",
    "cli_reports.import_s", "cli_reports.report.self_s", "cli_reports.sample.self_s",
}


class Broken(Exception):
    """The program or a worker could not be run."""


class Wrong(Exception):
    """An output of the program is wrong."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, ops: int, *extra: str) -> tuple[float, dict | None]:
    """Start a fresh worker; returns (set-up seconds, run record or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload,
            "--seed", str(seed), "--ops", str(ops), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise Broken(f"{workload} worker timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode == worker.EXIT_WRONG:
        raise Wrong(f"{workload} worker found a wrong output")
    if proc.returncode != 0:
        raise Broken(f"{workload} worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    setup_s = json.loads(lines[0])["ready"] - spawned
    return setup_s, (json.loads(lines[1]) if len(lines) > 1 else None)


def run_cli(seed: int, passes: int, traced: bool = False, rss: dict | None = None) -> dict:
    """Run the command list `passes` times, checking every report; returns a
    run record like a worker's.  Peak RSS per command goes into `rss`.
    Traced, each command's counters must be the same in every pass."""
    env = child_env()
    outputs: dict = {}
    per_command: dict = {}
    ops, probes, failures, spans, rows, counters, imports = [], [], {}, {}, [], {}, []
    rss = {} if rss is None else rss
    for _ in range(passes):
        for argv in cli_oneshot.commands(seed):
            key = " ".join(argv)
            speed.probe(probes)
            start = time.perf_counter()
            code, out, err, wall, peak_kb = cli_oneshot.run_command(
                argv, env, ROOT, cli_oneshot.TRACED if traced else cli_oneshot.CLI)
            ops.append((start, start + wall))
            if code != 0:
                failures.setdefault(cli_oneshot.failure_type(code, err), []).append(
                    len(ops) - 1)
                continue
            rss.setdefault(key, []).append(peak_kb)
            problem = cli_oneshot.check_report(argv, out)
            if problem:
                raise Wrong(f"carnotcert {key}: {problem}")
            if outputs.setdefault(key, out) != out:
                raise Wrong(f"carnotcert {key}: report bytes differ between runs")
            if traced:
                trace = json.loads(err.rsplit(cli_oneshot.TRACE_MARK, 1)[1])
                imports.append(trace["import_s"])
                tracing.merge(spans, trace["spans"])
                offset, op = len(rows), len(ops) - 1
                rows.extend((n, s, e, p + offset if p >= 0 else -1, op)
                            for n, s, e, p, _ in trace["rows"])
                if per_command.setdefault(key, trace["counters"]) != trace["counters"]:
                    raise Wrong(f"carnotcert {key}: counters differ between runs with "
                                f"seed {seed}: {per_command[key]} vs {trace['counters']}")
                for name, value in trace["counters"].items():
                    counters[name] = (max(counters.get(name, 0), value)
                                      if name.endswith("_max")
                                      else counters.get(name, 0) + value)
    speed.probe(probes)
    return {"ops_s": ops, "probes_s": probes, "failures": failures,
            "outputs": outputs, "spans": spans, "rows": rows, "counters": counters,
            "import_s": statistics.median(imports) if imports else 0.0}


def probe_known_failures() -> list[str]:
    """Run the commands that fail today once each, outside the timing."""
    lines = []
    for argv in cli_oneshot.PROBES:
        code, out, err, _, _ = cli_oneshot.run_command(argv, child_env(), ROOT)
        if code == 0:
            problem = cli_oneshot.check_report(argv, out)
            if problem:
                raise Wrong(f"carnotcert {' '.join(argv)}: {problem}")
            outcome = "ok"
        else:
            outcome = f"failed: {cli_oneshot.failure_type(code, err)} (exit {code})"
        lines.append(f"probe  carnotcert {' '.join(argv)}  {outcome}")
    return lines


def ops_for(workload: str, seconds: float) -> int:
    _, rate, least = WORKLOADS[workload]
    if workload == "cli-oneshot":
        per_pass = len(cli_oneshot.commands(0))
        return per_pass * max(least // per_pass, round(seconds * rate / per_pass))
    return max(least, round(seconds * rate))


def timing(record: dict) -> dict:
    """Latency and throughput at reference speed, and raw."""
    failed = {i for indices in record["failures"].values() for i in indices}
    raw = [e - s for s, e in record["ops_s"]]
    scaled = speed.at_reference_speed(record["ops_s"], sorted(record["probes_s"]))
    ok = [i for i in range(len(raw)) if i not in failed]
    if not ok:
        raise Broken(f"no op succeeded: {record['failures']}")
    return {
        "latencies": [scaled[i] for i in ok],
        "run_s": sum(scaled),
        "ops_per_s": len(ok) / sum(scaled),
        "raw_p50_ms": 1000 * statistics.median(raw[i] for i in ok),
        "raw_run_s": sum(raw),
        "probe_ms": 1000 * statistics.median(e - s for s, e in record["probes_s"]),
        "attempted": len(raw),
        "failed": len(failed),
    }


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten ops beyond it (from p50 up)."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def set_up_once(workload: str, seed: int, rss: dict, bare: list) -> float:
    """Seconds from a fresh interpreter to ready, once.  On cli-oneshot also
    records the peak RSS of the set-up command and of a bare interpreter."""
    if workload != "cli-oneshot":
        return run_worker(workload, seed, 0)[0]
    env = child_env()
    code, _, err, wall, peak_kb = cli_oneshot.run_command(cli_oneshot.SETUP_COMMAND, env, ROOT)
    if code != 0:
        raise Broken(f"set-up command failed: {err.strip()}")
    rss.setdefault(" ".join(cli_oneshot.SETUP_COMMAND), []).append(peak_kb)
    bare.append(cli_oneshot.run_command([], env, ROOT, cli_oneshot.BARE)[4])
    return wall


def timed(workload: str, seed: int, seconds: int) -> tuple[dict, list[str], dict]:
    ops = ops_for(workload, seconds)
    setup, setup_probes, rss, bare = [], [], {}, []
    for _ in range(SETUP_RUNS):
        speed.probe(setup_probes)
        start = time.perf_counter()
        setup.append((start, start + set_up_once(workload, seed, rss, bare)))
    speed.probe(setup_probes)
    setup_scaled = speed.at_reference_speed(setup, setup_probes)
    probe_lines = []
    if workload == "cli-oneshot":
        record = run_cli(seed, ops // len(cli_oneshot.commands(seed)), rss=rss)
        # Per-process peaks jitter by about 0.1 MB, so each command's peak is
        # the median over its runs.  Commands grow a fresh interpreter by a
        # few tenths of a MB over the set-up command, which is within that
        # jitter, so growth is counted from a bare interpreter.
        peak = max(statistics.median(v) for v in rss.values())
        record["peak_rss_kb"] = peak
        record["mem_growth_kb"] = peak - statistics.median(bare)
        probe_lines = probe_known_failures()
    else:
        _, record = run_worker(workload, seed, ops)
    t = timing(record)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "op_p50_ms": 1000 * statistics.median(t["latencies"]),
        "ops_per_s": t["ops_per_s"],
        "run_s": t["run_s"],
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "mem_growth_mb": record["mem_growth_kb"] / 1024,
    }
    edge = tail(t["latencies"])
    by_type = {k: len(v) for k, v in record["failures"].items()}
    notes = [
        f"raw wall: op_p50_ms {t['raw_p50_ms']:.4f}  run_s {t['raw_run_s']:.4f}  "
        f"(probe median {t['probe_ms']:.4f} ms, reference {1000 * speed.REFERENCE_S} ms)",
        f"setup_s raw samples: {' '.join(f'{e - s:.4f}' for s, e in setup)}",
        (f"op_tail_ms {1000 * edge[1]:.4f} ms  (p{edge[0]} of {len(t['latencies'])} ops)"
         if edge else f"op_tail_ms not reported: {len(t['latencies'])} ops, fewer than 20"),
        f"fail_share {t['failed'] / t['attempted']:.6g} ratio  ({t['failed']} of {t['attempted']} ops)"
        + (f"  by type: {by_type}" if by_type else ""),
    ] + probe_lines
    if record["counters"]:
        notes.append("counters " + " ".join(
            f"{k}={v}" for k, v in sorted(record["counters"].items())))
    return metrics, notes, {"attempted": t["attempted"], "failed": t["failed"]}


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, list[str], dict]:
    # Half a timed run's work, since it runs twice: untraced, then traced.
    ops = ops_for(workload, seconds / 2)
    spans_path = HERE / "out" / f"spans-{workload}-seed{seed}.csv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    if workload == "cli-oneshot":
        passes = ops // len(cli_oneshot.commands(seed))
        plain = run_cli(seed, passes)
        record = run_cli(seed, passes, traced=True)
        if record["outputs"] != plain["outputs"]:
            raise Wrong("traced CLI reports differ from untraced ones")
        tracing.write_rows(spans_path, record["rows"])
    else:
        _, plain = run_worker(workload, seed, ops)
        _, record = run_worker(workload, seed, ops, "--trace", "--spans", str(spans_path))
        shared = set(plain["counters"]) & set(record["counters"])
        differ = sorted(k for k in shared if plain["counters"][k] != record["counters"][k])
        if differ:
            raise Wrong(f"counters differ between two runs with seed {seed}: " + ", ".join(
                f"{k} {plain['counters'][k]} vs {record['counters'][k]}" for k in differ))
    spans, counters = record["spans"], record["counters"]
    layer = spans.get("adjustment.adjust_layer", {})
    # A cache hit returns before any traced call; a miss always reaches
    # popp_metric (layer norm or minimal preimage).
    hits = layer.get("childless", 0)
    derived = {
        "adjustment.cache_hits": hits,
        "adjustment.cache_hit_ratio": hits / layer["calls"] if layer.get("calls") else 0.0,
        "cli_reports.import_s": record.get("import_s", 0.0),
    }
    values = {}
    for name, unit, source, key in PER_LAYER:
        if source == "counter":
            value = counters.get(name, 0)
        elif source == "derived":
            value = derived[name]
        else:
            value = spans.get(source, {}).get(key, 0)
        values[name] = (value, unit)
    t_plain, t_traced = timing(plain), timing(record)
    # Self times partition the root spans: over the op spans they sum to
    # the traced wall time of the ops.
    self_sum = sum(e["self_s"] for e in spans.values()) - spans.get(
        tracing.SETUP_SPAN, {}).get("total_s", 0.0)
    notes = [f"{name:40s} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    notes += [
        f"tracing overhead {t_traced['run_s'] - t_plain['run_s']:.4f} s at reference speed "
        f"(traced run_s {t_traced['run_s']:.4f} s - untraced {t_plain['run_s']:.4f} s; "
        f"raw {t_traced['raw_run_s']:.4f} s - {t_plain['raw_run_s']:.4f} s)",
        f"self times of the op spans sum to {self_sum:.4f} s, "
        f"{100 * self_sum / t_traced['raw_run_s']:.2f}% of the traced raw run_s",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    metrics = {n: v for n, (v, _) in values.items() if n not in REPORT_ONLY}
    return metrics, notes, {"attempted": t_traced["attempted"], "failed": t_traced["failed"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src" / "carnotcert"
    if not (src / "__init__.py").is_file():
        print(f"carnotcert sources not found under {src}", file=sys.stderr)
        return EXIT_BROKEN
    for package in (src, HERE):
        compileall.compile_dir(str(package), quiet=1)

    op, _, _ = WORKLOADS[args.workload]
    ops = ops_for(args.workload, args.seconds / 2 if args.trace else args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  ops {ops}  (op = {op})")
    try:
        if args.trace:
            metrics, notes, counts = traced(args.workload, args.seed, args.seconds)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            metrics, notes, counts = timed(args.workload, args.seed, args.seconds)
            units = END_TO_END
            notes = [f"{n:14s} {v:.6g} {units[n]}" for n, v in metrics.items()] + notes
    except Broken as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    except Wrong as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        # The op with the wrong output counts as attempted and failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return EXIT_WRONG
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": True,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
