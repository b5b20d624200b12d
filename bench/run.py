"""skewstruct benchmark: four seeded exact-analysis workloads.

    python3 bench/run.py --workload mc_generic --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload in turn
    python3 bench/run.py --workload closure_bfs --seed 1 --negative-control

Run it from the root of a checkout; it imports skewstruct from ``src/``.
Each workload runs in fresh worker processes (bench/worker.py), one at a
time, as a closed loop with one client: one op at a time, each issued after
the previous one returned. Ops run in rounds, a round being one pass over
the workload's stratified mix. ``--seconds`` sets the number of rounds,
in proportion to ROUNDS, which holds about 15 s of op time per workload at
the commit that defined the benchmark. So every commit runs the same ops
for a given seed and the same percentiles are compared, while a faster
commit simply finishes sooner.

Times are reported at a fixed reference speed. The speed of a shared
machine drifts by up to 2x over seconds, between runs and within one, and
that drift, not the program, set the run-to-run spread. So the worker runs
a fixed pure-Python calibration loop (worker.calibration_loop, no
skewstruct code) right before and right after each op and, from a timer
signal, every 20 ms inside it. Each op's latency, without the loops' own
time, is multiplied by CAL_REF_S over the mean loop time; set-up is scaled
the same way by the loops that ran inside it. A program change moves the
op but not the loop, so it shows in full. The raw wall-clock figures are
printed next to the scaled ones and kept in the record.

``--trace 0`` reports the end-to-end metrics. Set-up is measured in three
fresh processes (two that only set up, then the measured one) and reported
as the median. ``--trace 1`` runs half as many rounds twice, untraced
and then traced, and reports the per-layer metrics of the traced
run plus the tracing overhead (traced minus untraced op time, both at
reference speed). Both of those runs sample the speed only around each op,
so that no loop lands inside a traced span.

The report goes to standard output, one metric per line with its unit; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. A fuller record, with the seed, Python version, CPU count and
model, and the input property shares, goes to bench/results/.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from spans import TRACED  # noqa: E402  (numpy only; skewstruct is imported by the workers)

WORKLOADS = ["mc_generic", "lin_generic", "structured_cli", "closure_bfs"]
# Rounds of a run at --seconds 15: 15-25 s of op time at the commit that
# defined the benchmark (2 CPUs, Intel Xeon, Python 3.11.7).
# lin_generic's 7 rounds give 14 ops of its (4,5,2) cell and 7 of each other
# cell, which puts the median in the middle of the (4,5,2) cluster and the
# tail (rank 32 of 42) in the middle of the (4,6,2) cluster.
ROUNDS = {"mc_generic": 50, "lin_generic": 7, "structured_cli": 21, "closure_bfs": 1}
SETUP_SAMPLES = 3
# Seconds of one worker.calibration_loop at the reference speed: about its
# median on the 2-CPU Intel Xeon, Python 3.11.7, that the benchmark was
# defined on.
CAL_REF_S = 5.0e-4
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """A worker could not produce a result; the run prints none."""


def metadata(seed):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def declared(kind):
    """Metric names of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def select(metrics, kind):
    missing = [name for name in declared(kind) if name not in metrics]
    if missing:
        raise BenchError(f"declared {kind} metrics not computed: {missing}")
    return {name: metrics[name] for name in declared(kind)}


def worker(deadline, *args):
    """Run bench/worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(time.monotonic()), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(latency, percentile): the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def ratio(num, den):
    return num / den if den else 0.0


def property_shares(name, props):
    shares = {}
    if "analyzed" in props:
        shares["eigenstructure.deficit_share"] = ratio(props["deficit_positive"], props["analyzed"])
    if name == "mc_generic":
        shares["mc_generic.mismatches"] = props.get("mismatches", [])
    if "ops_by_size" in props:
        total = sum(props["ops_by_size"].values())
        shares["structured_cli.size_share"] = {n: c / total for n, c in sorted(props["ops_by_size"].items())}
    if "searches" in props:
        shares["degeneration.certified_share"] = ratio(props["certified"], props["searches"])
    return shares


def scaled_latencies(result):
    """Op latencies at the reference speed, each scaled by the loops around it."""
    return [lat * CAL_REF_S / cal for lat, cal in zip(result["latencies_s"], result["calibrations_s"])]


def scaled_setup(result):
    return (result["setup_s"] - result["setup_probe_s"]) * CAL_REF_S / result["setup_calibration_s"]


def rounds_for(name, seconds):
    return max(1, round(ROUNDS[name] * seconds / 15))


def end_to_end(name, seed, seconds, negative, deadline):
    flags = ["--workload", name, "--seed", seed]
    if negative:
        flags.append("--negative-control")
    setups = [worker(deadline, *flags, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    main = worker(deadline, *flags, "--rounds", rounds_for(name, seconds))
    setups.append(main)
    scaled = scaled_latencies(main)
    latency, percentile = tail(scaled)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": main["attempted"] / main["op_wall_s"],
        "op_p50_ms": 1e3 * statistics.median(main["latencies_s"]),
        "op_tail_ms": 1e3 * tail(main["latencies_s"])[0],
    }
    metrics = {
        "setup_s": {"value": statistics.median(scaled_setup(s) for s in setups), "unit": "s"},
        "ops_per_s": {"value": main["attempted"] / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * latency, "unit": "ms"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    failed_ratio = ratio(main["failed"], main["attempted"])
    n = main["attempted"]
    speed = CAL_REF_S / statistics.median(main["calibrations_s"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{scaled_setup(s):.3f}" for s in setups),
        "ops_per_s": f"{n} ops in {sum(scaled):.3f} s of op time",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": (f"p{percentile:.2f}, {TAIL_BEYOND} ops beyond, n={n}" if n > TAIL_BEYOND
                       else f"maximum: {n} ops leave no {TAIL_BEYOND} beyond"),
        "peak_rss_mb": "worker process, ru_maxrss",
    }
    for key, value in raw.items():
        notes[key] += f"; wall clock {value:.4f}"
    lines = [f"{name}  seed {seed}  closed loop, 1 client, {n} ops in {main['rounds']} rounds; "
             f"times at reference speed, machine ran at {speed:.2f}x it (median)"]
    for key, metric in metrics.items():
        lines.append(f"  {key:<13} {metric['value']:>12.4f} {metric['unit']:<4} {notes[key]}")
    lines.append(f"  {'failed_ratio':<13} {failed_ratio:>12.4f} {'':<4} {main['failed']}/{n} failed")
    shares = property_shares(name, main["properties"])
    lines.extend(f"  {key} {json.dumps(value)}" for key, value in shares.items())
    record = {
        "workload": name,
        "trace": 0,
        "metadata": metadata(seed),
        "seconds": seconds,
        "negative_control": negative,
        "metrics": metrics,
        "wall_clock": raw,
        "cal_ref_s": CAL_REF_S,
        "failed_ratio": failed_ratio,
        "tail_percentile": percentile,
        "samples": {"ops": n, "rounds": main["rounds"], "setups": [s["setup_s"] for s in setups],
                    "setup_calibrations": [s["setup_calibration_s"] for s in setups],
                    "latencies": main["latencies_s"], "calibrations": main["calibrations_s"]},
        "properties": shares,
        "errors": main["errors"],
    }
    warm_ok = all(s["warmup_ok"] for s in setups)
    return record, lines, select(metrics, "end_to_end"), main["attempted"], main["failed"], warm_ok


def layer_metrics(name, untraced, traced):
    data = traced["trace"]
    funcs = data["functions"]

    def get(func, key):
        return funcs.get(func, {}).get(key, 0)

    metrics = {}
    for func in TRACED:
        metrics[f"{func}.calls"] = (get(func, "calls"), "count")
        metrics[f"{func}.self_s"] = (get(func, "self_s"), "s")
    props = traced["properties"]
    states = props.get("states_explored", 0)
    closure_wall = data["op_wall_s"] if name == "closure_bfs" else 0.0
    metrics.update({
        "sampling.draw_acceptance": (
            ratio(get("sampling.sample_bounded_rank", "calls"), data["binding_calls"].get("sampling.rank_exact", 0)),
            "ratio"),
        "exact.normal_rank.cache_hit_ratio": (
            ratio(data["cache_hits"], data["cache_hits"] + data["cache_misses"]), "ratio"),
        "eigenstructure.deficit_share": (ratio(data["analyze_deficit"], data["analyze_results"]), "ratio"),
        "degeneration.enumerate_applications.applications": (data["applications"], "count"),
        "degeneration.states_explored": (states, "count"),
        "degeneration.states_per_s": (ratio(states, closure_wall), "1/s"),
        "degeneration.new_state_ratio": (ratio(states, get("degeneration.apply_rule", "calls")), "ratio"),
        "degeneration.certified_share": (ratio(props.get("certified", 0), props.get("searches", 0)), "ratio"),
        "trace.op_wall_s": (data["op_wall_s"], "s"),
        "trace.unwrapped_s": (data["unwrapped_s"], "s"),
        "trace.overhead_s": (sum(scaled_latencies(traced)) - sum(scaled_latencies(untraced)), "s"),
    })
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def per_layer(name, seed, seconds, negative, deadline):
    rounds = rounds_for(name, seconds / 2)
    flags = ["--workload", name, "--seed", seed, "--rounds", rounds, "--probe-interval", 0]
    if negative:
        flags.append("--negative-control")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{name}-seed{seed}.spans.npz"
    untraced = worker(deadline, *flags)
    traced = worker(deadline, *flags, "--trace", "--spans", spans_path)
    metrics = select(layer_metrics(name, untraced, traced), "per_layer")
    data = traced["trace"]
    listed = sum(v["self_s"] for k, v in data["functions"].items() if k != "op")
    lines = [f"{name}  seed {seed}  traced, {traced['attempted']} ops in {rounds} rounds"]
    for key, metric in metrics.items():
        lines.append(f"  {key:<50} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(
        f"  self times {listed:.6f} s + unwrapped {data['unwrapped_s']:.6f} s = "
        f"{listed + data['unwrapped_s']:.6f} s; traced op wall {data['op_wall_s']:.6f} s"
        " (equal by construction)"
    )
    lines.append(f"  no binding of the {len(TRACED)} traced functions bypasses its wrapper")
    untraced_s = sum(scaled_latencies(untraced))
    overhead = sum(scaled_latencies(traced)) - untraced_s
    lines.append(
        f"  tracing overhead {overhead:.4f} s on {untraced_s:.4f} s untraced, both at reference speed "
        f"({100 * ratio(overhead, untraced_s):.1f}%)"
    )
    record = {
        "workload": name,
        "trace": 1,
        "metadata": metadata(seed),
        "rounds": rounds,
        "negative_control": negative,
        "metrics": metrics,
        "untraced_op_wall_s": untraced["op_wall_s"],
        "binding_calls": data["binding_calls"],
        "spans": str(spans_path.relative_to(ROOT)),
        "properties": property_shares(name, traced["properties"]),
        "errors": untraced["errors"] + traced["errors"],
    }
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    warm_ok = untraced["warmup_ok"] and traced["warmup_ok"]
    return record, lines, metrics, attempted, failed, warm_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="check every op against a deliberately wrong reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewstruct" / "__init__.py").is_file():
        print(f"error: no skewstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            if args.trace:
                record, lines, metrics, n, bad, warm_ok = per_layer(
                    name, args.seed, args.seconds, args.negative_control, deadline)
            else:
                record, lines, metrics, n, bad, warm_ok = end_to_end(
                    name, args.seed, args.seconds, args.negative_control, deadline)
            print("\n".join(lines), flush=True)
            for error in record["errors"]:
                print(f"  failed: {error}")
            RESULTS.mkdir(exist_ok=True)
            suffix = "-negative" if args.negative_control else ""
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
            out.write_text(json.dumps(record, indent=2) + "\n")
            attempted += n
            failed += bad
            correct = correct and warm_ok and bad == 0
            if len(names) == 1:
                all_metrics = metrics
            else:
                all_metrics.update({f"{name}.{key}": value for key, value in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
