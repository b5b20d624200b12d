"""One workload in one fresh process: set-up, warm-up, timed rounds, checks.

Started by run.py, never by hand. It imports skewstruct from the ``src``
directory of the checkout it lives in, and prints one JSON object as the
last line of its standard output. The op loop is closed and single-threaded:
each op starts after the previous one returned and was checked.

The speed of a shared machine drifts by up to 2x over seconds, so the
worker samples it with a short fixed calibration loop that touches no
skewstruct code (SpeedProbe): right before and right after each op, and
every PROBE_INTERVAL_S while an op or the set-up runs. Latencies exclude the
loops' own time; run.py scales each by the loops' mean duration (see its
docstring).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Seconds between speed samples while an op or the set-up runs. One sample
# takes about 0.5 ms, so sampling costs about 2.5% of the run's wall time.
PROBE_INTERVAL_S = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--probe-interval", type=float, default=PROBE_INTERVAL_S,
                        help="seconds between speed samples inside an op; 0 samples only around it")
    return parser.parse_args(argv)


def calibration_loop():
    """A fixed pure-Python workload: Fraction, big-integer and dict arithmetic."""
    rng = random.Random(1)
    total, buckets = Fraction(0), {}
    for i in range(1, 100):
        total += Fraction(rng.randint(1, 99), i)
        buckets[i % 37] = buckets.get(i % 37, 0) + total.numerator % 7
    return total, buckets


class SpeedProbe:
    """Samples the machine's speed: (start, seconds) of each calibration loop.

    While the timer runs, SIGALRM interrupts the program every ``interval``
    seconds and the handler runs one loop, between two bytecodes of
    whatever code is running.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self):
        start = time.perf_counter()
        calibration_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start, end):
        """(seconds of loops that started in [start, end), their mean duration)."""
        inside = [d for t, d in self.samples if start <= t < end]
        return sum(inside), statistics.mean(inside) if inside else 0.0


def run_op(op, tracer, op_id, probe):
    """(latency, loop time, output or exception): the op call's time without
    the loops that ran inside it, and the mean time of the loops from just
    before to just after it."""
    gc.collect()
    probe.samples.clear()
    probe.sample()
    probe.start()
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op_span(op_id):
                out = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out = exc
    end = time.perf_counter()
    probe.stop()
    probe.sample()
    inside, _ = probe.window(start, end)
    return end - start - inside, statistics.mean(d for _, d in probe.samples), out


def checked(workload, op, out, negative, errors):
    if isinstance(out, Exception):
        errors.append(f"{type(op).__name__} raised {type(out).__name__}: {out}")
        return False
    try:
        ok = op.check(out, negative)
    except Exception as exc:  # a check that cannot run counts against the op
        errors.append(f"check of {type(op).__name__} raised {type(exc).__name__}: {exc}")
        return False
    if ok:
        workload.record(op, out)
    else:
        errors.append(f"{type(op).__name__} output does not match its reference")
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe(PROBE_INTERVAL_S)
    probe.start()  # the set-up is always sampled
    sys.path.insert(0, str(SRC))
    import skewstruct

    if not Path(skewstruct.__file__).resolve().is_relative_to(SRC):
        print(f"skewstruct imported from {skewstruct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = Path(__file__).resolve().parent / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            missed = tracer.missed_bindings()
            if missed:
                print("traced functions reachable around their wrappers: " + "; ".join(missed), file=sys.stderr)
                return 2
        return measure(args, workload, tracer, probe)
    finally:
        probe.stop()
        workload.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracer, probe) -> int:
    errors = []
    ops = workload.round(0)
    warm = workload.warmup()
    try:
        out = warm.run()
    except Exception as exc:
        out = exc
    warmup_ok = checked(workload, warm, out, False, errors)
    workload.properties = {}
    setup_s = time.monotonic() - args.t0
    probe.stop()
    # the loops' time inside the set-up, and their mean: the set-up's speed
    setup_probe_s, setup_calibration_s = probe.window(0.0, float("inf"))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s,
                          "setup_calibration_s": setup_calibration_s,
                          "warmup_ok": warmup_ok, "errors": errors}))
        return 0

    # Every op starts on a collected heap, so when the collector runs inside
    # it does not depend on the ops before it. Freezing the set-up's objects
    # keeps that collection to a few microseconds.
    gc.freeze()
    probe.interval = args.probe_interval
    latencies, calibrations, failed = [], [], 0
    elapsed = 0.0
    for index in range(args.rounds):
        if index:
            ops = workload.round(index)
        for op in ops:
            latency, calibration, out = run_op(op, tracer, len(latencies), probe)
            calibrations.append(calibration)
            latencies.append(latency)
            elapsed += latency
            failed += not checked(workload, op, out, args.negative_control, errors)

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "setup_calibration_s": setup_calibration_s,
        "warmup_ok": warmup_ok,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "rounds": args.rounds,
        "op_wall_s": elapsed,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:20],
        "properties": workload.properties,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.layer_metrics()
        result["trace"].update(
            binding_calls=dict(tracer.binding_calls),
            applications=tracer.applications,
            analyze_results=tracer.analyze_results,
            analyze_deficit=tracer.analyze_deficit,
            cache_hits=tracer.cache_hits,
            cache_misses=tracer.cache_misses,
        )
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
