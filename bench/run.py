"""Outside-in benchmark of wflow: one process per workload, closed loop, checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload transport|sticky|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
the traced run.  ``--workload all`` runs each workload in its own process
and prints a table.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import harness

harness.pin_threads()

WORKLOAD_NAMES = ("transport", "sticky", "cli")


def _print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        extra = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>14.6g} {unit}{extra}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:40s} {note}")


def run_one(name, seed, seconds, trace):
    wf = harness.load_wflow()
    setup = None if trace else harness.setup_samples(name)

    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tmp = harness.scratch_dir(name)
    ctx = {"tmp": tmp}
    try:
        harness.warm_up(workload, wf, ctx)
        if trace:
            tracer, tally, overhead = harness.traced_run(workload, wf, ctx, seed, tracing)
            idle = [span for span in workload.exercised if tracer.calls(span) == 0]
            if idle:
                raise harness.BenchError(f"traced {name}: spans recorded no calls: {idle}")
            metrics, notes = harness.per_layer_metrics(tracer, tally, overhead)
        else:
            latencies, tally = harness.timed_run(workload, wf, ctx, seed, seconds)
            metrics, notes = harness.end_to_end_metrics(setup, latencies, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"wflow benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(harness.environment(name, seed, seconds, trace)))
    _print_metrics(metrics, notes)
    if trace:
        print(f"  coverage: every span in {list(workload.exercised)} recorded calls")
    for detail in tally.details:
        print(f"  failed: {detail}")
    print(harness.result_line(tally, metrics))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process; a table of the last lines."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, res in rows:
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name}: attempted={res['attempted']} failed={res['failed']} {cells}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
