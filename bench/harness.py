"""Closed-loop timing, set-up probes, traced runs and result reporting."""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("measures", "transport", "fields", "operators", "flows", "cli")
SETUP_SAMPLES = 3
MIN_BEYOND = 10
# stop starting jobs after this much wall time, so a run always ends well inside 180 s
WALL_CAP_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def pin_threads():
    """One BLAS/OpenMP thread per process; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def scratch_dir(tag):
    """A fresh directory inside the checkout for configs and artifacts."""
    path = ROOT / ".bench_tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def load_wflow():
    """Import every layer of ``wflow`` from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "wflow" / "__init__.py").is_file():
        raise BenchError(f"no wflow sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"wflow.{name}") for name in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"wflow was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile; refuses unless ``min_beyond`` samples lie above it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; need at least {min_beyond}"
        )
    return xs[rank - 1]


def environment(workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_revision(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def setup_samples(workload):
    """Median-ready set-up times, each from a fresh interpreter (``setup_probe.py``)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(probe), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Tally:
    """Attempted and failed jobs, with the first few failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tol_miss = 0
        self.checked_steps = 0
        self.artifact_bytes = 0
        self.details = []

    def add(self, job, result, error, prior=None):
        self.attempted += 1
        if error is not None:
            outcome_ok, detail = False, f"{job.cls}: raised {error}"
        else:
            try:
                outcome = job.check(result, prior)
            except Exception:  # a check that cannot run is a failed job, not a crashed run
                outcome_ok, detail = False, f"{job.cls}: check raised\n{traceback.format_exc()}"
            else:
                outcome_ok, detail = outcome.ok, outcome.detail
                self.tol_miss += outcome.tol_miss
                self.checked_steps += outcome.checked_steps
                self.artifact_bytes += outcome.artifact_bytes
        job.cleanup()
        if not outcome_ok:
            self.failed += 1
            if len(self.details) < 5:
                self.details.append(detail)


def _run_job(job, tag):
    t0 = perf_counter()
    try:
        result, error = job.run(tag), None
    except Exception as exc:  # the job failed; the loop records it and goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, perf_counter() - t0


def _jobs(workload, wf, ctx, seed):
    index = 0
    while True:
        deck = workload.deck(wf, ctx, seed, index)
        for pos, job in enumerate(deck):
            yield job, pos == len(deck) - 1
        index += 1


def warm_up(workload, wf, ctx):
    for job in workload.warmup(wf, ctx):
        _run_job(job, "warmup")
        job.cleanup()


def timed_run(workload, wf, ctx, seed, seconds):
    """Closed loop: whole decks until ``seconds`` of job time and ``workload.min_jobs`` jobs."""
    tally = Tally()
    latencies = []
    start = perf_counter()
    for job, deck_done in _jobs(workload, wf, ctx, seed):
        result, error, dt = _run_job(job, "a")
        latencies.append(dt)
        tally.add(job, result, error)
        enough = sum(latencies) >= seconds and len(latencies) >= workload.min_jobs
        if (deck_done and enough) or perf_counter() - start > WALL_CAP_S:
            break
    return latencies, tally


def traced_run(workload, wf, ctx, seed, tracing):
    """Each of a fixed list of jobs runs untraced, then traced; checks run with no wrappers."""
    tracer = tracing.Tracer()
    tally = Tally()
    plain = traced = 0.0
    jobs = _jobs(workload, wf, ctx, seed)
    for _ in range(workload.trace_jobs):
        job, _ = next(jobs)
        first, error_a, dt_a = _run_job(job, "a")
        tracing.install_layers(tracer, wf)
        try:
            second, error_b, dt_b = _run_job(job, "b")
        finally:
            tracer.uninstall()
        plain += dt_a
        traced += dt_b
        tally.add(job, second, error_b or error_a, prior=first)
    return tracer, tally, traced - plain


def end_to_end_metrics(setup, latencies, tally):
    job_s = sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(latencies) / job_s, "1/s"),
        "job_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups: " + ", ".join(f"{s:.3f}" for s in setup),
        "job_p50_ms": f"N = {len(latencies)} jobs",
        "failed_frac": f"{tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})",
    }
    try:
        notes["job_p90_ms"] = f"{1e3 * percentile(latencies, 90):.6g} ms (N = {len(latencies)} jobs; no bound)"
    except ValueError as exc:
        notes["job_p90_ms"] = f"refused: {exc}"
    return metrics, notes


def per_layer_metrics(tracer, tally, overhead):
    """Layer metrics of a traced run, and notes for the ones only the sticky workload moves."""

    def calls(name):
        return (tracer.calls(name), "count")

    def secs(name, field):
        return (tracer.value(name, field), "s")

    steps = tracer.child_calls.get(("flows.evolve", "operators.resolvent"), 0) + tracer.child_calls.get(
        ("flows.evolve", "operators.apply"), 0
    )
    n_resolvent = tracer.calls("operators.resolvent")
    metrics = {
        "transport.w2_exact.large.calls": calls("transport.w2_exact.large"),
        "transport.w2_exact.large.busy_s": secs("transport.w2_exact.large", "busy_s"),
        "transport.w2_exact.large.particles": (
            tracer.counters.get("transport.w2_exact.large.particles", 0), "count"
        ),
        "transport.w2_exact.small.calls": calls("transport.w2_exact.small"),
        "transport.w2_exact.small.busy_s": secs("transport.w2_exact.small", "busy_s"),
        "transport.w_infinity.calls": calls("transport.w_infinity"),
        "transport.w_infinity.busy_s": secs("transport.w_infinity", "busy_s"),
        "transport.geodesic_decompose.self_s": secs("transport.geodesic_decompose", "self_s"),
        "operators.resolvent.calls": calls("operators.resolvent"),
        "operators.resolvent.busy_s": secs("operators.resolvent", "busy_s"),
        "operators.resolvent.self_s": secs("operators.resolvent", "self_s"),
        "operators.resolvent.max_ms": (1e3 * tracer.value("operators.resolvent", "max_s"), "ms"),
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply_per_resolvent": (
            tracer.calls("operators.apply") / n_resolvent if n_resolvent else 0.0, "calls/call"
        ),
        "measures.iota_project.exact.calls": calls("measures.iota_project.exact"),
        "measures.iota_project.exact.busy_s": secs("measures.iota_project.exact", "busy_s"),
        "fields.evaluate_batch.calls": calls("fields.evaluate_batch"),
        "fields.evaluate_batch.busy_s": secs("fields.evaluate_batch", "busy_s"),
        "fields.total_dissipativity_check.busy_s": secs("fields.total_dissipativity_check", "busy_s"),
        "flows.evolve.calls": calls("flows.evolve"),
        "flows.evolve.steps": (steps, "count"),
        "flows.evolve.self_s": secs("flows.evolve", "self_s"),
        "flows.jko_step.busy_s": secs("flows.jko_step", "busy_s"),
        "cli.main.self_s": secs("cli.main", "self_s"),
        "cli.artifact_bytes": (tally.artifact_bytes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }
    merge = "measures.iota_project.merge"
    notes = {
        "operators.resolvent.tol_miss": (
            f"{tally.tol_miss} of {tally.checked_steps} reference-checked resolvent outputs off by more than 1e-10"
        ),
        f"{merge}.calls": str(tracer.calls(merge)),
        f"{merge}.busy_s": f"{tracer.value(merge, 'busy_s'):.6g} s",
    }
    return metrics, notes


def result_line(tally, metrics):
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
