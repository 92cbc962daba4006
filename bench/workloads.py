"""Seeded job decks for the three workloads, with each job's output check.

A deck is a fixed mix of job classes whose inputs come from
``numpy.random.default_rng([seed, deck_index])``; the closed loop runs whole
decks, so every run sees exactly the stated mix.  Problem sizes sit on a
fixed grid over each class's range and the seed draws the coordinates, so
decks from different seeds cost about the same.  Checks run outside the
timed region and outside the spans.
"""

from __future__ import annotations

import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

WARMUP_SEED = 0


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    checked_steps: int = 0
    tol_miss: int = 0
    artifact_bytes: int = 0


@dataclass
class Job:
    cls: str
    run: Callable[[str], object]
    check: Callable[[object, Optional[object]], Outcome]
    inputs: dict = field(default_factory=dict)
    cleanup: Callable[[], None] = field(default=lambda: None)


def _composition(rng, total, parts):
    """Random positive integers of the given count summing to ``total``."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(np.int64)


# ---------------------------------------------------------------------------
# transport: large exact problems, the transport layer alone


CLOUD_N = (50, 100, 150, 200, 250, 300, 350, 400)
WINF_N = (16, 32, 48, 64)
COPRIME_PAIRS = ((13, 17), (23, 29), (31, 37))
COPRIME_ATOMS = (5, 8)


def _w2_job(wf, cls, atoms_a, mults_a, atoms_b, mults_b, reference):
    mu = wf.measures.DiscreteMeasure(atoms_a, mults_a)
    nu = wf.measures.DiscreteMeasure(atoms_b, mults_b)

    def check(res, prior):
        want = reference(mu.atoms, mu.multiplicities, nu.atoms, nu.multiplicities)
        if not ref.rel_close(res.distance, want):
            return Outcome(False, f"{cls}: distance {res.distance!r} vs reference {want!r}")
        if not ref.rel_close(res.plan.cost(), res.distance**2):
            return Outcome(False, f"{cls}: plan cost {res.plan.cost()!r} != distance^2")
        return Outcome(True)

    inputs = {"a": (mu.atoms, mu.multiplicities), "b": (nu.atoms, nu.multiplicities)}
    return Job(cls, lambda tag: wf.transport.w2_exact(mu, nu), check, inputs)


def _cloud_job(wf, rng, n):
    return _w2_job(
        wf, "w2_cloud", rng.normal(size=(n, 2)), np.ones(n, np.int64),
        rng.normal(size=(n, 2)), np.ones(n, np.int64), ref.w2_assignment,
    )


def _coprime_job(wf, rng, p, q):
    ka, kb = (int(rng.integers(COPRIME_ATOMS[0], COPRIME_ATOMS[1] + 1)) for _ in range(2))
    return _w2_job(
        wf, "w2_coprime", rng.normal(size=(ka, 2)), _composition(rng, p, ka),
        rng.normal(size=(kb, 2)), _composition(rng, q, kb), ref.w2_atom_lp,
    )


def _winf_job(wf, rng, n):
    mu = wf.measures.DiscreteMeasure.from_points(rng.normal(size=(n, 2)))
    nu = wf.measures.DiscreteMeasure.from_points(rng.normal(size=(n, 2)))

    def check(value, prior):
        want = ref.bottleneck(mu.atoms, mu.multiplicities, nu.atoms, nu.multiplicities)
        if not ref.rel_close(value, want):
            return Outcome(False, f"w_infinity: {value!r} vs reference {want!r}")
        return Outcome(True)

    inputs = {"a": (mu.atoms, mu.multiplicities), "b": (nu.atoms, nu.multiplicities)}
    return Job("w_infinity", lambda tag: wf.transport.w_infinity(mu, nu), check, inputs)


def transport_deck(wf, ctx, seed, index):
    rng = np.random.default_rng([seed, index])
    jobs = [_cloud_job(wf, rng, n) for n in CLOUD_N]
    jobs += [_winf_job(wf, rng, n) for n in WINF_N]
    jobs += [_coprime_job(wf, rng, p, q) for p, q in COPRIME_PAIRS]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def transport_warmup(wf, ctx):
    rng = np.random.default_rng(WARMUP_SEED)
    return [
        _cloud_job(wf, rng, CLOUD_N[0]),
        _coprime_job(wf, rng, *COPRIME_PAIRS[0]),
        _winf_job(wf, rng, WINF_N[0]),
    ]


# ---------------------------------------------------------------------------
# sticky: 1-D |x| interaction through the prox backend


STICKY_TAU = 1e-2
STICKY_MERGE_EPS = 1e-6
STICKY_GAP_STEPS = (0.2, 5.0)
STICKY_PAST_STEPS = (1, 3)
JKO_TAU = 0.5
JKO_N = (2, 16)
EVOLVE_SIZES = (2, 3, 2, 3, 2)


def _sticky_functional(wf):
    return wf.fields.pw_functional(wf.fields.profile("zero"), wf.fields.profile("abs"))


def _evolve_job(wf, rng, k):
    tau = STICKY_TAU
    gaps = rng.uniform(*STICKY_GAP_STEPS, size=k - 1) * tau
    points = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    # outer particles close on their neighbours at speed 1 (pair) or 2/3 (triple)
    first_collision = float(np.min(gaps)) * (1.0 if k == 2 else 1.5)
    steps = math.ceil(first_collision / tau) + int(rng.integers(STICKY_PAST_STEPS[0], STICKY_PAST_STEPS[1] + 1))
    horizon = steps * tau
    energy = _sticky_functional(wf)
    mu0 = wf.measures.DiscreteMeasure.from_points(points.reshape(-1, 1))
    scheme = wf.flows.ImplicitScheme(tau)

    def run(tag):
        return wf.flows.evolve(energy, mu0, scheme, T=horizon, merge_eps=STICKY_MERGE_EPS)

    def check(flow, prior):
        lags = [lag.particles.ravel() for lag in flow.lagrangian]
        if len(lags) != steps + 1:
            return Outcome(False, f"evolve: {len(lags) - 1} steps recorded, expected {steps}")
        if not np.array_equal(lags[0], np.sort(points)):
            return Outcome(False, "evolve: initial lift is not the sorted start measure")
        misses, worst = 0, 0.0
        for prev, cur in zip(lags, lags[1:]):
            dev, miss = ref.prox_miss(cur, prev, tau)
            misses += miss
            worst = max(worst, dev)
        detail = f"evolve k={k}: {misses}/{steps} steps off the exact prox (worst {worst:.2e})" if misses else ""
        return Outcome(misses == 0, detail, checked_steps=steps, tol_miss=misses)

    return Job("evolve", run, check, {"points": points, "steps": steps, "tau": tau})


def _jko_job(wf, rng, n):
    y = rng.normal(size=n)
    energy = _sticky_functional(wf)
    mu = wf.measures.DiscreteMeasure.from_points(y.reshape(-1, 1))

    def check(out, prior):
        if out.denominator != n or out.dim != 1:
            return Outcome(False, f"jko_step n={n}: result has denominator {out.denominator}")
        got = np.sort(ref.expand(out.atoms, out.multiplicities, n).ravel())
        dev, miss = ref.prox_miss(got, np.sort(y), JKO_TAU)
        detail = f"jko_step n={n}: {dev:.2e} off the exact prox" if miss else ""
        return Outcome(not miss, detail, checked_steps=1, tol_miss=int(miss))

    return Job("jko_step", lambda tag: wf.flows.jko_step(energy, mu, JKO_TAU), check, {"y": y})


def sticky_deck(wf, ctx, seed, index):
    rng = np.random.default_rng([seed, index])
    evolves = [_evolve_job(wf, rng, k) for k in EVOLVE_SIZES]
    jkos = [_jko_job(wf, rng, int(n)) for n in rng.permutation(np.arange(JKO_N[0], JKO_N[1] + 1))]
    # one evolve job in every four, so any prefix of the deck holds both classes
    deck = []
    for i, job in enumerate(jkos):
        if i % 3 == 0:
            deck.append(evolves[i // 3])
        deck.append(job)
    return deck


def sticky_warmup(wf, ctx):
    rng = np.random.default_rng(WARMUP_SEED)
    return [_evolve_job(wf, rng, 2), _jko_job(wf, rng, JKO_N[0])]


# ---------------------------------------------------------------------------
# cli: the command line on small seeded configs


def _measure_payload(rng, k, dim, mults=None):
    mults = np.ones(k, np.int64) if mults is None else mults
    atoms = rng.normal(size=(k, dim))
    return {
        "dim": dim,
        "denominator": int(mults.sum()),
        "atoms": [{"x": [float(v) for v in a], "mult": int(m)} for a, m in zip(atoms, mults)],
    }


def _payload_arrays(payload):
    atoms = np.array([a["x"] for a in payload["atoms"]], dtype=float)
    mults = np.array([a["mult"] for a in payload["atoms"]], dtype=np.int64)
    return atoms, mults


def _printed_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return None


def _quadratic_pw(pot, inter):
    return {
        "kind": "pw",
        "params": {
            "potential": {"kind": "quadratic", "coeff": pot},
            "interaction": {"kind": "quadratic", "coeff": inter},
        },
    }


BARYCENTRIC = {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0, 0.0]}}


def _cli_specs(rng):
    """(class, files to write, expected exit code, printed-value check) for each job of a deck.

    Thirteen jobs: every class once, plus a second evi and a second w2.  With
    evi the slowest class by far, p90 then falls inside the evi jobs and p50
    among the mid-cost classes, not on a boundary between classes.
    """
    specs = []
    m3 = lambda: _measure_payload(rng, 3, 2)  # noqa: E731

    for _ in range(2):
        specs.append(("evi", {"config": {
            "experiment": "evi", "functional": _quadratic_pw(1.0, 1.0), "measures": [m3()],
            "params": {"T": 0.2, "tau": 0.001, "dt_record": 0.01, "n_comparison": 50, "lambda": -1.0},
            "seed": int(rng.integers(1 << 31)),
        }}, 0, None))

    k = int(rng.integers(2, 5))
    mu, nu = _measure_payload(rng, k, 2), _measure_payload(rng, k, 2)
    perm = rng.permutation(k)
    mass = [[int(perm[i] == j) for j in range(k)] for i in range(k)]
    specs.append(("decompose", {"coupling": {"mu": mu, "nu": nu, "mass": mass}}, 0, None))

    verify_params = {"lambda": 0.0, "mode": "exhaustive", "n_pairs": 30, "max_card": 5, "dim": 2}
    specs.append(("verify_attraction", {"config": {
        "experiment": "verify", "field": BARYCENTRIC, "params": verify_params,
        "seed": int(rng.integers(1 << 31)),
    }}, 0, None))
    identity = {"kind": "linear", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]}}
    specs.append(("verify_expansion", {"config": {
        "experiment": "verify", "field": identity, "params": verify_params,
        "seed": int(rng.integers(1 << 31)),
    }}, 2, None))

    def pair_files(max_den):
        while True:
            ka, kb = (int(rng.integers(2, 7)) for _ in range(2))
            ma, mb = (rng.integers(1, 4, size=kk).astype(np.int64) for kk in (ka, kb))
            if math.lcm(int(ma.sum()), int(mb.sum())) <= max_den:
                return {"measure_a": _measure_payload(rng, ka, 2, ma), "measure_b": _measure_payload(rng, kb, 2, mb)}

    for cls, prefix, reference, max_den in (
        ("w2", "w2 distance = ", ref.w2_atom_lp, 10**6),
        ("w2", "w2 distance = ", ref.w2_atom_lp, 10**6),
        ("w-inf", "w-inf distance = ", ref.bottleneck, 64),
    ):
        files = pair_files(max_den)
        a, b = _payload_arrays(files["measure_a"]), _payload_arrays(files["measure_b"])
        specs.append((cls, files, 0, (prefix, lambda a=a, b=b, r=reference: r(*a, *b))))

    specs.append(("jko", {"config": {
        "experiment": "jko", "functional": _quadratic_pw(1.0, 0.5), "measures": [m3()], "params": {"tau": 0.2},
    }}, 0, None))
    specs.append(("contraction", {"config": {
        "experiment": "contraction", "field": BARYCENTRIC,
        "measures": [_measure_payload(rng, 2, 2), _measure_payload(rng, 2, 2)],
        "scheme": {"kind": "implicit", "tau": 0.01}, "params": {"lambda": 0.0, "t_grid": [0.1, 0.2]},
    }}, 0, None))
    specs.append(("meanfield", {"config": {
        "experiment": "meanfield", "field": BARYCENTRIC, "measures": [_measure_payload(rng, 4, 2)],
        "scheme": {"kind": "implicit", "tau": 0.05},
        "params": {"N_list": [4, 8], "t": 0.2, "lambda": 0.0, "n_seeds": 2},
        "seed": int(rng.integers(1 << 31)),
    }}, 0, None))
    drift = [float(v) for v in rng.normal(size=2)]
    specs.append(("simulate_fixed_point", {"config": {
        "experiment": "simulate",
        "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": drift}},
        "measures": [m3()], "scheme": {"kind": "implicit", "tau": 0.01}, "params": {"T": 0.1},
    }}, 0, None))
    quartic = {"kind": "pw", "params": {"potential": {"kind": "quartic", "coeff": 1.0},
                                        "interaction": {"kind": "quadratic", "coeff": 0.5}}}
    specs.append(("simulate_newton", {"config": {
        "experiment": "simulate", "field": quartic, "measures": [m3()],
        "scheme": {"kind": "implicit", "tau": 0.01}, "params": {"T": 0.05},
    }}, 0, None))
    return specs


_SUBCOMMAND = {
    "verify_attraction": "verify", "verify_expansion": "verify",
    "simulate_fixed_point": "simulate", "simulate_newton": "simulate",
}


def _cli_job(wf, workdir, rerun, cls, files, expected, value_check):
    workdir.mkdir(parents=True)
    paths = []
    for name, payload in files.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths.append(str(path))
    argv = [_SUBCOMMAND.get(cls, cls)] + paths

    def run(tag):
        out_dir = workdir / f"out_{tag}"
        buf = StringIO()
        with redirect_stdout(buf), redirect_stderr(StringIO()):
            code = wf.cli.main(argv + ["--out", str(out_dir)])
        return code, buf.getvalue(), out_dir

    def check(result, prior):
        code, stdout, out_dir = result
        if code != expected:
            return Outcome(False, f"cli {cls}: exit code {code}, expected {expected}")
        if value_check is not None:
            prefix, reference = value_check
            got = _printed_value(stdout, prefix)
            want = reference()
            if got is None or not ref.rel_close(got, want):
                return Outcome(False, f"cli {cls}: printed {got!r}, reference {want!r}")
        if prior is None and rerun:
            prior = run("rerun")
        if prior is not None and (
            prior[0] != code or ref.artifact_digests(prior[2]) != ref.artifact_digests(out_dir)
        ):
            return Outcome(False, f"cli {cls}: artifacts differ between two runs of one config")
        return Outcome(True, artifact_bytes=ref.artifact_bytes(out_dir))

    return Job(cls, run, check, files, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


def cli_deck(wf, ctx, seed, index):
    """One deck of CLI jobs; the jobs of the first deck are rerun untimed for the byte-identity check."""
    rng = np.random.default_rng([seed, index])
    return [
        _cli_job(wf, Path(ctx["tmp"]) / f"deck{index}_{j}", index == 0, *spec)
        for j, spec in enumerate(_cli_specs(rng))
    ]


def cli_warmup(wf, ctx):
    jobs, seen = [], set()
    for job in cli_deck(wf, ctx, WARMUP_SEED, 0):
        if job.cls in seen:
            job.cleanup()
        else:
            seen.add(job.cls)
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Callable
    warmup: Callable
    min_jobs: int
    trace_jobs: int
    exercised: tuple


WORKLOADS = {
    "transport": Workload(
        "transport", transport_deck, transport_warmup, min_jobs=100, trace_jobs=30,
        exercised=("transport.w2_exact.large", "transport.w_infinity"),
    ),
    "sticky": Workload(
        "sticky", sticky_deck, sticky_warmup, min_jobs=20, trace_jobs=8,
        exercised=(
            "flows.evolve", "flows.jko_step", "operators.resolvent", "measures.iota_project.merge",
            "measures.iota_project.exact", "fields.evaluate_batch",
        ),
    ),
    "cli": Workload(
        "cli", cli_deck, cli_warmup, min_jobs=100, trace_jobs=39,
        exercised=(
            "cli.main", "transport.w2_exact.small", "transport.w_infinity", "transport.geodesic_decompose",
            "operators.resolvent", "operators.apply", "measures.iota_project.exact", "fields.evaluate_batch",
            "fields.total_dissipativity_check", "flows.evolve", "flows.jko_step",
        ),
    ),
}
