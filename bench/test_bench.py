"""Tests for the benchmark's own code: generators, references, checks, percentiles.

Run with: python3 -m pytest bench -q
"""

import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

WF = harness.load_wflow()


@pytest.fixture
def ctx(tmp_path):
    return {"tmp": tmp_path}


def _flat(deck):
    """Job inputs as JSON text, so decks compare with ==."""
    return [json.dumps(job.inputs, default=lambda a: np.asarray(a).tolist(), sort_keys=True) for job in deck]


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deck_is_deterministic_for_a_seed(name, tmp_path):
    deck = workloads.WORKLOADS[name].deck
    first = deck(WF, {"tmp": tmp_path / "a"}, 7, 0)
    again = deck(WF, {"tmp": tmp_path / "b"}, 7, 0)
    other = deck(WF, {"tmp": tmp_path / "c"}, 8, 0)
    assert [j.cls for j in first] == [j.cls for j in again]
    assert _flat(first) == _flat(again)
    assert _flat(first) != _flat(other)


def test_decks_hold_the_stated_mix(ctx):
    transport = workloads.transport_deck(WF, ctx, 3, 0)
    assert sorted(j.cls for j in transport) == sorted(
        ["w2_cloud"] * len(workloads.CLOUD_N) + ["w_infinity"] * len(workloads.WINF_N)
        + ["w2_coprime"] * len(workloads.COPRIME_PAIRS)
    )
    sticky = workloads.sticky_deck(WF, ctx, 3, 0)
    assert [j.cls for j in sticky[:4]] == ["evolve", "jko_step", "jko_step", "jko_step"]
    assert sorted(len(j.inputs["y"]) for j in sticky if j.cls == "jko_step") == list(range(2, 17))
    cli = workloads.cli_deck(WF, ctx, 3, 0)
    assert len(cli) == 13 and len({j.cls for j in cli}) == 11


# ---------------------------------------------------------------------------
# references against first principles


def test_w2_references_agree_with_enumeration():
    rng = np.random.default_rng(1)
    xs, ys = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    best = min(
        sum(float(np.sum((xs[i] - ys[p[i]]) ** 2)) for i in range(5)) for p in itertools.permutations(range(5))
    )
    ones = np.ones(5, np.int64)
    assert math.isclose(ref.w2_assignment(xs, ones, ys, ones), math.sqrt(best / 5), rel_tol=1e-12)
    assert math.isclose(ref.w2_atom_lp(xs, ones, ys, ones), math.sqrt(best / 5), rel_tol=1e-12)


def test_atom_lp_matches_assignment_on_coprime_denominators():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(5, 2)), rng.normal(size=(6, 2))
    ma, mb = workloads._composition(rng, 13, 5), workloads._composition(rng, 17, 6)
    assert math.isclose(ref.w2_atom_lp(a, ma, b, mb), ref.w2_assignment(a, ma, b, mb), rel_tol=1e-10)


def test_bottleneck_matches_enumeration():
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    best = min(
        max(float(np.linalg.norm(xs[i] - ys[p[i]])) for i in range(6)) for p in itertools.permutations(range(6))
    )
    ones = np.ones(6, np.int64)
    assert math.isclose(ref.bottleneck(xs, ones, ys, ones), best, rel_tol=1e-12)


def _sticky_energy(x, y, tau):
    n = x.size
    return float(np.sum((x - y) ** 2)) / (2 * tau * n) + float(np.sum(np.abs(x[:, None] - x[None, :]))) / (2 * n * n)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_prox_minimizes_the_sticky_energy(n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    x = ref.prox_abs_1d(y, 0.5)
    base = _sticky_energy(x, y, 0.5)
    for _ in range(200):
        assert _sticky_energy(x + 1e-4 * rng.normal(size=n), y, 0.5) >= base - 1e-15


def test_prox_of_a_separated_pair_moves_each_by_half_tau():
    assert np.allclose(ref.prox_abs_1d([1.0, -1.0], 0.1), [0.95, -0.95], rtol=0, atol=1e-15)
    assert np.allclose(ref.prox_abs_1d([0.0, 0.01], 0.1), [0.005, 0.005], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# checks reject planted wrong answers


def test_transport_check_rejects_distance_off_by_1e_6(ctx):
    job = next(j for j in workloads.transport_deck(WF, ctx, 4, 0) if j.cls == "w2_coprime")
    res = job.run("a")
    assert job.check(res, None).ok
    planted = SimpleNamespace(distance=res.distance * (1 + 1e-6), plan=res.plan)
    assert not job.check(planted, None).ok


def test_bottleneck_check_rejects_a_wrong_distance(ctx):
    job = next(j for j in workloads.transport_deck(WF, ctx, 4, 0) if j.cls == "w_infinity")
    value = job.run("a")
    assert job.check(value, None).ok
    assert not job.check(value * (1 + 1e-6), None).ok


def test_evolve_check_rejects_a_step_off_by_1e_9(ctx):
    rng = np.random.default_rng(5)
    job = workloads._evolve_job(WF, rng, 2)
    points, steps, tau = job.inputs["points"], job.inputs["steps"], job.inputs["tau"]
    lags = [np.sort(points)]
    for _ in range(steps):
        lags.append(ref.prox_abs_1d(lags[-1], tau))
    exact = SimpleNamespace(lagrangian=[SimpleNamespace(particles=p.reshape(-1, 1)) for p in lags])
    assert job.check(exact, None).ok
    lags[-1] = lags[-1] + np.array([1e-9] + [0.0] * (len(points) - 1))
    planted = SimpleNamespace(lagrangian=[SimpleNamespace(particles=p.reshape(-1, 1)) for p in lags])
    outcome = job.check(planted, None)
    assert not outcome.ok and outcome.tol_miss == 1


def test_jko_check_rejects_a_point_off_by_1e_9(ctx):
    job = workloads._jko_job(WF, np.random.default_rng(6), 2)
    out = job.run("a")
    assert job.check(out, None).ok
    atoms = ref.expand(out.atoms, out.multiplicities, 2)
    atoms[0] += 1e-9
    planted = WF.measures.DiscreteMeasure.from_points(atoms)
    assert not job.check(planted, None).ok


def test_cli_check_rejects_a_changed_artifact_byte(ctx):
    job = next(j for j in workloads.cli_deck(WF, ctx, 9, 0) if j.cls == "jko")
    first, second = job.run("a"), job.run("b")
    assert job.check(first, second).ok
    path = next(p for p in second[2].iterdir() if p.is_file())
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert not job.check(first, second).ok


def test_cli_check_rejects_an_unexpected_exit_code(ctx):
    job = next(j for j in workloads.cli_deck(WF, ctx, 9, 0) if j.cls == "verify_expansion")
    code, stdout, out_dir = job.run("a")
    assert code == 2
    assert not job.check((0, stdout, out_dir), None).ok


def test_only_the_first_cli_deck_reruns_for_byte_identity(ctx):
    for index, reruns in ((0, True), (1, False)):
        job = next(j for j in workloads.cli_deck(WF, ctx, 9, index) if j.cls == "jko")
        result = job.run("a")
        assert job.check(result, None).ok
        assert (result[2].parent / "out_rerun").is_dir() == reruns


# ---------------------------------------------------------------------------
# percentile helper


def test_percentile_is_the_nearest_rank_order_statistic():
    samples = list(range(100, 0, -1))
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)
    assert harness.percentile(list(range(100)), 90) == 89


# ---------------------------------------------------------------------------
# BENCHMARK.json describes exactly what the runs print


def test_benchmark_json_lists_the_reported_metrics():
    import tracing

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    tally = harness.Tally()
    tally.attempted = 1
    e2e, _ = harness.end_to_end_metrics([1.0], [0.01] * 100, tally)
    layers, _ = harness.per_layer_metrics(tracing.Tracer(), tally, 0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

