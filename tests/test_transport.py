import math

import numpy as np
import pytest

import oracles
from wflow.measures import Coupling, DiscreteMeasure, expand, interpolate
from wflow.transport import (
    Certificate,
    GeodesicError,
    TransportError,
    check_chords_alignment,
    cyclical_monotonicity_check,
    geodesic_decompose,
    local_optimality_certificate,
    perturb_for_injectivity,
    verify_injectivity_family,
    w2_bruteforce,
    w2_exact,
    w_infinity,
)


def uniform(points):
    return DiscreteMeasure.from_points(np.asarray(points, dtype=float).reshape(len(points), -1))


def random_measure(rng, d, max_card=4, max_mult=3, scale=2.0):
    m = int(rng.integers(1, max_card + 1))
    atoms = rng.normal(scale=scale, size=(m, d))
    mults = rng.integers(1, max_mult + 1, size=m)
    return DiscreteMeasure(atoms, mults)


# ---------------------------------------------------------------------------
# w2_exact / w2_bruteforce


def test_w2_diracs():
    r = w2_exact(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0]))
    assert abs(r.distance - 2.0) < 1e-15


def test_w2_two_by_two_planar():
    mu = uniform([[0.0, 0.0], [1.0, 0.0]])
    nu = uniform([[0.0, 1.0], [1.0, 1.0]])
    r = w2_exact(mu, nu)
    assert abs(r.distance - 1.0) < 1e-15
    # the matching is the vertical shift, not the swap (cost 2)
    assert np.array_equal(r.plan.mass, np.array([[1, 0], [0, 1]]))
    assert abs(w2_bruteforce(mu, nu) - 1.0) < 1e-15


def test_w2_self_distance_zero_identity_plan():
    mu = DiscreteMeasure(np.array([[0.3, 1.0], [2.0, -1.0]]), np.array([2, 1]))
    r = w2_exact(mu, mu)
    assert r.distance == 0.0
    assert np.array_equal(r.plan.mass, np.diag(mu.multiplicities))


def test_w2_translation_of_collinear_points():
    mu = uniform([[0.0], [1.0], [2.0]])
    nu = uniform([[5.0], [6.0], [7.0]])
    assert abs(w2_bruteforce(mu, nu) - 5.0) < 1e-12
    assert abs(w2_exact(mu, nu).distance - 5.0) < 1e-12


def test_w2_matches_enumeration_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        mu = random_measure(rng, d)
        nu = random_measure(rng, d)
        n = math.lcm(mu.denominator, nu.denominator)
        if n > 7:
            continue
        xs = expand(mu, n).particles
        ys = expand(nu, n).particles
        want = math.sqrt(oracles.enum_w2_cost(xs, ys)[0])
        got = w2_exact(mu, nu)
        assert abs(got.distance - want) <= 1e-12 * max(1.0, want)
        assert abs(w2_bruteforce(mu, nu) - want) <= 1e-12 * max(1.0, want)
        # plan invariants and cost consistency
        assert abs(got.plan.cost() - got.distance**2) < 1e-12


def test_tie_detected_on_squares_not_on_generic_pairs():
    # {c +- (a, 0)} -> {c +- (0, a)}: all four moves cost 2a^2, so both
    # matchings are optimal, up to rounding in the squared distances
    rng = np.random.default_rng(21)
    for _ in range(200):
        c = rng.normal(scale=3.0, size=2)
        a = rng.uniform(0.1, 2.0)
        e0, e1 = np.array([a, 0.0]), np.array([0.0, a])
        assert w2_exact(uniform([c + e0, c - e0]), uniform([c + e1, c - e1])).tie_detected
    for _ in range(200):
        mu = random_measure(rng, 2)
        nu = random_measure(rng, 2)
        assert not w2_exact(mu, nu).tie_detected


def test_w2_dimension_mismatch():
    with pytest.raises(TransportError):
        w2_exact(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 0.0]))


def test_bruteforce_refuses_large_n():
    mu = DiscreteMeasure(np.zeros((1, 1)), np.array([9]))
    with pytest.raises(TransportError):
        w2_bruteforce(mu, mu)


def test_w2_metric_axioms_sampled():
    rng = np.random.default_rng(1)
    for _ in range(15):
        d = int(rng.integers(1, 3))
        a = random_measure(rng, d, max_card=3, max_mult=2)
        b = random_measure(rng, d, max_card=3, max_mult=2)
        c = random_measure(rng, d, max_card=3, max_mult=2)
        dab = w2_exact(a, b).distance
        dba = w2_exact(b, a).distance
        dac = w2_exact(a, c).distance
        dcb = w2_exact(c, b).distance
        assert abs(dab - dba) < 1e-9
        assert dab <= dac + dcb + 1e-9


def test_w2_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = np.array([3.0, -1.0])
    mu = random_measure(rng, 2)
    nu = random_measure(rng, 2)
    d0 = w2_exact(mu, nu).distance
    mu2 = DiscreteMeasure(mu.atoms @ rot.T + shift, mu.multiplicities)
    nu2 = DiscreteMeasure(nu.atoms @ rot.T + shift, nu.multiplicities)
    assert abs(w2_exact(mu2, nu2).distance - d0) < 1e-9


# ---------------------------------------------------------------------------
# w_infinity


def test_winf_diracs():
    assert abs(w_infinity(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0])) - 2.0) < 1e-15


def test_winf_bottleneck_prefers_small_max_move():
    mu = uniform([[0.0], [10.0]])
    nu = uniform([[1.0], [9.0]])
    assert abs(w_infinity(mu, nu) - 1.0) < 1e-12


def test_winf_self_zero():
    mu = uniform([[0.0, 1.0], [4.0, 4.0]])
    assert w_infinity(mu, mu) == 0.0


def test_winf_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        mu = random_measure(rng, d, max_card=3, max_mult=2)
        nu = random_measure(rng, d, max_card=3, max_mult=2)
        n = math.lcm(mu.denominator, nu.denominator)
        if n > 7:
            continue
        xs = expand(mu, n).particles
        ys = expand(nu, n).particles
        want = oracles.enum_winf(xs, ys)
        assert abs(w_infinity(mu, nu) - want) <= 1e-12 * max(1.0, want)


def test_winf_past_64_particles_matches_sorted_matching():
    # in 1-D the sorted matching minimises the worst move
    rng = np.random.default_rng(22)
    for _ in range(5):
        x = rng.normal(size=100)
        y = rng.normal(scale=2.0, size=100)
        want = float(np.max(np.abs(np.sort(x) - np.sort(y))))
        assert w_infinity(uniform(x), uniform(y)) == want


# ---------------------------------------------------------------------------
# cyclical monotonicity


def swap_coupling_2x2():
    mu = uniform([[0.0, 0.0], [1.0, 0.0]])
    nu = uniform([[0.0, 1.0], [1.0, 1.0]])
    return Coupling(mu, nu, np.array([[0, 1], [1, 0]]))


def test_cyclical_monotonicity_of_optimal_plans():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = random_measure(rng, 2, max_card=3, max_mult=2)
        nu = random_measure(rng, 2, max_card=3, max_mult=2)
        plan = w2_exact(mu, nu).plan
        size = len(plan.support_pairs())
        res = cyclical_monotonicity_check(plan, max_cycle=size)
        assert res.passes, res.witness


def test_cyclical_monotonicity_swap_fails_with_two_cycle():
    res = cyclical_monotonicity_check(swap_coupling_2x2(), max_cycle=2)
    assert not res.passes
    assert res.witness is not None and len(res.witness) == 2
    assert res.worst_sum < -1e-9


def test_cyclical_monotonicity_identity_passes():
    mu = DiscreteMeasure(np.array([[0.0], [5.0]]), np.array([1, 2]))
    res = cyclical_monotonicity_check(Coupling.identity(mu), max_cycle=3)
    assert res.passes


# ---------------------------------------------------------------------------
# local optimality certificate


def test_certificate_separated_source():
    mu = uniform([[0.0], [10.0]])
    nu = uniform([[4.0], [14.0]])
    gamma = Coupling(mu, nu, np.array([[1, 0], [0, 1]]))
    assert local_optimality_certificate(gamma) is Certificate.CERTIFIED_OPTIMAL
    # certificate never contradicts the exact solver
    assert abs(gamma.cost() - w2_exact(mu, nu).distance ** 2) < 1e-9


def test_certificate_identity():
    mu = uniform([[0.0, 0.0], [1.0, 1.0]])
    assert local_optimality_certificate(Coupling.identity(mu)) is Certificate.CERTIFIED_OPTIMAL


def test_certificate_swap_unknown():
    assert local_optimality_certificate(swap_coupling_2x2()) is Certificate.UNKNOWN


def test_certificate_random_small_moves():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        atoms = rng.normal(scale=5.0, size=(m, 2))
        mu = DiscreteMeasure.from_points(atoms)
        if mu.support_cardinality != m:
            continue
        delta = np.min(
            [np.linalg.norm(a - b) for i, a in enumerate(mu.atoms) for b in mu.atoms[i + 1 :]]
        )
        moves = rng.normal(size=(m, 2))
        moves *= 0.45 * delta / np.maximum(np.linalg.norm(moves, axis=1, keepdims=True), 1e-12)
        nu = DiscreteMeasure(mu.atoms + moves, mu.multiplicities)
        if nu.support_cardinality != m:
            continue
        gamma = w2_exact(mu, nu).plan
        assert local_optimality_certificate(gamma) is Certificate.CERTIFIED_OPTIMAL


# ---------------------------------------------------------------------------
# geodesic decomposition


def crossing_coupling():
    mu = uniform([[0.0, 0.0], [1.0, 1.0]])
    nu = uniform([[2.0, 0.0], [1.0, -1.0]])
    mass = np.zeros((2, 2), dtype=int)
    for i, a in enumerate(mu.atoms):
        for j, b in enumerate(nu.atoms):
            if (np.allclose(a, [0, 0]) and np.allclose(b, [2, 0])) or (
                np.allclose(a, [1, 1]) and np.allclose(b, [1, -1])
            ):
                mass[i, j] = 1
    return Coupling(mu, nu, mass)


def test_geodesic_optimal_plan_single_segment():
    rng = np.random.default_rng(6)
    for _ in range(5):
        mu = random_measure(rng, 2, max_card=3, max_mult=2)
        nu = random_measure(rng, 2, max_card=3, max_mult=2)
        bps = geodesic_decompose(w2_exact(mu, nu).plan, tol=1e-7)
        assert bps == [0.0, 1.0]


def test_geodesic_identity_coupling():
    mu = uniform([[0.0], [1.0]])
    assert geodesic_decompose(Coupling.identity(mu), tol=1e-7) == [0.0, 1.0]


def test_geodesic_crossing_coupling_breaks_at_half():
    gamma = crossing_coupling()
    # plan cost 4 exceeds the true squared distance 2, so one segment cannot work
    assert abs(gamma.cost() - 4.0) < 1e-15
    assert abs(w2_exact(gamma.mu, gamma.nu).distance ** 2 - 2.0) < 1e-12
    bps = geodesic_decompose(gamma, tol=1e-7)
    assert len(bps) >= 3
    assert abs(bps[1] - 0.5) < 1e-5
    speed = math.sqrt(gamma.cost())
    for a, b in zip(bps, bps[1:]):
        seg = w2_exact(interpolate(gamma, a), interpolate(gamma, b)).distance
        assert abs(seg - (b - a) * speed) <= 1e-6 * max(1.0, seg)
    # triangle-equality path length equals sqrt(plan cost)
    total = sum(
        w2_exact(interpolate(gamma, a), interpolate(gamma, b)).distance
        for a, b in zip(bps, bps[1:])
    )
    assert abs(total - speed) < 1e-6


def test_geodesic_segment_speeds_constant_within_segment():
    gamma = crossing_coupling()
    bps = geodesic_decompose(gamma, tol=1e-7)
    speed = math.sqrt(gamma.cost())
    for a, b in zip(bps, bps[1:]):
        for u, v in ((0.1, 0.7), (0.2, 0.9), (0.0, 0.5)):
            s = a + u * (b - a)
            t = a + v * (b - a)
            seg = w2_exact(interpolate(gamma, s), interpolate(gamma, t)).distance
            assert abs(seg - (t - s) * speed) <= 1e-6 * max(1.0, seg)


# ---------------------------------------------------------------------------
# chord alignment and injectivity perturbation


def test_chords_orthogonal_not_aligned():
    res = check_chords_alignment([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
    assert not res.aligned


def test_chords_parallel_aligned_with_witness():
    res = check_chords_alignment([[0.0, 0.0], [1.0, 1.0]], [[5.0, 5.0], [7.0, 7.0]])
    assert res.aligned
    chord, direction = res.witness
    assert abs(chord[0] * direction[1] - chord[1] * direction[0]) < 1e-12


def test_chords_singleton_b_not_aligned():
    res = check_chords_alignment([[0.0, 0.0], [1.0, 0.0]], [[3.0, 4.0]])
    assert not res.aligned


def test_chords_dimension_one_rejected():
    with pytest.raises(TransportError):
        check_chords_alignment([[0.0], [1.0]], [[2.0], [3.0]])


def test_verifier_rejects_unperturbed_parallel_sets():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert not verify_injectivity_family(a, a, a)


def test_perturbation_axis_aligned_pair():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    bp = perturb_for_injectivity(a, a, radius=1e-3, seed=0)
    assert np.all(np.linalg.norm(bp - a, axis=1) < 1e-3)
    assert verify_injectivity_family(a, a, bp)


def test_perturbation_random_cloud():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(10, 2))
    b = rng.normal(size=(10, 2))
    bp = perturb_for_injectivity(a, b, radius=1e-3, seed=99)
    assert np.all(np.linalg.norm(bp - b, axis=1) < 1e-3)
    assert verify_injectivity_family(a, b, bp)
    # interpolates stay unaligned at sampled s values as a spot check
    for s in (1e-6, 0.25, 0.5, 1.0):
        bs = (1 - s) * b + s * bp
        assert not check_chords_alignment(a, bs).aligned


def test_geodesic_error_reports_bracket():
    # Large coordinates make interpolation rounding exceed a tol this strict,
    # so long segments cannot be certified and the segment cap must trip.
    rng = np.random.default_rng(2024)
    base = np.array([[1.0e6, 1.0e6], [1.0e6 + 3.0, 1.0e6 + 2.0]]) + rng.normal(size=(2, 2))
    disp = rng.normal(scale=0.7, size=(2, 2))
    mu = DiscreteMeasure.from_points(base)
    nu = DiscreteMeasure.from_points(base + disp)
    # sorted atom order survives the displacement, so eye pairs base points
    gamma = Coupling(mu, nu, np.eye(2, dtype=int))
    with pytest.raises(GeodesicError) as exc_info:
        geodesic_decompose(gamma, tol=1e-16)
    assert exc_info.value.bracket is not None
    lo, hi = exc_info.value.bracket
    assert 0.0 <= lo < hi <= 1.0
