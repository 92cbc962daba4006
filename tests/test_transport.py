import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import oracles
import wflow.transport as transport
from wflow.measures import Coupling, DiscreteMeasure, expand, expand_pair, interpolate
from wflow.transport import (
    ATOM_LP_MIN_PARTICLES,
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


def assignment_w2(mu, nu):
    # independent oracle: the optimal matching of the full particle expansion
    xs, ys, _, _ = expand_pair(mu, nu)
    d2 = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(d2)
    return math.sqrt(float(np.sum(d2[rows, cols])) / xs.shape[0])


def composition(rng, total, parts):
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]]))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(transport, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, name, spy)
    return calls


def check_exact_result(res, want):
    assert math.isclose(res.distance, want, rel_tol=1e-12)
    mass = res.plan.mass
    assert mass.dtype == np.int64 and np.all(mass >= 0)
    n = res.plan.denominator
    assert np.array_equal(mass.sum(axis=1), res.plan.mu.multiplicities * (n // res.plan.mu.denominator))
    assert np.array_equal(mass.sum(axis=0), res.plan.nu.multiplicities * (n // res.plan.nu.denominator))
    assert math.isclose(res.plan.cost(), res.distance**2, rel_tol=1e-12)
    assert isinstance(res.tie_detected, bool)


def test_w2_atom_lp_matches_assignment_on_coprime_pairs(monkeypatch):
    # a third of the pairs sit on integer grids, where equal costs make ties
    lp_calls = count_calls(monkeypatch, "linprog")
    rng = np.random.default_rng(31)
    trials = 0
    for p, q in ((13, 17), (23, 29), (31, 37)):
        for k in range(12):
            d = 1 + k % 3
            ka, kb = (int(v) for v in rng.integers(2, 9, size=2))
            if k % 3 == 0:
                a = rng.integers(-2, 3, size=(ka, d)).astype(float)
                b = rng.integers(-2, 3, size=(kb, d)).astype(float)
            else:
                a, b = rng.normal(size=(ka, d)), rng.normal(size=(kb, d))
            mu = DiscreteMeasure(a, composition(rng, p, ka))
            nu = DiscreteMeasure(b, composition(rng, q, kb))
            check_exact_result(w2_exact(mu, nu), assignment_w2(mu, nu))
            trials += 1
    assert len(lp_calls) == trials


def test_w2_atom_lp_certifies_near_tied_costs():
    # targets within 1e-9 of source atoms give costs near 0 beside costs near
    # 1; solved unscaled, HiGHS stopped on vertices 1e-10 from optimal here
    rng = np.random.default_rng(41)
    for k in range(24):
        d = 1 + k % 3
        ka, kb = (int(v) for v in rng.integers(3, 9, size=2))
        a = rng.normal(size=(ka, d))
        b = a[rng.integers(0, ka, size=kb)] + rng.normal(scale=1e-9, size=(kb, d))
        mu = DiscreteMeasure(a, composition(rng, 23, ka))
        nu = DiscreteMeasure(b, composition(rng, 29, kb))
        check_exact_result(w2_exact(mu, nu), assignment_w2(mu, nu))


def test_w2_solvers_agree_across_the_dispatch_boundary(monkeypatch):
    lp_calls = count_calls(monkeypatch, "linprog")
    rng = np.random.default_rng(7)
    # lcm(11, 18) = 198 and lcm(8, 25) = 200 straddle the threshold
    assert 198 < ATOM_LP_MIN_PARTICLES <= 200
    for (p, q), lp in (((11, 18), 0), ((8, 25), 1)):
        mu = DiscreteMeasure(rng.normal(size=(4, 2)), composition(rng, p, 4))
        nu = DiscreteMeasure(rng.normal(size=(5, 2)), composition(rng, q, 5))
        before = len(lp_calls)
        check_exact_result(w2_exact(mu, nu), assignment_w2(mu, nu))
        assert len(lp_calls) - before == lp
    # a uniform cloud has k1 * k2 = n^2 atom pairs, so it stays on the assignment
    cloud_a, cloud_b = uniform(rng.normal(size=(200, 2))), uniform(rng.normal(size=(200, 2)))
    check_exact_result(w2_exact(cloud_a, cloud_b), assignment_w2(cloud_a, cloud_b))
    assert len(lp_calls) == 1


def test_w2_atom_lp_matches_sorted_rearrangement_in_1d():
    rng = np.random.default_rng(3)
    for p, q in ((61, 67), (97, 101)):
        xa, xb = np.sort(rng.normal(size=3)), np.sort(rng.normal(size=4))
        ma, mb = composition(rng, p, 3), composition(rng, q, 4)
        res = w2_exact(DiscreteMeasure(xa[:, None], ma), DiscreteMeasure(xb[:, None], mb))
        check_exact_result(res, oracles.sorted_1d_w2(xa, ma, xb, mb))


def lp_pair():
    # 1-D and sorted, so the anti-monotone plan is a feasible vertex far from optimal
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [3.0]]), np.array([5, 4, 4]))
    nu = DiscreteMeasure(np.array([[-1.0], [0.5], [2.0], [4.0]]), np.array([3, 5, 5, 4]))
    return mu, nu


def anti_monotone_plan(rows, cols):
    # north-west corner rule with the target order reversed
    rows, cols = rows.copy(), cols[::-1].copy()
    plan = np.zeros((rows.size, cols.size))
    i = j = 0
    while i < rows.size and j < cols.size:
        m = min(rows[i], cols[j])
        plan[i, j] = m
        rows[i] -= m
        cols[j] -= m
        i += rows[i] == 0
        j += cols[j] == 0
    return plan[:, ::-1]


def corrupt_non_optimal(res, rows, cols):
    res.x = anti_monotone_plan(rows, cols).ravel()


def corrupt_fractional(res, rows, cols):
    res.x = 0.63 * res.x + 0.37 * anti_monotone_plan(rows, cols).ravel()


def corrupt_duals(res, rows, cols):
    res.eqlin.marginals = res.eqlin.marginals + np.r_[np.full(rows.size, 0.5), np.zeros(cols.size)]


def corrupt_status(res, rows, cols):
    res.status, res.message = 2, "The problem is infeasible."


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (corrupt_status, "failed"),
        (corrupt_non_optimal, "not optimal"),
        (corrupt_fractional, "fractional"),
        (corrupt_duals, "reduced cost is negative"),
    ],
    ids=["status", "non_optimal_vertex", "fractional", "infeasible_duals"],
)
def test_w2_atom_lp_fails_loudly_without_fallback(monkeypatch, corrupt, reason):
    mu, nu = lp_pair()
    n = mu.denominator * nu.denominator
    assert n >= ATOM_LP_MIN_PARTICLES
    rows, cols = mu.multiplicities * (n // mu.denominator), nu.multiplicities * (n // nu.denominator)
    real = transport.linprog

    def bad_linprog(*args, **kwargs):
        res = real(*args, **kwargs)
        corrupt(res, rows.astype(float), cols.astype(float))
        return res

    def no_fallback(*args, **kwargs):
        raise AssertionError("the assignment ran after the LP failed")

    assert w2_exact(mu, nu).distance == pytest.approx(
        oracles.sorted_1d_w2([0.0, 1.0, 3.0], [5, 4, 4], [-1.0, 0.5, 2.0, 4.0], [3, 5, 5, 4]),
        rel=1e-12,
    )
    monkeypatch.setattr(transport, "linprog", bad_linprog)
    monkeypatch.setattr(transport, "linear_sum_assignment", no_fallback)
    with pytest.raises(TransportError, match=f"atom transport LP.*{reason}"):
        w2_exact(mu, nu)


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
