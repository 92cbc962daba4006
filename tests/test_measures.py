import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from wflow.measures import (
    Coupling,
    DiscreteMeasure,
    LagrangianVector,
    MeasureError,
    common_denominator,
    expand,
    expand_pair,
    interpolate,
    iota_project,
    measure_from_json,
    measure_stats,
    measure_to_json,
)


def uniform(points):
    return DiscreteMeasure.from_points(np.asarray(points, dtype=float).reshape(len(points), -1))


def test_duplicates_merge_on_construction():
    mu = uniform([[0.0], [0.0], [1.0]])
    assert mu.denominator == 3
    assert mu.support_cardinality == 2
    assert list(mu.multiplicities) == [2, 1]
    assert np.allclose(mu.atoms, [[0.0], [1.0]])


def test_canonical_atom_order_is_lexicographic():
    mu = DiscreteMeasure(
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        np.array([1, 1, 2]),
    )
    assert np.allclose(mu.atoms, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert list(mu.multiplicities) == [2, 1, 1]
    assert mu.denominator == 4


def test_invalid_measures_rejected():
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[np.nan]]), np.array([1]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[np.inf, 0.0]]), np.array([2]))


def test_weights_are_exact_rationals():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1, 2]))
    assert mu.denominator == 3
    assert np.allclose(mu.weights, [1.0 / 3.0, 2.0 / 3.0])


def test_iota_project_duplicate_collapse():
    x = LagrangianVector(np.array([[0.0], [0.0], [1.0]]))
    mu = iota_project(x, 0.0)
    assert mu.denominator == 3
    assert list(mu.multiplicities) == [2, 1]


def test_iota_project_singleton():
    mu = iota_project(LagrangianVector(np.array([[2.0]])), 0.0)
    assert mu.denominator == 1
    assert np.allclose(mu.atoms, [[2.0]])


def test_iota_project_weighted_mean_merge():
    # two unit masses at 0 and 1e-12 merge to their mean 5e-13
    x = LagrangianVector(np.array([[0.0], [1e-12]]))
    mu = iota_project(x, 1e-9)
    assert mu.support_cardinality == 1
    assert mu.denominator == 2
    assert abs(mu.atoms[0, 0] - 5e-13) < 1e-25


def test_iota_order_independent():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 2))
    pts[3] = pts[0]
    a = iota_project(LagrangianVector(pts), 0.0)
    b = iota_project(LagrangianVector(pts[::-1].copy()), 0.0)
    assert a == b


def test_iota_merges_transitive_chain_in_any_order():
    # steps of 0.5 link the chain although its ends are 1.5 apart
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0], [1.0, 0.0], [1.5, 0.0]])
    want = DiscreteMeasure(np.array([[0.75, 0.0], [5.0, 5.0]]), np.array([4, 1]))
    rng = np.random.default_rng(8)
    for _ in range(10):
        assert iota_project(LagrangianVector(pts[rng.permutation(5)]), 0.5) == want


def test_iota_merge_equals_graph_components_bitwise():
    # tight clusters take the equivalence shortcut, chains the graph search;
    # both must give connected_components' own atoms and multiplicities
    rng = np.random.default_rng(17)
    eps = 1e-3
    for k in range(400):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        centers = rng.normal(size=(int(rng.integers(1, n + 1)), d))
        pts = centers[rng.integers(0, centers.shape[0], size=n)]
        if k % 2:
            pts = pts + rng.uniform(-0.2, 0.2, size=pts.shape) * eps
        if k % 4 == 3:
            step = np.zeros(d)
            step[0] = 0.9 * eps
            pts[0] = pts[1] + step
            pts[-1] = pts[0] + step
        close = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1) <= eps * eps
        _, labels = connected_components(close, directed=False)
        centers = np.array([pts[labels == c].mean(axis=0) for c in range(labels.max() + 1)])
        got = iota_project(LagrangianVector(pts), eps)
        want = DiscreteMeasure(centers, np.bincount(labels))
        assert np.array_equal(got.atoms, want.atoms)
        assert np.array_equal(got.multiplicities, want.multiplicities)


def test_pairwise_allocations_are_capped():
    # 12000^2 float64 differences exceed 2**30 bytes: refused before allocating
    big = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1, 11999]))
    with pytest.raises(MeasureError, match="12000 particles in 1 dimensions"):
        expand_pair(big, big)
    with pytest.raises(MeasureError, match="12000 particles in 1 dimensions"):
        iota_project(expand(big, 12000), 1e-6)


def test_expand_uniform():
    mu = uniform([[0.0], [1.0]])
    x = expand(mu, 4)
    assert np.allclose(x.particles, [[0.0], [0.0], [1.0], [1.0]])


def test_expand_dirac():
    x = expand(DiscreteMeasure.dirac([3.0]), 2)
    assert np.allclose(x.particles, [[3.0], [3.0]])


def test_expand_multiplicity_scaling():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([2, 1]))
    x = expand(mu, 6)
    assert np.allclose(x.particles, [[0.0]] * 4 + [[1.0]] * 2)


def test_expand_divisibility_enforced():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([2, 1]))
    with pytest.raises(MeasureError):
        expand(mu, 4)


def test_round_trip_expand_iota():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(1, 5)
        atoms = rng.normal(size=(m, 2))
        mults = rng.integers(1, 4, size=m)
        mu = DiscreteMeasure(atoms, mults)
        for k in (1, 2, 3):
            assert iota_project(expand(mu, k * mu.denominator), 0.0) == mu


def test_lagrangian_inner_product_has_one_over_n_weight():
    x = LagrangianVector(np.array([[1.0], [1.0]]))
    y = LagrangianVector(np.array([[0.0], [2.0]]))
    assert abs(x.norm() - 1.0) < 1e-15
    assert abs(y.norm() - math.sqrt(2.0)) < 1e-15
    assert abs(x.inner(y) - 1.0) < 1e-15
    assert abs((x - y).norm() - 1.0) < 1e-15


def test_common_denominator_lcm_guard():
    a = DiscreteMeasure(np.array([[0.0]]), np.array([3001]))
    b = DiscreteMeasure(np.array([[1.0]]), np.array([4001]))
    assert common_denominator(a, a) == 3001
    with pytest.raises(MeasureError):
        common_denominator(a, b)


def test_coupling_validation():
    mu = uniform([[0.0], [1.0]])
    nu = uniform([[2.0], [3.0]])
    Coupling(mu, nu, np.array([[1, 0], [0, 1]]))
    with pytest.raises(MeasureError):
        Coupling(mu, nu, np.array([[2, 0], [0, 0]]))
    with pytest.raises(MeasureError):
        Coupling(mu, nu, np.array([[1, 0], [1, 0]]))


def test_coupling_cost_and_identity():
    mu = uniform([[0.0], [2.0]])
    gamma = Coupling.identity(mu)
    assert gamma.cost() == 0.0
    nu = uniform([[1.0], [3.0]])
    shift = Coupling(mu, nu, np.array([[1, 0], [0, 1]]))
    assert abs(shift.cost() - 1.0) < 1e-15


def test_interpolate_identity_returns_mu():
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([1, 3]))
    gamma = Coupling.identity(mu)
    for t in (0.0, 0.3, 1.0):
        assert interpolate(gamma, t) == mu


def test_interpolate_midpoint():
    gamma = Coupling(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0]), np.array([[1]]))
    mid = interpolate(gamma, 0.5)
    assert np.allclose(mid.atoms, [[1.0]])


def test_interpolate_collision_merges_atoms():
    # both segments pass through (1, 0) at t = 1/2
    mu = uniform([[0.0, 0.0], [1.0, 1.0]])
    nu = uniform([[2.0, 0.0], [1.0, -1.0]])
    mass = np.zeros((2, 2), dtype=int)
    for i, a in enumerate(mu.atoms):
        for j, b in enumerate(nu.atoms):
            if (np.allclose(a, [0, 0]) and np.allclose(b, [2, 0])) or (
                np.allclose(a, [1, 1]) and np.allclose(b, [1, -1])
            ):
                mass[i, j] = 1
    gamma = Coupling(mu, nu, mass)
    mid = interpolate(gamma, 0.5)
    assert mid.support_cardinality == 1
    assert list(mid.multiplicities) == [2]
    assert np.allclose(mid.atoms, [[1.0, 0.0]])
    with pytest.raises(MeasureError):
        interpolate(gamma, 1.5)


def test_measure_stats_dirac():
    s = measure_stats(DiscreteMeasure.dirac([0.0]))
    assert s.second_moment == 0.0
    assert s.diameter == 0.0
    assert s.support_cardinality == 1


def test_measure_stats_two_atoms():
    s = measure_stats(uniform([[0.0], [2.0]]))
    assert abs(s.second_moment - 2.0) < 1e-15
    assert abs(s.mean[0] - 1.0) < 1e-15
    assert abs(s.diameter - 2.0) < 1e-15
    assert s.support_cardinality == 2


def test_measure_stats_weighted():
    mu = DiscreteMeasure(np.array([[0.0], [3.0]]), np.array([1, 2]))
    s = measure_stats(mu)
    assert abs(s.second_moment - 6.0) < 1e-15


def test_json_round_trip():
    mu = DiscreteMeasure(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([2, 1]))
    d = measure_to_json(mu)
    assert d["dim"] == 2
    assert d["denominator"] == 3
    assert measure_from_json(d) == mu


def test_json_reader_validates():
    with pytest.raises(MeasureError):
        measure_from_json({"dim": 1, "denominator": 3, "atoms": [{"x": [0.0], "mult": 2}]})


def test_interpolated_second_moment_convexity_bound():
    # m2^2 along the interpolation never exceeds the endpoint average plus
    # the cross term; checked brute-force on small random couplings
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        mu = DiscreteMeasure.from_points(rng.normal(size=(n, 2)))
        nu = DiscreteMeasure.from_points(rng.normal(size=(n, 2)))
        perm = rng.permutation(n)
        mass = np.zeros((n, n), dtype=int)
        for i, j in enumerate(perm):
            mass[i, j] = 1
        gamma = Coupling(mu, nu, mass)
        for t in (0.25, 0.5, 0.75):
            mt = interpolate(gamma, t)
            x0, x1 = gamma.expanded_pairs()
            cross = 2.0 * t * (1 - t) * float(np.mean(np.sum(x0 * x1, axis=1)))
            bound = (
                (1 - t) ** 2 * measure_stats(mu).second_moment
                + t**2 * measure_stats(nu).second_moment
                + cross
            )
            assert measure_stats(mt).second_moment <= bound + 1e-12
