import dataclasses
import itertools
import math

import numpy as np
import pytest

from wflow.fields import (
    FieldError,
    VelocityField,
    barycentric_field,
    barycentric_projection,
    coupling_gap,
    eval_on_measure,
    field_from_json,
    field_to_json,
    functional_from_json,
    functional_value_and_field,
    lambda_transform,
    linear_field,
    metric_dissipativity_gap,
    profile,
    pw_field,
    pw_functional,
    total_dissipativity_check,
)
from wflow.measures import Coupling, DiscreteMeasure, iota_project
from wflow.transport import w2_exact


def uniform(points):
    return DiscreteMeasure.from_points(np.asarray(points, dtype=float).reshape(len(points), -1))


def random_measure(rng, d, max_card=4):
    m = int(rng.integers(1, max_card + 1))
    return DiscreteMeasure(rng.normal(size=(m, d)), rng.integers(1, 3, size=m))


def neg_identity(d=1):
    return linear_field(-np.eye(d), np.zeros(d))


def pos_identity(d=1):
    return linear_field(np.eye(d), np.zeros(d))


# ---------------------------------------------------------------------------
# evaluation


@pytest.mark.parametrize("kind", ["zero", "quadratic", "abs", "quartic"])
def test_profile_hessian_matches_differenced_gradient(kind):
    p = profile(kind, 1.7)
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        z = rng.normal(size=(4, d))
        h = 1e-6
        cols = [(p.grad(z + h * e) - p.grad(z - h * e)) / (2.0 * h) for e in np.eye(d)]
        assert np.allclose(p.hess(z), np.stack(cols, axis=-1), rtol=0.0, atol=1e-7)
    if kind == "abs":
        # zero at the kink, the same selection as the gradient
        assert np.array_equal(p.hess(np.zeros((1, 2))), np.zeros((1, 2, 2)))


def test_eval_linear_field_on_measure():
    res = eval_on_measure(neg_identity(), uniform([[1.0], [3.0]]))
    assert np.allclose(res.velocities, [[-1.0], [-3.0]])
    assert abs(res.l2_norm - math.sqrt(5.0)) < 1e-15


def test_eval_constant_field():
    const = linear_field(np.zeros((2, 2)), np.array([0.5, -1.0]))
    res = eval_on_measure(const, uniform([[0.0, 0.0], [4.0, 4.0]]))
    assert np.allclose(res.velocities, [[0.5, -1.0], [0.5, -1.0]])


def test_eval_abs_interaction_uses_zero_at_kink():
    f = pw_field(profile("zero"), profile("abs"))
    res = eval_on_measure(f, uniform([[-1.0], [1.0]]))
    assert np.allclose(res.velocities, [[0.5], [-0.5]])
    assert abs(res.l2_norm - 0.5) < 1e-15


def test_eval_quadratic_interaction_is_mean_attraction():
    f = pw_field(profile("zero"), profile("quadratic"))
    res = eval_on_measure(f, uniform([[0.0], [2.0]]))
    assert np.allclose(res.velocities, [[1.0], [-1.0]])


BARYCENTRIC_JSON = {"kind": "barycentric", "params": {"strength": 1.5, "drift": [0.3, -0.2]}}
PW_JSON = {
    "kind": "pw",
    "params": {"potential": {"kind": "quartic"}, "interaction": {"kind": "abs", "coeff": 0.5}},
}
SUPERPOSITION_JSON = {
    "kind": "superposition",
    "params": {
        "components": [
            {"weight": 0.25, "field": BARYCENTRIC_JSON},
            {"weight": 0.75, "field": PW_JSON},
        ]
    },
}


@pytest.mark.parametrize(
    "make_field",
    [
        lambda: linear_field(np.array([[0.5, -1.0], [2.0, -0.3]]), np.array([0.1, 0.7])),
        lambda: barycentric_field(1.3, np.array([0.2, -0.1])),
        lambda: pw_field(profile("quadratic", 0.7), profile("abs", 0.3)),
        lambda: field_from_json(SUPERPOSITION_JSON),
        lambda: lambda_transform(pw_field(profile("quartic"), profile("quadratic", 2.0)), 0.4),
    ],
    ids=["linear", "barycentric", "pw", "superposition", "lambda_transform"],
)
def test_evaluate_is_one_row_batch(make_field):
    f = make_field()
    rng = np.random.default_rng(12)
    mu = DiscreteMeasure(rng.normal(size=(3, 2)), np.array([1, 2, 1]))
    # include an atom so the abs kink is hit at zero separation
    for x in list(rng.normal(size=(4, 2))) + [mu.atoms[1]]:
        assert np.array_equal(f.evaluate(x, mu), f.evaluate_batch(x[None], mu)[0])


# ---------------------------------------------------------------------------
# lambda transform


def test_lambda_transform_zero_is_identity():
    f = neg_identity()
    g = lambda_transform(f, 0.0)
    mu = uniform([[2.0]])
    assert np.allclose(g.evaluate(np.array([2.0]), mu), f.evaluate(np.array([2.0]), mu))
    assert g.lambda_claim == f.lambda_claim


def test_lambda_transform_cancels_linear_growth():
    g = lambda_transform(pos_identity(), 1.0)
    mu = uniform([[3.0]])
    assert np.allclose(g.evaluate(np.array([3.0]), mu), [0.0])
    assert g.lambda_claim == 0.0


def test_lambda_transform_two_x():
    f = linear_field(2.0 * np.eye(1), np.zeros(1))
    g = lambda_transform(f, 2.0)
    mu = uniform([[1.5]])
    assert np.allclose(g.evaluate(np.array([1.5]), mu), [0.0])
    rng = np.random.default_rng(0)
    a = DiscreteMeasure.from_points(rng.normal(size=(3, 1)))
    b = DiscreteMeasure.from_points(rng.normal(size=(3, 1)))
    assert total_dissipativity_check(g, a, b, 0.0, mode="exhaustive").passes


def test_lambda_transform_gap_identity_coupling_by_coupling():
    # the gap of (f, lam) equals the gap of (f - lam*id, 0) on every coupling
    rng = np.random.default_rng(1)
    f = barycentric_field(1.3, np.array([0.2, -0.1]))
    lam = 0.7
    g = lambda_transform(f, lam)
    for _ in range(5):
        mu0 = random_measure(rng, 2, max_card=3)
        mu1 = random_measure(rng, 2, max_card=3)
        n = math.lcm(mu0.denominator, mu1.denominator)
        if n > 6:
            continue
        for perm in itertools.permutations(range(n)):
            mass = _perm_coupling_mass(mu0, mu1, n, perm)
            gamma = Coupling(mu0, mu1, mass)
            lhs = coupling_gap(f, mu0, mu1, lam, gamma)
            rhs = coupling_gap(g, mu0, mu1, 0.0, gamma)
            assert abs(lhs - rhs) < 1e-10


def _perm_coupling_mass(mu0, mu1, n, perm):
    scale0 = n // mu0.denominator
    scale1 = n // mu1.denominator
    idx0 = np.repeat(np.arange(mu0.support_cardinality), mu0.multiplicities * scale0)
    idx1 = np.repeat(np.arange(mu1.support_cardinality), mu1.multiplicities * scale1)
    mass = np.zeros((mu0.support_cardinality, mu1.support_cardinality), dtype=int)
    for slot, src in enumerate(perm):
        mass[idx0[src], idx1[slot]] += 1
    return mass


# ---------------------------------------------------------------------------
# dissipativity gaps


def test_metric_gap_contractive_linear_field():
    rng = np.random.default_rng(2)
    f = neg_identity(2)
    for _ in range(5):
        mu0 = random_measure(rng, 2)
        mu1 = random_measure(rng, 2)
        plan = w2_exact(mu0, mu1).plan
        gap = metric_dissipativity_gap(f, mu0, mu1, 0.0)
        assert abs(gap + plan.cost()) < 1e-12
        assert gap <= 1e-12


def test_metric_gap_same_measure_zero():
    mu = uniform([[0.0], [1.0]])
    assert abs(metric_dissipativity_gap(neg_identity(), mu, mu, 0.0)) < 1e-15


def test_metric_gap_expansion_field_violates():
    gap = metric_dissipativity_gap(pos_identity(), uniform([[0.0]]), uniform([[1.0]]), 0.0)
    assert abs(gap - 1.0) < 1e-15


def test_total_check_barycentric_passes_exhaustive():
    rng = np.random.default_rng(3)
    f = barycentric_field(1.0, np.zeros(2))
    for _ in range(10):
        mu0 = DiscreteMeasure.from_points(rng.normal(size=(4, 2)))
        mu1 = DiscreteMeasure.from_points(rng.normal(size=(4, 2)))
        rep = total_dissipativity_check(f, mu0, mu1, 0.0, mode="exhaustive")
        assert rep.passes
        assert rep.worst_gap <= 1e-9


def test_total_check_expansion_fails_with_witness():
    rng = np.random.default_rng(4)
    f = pos_identity(2)
    mu0 = DiscreteMeasure.from_points(rng.normal(size=(3, 2)))
    mu1 = DiscreteMeasure.from_points(rng.normal(size=(3, 2)))
    rep = total_dissipativity_check(f, mu0, mu1, 0.0, mode="exhaustive")
    assert not rep.passes
    assert rep.witness is not None
    # the witness reproduces the reported worst gap
    direct = coupling_gap(f, mu0, mu1, 0.0, rep.witness)
    assert abs(direct - rep.worst_gap) < 1e-12


def test_total_check_lipschitz_field_at_twice_lipschitz_lambda():
    # rotation by 90 degrees around the barycenter, scaled by L: Lipschitz in
    # the state and in the measure argument, dissipative at 2L
    L = 0.8
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def ev(pts, mu):
        return L * ((pts - mu.mean()) @ rot.T)

    f = VelocityField(batch_fn=ev, lambda_claim=2 * L)
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu0 = DiscreteMeasure.from_points(rng.normal(size=(4, 2)))
        mu1 = DiscreteMeasure.from_points(rng.normal(size=(4, 2)))
        rep = total_dissipativity_check(f, mu0, mu1, 2 * L, mode="exhaustive")
        assert rep.passes


def test_total_check_sampled_mode_seeded():
    f = barycentric_field(1.0, np.zeros(1))
    rng = np.random.default_rng(6)
    mu0 = DiscreteMeasure.from_points(rng.normal(size=(5, 1)))
    mu1 = DiscreteMeasure.from_points(rng.normal(size=(5, 1)))
    a = total_dissipativity_check(f, mu0, mu1, 0.0, mode="sampled", n_samples=64, seed=11)
    b = total_dissipativity_check(f, mu0, mu1, 0.0, mode="sampled", n_samples=64, seed=11)
    assert a.passes and b.passes
    assert a.worst_gap == b.worst_gap
    with pytest.raises(FieldError):
        total_dissipativity_check(f, mu0, mu1, 0.0, mode="sampled", n_samples=64, seed=None)


def test_total_check_exhaustive_denominator_cap():
    f = barycentric_field(1.0, np.zeros(1))
    big = DiscreteMeasure(np.arange(9, dtype=float).reshape(9, 1), np.ones(9, dtype=int))
    with pytest.raises(FieldError):
        total_dissipativity_check(f, big, big, 0.0, mode="exhaustive")


def test_pw_subgradient_field_dissipative_at_zero():
    rng = np.random.default_rng(7)
    combos = [
        (profile("quadratic"), profile("abs")),
        (profile("abs"), profile("quadratic", 0.5)),
        (profile("quartic"), profile("quartic", 2.0)),
        (profile("zero"), profile("abs", 1.5)),
    ]
    for pot, inter in combos:
        f = pw_field(pot, inter)
        for _ in range(3):
            mu0 = random_measure(rng, 2, max_card=3)
            mu1 = random_measure(rng, 2, max_card=3)
            if math.lcm(mu0.denominator, mu1.denominator) > 5:
                continue
            rep = total_dissipativity_check(f, mu0, mu1, 0.0, mode="exhaustive")
            assert rep.passes, (pot.kind, inter.kind, rep.worst_gap)


# ---------------------------------------------------------------------------
# superposition


def test_projection_single_component_identity():
    f = neg_identity()
    g = barycentric_projection([(1.0, f)])
    mu = uniform([[2.0]])
    assert np.allclose(g.evaluate(np.array([2.0]), mu), f.evaluate(np.array([2.0]), mu))


def test_projection_opposite_drifts_cancel():
    v = np.array([1.0, -2.0])
    up = linear_field(np.zeros((2, 2)), v)
    down = linear_field(np.zeros((2, 2)), -v)
    g = barycentric_projection([(0.5, up), (0.5, down)])
    mu = uniform([[0.0, 0.0]])
    assert np.allclose(g.evaluate(np.zeros(2), mu), np.zeros(2))


def test_projection_averages_linear_slopes():
    comps = [(1.0 / 3.0, linear_field(th * np.eye(1), np.zeros(1))) for th in (1.0, 2.0, 3.0)]
    g = barycentric_projection(comps)
    mu = uniform([[1.0]])
    assert np.allclose(g.evaluate(np.array([1.0]), mu), [2.0])


def test_superposition_weights_validated():
    f = neg_identity()
    with pytest.raises(FieldError):
        barycentric_projection([(0.4, f), (0.4, f)])
    with pytest.raises(FieldError):
        barycentric_projection([(-0.5, f), (1.5, f)])


def test_projection_preserves_dissipativity():
    rng = np.random.default_rng(8)
    comps = [(0.25, barycentric_field(0.5, np.zeros(2))), (0.75, neg_identity(2))]
    g = barycentric_projection(comps)
    for _ in range(5):
        mu0 = random_measure(rng, 2, max_card=3)
        mu1 = random_measure(rng, 2, max_card=3)
        if math.lcm(mu0.denominator, mu1.denominator) > 6:
            continue
        assert total_dissipativity_check(g, mu0, mu1, 0.0, mode="exhaustive").passes


# ---------------------------------------------------------------------------
# functionals


def test_quadratic_interaction_energy_value_and_field():
    # value: (1/2) * (1/4) * (W(2) + W(-2)) with W(z) = z^2/2, so 1/2
    phi = pw_functional(profile("zero"), profile("quadratic"))
    res = functional_value_and_field(phi, uniform([[0.0], [2.0]]))
    assert abs(res.value - 0.5) < 1e-15
    assert np.allclose(res.velocities, [[1.0], [-1.0]])


def test_quadratic_potential_energy_on_dirac():
    phi = pw_functional(profile("quadratic"), profile("zero"))
    for x in (0.5, -2.0):
        res = functional_value_and_field(phi, DiscreteMeasure.dirac([x]))
        assert abs(res.value - 0.5 * x * x) < 1e-15
        assert np.allclose(res.velocities, [[-x]])


def test_abs_interaction_energy():
    phi = pw_functional(profile("zero"), profile("abs"))
    res = functional_value_and_field(phi, uniform([[-1.0], [1.0]]))
    assert abs(res.value - 0.5) < 1e-15
    assert np.allclose(res.velocities, [[0.5], [-0.5]])


def test_lifted_energy_permutation_invariant():
    phi = pw_functional(profile("quadratic", 0.7), profile("abs", 0.3))
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(5, 2))
    base = phi.phi(iota_project_from(pts))
    for perm in itertools.permutations(range(5)):
        assert phi.phi(iota_project_from(pts[list(perm)])) == base


def iota_project_from(pts):
    from wflow.measures import LagrangianVector

    return iota_project(LagrangianVector(np.asarray(pts, dtype=float)), 0.0)


def test_functional_metadata():
    phi = pw_functional(profile("quadratic", 2.0), profile("abs"))
    assert phi.potential == profile("quadratic", 2.0) and phi.interaction == profile("abs")
    assert abs(phi.potential.convexity_modulus - 2.0) < 1e-15
    assert abs(phi.subgradient_field.lambda_claim + 2.0) < 1e-15


# ---------------------------------------------------------------------------
# serialization


def test_field_json_round_trip_linear():
    f = linear_field(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    d = field_to_json(f)
    g = field_from_json(d)
    mu = uniform([[1.0, 2.0]])
    x = np.array([1.0, 2.0])
    assert np.allclose(f.evaluate(x, mu), g.evaluate(x, mu))
    assert g.lambda_claim == f.lambda_claim


def test_field_json_round_trip_barycentric_and_pw():
    for f in (
        barycentric_field(1.5, np.array([0.0, 1.0])),
        pw_field(profile("quadratic", 0.5), profile("abs", 2.0)),
    ):
        g = field_from_json(field_to_json(f))
        mu = uniform([[0.0, 0.0], [1.0, 1.0]])
        x = np.array([0.25, -1.0])
        assert np.allclose(f.evaluate(x, mu), g.evaluate(x, mu))


def test_field_json_round_trip_superposition():
    g = barycentric_projection(
        [(0.5, linear_field(np.eye(1), np.zeros(1))), (0.5, barycentric_field(2.0, np.zeros(1)))]
    )
    h = field_from_json(field_to_json(g))
    mu = uniform([[0.0], [4.0]])
    x = np.array([1.0])
    assert np.allclose(g.evaluate(x, mu), h.evaluate(x, mu))


def test_field_json_respects_lambda_override():
    d = field_to_json(neg_identity())
    d["lambda"] = 0.0
    assert field_from_json(d).lambda_claim == 0.0


def test_functional_from_json():
    phi = pw_functional(profile("quadratic"), profile("abs", 0.5))
    d = field_to_json(phi.subgradient_field)
    psi = functional_from_json({"kind": "pw", "params": d["params"]})
    mu = uniform([[0.0], [1.0]])
    assert abs(psi.phi(mu) - phi.phi(mu)) < 1e-15
    with pytest.raises(FieldError):
        functional_from_json({"kind": "linear", "params": {}})


def test_field_json_rejects_unknown_kind():
    with pytest.raises(FieldError):
        field_from_json({"kind": "mystery", "params": {}})
