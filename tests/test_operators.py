import dataclasses
import math

import numpy as np
import pytest

import oracles
from wflow import operators
from wflow.fields import barycentric_field, linear_field, profile, pw_field, pw_functional
from wflow.flows import ExplicitScheme, FlowError, ImplicitScheme, evolve
from wflow.measures import LagrangianVector, iota_project
from wflow.operators import (
    LagrangianOperator,
    OperatorError,
    SolverConfig,
    experiment_pairs,
    exponential_semigroup,
    minimal_selection_estimate,
    operator_dissipativity_check,
    resolvent,
    yosida,
)


def lag(rows):
    return LagrangianVector(np.asarray(rows, dtype=float).reshape(len(rows), -1))


def neg_identity_op(d=1, lam=None):
    f = linear_field(-np.eye(d), np.zeros(d))
    if lam is not None:
        f = dataclasses.replace(f, lambda_claim=lam)
    return LagrangianOperator.from_velocity_field(f)


def zero_op(d=1):
    return LagrangianOperator.from_velocity_field(linear_field(np.zeros((d, d)), np.zeros(d)))


def abs_pair_op():
    return LagrangianOperator.from_functional(pw_functional(profile("zero"), profile("abs")))


def trajectory(op, scheme, total_time, x0):
    """Particle states of the flow of ``op`` started from the lift ``x0``."""
    driver = op.functional if op.functional is not None else op.field
    return evolve(driver, iota_project(x0, 0.0), scheme, T=total_time, lift=x0).lagrangian


# ---------------------------------------------------------------------------
# resolvent


def test_resolvent_linear_closed_form():
    x = resolvent(neg_identity_op(), 0.5, lag([[1.0]]))
    assert abs(x.particles[0, 0] - 2.0 / 3.0) < 1e-10


def test_resolvent_zero_field_is_identity():
    y = lag([[0.3], [-2.0]])
    x = resolvent(zero_op(), 0.7, y)
    assert np.allclose(x.particles, y.particles, atol=1e-12)


def test_resolvent_abs_pair_shrinks_gap():
    x = resolvent(abs_pair_op(), 1.0, lag([[-1.0], [1.0]]))
    assert np.allclose(x.particles, [[-0.5], [0.5]], atol=1e-8)


def test_resolvent_abs_pair_matches_grid_search():
    tau = 0.35
    ys = np.array([-0.8, 1.1])
    fn = oracles.prox_objective_1d(ys, tau, interaction=oracles.abs_profile())
    best, _ = oracles.zoom_grid_minimize(fn, ys, radius=1.5, rounds=12, pts=25)
    x = resolvent(abs_pair_op(), tau, lag(ys.reshape(2, 1)))
    assert np.allclose(x.particles.ravel(), best, atol=1e-6)


def test_resolvent_abs_pair_collision_regime_matches_grid_search():
    # threshold exceeded: the two particles land together at the midpoint
    tau = 2.5
    ys = np.array([-1.0, 1.0])
    fn = oracles.prox_objective_1d(ys, tau, interaction=oracles.abs_profile())
    best, _ = oracles.zoom_grid_minimize(fn, ys, radius=1.5, rounds=12, pts=25)
    x = resolvent(abs_pair_op(), tau, lag(ys.reshape(2, 1)))
    assert np.allclose(x.particles.ravel(), best, atol=1e-6)
    assert abs(x.particles[0, 0] - x.particles[1, 0]) < 1e-10


def test_resolvent_quartic_matches_grid_search():
    tau = 0.4
    ys = np.array([-0.6, 0.9])
    phi = pw_functional(profile("quadratic", 0.5), profile("quartic", 2.0))
    op = LagrangianOperator.from_functional(phi)
    fn = oracles.prox_objective_1d(
        ys,
        tau,
        potential=oracles.quad_profile(0.5),
        interaction=oracles.quartic_profile(2.0),
    )
    best, _ = oracles.zoom_grid_minimize(fn, ys, radius=1.0, rounds=12, pts=25)
    x = resolvent(op, tau, lag(ys.reshape(2, 1)))
    assert np.allclose(x.particles.ravel(), best, atol=1e-6)


def test_resolvent_tau_validation_for_expanding_field():
    f = linear_field(np.eye(1), np.zeros(1))
    op = LagrangianOperator.from_velocity_field(f)
    with pytest.raises(OperatorError):
        resolvent(op, 1.5, lag([[1.0]]))
    x = resolvent(op, 0.5, lag([[1.0]]))
    assert abs(x.particles[0, 0] - 2.0) < 1e-9


def test_resolvent_lipschitz_in_y():
    rng = np.random.default_rng(0)
    op = neg_identity_op(2)
    tau = 0.3
    bound = 1.0 / (1.0 - op.lam * tau)
    for _ in range(10):
        ya = LagrangianVector(rng.normal(size=(4, 2)))
        yb = LagrangianVector(rng.normal(size=(4, 2)))
        dy = (ya - yb).norm()
        dx = (resolvent(op, tau, ya) - resolvent(op, tau, yb)).norm()
        assert dx <= bound * dy + 1e-9


def test_resolvent_permutation_equivariance():
    rng = np.random.default_rng(1)
    phi = pw_functional(profile("quadratic"), profile("abs"))
    op = LagrangianOperator.from_functional(phi)
    y = rng.normal(size=(5, 2))
    perm = rng.permutation(5)
    a = resolvent(op, 0.2, LagrangianVector(y))
    b = resolvent(op, 0.2, LagrangianVector(y[perm]))
    assert np.allclose(a.particles[perm], b.particles, atol=1e-9)


def test_solver_config_json():
    cfg = SolverConfig(tol=1e-8, max_iter=500)
    assert cfg.tol == 1e-8 and cfg.max_iter == 500
    for bad in ({"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": 0}):
        with pytest.raises(OperatorError):
            SolverConfig(**bad)


def test_forced_solver_paths_agree(monkeypatch):
    # one smooth problem solved on all three paths, each picked by the operator
    taken = []

    def spy(name):
        solve = getattr(operators, name)
        return lambda *args: taken.append(name) or solve(*args)

    for name in ("_solve_fixed_point", "_solve_prox", "_solve_newton"):
        monkeypatch.setattr(operators, name, spy(name))
    f = barycentric_field(1.0, np.zeros(2))
    y = LagrangianVector(np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]]))
    want = resolvent(LagrangianOperator.from_velocity_field(f), 0.25, y)
    # without a Lipschitz bound and without an energy only the residual newton applies
    no_bound = LagrangianOperator.from_velocity_field(dataclasses.replace(f, lip=None))
    got_newton = resolvent(no_bound, 0.25, y)
    assert np.allclose(want.particles, got_newton.particles, atol=1e-8)
    # same interaction dynamics as the barycentric field with unit strength
    phi = pw_functional(profile("zero"), profile("quadratic"))
    op = LagrangianOperator(dataclasses.replace(phi.subgradient_field, lip=None), phi)
    got_prox = resolvent(op, 0.25, y)
    assert np.allclose(want.particles, got_prox.particles, atol=1e-8)
    assert taken == ["_solve_fixed_point", "_solve_newton", "_solve_prox"]


def test_residual_newton_stiff_barycentric_closed_form():
    # tau * strength = 2.5: no contraction, no energy, so the residual newton runs
    s, tau = 50.0, 0.05
    op = LagrangianOperator.from_velocity_field(barycentric_field(s, np.zeros(2)))
    y = np.random.default_rng(7).normal(size=(5, 2))
    x = resolvent(op, tau, LagrangianVector(y))
    want = (y + tau * s * y.mean(axis=0)) / (1.0 + tau * s)
    assert np.allclose(x.particles, want, rtol=0.0, atol=1e-10)


def test_prox_abs_1d_matches_pooling_oracle():
    # zero and quadratic potentials: every n against the min-max pooling formula
    rng = np.random.default_rng(11)
    for pot, a in ((profile("zero"), 0.0), (profile("quadratic", 0.7), 0.7)):
        op = LagrangianOperator.from_functional(pw_functional(pot, profile("abs", 1.3)))
        for n in range(2, 17):
            for tau in (0.05, 0.5, 2.0):
                y = rng.normal(size=n)
                x = resolvent(op, tau, lag(y.reshape(n, 1))).particles.ravel()
                want = oracles.pooled_abs_prox_1d(y, tau, coeff=1.3, quad=a)
                assert np.allclose(x, want, rtol=0.0, atol=1e-12), (pot.kind, n, tau)


@pytest.mark.parametrize(
    "pot, pot_fn",
    [(profile("abs", 0.4), oracles.abs_profile(0.4)), (profile("quartic", 1.5), oracles.quartic_profile(1.5))],
    ids=["abs", "quartic"],
)
def test_prox_abs_1d_kinked_and_quartic_potentials_match_grid_search(pot, pot_fn):
    op = LagrangianOperator.from_functional(pw_functional(pot, profile("abs")))
    for tau, ys in ((0.3, [-0.8, 1.1]), (1.5, [0.2, 0.9]), (0.6, [-0.1, 0.05])):
        ys = np.array(ys)
        fn = oracles.prox_objective_1d(ys, tau, potential=pot_fn, interaction=oracles.abs_profile())
        best, fbest = oracles.zoom_grid_minimize(fn, ys, radius=1.5, rounds=12, pts=25)
        x = resolvent(op, tau, lag(ys.reshape(2, 1))).particles.ravel()
        assert np.allclose(x, best, atol=1e-6)
        assert fn(x) <= fbest + 1e-15


@pytest.mark.parametrize(
    "pot, inter, dim",
    [(profile("zero"), profile("abs"), 1), (profile("quadratic", 0.5), profile("quartic", 2.0), 2)],
    ids=["abs", "quartic"],
)
def test_pw_field_resolvent_equals_functional(pot, inter, dim):
    y = LagrangianVector(np.random.default_rng(3).normal(size=(5, dim)))
    via_field = resolvent(LagrangianOperator.from_velocity_field(pw_field(pot, inter)), 0.4, y)
    via_energy = resolvent(LagrangianOperator.from_functional(pw_functional(pot, inter)), 0.4, y)
    assert np.array_equal(via_field.particles, via_energy.particles)


@pytest.mark.parametrize("dim", [1, 2])
def test_prox_without_interaction_lands_on_abs_kink(dim):
    # separable prox: soft threshold of each particle's norm along its ray
    op = LagrangianOperator.from_functional(pw_functional(profile("abs"), profile("zero")))
    x = resolvent(op, 0.5, lag([[0.1] + [0.0] * (dim - 1), [2.0] + [0.0] * (dim - 1)]))
    assert np.array_equal(x.particles[:, 0], [0.0, 1.5])
    rng = np.random.default_rng(12)
    for tau in (0.1, 0.5, 2.0):
        y = rng.normal(size=(6, dim))
        y[0] = 0.0
        r = np.linalg.norm(y, axis=1, keepdims=True)
        want = np.where(r > tau, y * (1.0 - tau / np.where(r > 0.0, r, 1.0)), 0.0)
        x = resolvent(op, tau, LagrangianVector(y))
        assert np.allclose(x.particles, want, rtol=0.0, atol=1e-15)


def test_collinear_2d_abs_prox_exact_or_raises():
    # points on a line stay on it; the exact answer is the 1-D pooling
    rng = np.random.default_rng(5)
    op = abs_pair_op()
    tau = 0.5
    returned = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        t = rng.normal(size=n)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        c = rng.normal(size=2)
        y = c + t[:, None] * u
        want = c + oracles.pooled_abs_prox_1d(t, tau)[:, None] * u
        try:
            x = resolvent(op, tau, LagrangianVector(y))
        except OperatorError:
            continue
        returned += 1
        assert np.allclose(x.particles, want, rtol=0.0, atol=1e-10)
    assert returned > 0


# ---------------------------------------------------------------------------
# yosida and minimal selection


def test_yosida_linear_closed_form():
    v = yosida(neg_identity_op(), 0.25, lag([[1.0]]))
    assert abs(v.particles[0, 0] + 0.8) < 1e-9


def test_yosida_zero_field():
    v = yosida(zero_op(), 0.5, lag([[3.0]]))
    assert np.allclose(v.particles, [[0.0]], atol=1e-12)


def test_yosida_norm_increases_as_tau_shrinks():
    op = neg_identity_op()
    x = lag([[1.0]])
    norms = [yosida(op, tau, x).norm() for tau in (0.5, 0.25, 0.125)]
    for expect, got in zip([2.0 / 3.0, 4.0 / 5.0, 8.0 / 9.0], norms):
        assert abs(got - expect) < 1e-9
    assert norms[0] < norms[1] < norms[2] < 1.0


def test_minimal_selection_linear():
    # claim 0 for the driving field: the raw Yosida norms are reported
    op = neg_identity_op(lam=0.0)
    est = minimal_selection_estimate(op, lag([[1.0]]), [0.5, 0.25, 0.125])
    assert np.allclose(est.norms, [2.0 / 3.0, 4.0 / 5.0, 8.0 / 9.0], atol=1e-9)
    assert est.limit_norm == est.norms[-1]
    assert abs(est.velocity.particles[0, 0] + 8.0 / 9.0) < 1e-9


def test_minimal_selection_zero_field():
    est = minimal_selection_estimate(zero_op(), lag([[2.0]]), [0.5, 0.25])
    assert np.allclose(est.norms, [0.0, 0.0], atol=1e-12)


def test_minimal_selection_abs_pair():
    op = abs_pair_op()
    est = minimal_selection_estimate(op, lag([[-1.0], [1.0]]), [0.5, 0.25, 0.125, 0.0625])
    assert abs(est.limit_norm - 0.5) < 1e-8
    direct = op.apply(lag([[-1.0], [1.0]])).norm()
    assert abs(direct - 0.5) < 1e-15


def test_minimal_selection_rejects_bad_grid():
    with pytest.raises(OperatorError):
        minimal_selection_estimate(zero_op(), lag([[0.0]]), [0.25, 0.5])


# ---------------------------------------------------------------------------
# semigroup and trajectories


def test_exponential_semigroup_linear():
    got = exponential_semigroup(neg_identity_op(), 1.0, lag([[1.0]]), 100)
    want = (1.0 + 0.01) ** (-100)
    assert abs(got.particles[0, 0] - want) < 1e-8
    assert abs(got.particles[0, 0] - math.exp(-1.0)) < 0.2


def test_exponential_semigroup_t_zero():
    x = lag([[0.5], [1.5]])
    got = exponential_semigroup(neg_identity_op(), 0.0, x, 10)
    assert np.allclose(got.particles, x.particles)


def test_exponential_semigroup_zero_field():
    x = lag([[0.5], [1.5]])
    got = exponential_semigroup(zero_op(), 3.0, x, 7)
    assert np.allclose(got.particles, x.particles, atol=1e-12)


def test_explicit_trajectory_linear():
    traj = trajectory(neg_identity_op(), ExplicitScheme(0.1), 1.0, lag([[1.0]]))
    assert len(traj) == 11
    assert abs(traj[-1].particles[0, 0] - 0.9**10) < 1e-12


def test_explicit_trajectory_requires_lipschitz_bound():
    with pytest.raises(FlowError):
        trajectory(abs_pair_op(), ExplicitScheme(0.1), 1.0, lag([[-1.0], [1.0]]))


def test_explicit_trajectory_constant_drift():
    op = LagrangianOperator.from_velocity_field(linear_field(np.zeros((1, 1)), np.array([2.0])))
    traj = trajectory(op, ExplicitScheme(0.1), 1.0, lag([[0.0]]))
    assert abs(traj[-1].particles[0, 0] - 2.0) < 1e-12


def test_implicit_trajectory_linear():
    traj = trajectory(neg_identity_op(), ImplicitScheme(0.1), 1.0, lag([[1.0]]))
    assert len(traj) == 11
    assert abs(traj[-1].particles[0, 0] - oracles.implicit_linear_factor(0.1, 10)) < 1e-8


def test_implicit_trajectory_zero_field_constant():
    traj = trajectory(zero_op(), ImplicitScheme(0.25), 1.0, lag([[4.0]]))
    for x in traj:
        assert np.allclose(x.particles, [[4.0]], atol=1e-12)


def test_implicit_trajectory_sticky_pair_meets_near_two():
    tau = 1e-2
    traj = trajectory(abs_pair_op(), ImplicitScheme(tau), 3.0, lag([[-1.0], [1.0]]))
    gaps = [float(x.particles[1, 0] - x.particles[0, 0]) for x in traj]
    want = oracles.sticky_gap_sequence(2.0, tau, len(traj) - 1)
    assert np.allclose(gaps, want, atol=1e-7)
    first_zero = next(k for k, g in enumerate(gaps) if abs(g) < 1e-9)
    assert abs(first_zero * tau - 2.0) < tau + 1e-9
    assert all(abs(g) < 1e-9 for g in gaps[first_zero:])


def test_trajectory_step_count_rounding():
    # T/tau within float noise of an integer must not gain a step
    traj = trajectory(zero_op(), ImplicitScheme(0.1), 1.0, lag([[0.0]]))
    assert len(traj) == 11
    traj = trajectory(zero_op(), ExplicitScheme(0.3), 1.0, lag([[0.0]]))
    assert len(traj) == 5


# ---------------------------------------------------------------------------
# dissipativity and equivariance


def test_operator_dissipativity_linear():
    rng = np.random.default_rng(2)
    pairs = experiment_pairs(rng, n_pairs=10, n_particles=3, dim=2)
    worst = operator_dissipativity_check(neg_identity_op(2), 0.0, pairs)
    assert worst < 0.0


def test_operator_dissipativity_zero_field():
    rng = np.random.default_rng(3)
    pairs = experiment_pairs(rng, n_pairs=5, n_particles=2, dim=1)
    assert abs(operator_dissipativity_check(zero_op(), 0.0, pairs)) < 1e-15


def test_operator_dissipativity_expansion():
    rng = np.random.default_rng(4)
    f = linear_field(np.eye(2), np.zeros(2))
    op = LagrangianOperator.from_velocity_field(f)
    pairs = experiment_pairs(rng, n_pairs=10, n_particles=3, dim=2)
    assert operator_dissipativity_check(op, 0.0, pairs) > 1e-9
    assert operator_dissipativity_check(op, 1.0, pairs) <= 1e-9


def test_apply_permutation_equivariance_exact():
    rng = np.random.default_rng(5)
    op = LagrangianOperator.from_functional(pw_functional(profile("quadratic"), profile("abs")))
    x = rng.normal(size=(6, 2))
    perm = rng.permutation(6)
    a = op.apply(LagrangianVector(x))
    b = op.apply(LagrangianVector(x[perm]))
    assert np.array_equal(a.particles[perm], b.particles)


def test_yosida_lipschitz_bound_sampled():
    rng = np.random.default_rng(6)
    op = neg_identity_op(2)
    tau = 0.25
    bound = (2.0 - op.lam * tau) / (tau * (1.0 - op.lam * tau))
    for _ in range(5):
        xa = LagrangianVector(rng.normal(size=(3, 2)))
        xb = LagrangianVector(rng.normal(size=(3, 2)))
        dv = (yosida(op, tau, xa) - yosida(op, tau, xb)).norm()
        assert dv <= bound * (xa - xb).norm() + 1e-9


def test_velocity_decay_along_implicit_trajectory():
    phi = pw_functional(profile("zero"), profile("quadratic"))
    op = LagrangianOperator.from_functional(phi)
    traj = trajectory(op, ImplicitScheme(0.05), 2.0, lag([[0.0], [2.0]]))
    speeds = [op.apply(x).norm() for x in traj]
    for a, b in zip(speeds, speeds[1:]):
        assert b <= a + 1e-9
