"""Particle-lift operators: resolvents, Yosida quotients, and power schemes.

The operator wraps a velocity law into a map on particle lists.  Its
resolvent solves the implicit step X - tau * B(X) = Y on one of three paths,
chosen from the operator alone: contraction fixed point when a Lipschitz
bound allows it, the proximal solve of the energy when the law descends a
potential-plus-interaction energy (exact pooling for 1-D ``abs``
interaction, the radial prox per particle for no interaction, a certified
cluster Newton otherwise), and a damped Newton iteration on the residual
for any other law.  Every path either meets the configured tolerance or
raises ``OperatorError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from wflow.fields import functional_from_json
from wflow.measures import LagrangianVector, iota_project


class OperatorError(ValueError):
    """Raised for invalid steps, solver misconfiguration, or divergence."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise OperatorError(f"solver tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise OperatorError(f"solver max_iter must be at least 1, got {self.max_iter}")


def _wnorm(arr):
    # particle-averaged Euclidean norm, matching LagrangianVector.norm
    a = np.asarray(arr, dtype=float)
    return float(np.sqrt(np.sum(a * a) / a.shape[0]))


class LagrangianOperator:
    """Velocity law lifted to ordered particle lists.

    ``apply`` evaluates the law at every particle against the measure the
    particles carry, so it is exactly equivariant under reordering.
    ``functional`` is the energy the law descends, when there is one.
    """

    def __init__(self, field, functional=None):
        self.field = field
        self.functional = functional

    @classmethod
    def from_velocity_field(cls, field):
        # a pw field descends its energy; the field itself is kept, since its
        # dissipativity claim may have been overridden
        meta = field.meta or {}
        return cls(field, functional_from_json(meta) if meta.get("kind") == "pw" else None)

    @classmethod
    def from_functional(cls, functional):
        return cls(functional.subgradient_field, functional)

    @property
    def lam(self):
        return self.field.lambda_claim

    @property
    def lip(self):
        return self.field.lip

    def apply(self, x):
        mu = iota_project(x, 0.0)
        return LagrangianVector(self.field.evaluate_batch(x.particles, mu))


def _validate_tau(op, tau):
    if not tau > 0.0:
        raise OperatorError(f"step size must be positive, got {tau}")
    lam_plus = max(op.lam, 0.0)
    if lam_plus > 0.0 and tau >= 1.0 / lam_plus:
        raise OperatorError(
            f"step size {tau} too large for expansion rate {op.lam}: need tau < {1.0 / lam_plus}"
        )


# ---------------------------------------------------------------------------
# fixed-point backend


def _solve_fixed_point(op, tau, y, cfg):
    q = tau * op.lip
    # geometric tail bound: once the update is this small the distance to
    # the fixed point is at most a hundredth of the requested tolerance
    threshold = 1e-2 * cfg.tol * (1.0 - q) / max(q, 1e-16)
    x = y.particles.copy()
    for _ in range(cfg.max_iter):
        nxt = y.particles + tau * op.apply(LagrangianVector(x)).particles
        delta = _wnorm(nxt - x)
        x = nxt
        if delta <= threshold:
            return LagrangianVector(x)
    raise OperatorError("fixed-point resolvent iteration did not converge")


# ---------------------------------------------------------------------------
# damped newton, shared by the cluster solve and the residual solve


def _damped_newton(x, residual, jacobian, error, tol, max_iter):
    """Newton on residual(x) = 0 with backtracking on ``error(residual)``.

    ``error`` bounds the distance to the root implied by a residual.
    Returns (x, converged); a failed line search is reported, not raised.
    """
    r = residual(x)
    err = error(r)
    for _ in range(max_iter):
        if err <= tol:
            return x, True
        jac = jacobian(x, r)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        alpha = 1.0
        while True:
            cand = x + alpha * step
            rc = residual(cand)
            ec = error(rc)
            if ec < (1.0 - 1e-4 * alpha) * err:
                x, r, err = cand, rc, ec
                break
            alpha *= 0.5
            if alpha <= 1e-12:
                return x, False
    return x, err <= tol


def _solve_newton(op, tau, y, cfg):
    n, d = y.particles.shape
    yflat = y.particles.ravel()

    def residual(xflat):
        vec = LagrangianVector(xflat.reshape(n, d))
        return xflat - tau * op.apply(vec).particles.ravel() - yflat

    def jacobian(x, r):
        # these laws carry no derivative: forward differences, one column each
        jac = np.empty((x.size, x.size))
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (residual(xp) - r) / h
        return jac

    def error(r):
        return _wnorm(r.reshape(n, d))

    x, converged = _damped_newton(
        yflat.copy(), residual, jacobian, error, cfg.tol, min(cfg.max_iter, 100)
    )
    if not converged:
        raise OperatorError("newton resolvent iteration did not converge")
    return LagrangianVector(x.reshape(n, d))


# ---------------------------------------------------------------------------
# proximal backend for potential + interaction energies


def _prox_abs_1d(ypts, tau, pot, coeff):
    """Exact 1-D prox with |x| interaction: sort, shift, pool adjacent violators.

    The minimiser keeps the order of the data, and on sorted particles the
    interaction is linear, (coeff / n^2) sum (2i - n - 1) x_i, so the shifted
    data z is pooled into nondecreasing blocks and each block moves by the
    potential's prox (sticky particles, Brenier & Grenier 1998).
    """
    n = ypts.shape[0]
    order = np.argsort(ypts[:, 0], kind="stable")
    z = ypts[order, 0] - tau * coeff * (2.0 * np.arange(1, n + 1) - n - 1.0) / n
    sums, sizes = [], []
    for v in z:
        sums.append(v)
        sizes.append(1)
        while len(sums) > 1 and sums[-2] * sizes[-1] > sums[-1] * sizes[-2]:
            tail, count = sums.pop(), sizes.pop()
            sums[-1] += tail
            sizes[-1] += count
    blocks = pot.prox_1d(np.array(sums) / np.array(sizes), tau)
    out = np.empty_like(ypts)
    out[order, 0] = np.repeat(blocks, sizes)
    return LagrangianVector(out)


def _reduced_grad(z, sizes, ysums, tau, n, pot, inter):
    g = (sizes[:, None] * z - ysums) / (tau * n)
    g = g + (sizes[:, None] / n) * pot.grad(z)
    gw = inter.grad(z[:, None, :] - z[None, :, :])
    w = np.outer(sizes, sizes) / (n * n)
    return g + np.einsum("ij,ijc->ic", w, gw)


def _reduced_hess(z, sizes, tau, n, pot, inter):
    k, d = z.shape
    w = np.outer(sizes, sizes) / (n * n)
    hw = w[:, :, None, None] * inter.hess(z[:, None, :] - z[None, :, :])
    diag = (sizes[:, None, None] / n) * (np.eye(d) / tau + pot.hess(z)) + hw.sum(axis=1)
    h = -hw
    h[np.arange(k), np.arange(k)] += diag
    return h.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _newton_on_clusters(z0, sizes, ysums, tau, n, pot, inter, cfg):
    """Damped Newton on the cluster-reduced smooth objective, analytic Hessian.

    Returns (positions, converged).  Near an interaction kink the caller
    merges clusters and retries.
    """
    k, d = z0.shape

    def residual(zflat):
        return _reduced_grad(zflat.reshape(k, d), sizes, ysums, tau, n, pot, inter).ravel()

    def hessian(zflat, g):
        return _reduced_hess(zflat.reshape(k, d), sizes, tau, n, pot, inter)

    def error(g):
        # implied position error under the strong convexity of the step term
        return float(np.max(np.linalg.norm(g.reshape(k, d), axis=1) * (tau * n) / sizes))

    z, converged = _damped_newton(
        z0.ravel(), residual, hessian, error, 1e-2 * cfg.tol, min(cfg.max_iter, 200)
    )
    return z.reshape(k, d), converged


def _merge_candidate(z, sizes, ysums, inter):
    """Pick one pair of clusters to merge, or None.

    Candidates: clusters sitting on top of each other, or (for kinked
    interactions) pairs whose separation reversed direction relative to
    their data separation, which is the signature of a crossed kink.
    """
    k = z.shape[0]
    if k < 2 or inter.kind != "abs":
        return None
    ymeans = ysums / sizes[:, None]
    best = None
    best_score = math.inf
    for a in range(k):
        for b in range(a + 1, k):
            gap = float(np.linalg.norm(z[a] - z[b]))
            ygap = ymeans[a] - ymeans[b]
            reversed_dir = float(np.dot(z[a] - z[b], ygap)) < 0.0
            touching = gap <= 1e-8 * (1.0 + float(np.max(np.abs(z))))
            if (touching or reversed_dir) and gap < best_score:
                best_score = gap
                best = (a, b)
    return best


def _certify_clusters(z, members, sizes, ypts, tau, n, pot, inter):
    """Shared-kink subgradient feasibility for every merged cluster.

    Builds the antisymmetric within-cluster flow with the smallest uniform
    magnitude consistent with per-member stationarity; feasibility of that
    flow (each entry inside the kink ball) certifies the merged optimum.
    Exact for two-member clusters, sufficient for larger ones.
    """
    if inter.kind != "abs":
        return True
    w = inter.coeff
    for c, mem in enumerate(members):
        g = len(mem)
        if g < 2:
            continue
        p = z[c]
        others = [c2 for c2 in range(len(members)) if c2 != c]
        conv = sizes[others] @ inter.grad(p - z[others])
        needs = -(n * n) * ((p - ypts[mem]) / (tau * n) + pot.grad(p) / n + conv / (n * n))
        s_ab = (needs[:, None, :] - needs[None, :, :]) / g
        if float(np.max(np.linalg.norm(s_ab, axis=-1))) > w * (1.0 + 1e-8) + 1e-10:
            return False
    return True


def _solve_prox(functional, tau, y, cfg):
    pot = functional.potential
    inter = functional.interaction
    ypts = y.particles
    n, d = ypts.shape
    if d == 1 and inter.kind == "abs":
        return _prox_abs_1d(ypts, tau, pot, inter.coeff)
    if inter.kind == "zero":
        # separable: each particle moves along its ray by the radial prox
        r = np.linalg.norm(ypts, axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return LagrangianVector(np.where(r > 0.0, ypts * pot.prox_1d(r, tau) / r, 0.0))

    members = [[i] for i in range(n)]
    z = ypts.copy()
    while True:
        sizes = np.array([len(m) for m in members], dtype=float)
        ysums = np.array([ypts[m].sum(axis=0) for m in members])
        z, converged = _newton_on_clusters(z, sizes, ysums, tau, n, pot, inter, cfg)
        cand = _merge_candidate(z, sizes, ysums, inter)
        if cand is not None:
            a, b = cand
            keep = [i for i in range(len(members)) if i not in (a, b)]
            members = [members[i] for i in keep] + [sorted(members[a] + members[b])]
            z = np.vstack([z[keep], ypts[members[-1]].mean(axis=0)])
            continue
        if not converged:
            raise OperatorError("prox resolvent: cluster newton did not converge")
        if not _certify_clusters(z, members, sizes, ypts, tau, n, pot, inter):
            raise OperatorError("prox resolvent: merged clusters could not be certified optimal")
        out = np.empty_like(ypts)
        for c, mem in enumerate(members):
            out[mem] = z[c]
        return LagrangianVector(out)


# ---------------------------------------------------------------------------
# resolvent and derived maps


def resolvent(op, tau, y, cfg=None):
    """Solve X - tau * B(X) = Y to the configured tolerance, or raise.

    Contraction fixed point when the Lipschitz budget allows, the proximal
    solve when the operator descends an energy, damped Newton on the
    residual otherwise.
    """
    cfg = cfg or SolverConfig()
    _validate_tau(op, tau)
    if op.lip is not None and tau * op.lip < 1.0:
        return _solve_fixed_point(op, tau, y, cfg)
    if op.functional is not None:
        return _solve_prox(op.functional, tau, y, cfg)
    return _solve_newton(op, tau, y, cfg)


def yosida(op, tau, x, cfg=None):
    """Difference quotient (J_tau - I)/tau through the resolvent."""
    j = resolvent(op, tau, x, cfg)
    return LagrangianVector((j.particles - x.particles) / tau)


@dataclass(frozen=True)
class MinimalSelection:
    norms: list
    limit_norm: float
    velocity: LagrangianVector


def minimal_selection_estimate(op, x, tau_grid, cfg=None):
    """Track corrected Yosida norms along a decreasing step grid.

    The corrected norm (1 - lam * tau) |B_tau X| is nondecreasing as tau
    shrinks and approaches the minimal velocity norm from below, so the
    last grid point is reported as the estimate.
    """
    grid = [float(t) for t in tau_grid]
    if not grid or any(t <= 0.0 for t in grid):
        raise OperatorError("step grid must contain positive entries")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise OperatorError("step grid must be strictly decreasing")
    norms = []
    vel = None
    for t in grid:
        vel = yosida(op, t, x, cfg)
        norms.append((1.0 - op.lam * t) * vel.norm())
    return MinimalSelection(norms=norms, limit_norm=norms[-1], velocity=vel)


def exponential_semigroup(op, t, x, n, cfg=None):
    """n-fold resolvent power with step t/n, the exponential-formula state."""
    if n < 1:
        raise OperatorError(f"power count must be at least 1, got {n}")
    if t < 0.0:
        raise OperatorError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return LagrangianVector(x.particles.copy())
    tau = t / n
    cur = x
    for _ in range(n):
        cur = resolvent(op, tau, cur, cfg)
    return cur


# ---------------------------------------------------------------------------
# empirical dissipativity


def experiment_pairs(rng, n_pairs, n_particles, dim):
    """Random particle-list pairs for operator-level gap experiments."""
    out = []
    for _ in range(n_pairs):
        out.append(
            (
                LagrangianVector(rng.normal(size=(n_particles, dim))),
                LagrangianVector(rng.normal(size=(n_particles, dim))),
            )
        )
    return out


def operator_dissipativity_check(op, lam, pairs):
    """Worst pairing gap <B(X)-B(Y), X-Y> - lam |X-Y|^2 over given pairs."""
    worst = -math.inf
    for xa, xb in pairs:
        diff = xa - xb
        bdiff = op.apply(xa) - op.apply(xb)
        gap = bdiff.inner(diff) - lam * diff.inner(diff)
        worst = max(worst, gap)
    return worst


__all__ = [
    "LagrangianOperator",
    "MinimalSelection",
    "OperatorError",
    "SolverConfig",
    "experiment_pairs",
    "exponential_semigroup",
    "minimal_selection_estimate",
    "operator_dissipativity_check",
    "resolvent",
    "yosida",
]
