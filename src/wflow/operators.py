"""Particle-lift operators: resolvents, Yosida quotients, and power schemes.

The operator wraps a velocity law into a map on particle lists.  Its
resolvent solves the implicit step X - tau * B(X) = Y by one of three
backends: contraction fixed point when a Lipschitz bound allows it, a
structured proximal solve for potential-plus-interaction energies (exact
soft-threshold behaviour at interaction kinks, including particle
collisions), and a damped Newton iteration on the residual as the general
fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from wflow.measures import LagrangianVector, iota_project

_SOLVER_NAMES = ("auto", "fixed_point", "prox", "newton")


class OperatorError(ValueError):
    """Raised for invalid steps, solver misconfiguration, or divergence."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100000
    solver: str = "auto"


def solver_config_from_json(data):
    tol = float(data.get("tol", 1e-10))
    max_iter = int(data.get("max_iter", 100000))
    solver = data.get("solver", "auto")
    if tol <= 0.0:
        raise OperatorError(f"solver tol must be positive, got {tol}")
    if max_iter < 1:
        raise OperatorError(f"solver max_iter must be at least 1, got {max_iter}")
    if solver not in _SOLVER_NAMES:
        raise OperatorError(f"unknown solver {solver!r} (expected one of {_SOLVER_NAMES})")
    return SolverConfig(tol=tol, max_iter=max_iter, solver=solver)


def _wnorm(arr):
    # particle-averaged Euclidean norm, matching LagrangianVector.norm
    a = np.asarray(arr, dtype=float)
    return float(np.sqrt(np.sum(a * a) / a.shape[0]))


class LagrangianOperator:
    """Velocity law lifted to ordered particle lists.

    ``apply`` evaluates the law at every particle against the measure the
    particles carry, so it is exactly equivariant under reordering.
    """

    def __init__(self, field, functional=None):
        self.field = field
        self.functional = functional

    @classmethod
    def from_velocity_field(cls, field):
        return cls(field, None)

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
# newton backend


def _solve_newton(op, tau, y, cfg):
    n, d = y.particles.shape
    m = n * d
    yflat = y.particles.ravel()

    def residual(xflat):
        vec = LagrangianVector(xflat.reshape(n, d))
        return xflat - tau * op.apply(vec).particles.ravel() - yflat

    x = yflat.copy()
    r = residual(x)
    for _ in range(min(cfg.max_iter, 100)):
        rnorm = _wnorm(r.reshape(n, d))
        if rnorm <= cfg.tol:
            return LagrangianVector(x.reshape(n, d))
        jac = np.empty((m, m))
        for j in range(m):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (residual(xp) - r) / h
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        alpha = 1.0
        improved = False
        while alpha > 1e-12:
            cand = x + alpha * step
            rc = residual(cand)
            if _wnorm(rc.reshape(n, d)) < (1.0 - 1e-4 * alpha) * rnorm:
                x, r = cand, rc
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    if _wnorm(r.reshape(n, d)) <= math.sqrt(cfg.tol):
        return LagrangianVector(x.reshape(n, d))
    raise OperatorError("newton resolvent iteration did not converge")


# ---------------------------------------------------------------------------
# proximal backend for potential + interaction energies


def _reduced_value(z, sizes, ysums, ysq, tau, n, pot, inter):
    quad = np.sum(sizes * np.sum(z * z, axis=1)) - 2.0 * np.sum(z * ysums) + ysq
    val = quad / (2.0 * tau * n)
    val += float(sizes @ pot.value(z)) / n
    k = z.shape[0]
    if k > 1:
        diffs = z[:, None, :] - z[None, :, :]
        w = np.outer(sizes, sizes)
        val += 0.5 * float(np.sum(w * inter.value(diffs))) / (n * n)
    return val


def _reduced_grad(z, sizes, ysums, tau, n, pot, inter):
    g = (sizes[:, None] * z - ysums) / (tau * n)
    g = g + (sizes[:, None] / n) * pot.grad(z)
    k = z.shape[0]
    if k > 1:
        diffs = z[:, None, :] - z[None, :, :]
        gw = inter.grad(diffs)
        w = np.outer(sizes, sizes) / (n * n)
        g = g + np.einsum("ij,ijc->ic", w, gw)
    return g


def _newton_on_clusters(z0, sizes, ysums, ysq, tau, n, pot, inter, cfg):
    """Damped Newton on the cluster-reduced smooth objective.

    Returns (positions, converged).  Line-search failure is reported, not
    raised: near an interaction kink the caller merges clusters and
    retries.
    """
    z = z0.copy()
    k, d = z.shape
    m = k * d
    for _ in range(200):
        g = _reduced_grad(z, sizes, ysums, tau, n, pot, inter)
        # implied position error under the strong convexity of the step term
        err = np.max(np.linalg.norm(g, axis=1) * (tau * n) / sizes)
        if err <= 1e-2 * cfg.tol:
            return z, True
        hess = np.empty((m, m))
        gflat = g.ravel()
        scale = 1e-7 * (1.0 + float(np.max(np.abs(z))))
        for j in range(m):
            zp = z.ravel().copy()
            zp[j] += scale
            gp = _reduced_grad(zp.reshape(k, d), sizes, ysums, tau, n, pot, inter)
            hess[:, j] = (gp.ravel() - gflat) / scale
        hess = 0.5 * (hess + hess.T)
        try:
            step = np.linalg.solve(hess, -gflat)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -gflat, rcond=None)[0]
        base = _reduced_value(z, sizes, ysums, ysq, tau, n, pot, inter)
        slope = float(gflat @ step)
        alpha = 1.0
        accepted = False
        while alpha > 1e-12:
            cand = z + alpha * step.reshape(k, d)
            if _reduced_value(cand, sizes, ysums, ysq, tau, n, pot, inter) <= base + 1e-4 * alpha * slope:
                z = cand
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return z, False
    return z, False


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
            reversed_dir = float(np.dot(z[a] - z[b], ygap)) < 0.0 and float(
                np.linalg.norm(ygap)
            ) > 0.0
            if gap <= 1e-8 * (1.0 + float(np.max(np.abs(z)))) or reversed_dir:
                if gap < best_score:
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
        outside = (np.sum(sizes) - sizes[c]) > 0
        conv = np.zeros_like(p)
        if outside:
            for c2 in range(z.shape[0]):
                if c2 != c:
                    conv = conv + sizes[c2] * inter.grad(p - z[c2])
        needs = []
        for idx in mem:
            r = (p - ypts[idx]) / (tau * n) + pot.grad(p) / n + conv / (n * n)
            needs.append(-(n * n) * r)
        needs = np.asarray(needs)
        for a in range(g):
            for b in range(a + 1, g):
                s_ab = (needs[a] - needs[b]) / g
                if float(np.linalg.norm(s_ab)) > w * (1.0 + 1e-8) + 1e-10:
                    return False
    return True


def _full_subgradient(x, ypts, tau, n, pot, inter):
    g = (x - ypts) / (tau * n)
    g = g + pot.grad(x) / n
    diffs = x[:, None, :] - x[None, :, :]
    g = g + np.sum(inter.grad(diffs), axis=1) / (n * n)
    return g


def _full_value(x, ypts, tau, n, pot, inter):
    val = float(np.sum((x - ypts) ** 2)) / (2.0 * tau * n)
    val += float(np.sum(pot.value(x))) / n
    diffs = x[:, None, :] - x[None, :, :]
    val += 0.5 * float(np.sum(inter.value(diffs))) / (n * n)
    return val


def _fallback_descent(x0, ypts, tau, n, pot, inter, cfg):
    # diminishing-step subgradient descent: slow but safe when the merged
    # cluster certificate is inconclusive
    x = x0.copy()
    best = x.copy()
    fbest = _full_value(x, ypts, tau, n, pot, inter)
    stride = 0.1 * (1.0 + float(np.max(np.abs(ypts))))
    for k in range(1, min(cfg.max_iter, 20000) + 1):
        g = _full_subgradient(x, ypts, tau, n, pot, inter)
        gn = _wnorm(g)
        if gn <= 1e-15:
            break
        x = x - (stride / math.sqrt(k)) * g / gn
        f = _full_value(x, ypts, tau, n, pot, inter)
        if f < fbest:
            fbest = f
            best = x.copy()
    return LagrangianVector(best)


def _solve_prox(op, tau, y, cfg):
    functional = op.functional
    if functional is None or not functional.prox_capable:
        raise OperatorError("prox solver needs a proximally solvable energy")
    pot = functional.potential
    inter = functional.interaction
    ypts = y.particles
    n, d = ypts.shape

    members = [[i] for i in range(n)]
    z = ypts.copy()
    while True:
        sizes = np.array([len(m) for m in members], dtype=float)
        ysums = np.array([ypts[m].sum(axis=0) for m in members])
        ysq = float(np.sum(ypts * ypts))
        z, converged = _newton_on_clusters(z, sizes, ysums, ysq, tau, n, pot, inter, cfg)
        cand = _merge_candidate(z, sizes, ysums, inter)
        if cand is not None and len(members) > 1:
            a, b = cand
            merged = sorted(members[a] + members[b])
            keep = [members[i] for i in range(len(members)) if i not in (a, b)]
            members = keep + [merged]
            znew = [z[i] for i in range(len(z)) if i not in (a, b)]
            pooled = ypts[merged].mean(axis=0)
            z = np.vstack(znew + [pooled]) if znew else pooled.reshape(1, d)
            continue
        if converged and _certify_clusters(z, members, sizes, ypts, tau, n, pot, inter):
            out = np.empty_like(ypts)
            for c, mem in enumerate(members):
                out[mem] = z[c]
            return LagrangianVector(out)
        start = np.empty_like(ypts)
        for c, mem in enumerate(members):
            start[mem] = z[c]
        return _fallback_descent(start, ypts, tau, n, pot, inter, cfg)


# ---------------------------------------------------------------------------
# resolvent and derived maps


def resolvent(op, tau, y, cfg=None):
    """Solve X - tau * B(X) = Y.

    Backend order under "auto": contraction fixed point when the Lipschitz
    budget allows, the structured proximal solve when the operator descends
    an energy, damped Newton otherwise.
    """
    cfg = cfg or SolverConfig()
    if cfg.solver not in _SOLVER_NAMES:
        raise OperatorError(f"unknown solver {cfg.solver!r} (expected one of {_SOLVER_NAMES})")
    _validate_tau(op, tau)

    if cfg.solver == "fixed_point":
        if op.lip is None or tau * op.lip >= 1.0:
            raise OperatorError("fixed-point solver needs tau * Lipschitz < 1")
        return _solve_fixed_point(op, tau, y, cfg)
    if cfg.solver == "prox":
        return _solve_prox(op, tau, y, cfg)
    if cfg.solver == "newton":
        return _solve_newton(op, tau, y, cfg)

    if op.lip is not None and tau * op.lip < 1.0:
        return _solve_fixed_point(op, tau, y, cfg)
    if op.functional is not None and op.functional.prox_capable:
        return _solve_prox(op, tau, y, cfg)
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
    "solver_config_from_json",
    "yosida",
]
