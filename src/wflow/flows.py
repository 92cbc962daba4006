"""Measure-level evolution driven by the particle lift.

``evolve`` advances a finitely supported measure by lifting it to an
ordered particle list, stepping that list with an implicit, explicit, or
resolvent-power scheme, and projecting back down at the recording times.
The rest of the module packages the standard experiments around such
flows: evolution variational inequality residuals, pairwise contraction
ratios, single minimizing-movement steps, implicit-step error studies,
and finite-sample mean-field comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wflow.fields import Functional, VelocityField, eval_on_measure
from wflow.measures import DiscreteMeasure, LagrangianVector, expand, iota_project
from wflow.operators import LagrangianOperator, exponential_semigroup, resolvent
from wflow.transport import w2_exact


class FlowError(ValueError):
    """Raised for invalid schemes, horizons, or recording grids."""


@dataclass(frozen=True)
class ImplicitScheme:
    tau: float


@dataclass(frozen=True)
class ExplicitScheme:
    tau: float


@dataclass(frozen=True)
class ExponentialScheme:
    n: int


def _scheme_number(data, key):
    if key not in data:
        raise FlowError(f"scheme.{key}: missing required entry")
    try:
        value = float(data[key])
    except (TypeError, ValueError) as exc:
        raise FlowError(f"scheme.{key}: {exc}") from exc
    if not math.isfinite(value):
        raise FlowError(f"scheme.{key}: must be finite, got {value}")
    return value


def scheme_from_json(data):
    """Decode a scheme entry; errors name the offending field path."""
    if not isinstance(data, dict):
        raise FlowError("scheme: needs an object with a 'kind' entry")
    kind = data.get("kind")
    if kind == "implicit" or kind == "explicit":
        tau = _scheme_number(data, "tau")
        if tau <= 0.0:
            raise FlowError(f"scheme.tau: must be positive, got {tau}")
        return ImplicitScheme(tau) if kind == "implicit" else ExplicitScheme(tau)
    if kind == "exponential":
        n = _scheme_number(data, "n")
        if n < 1 or n != int(n):
            raise FlowError(f"scheme.n: must be a positive integer, got {data['n']!r}")
        return ExponentialScheme(int(n))
    raise FlowError(f"scheme.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class FlowResult:
    times: list
    measures: list
    lagrangian: list
    diagnostics: list


def _operator_for(driver):
    if isinstance(driver, Functional):
        return LagrangianOperator.from_functional(driver)
    if isinstance(driver, VelocityField):
        return LagrangianOperator.from_velocity_field(driver)
    raise FlowError(f"cannot evolve driver of type {type(driver).__name__}")


def _n_steps(total_time, tau):
    if not tau > 0.0:
        raise FlowError(f"step size must be positive, got {tau}")
    ratio = total_time / tau
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio)):
        return int(nearest)
    return int(math.ceil(ratio))


def _record_schedule(record_times, tau, n_total):
    """Map requested times onto step indices; echo the requested floats."""
    if record_times is None:
        return [(k, k * tau) for k in range(n_total + 1)]
    schedule = []
    req = [float(t) for t in record_times]
    if not req or req[0] != 0.0:
        schedule.append((0, 0.0))
    last_k = -1
    for t in req:
        ratio = t / tau
        k = int(round(ratio))
        if abs(ratio - k) > 1e-6:
            raise FlowError(f"record time {t} is not on the step grid with tau={tau}")
        if k < 0 or k > n_total:
            raise FlowError(f"record time {t} lies outside the horizon")
        if k <= last_k and schedule:
            raise FlowError("record times must be strictly increasing on the step grid")
        last_k = k
        schedule.append((k, t))
    return schedule


def _snapshot(field, x, merge_eps):
    mu = iota_project(x, merge_eps)
    res = eval_on_measure(field, mu)
    diag = {
        "support_cardinality": mu.support_cardinality,
        "second_moment": mu.second_moment(),
        "diameter": mu.diameter(),
        "field_norm": res.l2_norm,
    }
    return mu, diag


def evolve(driver, mu0, scheme, T, record_times=None, merge_eps=0.0, lift=None, cfg=None):
    """Advance ``mu0`` under ``driver`` and record the requested snapshots.

    ``driver`` is either a velocity law or an energy whose descent field
    drives the motion.  The lift defaults to the canonical expansion of
    ``mu0``; any reordering of it produces the same measure path.  With a
    positive ``merge_eps`` the reported measures fuse atoms closer than
    that distance, which is how collisions show up as support drops.
    """
    if T < 0.0:
        raise FlowError(f"horizon must be nonnegative, got {T}")
    op = _operator_for(driver)
    field = op.field
    x = lift if lift is not None else expand(mu0, mu0.denominator)
    if x.dim != mu0.dim:
        raise FlowError(f"lift dimension {x.dim} does not match measure dimension {mu0.dim}")

    if isinstance(scheme, ExponentialScheme):
        req = [float(t) for t in record_times] if record_times is not None else [float(T)]
        times = req if req and req[0] == 0.0 else [0.0] + req
        measures, lags, diags = [], [], []
        for t in times:
            xt = exponential_semigroup(op, t, x, scheme.n, cfg) if t > 0.0 else x
            mu, diag = _snapshot(field, xt, merge_eps)
            measures.append(mu)
            lags.append(xt)
            diags.append(diag)
        return FlowResult(times=times, measures=measures, lagrangian=lags, diagnostics=diags)

    if isinstance(scheme, ExplicitScheme) and op.lip is None:
        raise FlowError("explicit stepping needs a Lipschitz bound on the field")
    if not isinstance(scheme, (ImplicitScheme, ExplicitScheme)):
        raise FlowError(f"unknown scheme {scheme!r}")

    tau = scheme.tau
    n_total = _n_steps(T, tau)
    schedule = _record_schedule(record_times, tau, n_total)
    wanted = {k for k, _ in schedule}

    snaps = {}
    cur = x
    if 0 in wanted:
        snaps[0] = cur
    for k in range(1, max(wanted) + 1 if wanted else 1):
        if isinstance(scheme, ImplicitScheme):
            cur = resolvent(op, tau, cur, cfg)
        else:
            cur = LagrangianVector(cur.particles + tau * op.apply(cur).particles)
        if k in wanted:
            snaps[k] = cur

    times, measures, lags, diags = [], [], [], []
    for k, t in schedule:
        xt = snaps[k]
        mu, diag = _snapshot(field, xt, merge_eps)
        times.append(t)
        measures.append(mu)
        lags.append(xt)
        diags.append(diag)
    return FlowResult(times=times, measures=measures, lagrangian=lags, diagnostics=diags)


# ---------------------------------------------------------------------------
# evolution variational inequality


@dataclass(frozen=True)
class EviReport:
    times: list
    residuals: list


def evi_residual(flow, field, lam, nu):
    """Centered-difference residuals of the evolution inequality against nu.

    At each interior recording time the residual is half the centered
    time-derivative of the squared distance to ``nu`` minus the dissipative
    upper bound; for a true flow it stays below a discretization-sized
    level.
    """
    if len(flow.times) < 3:
        raise FlowError("need at least three recorded times for centered differences")
    results = [w2_exact(mu, nu) for mu in flow.measures]
    w2sq = [r.distance**2 for r in results]
    times, residuals = [], []
    for k in range(1, len(flow.times) - 1):
        dt = flow.times[k + 1] - flow.times[k - 1]
        deriv = (w2sq[k + 1] - w2sq[k - 1]) / dt
        x0, x1 = results[k].plan.expanded_pairs()
        vel = field.evaluate_batch(x1, nu)
        pairing = float(np.sum(vel * (x0 - x1)) / results[k].plan.denominator)
        residuals.append(0.5 * deriv - lam * w2sq[k] - pairing)
        times.append(flow.times[k])
    return EviReport(times=times, residuals=residuals)


# ---------------------------------------------------------------------------
# contraction


def contraction_check(driver, mu, nu, lam, t_grid, scheme, cfg=None):
    """Distance ratios W2(mu_t, nu_t) / (e^{lam t} W2(mu_0, nu_0)).

    Returns exact zeros when the initial measures coincide, so the ratio
    list is always well defined.
    """
    grid = [float(t) for t in t_grid]
    initial = w2_exact(mu, nu).distance
    if initial <= 1e-14:
        return [0.0 for _ in grid]
    horizon = max(grid)
    flow_a = evolve(driver, mu, scheme, T=horizon, record_times=grid, cfg=cfg)
    flow_b = evolve(driver, nu, scheme, T=horizon, record_times=grid, cfg=cfg)
    offset = len(flow_a.times) - len(grid)
    ratios = []
    for t, ma, mb in zip(grid, flow_a.measures[offset:], flow_b.measures[offset:]):
        ratios.append(w2_exact(ma, mb).distance / (math.exp(lam * t) * initial))
    return ratios


# ---------------------------------------------------------------------------
# minimizing movement


def jko_step(functional, mu, tau, cfg=None):
    """One minimizing-movement step: argmin W2^2/(2 tau) + energy."""
    op = LagrangianOperator.from_functional(functional)
    out = resolvent(op, tau, expand(mu, mu.denominator), cfg)
    return iota_project(out, 0.0)


# ---------------------------------------------------------------------------
# implicit-step error study


@dataclass(frozen=True)
class ErrorStudyRow:
    n: int
    error: float
    bound: float
    passes: bool


def implicit_error_study(driver, mu0, horizon, n_list, reference=None, cfg=None):
    """Distance from the n-step implicit state to the limit flow at ``horizon``.

    The certified rate is 2 * horizon * |field at mu0| / sqrt(n); when no
    reference measure is supplied a much finer implicit run stands in for
    the limit.
    """
    op = _operator_for(driver)
    x0 = expand(mu0, mu0.denominator)
    speed0 = eval_on_measure(op.field, mu0).l2_norm
    if reference is None:
        n_ref = max(1024, 8 * max(n_list))
        reference = iota_project(exponential_semigroup(op, horizon, x0, n_ref, cfg), 0.0)
    rows = []
    for n in n_list:
        x = exponential_semigroup(op, horizon, x0, n, cfg)
        err = w2_exact(iota_project(x, 0.0), reference).distance
        bound = 2.0 * horizon * speed0 / math.sqrt(n)
        rows.append(ErrorStudyRow(n=int(n), error=err, bound=bound, passes=err <= bound + 1e-12))
    return rows


# ---------------------------------------------------------------------------
# mean-field comparison


def empirical_sampler(mu, seed):
    """Deterministic factory of n-point empirical draws from ``mu``."""
    rng = np.random.default_rng(seed)

    def sample(n):
        idx = rng.choice(mu.atoms.shape[0], size=int(n), p=mu.weights)
        return DiscreteMeasure.from_points(mu.atoms[idx])

    return sample


@dataclass(frozen=True)
class MeanFieldRow:
    n: int
    initial_error: float
    final_error: float
    bound: float
    passes: bool


def mean_field_study(driver, mu0, sampler, n_list, t, lam, scheme, slack=1e-6, cfg=None):
    """Evolve empirical approximations alongside the limit and compare.

    The dissipative contraction bound e^{lam t} * initial distance, plus a
    small slack for the scheme error, must dominate the final distance.
    """
    flow_ref = evolve(driver, mu0, scheme, T=t, cfg=cfg)
    mu_t = flow_ref.measures[-1]
    rows = []
    for n in n_list:
        nu0 = sampler(n)
        initial = w2_exact(mu0, nu0).distance
        nu_t = evolve(driver, nu0, scheme, T=t, cfg=cfg).measures[-1]
        final = w2_exact(mu_t, nu_t).distance
        bound = math.exp(lam * t) * initial + slack
        rows.append(
            MeanFieldRow(
                n=int(n),
                initial_error=initial,
                final_error=final,
                bound=bound,
                passes=final <= bound,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# sticky-collision diagnostics


@dataclass(frozen=True)
class StickyReport:
    cardinality_nonincreasing: bool
    diameter_bound_ok: bool
    moment_bound_ok: bool


def sticky_diagnostics(flow, lam):
    """Monotonicity checks along a recorded flow.

    Support can only fuse, the diameter obeys the e^{lam t} envelope, and
    the centered second moment does the same at twice the rate.
    """
    cards = [m.support_cardinality for m in flow.measures]
    card_ok = all(b <= a for a, b in zip(cards, cards[1:]))

    t0 = flow.times[0]
    d0 = flow.measures[0].diameter()

    def variance(m):
        center = m.mean()
        return m.second_moment() - float(center @ center)

    v0 = variance(flow.measures[0])
    diam_ok = True
    mom_ok = True
    for t, m in zip(flow.times, flow.measures):
        envelope = math.exp(lam * (t - t0))
        if m.diameter() > d0 * envelope + 1e-9:
            diam_ok = False
        if variance(m) > v0 * envelope**2 + 1e-9:
            mom_ok = False
    return StickyReport(
        cardinality_nonincreasing=card_ok,
        diameter_bound_ok=diam_ok,
        moment_bound_ok=mom_ok,
    )


__all__ = [
    "EviReport",
    "ErrorStudyRow",
    "ExplicitScheme",
    "ExponentialScheme",
    "FlowError",
    "FlowResult",
    "ImplicitScheme",
    "MeanFieldRow",
    "StickyReport",
    "contraction_check",
    "empirical_sampler",
    "evi_residual",
    "evolve",
    "implicit_error_study",
    "jko_step",
    "mean_field_study",
    "scheme_from_json",
    "sticky_diagnostics",
]
