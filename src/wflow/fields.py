"""Velocity fields on measures, dissipativity checks, and energy functionals.

A velocity field maps (point, measure) to a velocity and carries a declared
dissipativity parameter: the claim that pairing the field difference with
the displacement never exceeds ``lambda`` times the squared displacement,
integrated against any coupling of interest.  The checkers in this module
test that claim over coupling families rather than trusting it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from wflow.measures import Coupling, expand_pair
from wflow.transport import w2_exact

EXHAUSTIVE_CAP = 8


class FieldError(ValueError):
    """Raised for malformed fields, profiles, or check configurations."""


# ---------------------------------------------------------------------------
# scalar profiles

_PROFILE_KINDS = ("zero", "quadratic", "abs", "quartic")


@dataclass(frozen=True)
class ScalarProfile:
    """Radial convex profile z -> value, with a fixed subgradient selection.

    quadratic: (c/2)|z|^2, abs: c|z|, quartic: (c/4)|z|^4; the gradient of
    the abs profile is taken to be zero at the kink.
    """

    kind: str
    coeff: float = 1.0

    def value(self, z):
        z = np.asarray(z, dtype=float)
        r2 = np.sum(z * z, axis=-1)
        if self.kind == "zero":
            return np.zeros_like(r2)
        if self.kind == "quadratic":
            return 0.5 * self.coeff * r2
        if self.kind == "abs":
            return self.coeff * np.sqrt(r2)
        return 0.25 * self.coeff * r2 * r2

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(z)
        if self.kind == "quadratic":
            return self.coeff * z
        if self.kind == "abs":
            r = np.sqrt(np.sum(z * z, axis=-1, keepdims=True))
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(r > 0.0, z / r, 0.0)
            return self.coeff * out
        r2 = np.sum(z * z, axis=-1, keepdims=True)
        return self.coeff * r2 * z

    def hess(self, z):
        """Hessian (..., d, d) of the profile; zero at the abs kink, like ``grad``."""
        z = np.asarray(z, dtype=float)
        eye = np.eye(z.shape[-1])
        outer = z[..., :, None] * z[..., None, :]
        r2 = np.sum(z * z, axis=-1)[..., None, None]
        if self.kind in ("zero", "quadratic"):
            return self.grad_lipschitz * np.broadcast_to(eye, outer.shape)
        if self.kind == "abs":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(r2 > 0.0, (eye - outer / r2) / np.sqrt(r2), 0.0)
            return self.coeff * out
        return self.coeff * (r2 * eye + 2.0 * outer)

    def prox_1d(self, v, t):
        """argmin_x (x - v)^2 / 2 + t * profile(x), elementwise on the line."""
        v = np.asarray(v, dtype=float)
        a = t * self.coeff
        if self.kind == "zero" or a == 0.0:
            return v.copy()
        if self.kind == "quadratic":
            return v / (1.0 + a)
        if self.kind == "abs":
            return np.sign(v) * np.maximum(np.abs(v) - a, 0.0)
        # the one real root of x + a x^3 = v, in the cancellation-free sinh form
        return 2.0 / math.sqrt(3.0 * a) * np.sinh(np.arcsinh(1.5 * v * math.sqrt(3.0 * a)) / 3.0)

    @property
    def convexity_modulus(self):
        return self.coeff if self.kind == "quadratic" else 0.0

    @property
    def grad_lipschitz(self):
        if self.kind == "zero":
            return 0.0
        if self.kind == "quadratic":
            return self.coeff
        return None


def profile(kind, coeff=1.0):
    if kind not in _PROFILE_KINDS:
        raise FieldError(f"unknown profile kind: {kind!r} (expected one of {_PROFILE_KINDS})")
    coeff = float(coeff)
    if not math.isfinite(coeff):
        raise FieldError(f"profile coefficient must be finite, got {coeff}")
    if coeff < 0.0:
        raise FieldError("profile coefficient must be nonnegative to stay convex")
    return ScalarProfile(kind=kind, coeff=coeff)


def _finite(value, path):
    """Decoded number or number array as floats; non-finite entries name their path."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FieldError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise FieldError(f"{path}: must be finite, got {value}")
    return arr


def _profile_from_json(data, path):
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise FieldError(f"profile payload missing field: {exc}") from exc
    return profile(kind, float(_finite(data.get("coeff", 1.0), f"{path}.coeff")))


def _profile_to_json(p):
    return {"kind": p.kind, "coeff": p.coeff}


# ---------------------------------------------------------------------------
# velocity fields


@dataclass(frozen=True)
class VelocityField:
    """Deterministic velocity law (point, measure) -> velocity.

    ``lambda_claim`` is the declared dissipativity parameter; ``lip`` an
    optional Lipschitz bound for the induced particle map, used by explicit
    stepping and fixed-point solvers.  ``batch_fn`` maps an (n, d) particle
    array and the measure to the (n, d) velocities; a single point is a
    one-row batch.
    """

    batch_fn: Callable
    lambda_claim: float
    lip: Optional[float] = None
    meta: Optional[dict] = None

    def evaluate(self, x, mu):
        return self.evaluate_batch(np.asarray(x, dtype=float)[None, :], mu)[0]

    def evaluate_batch(self, points, mu):
        return np.asarray(self.batch_fn(np.asarray(points, dtype=float), mu), dtype=float)


def linear_field(matrix, offset):
    """f(x) = A x + b, measure independent.

    The dissipativity claim is the top eigenvalue of the symmetric part of
    A, which is exact for linear maps.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise FieldError(f"incompatible linear field shapes {a.shape}, {b.shape}")
    sym = 0.5 * (a + a.T)
    claim = float(np.max(np.linalg.eigvalsh(sym)))
    lip = float(np.linalg.norm(a, 2))
    return VelocityField(
        batch_fn=lambda pts, mu: pts @ a.T + b,
        lambda_claim=claim,
        lip=lip,
        meta={"kind": "linear", "params": {"matrix": a.tolist(), "offset": b.tolist()}},
    )


def barycentric_field(strength, drift):
    """f(x, mu) = strength * (mean(mu) - x) + drift."""
    s = float(strength)
    b = np.asarray(drift, dtype=float)
    claim = 0.0 if s >= 0.0 else -s
    return VelocityField(
        batch_fn=lambda pts, mu: s * (mu.mean()[None, :] - pts) + b,
        lambda_claim=claim,
        lip=abs(s),
        meta={"kind": "barycentric", "params": {"strength": s, "drift": b.tolist()}},
    )


def pw_field(pot, inter):
    """Subgradient descent field of a potential plus pair interaction.

    f(x, mu) = -grad P(x) - sum_j w_j grad W(x - a_j), with the convexity
    of the potential carried over as a negative dissipativity claim.
    """
    claim = -pot.convexity_modulus
    lp = pot.grad_lipschitz
    li = inter.grad_lipschitz
    lip = None if lp is None or li is None else lp + 2.0 * li

    def ev_batch(pts, mu):
        diffs = pts[:, None, :] - mu.atoms[None, :, :]
        conv = np.tensordot(inter.grad(diffs), mu.weights, axes=(1, 0))
        return -pot.grad(pts) - conv

    return VelocityField(
        batch_fn=ev_batch,
        lambda_claim=claim,
        lip=lip,
        meta={
            "kind": "pw",
            "params": {
                "potential": _profile_to_json(pot),
                "interaction": _profile_to_json(inter),
            },
        },
    )


def barycentric_projection(components):
    """Collapse a convex mixture of fields to its mean field.

    ``components`` lists (weight, field) pairs; the weights must be
    nonnegative and sum to one.  The projected field averages the component
    velocities pointwise; the dissipativity claims mix linearly.
    """
    comps = [(float(w), f) for w, f in components]
    if any(w < 0.0 for w, _ in comps):
        raise FieldError("superposition weights must be nonnegative")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-12:
        raise FieldError(f"superposition weights must sum to 1, got {total}")
    claim = sum(w * f.lambda_claim for w, f in comps)
    lips = [f.lip for _, f in comps]
    lip = None if any(v is None for v in lips) else sum(w * v for (w, _), v in zip(comps, lips))

    def ev_batch(pts, mu):
        return sum(w * f.evaluate_batch(pts, mu) for w, f in comps)

    metas = [f.meta for _, f in comps]
    meta = None
    if all(m is not None for m in metas):
        meta = {
            "kind": "superposition",
            "params": {
                "components": [
                    {"weight": w, "field": {"kind": m["kind"], "params": m["params"]}}
                    for (w, _), m in zip(comps, metas)
                ]
            },
        }
    return VelocityField(batch_fn=ev_batch, lambda_claim=float(claim), lip=lip, meta=meta)


def lambda_transform(f, lam):
    """Shift the field by -lam * x; the claim drops by lam.

    The coupling gap of (f, lam) equals the gap of the transformed field at
    zero on every coupling, which reduces lambda-dissipativity checks to
    the zero case.
    """
    lam = float(lam)

    def ev_batch(pts, mu):
        return f.evaluate_batch(pts, mu) - lam * pts

    lip = None if f.lip is None else f.lip + abs(lam)
    return VelocityField(batch_fn=ev_batch, lambda_claim=f.lambda_claim - lam, lip=lip)


# ---------------------------------------------------------------------------
# evaluation records


@dataclass(frozen=True)
class EvalResult:
    velocities: np.ndarray
    l2_norm: float


def eval_on_measure(f, mu):
    """Field evaluated at every atom; norm weighted by the atom masses."""
    vel = f.evaluate_batch(mu.atoms, mu)
    norm = math.sqrt(float(mu.weights @ np.sum(vel * vel, axis=1)))
    return EvalResult(velocities=vel, l2_norm=norm)


# ---------------------------------------------------------------------------
# dissipativity gaps and checks


def coupling_gap(f, mu0, mu1, lam, gamma):
    """Pairing of field differences with displacements, minus lam cost.

    Nonpositive gaps on the couplings of interest are what the declared
    dissipativity parameter promises.
    """
    x0, x1 = gamma.expanded_pairs()
    v0 = f.evaluate_batch(x0, mu0)
    v1 = f.evaluate_batch(x1, mu1)
    diff = x0 - x1
    pair = float(np.mean(np.sum((v0 - v1) * diff, axis=1)))
    cost = float(np.mean(np.sum(diff * diff, axis=1)))
    return pair - lam * cost


def metric_dissipativity_gap(f, mu0, mu1, lam):
    """Gap on one optimal plan between the two measures."""
    plan = w2_exact(mu0, mu1).plan
    return coupling_gap(f, mu0, mu1, lam, plan)


@dataclass(frozen=True)
class DissipativityReport:
    passes: bool
    worst_gap: float
    witness: Optional[Coupling]
    n_checked: int


def total_dissipativity_check(f, mu0, mu1, lam, mode="exhaustive", n_samples=None, seed=None):
    """Probe the dissipativity gap over whole families of couplings.

    The gap is linear in the coupling, so its maximum over all couplings of
    the expanded pair is attained at a permutation pairing; exhaustive mode
    enumerates every permutation, sampled mode draws them at random from a
    seeded generator.  Passing means the worst gap stays below 1e-9.
    """
    xs, ys, idx0, idx1 = expand_pair(mu0, mu1)
    n = xs.shape[0]
    diff = xs[:, None, :] - ys[None, :, :]
    vdiff = f.evaluate_batch(xs, mu0)[:, None, :] - f.evaluate_batch(ys, mu1)[None, :, :]
    g = np.sum(vdiff * diff, axis=-1) - lam * np.sum(diff * diff, axis=-1)
    rows = np.arange(n)

    if mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise FieldError(
                f"exhaustive mode enumerates n! pairings and needs n <= {EXHAUSTIVE_CAP}, got {n}"
            )
        perms = itertools.permutations(range(n))
        perm_iter = (np.array(p, dtype=np.int64) for p in perms)
        n_checked = math.factorial(n)
    elif mode == "sampled":
        if seed is None:
            raise FieldError("sampled mode requires an explicit seed")
        if n_samples is None or n_samples < 1:
            raise FieldError("sampled mode requires n_samples >= 1")
        rng = np.random.default_rng(seed)
        perm_iter = (rng.permutation(n) for _ in range(n_samples))
        n_checked = n_samples
    else:
        raise FieldError(f"unknown mode: {mode!r}")

    worst = -math.inf
    worst_perm = None
    for perm in perm_iter:
        gap = float(np.sum(g[rows, perm]) / n)
        if gap > worst:
            worst = gap
            worst_perm = perm
    witness = None
    passes = worst <= 1e-9
    if not passes:
        witness = Coupling.from_matching(mu0, mu1, idx0, idx1[worst_perm])
    return DissipativityReport(passes=passes, worst_gap=worst, witness=witness, n_checked=n_checked)


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class Functional:
    """Potential-plus-interaction energy on measures with its descent field."""

    phi: Callable
    subgradient_field: VelocityField
    potential: ScalarProfile
    interaction: ScalarProfile


def pw_functional(pot, inter):
    """Potential plus pair-interaction energy.

    phi(mu) = sum_i w_i P(a_i) + (1/2) sum_{ij} w_i w_j W(a_i - a_j); the
    descent field is shared with pw_field so values and velocities stay
    consistent.
    """

    def phi(mu):
        val = float(mu.weights @ pot.value(mu.atoms))
        diffs = mu.atoms[:, None, :] - mu.atoms[None, :, :]
        wmat = np.outer(mu.weights, mu.weights)
        val += 0.5 * float(np.sum(wmat * inter.value(diffs)))
        return val

    return Functional(
        phi=phi,
        subgradient_field=pw_field(pot, inter),
        potential=pot,
        interaction=inter,
    )


@dataclass(frozen=True)
class FunctionalEval:
    value: float
    velocities: np.ndarray


def functional_value_and_field(functional, mu):
    res = eval_on_measure(functional.subgradient_field, mu)
    return FunctionalEval(value=functional.phi(mu), velocities=res.velocities)


# ---------------------------------------------------------------------------
# serialization


def field_to_json(f):
    if f.meta is None:
        raise FieldError("this field has no serializable description")
    return {
        "kind": f.meta["kind"],
        "params": f.meta["params"],
        "lambda": f.lambda_claim,
    }


def _component_from_json(data, path):
    weight = float(_finite(data["weight"], f"{path}.weight"))
    try:
        return weight, field_from_json(data["field"])
    except FieldError as exc:
        raise FieldError(f"{path}.field.{exc}") from exc


def field_from_json(data):
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise FieldError(f"field payload missing field: {exc}") from exc
    params = data.get("params", {})
    if kind == "linear":
        f = linear_field(*(_finite(params[k], f"params.{k}") for k in ("matrix", "offset")))
    elif kind == "barycentric":
        f = barycentric_field(*(_finite(params[k], f"params.{k}") for k in ("strength", "drift")))
    elif kind == "pw":
        f = pw_field(
            _profile_from_json(params["potential"], "params.potential"),
            _profile_from_json(params["interaction"], "params.interaction"),
        )
    elif kind == "superposition":
        f = barycentric_projection(
            [_component_from_json(c, f"params.components[{k}]") for k, c in enumerate(params["components"])]
        )
    else:
        raise FieldError(f"unknown field kind: {kind!r}")
    if "lambda" in data and data["lambda"] is not None:
        f = dataclasses.replace(f, lambda_claim=float(_finite(data["lambda"], "lambda")))
    return f


def functional_from_json(data):
    kind = data.get("kind")
    if kind != "pw":
        raise FieldError(f"only 'pw' functionals can be built from json, got {kind!r}")
    params = data.get("params", {})
    return pw_functional(
        _profile_from_json(params["potential"], "params.potential"),
        _profile_from_json(params["interaction"], "params.interaction"),
    )


__all__ = [
    "DissipativityReport",
    "EvalResult",
    "FieldError",
    "Functional",
    "FunctionalEval",
    "ScalarProfile",
    "VelocityField",
    "barycentric_field",
    "barycentric_projection",
    "coupling_gap",
    "eval_on_measure",
    "field_from_json",
    "field_to_json",
    "functional_from_json",
    "functional_value_and_field",
    "lambda_transform",
    "linear_field",
    "metric_dissipativity_gap",
    "profile",
    "pw_field",
    "pw_functional",
    "total_dissipativity_check",
]
