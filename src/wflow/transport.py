"""Exact quadratic and bottleneck transport between rational-weight measures.

Distances are computed on the common-denominator particle expansion, where
every particle carries the same mass and optimal transport reduces to an
assignment problem.  The module also provides plan diagnostics: cyclical
monotonicity checks, a sufficient local optimality certificate, constant
speed decomposition of the interpolation path, and the chord alignment
tools used to restore injectivity of particle pairings by perturbation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from wflow.measures import Coupling, expand_pair, interpolate

BRUTEFORCE_CAP = 8


class TransportError(ValueError):
    """Raised when a transport computation is invalid or out of scope."""


class GeodesicError(TransportError):
    """Decomposition failed; ``bracket`` bounds where certification broke."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class Certificate(Enum):
    CERTIFIED_OPTIMAL = "certified_optimal"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class W2Result:
    distance: float
    plan: Coupling

    @property
    def tie_detected(self):
        """Whether another optimal plan exists through a zero-cost 2-swap.

        Support cells (a, b) and (c, d) with a != c and b != d tie when
        C_ad + C_cb equals C_ab + C_cd up to 1e-12 relative, C being the
        atom cost matrix; moving a unit of mass across the swap then keeps
        the cost.
        """
        c = self.plan.atom_costs()
        a, b = np.nonzero(self.plan.mass)
        direct = c[a, b][:, None] + c[a, b][None, :]
        swapped = c[a[:, None], b[None, :]] + c[a[None, :], b[:, None]]
        distinct = (a[:, None] != a[None, :]) & (b[:, None] != b[None, :])
        return bool(np.any(distinct & (np.abs(swapped - direct) <= 1e-12 * direct)))


@dataclass(frozen=True)
class CycleCheck:
    passes: bool
    witness: list | None
    worst_sum: float


@dataclass(frozen=True)
class ChordAlignment:
    aligned: bool
    witness: tuple | None


def _expansion(mu, nu):
    if mu.dim != nu.dim:
        raise TransportError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    return expand_pair(mu, nu)


def _squared_distances(xs, ys):
    diff = xs[:, None, :] - ys[None, :, :]
    return np.sum(diff * diff, axis=-1)


def w2_exact(mu, nu):
    """Quadratic transport distance with an optimal plan.

    Solves the assignment problem on the particle expansion and returns the
    solver's own matching as the plan.  The solver is deterministic, so
    repeated runs produce identical plans.
    """
    xs, ys, src_atom, tgt_atom = _expansion(mu, nu)
    d2 = _squared_distances(xs, ys)
    rows, sigma = linear_sum_assignment(d2)
    cost = float(np.sum(d2[rows, sigma]) / xs.shape[0])
    plan = Coupling.from_matching(mu, nu, src_atom, tgt_atom[sigma])
    return W2Result(distance=math.sqrt(max(cost, 0.0)), plan=plan)


def w2_bruteforce(mu, nu):
    """Distance by enumerating every matching; independent of the solver."""
    xs, ys, _, _ = _expansion(mu, nu)
    n = xs.shape[0]
    if n > BRUTEFORCE_CAP:
        raise TransportError(
            f"brute force needs at most {BRUTEFORCE_CAP} particles, got {n}"
        )
    d2 = _squared_distances(xs, ys)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = float(sum(d2[i, perm[i]] for i in range(n)))
        if total < best:
            best = total
    return math.sqrt(max(best / n, 0.0))


def w_infinity(mu, nu):
    """Bottleneck transport distance: minimal worst single-particle move."""
    xs, ys, _, _ = _expansion(mu, nu)
    d2 = _squared_distances(xs, ys)
    values = np.unique(d2)
    lo, hi = 0, len(values) - 1
    # smallest threshold admitting a perfect matching: one exists exactly
    # when the cheapest assignment uses no blocked pair
    while lo < hi:
        mid = (lo + hi) // 2
        blocked = d2 > values[mid]
        if blocked[linear_sum_assignment(blocked)].any():
            lo = mid + 1
        else:
            hi = mid
    return math.sqrt(float(values[lo]))


def cyclical_monotonicity_check(gamma, max_cycle):
    """Search support cycles for a rearrangement that lowers the cost.

    Returns the worst (most negative) cycle gain found; a gain below
    -1e-9 is a proof of non-optimality and the cycle is reported.
    """
    pairs = gamma.support_pairs()
    srcs = [gamma.mu.atoms[i] for i, _ in pairs]
    tgts = [gamma.nu.atoms[j] for _, j in pairs]
    direct = [float(np.sum((s - t) ** 2)) for s, t in zip(srcs, tgts)]

    worst = math.inf
    worst_cycle = None
    top = min(max_cycle, len(pairs))
    for k in range(2, top + 1):
        for combo in itertools.combinations(range(len(pairs)), k):
            base = sum(direct[c] for c in combo)
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                cyc = (first,) + rest
                moved = 0.0
                for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                    moved += float(np.sum((srcs[a] - tgts[b]) ** 2))
                gain = moved - base
                if gain < worst:
                    worst = gain
                    worst_cycle = cyc
    if worst is math.inf:
        return CycleCheck(passes=True, witness=None, worst_sum=0.0)
    if worst >= -1e-9:
        return CycleCheck(passes=True, witness=None, worst_sum=worst)
    return CycleCheck(
        passes=False,
        witness=[pairs[c] for c in worst_cycle],
        worst_sum=worst,
    )


def local_optimality_certificate(gamma):
    """Sufficient optimality test: max move at most half the source gap.

    If every unit of mass travels at most delta/2, where delta is the
    smallest distance between distinct source atoms, any cycle rearrangement
    pays at least (delta/2)^2 per link that changes source, so the plan is
    cyclically monotone and optimal.  Certifies or abstains; never rejects.
    """
    pairs = gamma.support_pairs()
    move = 0.0
    for i, j in pairs:
        move = max(move, float(np.linalg.norm(gamma.mu.atoms[i] - gamma.nu.atoms[j])))
    atoms = gamma.mu.atoms
    if atoms.shape[0] < 2:
        return Certificate.CERTIFIED_OPTIMAL
    sep = math.inf
    for i in range(atoms.shape[0]):
        for j in range(i + 1, atoms.shape[0]):
            sep = min(sep, float(np.linalg.norm(atoms[i] - atoms[j])))
    if move <= 0.5 * sep:
        return Certificate.CERTIFIED_OPTIMAL
    return Certificate.UNKNOWN


def _segment_is_geodesic(gamma, left_measure, t0, t, speed2, tol):
    # certified when the squared distance grows exactly quadratically,
    # both at the endpoint and at the midpoint of the candidate segment
    for s in ((t0 + t) / 2.0, t):
        target = interpolate(gamma, s)
        d2 = w2_exact(left_measure, target).distance ** 2
        if abs(d2 - (s - t0) ** 2 * speed2) > tol * speed2:
            return False
    return True


def geodesic_decompose(gamma, tol=1e-7, max_segments=64):
    """Split [0, 1] so the plan interpolation is geodesic on each piece.

    Probes the full remaining interval first, so plans that are already
    optimal come back as the single segment [0.0, 1.0].  Otherwise the
    largest certifiable right endpoint is found by bisection.  Raises
    GeodesicError carrying the uncertifiable bracket when no progress can
    be made or the segment budget runs out.
    """
    speed2 = gamma.cost()
    if speed2 == 0.0:
        return [0.0, 1.0]
    breakpoints = [0.0]
    t0 = 0.0
    left = interpolate(gamma, 0.0)
    while t0 < 1.0:
        if len(breakpoints) > max_segments:
            raise GeodesicError(
                f"more than {max_segments} segments needed; "
                "interpolation cannot be certified piecewise geodesic at this tolerance",
                bracket=(t0, 1.0),
            )
        if _segment_is_geodesic(gamma, left, t0, 1.0, speed2, tol):
            breakpoints.append(1.0)
            return breakpoints
        lo, hi = t0, 1.0
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2.0
            if _segment_is_geodesic(gamma, left, t0, mid, speed2, tol):
                lo = mid
            else:
                hi = mid
        if lo <= t0 + 1e-12:
            raise GeodesicError(
                "no certifiable forward progress in the geodesic decomposition",
                bracket=(t0, hi),
            )
        breakpoints.append(lo)
        t0 = lo
        left = interpolate(gamma, t0)
    return breakpoints


def _as_point_cloud(points, min_dim=2):
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise TransportError(f"expected a 2-d point array, got shape {arr.shape}")
    if arr.shape[1] < min_dim:
        raise TransportError(
            f"chord alignment needs ambient dimension >= {min_dim}, got {arr.shape[1]}"
        )
    return arr


def _chords(points):
    out = []
    for i in range(points.shape[0]):
        for j in range(i + 1, points.shape[0]):
            c = points[j] - points[i]
            if np.any(c != 0.0):
                out.append(c)
    return out


def _minor_pairs(dim):
    return [(p, q) for p in range(dim) for q in range(p + 1, dim)]


def check_chords_alignment(points_a, points_b, rel_tol=1e-12):
    """Test whether some chord of A is parallel to some chord of B.

    Parallelism is decided by the normalized 2x2 minors of the chord pair;
    all of them vanishing (relative to the chord lengths) means the two
    directions span a line.
    """
    a = _as_point_cloud(points_a)
    b = _as_point_cloud(points_b)
    if a.shape[1] != b.shape[1]:
        raise TransportError("point clouds must share the ambient dimension")
    minors = _minor_pairs(a.shape[1])
    for u in _chords(a):
        nu_ = float(np.linalg.norm(u))
        for v in _chords(b):
            scale = nu_ * float(np.linalg.norm(v))
            worst = max(abs(u[p] * v[q] - u[q] * v[p]) for p, q in minors)
            if worst <= rel_tol * scale:
                return ChordAlignment(aligned=True, witness=(u.copy(), v.copy()))
    return ChordAlignment(aligned=False, witness=None)


def _affine_common_root(alphas, gammas, tol=1e-9):
    """Common root of the affine family s -> (1-s)*alpha + s*gamma.

    Returns (kind, s) where kind is "none" (no common root, family is safe),
    "all" (identically zero family), or "root".
    """
    roots = []
    any_nontrivial = False
    for a, g in zip(alphas, gammas):
        if a == 0.0 and g == 0.0:
            continue
        any_nontrivial = True
        if a == g:
            # constant nonzero: this component never vanishes
            return "none", None
        roots.append(a / (a - g))
    if not any_nontrivial:
        return "all", None
    s0 = roots[0]
    for s in roots[1:]:
        if abs(s - s0) > tol:
            return "none", None
    return "root", s0


def verify_injectivity_family(points_a, points_b, points_b_prime):
    """Check the whole interpolated family from B to B' against A.

    For s in (0, 1] the moving cloud is (1-s) B + s B'.  Every chord of the
    moving cloud is affine in s, so a chord collision or an alignment with
    a chord of A can only happen where all the relevant affine functions
    vanish together; those roots are computed exactly and rejected if any
    lands inside (0, 1].
    """
    a = _as_point_cloud(points_a)
    b = _as_point_cloud(points_b)
    bp = _as_point_cloud(points_b_prime)
    if b.shape != bp.shape or a.shape[1] != b.shape[1]:
        raise TransportError("point cloud shapes are incompatible")
    dim = a.shape[1]
    minors = _minor_pairs(dim)

    def root_in_family(s):
        return 1e-12 < s <= 1.0 + 1e-12

    m = b.shape[0]
    chord_index = [(i, j) for i in range(m) for j in range(i + 1, m)]
    v0s = [b[j] - b[i] for i, j in chord_index]
    v1s = [bp[j] - bp[i] for i, j in chord_index]

    # collisions inside the moving cloud
    for v0, v1 in zip(v0s, v1s):
        kind, s = _affine_common_root(v0.tolist(), v1.tolist())
        if kind == "all":
            return False
        if kind == "root" and root_in_family(s):
            return False

    # alignment of a fixed chord of A with a moving chord
    for u in _chords(a):
        for v0, v1 in zip(v0s, v1s):
            alphas = [u[p] * v0[q] - u[q] * v0[p] for p, q in minors]
            gammas = [u[p] * v1[q] - u[q] * v1[p] for p, q in minors]
            kind, s = _affine_common_root(alphas, gammas)
            if kind == "all":
                return False
            if kind == "root" and root_in_family(s):
                return False
    return True


def perturb_for_injectivity(points_a, points_b, radius, seed, max_tries=50):
    """Move B by less than ``radius`` so the whole family to B' is safe."""
    a = _as_point_cloud(points_a)
    b = _as_point_cloud(points_b)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        raw = rng.normal(size=b.shape)
        norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
        sizes = rng.uniform(0.2, 0.8, size=(b.shape[0], 1)) * radius
        candidate = b + raw / norms * sizes
        if verify_injectivity_family(a, b, candidate):
            return candidate
    raise TransportError(
        f"no safe perturbation found within {max_tries} attempts at radius {radius}"
    )


__all__ = [
    "Certificate",
    "ChordAlignment",
    "CycleCheck",
    "GeodesicError",
    "TransportError",
    "W2Result",
    "check_chords_alignment",
    "cyclical_monotonicity_check",
    "geodesic_decompose",
    "local_optimality_certificate",
    "perturb_for_injectivity",
    "verify_injectivity_family",
    "w2_bruteforce",
    "w2_exact",
    "w_infinity",
]
