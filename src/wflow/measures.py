"""Discrete probability measures with exact rational weights.

A measure is stored as a lexicographically sorted list of distinct atoms
together with positive integer multiplicities; the weight of atom ``i`` is
``multiplicities[i] / denominator``.  Keeping weights as integers makes
marginal checks on couplings exact and lets two measures be compared
without floating-point slack in the mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

DENOMINATOR_CAP = 10**6
PAIR_BYTES_CAP = 2**30


class MeasureError(ValueError):
    """Raised for malformed measures, couplings, or mass bookkeeping."""


def _as_atom_array(atoms):
    arr = np.array(atoms, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise MeasureError(f"atoms must form a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MeasureError("atom coordinates must be finite")
    # normalize -0.0 so lexicographic order and duplicate detection are stable
    arr = arr + 0.0
    return arr


def _as_multiplicities(multiplicities, n_atoms):
    arr = np.asarray(multiplicities)
    if arr.shape != (n_atoms,):
        raise MeasureError(
            f"multiplicities must have shape ({n_atoms},), got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.all(np.abs(arr - rounded) == 0.0):
            raise MeasureError("multiplicities must be integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if np.any(arr < 1):
        raise MeasureError("multiplicities must be positive")
    return arr


class DiscreteMeasure:
    """Finitely supported probability measure with weights ``mult / denominator``.

    Construction sorts atoms lexicographically by coordinates and merges
    exact duplicates by summing their multiplicities, so two measures built
    from the same mass distribution in any input order compare equal.
    """

    __slots__ = ("atoms", "multiplicities", "denominator")

    def __init__(self, atoms, multiplicities):
        pts = _as_atom_array(atoms)
        mults = _as_multiplicities(multiplicities, pts.shape[0])
        # lexicographic row sort with first coordinate most significant
        order = np.lexsort(pts.T[::-1])
        pts = pts[order]
        mults = mults[order]
        if pts.shape[0] > 1:
            starts = np.empty(pts.shape[0], dtype=bool)
            starts[0] = True
            np.any(pts[1:] != pts[:-1], axis=1, out=starts[1:])
            idx = np.flatnonzero(starts)
            unique = pts[idx]
            merged = np.add.reduceat(mults, idx)
        else:
            unique = pts
            merged = mults
        unique.flags.writeable = False
        merged.flags.writeable = False
        self.atoms = unique
        self.multiplicities = merged
        self.denominator = int(merged.sum())

    @classmethod
    def from_points(cls, points):
        """Uniform measure: one unit of mass on each listed point."""
        pts = _as_atom_array(points)
        return cls(pts, np.ones(pts.shape[0], dtype=np.int64))

    @classmethod
    def dirac(cls, x):
        return cls(np.asarray(x, dtype=float).reshape(1, -1), np.array([1]))

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def support_cardinality(self):
        return self.atoms.shape[0]

    @property
    def weights(self):
        return self.multiplicities / self.denominator

    def mean(self):
        return self.weights @ self.atoms

    def second_moment(self):
        """Mass-weighted integral of the squared norm."""
        return float(self.weights @ np.sum(self.atoms**2, axis=1))

    def diameter(self):
        if self.support_cardinality == 1:
            return 0.0
        diff = self.atoms[:, None, :] - self.atoms[None, :, :]
        return float(np.sqrt(np.max(np.sum(diff**2, axis=-1))))

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        if self.atoms.shape != other.atoms.shape:
            return False
        if not np.array_equal(self.atoms, other.atoms):
            return False
        # same weights as exact rationals: cross-multiplied integer compare
        lhs = self.multiplicities.astype(object) * other.denominator
        rhs = other.multiplicities.astype(object) * self.denominator
        return bool(np.all(lhs == rhs))

    __hash__ = None

    def __repr__(self):
        return (
            f"DiscreteMeasure({self.support_cardinality} atoms in R^{self.dim}, "
            f"denominator={self.denominator})"
        )


class LagrangianVector:
    """Ordered list of ``n`` particles carrying mass ``1/n`` each.

    The inner product averages over particles, so norms agree with the
    transport cost of moving every particle to the origin.
    """

    __slots__ = ("particles",)

    def __init__(self, particles):
        arr = np.array(particles, dtype=float, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise MeasureError(f"particles must form a nonempty 2-d array, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MeasureError("particle coordinates must be finite")
        self.particles = arr

    @property
    def n_particles(self):
        return self.particles.shape[0]

    @property
    def dim(self):
        return self.particles.shape[1]

    def inner(self, other):
        if self.particles.shape != other.particles.shape:
            raise MeasureError("inner product needs matching particle counts and dims")
        return float(np.mean(np.sum(self.particles * other.particles, axis=1)))

    def norm(self):
        return float(np.sqrt(np.mean(np.sum(self.particles**2, axis=1))))

    def __sub__(self, other):
        if self.particles.shape != other.particles.shape:
            raise MeasureError("subtraction needs matching particle counts and dims")
        return LagrangianVector(self.particles - other.particles)

    def __add__(self, other):
        if self.particles.shape != other.particles.shape:
            raise MeasureError("addition needs matching particle counts and dims")
        return LagrangianVector(self.particles + other.particles)

    def __repr__(self):
        return f"LagrangianVector({self.n_particles} particles in R^{self.dim})"


def _check_pair_bytes(n, d):
    # every dense n x n x d float64 array of pairwise differences is sized here first
    if n * n * d * 8 > PAIR_BYTES_CAP:
        raise MeasureError(
            f"{n} particles in {d} dimensions need {n * n * d * 8} bytes of pairwise "
            f"differences, above the cap {PAIR_BYTES_CAP}"
        )


def iota_project(vector, merge_eps):
    """Project a particle list to the measure it carries.

    Particles linked by a chain of steps of length at most ``merge_eps``
    collapse to a single atom at their mass-weighted mean.  With
    ``merge_eps=0`` only exactly coincident particles merge.
    """
    pts = vector.particles
    n = pts.shape[0]
    if merge_eps > 0.0:
        _check_pair_bytes(n, pts.shape[1])
        close = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1) <= merge_eps * merge_eps
        # the graph search has a fixed cost far above a small projection's,
        # so it runs only when some pair besides the diagonal is close
        if np.count_nonzero(close) > n:
            # when closeness is already an equivalence, each particle's first
            # close index names its class, and numbering the classes by that
            # index gives connected_components' labels without its fixed cost
            first = close.argmax(axis=1)
            if np.array_equal(close, first[:, None] == first[None, :]):
                labels = np.unique(first, return_inverse=True)[1]
            else:
                _, labels = connected_components(close, directed=False)
            centers = np.array([pts[labels == c].mean(axis=0) for c in range(labels.max() + 1)])
            return DiscreteMeasure(centers, np.bincount(labels))
    return DiscreteMeasure(pts, np.ones(n, dtype=np.int64))


def _particle_atoms(mu, n):
    # the expansion layout: atom i fills multiplicities[i] * (n / denominator)
    # consecutive particle slots, atoms in canonical order
    if n % mu.denominator != 0:
        raise MeasureError(
            f"cannot expand denominator {mu.denominator} to {n} particles: not divisible"
        )
    reps = mu.multiplicities * (n // mu.denominator)
    return np.repeat(np.arange(mu.support_cardinality), reps)


def expand(mu, n):
    """Lift a measure to ``n`` equal-mass particles in canonical atom order."""
    return LagrangianVector(mu.atoms[_particle_atoms(mu, n)])


def expand_pair(mu, nu):
    """Expand two measures to their common particle count.

    Returns ``(xs, ys, src_atom, tgt_atom)``: the particle arrays and, for
    every particle, the index of the atom it sits on.
    """
    n = common_denominator(mu, nu)
    _check_pair_bytes(n, mu.dim)
    src_atom = _particle_atoms(mu, n)
    tgt_atom = _particle_atoms(nu, n)
    return mu.atoms[src_atom], nu.atoms[tgt_atom], src_atom, tgt_atom


def common_denominator(mu, nu):
    """Least common particle count for a pair of measures, capped at 10^6."""
    n = math.lcm(mu.denominator, nu.denominator)
    if n > DENOMINATOR_CAP:
        raise MeasureError(
            f"common denominator {n} exceeds the cap {DENOMINATOR_CAP}; "
            "refuse to build exact couplings this large"
        )
    return n


class Coupling:
    """Transport plan between two measures with integer mass entries.

    ``mass[i, j]`` counts units of size ``1/denominator`` moved from atom
    ``i`` of the source to atom ``j`` of the target.  Marginals are checked
    exactly on construction.
    """

    __slots__ = ("mu", "nu", "mass", "denominator")

    def __init__(self, mu, nu, mass):
        if mu.dim != nu.dim:
            raise MeasureError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        n = common_denominator(mu, nu)
        arr = np.asarray(mass)
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.all(np.abs(arr - rounded) == 0.0):
                raise MeasureError("coupling mass entries must be integers")
            arr = rounded
        arr = arr.astype(np.int64)
        if arr.shape != (mu.support_cardinality, nu.support_cardinality):
            raise MeasureError(
                f"mass matrix shape {arr.shape} does not match supports "
                f"({mu.support_cardinality}, {nu.support_cardinality})"
            )
        if np.any(arr < 0):
            raise MeasureError("coupling mass entries must be nonnegative")
        row_expected = mu.multiplicities * (n // mu.denominator)
        col_expected = nu.multiplicities * (n // nu.denominator)
        if not np.array_equal(arr.sum(axis=1), row_expected):
            raise MeasureError("coupling row sums do not match the source marginal")
        if not np.array_equal(arr.sum(axis=0), col_expected):
            raise MeasureError("coupling column sums do not match the target marginal")
        arr = arr.copy()
        arr.flags.writeable = False
        self.mu = mu
        self.nu = nu
        self.mass = arr
        self.denominator = n

    @classmethod
    def identity(cls, mu):
        return cls(mu, mu, np.diag(mu.multiplicities))

    @classmethod
    def from_matching(cls, mu, nu, src_atom, tgt_atom):
        """Plan of a particle matching: particle k moves atom src_atom[k] to tgt_atom[k]."""
        mass = np.zeros((mu.support_cardinality, nu.support_cardinality), dtype=np.int64)
        np.add.at(mass, (src_atom, tgt_atom), 1)
        return cls(mu, nu, mass)

    def support_pairs(self):
        """Atom index pairs (i, j) carrying positive mass, lex order."""
        idx_i, idx_j = np.nonzero(self.mass)
        return list(zip(idx_i.tolist(), idx_j.tolist()))

    def atom_costs(self):
        """Squared distance from every source atom to every target atom."""
        diff = self.mu.atoms[:, None, :] - self.nu.atoms[None, :, :]
        return np.sum(diff**2, axis=-1)

    def cost(self):
        """Mass-weighted sum of squared displacements."""
        return float(np.sum(self.mass * self.atom_costs()) / self.denominator)

    def expanded_pairs(self):
        """Unit-mass particle pairs (sources, targets), lex order in (i, j)."""
        idx_i, idx_j = np.nonzero(self.mass)
        reps = self.mass[idx_i, idx_j]
        x0 = np.repeat(self.mu.atoms[idx_i], reps, axis=0)
        x1 = np.repeat(self.nu.atoms[idx_j], reps, axis=0)
        return x0, x1

    def __repr__(self):
        return (
            f"Coupling({self.mu.support_cardinality}x{self.nu.support_cardinality} "
            f"atoms, denominator={self.denominator})"
        )


def interpolate(gamma, t):
    """Measure at parameter ``t`` along the straight-line displacement of a plan."""
    if not 0.0 <= t <= 1.0:
        raise MeasureError(f"interpolation parameter must lie in [0, 1], got {t}")
    x0, x1 = gamma.expanded_pairs()
    # x0 + t*(x1 - x0) keeps endpoints bitwise exact
    pts = x0 + t * (x1 - x0)
    return iota_project(LagrangianVector(pts), 0.0)


@dataclass(frozen=True)
class MeasureStats:
    second_moment: float
    mean: np.ndarray
    diameter: float
    support_cardinality: int


def measure_stats(mu):
    return MeasureStats(
        second_moment=mu.second_moment(),
        mean=mu.mean(),
        diameter=mu.diameter(),
        support_cardinality=mu.support_cardinality,
    )


def measure_to_json(mu):
    return {
        "dim": int(mu.dim),
        "denominator": int(mu.denominator),
        "atoms": [
            {"x": [float(v) for v in atom], "mult": int(m)}
            for atom, m in zip(mu.atoms, mu.multiplicities)
        ],
    }


def measure_from_json(data):
    try:
        dim = int(data["dim"])
        denominator = int(data["denominator"])
        atom_entries = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"measure payload missing field: {exc}") from exc
    if not atom_entries:
        raise MeasureError("measure payload has no atoms")
    atoms = []
    mults = []
    for k, entry in enumerate(atom_entries):
        x = entry.get("x")
        if x is None or len(x) != dim:
            raise MeasureError(f"atoms[{k}].x must have length {dim}")
        try:
            coords = [float(v) for v in x]
        except (TypeError, ValueError, OverflowError) as exc:
            raise MeasureError(f"atoms[{k}].x: {exc}") from exc
        if not all(map(math.isfinite, coords)):
            raise MeasureError(f"atoms[{k}].x: must be finite, got {x}")
        atoms.append(coords)
        try:
            mults.append(int(entry.get("mult", 0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MeasureError(f"atoms[{k}].mult: {exc}") from exc
    mu = DiscreteMeasure(np.array(atoms), np.array(mults))
    if mu.denominator != denominator:
        raise MeasureError(
            f"multiplicities sum to {mu.denominator} but denominator says {denominator}"
        )
    return mu


def coupling_to_json(gamma):
    return {
        "mu": measure_to_json(gamma.mu),
        "nu": measure_to_json(gamma.nu),
        "mass": [[int(v) for v in row] for row in gamma.mass],
    }


def coupling_from_json(data):
    try:
        mu = measure_from_json(data["mu"])
        nu = measure_from_json(data["nu"])
        mass = np.array(data["mass"], dtype=np.int64)
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"coupling payload missing field: {exc}") from exc
    return Coupling(mu, nu, mass)
