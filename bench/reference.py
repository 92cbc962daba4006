"""Independent references for the benchmark's output checks.

Nothing here imports ``wflow``: the references are built from numpy and
scipy alone, so a defect in the library cannot validate its own output.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

DIST_RTOL = 1e-9  # relative tolerance on every distance check
PROX_TOL = 1e-10


def expand(atoms, mults, n):
    """Particle list of ``n`` equal masses for atoms with integer multiplicities."""
    mults = np.asarray(mults, dtype=np.int64)
    den = int(mults.sum())
    if n % den:
        raise ValueError(f"cannot expand denominator {den} to {n} particles")
    return np.repeat(np.asarray(atoms, dtype=float), mults * (n // den), axis=0)


def _sq_dist(xs, ys):
    diff = xs[:, None, :] - ys[None, :, :]
    return np.sum(diff * diff, axis=-1)


def w2_assignment(atoms_a, mults_a, atoms_b, mults_b):
    """W2 by assignment on the lcm particle expansion."""
    n = math.lcm(int(np.sum(mults_a)), int(np.sum(mults_b)))
    d2 = _sq_dist(expand(atoms_a, mults_a, n), expand(atoms_b, mults_b, n))
    rows, cols = linear_sum_assignment(d2)
    return math.sqrt(max(float(d2[rows, cols].sum()) / n, 0.0))


def w2_atom_lp(atoms_a, mults_a, atoms_b, mults_b):
    """W2 by the atom-level transport LP with integer marginals (HiGHS)."""
    ma = np.asarray(mults_a, dtype=np.int64)
    mb = np.asarray(mults_b, dtype=np.int64)
    n = math.lcm(int(ma.sum()), int(mb.sum()))
    ra = ma * (n // int(ma.sum()))
    rb = mb * (n // int(mb.sum()))
    k1, k2 = ra.size, rb.size
    cost = _sq_dist(np.asarray(atoms_a, float), np.asarray(atoms_b, float)).ravel()
    rows_eq = np.zeros((k1 + k2, k1 * k2))
    for i in range(k1):
        rows_eq[i, i * k2:(i + 1) * k2] = 1.0
    for j in range(k2):
        rows_eq[k1 + j, j::k2] = 1.0
    res = linprog(
        cost,
        A_eq=rows_eq,
        b_eq=np.concatenate([ra, rb]).astype(float),
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return math.sqrt(max(float(res.fun) / n, 0.0))


def bottleneck(atoms_a, mults_a, atoms_b, mults_b):
    """W-infinity: smallest threshold admitting a perfect particle matching."""
    n = math.lcm(int(np.sum(mults_a)), int(np.sum(mults_b)))
    d2 = _sq_dist(expand(atoms_a, mults_a, n), expand(atoms_b, mults_b, n))
    values = np.unique(d2)
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(d2 <= values[mid]), perm_type="column")
        if np.all(match >= 0):
            hi = mid
        else:
            lo = mid + 1
    return math.sqrt(float(values[lo]))


def prox_abs_1d(y, tau, coeff=1.0):
    """Exact resolvent of the 1-D |x| interaction: sort, shift, pool adjacent violators.

    For sorted particles the energy is sum (x_i - y_i)^2 / (2 tau n) plus
    (coeff / n^2) sum (2i - n - 1) x_i, so the unconstrained optimum is
    z_i = y_i - tau coeff (2i - n - 1) / n and the order constraint is an
    isotonic regression of z.  Returned in the input order of ``y``.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    order = np.argsort(y, kind="stable")
    z = y[order] - tau * coeff * (2.0 * np.arange(1, n + 1) - n - 1.0) / n
    means, sizes = [], []
    for v in z:
        means.append(v)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, s2 = means.pop(), sizes.pop()
            means[-1] = (means[-1] * sizes[-1] + m2 * s2) / (sizes[-1] + s2)
            sizes[-1] += s2
    out = np.empty(n)
    out[order] = np.repeat(means, sizes)
    return out


def rel_close(value, reference):
    return abs(value - reference) <= DIST_RTOL * max(abs(reference), 1e-300)


def prox_miss(x, y, tau):
    """Largest particle deviation of ``x`` from the exact prox of ``y``, and whether it exceeds PROX_TOL."""
    dev = float(np.max(np.abs(np.asarray(x, float).ravel() - prox_abs_1d(y, tau))))
    return dev, dev > PROX_TOL


def artifact_digests(directory):
    """Mapping file name -> sha256 of every file under ``directory`` (empty if absent)."""
    root = Path(directory)
    if not root.is_dir():
        return {}
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def artifact_bytes(directory):
    root = Path(directory)
    if not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
