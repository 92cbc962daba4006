"""Independent oracles used to cross-check library results.

Everything in this file is computed from first principles (enumeration,
grid search, closed forms) without calling into the library, so a library
bug cannot validate itself.
"""

import itertools
import math

import numpy as np


def enum_w2_cost(xs, ys):
    """Minimum mean squared pairing cost over all permutations.

    xs, ys: (N, d) arrays of equal length. Returns (cost, best_perm) where
    cost = (1/N) * sum |xs[perm[n]] - ys[n]|^2 minimized over perm.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    best = math.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        c = float(sum(np.sum((xs[perm[i]] - ys[i]) ** 2) for i in range(n))) / n
        if c < best:
            best = c
            best_perm = perm
    return best, best_perm


def enum_w2_distance(xs, ys):
    cost, _ = enum_w2_cost(xs, ys)
    return math.sqrt(cost)


def enum_winf(xs, ys):
    """Minimum over permutations of the largest displacement."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        m = max(float(np.linalg.norm(xs[perm[i]] - ys[i])) for i in range(n))
        if m < best:
            best = m
    return best


def expand_by_multiplicity(atoms, mults, n_total):
    """Expanded particle list: atom i repeated (n_total/denominator)*mult_i times."""
    atoms = np.asarray(atoms, dtype=float)
    mults = list(mults)
    den = sum(mults)
    assert n_total % den == 0
    scale = n_total // den
    rows = []
    for a, m in zip(atoms, mults):
        rows.extend([a] * (m * scale))
    return np.asarray(rows, dtype=float)


def sorted_1d_w2(xs_a, mults_a, xs_b, mults_b):
    """W2 between two measures on the line via the monotone rearrangement."""
    na = sum(mults_a)
    nb = sum(mults_b)
    n = math.lcm(na, nb)
    ea = np.sort(expand_by_multiplicity(np.asarray(xs_a, float).reshape(-1, 1), mults_a, n).ravel())
    eb = np.sort(expand_by_multiplicity(np.asarray(xs_b, float).reshape(-1, 1), mults_b, n).ravel())
    return math.sqrt(float(np.mean((ea - eb) ** 2)))


def zoom_grid_minimize(fn, x0, radius, rounds=10, pts=31):
    """Zooming coordinate-grid search for a scalar function on R^k, k small.

    Exhaustive grid over a box around the current best, shrinking the box
    each round. Independent of any gradient information, so it works on
    nonsmooth objectives.
    """
    x = np.asarray(x0, dtype=float).copy()
    k = x.size
    r = float(radius)
    best = fn(x)
    for _ in range(rounds):
        axes = [np.linspace(x[i] - r, x[i] + r, pts) for i in range(k)]
        for cand in itertools.product(*axes):
            c = np.asarray(cand)
            v = fn(c)
            if v < best:
                best = v
                x = c.copy()
        r /= 6.0
    return x, best


def prox_objective_1d(ys, tau, potential=None, interaction=None):
    """Proximal objective for N particles on the line.

    F(x) = (1/(2 tau N)) sum (x_n - y_n)^2
         + (1/N) sum P(x_n) + (1/(2 N^2)) sum_{n != m} W(x_n - x_m)
    with scalar convex profiles P, W given as callables (None means zero).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size

    def fn(xs):
        xs = np.asarray(xs, dtype=float)
        val = float(np.sum((xs - ys) ** 2)) / (2.0 * tau * n)
        if potential is not None:
            val += sum(potential(x) for x in xs) / n
        if interaction is not None:
            s = 0.0
            for i in range(n):
                for j in range(n):
                    if i != j:
                        s += interaction(xs[i] - xs[j])
            val += s / (2.0 * n * n)
        return val

    return fn


def sticky_gap_sequence(g0, tau, n_steps):
    """Implicit steps of the symmetric two-particle mutual attraction with
    unit kink capacity: the centered gap soft-thresholds by tau each step."""
    g = float(g0)
    out = [g]
    for _ in range(n_steps):
        g = max(g - tau, 0.0)
        out.append(g)
    return out


def pooled_abs_prox_1d(ys, tau, coeff=1.0, quad=0.0):
    """Prox of the 1-D energy with |x| interaction (weight coeff) and an
    optional quadratic potential (quad/2) x^2, from the min-max formula.

    In data order the interaction is linear, so each sorted particle wants
    z_i = y_(i) - tau coeff (2i - n - 1) / n; the order constraint makes
    x_i = max_{j <= i} min_{k >= i} mean(z_j..z_k), and the potential then
    scales every value by 1 / (1 + tau quad).  Returned in input order.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    order = sorted(range(n), key=lambda i: ys[i])
    z = [ys[order[i]] - tau * coeff * (2 * (i + 1) - n - 1) / n for i in range(n)]
    out = np.empty(n)
    for i in range(n):
        best = -math.inf
        for j in range(i + 1):
            best = max(best, min(sum(z[j : k + 1]) / (k + 1 - j) for k in range(i, n)))
        out[order[i]] = best / (1.0 + tau * quad)
    return out


def implicit_linear_factor(tau, k):
    """k implicit steps of dx/dt = -x scale the state by (1+tau)^-k."""
    return (1.0 + tau) ** (-k)


def explicit_linear_factor(tau, k):
    return (1.0 - tau) ** k


def quad_profile(a=1.0):
    return lambda z: 0.5 * a * z * z


def abs_profile(w=1.0):
    return lambda z: w * abs(z)


def quartic_profile(c=1.0):
    return lambda z: 0.25 * c * (z * z) ** 2
