"""Pseudo-orbits, cyclic Newton refinement to true periodic orbits, the
exponential shadowing-envelope verifier, and the splitting domination test.

A pseudo-orbit is a list of orbit arcs, each an (n_i + 1, 2) array of points;
an arc's last row meets the next arc's first row, and the last arc's meets
the first arc's, up to the junction gap delta.  Its period is sum(n_i).

The refinement solves the full cyclic system z_{j+1} = f(z_j) (indices mod p)
for all p points at once.  The linearized step is a block-bidiagonal system
with one corner block; it is solved by a sparse LU factorization with partial
pivoting.  Eliminating the cycle down to a single 2x2 system would multiply
all p Jacobians together and lose the solution in the lambda^p conditioning
of the monodromy; the sparse factorization keeps the conditioning at the
level of single-step hyperbolicity, which is the whole point of working with
the cyclic formulation.  The same factor also decides whether the cycle is
degenerate, from log|det(Df^p - I)| = sum of log|U_ii| (see _solve_cyclic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dynamics import SystemSpec, jac_array, step_array
from .errors import DegenerateOrbitError, NonConvergenceError, PreconditionError

DEGENERACY_THRESHOLD = 1e-12
# Newton steps larger than this (in sup norm) are scaled back; keeps torus
# updates inside one fundamental domain
_MAX_STEP = 0.25


@dataclass
class PseudoOrbit:
    """A periodic pseudo-orbit: arcs of (n_i + 1, 2) points whose last row
    meets the next arc's first row, cyclically, up to the gap delta."""

    arcs: list  # of (n_i + 1, 2) arrays
    delta: float  # max cyclic junction gap

    @property
    def total_length(self) -> int:
        return sum(len(a) - 1 for a in self.arcs)


@dataclass
class PeriodicOrbitSolution:
    points: np.ndarray  # (period, 2)
    period: int
    residual: float  # max distance(f(z_j), z_{j+1 mod p})
    newton_iters: int
    residual_history: list = None  # residual before each Newton step, then final

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "residual": self.residual,
            "newton_iters": self.newton_iters,
            "z": self.points[0].tolist(),
            "residual_history": list(self.residual_history or []),
        }


def assemble(arcs, system: SystemSpec) -> PseudoOrbit:
    """Close a list of orbit arcs, each an (n_i + 1, 2) array with n_i >= 1,
    into a periodic pseudo-orbit of period sum(n_i).  Arc i's last row is
    the junction with arc i + 1's first row (the last arc's with the first),
    and delta is the largest of these cyclic junction gaps."""
    if not arcs:
        raise ValueError("need at least one arc")
    arcs = [np.asarray(a, dtype=float) for a in arcs]
    if any(a.ndim != 2 or a.shape[1] != 2 or len(a) < 2 for a in arcs):
        raise ValueError("each arc must be an (n + 1, 2) array with n >= 1")
    ends = np.array([a[-1] for a in arcs])
    starts = np.array([a[0] for a in arcs[1:] + arcs[:1]])
    return PseudoOrbit(arcs=arcs, delta=float(system.space.dist(ends, starts).max()))


def cat_rational_orbit(q: int, start=(1, 0)):
    """Exact orbit of the rational point start/q under the cat map, by
    integer arithmetic mod q.  The map is invertible mod q, so the orbit
    returns to start.  Returns (period, (period, 2) array of points)."""
    a, b = start = (start[0] % q, start[1] % q)
    pts = []
    while True:
        pts.append((a / q, b / q))
        a, b = (2 * a + b) % q, (a + b) % q
        if (a, b) == start:
            return len(pts), np.array(pts)


def displaced_pseudo_orbit(system: SystemSpec, Z: np.ndarray, n1: int, jitter: float) -> PseudoOrbit:
    """Two-arc periodic pseudo-orbit from the periodic orbit Z: the arcs
    Z[0..n1] and Z[n1..p], each displaced by jitter along the contracting
    direction at its start and carried along by the Jacobians.

    The contracting unit directions come from pulling a generic vector
    backward around the cycle twice."""
    period = len(Z)
    jacs = jac_array(system, Z)
    vs = np.empty_like(Z)
    v = np.array([0.7, 0.3])
    for lap in range(2):
        for idx in range(period - 1, -1, -1):
            J = jacs[idx]
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            v = np.array([(J[1, 1] * v[0] - J[0, 1] * v[1]) / det, (-J[1, 0] * v[0] + J[0, 0] * v[1]) / det])
            v /= np.hypot(v[0], v[1])
            if lap == 1:
                vs[idx] = v

    def arc(start, length):
        out = np.empty((length + 1, 2))
        w = jitter * vs[start]
        for j in range(length + 1):
            idx = (start + j) % period
            out[j] = Z[idx] + w
            if j < length:
                w = jacs[idx] @ w
        return system.space.fold(out)

    return assemble([arc(0, n1), arc(n1, period - n1)], system)


def newton_refine_periodic(
    system: SystemSpec, po: PseudoOrbit, tol: float = 1e-11, max_iter: int = 30
) -> PeriodicOrbitSolution:
    """Refine a periodic pseudo-orbit into a true periodic orbit of period
    p = sum of the arc lengths n_i.

    Raises NonConvergenceError when max_iter is exceeded (carrying the last
    residual) and DegenerateOrbitError when the cyclic linearization is
    singular (|det(Df^p - I)| below the degeneracy threshold)."""
    # one row per time step: each arc gives its first n_i points, its last
    # row being the next arc's first
    space = system.space
    Z = space.fold(np.concatenate([a[:-1] for a in po.arcs], axis=0))
    p = len(Z)
    iters = 0
    residual = math.inf
    history = []
    for iters in range(max_iter + 1):
        diffs = space.wrap(np.roll(Z, -1, axis=0) - step_array(system, Z))
        residual = float(np.hypot(diffs[:, 0], diffs[:, 1]).max())
        history.append(residual)
        if residual <= tol:
            return PeriodicOrbitSolution(
                points=Z,
                period=p,
                residual=residual,
                newton_iters=iters,
                residual_history=history,
            )
        if iters == max_iter:
            break
        delta = _solve_cyclic(jac_array(system, Z), -diffs)
        m = np.abs(delta).max()
        if m > _MAX_STEP:
            delta *= _MAX_STEP / m
        Z = space.fold(Z + delta)
    raise NonConvergenceError(
        f"cyclic Newton did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
        iterations=iters,
    )


def _solve_cyclic(jacs, rhs):
    """Solve the linearized cyclic system delta_{j+1} - A_j delta_j = rhs_j.

    The same LU factor decides degeneracy: L has a unit diagonal and the
    block-cyclic matrix has |det| = |det(Df^p - I)|, so the sum of log|U_ii|
    is log|det(Df^p - I)|.  Raises DegenerateOrbitError when that lies below
    log(DEGENERACY_THRESHOLD) or when the factor is exactly singular."""
    p = len(jacs)
    # row 2j + r holds -A_j[r, 0], -A_j[r, 1] in block j, then 1 in block
    # j + 1 (mod p); at p = 1 the duplicate entries sum to I - A
    rows = np.repeat(np.arange(2 * p), 3)
    blk = np.repeat(2 * np.arange(p), 2)
    cols = np.column_stack((blk, blk + 1, np.roll(np.arange(2 * p), -2))).ravel()
    vals = np.column_stack((-jacs.reshape(2 * p, 2), np.ones(2 * p))).ravel()
    J = sp.csc_matrix((vals, (rows, cols)), shape=(2 * p, 2 * p))
    try:
        lu = spla.splu(J)
        log_det = np.log(np.abs(lu.U.diagonal())).sum()
    except RuntimeError:  # SuperLU met an exactly zero pivot
        log_det = -math.inf
    if log_det < math.log(DEGENERACY_THRESHOLD):
        raise DegenerateOrbitError(f"cyclic linearization singular: |det(Df^{p} - I)| < {DEGENERACY_THRESHOLD}")
    return lu.solve(rhs.ravel()).reshape(p, 2)


@dataclass
class ShadowingProfile:
    indices: np.ndarray  # global time index c_i + j of each compared pair
    distances: np.ndarray
    bounds: np.ndarray
    tau: float
    epsilon: float
    passed: bool
    first_fail_index: int | None
    max_ratio: float  # max distance/bound; <= 1 iff passed

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "epsilon": self.epsilon,
            "passed": self.passed,
            "first_fail_index": self.first_fail_index,
            "max_ratio": self.max_ratio,
            "n_checked": int(len(self.indices)),
        }


def shadowing_profile(
    system: SystemSpec,
    sol: PeriodicOrbitSolution,
    po: PseudoOrbit,
    tau: float,
    epsilon: float,
) -> ShadowingProfile:
    """Check d(f^{c_i+j}(z), f^j(x_i)) < tau * e^{-min(j, n_i - j) epsilon}
    for every arc i and 0 <= j <= n_i, comparing the stored solution
    sequence against the stored arcs (row j of arc i stands for f^j(x_i));
    c_i is the sum of the lengths of the arcs before arc i."""
    if sol.period != po.total_length:
        raise PreconditionError("solution period must equal the pseudo-orbit length")
    p = sol.period
    idx_list = []
    d_list = []
    b_list = []
    c = 0
    for arc in po.arcs:
        n = len(arc) - 1
        j = np.arange(n + 1)
        zrows = sol.points[(c + j) % p]
        d = system.space.dist(zrows, arc)
        b = tau * np.exp(-np.minimum(j, n - j) * epsilon)
        idx_list.append(c + j)
        d_list.append(d)
        b_list.append(b)
        c += n
    indices = np.concatenate(idx_list)
    distances = np.concatenate(d_list)
    bounds = np.concatenate(b_list)
    ok = distances < bounds
    passed = bool(ok.all())
    first_fail = None if passed else int(indices[np.nonzero(~ok)[0][0]])
    with np.errstate(divide="ignore"):
        max_ratio = float(np.max(distances / bounds))
    return ShadowingProfile(
        indices=indices,
        distances=distances,
        bounds=bounds,
        tau=tau,
        epsilon=epsilon,
        passed=passed,
        first_fail_index=first_fail,
        max_ratio=max_ratio,
    )


@dataclass
class DominationReport:
    ok: bool
    margins: dict  # S -> min over sampled points of (-2*lam - quotient_log)

    def to_json(self) -> dict:
        return {"ok": self.ok, "margins": {str(k): v for k, v in self.margins.items()}}


def check_domination(log_E, log_F, S0: int, lam: float, S_list) -> DominationReport:
    """Test (1/S) log(||Df^S|E|| / m(Df^S|F)) <= -2 lam along an orbit for
    each S in S_list (all >= S0), from the per-step stretch logs
    log ||Df v_t|| of the unit fields E and F at its n = len(log_E) points
    (as _transport_sweeps returns them).  For one-dimensional fields the
    co-norm m(.) is the norm of the image, and log ||Df^S v_t|| is the sum of
    S consecutive stretch logs, so each quotient is a difference of
    cumulative sums; the windows start at t = 0 .. n - S - 1."""
    log_E = np.asarray(log_E, dtype=float)
    log_F = np.asarray(log_F, dtype=float)
    n = len(log_E)
    if len(log_F) != n:
        raise ValueError(f"stretch logs of unequal length ({n} and {len(log_F)})")
    if any(S < S0 for S in S_list):
        raise ValueError("every S must satisfy S >= S0")
    if any(not 1 <= S < n for S in S_list):
        raise ValueError(f"every S must satisfy 1 <= S < {n}, the number of stretch logs")
    cE = np.concatenate(([0.0], np.cumsum(log_E)))
    cF = np.concatenate(([0.0], np.cumsum(log_F)))
    margins = {}
    for S in S_list:
        q = ((cE[S:n] - cE[: n - S]) - (cF[S:n] - cF[: n - S])).max() / S
        margins[int(S)] = float(-2.0 * lam - q)
    return DominationReport(ok=all(m >= 0 for m in margins.values()), margins=margins)
