"""Pseudo-orbits, cyclic Newton refinement to true periodic orbits, the
exponential shadowing-envelope verifier, and the splitting domination test.

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

from .dynamics import (
    Point2,
    Space,
    SystemSpec,
    dist_rows,
    jac_array,
    orbit_array,
    step_array,
    wrap_half,
)
from .errors import DegenerateOrbitError, NonConvergenceError, PreconditionError

DEGENERACY_THRESHOLD = 1e-12
# Newton steps larger than this (in sup norm) are scaled back; keeps torus
# updates inside one fundamental domain
_MAX_STEP = 0.25


@dataclass
class OrbitSegmentArc:
    """A finite orbit arc: base point, length n, and the n+1 arc points."""

    base: Point2
    length: int
    points: np.ndarray  # (length + 1, 2)


@dataclass
class PseudoOrbit:
    segments: list  # of OrbitSegmentArc
    periodic: bool
    delta: float  # max junction gap
    space: Space

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)


@dataclass
class ConcatenationTimes:
    c: np.ndarray  # c[0] = 0, c[i+1] - c[i] = n_i


@dataclass
class PeriodicOrbitSolution:
    points: np.ndarray  # (period, 2)
    period: int
    residual: float  # max distance(f(z_j), z_{j+1 mod p})
    newton_iters: int
    space: Space
    residual_history: list = None  # residual before each Newton step, then final

    def point(self, i: int) -> Point2:
        r = self.points[i % self.period]
        return Point2(float(r[0]), float(r[1]), self.space)

    def to_json(self, include_points: bool = False) -> dict:
        out = {
            "period": self.period,
            "residual": self.residual,
            "newton_iters": self.newton_iters,
            "z": self.points[0].tolist(),
            "residual_history": list(self.residual_history or []),
        }
        if include_points:
            out["points"] = self.points.tolist()
        return out


def assemble(segments, system: SystemSpec, periodic: bool = True):
    """Build a pseudo-orbit from (base, length) pairs or (base, length,
    points) triples; missing arcs are generated by forward iteration.

    Returns (PseudoOrbit, ConcatenationTimes) with the observed junction-gap
    delta (cyclic when periodic).
    """
    if not segments:
        raise ValueError("need at least one segment")
    arcs = []
    for seg in segments:
        if len(seg) == 2:
            base, length = seg
            pts = orbit_array(system, base.x, base.y, n_fwd=length)
        else:
            base, length, pts = seg
            pts = np.asarray(pts, dtype=float)
            if pts.shape != (length + 1, 2):
                raise ValueError("segment points must have shape (length+1, 2)")
        if length < 1:
            raise ValueError("segment lengths must be >= 1")
        arcs.append(OrbitSegmentArc(base=base, length=int(length), points=pts))
    gaps = []
    pairs = list(zip(arcs, arcs[1:]))
    if periodic:
        pairs.append((arcs[-1], arcs[0]))
    for a, b in pairs:
        end = a.points[-1]
        start = b.points[0]
        gaps.append(float(dist_rows(system.space, end[None, :], start[None, :])[0]))
    delta = max(gaps) if gaps else 0.0
    c = np.concatenate(([0], np.cumsum([a.length for a in arcs])))[: len(arcs)]
    po = PseudoOrbit(segments=arcs, periodic=periodic, delta=delta, space=system.space)
    return po, ConcatenationTimes(c=c.astype(np.int64))


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


def displaced_pseudo_orbit(system: SystemSpec, Z: np.ndarray, n1: int, jitter: float):
    """Two-segment periodic pseudo-orbit from the periodic orbit Z: the arcs
    Z[0..n1] and Z[n1..p], each displaced by jitter along the contracting
    direction at its start and carried along by the Jacobians.

    The contracting unit directions come from pulling a generic vector
    backward around the cycle twice.  Returns assemble's (PseudoOrbit,
    ConcatenationTimes)."""
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
            out[j] = (Z[idx] + w) % 1.0
            if j < length:
                w = jacs[idx] @ w
        return (Point2(float(out[0, 0]), float(out[0, 1]), system.space), length, out)

    return assemble([arc(0, n1), arc(n1, period - n1)], system, periodic=True)


def _initial_guess(po: PseudoOrbit) -> np.ndarray:
    # one row per time step; each segment contributes its first n_i points,
    # the junction point being represented by the next segment's base
    return np.concatenate([a.points[:-1] for a in po.segments], axis=0)


def newton_refine_periodic(
    system: SystemSpec, po: PseudoOrbit, tol: float = 1e-11, max_iter: int = 30
) -> PeriodicOrbitSolution:
    """Refine a periodic pseudo-orbit into a true periodic orbit of period
    p = sum of segment lengths.

    Raises NonConvergenceError when max_iter is exceeded (carrying the last
    residual) and DegenerateOrbitError when the cyclic linearization is
    singular (|det(Df^p - I)| below the degeneracy threshold)."""
    if not po.periodic:
        raise PreconditionError("newton_refine_periodic requires a periodic pseudo-orbit")
    Z = _initial_guess(po).copy()
    p = len(Z)
    torus = system.space is Space.TORUS2
    iters = 0
    residual = math.inf
    history = []
    for iters in range(max_iter + 1):
        images = step_array(system, Z)
        diffs = np.roll(Z, -1, axis=0) - images
        if torus:
            diffs = wrap_half(diffs)
        residual = float(np.hypot(diffs[:, 0], diffs[:, 1]).max())
        history.append(residual)
        if residual <= tol:
            return PeriodicOrbitSolution(
                points=Z,
                period=p,
                residual=residual,
                newton_iters=iters,
                space=system.space,
                residual_history=history,
            )
        if iters == max_iter:
            break
        delta = _solve_cyclic(jac_array(system, Z), -diffs)
        m = np.abs(delta).max()
        if m > _MAX_STEP:
            delta *= _MAX_STEP / m
        Z = Z + delta
        if torus:
            Z %= 1.0
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
    for every segment i and 0 <= j <= n_i, comparing the stored solution
    sequence against the stored segment arcs."""
    if sol.period != po.total_length:
        raise PreconditionError("solution period must equal the pseudo-orbit length")
    p = sol.period
    idx_list = []
    d_list = []
    b_list = []
    c = 0
    for arc in po.segments:
        j = np.arange(arc.length + 1)
        zrows = sol.points[(c + j) % p]
        d = dist_rows(system.space, zrows, arc.points)
        b = tau * np.exp(-np.minimum(j, arc.length - j) * epsilon)
        idx_list.append(c + j)
        d_list.append(d)
        b_list.append(b)
        c += arc.length
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


def check_domination(
    system: SystemSpec,
    orbit_points: np.ndarray,
    E_field: np.ndarray,
    F_field: np.ndarray,
    S0: int,
    lam: float,
    S_list,
) -> DominationReport:
    """Test (1/S) log(||Df^S|E|| / m(Df^S|F)) <= -2 lam along the orbit for
    each S in S_list (all >= S0); for one-dimensional fields the co-norm
    m(.) is just the norm of the image of the unit direction."""
    if any(S < S0 for S in S_list):
        raise ValueError("every S must satisfy S >= S0")
    pts = np.asarray(orbit_points, dtype=float)
    jacs = jac_array(system, pts)
    n = len(pts)
    margins = {}
    ok = True
    for S in S_list:
        worst = math.inf
        for t in range(n - S):
            v = E_field[t].astype(float)
            w = F_field[t].astype(float)
            for s in range(S):
                v = jacs[t + s] @ v
                w = jacs[t + s] @ w
            q = (math.log(np.linalg.norm(v)) - math.log(np.linalg.norm(w))) / S
            margin = -2.0 * lam - q
            worst = min(worst, margin)
        margins[int(S)] = worst
        if worst < 0:
            ok = False
    return DominationReport(ok=ok, margins=margins)
