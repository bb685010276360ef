"""Pseudo-orbits, cyclic Newton refinement to true periodic orbits, the
exponential shadowing-envelope verifier, and the splitting domination test.

A pseudo-orbit is a list of orbit arcs, each an (n_i + 1, 2) array of points;
an arc's last row meets the next arc's first row, and the last arc's meets
the first arc's, up to the junction gap delta.  Its period is sum(n_i).

The refinement solves the full cyclic system z_{j+1} = f(z_j) (indices mod p)
for all p points at once.  The linearized step is a block-bidiagonal system
with one corner block.  Taken in the folded block order 0, p - 1, 1, p - 2,
..., every coupled pair of blocks, the corner included, is at most two
blocks apart, so the 2p x 2p matrix is banded with 4 sub- and 4
superdiagonals; it is solved by a banded LU factorization with partial
pivoting (LAPACK dgbtrf/dgbtrs).  Eliminating the cycle down to a single 2x2
system would multiply all p Jacobians together and lose the solution in the
lambda^p conditioning of the monodromy.  The folding only permutes rows and
columns, which leaves the singular values alone, so the factorization still
works at the conditioning of single-step hyperbolicity, which is the whole
point of working with the cyclic formulation.  The same factor also decides
whether the cycle is degenerate, from log|det(Df^p - I)| = sum of log|U_ii|
(see _solve_cyclic).

Margins is the one distance-versus-allowance check, of a certificate
window's theta * q^-2 ball and of the shadowing profile's envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, jac_array, step_array
from .errors import DegenerateOrbitError, NonConvergenceError, PreconditionError

DEGENERACY_THRESHOLD = 1e-12
# half-bandwidths of the cyclic Newton matrix in folded block order
_KL = _KU = 4
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

    The same LU factor decides degeneracy: L has a unit diagonal, the row
    exchanges and the folding are permutations, and the block-cyclic matrix
    has |det| = |det(Df^p - I)|, so the sum of log|U_ii| is
    log|det(Df^p - I)|.  Raises DegenerateOrbitError when that lies below
    log(DEGENERACY_THRESHOLD) or when the factor is exactly singular."""
    # imported here: the runs that solve nothing do not load scipy
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    p = len(jacs)
    j = np.arange(p)
    # folded block order 0, p - 1, 1, p - 2, ...: block j sits at position
    # pos[j], which puts every coupled pair (j, j + 1 mod p), the corner
    # included, at most two positions apart, so the matrix has 4 sub- and 4
    # superdiagonals.  Equation j's rows sit at position pos[j] too.
    pos = np.where(2 * j < p, 2 * j, 2 * (p - j) - 1)
    rows = 2 * pos[:, None] + np.arange(2)  # (p, 2): rows and columns of block j
    nxt = rows[(j + 1) % p]
    # LAPACK band layout, with _KL spare rows on top for the fill-in of row
    # exchanges: entry (i, k) lives at ab[_KL + _KU + i - k, k].  -A_j goes
    # in block (j, j), then 1 in block (j, j + 1); at p = 1 these add up to I - A
    ab = np.zeros((2 * _KL + _KU + 1, 2 * p), order="F")
    ab[_KL + _KU + rows[:, :, None] - rows[:, None, :], rows[:, None, :]] = -jacs
    ab[_KL + _KU + rows - nxt, nxt] += 1.0
    lu, piv, info = dgbtrf(ab, _KL, _KU, overwrite_ab=True)
    # info > 0: an exactly zero pivot
    log_det = -math.inf if info > 0 else np.log(np.abs(lu[_KL + _KU])).sum()
    if log_det < math.log(DEGENERACY_THRESHOLD):
        raise DegenerateOrbitError(f"cyclic linearization singular: |det(Df^{p} - I)| < {DEGENERACY_THRESHOLD}")
    b = np.empty((p, 2))
    b[pos] = rhs
    x, _ = dgbtrs(lu, _KL, _KU, b.reshape(2 * p, 1), piv, overwrite_b=True)
    return x.reshape(p, 2)[pos]


@dataclass
class Margins:
    """The margin check of a certificate window or a shadowing profile: at
    each index j, the distance of the orbit from a stored row, and the
    allowance it must stay below.  A row holds when distance < allowance,
    so a NaN distance is a violation."""

    j: np.ndarray
    distance: np.ndarray
    allowance: np.ndarray

    @classmethod
    def compare(cls, space, orbit, at, j, rows, allowance) -> Margins:
        """Margins of orbit row (at + j) mod len(orbit) against each stored row."""
        return cls(j, space.dist(orbit[(at + j) % len(orbit)], rows), allowance)

    @property
    def held(self) -> bool:
        return self.first_failed is None

    @property
    def first_failed(self) -> int | None:
        bad = np.flatnonzero(~(self.distance < self.allowance))
        return int(self.j[bad[0]]) if len(bad) else None

    @property
    def max_ratio(self) -> float:
        """Max distance/allowance: held iff every ratio is < 1; NaN if a
        distance is NaN, inf if a positive distance has allowance 0."""
        with np.errstate(divide="ignore"):
            return float(np.max(self.distance / self.allowance))

    def to_json(self) -> dict:
        return {"j": self.j.tolist(), "distance": self.distance.tolist(), "allowance": self.allowance.tolist()}

    def rows(self) -> list:
        """(j, distance, allowance) per index, as Python numbers."""
        return list(zip(self.j.tolist(), self.distance.tolist(), self.allowance.tolist()))


@dataclass
class ShadowingProfile:
    tau: float
    epsilon: float
    margins: Margins  # j is the global time index c_i + j; allowance the envelope

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "epsilon": self.epsilon,
            "passed": self.margins.held,
            "first_fail_index": self.margins.first_failed,
            "max_ratio": self.margins.max_ratio,
            "n_checked": len(self.margins.j),
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
    c_i is the sum of the lengths of the arcs before arc i.  The margins run
    over all arcs' rows in order, indexed by c_i + j, so a junction index
    appears twice."""
    if sol.period != po.total_length:
        raise PreconditionError("solution period must equal the pseudo-orbit length")
    n = np.array([len(a) - 1 for a in po.arcs])
    arc = np.repeat(np.arange(len(n)), n + 1)  # the arc of each stored row
    # arc i's rows come after i junction rows that repeat an index
    index = np.arange(len(arc)) - arc
    j = index - (np.cumsum(n) - n)[arc]
    bound = tau * np.exp(-np.minimum(j, n[arc] - j) * epsilon)
    margins = Margins.compare(system.space, sol.points, 0, index, np.concatenate(po.arcs), bound)
    return ShadowingProfile(tau=tau, epsilon=epsilon, margins=margins)


@dataclass
class DominationReport:
    ok: bool
    margins: dict  # S -> min over sampled points of (-2*lam - quotient_log)


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
