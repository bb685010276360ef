"""Pseudo-orbits, cyclic Newton refinement to true periodic orbits, the
exponential shadowing-envelope verifier, and the splitting domination test.

A pseudo-orbit is a list of orbit arcs, each an (n_i + 1, 2) array of points;
an arc's last row meets the next arc's first row, and the last arc's meets
the first arc's, up to the junction gap delta.  Its period is sum(n_i).

The refinement solves the full cyclic system z_{j+1} = f(z_j) (indices mod p)
for all p points at once.  The linearized step, delta_{j+1} - A_j delta_j =
rhs_j, is solved along the hyperbolic splitting (Coomes, Kocak and Palmer,
"Periodic shadowing", 1997): the periodic unstable and stable directions u_j
and s_j come from products of 2^k consecutive Jacobians, built by doubling
around the cycle, and in that basis the step is two scalar cyclic
recurrences, the stable one run forward and the unstable one backward, so
that both contract.  Eliminating the cycle down to a single 2x2 system would
multiply all p Jacobians together and lose the solution in the lambda^p
conditioning of the monodromy; the recurrences never form that product, and
work at the conditioning of single-step hyperbolicity.  Their stretches also
decide whether the cycle is degenerate, from log|det(Df^p - I)| =
log|Lambda_u - 1| + log|Lambda_s - 1|.  A cycle that shows no usable
splitting is refused with DegenerateOrbitError, which names the reason (see
_solve_cyclic).

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
# the splitting solve: at most _LEVELS doublings (products of up to 2^16
# Jacobians); a product counts as rank-one when its smaller singular value is
# at most _FLAT times its larger, u and s as nearly parallel when
# |det(u, s)| <= _PARALLEL, and the step's residual as at rounding level up
# to _ROUNDING times its scale
_LEVELS = 16
_FLAT = 2.0**-26
_PARALLEL = 1e-8
_ROUNDING = 2.0**-40
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

    The contracting unit directions are the splitting's stable directions
    (see _splitting); raises DegenerateOrbitError when Z shows no usable
    hyperbolic splitting."""
    period = len(Z)
    jacs = jac_array(system, Z)
    v = _splitting(jacs)
    vs = (v[1] / np.hypot(v[1, 0], v[1, 1])).T

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
    residual) and DegenerateOrbitError when the cycle shows no usable
    hyperbolic splitting, or |det(Df^p - I)| lies below the threshold
    DEGENERACY_THRESHOLD (see _solve_cyclic)."""
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
        delta, _ = _solve_cyclic(jac_array(system, Z), -diffs)
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


def _splitting(jacs):
    """The periodic unstable and stable directions of the cycle of (p, 2, 2)
    Jacobians A_j, as one (2, 2, p) array v: v[0] holds u_j and v[1] s_j
    (component, j), with A_j u_j parallel to u_{j+1} and A_j s_j to s_{j+1},
    indices mod p, and each of magnitude sum 1/2 to 1.  Raises
    DegenerateOrbitError when the cycle shows no splitting within _LEVELS
    doublings.

    P_j, the product A_{j-1} ... A_{j-N} of N = 2^k consecutive Jacobians, is
    built by doubling around the cycle, rescaled every level by the sum of
    its entries' magnitudes.  Once every P_j is rank-one to _FLAT, one more
    level squares that to working precision.  Then u_j spans the range of
    P_j, and s_j the range of adj(A_j) ... adj(A_{j+N-1}) = adj(P_{j+N}) (the
    adjugate is the inverse times the determinant), which is the kernel of
    P_{j+N}: the direction that N steps from j contract most."""
    p = len(jacs)
    # prods[r, c, j]: the entry (r, c) of P_j = A_{j-1}
    prods = _ahead(jacs.transpose(1, 2, 0), -1)
    other, part, term = np.empty_like(prods), np.empty_like(prods), np.empty_like(prods)
    det, tmp = np.empty(p), np.empty(p)
    with np.errstate(all="ignore"):
        for k in range(_LEVELS):
            # P_j of magnitude sum 1 has singular values s1 >= s2 with
            # s1 >= 1 / sqrt(8), so s2 / s1 = |det P_j| / s1^2 <= 8 |det P_j|
            np.multiply(prods[0, 0], prods[1, 1], out=det)
            det -= np.multiply(prods[0, 1], prods[1, 0], out=tmp)
            flat = np.abs(det, out=det).max() <= _FLAT / 8
            # level k + 1: P_j times O_j = P_{j-2^k}, whose row r is
            # P_j[r, 0] O_j[0] + P_j[r, 1] O_j[1]
            _ahead(prods, -pow(2, k, p), out=other)
            np.multiply(prods[:, :1], other[:1], out=part)
            part += np.multiply(prods[:, 1:], other[1:], out=term)
            # prods = part / (the sum of its entries' magnitudes)
            np.abs(part, out=prods)
            np.add(prods[0, 0], prods[0, 1], out=tmp)
            tmp += prods[1, 0]
            tmp += prods[1, 1]
            np.multiply(part, np.divide(1.0, tmp, out=tmp), out=prods)
            if flat:
                break
        else:
            raise DegenerateOrbitError(f"no hyperbolic splitting: no rank-one product within {_LEVELS} doublings")
    # the larger column spans the range; the larger row's normal spans the kernel
    (a, b), (c, d) = prods
    (m00, m01), (m10, m11) = np.abs(prods)
    v = np.empty((2, 2, p))
    v[0] = np.where(m00 + m10 >= m01 + m11, (a, c), (b, d))
    _ahead(np.where(m00 + m01 >= m10 + m11, (b, -a), (d, -c)), pow(2, k + 1, p), out=v[1])
    return v


def _ahead(x, h, out=None):
    """x at index j + h mod p along its last axis, of length p."""
    p = x.shape[-1]
    h %= p
    out = np.empty(x.shape) if out is None else out
    out[..., : p - h] = x[..., h:]
    out[..., p - h :] = x[..., :h]
    return out


def _solve_cyclic(jacs, rhs):
    """Solve the linearized cyclic system delta_{j+1} - A_j delta_j = rhs_j,
    j = 0 .. p-1 mod p, along the hyperbolic splitting (Coomes, Kocak and
    Palmer, "Periodic shadowing", 1997).  With A_j u_j = alpha_j u_{j+1},
    A_j s_j = sigma_j s_{j+1} and rhs_j = q_j u_{j+1} + r_j s_{j+1}, the step
    is delta_j = a_j u_j + b_j s_j, where the stable recurrence b_{j+1} =
    sigma_j b_j + r_j runs forward and the unstable one a_j = (a_{j+1} -
    q_j) / alpha_j backward, so both contract.  The step takes only + - * /,
    abs and accumulations, whose bits no CPU dispatch changes.

    Returns (delta, log|det(Df^p - I)|).  Raises DegenerateOrbitError when
    the cycle shows no usable splitting: none within _LEVELS doublings, u and
    s nearly parallel, a zero or non-finite stretch, log|Lambda_u| and
    log|Lambda_s| not of opposite signs, or a residual of the step above
    rounding level; and when |det(Df^p - I)| lies below
    DEGENERACY_THRESHOLD (see _cycle_degeneracy)."""
    with np.errstate(all="ignore"):
        v = _splitting(jacs)
        p = len(jacs)
        (a00, a01), (a10, a11) = a = jacs.transpose(1, 2, 0).copy()
        x0, x1 = v[:, 0], v[:, 1]  # (field, j): the components of u_j and s_j
        (u0, s0), (u1, s1) = y0, y1 = _ahead(v, 1).transpose(1, 0, 2)  # of u_{j+1} and s_{j+1}
        # the stretches, read off A_j u_j and A_j s_j by projection
        w0, w1 = a00 * x0 + a01 * x1, a10 * x0 + a11 * x1
        alpha, sigma = (w0 * y0 + w1 * y1) / (y0 * y0 + y1 * y1)
        cross = u0 * s1 - u1 * s0
        if not (np.abs(cross) > _PARALLEL).all():
            raise DegenerateOrbitError("no hyperbolic splitting: u and s are nearly parallel")
        # rhs_j = q_j u_{j+1} + r_j s_{j+1}
        q = (rhs[:, 0] * s1 - rhs[:, 1] * s0) / cross
        r = (u0 * rhs[:, 1] - u1 * rhs[:, 0]) / cross
        # reversed as a'_i = a_{-i}, the unstable recurrence runs forward too:
        # a'_{i+1} = (a'_i - q_{p-1-i}) / alpha_{p-1-i}
        inv = 1.0 / alpha[::-1]
        (b, a_rev), logs, negative = _cyclic_recurrences(np.stack((sigma, inv)), np.stack((r, -q[::-1] * inv)))
        log_det = _cycle_degeneracy(logs, negative)
        delta = a_rev[-np.arange(p)] * v[0] + b * v[1]
        res = _ahead(delta, 1)
        res -= a[:, 0] * delta[0]
        res -= a[:, 1] * delta[1]
        res -= rhs.T
        scale = np.abs(rhs).max() + np.abs(delta).max() * (1.0 + 2.0 * np.abs(a).max())
        if not np.abs(res).max() <= _ROUNDING * scale:
            raise DegenerateOrbitError("no hyperbolic splitting: the step's residual is above rounding level")
    return delta.T, log_det


def _cycle_degeneracy(logs, negative):
    """log|det(Df^p - I)| of a cycle from its two recurrences' factor
    products: logs = (log|Lambda_s|, log|1/Lambda_u|) and negative says
    whether each product is negative.  In the splitting basis Df^p is
    diag(Lambda_u, Lambda_s), so log|det(Df^p - I)| = log|Lambda_u - 1| +
    log|Lambda_s - 1|.

    Raises DegenerateOrbitError unless both recurrences contract (|Lambda_s|
    < 1 < |Lambda_u|), and when log|det(Df^p - I)| lies below
    log(DEGENERACY_THRESHOLD)."""
    log_s, log_inv_u = logs
    if not (log_s < 0.0 and log_inv_u < 0.0):
        raise DegenerateOrbitError("no hyperbolic splitting: the stretches are not of opposite signs")
    # log|Lambda - 1| = max(log|Lambda|, 0) + log|1 -+ e^t|, where t =
    # -|log|Lambda||, which is each of the logs here
    gap_s, gap_u = (math.log1p(math.exp(t)) if neg else math.log(-math.expm1(t)) for t, neg in zip(logs, negative))
    log_det = (gap_u - log_inv_u) + gap_s
    if log_det < math.log(DEGENERACY_THRESHOLD):
        raise DegenerateOrbitError(
            f"cyclic linearization singular: |det(Df^p - I)| = {math.exp(log_det):.3e} < {DEGENERACY_THRESHOLD}"
        )
    return log_det


def _cyclic_recurrences(f, r):
    """Solve x_{j+1} = f_j x_j + r_j for j = 0 .. p-1 with x_p = x_0, for each
    row of the (n, p) arrays f and r.  A row runs in chunks short enough that
    every partial product of its factors stays within 2^-900 .. 2^900, each
    chunk by cumprod and cumsum from a zero start; the chunk ends are then
    carried around the cycle, closed by 1/(1 - prod f).  Returns x and, per
    row, log|prod f| and whether prod f < 0.  Raises DegenerateOrbitError
    when a factor is zero or not finite."""
    n, p = f.shape
    mag = np.abs(f)
    bound = max(mag.max(), 1.0 / mag.min())
    if not math.isfinite(bound):
        raise DegenerateOrbitError("no hyperbolic splitting: a zero or non-finite stretch")
    c = min(p, 900 // math.frexp(bound)[1])
    k = -(-p // c)
    # padded with x_{j+1} = x_j, which leaves the cycle's x_0 .. x_{p-1} alone
    g, t = np.ones((n, k, c)), np.zeros((n, k, c))
    g.reshape(n, -1)[:, :p] = f
    t.reshape(n, -1)[:, :p] = r
    np.cumprod(g, axis=2, out=g)
    t /= g
    np.cumsum(t, axis=2, out=t)
    t *= g
    starts = np.empty((n, k))
    logs, negs = [], []
    for row, (gs, ts) in enumerate(zip(g[:, :, -1].tolist(), t[:, :, -1].tolist())):
        x, prod = 0.0, 1.0
        for gi, ti in zip(gs, ts):
            x = gi * x + ti
            prod *= gi
        x /= 1.0 - prod
        for i, (gi, ti) in enumerate(zip(gs, ts)):
            starts[row, i] = x
            x = gi * x + ti
        logs.append(sum(math.log(abs(gi)) for gi in gs))
        negs.append(sum(gi < 0.0 for gi in gs) % 2 == 1)
    g *= starts[:, :, None]
    g += t
    x = np.empty((n, p))
    x[:, 0] = starts[:, 0]
    x[:, 1:] = g.reshape(n, -1)[:, : p - 1]
    return x, logs, negs


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
    # libm's exp of each distinct exponent, not numpy's, whose rounding
    # follows the CPU's SIMD path
    steps, at = np.unique(np.minimum(j, n[arc] - j), return_inverse=True)
    bound = tau * np.array([math.exp(-k * epsilon) for k in steps.tolist()])[at]
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
