"""Lyapunov exponents, invariant splitting estimation, and finite-horizon
hyperbolicity-block classification.

The top exponent is one tangent vector's mean log stretch; in two dimensions
the exponents sum to the mean of log|det Df|, constant for every kind here, so
the other is log|det Df| minus it.  Invariant directions are obtained by
transporting a generic vector along the orbit: pushing forward converges to
the expanding line, pulling back converges to the contracting line.  Block
classification evaluates the three finite-horizon contraction/expansion/angle
inequalities with the splitting transported equivariantly along the orbit; the
transport sweeps are anchored in warm-up buffers beyond the tested window so
the contracting direction is never carried in its unstable direction.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import SystemSpec, jac_array, orbit_array, walk
from .errors import DegeneracyError, NuspecError
from .walker import Orbit, Walker

# generic seed vector for direction transport; any vector off the invariant
# lines works, this one is fixed for reproducibility
_GENERIC = np.array([0.89442719, 0.4472136])

# warm-up length for direction sweeps; contraction by e^{-lambda W} puts the
# seeding error below double precision for every system we run
_WARM = 64

MAX_BLOCK_INDEX = 60


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Measured exponents (ascending) with the min/max split by sign.

    lambda_s / lambda_u are the maximal negative and minimal positive
    exponents; Lambda_s / Lambda_u the minimal negative and maximal positive.
    In two dimensions each sign class has at most one member, so the pairs
    coincide.  The bounds read lambda_s and lambda_u only; Lambda_s and
    Lambda_u stay because the lyapunov report states them.
    """

    exponents: tuple
    lambda_s: float
    lambda_u: float
    Lambda_s: float
    Lambda_u: float
    horizon: int

    @property
    def is_hyperbolic(self) -> bool:
        return (
            math.isfinite(self.lambda_s)
            and math.isfinite(self.lambda_u)
            and self.lambda_s < 0.0 < self.lambda_u
        )

    @classmethod
    def from_exponents(cls, exps, horizon) -> "LyapunovSpectrum":
        exps = tuple(sorted(float(e) for e in exps))
        neg = [e for e in exps if e < 0]
        pos = [e for e in exps if e > 0]
        return cls(
            exponents=exps,
            lambda_s=max(neg) if neg else math.nan,
            lambda_u=min(pos) if pos else math.nan,
            Lambda_s=min(neg) if neg else math.nan,
            Lambda_u=max(pos) if pos else math.nan,
            horizon=int(horizon),
        )


@dataclass(frozen=True)
class PesinBlockParams:
    """Contraction rate lam, expansion rate mu, defect rate epsilon, and the
    finite test window (N_fwd, N_bwd, M_range)."""

    lam: float
    mu: float
    epsilon: float
    window: tuple = (200, 200, 50)

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0):
            raise ValueError("block rates lam, mu must be positive")
        if not (0 < self.epsilon < min(self.lam, self.mu) / 4):
            raise ValueError("epsilon must satisfy 0 < epsilon < min(lam, mu)/4")

    @classmethod
    def from_spectrum(cls, spectrum: LyapunovSpectrum, epsilon_ratio=0.1, window=(200, 200, 50)):
        """Convention: lam = |lambda_s|, mu = lambda_u from the measured
        spectrum, epsilon = epsilon_ratio * min(lam, mu)."""
        if not spectrum.is_hyperbolic:
            raise ValueError("spectrum is not hyperbolic; no block parameters")
        lam = abs(spectrum.lambda_s)
        mu = spectrum.lambda_u
        return cls(lam=lam, mu=mu, epsilon=epsilon_ratio * min(lam, mu), window=window)


def spectrum_orbit(system: SystemSpec, x0, N: int, qr_period: int = 10, transient: int = 0) -> Orbit:
    """The orbit lyapunov_spectrum reads: the n_used + 1 rows after the
    transient, where n_used is N trimmed to a multiple of qr_period; the
    last row is walked, so that an escape there raises, and not used."""
    return Orbit(system, *map(float, x0), transient, N // qr_period * qr_period + 1)


def lyapunov_spectrum(
    system: SystemSpec, x0: np.ndarray, N: int, qr_period: int = 10, transient: int = 0, walker: Walker | None = None
) -> LyapunovSpectrum:
    """Both exponents along the orbit of x0 over N steps: the mean log stretch
    of one tangent vector, normalized every qr_period steps only to keep its
    norm in range (N is trimmed to a multiple of qr_period), and
    system.log_det minus it.  The walk starts at x0, folded as orbit_array
    folds it, and drops its first transient steps, keeping none of them.

    The rows come in blocks from walker, which must stream
    spectrum_orbit(system, x0, N, qr_period, transient) (ValueError
    otherwise), or, with no walker given, from a walker of its own
    (nuspec.walker), which walks them on another CPU when it can.  The
    Jacobians of a block are evaluated as arrays, which equal the scalar
    ones row for row, and the tangent vector is carried row by row in
    Python floats."""
    if N < 10 * qr_period:
        raise ValueError("need N >= 10 * qr_period")
    orbit = spectrum_orbit(system, x0, N, qr_period, transient)
    if walker is not None and walker.stream != orbit:
        raise ValueError(f"the walker streams {walker.stream}, not the spectrum's orbit {orbit}")
    n_used = left = orbit.count - 1
    jac = system.jac(np)
    u1, u2, acc, k = 1.0, 0.0, 0.0, qr_period  # the tangent vector as plain floats, its log stretch
    with Walker(stream=orbit) if walker is None else nullcontext(walker) as w:
        for block in w.blocks():
            n = min(len(block), left)
            left -= n
            # a constant entry stays one float, not a list of n copies
            cols = (c.tolist() if isinstance(c, np.ndarray) else repeat(c, n) for c in jac(block[:n, 0], block[:n, 1]))
            for a11, a12, a21, a22 in zip(*cols):
                u1, u2 = a11 * u1 + a12 * u2, a21 * u1 + a22 * u2
                k -= 1
                if not k:
                    k = qr_period
                    r = math.hypot(u1, u2)
                    if r == 0.0:
                        raise DegeneracyError("tangent vector collapsed to zero")
                    u1, u2 = u1 / r, u2 / r
                    acc += math.log(r)
    top = acc / n_used
    return LyapunovSpectrum.from_exponents((top, system.log_det - top), n_used)


def _transport_sweeps(system, base, jmin, jmax, warm=_WARM):
    """Orbit points and equivariantly transported unit directions on
    [jmin, jmax] for every row of the (P, 2) array of base points.

    All points advance together, one time step at a time.  Returns
    (pts, vu, vs, log_stretch_u, log_stretch_s), time-major: pts[t, p] is
    f^{jmin+t}(base[p]) and the stretch logs are per-step factors
    log ||Df(pts[t, p]) v(pts[t, p])|| for the respective direction field.

    The expanding field is seeded warm >= 1 steps below jmin and carried
    forward by the Jacobians; the contracting field is seeded warm steps
    above jmax and carried backward by their adjugates
    [[a22, -a12], [-a21, a11]], the inverses up to a scale that
    normalization drops.  Both sweeps move each field in its attracting
    direction, so the seeds wash out at the hyperbolicity rate.  The
    stretches are the norms the carry divides by: log ||Df u_t|| forward
    and, as Df adj(Df) = det(Df) I, log|det Df| - log ||adj(Df) s_{t+1}||
    backward.  A vanished or non-finite norm leaves NaN behind it and raises
    DegeneracyError after the loop; the sign, exact through product, norm
    and division, is fixed there too (first coordinate positive, or zero
    and the second non-negative).
    """
    n_bwd = -jmin + warm
    n_fwd = jmax + warm
    total = n_bwd + n_fwd + 1
    cur = system.space.fold(np.array(base, dtype=float))
    n_pts = len(cur)
    pts_full = np.empty((total, n_pts, 2))
    pts_full[n_bwd] = cur
    for steps, forward in ((range(n_bwd + 1, total), True), (range(n_bwd - 1, -1, -1), False)):
        w = walk(system, cur[:, 0], cur[:, 1], forward, xp=np)
        for t in steps:
            pts_full[t, :, 0] = next(w)
            pts_full[t, :, 1] = next(w)
    jacs = jac_array(system, pts_full.reshape(-1, 2)).reshape(total, n_pts, 2, 2)
    # one carry, side by side: the Jacobians forward, their adjugates backward in
    # time; the stack is a contiguous copy, so np.matmul runs one kernel for any P
    back = jacs[-2::-1]
    mats = np.concatenate((jacs[:-1], back), axis=1)
    adj = mats[:, n_pts:]  # [[a22, -a12], [-a21, a11]]: swap the diagonal, negate the rest
    adj[..., 0, 0], adj[..., 1, 1] = back[..., 1, 1], back[..., 0, 0]
    adj[..., [0, 1], [1, 0]] *= -1
    del jacs, back
    v = np.empty((total, 2 * n_pts, 2))
    v[0] = _GENERIC / np.hypot(*_GENERIC)
    norms = np.empty((total - 1, 2 * n_pts))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, m in enumerate(mats):
            w = np.matmul(m, v[t][:, :, None])[:, :, 0]
            norms[t] = np.hypot(w[:, 0], w[:, 1])
            v[t + 1] = w / norms[t][:, None]
        # in place, on the whole contiguous array, so a row's logs do not depend
        # on P: on a strided half, a one-point call took numpy's non-SIMD path
        logs = np.log(norms, out=norms)
    if not np.isfinite(logs).all():
        raise DegeneracyError("direction vector vanished during transport")
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    np.negative(v, out=v, where=flip[..., None])

    sl = slice(warm, n_bwd + jmax + 1)
    log_u, log_s = logs[sl, :n_pts], system.log_det - logs[::-1, n_pts:][sl]
    return pts_full[sl], v[sl, :n_pts], v[::-1, n_pts:][sl], log_u, log_s


def _defect_max(cum, t, step, rate, slack):
    """Per-point max over (m, n) of cum[t[m] + step[n]] - cum[t[m]] + rate[n]
    - slack[m], reduced one m row at a time so that only (n, point)
    temporaries are alive."""
    rows = zip(t.tolist(), slack.tolist())
    return np.max([(cum[tm + step] - cum[tm] + rate[:, None] - sm).max(axis=0) for tm, sm in rows], axis=0)


def block_defects(system: SystemSpec, base: np.ndarray, params: PesinBlockParams):
    """Largest inequality defects (in units of epsilon*k) for the three
    finite-horizon block conditions over the params window, for every row of
    the (P, 2) array of base points.

    Returns (defect_contraction, defect_expansion, defect_angle), each of
    length P; a point's block index is the smallest k with epsilon*k >= all
    three.  The angle defect at f^m x is log(|dot| / |cross|), -log tan of
    the acute angle between the lines, less epsilon*|m|.
    """
    n_fwd, n_bwd, m_range = params.window
    jmin = -(m_range + n_bwd)
    jmax = m_range + n_fwd
    pts, vu, vs, log_u, log_s = _transport_sweeps(system, base, jmin, jmax)

    eps = params.epsilon
    zero = np.zeros((1, len(pts[0])))
    cum_s = np.concatenate((zero, np.cumsum(log_s, axis=0)))
    cum_u = np.concatenate((zero, np.cumsum(log_u, axis=0)))

    ms = np.arange(-m_range, m_range + 1)
    t = ms - jmin  # row of f^m x, one per m
    slack = eps * np.abs(ms)
    ns_f = np.arange(1, n_fwd + 1)
    ns_b = np.arange(1, n_bwd + 1)
    # ||Df^n restricted to the contracting line at f^m x||
    d_a = _defect_max(cum_s, t, ns_f, (params.lam - eps) * ns_f, slack)
    # ||Df^{-n} restricted to the expanding line at f^m x||
    d_b = _defect_max(cum_u, t, -ns_b, (params.mu - eps) * ns_b, slack)
    u = vu[t]
    w = vs[t]
    cross = np.abs(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0])
    dot = np.abs(u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1])
    # parallel lines (cross 0) give a +inf defect, which no k meets
    with np.errstate(divide="ignore"):
        tilt = np.log(dot / cross)
    d_c = (tilt - slack[:, None]).max(axis=0)
    return d_a, d_b, d_c


def _block_indices(system: SystemSpec, base: np.ndarray, params: PesinBlockParams) -> list:
    """Block index (or None) of every row of base; see pesin_block_index."""
    d_a, d_b, d_c = block_defects(system, base, params)
    ks = np.maximum(1.0, np.ceil(np.maximum(np.maximum(d_a, d_b), d_c) / params.epsilon - 1e-12))
    return [int(k) if k <= MAX_BLOCK_INDEX else None for k in ks.tolist()]


def pesin_block_index(system: SystemSpec, x: np.ndarray, params: PesinBlockParams):
    """Smallest block index k >= 1 whose inequalities hold over the window,
    or None if no k <= MAX_BLOCK_INDEX suffices."""
    return _block_indices(system, x[None], params)[0]


def block_sample(
    system: SystemSpec,
    params: PesinBlockParams,
    sample_size: int,
    seed: int,
    spacing: int = 100,
    transient: int = 200,
):
    """Classify sample_size points drawn from one long orbit, spaced
    `spacing` iterates apart.  Returns a list of ((2,) row, index-or-None).

    The whole sample is classified in one sweep."""
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    x, y = np.random.default_rng(seed).random(2)
    orb = orbit_array(system, x, y, n_fwd=transient + spacing * (sample_size - 1))
    base = orb[transient::spacing].copy()
    try:
        ks = _block_indices(system, base, params)
    except (NuspecError, ArithmeticError, ValueError):
        # redo the sample point by point, so the error raised is the one of
        # the earliest failing point, as classified on its own
        for row in base:
            _block_indices(system, row[None], params)
        raise
    return list(zip(base, ks))
