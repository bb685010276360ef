"""Return times to sets, ball-return scaling against the exponent bound,
nonlacunarity diagnostics, and Birkhoff indicator averages.

The ball-return time has two estimators.  The lattice estimator marches a
grid of sample points from inside the ball and reports the first step at
which a sample comes back within the radius; it is the generic method and
converges to the set-return time from above as the grid grows.  For the
linear cat map the image of the ball is known exactly (an ellipse flattened
onto the unstable line), so a segment estimator measures the wrapped
distance from that line segment to the center analytically; this is the
method of choice for small radii, where any fixed point lattice is far too
coarse to witness the first set intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    CAT_LAMBDA_S,
    CAT_LAMBDA_U,
    Space,
    SystemKind,
    SystemSpec,
    dist_rows,
    orbit_array,
    step_array,
    wrap_half,
)
from .errors import PreconditionError

_SQRT5 = math.sqrt(5.0)
# unit unstable eigenvector of [[2,1],[1,1]]
_CAT_VU = np.array([1.0, (_SQRT5 - 1.0) / 2.0])
_CAT_VU /= np.linalg.norm(_CAT_VU)

# points one incidence step tests at a time; bounds its temporaries
_EVENT_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SetSpec:
    """A union of closed balls of one radius, centered at the rows of centers.

    Every test against the set measures the displacement point - center,
    wrapped to (-1/2, 1/2] on the torus, in the one helper _dist2, so
    membership, locate, the cover's greedy net and its event scan agree on
    every ball's boundary.  Every array scan goes through incidences, which
    tests a point only against its cell's balls in one grid index cached per set."""

    centers: np.ndarray  # (r, 2)
    radius: float
    space: Space = Space.TORUS2

    @classmethod
    def ball(cls, center: np.ndarray, radius: float, space: Space) -> "SetSpec":
        return cls(np.array([center], dtype=float), float(radius), space)

    @property
    def r_count(self) -> int:
        return len(self.centers)

    def _dist2(self, pts: np.ndarray, which=slice(None)) -> np.ndarray:
        """Squared distances (n, k) from the rows of pts to centers[which];
        an (n, k) index array gives each row its own k centers."""
        c = self.centers[which]
        d = pts[:, None, :] - (c if c.ndim == 3 else c[None])
        if self.space is Space.TORUS2:
            d = wrap_half(d)
        return (d * d).sum(axis=2)

    @cached_property
    def _grid(self):
        """Candidate index (g, listed, count, first) on a g x g grid of the
        unit square, g = int(4 / radius) capped at 256: cell c lists count[c]
        balls from listed[first[c]], ascending, whose bounding boxes meet it;
        the last cell, g * g, lists every ball."""
        g = max(1, int(4.0 / max(self.radius, 4.0 / 256)))
        reach = self.radius + 1e-9  # a margin that absorbs rounding at cell edges
        lo = np.floor((self.centers - reach) * g).astype(np.int64)
        span = np.minimum(np.floor((self.centers + reach) * g).astype(np.int64) - lo + 1, g)
        off = np.arange(int(span.max(initial=0)))
        axis = (lo[:, :, None] + off) % g  # (ball, coordinate, offset)
        inside = off < span[:, :, None]
        mask = inside[:, 0, :, None] & inside[:, 1, None, :]
        cell = np.concatenate(((axis[:, 0, :, None] * g + axis[:, 1, None, :])[mask], np.full(self.r_count, g * g)))
        # ball-major, so the stable sort by cell keeps each cell's balls ascending
        listed = np.concatenate((np.nonzero(mask)[0], np.arange(self.r_count)))[np.argsort(cell, kind="stable")]
        count = np.bincount(cell, minlength=g * g + 1)
        return g, listed, count, np.cumsum(count) - count

    def incidences(self, pts: np.ndarray):
        """All (row, ball) incidences of an (n, 2) array with the set, sorted by
        (row, ball).  The grid only picks candidates: a row with a coordinate
        outside (-2^16, 2^16), which rounding could fold wrongly, takes all."""
        g, listed, count, first = self._grid
        ev_t, ev_i = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for start in range(0, len(pts), _EVENT_CHUNK):
            p = pts[start : start + _EVENT_CHUNK]
            c = np.floor(p * g).astype(np.int64) % g
            cid = np.where((np.abs(p) < 2.0**16).all(axis=1), c[:, 0] * g + c[:, 1], g * g)
            # one (row, candidate) pair per ball listed for the row's cell
            k = count[cid]
            t = np.repeat(np.arange(len(p)), k)
            ball = listed[np.arange(len(t)) + np.repeat(first[cid] - (np.cumsum(k) - k), k)]
            hit = self._dist2(p[t], ball[:, None])[:, 0] <= self.radius * self.radius
            ev_t.append(t[hit] + start)
            ev_i.append(ball[hit])
        return np.concatenate(ev_t), np.concatenate(ev_i)

    def membership_rows(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, 2) array of coordinates."""
        return np.bincount(self.incidences(pts)[0], minlength=len(pts)) > 0

    def membership(self, p: np.ndarray) -> bool:
        return bool(self.membership_rows(p[None, :])[0])

    def locate(self, xy: np.ndarray) -> int:
        """Index of the nearest center; ValueError if xy lies in no ball."""
        dist2 = self._dist2(xy[None, :])[0]
        i = int(np.argmin(dist2))
        if dist2[i] > self.radius * self.radius:
            raise ValueError("point lies in no ball of the set")
        return i


@dataclass
class ReturnTimeSequence:
    """Two-sided visit times of an orbit to a set; t_0 = 0 is implicit.
    return_times keeps the iterates it walked: row origin + t of orbit is f^t(x)."""

    forward: np.ndarray  # strictly increasing positive ints
    backward: np.ndarray  # strictly decreasing negative ints
    horizon: int
    orbit: np.ndarray | None = None
    origin: int = 0

    def t(self, i: int) -> int:
        """Visit time t_i, with t_0 = 0."""
        if i == 0:
            return 0
        if i > 0:
            return int(self.forward[i - 1])
        return int(self.backward[-i - 1])

    @property
    def count_fwd(self) -> int:
        return len(self.forward)

    @property
    def count_bwd(self) -> int:
        return len(self.backward)


def return_times(
    system: SystemSpec,
    x: np.ndarray,
    gamma: SetSpec,
    count_fwd: int,
    count_bwd: int,
    horizon: int,
) -> ReturnTimeSequence:
    """First count_fwd forward and count_bwd backward visit times of x to
    gamma within +-horizon (partial if the budget runs out first)."""
    if not gamma.membership(x):
        raise PreconditionError("return_times requires x in gamma (t_0 = 0)")
    fwd, ahead = _visit_times(system, x, gamma, count_fwd, horizon, forward=True)
    bwd, behind = _visit_times(system, x, gamma, count_bwd, horizon, forward=False)
    # when the count budget binds before the time budget, the sequence is
    # only complete up to its last listed time
    eff_horizon = horizon if len(fwd) < count_fwd else min(horizon, fwd[-1])
    return ReturnTimeSequence(
        forward=np.asarray(fwd, dtype=np.int64),
        backward=-np.asarray(bwd, dtype=np.int64),
        horizon=eff_horizon,
        orbit=np.concatenate((behind[::-1], x[None], ahead)),
        origin=len(behind),
    )


def _orbit_chunks(system, x, steps, forward=True, chunk=4096):
    """Walk the first `steps` iterates of x, forward or backward, in chunks:
    yields (t, pts) with row i of pts equal to f^(+-(t + i + 1))(x).  Each
    chunk restarts from the last row of the one before, so the iterates are
    the floats of one unbroken orbit_array call."""
    cx, cy = x.tolist()
    for t in range(0, steps, chunk):
        n = min(chunk, steps - t)
        if forward:
            pts = orbit_array(system, cx, cy, n_fwd=n)[1:]
        else:
            pts = orbit_array(system, cx, cy, n_fwd=0, n_bwd=n)[-2::-1]
        cx, cy = pts[-1]
        yield t, pts


def _visit_times(system, x, gamma, count, horizon, forward):
    times, walked = [], [np.empty((0, 2))]
    for t, pts in _orbit_chunks(system, x, horizon if count > 0 else 0, forward):
        walked.append(pts)
        hits = np.flatnonzero(gamma.membership_rows(pts))[: count - len(times)]
        times += (hits + (t + 1)).tolist()
        if len(times) >= count:
            break
    return times, np.concatenate(walked)


# ---------------------------------------------------------------------------
# ball return times


def first_return_time_ball(
    system: SystemSpec,
    x: np.ndarray,
    r: float,
    grid: int = 5,
    T_max: int = 1000,
    master_radius: float | None = None,
    method: str = "lattice",
):
    """Least k <= T_max at which the forward image of B(x, r) meets B(x, r)
    again, or None.

    method="lattice": march a grid x grid lattice of samples from the ball
    (the center is always a sample) and detect a sample returning within r
    of x.  When master_radius is given the lattice lives on the absolute
    grid of the master ball and is filtered to radius r, which makes sample
    sets nested across radii.

    method="segment": cat map only; treats f^k(B) as the exact line segment
    of half-length r * lambda_u^k along the unstable eigendirection and
    measures its wrapped distance to x, inflated by the r * lambda_s^k
    stable thickness.
    """
    if r <= 0 or grid < 1 or T_max < 1:
        raise ValueError("need r > 0, grid >= 1, T_max >= 1")
    if method == "segment":
        if system.kind is not SystemKind.CAT_MAP:
            raise ValueError("segment method requires the linear cat map")
        return _return_time_segment(x, r, T_max)
    if method != "lattice":
        raise ValueError(f"unknown method {method!r}")

    R = r if master_radius is None else float(master_radius)
    if grid == 1:
        offsets = np.zeros((1, 2))
    else:
        g = np.linspace(-R, R, grid)
        ox, oy = np.meshgrid(g, g, indexing="ij")
        offsets = np.column_stack((ox.ravel(), oy.ravel()))
        offsets = offsets[(offsets**2).sum(axis=1) <= r * r]
        if not (offsets == 0.0).all(axis=1).any():
            offsets = np.vstack(([0.0, 0.0], offsets))
    pts = x[None, :] + offsets
    if system.space is Space.TORUS2:
        pts = pts % 1.0
    target = x[None, :]
    for k in range(1, T_max + 1):
        pts = step_array(system, pts)
        d = dist_rows(system.space, pts, target)
        if (d <= r).any():
            return k
    return None


def _return_time_segment(c, r, T_max):
    z = c.copy()
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    for k in range(1, T_max + 1):
        z = (A @ z) % 1.0
        delta = wrap_half(z - c)
        half_len = r * CAT_LAMBDA_U**k
        d = _segment_lattice_distance(delta, half_len)
        if d <= r * (1.0 + CAT_LAMBDA_S**k):
            return k
    return None


def _segment_lattice_distance(c, T, chunk=2_000_000):
    """Min distance from the segment {c + t * vu : |t| <= T} to the integer
    lattice (equivalently: from the wrapped segment to the origin)."""
    vu = _CAT_VU
    n = max(2, int(math.ceil(2 * T / 0.2)) + 1)
    best = math.inf
    offs = [
        np.array([i, j], float) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)
    ]
    spacing = 2 * T / (n - 1)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        tt = -T + spacing * np.arange(start, stop)
        P = c[None, :] + tt[:, None] * vu[None, :]
        Q = np.round(P)
        for off in offs:
            L = Q + off[None, :]
            dvec = L - c[None, :]
            tproj = dvec @ vu
            np.clip(tproj, -T, T, out=tproj)
            rx = dvec[:, 0] - tproj * vu[0]
            ry = dvec[:, 1] - tproj * vu[1]
            m = math.sqrt(float(np.min(rx * rx + ry * ry)))
            if m < best:
                best = m
    return best


@dataclass
class RecurrenceScalingReport:
    radii: list
    tau: list  # int or None per radius
    ratios: list  # float or None per radius (censored)
    censored: list
    limsup_estimate: float
    bound: float
    grid: int
    method: str
    T_max: int
    any_censored: bool = False

    def to_json(self) -> dict:
        return {
            "radii": self.radii,
            "tau": self.tau,
            "ratios": self.ratios,
            "censored": self.censored,
            "limsup_estimate": self.limsup_estimate,
            "bound": self.bound,
            "grid": self.grid,
            "method": self.method,
            "T_max": self.T_max,
            "any_censored": self.any_censored,
        }


def recurrence_scaling(
    system: SystemSpec,
    x: np.ndarray,
    radii,
    grid: int,
    T_max: int,
    spectrum,
    method: str = "auto",
) -> RecurrenceScalingReport:
    """Ball-return ratios tau(r) / (-log r) against the exponent bound
    1/lambda_u - 1/lambda_s; the limsup estimate is the max of the last
    three uncensored ratios.  Censored radii (no return by T_max) are
    flagged and excluded, never clamped."""
    radii = [float(r) for r in radii]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly descending")
    if radii[-1] < 1e-6:
        raise ValueError("smallest radius below the 1e-6 floating-point floor")
    if method == "auto":
        method = "segment" if system.kind is SystemKind.CAT_MAP else "lattice"
    master = radii[0] if method == "lattice" else None
    taus = []
    ratios = []
    censored = []
    for r in radii:
        tau = first_return_time_ball(
            system, x, r, grid=grid, T_max=T_max, master_radius=master, method=method
        )
        taus.append(tau)
        censored.append(tau is None)
        ratios.append(None if tau is None else tau / (-math.log(r)))
    good = [q for q in ratios if q is not None]
    limsup = max(good[-3:]) if good else math.nan
    bound = 1.0 / spectrum.lambda_u - 1.0 / spectrum.lambda_s
    return RecurrenceScalingReport(
        radii=radii,
        tau=taus,
        ratios=ratios,
        censored=censored,
        limsup_estimate=limsup,
        bound=bound,
        grid=grid,
        method=method,
        T_max=T_max,
        any_censored=any(censored),
    )


# ---------------------------------------------------------------------------
# nonlacunarity


@dataclass
class NonlacunarityProfile:
    ratios_fwd: np.ndarray  # entry i-1 is t_{i+1} / t_i
    ratios_two_sided: np.ndarray  # entry i-1 is (t_{i+1} - t_{-i-1}) / (t_i - t_{-i})
    tail_deviation: dict  # threshold i0 -> sup_{i >= i0} |ratio_fwd - 1|

    def to_json(self) -> dict:
        return {
            "ratios_fwd": self.ratios_fwd.tolist(),
            "ratios_two_sided": self.ratios_two_sided.tolist(),
            "tail_deviation": {str(k): v for k, v in self.tail_deviation.items()},
        }


def nonlacunarity_profile(seq: ReturnTimeSequence, thresholds=(10, 20, 50, 100)) -> NonlacunarityProfile:
    """Consecutive-ratio diagnostics for the visit-time sequence."""
    t = seq.forward.astype(float)
    if len(t) < 3:
        raise PreconditionError("need at least 3 forward visit times")
    ratios_fwd = t[1:] / t[:-1]
    nb = min(len(t) - 1, len(seq.backward) - 1)
    if nb > 0:
        tm = seq.backward.astype(float)
        ratios_two = (t[1 : nb + 1] - tm[1 : nb + 1]) / (t[:nb] - tm[:nb])
    else:
        ratios_two = np.empty(0)
    dev = np.abs(ratios_fwd - 1.0)
    tail = {}
    for i0 in thresholds:
        # ratio entry j covers t_{j+2}/t_{j+1}; "from index i0 on" keeps
        # entries with lower index i >= i0
        if i0 - 1 < len(dev):
            tail[int(i0)] = float(dev[i0 - 1 :].max())
        else:
            tail[int(i0)] = None
    return NonlacunarityProfile(ratios_fwd=ratios_fwd, ratios_two_sided=ratios_two, tail_deviation=tail)


def interval_hit_check(seq: ReturnTimeSequence, epsilon: float, N_start: int = 1):
    """Smallest N >= N_start such that every n in [N, n_max] has a visit time
    in [n, n + n*epsilon), where n_max is the largest n whose window is
    verifiable within the sequence horizon.  None if the check still fails
    at n_max."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    times = seq.forward
    n_max = int(math.floor((seq.horizon + 1) / (1.0 + epsilon)))
    if n_max < N_start or len(times) == 0:
        return None
    n = np.arange(N_start, n_max + 1)
    idx = np.searchsorted(times, n, side="left")
    has_next = idx < len(times)
    nxt = np.where(has_next, times[np.minimum(idx, len(times) - 1)], np.iinfo(np.int64).max)
    ok = has_next & (nxt < n * (1.0 + epsilon))
    if ok.all():
        return int(N_start)
    last_fail = int(n[~ok][-1])
    if last_fail == n_max:
        return None
    return last_fail + 1


def birkhoff_indicator_average(system: SystemSpec, x: np.ndarray, gamma: SetSpec, horizon: int) -> float:
    """Fraction of the first `horizon` forward iterates (starting at x itself)
    that land in gamma."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    count = int(gamma.membership(x))
    for _, pts in _orbit_chunks(system, x, horizon - 1):
        count += int(gamma.membership_rows(pts).sum())
    return count / horizon
