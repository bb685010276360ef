"""Return times to sets, ball-return scaling against the exponent bound,
nonlacunarity diagnostics, and Birkhoff indicator averages.

The ball-return time has two estimators, which share one march that
answers a whole list of radii.  The lattice estimator marches one grid of
sample points over the largest radius's ball (grid=1: the center alone, a
center-return proxy) and reports, per radius, the first step at which a
sample within that radius of the center comes back within it; it is the
generic method and converges to the set-return time from above as the grid
grows.  For the linear cat map the image of the ball is known exactly (an
ellipse flattened onto the unstable line), so a segment estimator measures
the wrapped distance from that line segment to the center exactly: unwrapped,
it is the distance from the segment to the nearest integer lattice point,
and that point is always among the three lattice rows around the line at an
integer column the segment spans.  This is the method of choice for small
radii, where any fixed point lattice is far too coarse to witness the first
set intersection.
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
    step_array,
    walk,
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
        """Squared distances (n, k) from the rows of pts to centers[which]."""
        d = self.space.wrap(pts[:, None, :] - self.centers[which][None])
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
        outside (-2^16, 2^16), which rounding could fold wrongly, takes all.
        The hit test is _dist2's float for float, on the x and y columns."""
        g, listed, count, first = self._grid
        cx, cy = self.centers[:, 0], self.centers[:, 1]
        r2 = self.radius * self.radius
        ev_t, ev_i = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for start in range(0, len(pts), _EVENT_CHUNK):
            x, y = pts[start : start + _EVENT_CHUNK].T
            cell = (np.floor(x * g).astype(np.int64) % g) * g + np.floor(y * g).astype(np.int64) % g
            cid = np.where((np.abs(x) < 2.0**16) & (np.abs(y) < 2.0**16), cell, g * g)
            # one (row, candidate) pair per ball listed for the row's cell
            k = count[cid]
            t = np.repeat(np.arange(len(x)), k)
            ball = listed[np.arange(len(t)) + np.repeat(first[cid] - (np.cumsum(k) - k), k)]
            dx = self.space.wrap(x[t] - cx[ball])
            dy = self.space.wrap(y[t] - cy[ball])
            hit = np.flatnonzero(dx * dx + dy * dy <= r2)  # faster than a mask that is true at random
            ev_t.append(t.take(hit) + start)
            ev_i.append(ball.take(hit))
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
    """Two-sided visit times of an orbit to a set; t_0 = 0 is implicit."""

    forward: np.ndarray  # strictly increasing positive ints
    backward: np.ndarray  # strictly decreasing negative ints
    horizon: int

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
    ahead = VisitWalk(system, x, gamma, forward=True).extend(horizon, count_fwd)
    behind = VisitWalk(system, x, gamma, forward=False).extend(horizon, count_bwd)
    # when the count budget binds before the time budget, the sequence is
    # only complete up to its last listed time (t_0 = 0 when none is asked)
    eff_horizon = horizon if len(ahead.times) < count_fwd else ([0] + ahead.times)[-1]
    return ReturnTimeSequence(
        forward=np.asarray(ahead.times, dtype=np.int64),
        backward=-np.asarray(behind.times, dtype=np.int64),
        horizon=eff_horizon,
    )


def _walk_from(system, x, forward=True):
    """The walk of the row x one way, from x folded as orbit_array folds its start."""
    return walk(system, *system.space.fold(np.array(x, dtype=float)).tolist(), forward)


def _orbit_chunks(w, steps, chunk=4096):
    """The next `steps` points of the walk w, as (n, 2) arrays of up to chunk
    rows.  The one walk goes on from chunk to chunk, so the rows are the
    floats of one orbit_array call."""
    for t in range(0, steps, chunk):
        yield np.fromiter(w, float, 2 * min(chunk, steps - t)).reshape(-1, 2)


class VisitWalk:
    """The visit times of x to gamma one way, walked as far as asked: times
    lists them ascending as positive step counts, and rows[t - 1] is
    f^(+-t)(x).  extend continues the one walk where it stopped, so a
    longer horizon walks only the steps past the last one."""

    def __init__(self, system: SystemSpec, x: np.ndarray, gamma: SetSpec, forward: bool = True):
        self._walk = _walk_from(system, x, forward)
        self._gamma = gamma
        self.times, self._rows, self.steps = [], [np.empty((0, 2))], 0

    def extend(self, horizon: int, count: int) -> "VisitWalk":
        """Walk on to horizon steps in all, or to the end of the chunk that
        lists the count-th visit."""
        left = horizon - self.steps if len(self.times) < count else 0
        for pts in _orbit_chunks(self._walk, left):
            hits = np.flatnonzero(self._gamma.membership_rows(pts))[: count - len(self.times)]
            self.times += (hits + (self.steps + 1)).tolist()
            self._rows.append(pts)
            self.steps += len(pts)
            if len(self.times) >= count:
                break
        return self

    @property
    def rows(self) -> np.ndarray:
        return np.concatenate(self._rows)


# ---------------------------------------------------------------------------
# ball return times


def ball_return_times(
    system: SystemSpec,
    x: np.ndarray,
    radii,
    grid: int = 5,
    T_max: int = 1000,
    method: str = "lattice",
) -> list:
    """For each of the strictly descending radii r, the least k <= T_max at
    which the forward image of B(x, r) meets B(x, r) again, or None.

    One loop over k serves both estimators: it keeps the open radii, always
    the smallest ones, and stops once none is open; each estimator only says
    which open radii it hits at step k.  A hit for r is a hit for every
    larger radius too, so a prefix of the open radii resolves at each step.

    method="lattice": march one grid x grid lattice spanning the largest
    ball, with the center always a sample (grid=1 is the center alone), and
    detect a sample returning within r of x; radius r reads the samples
    within r of x, so the sample sets are nested across radii.  Rows that no
    open radius reads are dropped as the radii resolve.

    method="segment": cat map only; treats f^k(B) as the exact line segment
    of half-length r * lambda_u^k along the unstable eigendirection and
    measures its wrapped distance to x (_segment_lattice_distances), inflated
    by the r * lambda_s^k stable thickness.  The segments of the open radii
    share one center, each inside the longest.
    """
    radii = [float(r) for r in radii]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly descending")
    if not radii or not all(r > 0 for r in radii) or grid < 1 or T_max < 1:
        raise ValueError("need r > 0, grid >= 1, T_max >= 1")
    if method == "segment":
        if system.kind is not SystemKind.CAT_MAP:
            raise ValueError("segment method requires the linear cat map")
        w = walk(system, *x.tolist())
        orbit = zip(w, w)
    elif method == "lattice":
        # grid=1 gives the one offset (-r, -r), outside the ball; the
        # prepended center is then the only sample
        g = np.linspace(-radii[0], radii[0], grid)
        ox, oy = np.meshgrid(g, g, indexing="ij")
        offsets = np.column_stack((ox.ravel(), oy.ravel()))
        if not (offsets == 0.0).all(axis=1).any():
            offsets = np.vstack(([0.0, 0.0], offsets))
        pts, n2 = system.space.fold(x[None, :] + offsets), (offsets**2).sum(axis=1)
        read = -1  # rows are kept for rad[read:]
    else:
        raise ValueError(f"unknown method {method!r}")
    rad = np.array(radii)
    taus, lo = [None] * len(radii), 0  # rad[lo:] are the open radii
    for k in range(1, T_max + 1):
        r = rad[lo:]
        if method == "segment":
            c = system.space.wrap(np.array(next(orbit)) - x)
            hit = _segment_lattice_distances(c, r * CAT_LAMBDA_U**k) <= r * (1.0 + CAT_LAMBDA_S**k)
        else:
            if read != lo:  # drop the rows that no open radius reads
                keep = n2 <= r[0] * r[0]
                pts, n2, read = pts[keep], n2[keep], lo
            pts = step_array(system, pts)
            d = system.space.dist(pts, x[None, :])
            hit = ((n2[:, None] <= r * r) & (d[:, None] <= r)).any(axis=0)
        if hit.any():
            upto = lo + int(np.flatnonzero(hit)[-1]) + 1
            taus[lo:upto] = [k] * (upto - lo)
            lo = upto
            if lo == len(radii):
                break
    return taus


def _segment_lattice_distances(c, T):
    """Min distance from each segment {c + t * vu : |t| <= T_i} to the integer
    lattice (equivalently: from the wrapped segment to the origin), for the
    descending half-lengths T.

    The candidates are, at every integer column a from floor(min x) to
    ceil(max x) of the longest segment, the three lattice rows
    round(y(a)) + {-1, 0, 1} around the line y(a).  The nearest lattice
    point lies within sqrt(2)/2 < 0.71 of the segment, so in one of those
    columns, and within 0.71 of the line, which is 0.71 / vu_x < 0.84 of it
    vertically: one of those three rows.  A shorter segment lies inside the
    longest, so the one candidate set serves every T_i."""
    vu = _CAT_VU
    reach = T[0] * vu[0]
    a = np.arange(math.floor(c[0] - reach), math.ceil(c[0] + reach) + 1, dtype=float)
    row = np.round(c[1] + (a - c[0]) * (vu[1] / vu[0]))
    dx = np.repeat(a, 3) - c[0]
    dy = (row[:, None] + (-1.0, 0.0, 1.0)).ravel() - c[1]
    proj = np.column_stack((dx, dy)) @ vu
    out = []
    for t in T:
        tproj = np.clip(proj, -t, t)
        rx = dx - tproj * vu[0]
        ry = dy - tproj * vu[1]
        out.append(math.sqrt(float(np.min(rx * rx + ry * ry))))
    return np.array(out)


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
    if any(r < 1e-6 for r in radii):
        raise ValueError("smallest radius below the 1e-6 floating-point floor")
    if method == "auto":
        method = "segment" if system.kind is SystemKind.CAT_MAP else "lattice"
    taus = ball_return_times(system, x, radii, grid=grid, T_max=T_max, method=method)
    censored = [tau is None for tau in taus]
    ratios = [None if tau is None else tau / (-math.log(r)) for r, tau in zip(radii, taus)]
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


def nonlacunarity_profile(seq: ReturnTimeSequence, thresholds=(10, 20, 50, 100)) -> NonlacunarityProfile:
    """Consecutive-ratio diagnostics for the visit-time sequence."""
    t = seq.forward.astype(float)
    if len(t) < 3:
        raise PreconditionError("need at least 3 forward visit times")
    if any(i0 < 1 for i0 in thresholds):
        raise ValueError("every threshold must be >= 1")
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
    for pts in _orbit_chunks(_walk_from(system, x), horizon - 1):
        count += int(gamma.membership_rows(pts).sum())
    return count / horizon
