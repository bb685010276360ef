"""Certificate pipeline: cover construction over block points, empirical
transition bounds from one long sampling orbit, recurrence-index selection,
periodic pseudo-orbit assembly and refinement, and verification of the
certified orbit against the weighted dynamical ball.

The produced certificate states that the refined periodic point z of period
p = (t_plus - t_minus) + N stays within theta * q(f^j x)^{-2} of the orbit of
x for every j in [-m, n], with the gap K = (t_plus - t_minus) + M_k - m - n
recorded so that p <= m + n + K by construction.  Every certificate cycles
k >= 1 such windows through connectors drawn from the same sampling record;
ns_certificate is the one-window cycle of gns_certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import repeat

import numpy as np

from .dynamics import Space, SystemSpec, orbit_array
from .errors import (
    ConfigError,
    GapInfeasibleError,
    IncompleteMixingError,
    InsufficientHorizonError,
    InvariantError,
    PreconditionError,
    ResolutionError,
)
from .recurrence import ReturnTimeSequence, SetSpec, VisitWalk
from .shadowing import Margins, assemble, newton_refine_periodic
from .walker import Orbit, Walker

_BIG = np.int64(2**62)

# events one transition-scan gather takes at a time, which bounds its
# temporaries; mixing mode joins the events of the first _PREFIX time steps
# against _BLOCK gap levels at once, and only the pairs they miss join all
_GATHER, _PREFIX, _BLOCK = 1 << 15, 1 << 14, 16

# the transition scan's incidences, by a name a trace can time apart from membership scans
_cover_events = SetSpec.incidences


# ---------------------------------------------------------------------------
# slow-varying weights


@dataclass(frozen=True)
class SlowVaryingFn:
    """Positive weight whose per-step change is tested against e^eta.

    Constant weights satisfy the bound for any eta; modulated weights are a
    sinusoid in the x-coordinate and are checked, not assumed."""

    kind: str  # "constant" | "modulated"
    c: float
    eta: float
    amplitude: float = 0.0
    frequency: int = 1

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("base value c must be positive")
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError("amplitude must lie in [0, 1)")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    @classmethod
    def constant(cls, c: float, eta: float) -> "SlowVaryingFn":
        return cls(kind="constant", c=c, eta=eta)

    @classmethod
    def modulated(cls, c: float, amplitude: float, frequency: int, eta: float) -> "SlowVaryingFn":
        return cls(kind="modulated", c=c, eta=eta, amplitude=amplitude, frequency=int(frequency))

    def value_rows(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(pts), self.c)
        return self.c * (1.0 + self.amplitude * np.sin(2.0 * math.pi * self.frequency * pts[:, 0]))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "c": self.c, "eta": self.eta}
        if self.kind == "modulated":
            out["amplitude"] = self.amplitude
            out["frequency"] = self.frequency
        return out


def _slow_varying(q: SlowVaryingFn, rows: np.ndarray):
    """Worst one-step ratio of q between consecutive rows, either way, and
    whether it stays within e^eta: (ok, worst)."""
    qv = q.value_rows(rows)
    worst = float(np.maximum(qv[1:] / qv[:-1], qv[:-1] / qv[1:]).max()) if len(qv) > 1 else 1.0
    return worst <= math.exp(q.eta) + 1e-12, worst


# ---------------------------------------------------------------------------
# cover over block points


def build_cover(system: SystemSpec, block_points, delta: float, max_centers: int = 256) -> SetSpec:
    """Greedy net over the classified block points, an (n, 2) coordinate
    array: centers are chosen so every block point lies within 0.49*delta
    of some center, which keeps the ball diameters strictly below delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = np.asarray(block_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValueError("block_points must be a non-empty (n, 2) coordinate array")
    # every block point is a candidate center; chosen holds the net so far
    candidates = SetSpec(pts, 0.49 * delta, system.space)
    r2 = candidates.radius * candidates.radius
    chosen = []
    for i, row in enumerate(candidates.centers):
        if chosen and (candidates._dist2(row[None, :], chosen) <= r2).any():
            continue
        chosen.append(i)
        if len(chosen) > max_centers:
            raise ResolutionError(
                f"cover needs more than max_centers={max_centers} balls at "
                f"delta={delta}; retry with a larger delta"
            )
    return SetSpec(candidates.centers[chosen], candidates.radius, system.space)


# ---------------------------------------------------------------------------
# transition bounds from one sampling orbit


@dataclass
class TransitionBounds:
    """Witnessed transition gaps between cover balls.

    X[i, j] is the least h in [T_floor, h_cap] at which the sampling orbit
    was seen in ball j at some time s and in ball i at time s + h.  In
    mixing mode X[i, j] is instead one past the largest unwitnessed gap, so
    every h in [X[i, j], h_cap] has a witness; _level_scan finds both.  M_k
    is the max of the X entries.  No per-gap table is kept: the bounds hold
    O(r^2 + E) for E cover events, the scan L * ceil(r / 64) bitmask words
    more for L orbit steps.  connector reads witnesses on demand from
    ball_times; the sampling orbit is kept so connector points can be read
    back out of the record.
    """

    X: np.ndarray  # (r, r) int64
    M_k: int
    mixing_mode: bool
    T_floor: int
    h_cap: int
    sampling_orbit: np.ndarray  # (L, 2)
    ball_times: list  # r int64 arrays, ascending

    def connector(self, dest: int, src: int, h: int | None = None):
        """Witnessed src -> dest transition of gap h as (h, t), t the earliest
        time with the orbit in ball src at t and in ball dest at t + h, or
        None.  h defaults to the minimal witnessed gap X[dest, src]; an
        exact h needs mixing-mode transitions."""
        if h is None:
            h = int(self.X[dest, src])
        elif not self.mixing_mode:
            raise GapInfeasibleError("exact-gap connectors require mixing_mode transitions")
        t_dest = self.ball_times[dest]
        if not (self.T_floor <= h <= self.h_cap) or not len(t_dest):
            return None
        arrive = self.ball_times[src] + h
        at = np.flatnonzero(t_dest.take(np.searchsorted(t_dest, arrive), mode="clip") == arrive)
        return (h, int(arrive[at[0]]) - h) if len(at) else None

    def to_json(self) -> dict:
        return {
            "M_k": self.M_k,
            "mixing_mode": self.mixing_mode,
            "T_floor": self.T_floor,
            "h_cap": self.h_cap,
            "r_count": int(self.X.shape[0]),
            "sampling_orbit_length": int(len(self.sampling_orbit)),
        }


def _join_sides(open_pairs: np.ndarray, n_events: np.ndarray):
    """Split the open (dest, src) pairs between the two join directions.

    Joining pair (i, j) from its source side touches every event of ball j,
    from its destination side every event of ball i.  Taking every pair from
    its source side is the plain join; taking each pair from its ball with
    fewer events keeps a pair that stays open (a ball the orbit all but
    misses) from walking every event at every level.  The cheaper of the two
    plans is used.  Returns (r, r) masks (by_src, by_dest)."""
    by_src = open_pairs & (n_events[None, :] <= n_events[:, None])
    by_dest = open_pairs & ~by_src
    cost_all = n_events[open_pairs.any(axis=0)].sum()
    cost_split = n_events[by_src.any(axis=0)].sum() + n_events[by_dest.any(axis=1)].sum()
    return (open_pairs, np.zeros_like(open_pairs)) if cost_all <= cost_split else (by_src, by_dest)


def _ball_words(times: np.ndarray, ball: np.ndarray, r: int, pad: int) -> np.ndarray:
    """The events as bitmasks over the time axis padded by pad rows each side:
    bit i % 64 of words[t + pad, i // 64] is set when ball i holds time t."""
    words = np.zeros((int(times.max()) + 1 + 2 * pad, -(-r // 64)), dtype="<u8")
    for lo in range(0, len(times), _GATHER):
        t, i = times[lo : lo + _GATHER], ball[lo : lo + _GATHER]  # unsigned i: the shift stays uint64
        np.bitwise_or.at(words.reshape(-1), (t + pad) * words.shape[1] + i // 64, np.uint64(1) << i % 64)
    return words


def _gap_hits(words, times, n_events, pairs, h, pad):
    """(r, r) bool: which of the (dest, src) pairs have a witness at gap h,
    each joined from the side _join_sides picks: the OR of the words at t + h
    over its source's times t, or at u - h over its destination's times u."""
    offset = np.cumsum(n_events) - n_events
    hit = np.zeros_like(pairs)
    for side, sign in zip(_join_sides(pairs, n_events), (1, -1)):
        balls = np.flatnonzero(side.any(axis=0 if sign > 0 else 1))
        masks = np.zeros((len(pairs), words.shape[1]), dtype=words.dtype)
        for part in np.split(balls, np.flatnonzero(np.diff(np.cumsum(n_events[balls]) // _GATHER)) + 1):
            count = n_events[part]
            begin = np.cumsum(count) - count
            at = np.repeat(offset[part] - begin, count) + np.arange(count.sum())
            masks[part] = np.bitwise_or.reduceat(words.take(times[at] + (pad + sign * h), axis=0), begin)
        bits = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")[:, : len(pairs)].view(bool)
        hit |= bits.T if sign > 0 else bits
    return hit


def _prefix_hits(words, times, ball, r, levels, pad):
    """Per gap level, the (dest, src) pairs hit from the events of the first
    _PREFIX time steps, joined against _BLOCK levels at a time."""
    t, balls = times[times < _PREFIX], ball[times < _PREFIX]
    start = np.flatnonzero(np.diff(balls, prepend=-1))
    for lo in range(0, len(levels), _BLOCK):
        block = levels[lo : lo + _BLOCK]
        masks = np.bitwise_or.reduceat(words.take(t + (pad + block)[:, None], axis=0), start, axis=1)
        hit = np.zeros((len(block), r, r), dtype=bool)
        bits = np.unpackbits(masks.view(np.uint8), axis=2, bitorder="little")[..., :r]
        hit[:, :, balls[start]] = bits.transpose(0, 2, 1)
        yield from hit


def _by_ball(et: np.ndarray, ei: np.ndarray, r: int):
    """The event times grouped by ball, ascending in each (a stable radix sort), and each ball's count."""
    return et[np.argsort(ei.astype(np.min_scalar_type(r)), kind="stable")], np.bincount(ei, minlength=r)


def _level_scan(times: np.ndarray, n_events: np.ndarray, T_floor: int, h_cap: int, mixing: bool):
    """Witnessed transition gaps X (r, r) by a gap-level join of the events,
    their times grouped by ball as _by_ball gives them.

    Level h asks which open pairs (i, j) have an event (t, j) followed by an
    event (t + h, i), by one OR of bitmask words per joined ball.  Min-gap
    mode walks h up from T_floor and closes a pair at its first hit, X = h.
    Mixing mode walks h down from h_cap, a block at a time from an event
    prefix first, and closes a pair at its first miss, X = h + 1 (_BIG for
    a miss at h_cap), so every gap in [X, h_cap] is witnessed; a pair hit at
    every level gets X = T_floor.  Pairs never witnessed get _BIG."""
    r = len(n_events)
    X = np.full((r, r), _BIG, dtype=np.int64)
    open_pairs = (n_events[:, None] > 0) & (n_events[None, :] > 0)
    if not open_pairs.any() or h_cap < T_floor:
        return X
    ball = np.repeat(np.arange(r, dtype=np.min_scalar_type(r)), n_events)
    words = _ball_words(times, ball, r, h_cap)  # the padding keeps t +- h inside
    levels = np.arange(h_cap, T_floor - 1, -1) if mixing else np.arange(T_floor, h_cap + 1)
    # a min-gap level misses most pairs, so a prefix would spare it no join
    prefix = _prefix_hits(words, times, ball, r, levels, h_cap) if mixing else repeat(np.zeros((r, r), bool))
    for h, hit in zip(levels.tolist(), prefix):
        if not open_pairs.any():
            break
        check = open_pairs & ~hit
        if check.any():
            hit = hit | _gap_hits(words, times, n_events, check, h, h_cap)
        closed = open_pairs & (~hit if mixing else hit)
        X[closed] = (h + 1 if h < h_cap else _BIG) if mixing else h
        open_pairs &= ~closed
    if mixing:
        X[open_pairs] = T_floor
    return X


def estimate_transitions(
    system: SystemSpec,
    cover: SetSpec,
    orbit: np.ndarray,
    mixing_mode: bool = False,
    T_floor: int = 1,
    h_cap: int = 512,
) -> TransitionBounds:
    """Record witnessed ball-to-ball transition gaps along one long sampling
    orbit, an (L, 2) array; its cover events are grouped by ball once, for
    the scan and for ball_times.  Raises IncompleteMixingError (listing the
    missing pairs) if some pair is never witnessed within h_cap."""
    if T_floor < 1:
        raise ValueError("T_floor must be >= 1")
    times, n_events = _by_ball(*_cover_events(cover, orbit), cover.r_count)
    X = _level_scan(times, n_events, T_floor, h_cap, mixing_mode)
    missing = X == _BIG
    ball_times = np.split(times, np.cumsum(n_events)[:-1])
    if missing.any():
        pairs = [tuple(int(v) for v in p) for p in np.argwhere(missing)[:20]]
        raise IncompleteMixingError(
            f"{int(missing.sum())} cover pair(s) never witnessed within h_cap="
            f"{h_cap} over {len(orbit)} steps; first missing (i, j): {pairs}",
            missing_pairs=pairs,
        )
    return TransitionBounds(
        X=X,
        M_k=int(X.max()),
        mixing_mode=mixing_mode,
        T_floor=T_floor,
        h_cap=h_cap,
        sampling_orbit=orbit,
        ball_times=ball_times,
    )


# ---------------------------------------------------------------------------
# cover context: everything a certificate run needs


@dataclass
class CoverContext:
    system: SystemSpec
    cover: SetSpec
    delta: float  # requested ball diameter scale; cover.radius < delta / 2
    bounds: TransitionBounds
    epsilon: float  # block-defect rate used for index selection
    block_params: object = None
    block_points: list = None
    block_fraction: float = 1.0  # classified fraction of the sampled points

    def to_json(self) -> dict:
        out = {
            "cover": {"r_count": self.cover.r_count, "radius": self.cover.radius, "delta": self.delta},
            "transitions": self.bounds.to_json(),
            "epsilon": self.epsilon,
            "block_fraction": self.block_fraction,
        }
        if self.block_params is not None:
            out["block_params"] = asdict(self.block_params)
        return out


def build_cover_context(
    system: SystemSpec,
    theta: float,
    seed: int = 0,
    block_samples: int = 200,
    delta: float | None = None,
    max_centers: int = 256,
    sampling_orbit_length: int = 400_000,
    T_floor: int = 1,
    mixing_mode: bool = False,
    h_cap: int = 512,
    epsilon_ratio: float = 0.1,
    block_window=(200, 200, 50),
    spectrum_N: int = 100_000,
) -> CoverContext:
    """Assemble a certificate context: measure the spectrum, classify block
    points, net them with balls of diameter < delta (default 2*theta), and
    estimate transition bounds on one sampling orbit."""
    from .lyapunov import PesinBlockParams, block_sample, lyapunov_spectrum, spectrum_orbit

    _require_torus(system)
    # the spectrum's orbit and the sampling orbit depend on the seeds alone,
    # so one walker walks both, in the order they are read: the spectrum is
    # measured here while its rows arrive, then the block points and cover
    # while the sampling orbit is walked, from 100 steps past its seed
    x0 = np.random.default_rng(seed).random(2)
    kept = Orbit(system, *np.random.default_rng(seed + 2).random(2), 100, sampling_orbit_length)
    with Walker(spectrum_orbit(system, x0, spectrum_N), kept) as w:
        spectrum = lyapunov_spectrum(system, x0, N=spectrum_N, qr_period=10, walker=w)
        params = PesinBlockParams.from_spectrum(spectrum, epsilon_ratio=epsilon_ratio, window=block_window)
        samples = block_sample(system, params, block_samples, seed=seed + 1)
        classified = [(p, k) for p, k in samples if k is not None]
        if not classified:
            raise PreconditionError("no block points found; cannot build a cover")
        if delta is None:
            delta = 2.0 * theta
        cover = build_cover(system, np.array([p for p, _ in classified]), delta, max_centers=max_centers)
        orbit = w.array()
    bounds = estimate_transitions(system, cover, orbit, mixing_mode=mixing_mode, T_floor=T_floor, h_cap=h_cap)
    return CoverContext(
        system=system,
        cover=cover,
        delta=delta,
        bounds=bounds,
        epsilon=params.epsilon,
        block_params=params,
        block_points=classified,
        block_fraction=len(classified) / len(samples),
    )


def _require_torus(system: SystemSpec):
    # the context seeds block points and the sampling orbit in [0, 1)^2, and
    # certificate windows need backward orbits, which leave a plane map's basin
    if system.space is not Space.TORUS2:
        raise ConfigError(
            f"cover contexts need a torus map; {system.kind.value} acts on the {system.space.value}",
            field="system.kind",
        )


def fixed_point_context(system: SystemSpec, fp: np.ndarray, epsilon: float) -> CoverContext:
    """Degenerate context for a fixed point: one ball of radius 0.02, a
    2000-point sampling orbit pinned at the fixed point, every transition
    gap witnessed trivially."""
    _require_torus(system)
    cover = SetSpec.ball(fp, 0.02, system.space)
    orbit = orbit_array(system, *fp.tolist(), n_fwd=1999)
    bounds = estimate_transitions(system, cover, orbit, mixing_mode=True, T_floor=1, h_cap=64)
    return CoverContext(system=system, cover=cover, delta=2 * 0.02 / 0.98, bounds=bounds, epsilon=epsilon)


# ---------------------------------------------------------------------------
# recurrence-index selection


def select_indices(seq: ReturnTimeSequence, m: int, n: int, eta: float, epsilon: float):
    """Indices (l1, s1, l2, s2) with

        t_{-l1} < -m <= t_{-l1+1},        t_{l2} > n >= t_{l2-1},
        t_{-l1-s1} <= (1 + 2 eta/epsilon) t_{-l1} < t_{-l1-s1+1},
        t_{l2+s2} >= (1 + 2 eta/epsilon) t_{l2} > t_{l2+s2-1}.
    """
    factor = _stretch(eta, epsilon)
    l2, s2 = _select_side(seq.forward, n, factor, "forward")
    # backward times as ascending positive magnitudes
    l1, s1 = _select_side(-seq.backward, m, factor, "backward")
    return l1, s1, l2, s2


def _stretch(eta, epsilon):
    """The stretch factor 1 + 2 eta/epsilon of the second visit on each side."""
    if not (0 < eta <= epsilon / 2):
        raise PreconditionError("need 0 < eta <= epsilon/2")
    return 1.0 + 2.0 * eta / epsilon


def _select_side(times, bound, factor, side):
    """(l, s) on one side, times ascending: times[l-1] is the first past
    bound, and times[l+s-1] the first at or past factor * times[l-1]."""
    name, sign = ("n", "") if side == "forward" else ("m", "-")
    idx = int(np.searchsorted(times, bound, side="right"))
    if idx >= len(times):
        raise InsufficientHorizonError(
            f"{side} sequence exhausted before exceeding {name}={bound}",
            required_horizon=int(factor * (bound + 1) * 2) + 64,
        )
    target = factor * float(times[idx])
    idx2 = int(np.searchsorted(times, target, side="left"))
    if idx2 >= len(times):
        raise InsufficientHorizonError(
            f"{side} sequence exhausted before reaching {sign}{target:.0f}",
            required_horizon=int(target * 1.5) + 64,
        )
    return idx + 1, idx2 - idx


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Window:
    """One orbit window [-m, n] of a certificate: the orbit of x stored over
    [t_minus, t_plus], starting in cover ball dest and ending in ball src.

    _close_cycle adds the window's gap K, the offset of its j = 0 point in
    the cycle, and its Margins: the distance of the periodic orbit from the
    orbit of x, and the allowance theta * q^-2, at j = -m..n."""

    x: np.ndarray
    m: int
    n: int
    indices: tuple  # (l1, s1, l2, s2)
    t_minus: int
    t_plus: int
    xs: np.ndarray  # row i is f^(t_minus + i)(x)
    dest: int
    src: int
    K: int = None
    offset: int = None
    margins: Margins = None

    @property
    def in_ball(self) -> bool:
        return self.margins.held

    @property
    def first_violated_index(self) -> int | None:
        return self.margins.first_failed

    @property
    def ratio(self) -> float:
        return self.K / (self.m + self.n)

    def to_json(self, include_margins=False) -> dict:
        out = {
            "x": self.x.tolist(),
            "m": self.m,
            "n": self.n,
            "t_minus": self.t_minus,
            "t_plus": self.t_plus,
            "K": self.K,
            "offset": self.offset,
            "in_ball": self.in_ball,
            "first_violated_index": self.first_violated_index,
        }
        if include_margins:
            out["margins"] = self.margins.to_json()
        return out


@dataclass
class Certificate:
    """One periodic orbit threaded through k >= 1 windows (an ns certificate
    is the k = 1 cycle), with the context it was checked in: theta, the
    weight q (whose eta is the certificate's eta), M_k and the pseudo-orbit
    junction gap delta.  solution_points is the refined cycle with z at row 0."""

    segments: list  # of Window
    gaps: list  # p_i
    connectors: list  # (N_i, y row)
    offsets: list
    period: int
    gap_budget: int  # sum of K_i
    sum_gaps: int
    pair_bound_ok: bool  # p_i <= K_i + K_{i+1} for all i
    residual: float
    newton_iters: int
    bookkeeping_ok: bool
    target_total_gap: int | None
    theta: float
    q: SlowVaryingFn
    M_k: int
    delta: float  # pseudo-orbit junction gap
    solution_points: np.ndarray  # (period, 2)

    @property
    def z(self) -> np.ndarray:
        return self.solution_points[0]

    @property
    def in_ball(self) -> bool:
        return all(s.in_ball for s in self.segments)

    @property
    def below_resolution(self) -> bool:
        allowance = min(float(s.margins.allowance.min()) for s in self.segments)
        return allowance < 10.0 * max(self.residual, 5e-16)

    def to_json(self, include_margins=False) -> dict:
        """The gns report layout for k >= 2 windows, the ns layout (the
        window's keys but its offset, then the cycle's) for k = 1."""
        if len(self.segments) > 1:
            return {
                "segments": [s.to_json(include_margins) for s in self.segments],
                "gaps": self.gaps,
                "connectors": [{"N": N, "y": y.tolist()} for N, y in self.connectors],
                "offsets": self.offsets,
                "z": self.z.tolist(),
                "period": self.period,
                "gap_budget": self.gap_budget,
                "sum_gaps": self.sum_gaps,
                "pair_bound_ok": self.pair_bound_ok,
                "residual": self.residual,
                "newton_iters": self.newton_iters,
                "bookkeeping_ok": self.bookkeeping_ok,
                "target_total_gap": self.target_total_gap,
                "all_in_ball": self.in_ball,
            }
        w = self.segments[0]
        N, y = self.connectors[0]
        out = w.to_json(include_margins)
        del out["offset"]
        out.update(
            theta=self.theta,
            eta=self.q.eta,
            q=self.q.to_json(),
            indices=dict(zip(("l1", "s1", "l2", "s2"), w.indices)),
            connector={"y": y.tolist(), "N": N},
            sets={"dest": w.dest, "src": w.src},
            M_k=self.M_k,
            period=self.period,
            z=self.z.tolist(),
            ratio=w.ratio,
            residual=self.residual,
            newton_iters=self.newton_iters,
            below_resolution=self.below_resolution,
            pseudo_orbit_delta=self.delta,
        )
        return out


def _certificate_window(system, x, m, n, eta, q, ctx, max_horizon=2_000_000) -> Window:
    """Select the recurrence indices of x for the window [-m, n], store its
    orbit over [t_minus, t_plus], and check that q is eta-slow-varying along
    the stored orbit on [-m-1, n+1].

    Two visits decide each side: the first past its bound b, and the first
    at or past factor = 1 + 2 eta/epsilon times that one, which lies just
    past factor * (b + 1) when visits are frequent.  So both sides are
    walked H = int(factor * (max(m, n) + 1)) + 64 steps.  If a side runs
    out of visits, H grows to max(2 H, required_horizon + 128) and that
    side's walk goes on from where it stopped; a side already decided
    walks no further.  Every H walks the same unbroken orbit, so the
    result does not depend on H.  No walk passes max_horizon: a window
    that needs more raises the InsufficientHorizonError, with its
    required_horizon."""
    if abs(q.eta - eta) > 1e-12:
        raise ValueError("q.eta must equal the certificate eta")
    if m < 0 or n < 0:
        raise PreconditionError(f"window lengths must be nonnegative, got m={m}, n={n}")
    if not ctx.cover.membership(x):
        raise PreconditionError("certificate base point must lie in the cover support")
    factor = _stretch(eta, ctx.epsilon)
    H = min(max_horizon, int(factor * (max(m, n) + 1)) + 64)
    ahead, behind = (VisitWalk(system, x, ctx.cover, forward) for forward in (True, False))
    picked = {}
    while True:
        failed = []
        for side, visits, bound in (("forward", ahead, n), ("backward", behind, m)):
            if side not in picked:
                try:
                    picked[side] = _select_side(visits.extend(H, H).times, bound, factor, side)
                except InsufficientHorizonError as err:
                    failed.append(err)
        if not failed:
            break
        if H >= max_horizon:
            raise failed[0]
        H = min(max_horizon, max(2 * H, (failed[0].required_horizon or 0) + 128))
    (l2, s2), (l1, s1) = picked["forward"], picked["backward"]
    t_minus, t_plus = -behind.times[l1 + s1 - 1], ahead.times[l2 + s2 - 1]
    xs = np.concatenate((behind.rows[:-t_minus][::-1], x[None], ahead.rows[:t_plus]))
    lo = max(0, (-m - 1) - t_minus)
    hi = min(len(xs) - 1, (n + 1) - t_minus)
    ok, worst = _slow_varying(q, xs[lo : hi + 1])
    if not ok:
        raise PreconditionError(
            f"q is not eta-slow-varying along the orbit (worst ratio {worst:.6f} "
            f"> e^eta = {math.exp(eta):.6f})"
        )
    return Window(x, m, n, (l1, s1, l2, s2), t_minus, t_plus, xs, ctx.cover.locate(xs[0]), ctx.cover.locate(xs[-1]))


def _close_cycle(system, windows, theta, q, ctx, newton_tol, Ns=None, target_total_gap=None):
    """Cycle the windows through connectors from the sampling record, refine
    the periodic pseudo-orbit, and check each window's margins against
    theta * q^-2 on the stored sequences.

    Window i is followed by a connector from its end ball to the start ball
    of window i + 1, cyclically.  With Ns, connector i has exactly Ns[i]
    steps and must be witnessed (mixing-mode transitions); otherwise each is
    the minimal witnessed connector and sum(p_i) <= sum(K_i), which for one
    window is p <= m + n + K."""
    bounds = ctx.bounds
    nxt = windows[1:] + windows[:1]
    arcs, conns = [], []
    for i, (w, v) in enumerate(zip(windows, nxt)):
        dest, src = v.dest, w.src
        hit = bounds.connector(dest, src, None if Ns is None else Ns[i])
        if hit is None:
            raise GapInfeasibleError(f"no witnessed transition of exact gap {Ns[i]} for pair ({dest}, {src})")
        N, t_w = hit
        y_pts = bounds.sampling_orbit[t_w : t_w + N + 1].copy()
        arcs += [w.xs, y_pts]
        conns.append((N, y_pts[0]))
    po = assemble(arcs, system)
    sol = newton_refine_periodic(system, po, tol=newton_tol)
    p = sol.period

    # p_i runs from n_i in window i to -m_{i+1} in the next window
    gaps = [int((w.t_plus - w.n) + N - v.t_minus - v.m) for w, v, (N, _) in zip(windows, nxt, conns)]
    K_list = [int((w.t_plus - w.t_minus) + bounds.M_k - w.m - w.n) for w in windows]
    if p != sum(w.m + w.n for w in windows) + sum(gaps):
        raise InvariantError("period bookkeeping failed")
    if Ns is None and sum(gaps) > sum(K_list):
        raise InvariantError("gap accounting violated: sum(p_i) > sum(K_i)")

    # assembly position of each window's j = 0 point, and the stated offsets
    pos, c = [], 0
    for w, (N, _) in zip(windows, conns):
        pos.append(c - w.t_minus)
        c += (w.t_plus - w.t_minus) + N
    offsets = [0]
    for w, v, g in zip(windows, windows[1:], gaps):
        offsets.append(int(offsets[-1] + w.n + g + v.m))
    bookkeeping_ok = all((at - pos[0]) % p == off % p for at, off in zip(pos, offsets)) and sol.residual <= 1e-9

    segments = []
    for w, start, K, off in zip(windows, pos, K_list, offsets):
        j = np.arange(-w.m, w.n + 1)
        xrows = w.xs[j - w.t_minus]
        margins = Margins.compare(system.space, sol.points, start, j, xrows, theta * q.value_rows(xrows) ** (-2.0))
        segments.append(replace(w, K=K, offset=off, margins=margins))
    return Certificate(
        segments=segments,
        gaps=gaps,
        connectors=conns,
        offsets=offsets,
        period=p,
        gap_budget=sum(K_list),
        sum_gaps=sum(gaps),
        pair_bound_ok=all(g <= K + K_next for g, K, K_next in zip(gaps, K_list, K_list[1:] + K_list[:1])),
        residual=sol.residual,
        newton_iters=sol.newton_iters,
        bookkeeping_ok=bookkeeping_ok,
        target_total_gap=target_total_gap,
        theta=theta,
        q=q,
        M_k=bounds.M_k,
        delta=po.delta,
        solution_points=np.roll(sol.points, -pos[0], axis=0),
    )


def ns_certificate(
    system: SystemSpec,
    x: np.ndarray,
    m: int,
    n: int,
    theta: float,
    eta: float,
    q: SlowVaryingFn,
    ctx: CoverContext,
    connector_gap: int | None = None,
    newton_tol: float = 1e-11,
) -> Certificate:
    """Produce one certificate for the orbit window [-m, n] of x: the
    one-window cycle of gns_certificate.

    connector_gap forces an exact connector length (mixing-mode transitions
    required), which shifts the period to (t_plus - t_minus) + connector_gap;
    otherwise the minimal witnessed connector is used and p <= m + n + K.
    A certificate with in_ball=False is a valid result, not an error.
    """
    if m == n == 0:
        raise PreconditionError("the window [-m, n] needs m + n > 0 (its ratio is K / (m + n))")
    w = _certificate_window(system, x, m, n, eta, q, ctx)
    Ns = None if connector_gap is None else [int(connector_gap)]
    return _close_cycle(system, [w], theta, q, ctx, newton_tol, Ns)


def _spread_gaps(windows, bounds, target):
    """Connector lengths with gap total sum(p_i) = target: start from the
    minimal connectors and add single steps round-robin, staying inside the
    certified contiguous witness ranges [X_pair, h_cap]."""
    if not bounds.mixing_mode:
        raise GapInfeasibleError("prescribed gap totals require mixing-mode transitions")
    k = len(windows)
    pairs = [(v.dest, w.src) for w, v in zip(windows, windows[1:] + windows[:1])]
    Ns = [bounds.connector(d, s)[0] for d, s in pairs]
    # sum(p_i) at the minimal connectors; each step of a connector adds one
    base = sum(w.t_plus - w.t_minus - w.m - w.n for w in windows) + sum(Ns)
    budget = int(target) - base
    if budget < 0:
        raise GapInfeasibleError(f"target gap total {target} below the minimum {base}")
    stalled = i = 0
    while budget > 0:
        if Ns[i] < bounds.h_cap:
            Ns[i] += 1
            budget -= 1
            stalled = 0
        else:
            stalled += 1
            if stalled >= k:
                raise GapInfeasibleError(f"cannot absorb gap surplus {budget}: witness ranges exhausted")
        i = (i + 1) % k
    return Ns


def gns_certificate(
    system: SystemSpec,
    segment_list,
    theta: float,
    eta: float,
    q: SlowVaryingFn,
    ctx: CoverContext,
    target_total_gap: int | None = None,
    newton_tol: float = 1e-11,
) -> Certificate:
    """Multi-segment certificate: cycle the extended windows of the given
    (x_i, m_i, n_i) segments through connectors from the sampling record.

    With target_total_gap set (mixing-mode transitions required) the
    connectors are re-chosen so the gap total sum(p_i) hits the target
    exactly; otherwise minimal connectors are used and sum(p_i) <= sum(K_i).
    """
    if len(segment_list) < 2:
        raise PreconditionError("GNS certificates need at least 2 segments")
    windows = [_certificate_window(system, x_i, m_i, n_i, eta, q, ctx) for x_i, m_i, n_i in segment_list]
    Ns = None if target_total_gap is None else _spread_gaps(windows, ctx.bounds, target_total_gap)
    target = None if target_total_gap is None else int(target_total_gap)
    cert = _close_cycle(system, windows, theta, q, ctx, newton_tol, Ns, target)
    if target is not None and cert.sum_gaps != target:
        raise InvariantError("gap accounting violated: sum(p_i) != target")
    return cert


@dataclass
class SublinearityRow:
    eta: float
    m: int
    n: int
    K: int
    ratio: float
    in_ball: bool


@dataclass
class SublinearityTable:
    rows: list
    summaries: dict  # eta -> max ratio over the largest half of the sizes

    def to_json(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "summaries": {f"{k:.10g}": v for k, v in self.summaries.items()},
        }


def sublinearity_scan(
    system: SystemSpec,
    x: np.ndarray,
    theta: float,
    eta_list,
    mn_list,
    q: SlowVaryingFn,
    ctx: CoverContext,
    newton_tol: float = 1e-11,
) -> SublinearityTable:
    """One certificate per (eta, m, n); the per-eta summary is the max gap
    ratio K/(m+n) over the largest half of the size list."""
    sizes = sorted(mn_list, key=lambda mn: mn[0] + mn[1])
    rows, summaries = [], {}
    for eta in (float(e) for e in eta_list):
        q_eta = replace(q, eta=eta)
        eta_rows = []
        for m, n in sizes:
            w = ns_certificate(system, x, m, n, theta, eta, q_eta, ctx, newton_tol=newton_tol).segments[0]
            eta_rows.append(SublinearityRow(eta=eta, m=m, n=n, K=w.K, ratio=w.ratio, in_ball=w.in_ball))
        summaries[eta] = max(r.ratio for r in eta_rows[len(sizes) // 2 :])
        rows += eta_rows
    rows.sort(key=lambda r: (r.eta, r.m + r.n, r.m))
    return SublinearityTable(rows=rows, summaries=summaries)
