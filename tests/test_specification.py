import contextlib
import gc
import hashlib
import math
import mmap
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuspec.dynamics import Point2, Space, SystemSpec, orbit_array, walk
from nuspec.errors import (
    ConfigError,
    DegeneracyError,
    GapInfeasibleError,
    IncompleteMixingError,
    InsufficientHorizonError,
    InvariantError,
    NonFiniteError,
    PreconditionError,
    ResolutionError,
)
from nuspec.recurrence import ReturnTimeSequence, SetSpec
from nuspec.shadowing import Margins, PeriodicOrbitSolution, assemble, shadowing_profile
from nuspec import recurrence, specification
from nuspec import walker as walker_module
from nuspec.lyapunov import lyapunov_spectrum, spectrum_orbit
from nuspec.specification import (
    SlowVaryingFn,
    build_cover,
    build_cover_context,
    estimate_transitions,
    fixed_point_context,
    gns_certificate,
    ns_certificate,
    select_indices,
    sublinearity_scan,
)


def torus(x, y):
    return Point2(x, y, Space.TORUS2)


def block_point(ctx, i):
    return ctx.block_points[i % len(ctx.block_points)][0]


def const_q(ctx, ratio=0.1):
    return SlowVaryingFn.constant(1.0, ratio * ctx.epsilon)


def seeded_orbit(system, length, seed):
    # a sampling orbit as a cover context starts one: a seeded point, then a
    # 100-step warm-up
    start = orbit_array(system, *np.random.default_rng(seed).random(2), n_fwd=100)[-1]
    return orbit_array(system, *start, n_fwd=length - 1)


# ---------------------------------------------------------------------------
# cover


def test_cover_single_point(cat):
    cover = build_cover(cat, np.array([[0.4, 0.6]]), delta=0.1)
    assert cover.r_count == 1


def test_cover_collapses_small_cluster(cat):
    pts = np.array([[0.4, 0.6], [0.405, 0.603], [0.398, 0.597]])
    cover = build_cover(cat, pts, delta=0.1)
    assert cover.r_count == 1


def test_cover_size_and_coverage(cat_ctx):
    cover = cat_ctx.cover
    assert 40 <= cover.r_count <= 130
    # every block point within the net radius of some center
    pts = np.array([p for p, _ in cat_ctx.block_points])
    d = Space.TORUS2.dist(pts[:, None, :], cover.centers[None, :, :]).min(axis=1)
    assert (d <= cover.radius + 1e-12).all()


def test_cover_resolution_error(cat):
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    with pytest.raises(ResolutionError):
        build_cover(cat, pts, delta=0.02, max_centers=3)


def _assert_cover_tests_agree(center, radius, point):
    cover = SetSpec(np.array([center], dtype=float), radius)
    pt = np.array([point], dtype=float)
    inside = bool(cover.membership_rows(pt)[0])
    try:
        located = cover.locate(pt[0]) == 0
    except ValueError:
        located = False
    et, _ = specification._cover_events(cover, pt)
    assert located == inside
    assert (len(et) == 1) == inside


def test_cover_boundary_point_agrees():
    # a few 1e-17 off the circle: measuring point - center in one place and
    # center - point in another once put it inside and outside the same ball
    _assert_cover_tests_agree((0.3, 0.7), 0.049, (0.2633230746226878, 0.6675068754216054))


@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1e-3, 0.2),
    st.floats(0.0, 2 * math.pi),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
@settings(max_examples=300, deadline=None)
def test_cover_tests_agree_near_boundary(cx, cy, radius, angle, ulps_x, ulps_y):
    # points within a few ulps of the circle, wrapped onto the torus
    p = [cx + radius * math.cos(angle), cy + radius * math.sin(angle)]
    for i, k in enumerate((ulps_x, ulps_y)):
        for _ in range(abs(k)):
            p[i] = math.nextafter(p[i], math.copysign(math.inf, k))
    _assert_cover_tests_agree((cx, cy), radius, (p[0] % 1.0, p[1] % 1.0))


_unit = st.floats(0.0, 1.0, exclude_max=True)


@given(
    centers=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=8),
    radius=st.floats(1e-3, 0.5, exclude_max=True),
    free=st.lists(st.tuples(_unit, _unit), max_size=30),
    edges=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=20),
    near=st.lists(
        st.tuples(st.integers(0, 7), st.floats(0.0, 2 * math.pi), st.integers(-3, 3), st.integers(-3, 3)),
        max_size=30,
    ),
    chunk=st.sampled_from([1, 7, recurrence._EVENT_CHUNK]),
)
@settings(max_examples=200, deadline=None)
def test_cover_events_match_all_pairs_oracle(centers, radius, free, edges, near, chunk):
    # random points, points on grid-cell edges, and points within a few ulps
    # of a circle; radii near 1/2 make the cells of one ball wrap the grid
    cover = SetSpec(np.array(centers), radius, Space.TORUS2)
    g = max(1, int(4.0 / max(radius, 4.0 / 256)))  # the grid SetSpec._grid uses
    pts = list(free) + [((i % g) / g, (j % g) / g) for i, j in edges]
    for c, angle, ux, uy in near:
        cx, cy = centers[c % len(centers)]
        p = [cx + radius * math.cos(angle), cy + radius * math.sin(angle)]
        for i, k in enumerate((ux, uy)):
            for _ in range(abs(k)):
                p[i] = math.nextafter(p[i], math.copysign(math.inf, k))
        pts.append((p[0] % 1.0, p[1] % 1.0))
    orbit = np.array(pts, dtype=float).reshape(-1, 2)
    with mock.patch.object(recurrence, "_EVENT_CHUNK", chunk):
        et, ei = specification._cover_events(cover, orbit)
    want_t, want_i = np.nonzero(cover._dist2(orbit) <= radius * radius)
    assert np.array_equal(et, want_t) and np.array_equal(ei, want_i)
    # strictly ascending in (t, ball): sorted, no duplicates
    key = et * len(centers) + ei
    assert np.all(np.diff(key) > 0)


_dyadic = st.integers(-2048, 2048).map(lambda k: k / 1024)


@given(
    space=st.sampled_from(list(Space)),
    base=st.sampled_from([0.0, 2.0**16, -(2.0**16) - 1.0]),
    centers=st.lists(st.tuples(_dyadic, _dyadic), min_size=1, max_size=6),
    j=st.integers(1, 9),
    on_circle=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])), max_size=12
    ),
    free=st.lists(st.tuples(_dyadic, _dyadic), max_size=12),
    far=st.lists(st.tuples(st.sampled_from([2.0**16, -(2.0**16), 2.0**17 + 0.25, -3.0 * 2**20]), _dyadic), max_size=6),
    chunk=st.sampled_from([1, 7, recurrence._EVENT_CHUNK]),
)
@settings(max_examples=200, deadline=None)
def test_incidences_match_brute_force(space, base, centers, j, on_circle, free, far, chunk):
    # dyadic centers and radii 2^-j put the points on_circle exactly at the
    # radius (dx * dx + dy * dy == r * r); rows with a coordinate at or past
    # 2^16, and a base shift that puts every center there, take all balls
    radius = 2.0**-j
    c = np.array(centers) + base
    pts = [(cx + dx * radius, cy + dy * radius) for (cx, cy), (dx, dy) in ((c[i % len(c)], d) for i, d in on_circle)]
    pts += [(a + base, b + base) for a, b in free] + [p for a, b in far for p in ((a, b), (b, a))]
    orbit = np.array(pts, dtype=float).reshape(-1, 2)
    cover = SetSpec(c, radius, space)
    with mock.patch.object(recurrence, "_EVENT_CHUNK", chunk):
        et, ei = cover.incidences(orbit)
    want_t, want_i = np.nonzero(cover._dist2(orbit) <= radius * radius)
    assert np.array_equal(et, want_t) and np.array_equal(ei, want_i)


# ---------------------------------------------------------------------------
# transitions


def test_transitions_fixed_point_self_gap(cat):
    orbit = orbit_array(cat, 0.0, 0.0, n_fwd=2999)
    for t_floor in (1, 5):
        cover = build_cover(cat, np.zeros((1, 2)), delta=0.05)
        bounds = estimate_transitions(cat, cover, orbit, mixing_mode=False, T_floor=t_floor)
        assert bounds.X[0, 0] == max(1, t_floor)
        assert bounds.M_k == max(1, t_floor)


def test_mixing_transitions_past_128_balls(cat):
    # mixing mode keeps no (r, r, h) table, so the ball count is not capped:
    # 130 balls around the fixed point all hold its orbit at every step
    rng = np.random.default_rng(7)
    cover = SetSpec(rng.uniform(-0.01, 0.01, (130, 2)) % 1.0, 0.05)
    for t_floor in (1, 3):
        bounds = estimate_transitions(cat, cover, orbit_array(cat, 0.0, 0.0, n_fwd=199), mixing_mode=True, T_floor=t_floor, h_cap=32)
        assert (bounds.X == t_floor).all()


def test_transitions_two_balls(cat):
    centers = np.array([[0.2, 0.3], [0.7, 0.8]])
    cover = build_cover(cat, centers, delta=0.2)
    assert cover.r_count == 2
    bounds = estimate_transitions(cat, cover, seeded_orbit(cat, 100_000, seed=4))
    assert (bounds.X < 2**62).all()
    assert bounds.M_k <= 200
    # Monte-Carlo cross-check of the per-step pair-hit rate mu(U_i) mu(U_j):
    # witnessed transitions at a given gap h should occur at roughly that
    # rate once past the mixing time (loose factor-four bracket)
    orbit = bounds.sampling_orbit
    gamma0 = SetSpec(centers[:1], cover.radius)
    gamma1 = SetSpec(centers[1:], cover.radius)
    in0 = gamma0.membership_rows(orbit)
    in1 = gamma1.membership_rows(orbit)
    h = 25
    rate = float((in0[:-h] & in1[h:]).mean())
    expected = in0.mean() * in1.mean()
    assert expected / 4 <= rate <= expected * 4


def test_transitions_mixing_coverage(mix_ctx):
    b = mix_ctx.bounds
    assert b.mixing_mode
    # ball-by-time visit incidence; hits[i, j] counts the times the orbit is
    # in ball j and, h steps later, in ball i
    visits = np.zeros((len(b.ball_times), len(b.sampling_orbit)), dtype=np.float32)
    for j, ts in enumerate(b.ball_times):
        visits[j, ts] = 1.0
    # every pair is witnessed at every gap from its own X up to 50 past M_k,
    # and missed at X - 1 unless X is the floor
    top = min(b.M_k + 50, b.h_cap)
    for h in range(b.T_floor, top + 1):
        hit = visits[:, h:] @ visits[:, :-h].T > 0
        assert hit[b.X <= h].all(), h
        assert not hit[b.X == h + 1].any(), h
    # the connector query agrees at each pair's X
    for (i, j), X in np.ndenumerate(b.X):
        assert b.connector(i, j, int(X)) is not None


def test_transitions_incomplete_mixing(cat):
    covers = np.array([[0.1, 0.1], [0.6, 0.6]])
    cover = build_cover(cat, covers, delta=0.04)
    with pytest.raises(IncompleteMixingError) as exc:
        estimate_transitions(cat, cover, seeded_orbit(cat, 800, seed=2))
    assert len(exc.value.missing_pairs) >= 1


def _gap_oracle(events, T_floor, h_cap):
    """O(E^2) reference: the earliest t of every (dest, src, h) over all event
    pairs (t, src), (t + h, dest) with T_floor <= h <= h_cap."""
    earliest = {}
    for t, j in events:
        for u, i in events:
            if T_floor <= u - t <= h_cap:
                key = (i, j, u - t)
                earliest[key] = min(earliest.get(key, t), t)
    return earliest


# scan constants to patch: a prefix of one time step or fewer than the
# orbit's (pairs it misses fall back to the join over every event), blocks
# that end inside the level range, and gathers that split a ball's events
_SCAN_SIZES = {
    "_PREFIX": st.sampled_from([1, 2, 7, 40, specification._PREFIX]),
    "_BLOCK": st.sampled_from([1, 3, specification._BLOCK]),
    "_GATHER": st.sampled_from([1, 3, specification._GATHER]),
}


@settings(max_examples=150, deadline=None)
@given(
    visits=st.lists(st.sets(st.integers(0, 50), max_size=25), min_size=1, max_size=4),
    T_floor=st.integers(1, 4),
    h_span=st.integers(0, 30),
    sizes=st.fixed_dictionaries(_SCAN_SIZES),
)
def test_level_scan_matches_pair_oracle(visits, T_floor, h_span, sizes):
    # per-ball visit sets of different sizes: ties at equal h, balls never
    # visited, and rare balls that make the join plan per pair
    r = len(visits)
    events = sorted((t, j) for j, ts in enumerate(visits) for t in ts)
    et = np.array([t for t, _ in events], dtype=np.int64)
    ei = np.array([j for _, j in events], dtype=np.int64)
    h_cap = T_floor + h_span
    earliest = _gap_oracle(events, T_floor, h_cap)
    # min-gap: the least witnessed h of each pair; mixing: the lowest h0 with
    # every gap in [h0, h_cap] witnessed; _BIG where none
    X_ref = {mixing: np.full((r, r), 2**62, dtype=np.int64) for mixing in (False, True)}
    for i in range(r):
        for j in range(r):
            gaps = [h for h in range(T_floor, h_cap + 1) if (i, j, h) in earliest]
            if gaps:
                X_ref[False][i, j] = gaps[0]
            h0 = h_cap + 1
            while h0 > T_floor and (i, j, h0 - 1) in earliest:
                h0 -= 1
            if h0 <= h_cap:
                X_ref[True][i, j] = h0
    ball_times = [np.array(sorted(ts), dtype=np.int64) for ts in visits]

    def witness(i, j, h):
        return (h, earliest[(i, j, h)]) if (i, j, h) in earliest else None

    for mixing in (False, True):
        with mock.patch.multiple(specification, **sizes):
            X = specification._level_scan(*specification._by_ball(et, ei, r), T_floor, h_cap, mixing)
        assert np.array_equal(X, X_ref[mixing])
        bounds = specification.TransitionBounds(
            X, int(X.max()), mixing, T_floor, h_cap, np.empty((0, 2)), ball_times
        )
        pairs = [(i, j) for i in range(r) for j in range(r)]
        assert all(bounds.connector(i, j) == witness(i, j, int(X[i, j])) for i, j in pairs)
        if not mixing:
            with pytest.raises(GapInfeasibleError):
                bounds.connector(0, 0, T_floor)
            continue
        # exact gaps: the earliest witness of every (dest, src, h), or None
        for h in range(T_floor - 1, h_cap + 2):
            assert all(bounds.connector(i, j, h) == witness(i, j, h) for i, j in pairs)


@settings(max_examples=40, deadline=None)
@given(
    r=st.sampled_from([63, 64, 65, 128, 130]),
    seed=st.integers(0, 2**32 - 1),
    T_floor=st.integers(1, 3),
    h_span=st.integers(0, 20),
    sizes=st.fixed_dictionaries(_SCAN_SIZES),
)
def test_level_scan_across_word_boundaries(r, seed, T_floor, h_span, sizes):
    # ball counts at and across the 64-ball words of the bitmasks, with
    # sparse visits; the first and last ball of every word are visited
    rng = np.random.default_rng(seed)
    visits = rng.random((r, 40)) < 0.06
    edges = [*range(0, r, 64), *range(63, r, 64), r - 1]
    visits[edges, rng.integers(0, 40, len(edges))] = True
    et, ei = np.nonzero(visits.T)  # sorted by (t, ball)
    h_cap = T_floor + h_span
    # hit[h][i, j]: ball j at some t and ball i at t + h
    V = visits.astype(np.int64)
    hit = {h: (V[:, h:] @ V[:, : V.shape[1] - h].T) > 0 for h in range(T_floor, h_cap + 1)}
    X_ref = {mixing: np.full((r, r), 2**62, dtype=np.int64) for mixing in (False, True)}
    ok = np.ones((r, r), dtype=bool)  # hit at every gap from h up to h_cap
    for h in range(h_cap, T_floor - 1, -1):
        ok &= hit[h]
        X_ref[False][hit[h]] = h
        X_ref[True][ok] = h
    for mixing in (False, True):
        with mock.patch.multiple(specification, **sizes):
            X = specification._level_scan(*specification._by_ball(et, ei, r), T_floor, h_cap, mixing)
        assert np.array_equal(X, X_ref[mixing])


# sha256 of the whole transition table X of three seed-0 contexts, with
# sampling orbits shorter than the CLI defaults: reports show only M_k and
# the connectors a certificate uses, so these digests pin every other entry
_X_DIGESTS = {
    "ns-cert PerturbedCatMap min-gap": "b838f1fd6ae9e3ba59d36cf6d0fb5db3ea4b4519a747cae6bb488b4c9974205c",
    "gns-cert CatMap mixing": "2e6f2e9f7a18dacdb19de50a6584326b18cf4b4e6b957a63a7c13dc07c65c2e1",
    "cert-scan CatMap mixing": "0674ce51174b36fa3ed4dfe63caed9ea283b9539da7ed409948cc5b9bdb4a537",
}


def test_transition_tables_pinned(cat, perturbed):
    contexts = {
        "ns-cert PerturbedCatMap min-gap": (perturbed, dict(theta=0.05, block_samples=200, sampling_orbit_length=60_000)),
        "gns-cert CatMap mixing": (cat, dict(theta=0.1, block_samples=100, sampling_orbit_length=50_000, mixing_mode=True)),
        "cert-scan CatMap mixing": (cat, dict(theta=0.1, block_samples=100, sampling_orbit_length=20_000, mixing_mode=True)),
    }
    digests = {
        name: hashlib.sha256(build_cover_context(system, seed=0, **kw).bounds.X.tobytes()).hexdigest()
        for name, (system, kw) in contexts.items()
    }
    assert digests == _X_DIGESTS


def test_transitions_unreachable_ball_fails_fast(cat):
    # the orbit sits on the fixed point, so only the pair (0, 0) is ever
    # witnessed; the open pairs must not make the scan walk all h_cap levels
    # over the 400k events (a large h_cap makes that walk take many seconds)
    cover = SetSpec(np.array([[0.0, 0.0], [0.5, 0.5]]), 1e-3)
    orbit = orbit_array(cat, 0.0, 0.0, n_fwd=399_999)
    for mixing in (False, True):
        start = time.perf_counter()
        with pytest.raises(IncompleteMixingError) as exc:
            estimate_transitions(cat, cover, orbit, mixing_mode=mixing, h_cap=4096)
        assert time.perf_counter() - start < 4.0
        assert exc.value.missing_pairs == [(0, 1), (1, 0), (1, 1)]


def test_level_scan_rare_ball_fails_fast():
    # five balls visited in turn over the first 200k steps and one ball
    # visited once, long after: its pairs stay open at every level, and only
    # its single event may be joined
    t = np.arange(200_000)
    et = np.append(t, 300_000)
    ei = np.append(t % 5, 5)
    for mixing in (False, True):
        start = time.perf_counter()
        X = specification._level_scan(*specification._by_ball(et, ei, 6), 1, 4096, mixing)
        assert time.perf_counter() - start < 4.0
        assert (X[5] == 2**62).all() and (X[:, 5] == 2**62).all()
        if mixing:
            # ball i follows ball j at gap h iff i - j = h mod 5: the pairs
            # hit at h_cap = 4096 miss at 4095 (X = 4096), the rest miss at
            # h_cap itself (_BIG)
            i, j = np.indices((5, 5))
            assert np.array_equal(X[:5, :5], np.where((i - j) % 5 == 4096 % 5, 4096, 2**62))
        else:
            assert (X[:5, :5] <= 5).all()


# ---------------------------------------------------------------------------
# the spectrum's orbit and the sampling orbit, walked by a forked child

# the gns-cert context but for a 20 000-step orbit, in CatMap mixing mode
MIX_CONTEXT = dict(theta=0.1, block_samples=100, sampling_orbit_length=20_000, mixing_mode=True)


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_transitions(a, b):
    # the block params hold the spectrum's exponents, bit for bit
    assert a.block_params == b.block_params
    assert a.bounds.sampling_orbit.tobytes() == b.bounds.sampling_orbit.tobytes()
    assert np.array_equal(a.bounds.X, b.bounds.X) and a.bounds.M_k == b.bounds.M_k
    assert len(a.bounds.ball_times) == len(b.bounds.ball_times)
    assert all(np.array_equal(s, t) for s, t in zip(a.bounds.ball_times, b.bounds.ball_times))


@pytest.fixture(scope="module")
def inline_mix_ctx():
    with pytest.MonkeyPatch.context() as mp:
        _usable_cpus(mp, 1)
        return build_cover_context(SystemSpec.cat_map(), **MIX_CONTEXT)


@pytest.mark.parametrize(
    "system, kwargs",
    [
        (SystemSpec.perturbed_cat_map(0.05), dict(theta=0.05, seed=0)),
        (SystemSpec.perturbed_cat_map(0.05), dict(theta=0.05, seed=1)),
        (SystemSpec.cat_map(), MIX_CONTEXT),
    ],
    ids=["perturbed-seed0", "perturbed-seed1", "cat-mixing"],
)
def test_forked_sampling_orbit_matches_inline(monkeypatch, system, kwargs):
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    forked = build_cover_context(system, **kwargs)
    assert len(forks) == 1
    _assert_no_child_left()
    _usable_cpus(monkeypatch, 1)
    inline = build_cover_context(system, **kwargs)
    assert len(forks) == 1
    _assert_same_transitions(forked, inline)


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


def _record_mappings(monkeypatch):
    """Weak references to every shared mapping made while the test runs."""
    made = []

    class Recorded(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            m = super().__new__(cls, *args, **kwargs)
            made.append(weakref.ref(m))
            return m

    monkeypatch.setattr(mmap, "mmap", Recorded)
    return made


def _record_reaped(monkeypatch):
    """The wait status of every child reaped while the test runs."""
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", recorded)
    return statuses


def _degenerate_from_block(monkeypatch, system, block, error):
    """From the spectrum's block-th block on, raise error in the consumer:
    a KeyboardInterrupt, or Jacobians of zero, on which the tangent vector
    collapses and the spectrum raises DegeneracyError itself."""
    jac = system.jac(np)
    calls = []

    def failing(x, y):
        calls.append(len(x))
        if len(calls) < block:
            return jac(x, y)
        if error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return (0.0,) * 4

    monkeypatch.setattr(SystemSpec, "jac", lambda self, xp=math: failing if xp is np else jac)


@pytest.mark.parametrize(
    "system, kwargs, error, in_spectrum",
    [
        (SystemSpec.cat_map(), MIX_CONTEXT, None, False),
        (SystemSpec.cat_map(), dict(theta=0.05, max_centers=1), ResolutionError, False),
        (SystemSpec.standard_map(1.2), dict(theta=0.05), PreconditionError, False),
        (SystemSpec.cat_map(), dict(theta=0.05, block_samples=20, sampling_orbit_length=600, h_cap=40), IncompleteMixingError, False),
        (SystemSpec.cat_map(), dict(theta=0.05), KeyboardInterrupt, False),
        (SystemSpec.perturbed_cat_map(0.05), dict(theta=0.05), KeyboardInterrupt, True),
        (SystemSpec.perturbed_cat_map(0.05), dict(theta=0.05), DegeneracyError, True),
    ],
    ids=[
        "built",
        "resolution",
        "no-block-points",
        "incomplete-mixing",
        "interrupted",
        "interrupted-mid-stream",
        "degenerate-mid-stream",
    ],
)
def test_no_child_process_outlives_the_build(monkeypatch, system, kwargs, error, in_spectrum):
    # the child walks the spectrum's orbit and then a 400k-step sampling
    # orbit in all but the first and fourth cases, so the error ends the
    # build while it may still run; no shared mapping outlives the build
    # either, unless it holds a built orbit
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    mappings = _record_mappings(monkeypatch)
    reaped = _record_reaped(monkeypatch)
    if in_spectrum:
        # three blocks into the spectrum's stream, while the child walks it
        _degenerate_from_block(monkeypatch, system, 3, error)
    elif error is KeyboardInterrupt:
        # at the first step after the fork, long before the child's walk ends
        monkeypatch.setattr("nuspec.lyapunov.lyapunov_spectrum", _interrupted)
    if error is None:
        build_cover_context(system, **kwargs)
    else:
        with pytest.raises(error) as caught:
            build_cover_context(system, **kwargs)
        if error is not IncompleteMixingError:
            # the traceback still holds the mapping: it was closed, not dropped
            assert mappings[0]().closed
        del caught
    assert len(forks) == 1
    _assert_no_child_left()
    if error is KeyboardInterrupt or in_spectrum:
        # killed, not waited for
        assert len(reaped) == 1 and os.WIFSIGNALED(reaped[0]) and os.WTERMSIG(reaped[0]) == signal.SIGKILL
    assert len(mappings) == 1
    gc.collect()
    assert mappings[0]() is None


@pytest.mark.parametrize("failure", ["exit", "short", "kept-short"])
def test_failed_child_falls_back_inline(monkeypatch, inline_mix_ctx, failure):
    # the child exits nonzero before it walks; or exits cleanly after
    # walking 10 000 rows of the spectrum's orbit, which the parent then
    # continues from the last row posted; or walks that whole orbit and
    # exits cleanly after 10 000 rows of the sampling orbit.  Either way
    # the parent walks the rest itself, to the same floats
    parent = os.getpid()
    walks = []

    def walk_in_parent_only(*args, **kwargs):
        if os.getpid() == parent:
            return walk(*args, **kwargs)
        walks.append(args)
        if failure == "exit":
            os._exit(3)
        if failure == "short" or len(walks) == 2:
            return _exit_cleanly_after(walk(*args, **kwargs), 10_000)
        return walk(*args, **kwargs)

    monkeypatch.setattr(walker_module, "walk", walk_in_parent_only)
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    reaped = _record_reaped(monkeypatch)
    ctx = build_cover_context(SystemSpec.cat_map(), **MIX_CONTEXT)
    assert len(forks) == 1
    assert len(reaped) == 1 and os.WIFEXITED(reaped[0])
    assert os.WEXITSTATUS(reaped[0]) == (3 if failure == "exit" else 0)
    _assert_no_child_left()
    _assert_same_transitions(ctx, inline_mix_ctx)


def _exit_cleanly_after(w, rows):
    # the child writes some rows but posts no row count, and leaves with status 0
    for i, v in enumerate(w):
        if i == 2 * rows:
            os._exit(0)
        yield v


def _fork_refused():
    raise BlockingIOError("no process to spare")


def _mmap_refused(*args, **kwargs):
    raise OSError(12, "Cannot allocate memory")


@pytest.mark.parametrize("reason", ["one-cpu", "no-fork", "fork-refused", "mmap-refused"])
def test_sampling_orbit_inline_without_a_second_cpu_or_fork(monkeypatch, inline_mix_ctx, reason):
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 1 if reason == "one-cpu" else 2)
    if reason == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif reason == "fork-refused":
        monkeypatch.setattr(os, "fork", _fork_refused)
    elif reason == "mmap-refused":
        monkeypatch.setattr(mmap, "mmap", _mmap_refused)
    ctx = build_cover_context(SystemSpec.cat_map(), **MIX_CONTEXT)
    assert forks == []
    _assert_no_child_left()
    _assert_same_transitions(ctx, inline_mix_ctx)


@pytest.mark.parametrize("length", [10_000, 1])
def test_forked_orbit_is_the_mapped_rows(monkeypatch, cat, length):
    # the parent keeps the rows the child wrote into the mapping, with no copy
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    with walker_module.walker(kept=walker_module.Orbit(cat, 1.3, 0.7, 0, length)) as w:
        orbit = w.array()
    assert len(forks) == 1
    _assert_no_child_left()
    assert isinstance(orbit.base, mmap.mmap)
    assert orbit.tobytes() == orbit_array(cat, 1.3, 0.7, n_fwd=length - 1).tobytes()


def _real_cpus():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("needs two usable CPUs")
    return cpus


@pytest.mark.parametrize("error", [None, DegeneracyError])
def test_walker_runs_off_the_parents_cpu(perturbed, error):
    # while the walker lives, the parent's thread holds one CPU and the child
    # the others; the parent's own affinity comes back, also after an error
    cpus = _real_cpus()
    orbit = spectrum_orbit(perturbed, (0.3, 0.2), 100_000)
    with pytest.raises(DegeneracyError) if error else contextlib.nullcontext():
        with walker_module.walker(stream=orbit) as w:
            next(w.blocks())  # the child pins itself before its first post
            mine, child = os.sched_getaffinity(0), os.sched_getaffinity(w.pid)
            if error:
                raise error("in the with-block")
    assert len(mine) == 1 and not mine & child and mine | child == cpus
    assert os.sched_getaffinity(0) == cpus
    _assert_no_child_left()


def test_spectrum_streams_from_the_walker_it_is_given(monkeypatch, perturbed):
    # a spectrum inside a walker that streams its orbit reads the child's
    # rows; any other spectrum there walks inline, so a run has one child
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    x0 = np.array([0.3, 0.2])
    with walker_module.walker(stream=spectrum_orbit(perturbed, x0, 20_000)) as w:
        other = lyapunov_spectrum(perturbed, x0, N=10_000)
        assert not w.claimed
        mine = lyapunov_spectrum(perturbed, x0, N=20_000)
        assert w.claimed
    assert len(forks) == 1
    _assert_no_child_left()
    _usable_cpus(monkeypatch, 1)
    assert mine == lyapunov_spectrum(perturbed, x0, N=20_000)
    assert other == lyapunov_spectrum(perturbed, x0, N=10_000)


@pytest.mark.parametrize("rows", [1, 1_000, 4_000, 4_001])
def test_spectrum_continues_inline_after_the_child_exits(monkeypatch, perturbed, rows):
    # the child leaves after walking the given rows: inside the 7-step
    # transient, at the end of the first and fourth blocks of 1 000 rows
    # after the one-row first block, and one row into the fifth; the
    # exponents are bitwise the inline ones
    x0 = np.array([0.3, 0.2])
    _usable_cpus(monkeypatch, 1)
    inline = lyapunov_spectrum(perturbed, x0, N=20_000, transient=7)
    parent = os.getpid()

    def walk_in_parent_only(*args, **kwargs):
        w = walk(*args, **kwargs)
        return w if os.getpid() == parent else _exit_cleanly_after(w, rows)

    monkeypatch.setattr(walker_module, "walk", walk_in_parent_only)
    monkeypatch.setattr(walker_module, "BLOCK", 1000)
    forks = _count_forks(monkeypatch)
    reaped = _record_reaped(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    assert lyapunov_spectrum(perturbed, x0, N=20_000, transient=7) == inline
    assert len(forks) == 1 and len(reaped) == 1
    assert os.WIFEXITED(reaped[0]) and os.WEXITSTATUS(reaped[0]) == 0
    _assert_no_child_left()


# a Henon point past the boundary crisis (a = 1.43): its orbit wanders for
# 636 steps before it escapes
_LATE_ESCAPE = (SystemSpec.henon(1.43, 0.3), np.array([0.05994237810747696, 0.08453744423953169]))


def test_henon_escape_in_the_child_raises_as_inline(monkeypatch):
    system, x0 = _LATE_ESCAPE
    _usable_cpus(monkeypatch, 1)
    with pytest.raises(NonFiniteError) as inline:
        lyapunov_spectrum(system, x0, N=10_000)
    # blocks of 64 rows in a ring of 2: the escape is ten blocks and a few
    # ring laps into the stream
    monkeypatch.setattr(walker_module, "BLOCK", 64)
    monkeypatch.setattr(walker_module, "_SLOTS", 2)
    forks = _count_forks(monkeypatch)
    reaped = _record_reaped(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(NonFiniteError) as forked:
        lyapunov_spectrum(system, x0, N=10_000)
    assert str(forked.value) == str(inline.value)
    assert "escaped" in str(forked.value)
    # the child met the escape and exited with status 1; it was not killed
    assert len(forks) == 1 and len(reaped) == 1
    assert os.WIFEXITED(reaped[0]) and os.WEXITSTATUS(reaped[0]) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("block, slots", [(1, 1), (7, 1), (7, 2), (64, 3), (1000, 5)])
def test_ring_wraps_at_any_length(monkeypatch, block, slots):
    # the stream laps a small ring many times; each spectrum's one mapping
    # is the ring, and the exponents are bitwise the inline ones
    system = SystemSpec.standard_map(6.0)
    x0 = np.array([0.3, 0.2])
    _usable_cpus(monkeypatch, 1)
    inline = lyapunov_spectrum(system, x0, N=5_000, qr_period=7, transient=3)
    monkeypatch.setattr(walker_module, "BLOCK", block)
    monkeypatch.setattr(walker_module, "_SLOTS", slots)
    sizes = []
    mmap_type = mmap.mmap

    class Recorded(mmap_type):
        def __new__(cls, fileno, length, *args, **kwargs):
            sizes.append(length)
            return super().__new__(cls, fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", Recorded)
    forks = _count_forks(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    assert lyapunov_spectrum(system, x0, N=5_000, qr_period=7, transient=3) == inline
    assert len(forks) == 1 and sizes == [16 * block * slots]
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# index selection


def _arith_seq(step, count, horizon=None):
    fwd = np.arange(1, count + 1) * step
    return ReturnTimeSequence(
        forward=fwd,
        backward=-fwd,
        horizon=horizon or int(fwd[-1]),
    )


def test_select_indices_hand_worked():
    seq = _arith_seq(10, 50)
    # eta/epsilon = 0.25 so the stretch factor is 1.5
    l1, s1, l2, s2 = select_indices(seq, m=25, n=37, eta=0.25, epsilon=1.0)
    assert (l1, s1, l2, s2) == (3, 2, 4, 2)


def _oracle_indices(seq, m, n, eta, epsilon):
    factor = 1.0 + 2.0 * eta / epsilon

    def t(i):
        return seq.t(i)

    l1 = next(l for l in range(1, seq.count_bwd + 1) if t(-l) < -m)
    s1 = next(
        s for s in range(1, seq.count_bwd - l1 + 1) if t(-l1 - s) <= factor * t(-l1)
    )
    l2 = next(l for l in range(1, seq.count_fwd + 1) if t(l) > n)
    s2 = next(
        s for s in range(1, seq.count_fwd - l2 + 1) if t(l2 + s) >= factor * t(l2)
    )
    return l1, s1, l2, s2


@given(
    st.lists(st.integers(1, 9), min_size=25, max_size=60),
    st.integers(0, 40),
    st.integers(0, 40),
    st.floats(0.01, 0.5),
)
@settings(max_examples=150, deadline=None)
def test_select_indices_matches_oracle(increments, m, n, eta_ratio):
    times = np.cumsum(np.asarray(increments, dtype=np.int64))
    seq = ReturnTimeSequence(forward=times, backward=-times, horizon=int(times[-1]))
    epsilon = 1.0
    eta = eta_ratio * epsilon / 2
    try:
        got = select_indices(seq, m, n, eta, epsilon)
    except InsufficientHorizonError:
        with pytest.raises((StopIteration, IndexError)):
            _oracle_indices(seq, m, n, eta, epsilon)
        return
    want = _oracle_indices(seq, m, n, eta, epsilon)
    assert got == want
    l1, s1, l2, s2 = got
    factor = 1.0 + 2.0 * eta / epsilon
    assert seq.t(-l1) < -m <= seq.t(-l1 + 1)
    assert seq.t(l2) > n >= seq.t(l2 - 1)
    assert seq.t(-l1 - s1) <= factor * seq.t(-l1) < seq.t(-l1 - s1 + 1)
    assert seq.t(l2 + s2) >= factor * seq.t(l2) > seq.t(l2 + s2 - 1)


def test_select_indices_eta_monotone():
    seq = _arith_seq(7, 400)
    epsilon = 1.0
    prev_s1 = prev_s2 = 0
    for eta in (0.05, 0.1, 0.2, 0.4):
        _, s1, _, s2 = select_indices(seq, 30, 30, eta, epsilon)
        assert s1 >= prev_s1 and s2 >= prev_s2
        prev_s1, prev_s2 = s1, s2


def test_select_indices_insufficient_horizon():
    seq = _arith_seq(10, 6)
    with pytest.raises(InsufficientHorizonError) as exc:
        select_indices(seq, m=55, n=55, eta=0.25, epsilon=1.0)
    assert exc.value.required_horizon is not None


# ---------------------------------------------------------------------------
# certificate windows: how far the return-time walk goes


def _assert_window_matches_long_walk(system, x, m, n, eta, ctx, w, horizon=1 << 17):
    # one walk far past the deciding visits, then index selection on it
    seq = recurrence.return_times(system, x, ctx.cover, count_fwd=horizon, count_bwd=horizon, horizon=horizon)
    indices = select_indices(seq, m, n, eta, ctx.epsilon)
    l1, s1, l2, s2 = indices
    t_minus, t_plus = seq.t(-(l1 + s1)), seq.t(l2 + s2)
    assert (w.indices, w.t_minus, w.t_plus) == (indices, t_minus, t_plus)
    assert w.xs.tobytes() == orbit_array(system, *x, n_fwd=t_plus, n_bwd=-t_minus).tobytes()


@pytest.fixture
def walked_steps(monkeypatch):
    """Orbit steps that the return-time walks take during the test."""
    steps = [0]

    def counting(system, x, y, forward=True):
        for i, v in enumerate(walk(system, x, y, forward)):
            steps[0] += i % 2  # one step per (x, y) pair
            yield v

    monkeypatch.setattr(recurrence, "walk", counting)
    return steps


@pytest.mark.parametrize("m,n", [(100, 100), (400, 400), (0, 50), (50, 0), (30, 200)])
def test_certificate_window_walks_only_the_deciding_horizon(perturbed, perturbed_ctx, walked_steps, m, n):
    x = block_point(perturbed_ctx, 4)
    q = const_q(perturbed_ctx)
    w = specification._certificate_window(perturbed, x, m, n, q.eta, q, perturbed_ctx)
    factor = 1.0 + 2.0 * q.eta / perturbed_ctx.epsilon
    assert walked_steps[0] <= 2 * (int(factor * (max(m, n) + 1)) + 64)
    _assert_window_matches_long_walk(perturbed, x, m, n, q.eta, perturbed_ctx, w)


def test_certificate_window_retries_on_sparse_returns(cat, cat_ctx, walked_steps):
    # one small ball: returns are thousands of steps apart, so the first
    # horizon cannot decide the window and the walk goes on longer
    x = torus(0.3141, 0.2718)
    ctx = replace(cat_ctx, cover=SetSpec.ball(x, 0.01, Space.TORUS2))
    q = const_q(ctx)
    w = specification._certificate_window(cat, x, 5, 5, q.eta, q, ctx)
    factor = 1.0 + 2.0 * q.eta / ctx.epsilon
    assert walked_steps[0] > 2 * (int(factor * 6) + 64)
    # each retry re-walked both sides from t = 0 before: 52,466 steps here;
    # now a decided side stops and an undecided one walks on
    assert walked_steps[0] < 52_466
    _assert_window_matches_long_walk(cat, x, 5, 5, q.eta, ctx, w)


def test_certificate_window_never_walks_past_max_horizon(cat, cat_ctx, walked_steps):
    x = block_point(cat_ctx, 3)
    q = const_q(cat_ctx)
    with pytest.raises(InsufficientHorizonError) as exc:
        specification._certificate_window(cat, x, 100, 100, q.eta, q, cat_ctx, max_horizon=100)
    assert exc.value.required_horizon is not None and exc.value.required_horizon > 100
    assert walked_steps[0] <= 2 * 100


# ---------------------------------------------------------------------------
# slow-varying weights


def _q_along_orbit(q, system, x, m, n):
    # q along the orbit of x over [-m-1, n]
    return specification._slow_varying(q, orbit_array(system, *x.tolist(), n_fwd=n, n_bwd=m + 1))


def test_check_slow_varying_constant(cat):
    q = SlowVaryingFn.constant(1.0, eta=0.01)
    ok, worst = _q_along_orbit(q, cat, torus(0.3, 0.4), 50, 50)
    assert ok and worst == 1.0


def test_check_slow_varying_zero_amplitude(cat):
    q = SlowVaryingFn.modulated(1.0, 0.0, 3, eta=0.01)
    ok, worst = _q_along_orbit(q, cat, torus(0.3, 0.4), 50, 50)
    assert ok and worst == 1.0


def test_check_slow_varying_modulated_consistent(cat):
    q = SlowVaryingFn.modulated(1.0, 0.5, 1, eta=0.7)
    ok, worst = _q_along_orbit(q, cat, torus(0.31, 0.47), 100, 100)
    assert ok == (worst <= math.exp(0.7) + 1e-12)


# ---------------------------------------------------------------------------
# certificates


def test_ns_fixed_point(cat, cat_spectrum, newton_solutions, cat_exact_distance):
    fp = torus(0.0, 0.0)
    eps = 0.1 * min(abs(cat_spectrum.lambda_s), cat_spectrum.lambda_u)
    ctx = fixed_point_context(cat, fp, epsilon=eps)
    eta = eps / 10
    cert = ns_certificate(cat, fp, 30, 30, 1e-6, eta, SlowVaryingFn.constant(1.0, eta), ctx)
    w = cert.segments[0]
    assert cert.in_ball
    assert cert.z.tolist() == [0.0, 0.0]
    assert w.margins.distance.max() == 0.0
    assert cert.period <= w.m + w.n + w.K
    assert max(map(cat_exact_distance, newton_solutions)) < 1e-12


def test_window_margin_nan_and_equality_fail(cat, cat_spectrum):
    # a window is in its ball only when every distance < allowance: a NaN
    # distance and a distance equal to its allowance are both violations
    fp = torus(0.0, 0.0)
    eps = 0.1 * min(abs(cat_spectrum.lambda_s), cat_spectrum.lambda_u)
    ctx = fixed_point_context(cat, fp, epsilon=eps)
    cert = ns_certificate(cat, fp, 5, 5, 1e-6, eps / 10, SlowVaryingFn.constant(1.0, eps / 10), ctx)
    w = cert.segments[0]
    assert cert.in_ball and w.first_violated_index is None
    j, allowance = w.margins.j, w.margins.allowance
    for k, value in ((7, math.nan), (2, allowance[2])):
        distance = w.margins.distance.copy()
        distance[k] = value
        bad = replace(cert, segments=[replace(w, margins=Margins(j, distance, allowance))])
        assert not bad.in_ball
        assert bad.segments[0].first_violated_index == j[k]
        out = bad.to_json(include_margins=False)
        assert out["in_ball"] is False and out["first_violated_index"] == j[k]


def test_ns_generic_cat(cat, cat_ctx, cat_exact_distance):
    x = block_point(cat_ctx, 3)
    q = const_q(cat_ctx)
    cert = ns_certificate(cat, x, 100, 100, 0.05, q.eta, q, cat_ctx)
    w = cert.segments[0]
    assert cert.in_ball
    assert len(w.margins.j) == 201
    assert (w.margins.distance < w.margins.allowance).all()
    assert cert.period <= 200 + w.K
    assert cert.residual <= 1e-11
    assert not cert.below_resolution
    assert cat_exact_distance(cert.solution_points) < 1e-12


def test_ns_below_resolution(cat, cat_ctx):
    x = block_point(cat_ctx, 3)
    q = const_q(cat_ctx)
    cert = ns_certificate(cat, x, 100, 100, 1e-15, q.eta, q, cat_ctx)
    assert not cert.in_ball
    assert cert.below_resolution
    assert cert.segments[0].first_violated_index is not None


def test_ns_margin_dominance_chain(cat, cat_ctx):
    # for a passing certificate the measured distances obey the full
    # theta q(x)^{-2} e^{-2|j|eta} <= theta q(f^j x)^{-2} chain
    x = block_point(cat_ctx, 5)
    q = const_q(cat_ctx)
    theta = 0.05
    cert = ns_certificate(cat, x, 150, 150, theta, q.eta, q, cat_ctx)
    margins = cert.segments[0].margins
    assert cert.in_ball
    qx = q.value_rows(x[None])[0]
    mid = theta * qx**-2 * np.exp(-2.0 * np.abs(margins.j) * cert.q.eta)
    assert (margins.distance <= mid + 1e-15).all()
    assert (mid <= margins.allowance + 1e-15).all()


def test_ns_remark_plain_ball_reduction(cat, cat_ctx):
    # with q identically 1 the weighted allowances reduce bit-for-bit to the
    # plain dynamical-ball radius theta
    x = block_point(cat_ctx, 7)
    q = const_q(cat_ctx)
    theta = 0.04
    cert = ns_certificate(cat, x, 80, 80, theta, q.eta, q, cat_ctx)
    plain = np.full(161, theta)
    assert cert.segments[0].margins.allowance.tolist() == plain.tolist()


def test_ns_rejects_non_slow_varying_q(cat, cat_ctx):
    x = block_point(cat_ctx, 2)
    q = SlowVaryingFn.modulated(1.0, 0.9, 5, eta=cat_ctx.epsilon / 10)
    with pytest.raises(PreconditionError):
        ns_certificate(cat, x, 60, 60, 0.05, q.eta, q, cat_ctx)


def test_ns_requires_cover_membership(cat, cat_ctx):
    q = const_q(cat_ctx)
    outside = None
    rng = np.random.default_rng(3)
    for _ in range(500):
        cand = torus(*rng.random(2))
        if not cat_ctx.cover.membership(cand):
            outside = cand
            break
    if outside is None:
        pytest.skip("cover happens to fill the torus")
    with pytest.raises(PreconditionError):
        ns_certificate(cat, outside, 50, 50, 0.05, q.eta, q, cat_ctx)


@pytest.mark.parametrize("m, n", [(-5, 100), (100, -1), (-5, 3), (0, 0)])
def test_ns_rejects_negative_or_empty_window(cat, cat_ctx, m, n):
    # m = -5 would certify [5, 100], a window without j = 0, and m = n = 0
    # has no ratio K / (m + n); both are refused before any return-time search
    x = block_point(cat_ctx, 3)
    q = const_q(cat_ctx)
    with mock.patch.object(specification, "VisitWalk", side_effect=AssertionError("searched")):
        with pytest.raises(PreconditionError):
            ns_certificate(cat, x, m, n, 0.05, q.eta, q, cat_ctx)


def test_gns_rejects_negative_window(cat, mix_ctx):
    pts = [block_point(mix_ctx, i) for i in range(2)]
    eta = 0.1 * mix_ctx.epsilon
    q = SlowVaryingFn.constant(1.0, eta)
    with pytest.raises(PreconditionError):
        gns_certificate(cat, [(pts[0], 60, 60), (pts[1], 60, -2)], 0.1, eta, q, mix_ctx)


def test_cover_contexts_reject_plane_systems(henon):
    # the context seeds its points in [0, 1)^2 and needs backward orbits
    with mock.patch("nuspec.lyapunov.lyapunov_spectrum", side_effect=AssertionError("computed")):
        with pytest.raises(ConfigError) as exc:
            build_cover_context(henon, theta=0.05)
    assert exc.value.field == "system.kind"
    with pytest.raises(ConfigError) as exc:
        fixed_point_context(henon, Point2(0.5, 0.5, Space.PLANE), epsilon=0.04)
    assert exc.value.field == "system.kind"


def test_sublinearity_scan_cat(cat, cat_ctx, newton_solutions, cat_exact_distance):
    x = block_point(cat_ctx, 9)
    q = const_q(cat_ctx)
    eta = q.eta
    table = sublinearity_scan(
        cat, x, 0.05, [eta], [(100, 100), (200, 200), (400, 400), (800, 800)], q, cat_ctx
    )
    ratios = {(r.m, r.n): r.ratio for r in table.rows}
    assert ratios[(800, 800)] <= ratios[(100, 100)]
    assert table.summaries[eta] <= 2 * eta / cat_ctx.epsilon + 0.15
    assert all(r.in_ball for r in table.rows)
    assert len(newton_solutions) == 4
    assert max(map(cat_exact_distance, newton_solutions)) < 1e-12


def test_sublinearity_eta_trend(cat, cat_ctx):
    x = block_point(cat_ctx, 9)
    eps = cat_ctx.epsilon
    q = SlowVaryingFn.constant(1.0, eps / 10)
    etas = [eps / 10, eps / 20, eps / 40]
    table = sublinearity_scan(cat, x, 0.05, etas, [(150, 150), (300, 300)], q, cat_ctx)
    s = [table.summaries[e] for e in etas]
    assert s[1] <= s[0] + 0.05
    assert s[2] <= s[1] + 0.05


def test_sublinearity_fixed_point(cat, cat_spectrum, newton_solutions, cat_exact_distance):
    fp = torus(0.0, 0.0)
    eps = 0.1 * min(abs(cat_spectrum.lambda_s), cat_spectrum.lambda_u)
    ctx = fixed_point_context(cat, fp, epsilon=eps)
    q = SlowVaryingFn.constant(1.0, eps / 10)
    table = sublinearity_scan(
        cat, fp, 0.01, [eps / 10], [(50, 50), (100, 100), (400, 400)], q, ctx
    )
    ratios = [r.ratio for r in table.rows]
    assert ratios == sorted(ratios, reverse=True)
    # the gap stays pinned to the stretch factor plus the bounded connector
    assert table.summaries[eps / 10] <= 2 * (eps / 10) / eps + 0.1
    assert max(map(cat_exact_distance, newton_solutions)) < 1e-12


# ---------------------------------------------------------------------------
# GNS


def test_gns_fixed_point_pair(cat, cat_spectrum, newton_solutions, cat_exact_distance):
    fp = torus(0.0, 0.0)
    eps = 0.1 * min(abs(cat_spectrum.lambda_s), cat_spectrum.lambda_u)
    ctx = fixed_point_context(cat, fp, epsilon=eps)
    eta = eps / 10
    q = SlowVaryingFn.constant(1.0, eta)
    cert = gns_certificate(cat, [(fp, 20, 20), (fp, 20, 20)], 1e-6, eta, q, ctx)
    assert cert.in_ball
    assert cert.z.tolist() == [0.0, 0.0]
    assert cert.sum_gaps <= cert.gap_budget
    assert cert.bookkeeping_ok
    assert max(map(cat_exact_distance, newton_solutions)) < 1e-12


def test_gns_three_segments(cat, mix_ctx, newton_solutions, cat_exact_distance):
    pts = [block_point(mix_ctx, i) for i in (0, 7, 13)]
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    cert = gns_certificate(cat, [(p, 60, 60) for p in pts], 0.1, eta, q, mix_ctx)
    assert cert.in_ball
    assert cert.sum_gaps <= cert.gap_budget
    assert cert.pair_bound_ok
    assert cert.bookkeeping_ok
    assert cert.period == sum(120 + g for g in cert.gaps)
    # offsets: iterating the stored solution one step at a time stays within
    # the solver residual, so each offset lands on the margin-checked point
    assert cert.residual <= 1e-9
    assert cat_exact_distance(newton_solutions[0]) < 1e-12


def _distances_at(system, cert, offsets):
    # each window's distances, read from the stored cycle at the given offsets
    return [
        system.space.dist(cert.solution_points[(off + s.margins.j) % cert.period], s.xs[s.margins.j - s.t_minus])
        for s, off in zip(cert.segments, offsets)
    ]


@pytest.mark.parametrize("system_name, ctx_name", [("cat", "mix_ctx"), ("perturbed", "perturbed_ctx")])
def test_gns_certificate_rechecks_from_its_own_rows(request, system_name, ctx_name):
    # the stated offsets place each window on the stored cycle: its distances
    # come back bit for bit, and one offset moved by one step breaks them
    system, ctx = request.getfixturevalue(system_name), request.getfixturevalue(ctx_name)
    q = const_q(ctx)
    cert = gns_certificate(system, [(block_point(ctx, i), 60, 60) for i in (0, 7, 13)], 0.1, q.eta, q, ctx)
    assert cert.solution_points[0].tobytes() == cert.z.tobytes()
    recomputed = _distances_at(system, cert, cert.offsets)
    assert all(s.margins.distance.tobytes() == d.tobytes() for s, d in zip(cert.segments, recomputed))
    for i in range(len(cert.offsets)):
        moved = [off + (k == i) for k, off in enumerate(cert.offsets)]
        d = _distances_at(system, cert, moved)[i]
        assert cert.segments[i].margins.distance.tobytes() != d.tobytes()


def test_gns_prescribed_total_gap(cat, mix_ctx):
    pts = [block_point(mix_ctx, i) for i in (0, 7, 13)]
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    base = gns_certificate(cat, [(p, 60, 60) for p in pts], 0.1, eta, q, mix_ctx)
    target = base.gap_budget + 7
    cert = gns_certificate(
        cat, [(p, 60, 60) for p in pts], 0.1, eta, q, mix_ctx, target_total_gap=target
    )
    assert cert.sum_gaps == target
    assert cert.period == sum(120 + g for g in cert.gaps)
    assert cert.in_ball


def test_gns_gap_infeasible(cat, mix_ctx, cat_ctx):
    pts = [block_point(mix_ctx, i) for i in (0, 7)]
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    segs = [(p, 40, 40) for p in pts]
    base = gns_certificate(cat, segs, 0.1, eta, q, mix_ctx)
    with pytest.raises(GapInfeasibleError):
        gns_certificate(cat, segs, 0.1, eta, q, mix_ctx, target_total_gap=base.sum_gaps - 3)
    with pytest.raises(GapInfeasibleError):
        gns_certificate(
            cat, segs, 0.1, eta, q, mix_ctx, target_total_gap=base.sum_gaps + 10_000
        )
    # non-mixing transitions cannot honor a prescribed total
    pts2 = [block_point(cat_ctx, i) for i in (0, 7)]
    q2 = SlowVaryingFn.constant(1.0, cat_ctx.epsilon / 10)
    with pytest.raises(GapInfeasibleError):
        gns_certificate(
            cat,
            [(p, 40, 40) for p in pts2],
            0.05,
            q2.eta,
            q2,
            cat_ctx,
            target_total_gap=500,
        )


def test_gns_needs_two_segments(cat, mix_ctx):
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    with pytest.raises(PreconditionError):
        gns_certificate(cat, [(block_point(mix_ctx, 0), 30, 30)], 0.1, eta, q, mix_ctx)


# ---------------------------------------------------------------------------
# mixing-mode consecutive periods


def test_ns_mixing_consecutive_periods(cat, mix_ctx):
    x = block_point(mix_ctx, 4)
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    base = ns_certificate(cat, x, 100, 100, 0.1, eta, q, mix_ctx)
    floor = 200 + base.segments[0].K
    periods = []
    for extra in range(6):
        cert = ns_certificate(
            cat, x, 100, 100, 0.1, eta, q, mix_ctx, connector_gap=mix_ctx.bounds.M_k + extra
        )
        assert cert.in_ball
        assert cert.period >= floor
        periods.append(cert.period)
    assert periods == list(range(periods[0], periods[0] + 6))


# ---------------------------------------------------------------------------
# one certificate core: ns is the one-window cycle


def test_ns_exact_minimal_gap_equals_minimal_connector(cat, mix_ctx):
    # the minimal and the exact-gap connector pick the same witness at X
    x = block_point(mix_ctx, 4)
    q = const_q(mix_ctx)
    base = ns_certificate(cat, x, 100, 100, 0.1, q.eta, q, mix_ctx)
    w = base.segments[0]
    X = int(mix_ctx.bounds.X[w.dest, w.src])
    exact = ns_certificate(cat, x, 100, 100, 0.1, q.eta, q, mix_ctx, connector_gap=X)
    assert exact.to_json(include_margins=True) == base.to_json(include_margins=True)
    assert np.array_equal(exact.solution_points, base.solution_points)


def test_ns_connector_gap_needs_mixing(cat, cat_ctx):
    x = block_point(cat_ctx, 3)
    q = const_q(cat_ctx)
    base = ns_certificate(cat, x, 100, 100, 0.05, q.eta, q, cat_ctx)
    with pytest.raises(GapInfeasibleError):
        ns_certificate(cat, x, 100, 100, 0.05, q.eta, q, cat_ctx, connector_gap=base.connectors[0][0])


def test_ns_unwitnessed_exact_gap(cat, mix_ctx):
    x = block_point(mix_ctx, 4)
    q = const_q(mix_ctx)
    w = ns_certificate(cat, x, 100, 100, 0.1, q.eta, q, mix_ctx).segments[0]
    b = mix_ctx.bounds
    X = int(b.X[w.dest, w.src])
    # X - 1 is the largest unwitnessed gap when X > T_floor
    for gap in (X - 1 if X > b.T_floor else b.T_floor - 1, b.h_cap + 1):
        assert b.connector(w.dest, w.src, gap) is None
        with pytest.raises(GapInfeasibleError):
            ns_certificate(cat, x, 100, 100, 0.1, q.eta, q, mix_ctx, connector_gap=gap)


# M_k = 0 puts every connector over its gap budget K, so both certificates
# must fail their p <= m + n + K / sum(p_i) <= sum(K_i) invariant
_BROKEN_BUDGET = """
from dataclasses import replace
from nuspec.dynamics import CAT_EXPONENT, Point2, SystemSpec
from nuspec.errors import InvariantError
from nuspec.specification import SlowVaryingFn, fixed_point_context, gns_certificate, ns_certificate

cat = SystemSpec.cat_map()
fp = Point2(0.0, 0.0)
ctx = fixed_point_context(cat, fp, epsilon=0.1 * CAT_EXPONENT)
ctx = replace(ctx, bounds=replace(ctx.bounds, M_k=0))
q = SlowVaryingFn.constant(1.0, ctx.epsilon / 10)
for make in (
    lambda: ns_certificate(cat, fp, 20, 20, 1e-6, q.eta, q, ctx),
    lambda: gns_certificate(cat, [(fp, 20, 20), (fp, 20, 20)], 1e-6, q.eta, q, ctx),
):
    try:
        make()
        print("no error")
    except InvariantError as err:
        print(type(err).__name__)
"""


def test_certificate_invariants_raise_typed_error(cat, cat_spectrum):
    fp = torus(0.0, 0.0)
    eps = 0.1 * min(abs(cat_spectrum.lambda_s), cat_spectrum.lambda_u)
    ctx = fixed_point_context(cat, fp, epsilon=eps)
    ctx = replace(ctx, bounds=replace(ctx.bounds, M_k=0))
    q = SlowVaryingFn.constant(1.0, eps / 10)
    with pytest.raises(InvariantError):
        ns_certificate(cat, fp, 20, 20, 1e-6, q.eta, q, ctx)
    with pytest.raises(InvariantError):
        gns_certificate(cat, [(fp, 20, 20), (fp, 20, 20)], 1e-6, q.eta, q, ctx)


def test_certificate_invariants_survive_optimize_flag():
    src = str(Path(specification.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_BUDGET],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["InvariantError", "InvariantError"]


def _fixed_point_q_mismatch(make):
    # a certificate asked for eta whose weight q carries another eta
    def call(system):
        ctx = fixed_point_context(system, torus(0.0, 0.0), epsilon=0.04)
        return make(system, 0.01, SlowVaryingFn.constant(1.0, 0.02), ctx)

    return call


def _short_solution(system):
    po = assemble([orbit_array(system, 0.1, 0.2, n_fwd=3)], system)
    sol = PeriodicOrbitSolution(points=np.zeros((4, 2)), period=4, residual=0.0, newton_iters=0)
    return shadowing_profile(system, sol, po, tau=1.0, epsilon=0.1)


# the library's own refusals; the CLI refuses the same values before they
# reach these lines, so only direct calls run them
AMPLITUDE = "amplitude must lie in [0, 1)"
ETA_RANGE = "need 0 < eta <= epsilon/2"
LIBRARY_REFUSALS = {
    "q c <= 0": (lambda s: SlowVaryingFn.constant(0.0, 0.1), ValueError, "base value c must be positive"),
    "q amplitude 1": (lambda s: SlowVaryingFn.modulated(1.0, 1.0, 1, 0.1), ValueError, AMPLITUDE),
    "q amplitude < 0": (lambda s: SlowVaryingFn.modulated(1.0, -0.1, 1, 0.1), ValueError, AMPLITUDE),
    "q eta <= 0": (lambda s: SlowVaryingFn.constant(1.0, 0.0), ValueError, "eta must be positive"),
    "select eta 0": (lambda s: select_indices(_arith_seq(10, 50), 5, 5, 0.0, 1.0), PreconditionError, ETA_RANGE),
    "select eta > eps/2": (lambda s: select_indices(_arith_seq(10, 50), 5, 5, 0.6, 1.0), PreconditionError, ETA_RANGE),
    "ns q.eta": (
        _fixed_point_q_mismatch(lambda s, eta, q, ctx: ns_certificate(s, torus(0.0, 0.0), 5, 5, 0.05, eta, q, ctx)),
        ValueError,
        "q.eta must equal the certificate eta",
    ),
    "gns q.eta": (
        _fixed_point_q_mismatch(
            lambda s, eta, q, ctx: gns_certificate(s, [(torus(0.0, 0.0), 5, 5)] * 2, 0.1, eta, q, ctx)
        ),
        ValueError,
        "q.eta must equal the certificate eta",
    ),
    "cover delta <= 0": (lambda s: build_cover(s, [[0.5, 0.5]], 0.0), ValueError, "delta must be positive"),
    "cover no points": (
        lambda s: build_cover(s, np.empty((0, 2)), 0.1),
        ValueError,
        "block_points must be a non-empty (n, 2) coordinate array",
    ),
    "cover (n, 3) points": (
        lambda s: build_cover(s, np.zeros((4, 3)), 0.1),
        ValueError,
        "block_points must be a non-empty (n, 2) coordinate array",
    ),
    "transitions T_floor 0": (
        lambda s: estimate_transitions(s, build_cover(s, [[0.5, 0.5]], 0.1), seeded_orbit(s, 100, 0), T_floor=0),
        ValueError,
        "T_floor must be >= 1",
    ),
    "hit epsilon 0": (
        lambda s: recurrence.interval_hit_check(_arith_seq(3, 10), 0.0),
        ValueError,
        "epsilon must be positive",
    ),
    "birkhoff horizon 0": (
        lambda s: recurrence.birkhoff_indicator_average(s, torus(0.5, 0.5), build_cover(s, [[0.5, 0.5]], 0.2), 0),
        ValueError,
        "horizon must be >= 1",
    ),
    "profile period": (_short_solution, PreconditionError, "solution period must equal the pseudo-orbit length"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refuses_its_own_inputs(cat, case):
    call, error, message = LIBRARY_REFUSALS[case]
    with pytest.raises(Exception) as exc:
        call(cat)
    assert type(exc.value) is error
    assert str(exc.value) == message
