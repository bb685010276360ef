import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuspec.dynamics import (
    CAT_EXPONENT,
    CAT_LAMBDA_S,
    CAT_LAMBDA_U,
    Point2,
    Space,
    SystemKind,
    orbit_array,
    step_xy,
)
from nuspec.errors import PreconditionError
from nuspec import recurrence
from nuspec.lyapunov import LyapunovSpectrum
from nuspec.recurrence import (
    ReturnTimeSequence,
    SetSpec,
    ball_return_times,
    birkhoff_indicator_average,
    interval_hit_check,
    nonlacunarity_profile,
    recurrence_scaling,
    return_times,
)

BOUND_CAT = 2.0 / CAT_EXPONENT  # 1/lambda_u - 1/lambda_s with symmetric spectrum
_unit = st.floats(0.0, 1.0, exclude_max=True)


def torus(x, y):
    return Point2(x, y, Space.TORUS2)


PERIOD3 = torus(0.75, 0.5)  # (A^3 - I) kills (3/4, 1/2); orbit {.., (0,.25), (.25,.25)}


def test_period3_point_is_periodic(cat):
    p = tuple(PERIOD3.tolist())
    for _ in range(3):
        p = step_xy(cat, *p)
    assert p == tuple(PERIOD3.tolist())


def test_return_fixed_point(cat):
    assert ball_return_times(cat, torus(0.0, 0.0), [0.1], grid=3, T_max=10) == [1]


def test_return_period3_center_proxy(cat):
    assert ball_return_times(cat, PERIOD3, [0.05], grid=1, T_max=50) == [3]


def test_return_monotone_in_radius(cat):
    # nested sample sets: every radius reads the largest radius's lattice
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = torus(*rng.random(2))
        taus = ball_return_times(cat, x, [0.2, 0.1, 0.05], grid=7, T_max=3000)
        assert all(t is not None for t in taus)
        assert taus[0] <= taus[1] <= taus[2]


def test_return_never_beats_center(cat):
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = torus(*rng.random(2))
        [t_grid] = ball_return_times(cat, x, [0.08], grid=5, T_max=5000)
        [t_center] = ball_return_times(cat, x, [0.08], grid=1, T_max=5000)
        assert t_grid is not None and t_center is not None
        assert t_grid <= t_center


# unit unstable eigenvector of the cat matrix [[2,1],[1,1]]
_VU = np.array([1.0, (math.sqrt(5.0) - 1.0) / 2.0])
_VU /= np.linalg.norm(_VU)
_OFFSETS = [np.array([i, j], float) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)]


def _sampled_segment_distance(c, T):
    """Min distance from the segment {c + t * vu : |t| <= T} to the integer
    lattice, by sampling: points at most 0.2 apart along the segment, each
    rounded to the lattice and widened by the 8 neighbours of that point."""
    n = max(2, int(math.ceil(2 * T / 0.2)) + 1)
    tt = -T + (2 * T / (n - 1)) * np.arange(n)
    Q = np.round(c[None, :] + tt[:, None] * _VU[None, :])
    best = math.inf
    for off in _OFFSETS:
        dvec = Q + off[None, :] - c[None, :]
        tproj = dvec @ _VU
        np.clip(tproj, -T, T, out=tproj)
        rx = dvec[:, 0] - tproj * _VU[0]
        ry = dvec[:, 1] - tproj * _VU[1]
        best = min(best, math.sqrt(float(np.min(rx * rx + ry * ry))))
    return best


def _first_return_reference(system, x, r, grid, T_max, largest, method):
    """The per-radius march: one radius, its own copy of the largest radius's
    lattice filtered to r (or, for the cat map segment, its own iteration of
    x and the sampled segment distance)."""
    if method == "segment":
        z = x.copy()
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        for k in range(1, T_max + 1):
            z = (A @ z) % 1.0
            d = _sampled_segment_distance(Space.TORUS2.wrap(z - x), r * CAT_LAMBDA_U**k)
            if d <= r * (1.0 + CAT_LAMBDA_S**k):
                return k
        return None
    if grid == 1:
        offsets = np.zeros((1, 2))
    else:
        g = np.linspace(-largest, largest, grid)
        ox, oy = np.meshgrid(g, g, indexing="ij")
        offsets = np.column_stack((ox.ravel(), oy.ravel()))
        offsets = offsets[(offsets**2).sum(axis=1) <= r * r]
        if not (offsets == 0.0).all(axis=1).any():
            offsets = np.vstack(([0.0, 0.0], offsets))
    pts = (x[None, :] + offsets) % 1.0
    for k in range(1, T_max + 1):
        pts = recurrence.step_array(system, pts)
        if (system.space.dist(pts, x[None, :]) <= r).any():
            return k
    return None


# points whose center returns early: the origin is fixed under all three
# maps, and the rationals are cat map cycles
_PERIODIC = [(0.0, 0.0), (0.75, 0.5), (0.25, 0.25), (0.2, 0.4)]


@given(
    kind=st.sampled_from(["cat", "perturbed", "standard"]),
    xy=st.one_of(st.tuples(_unit, _unit), st.sampled_from(_PERIODIC)),
    radii=st.lists(st.floats(2.0**-10, 0.3), min_size=1, max_size=6, unique=True),
    grid=st.one_of(st.integers(1, 7), st.just(30)),
    T_max=st.integers(1, 120),
    method=st.sampled_from(["lattice", "segment"]),
)
# an even grid misses the center; only the prepended center serves 0.01
@example(kind="cat", xy=(0.75, 0.5), radii=[0.2, 0.01], grid=4, T_max=10, method="lattice")
@settings(max_examples=150, deadline=None)
def test_ball_return_times_match_per_radius_march(cat, perturbed, standard, kind, xy, radii, grid, T_max, method):
    system = {"cat": cat, "perturbed": perturbed, "standard": standard}[kind]
    x = torus(*xy)
    radii = sorted(radii, reverse=True)
    if method == "segment" and system.kind is not SystemKind.CAT_MAP:
        with pytest.raises(ValueError, match="segment"):
            ball_return_times(system, x, radii, grid=grid, T_max=T_max, method=method)
        return
    original, stepped = recurrence.step_array, []

    def counting_step(system, pts):
        stepped.append(len(pts))
        return original(system, pts)

    with mock.patch.object(recurrence, "step_array", counting_step):
        got = ball_return_times(system, x, radii, grid=grid, T_max=T_max, method=method)
        got_rows, got_calls = sum(stepped), len(stepped)
        stepped.clear()
        want = [_first_return_reference(system, x, r, grid, T_max, radii[0], method) for r in radii]
    assert got == want
    # one march never steps more rows, nor makes more calls, than one per radius
    assert got_rows <= sum(stepped) and got_calls <= len(stepped)


def _bounding_box_distances(c, T):
    """The segment distance formula over every lattice point of the longest
    segment's bounding box widened by 1, which holds the nearest one."""
    h = T[0] * _VU
    X, Y = np.meshgrid(
        np.arange(math.floor(c[0] - h[0]) - 1, math.ceil(c[0] + h[0]) + 2),
        np.arange(math.floor(c[1] - h[1]) - 1, math.ceil(c[1] + h[1]) + 2),
        indexing="ij",
    )
    dvec = np.column_stack((X.ravel(), Y.ravel())).astype(float) - c
    out = []
    for t in T:
        tproj = np.clip(dvec @ _VU, -t, t)
        rx = dvec[:, 0] - tproj * _VU[0]
        ry = dvec[:, 1] - tproj * _VU[1]
        out.append(math.sqrt(float(np.min(rx * rx + ry * ry))))
    return np.array(out)


_ORACLE_T = np.array([20.0, 7.3, 1.0, 0.1, 1e-3, 1e-12, 1e-300, 5e-324])
_EDGES = [0.0, 0.5, math.nextafter(0.5, 0.0), -math.nextafter(0.5, 0.0), 1e-300, -1e-300, 0.25]


@pytest.mark.parametrize(
    "centers",
    [
        pytest.param([(0.0, 0.0)], id="lattice-point"),
        # the wrapped cell's edges x or y = 0 and +-1/2, with one coordinate on them
        pytest.param([(a, b) for a in _EDGES for b in _EDGES], id="cell-edges"),
        pytest.param(np.random.default_rng(5).random((300, 2)) - 0.5, id="random"),
        # the nearest lattice point (0, 1) is a row off the one nearest the line at x = 0
        pytest.param([(0.45, 0.55)], id="off-row"),
        # for T <= 0.1 the origin projects past the end c - T vu, and past c + T vu
        pytest.param([(0.3, 0.2), (-0.3, -0.2)], id="clamped-ends"),
    ],
)
def test_segment_distances_match_bounding_box_oracle(centers):
    for c in np.asarray(centers, dtype=float):
        want = _bounding_box_distances(c, _ORACLE_T)
        assert recurrence._segment_lattice_distances(c, _ORACLE_T).tobytes() == want.tobytes()
        # each half-length alone builds its own, shorter candidate set
        for i in range(len(_ORACLE_T)):
            assert recurrence._segment_lattice_distances(c, _ORACLE_T[i : i + 1])[0] == want[i]


@pytest.mark.parametrize(
    "radii, grid, T_max, method, message",
    [
        ([], 3, 10, "lattice", "r > 0"),
        ([0.1, 0.2], 3, 10, "lattice", "descending"),
        ([0.1, 0.1], 3, 10, "lattice", "descending"),
        ([0.1, 0.0], 3, 10, "lattice", "r > 0"),
        ([0.1, -0.05], 3, 10, "lattice", "r > 0"),
        ([math.nan], 3, 10, "lattice", "r > 0"),
        ([0.1], 0, 10, "lattice", "grid"),
        ([0.1], 3, 0, "segment", "T_max"),
        ([0.1], 3, 10, "grid", "unknown method"),
    ],
)
def test_ball_return_times_refuses_bad_input(cat, radii, grid, T_max, method, message):
    with pytest.raises(ValueError, match=message):
        ball_return_times(cat, torus(0.1, 0.2), radii, grid=grid, T_max=T_max, method=method)


def test_recurrence_scaling_cat(cat, cat_spectrum):
    x = torus(0.7364, 0.2146)
    radii = [2.0**-e for e in range(4, 15)]
    rep = recurrence_scaling(cat, x, radii, grid=5, T_max=400, spectrum=cat_spectrum)
    assert rep.method == "segment"
    assert not rep.any_censored
    assert abs(rep.limsup_estimate - BOUND_CAT) <= 0.35 * BOUND_CAT
    assert abs(rep.bound - BOUND_CAT) <= 1e-3


def test_bound_arithmetic():
    spec = LyapunovSpectrum.from_exponents((-1.0, 1.0), 1000)
    rep_bound = 1.0 / spec.lambda_u - 1.0 / spec.lambda_s
    assert rep_bound == 2.0


def test_scaling_fixed_point(cat, cat_spectrum):
    rep = recurrence_scaling(
        cat, torus(0.0, 0.0), [2.0**-e for e in range(4, 10)], grid=3, T_max=50, spectrum=cat_spectrum
    )
    assert all(t == 1 for t in rep.tau)
    assert rep.limsup_estimate <= rep.bound


def test_scaling_shift_invariance(cat, cat_spectrum):
    # moving the base point one step along the orbit changes tau(r) by less
    # than the return time of the half-radius ball
    x = torus(0.7364, 0.2146)
    fx = torus(*step_xy(cat, *x.tolist()))
    radii = [2.0**-e for e in range(4, 11)]
    rep_x = recurrence_scaling(cat, x, radii, grid=5, T_max=600, spectrum=cat_spectrum)
    rep_fx = recurrence_scaling(cat, fx, radii, grid=5, T_max=600, spectrum=cat_spectrum)
    for r, t1, t2 in zip(radii, rep_x.tau, rep_fx.tau):
        [t_half] = ball_return_times(cat, x, [r / 2], grid=5, T_max=600, method="segment")
        assert abs(t1 - t2) <= t_half


def test_return_times_periodic_orbit(cat):
    gamma = SetSpec.ball(PERIOD3, 0.05, Space.TORUS2)
    seq = return_times(cat, PERIOD3, gamma, count_fwd=5, count_bwd=3, horizon=100)
    assert seq.forward.tolist() == [3, 6, 9, 12, 15]
    assert seq.backward.tolist() == [-3, -6, -9]
    # no forward visit asked for: the forward sequence is complete up to t_0 = 0
    seq = return_times(cat, PERIOD3, gamma, count_fwd=0, count_bwd=5, horizon=100)
    assert seq.forward.tolist() == [] and seq.horizon == 0
    assert seq.backward.tolist() == [-3, -6, -9, -12, -15]


def test_return_times_whole_torus(cat):
    x = torus(0.31, 0.62)
    gamma = SetSpec.ball(x, 0.8, Space.TORUS2)  # torus diameter is sqrt(0.5) < 0.8
    seq = return_times(cat, x, gamma, count_fwd=6, count_bwd=4, horizon=50)
    assert seq.forward.tolist() == [1, 2, 3, 4, 5, 6]
    assert seq.backward.tolist() == [-1, -2, -3, -4]


def test_return_times_requires_membership(cat):
    gamma = SetSpec.ball(torus(0.0, 0.0), 0.01, Space.TORUS2)
    with pytest.raises(PreconditionError):
        return_times(cat, torus(0.5, 0.5), gamma, 3, 3, 100)


def test_cocycle_identity(cat):
    x = torus(0.1729, 0.4104)
    gamma = SetSpec.ball(x, 0.12, Space.TORUS2)
    seq = return_times(cat, x, gamma, count_fwd=30, count_bwd=0, horizon=20_000)
    pts = orbit_array(cat, *x.tolist(), n_fwd=int(seq.forward[-1]))
    for i in range(min(10, seq.count_fwd - 1)):
        t_i = int(seq.forward[i])
        shifted = torus(pts[t_i, 0], pts[t_i, 1])
        sub = return_times(cat, shifted, gamma, count_fwd=1, count_bwd=0, horizon=20_000)
        assert int(sub.forward[0]) == int(seq.forward[i + 1]) - t_i


def test_return_times_keep_the_walked_orbit(cat):
    # the backward walk crosses a chunk restart; the forward one stops early
    x = torus(0.2, 0.3)
    seq = return_times(cat, x, SetSpec.ball(x, 0.1, Space.TORUS2), count_fwd=5, count_bwd=5000, horizon=5000)
    n_bwd, n_fwd = seq.origin, len(seq.orbit) - 1 - seq.origin
    assert n_bwd == 5000 and seq.forward[-1] <= n_fwd < 5000
    assert seq.orbit.tobytes() == orbit_array(cat, *x.tolist(), n_fwd=n_fwd, n_bwd=n_bwd).tobytes()


_wide = st.floats(-2.0, 2.0)
_far = st.sampled_from([2.0**16, -(2.0**16), 70000.25, 2.0**41, 1e17, -1e300, math.inf, math.nan])


@st.composite
def _ball_sets(draw):
    """A torus or plane ball set, possibly empty, with radii near 1/2 and
    past it, and points on cell edges, a few ulps from a circle, or far out."""
    plane = draw(st.booleans())
    coord = _wide if plane else _unit
    centers = draw(st.lists(st.tuples(coord, coord), max_size=8))
    radius = draw(st.one_of(st.floats(1e-3, 0.75), st.sampled_from([math.nextafter(0.5, 0), 0.5, 0.51])))
    pts = draw(st.lists(st.tuples(coord, coord), max_size=30))
    g = max(1, int(4.0 / max(radius, 4.0 / 256)))  # the grid SetSpec._grid uses
    for i, j in draw(st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)), max_size=20)):
        pts.append((i / g, j / g) if plane else ((i % g) / g, (j % g) / g))
    for c, angle, ux, uy in draw(
        st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2 * math.pi), st.integers(-3, 3), st.integers(-3, 3)), max_size=30)
    ):
        if not centers:
            break
        cx, cy = centers[c % len(centers)]
        p = [cx + radius * math.cos(angle), cy + radius * math.sin(angle)]
        for i, k in enumerate((ux, uy)):
            for _ in range(abs(k)):
                p[i] = math.nextafter(p[i], math.copysign(math.inf, k))
        pts.append(tuple(p) if plane else (p[0] % 1.0, p[1] % 1.0))
    # far rows: far coordinates, and on the torus a row moved by whole turns
    for f, i in draw(st.lists(st.tuples(_far, st.integers(0, 99)), max_size=6)):
        if not plane and math.isfinite(f):
            px, py = pts[i % len(pts)] if pts else (0.5, 0.5)
            pts.append((px + float(round(f)), py))
        pts.append((f, 0.25))
    space = Space.PLANE if plane else Space.TORUS2
    return SetSpec(np.array(centers, dtype=float).reshape(-1, 2), radius, space), np.array(pts, dtype=float).reshape(-1, 2)


# rim hits whose cell lies past the ball's box without the 1e-9 reach
# margin of SetSpec._grid
@given(case=_ball_sets(), chunk=st.sampled_from([1, 7, recurrence._EVENT_CHUNK]))
@example(case=(SetSpec(np.array([[0.049999999999999975, 0.5]]), 0.1), np.array([[0.15, 0.5]])), chunk=1)
@example(case=(SetSpec(np.array([[0.02499999999999998, 0.5]]), 0.1), np.array([[0.125, 0.5]])), chunk=1)
@settings(max_examples=300, deadline=None)
def test_membership_rows_match_dense_oracle(case, chunk):
    gamma, pts = case
    with np.errstate(all="ignore"), mock.patch.object(recurrence, "_EVENT_CHUNK", chunk):
        dense = gamma._dist2(pts) <= gamma.radius * gamma.radius
        got = gamma.membership_rows(pts)
        rows, balls = gamma.incidences(pts)
    assert got.dtype == bool and np.array_equal(got, dense.any(axis=1))
    want_rows, want_balls = np.nonzero(dense)
    assert np.array_equal(rows, want_rows) and np.array_equal(balls, want_balls)


def test_ball_wraps_only_on_the_torus():
    far = np.array([1.1, 0.1])
    assert not SetSpec.ball(np.array([0.1, 0.1]), 0.05, Space.PLANE).membership(far)
    assert SetSpec.ball(np.array([0.1, 0.1]), 0.05, Space.TORUS2).membership(far)


def test_far_torus_row_is_tested_against_every_ball():
    # 2^41 turns out, rounding p * g folds this hit one cell past its ball's box
    gamma = SetSpec(np.array([[0.5, 0.5]]), 0.1 - 2e-9)
    pts = np.array([[2199023255551.5999, 0.5]])
    assert (gamma._dist2(pts) <= gamma.radius * gamma.radius).all()
    assert gamma.membership_rows(pts).all()


def test_membership_rows_allocate_per_candidate():
    # a dense scan of 8192 points against 256 balls holds (n, r, 2) float
    # temporaries of about 34 MB each; the candidate index needs far less
    rng = np.random.default_rng(3)
    cover = SetSpec(rng.random((256, 2)), 0.02)
    pts = rng.random((8192, 2))
    tracemalloc.start()
    try:
        inside = cover.membership_rows(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside.any() and peak < 8 * 2**20


def test_birkhoff_whole_and_empty(cat):
    x = torus(0.2, 0.3)
    assert birkhoff_indicator_average(cat, x, SetSpec.ball(x, 0.8, Space.TORUS2), 500) == 1.0
    assert birkhoff_indicator_average(cat, x, SetSpec(np.empty((0, 2)), 0.8), 500) == 0.0


def test_birkhoff_ball_area(cat):
    # ergodic average of the indicator converges to the ball area; the
    # Monte-Carlo estimate over random points is the independent oracle
    x = torus(0.7, 0.15)
    ball = SetSpec.ball(torus(0.37, 0.52), 0.1, Space.TORUS2)
    avg = birkhoff_indicator_average(cat, x, ball, 1_000_000)
    rng = np.random.default_rng(5)
    mc = ball.membership_rows(rng.random((200_000, 2))).mean()
    area = math.pi * 0.01
    assert abs(avg - area) <= 0.005
    assert abs(mc - area) <= 0.005


def test_birkhoff_matches_return_count(cat):
    x = torus(0.1729, 0.4104)
    gamma = SetSpec.ball(x, 0.15, Space.TORUS2)
    horizon = 5000
    seq = return_times(cat, x, gamma, count_fwd=horizon, count_bwd=0, horizon=horizon)
    avg = birkhoff_indicator_average(cat, x, gamma, horizon)
    # the average counts j=0 (x itself) while returns count t in [1, horizon]
    hits_in_window = int((seq.forward <= horizon - 1).sum())
    assert abs(avg - (hits_in_window + 1) / horizon) <= 1.0 / horizon


def _periodic_sequence(q, count, horizon):
    fwd = np.arange(1, count + 1) * q
    bwd = -np.arange(1, count + 1) * q
    return ReturnTimeSequence(forward=fwd, backward=bwd, horizon=horizon)


def test_nonlacunarity_periodic():
    q = 7
    seq = _periodic_sequence(q, 60, horizon=60 * q)
    prof = nonlacunarity_profile(seq, thresholds=(20,))
    expected = (np.arange(2, 61)) / np.arange(1, 60)
    assert np.allclose(prof.ratios_fwd, expected)
    assert prof.tail_deviation[20] <= 0.05 + 1e-12  # sup attained at i=20: 21/20 - 1
    # two-sided diagonal ratios for the symmetric sequence
    assert np.allclose(prof.ratios_two_sided, expected)
    # a threshold below 1 has no tail; it would read from the last ratio
    for thresholds in ((0, 1), (-5,)):
        with pytest.raises(ValueError):
            nonlacunarity_profile(seq, thresholds=thresholds)


def test_tail_deviation_non_increasing(cat):
    x = torus(0.8314, 0.1593)
    gamma = SetSpec.ball(x, 0.15, Space.TORUS2)
    seq = return_times(cat, x, gamma, count_fwd=200, count_bwd=0, horizon=50_000)
    prof = nonlacunarity_profile(seq, thresholds=(10, 20, 50, 100))
    devs = [prof.tail_deviation[i] for i in (10, 20, 50, 100)]
    assert all(d is not None for d in devs)
    assert devs == sorted(devs, reverse=True)


def test_nonlacunarity_cat_ball(cat):
    x = torus(0.2917, 0.6204)
    gamma = SetSpec.ball(x, math.sqrt(0.05 / math.pi), Space.TORUS2)
    seq = return_times(cat, x, gamma, count_fwd=500, count_bwd=5, horizon=100_000)
    assert seq.count_fwd == 500
    prof = nonlacunarity_profile(seq, thresholds=(100,))
    assert prof.tail_deviation[100] <= 0.10


def _hit_oracle(times, horizon, epsilon, N_start):
    times = list(times)
    n_max = int(math.floor((horizon + 1) / (1.0 + epsilon)))
    if n_max < N_start:
        return None
    ok_from = None
    for n in range(N_start, n_max + 1):
        hit = any(n <= t < n * (1.0 + epsilon) for t in times)
        if not hit:
            ok_from = None
        elif ok_from is None:
            ok_from = n
    if ok_from is None:
        return None
    # every n >= ok_from passed; confirm nothing failed after it
    return ok_from if ok_from > N_start else N_start


def test_interval_hit_periodic():
    q, eps = 7, 0.2
    seq = _periodic_sequence(q, 400, horizon=400 * q)
    got = interval_hit_check(seq, eps, N_start=1)
    want = _hit_oracle(seq.forward, seq.horizon, eps, 1)
    assert got == want
    assert abs(got - math.ceil(q / eps)) <= q


def test_interval_hit_whole_space(cat):
    x = torus(0.4, 0.9)
    seq = return_times(cat, x, SetSpec.ball(x, 0.8, Space.TORUS2), count_fwd=300, count_bwd=0, horizon=300)
    assert interval_hit_check(seq, 0.5, N_start=1) == 1


@given(
    st.lists(st.integers(1, 30), min_size=3, max_size=40),
    st.floats(0.05, 1.5),
    st.integers(1, 10),
)
@settings(max_examples=120, deadline=None)
def test_interval_hit_matches_oracle(increments, epsilon, N_start):
    times = np.cumsum(np.asarray(increments, dtype=np.int64))
    horizon = int(times[-1])
    seq = ReturnTimeSequence(forward=times, backward=-times, horizon=horizon)
    got = interval_hit_check(seq, epsilon, N_start=N_start)
    want = _hit_oracle(times, horizon, epsilon, N_start)
    assert got == want


def test_interval_hit_vs_nonlacunarity(cat):
    # whenever the ratio tail is below eps/2 from index i0 on, hits exist in
    # every window [n, n(1+eps)) from t_{i0+1} onward
    rng = np.random.default_rng(40)
    eps = 0.2
    checked = 0
    for _ in range(50):
        x = torus(*rng.random(2))
        radius = rng.uniform(0.08, 0.2)
        seq = return_times(cat, x, SetSpec.ball(x, radius, Space.TORUS2), count_fwd=250, count_bwd=0, horizon=120_000)
        if seq.count_fwd < 60:
            continue
        prof = nonlacunarity_profile(seq, thresholds=(40,))
        if prof.tail_deviation[40] is None or prof.tail_deviation[40] >= eps / 2:
            continue
        start = int(seq.forward[40])
        n_max = int(math.floor((seq.horizon + 1) / (1.0 + eps)))
        for n in range(start, n_max + 1):
            idx = int(np.searchsorted(seq.forward, n, side="left"))
            assert idx < seq.count_fwd and seq.forward[idx] < n * (1.0 + eps)
        checked += 1
    assert checked >= 20


def test_radii_validation(cat, cat_spectrum):
    with pytest.raises(ValueError):
        recurrence_scaling(cat, torus(0.1, 0.2), [0.1, 0.2], 3, 50, cat_spectrum)
    with pytest.raises(ValueError):
        recurrence_scaling(cat, torus(0.1, 0.2), [0.1, 1e-8], 3, 50, cat_spectrum)
    with pytest.raises(ValueError):
        recurrence_scaling(cat, torus(0.1, 0.2), [], 3, 50, cat_spectrum)
