import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuspec.dynamics import (
    _KINDS,
    Point2,
    Space,
    SystemSpec,
    jac_array,
    orbit_array,
    step_array,
    step_inverse_array,
    step_inverse_xy,
    step_xy,
)
from nuspec.errors import ConfigError, NonFiniteError


def test_cat_fixed_point(cat):
    assert step_xy(cat, 0.0, 0.0) == (0.0, 0.0)


def test_cat_apply_arithmetic(cat):
    # A (0.5, 0.5) = (1.5, 1.0) -> (0.5, 0.0)
    assert step_xy(cat, 0.5, 0.5) == (0.5, 0.0)


def test_henon_apply(henon):
    assert step_xy(henon, 0.0, 0.0) == (1.0, 0.0)


def test_cat_inverse_example(cat):
    assert step_inverse_xy(cat, 0.5, 0.0) == (0.5, 0.5)


# every kind of the map table: the torus maps with their roundtrip bound,
# Henon with an absolute bound on the box |x| <= 1.5, |y| <= 0.4
_ROUNDTRIP_SYSTEMS = [
    (SystemSpec.cat_map(), 1e-13),
    *((SystemSpec.perturbed_cat_map(kappa), 1e-13) for kappa in (0.05, 0.12, 0.3, 1.0)),
    (SystemSpec.standard_map(1.2), 1e-13),
    (SystemSpec.henon(1.4, 0.3), 1e-12),
]


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_round_trips(unit_rows):
    # step(inverse(p)) and inverse(step(p)) return to p, for the float and
    # the array form of every kind's closed-form inverse
    assert {system.kind for system, _ in _ROUNDTRIP_SYSTEMS} == set(_KINDS)
    for system, bound in _ROUNDTRIP_SYSTEMS:
        rows = np.array(unit_rows)
        if system.space is Space.TORUS2:
            rows = rows % 1.0
        else:
            rows = (rows - 0.5) * [3.0, 0.8]
        step, inverse, _ = system.maps()
        for there, back in ((step, inverse), (inverse, step)):
            scalar = np.array([back(*there(x, y)) for x, y in rows.tolist()])
            assert system.space.dist(scalar, rows).max() <= bound, system
        for there, back in ((step_array, step_inverse_array), (step_inverse_array, step_array)):
            batch = back(system, there(system, rows))
            assert system.space.dist(batch, rows).max() <= bound, system


def test_cat_differential_constant(cat):
    J = jac_array(cat, np.array([[0.37, 0.81]]))[0]
    assert np.array_equal(J, np.array([[2.0, 1.0], [1.0, 1.0]]))


def test_henon_differential_origin(henon):
    J = jac_array(henon, np.array([[0.0, 0.0]]))[0]
    assert np.array_equal(J, np.array([[0.0, 1.0], [0.3, 0.0]]))


def test_cat_determinant_exactly_one(cat):
    rng = np.random.default_rng(2)
    for J in jac_array(cat, rng.random((50, 2))):
        assert J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] == 1.0


def test_jacobian_finite_difference(all_systems):
    h = 1e-6
    rng = np.random.default_rng(9)
    for system in all_systems:
        sp = system.space
        for _ in range(100):
            if sp is Space.TORUS2:
                x, y = rng.random(2)
            else:
                x, y = rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)
            J = jac_array(system, np.array([[x, y]]))[0]
            for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                fp = step_xy(system, x + dx, y + dy)
                fm = step_xy(system, x - dx, y - dy)
                d0, d1 = sp.wrap(np.subtract(fp, fm))
                assert abs(d0 / (2 * h) - J[0, col]) <= 1e-5
                assert abs(d1 / (2 * h) - J[1, col]) <= 1e-5


def test_distance_examples():
    a = np.array([[0.1, 0.0], [0.3, 0.7], [0.0, 0.0]])
    b = np.array([[0.9, 0.0], [0.3, 0.7], [0.5, 0.5]])
    d = Space.TORUS2.dist(a, b)
    assert abs(d[0] - 0.2) < 1e-15
    assert d[1] == 0.0
    assert abs(d[2] - math.sqrt(0.5)) < 1e-15


def _dist_rows_reference(a, b):
    # the abs/floor/min torus distance that Space.dist must equal bit for bit
    d = np.abs(a - b)
    d -= np.floor(d)
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[..., 0], d[..., 1])


def test_distance_symmetry_and_triangle():
    dist = Space.TORUS2.dist
    rng = np.random.default_rng(3)
    a, b, c = rng.random((3, 1000, 2))
    ab = dist(a, b)
    assert np.array_equal(ab, dist(b, a))
    assert (dist(a, c) <= ab + dist(b, c) + 1e-12).all()
    # bit for bit the old formula: random, equal, half-period and mirrored
    # partners, also of points at the cell edges, and their neighbours
    edges = np.array([0.0, 1e-17, 0.25, 0.5, np.nextafter(1.0, 0.0)])
    a = np.vstack((a, np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)))
    for other in (rng.random(a.shape), a, (a + 0.5) % 1.0, 1.0 - a):
        for partner in (other, np.nextafter(other, -1.0), np.nextafter(other, 2.0)):
            assert np.array_equal(dist(a, partner), _dist_rows_reference(a, partner))


# canonical coordinates in [0, 1), whose differences the library wraps
_COORD = st.floats(0.0, 1.0, exclude_max=True)


def _wrap(d: float) -> float:
    return Space.TORUS2.wrap(np.array([d])).item()


@given(st.floats(-5, 5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_wrap_half_range(d):
    w = _wrap(d)
    assert -0.5 < w <= 0.5
    # same point on the circle
    assert abs((d - w) - round(d - w)) < 1e-9


def test_wrap_half_boundary():
    assert _wrap(0.5) == 0.5
    assert _wrap(-0.5) == 0.5
    assert _wrap(0.75) == -0.25


@given(st.floats(-5, 5, allow_nan=False) | st.tuples(_COORD, _COORD).map(lambda ab: ab[0] - ab[1]))
@example(0.1 + 2**-56)
@example(1e-17)
@example(-1e-17)
@example(0.5)
@example(-0.5)
@example(0.75)
@settings(max_examples=300, deadline=None)
def test_wrap_exact(d):
    # exactness and the range fix w: wrap(+-0.5) = 0.5, wrap(0.75) = -0.25
    w, w_neg = Space.TORUS2.wrap(np.array([d, -d])).tolist()
    # d - w is an integer exactly: the same point on the circle, no rounding
    assert (Fraction(d) - Fraction(w)).denominator == 1
    assert Fraction(-1, 2) < Fraction(w) <= Fraction(1, 2)
    if abs(w) != 0.5:
        assert w_neg == -w


def test_orbit_fixed_point(cat):
    pts = orbit_array(cat, 0.0, 0.0, n_fwd=3, n_bwd=3)
    assert pts.shape == (7, 2)
    assert (pts == 0.0).all()


def test_orbit_trivial_window(cat):
    assert orbit_array(cat, 0.123, 0.456, n_fwd=0, n_bwd=0).tolist() == [[0.123, 0.456]]


@pytest.mark.parametrize("n_fwd, n_bwd", [(-1, 0), (0, -1), (5, -2), (-2, 5)])
def test_orbit_negative_length_refused(cat, n_fwd, n_bwd):
    # a zero length is an empty direction; a negative one is refused, not
    # read as empty
    with pytest.raises(ValueError, match="orbit lengths"):
        orbit_array(cat, 0.1, 0.2, n_fwd=n_fwd, n_bwd=n_bwd)


@pytest.mark.parametrize("system", ["perturbed", "standard"])
def test_orbit_rows_are_scalar_steps(system, request):
    # every row is the scalar step (or inverse step) of its neighbour, bit for bit
    spec = request.getfixturevalue(system)
    pts = orbit_array(spec, 1.21, -0.32, n_fwd=60, n_bwd=40)
    assert pts.shape == (101, 2)
    assert tuple(pts[40]) == (1.21 % 1.0, -0.32 % 1.0)
    for i in range(41, 101):
        assert tuple(pts[i]) == step_xy(spec, *pts[i - 1].tolist())
    for i in range(39, -1, -1):
        assert tuple(pts[i]) == step_inverse_xy(spec, *pts[i + 1].tolist())


# one system of every kind; StandardMap(6) stretches hard, and Henon
# escapes from much of the box the start points are drawn from
_WALK_SYSTEMS = [
    SystemSpec.cat_map(),
    SystemSpec.perturbed_cat_map(0.05),
    SystemSpec.standard_map(6.0),
    SystemSpec.henon(1.4, 0.3),
]


def _stepped_orbit(system, x, y, n_fwd, n_bwd):
    """orbit_array's rows by one scalar step at a time, backward first."""
    start = tuple(system.space.fold(np.array([x, y], dtype=float)).tolist())
    rows = {0: start}
    for sign, step, n in ((-1, step_inverse_xy, n_bwd), (1, step_xy, n_fwd)):
        p = start
        for j in range(1, n + 1):
            p = rows[sign * j] = step(system, *p)
    return np.array([rows[j] for j in range(-n_bwd, n_fwd + 1)])


@given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0), n_fwd=st.integers(0, 80), n_bwd=st.integers(0, 80))
@settings(max_examples=150, deadline=None)
@example(x=2.0, y=0.0, n_fwd=40, n_bwd=0)  # Henon escapes forward at step 7
@example(x=0.0, y=2.0, n_fwd=0, n_bwd=40)  # and backward at step 6
def test_walks_match_stepped_oracle(x, y, n_fwd, n_bwd):
    # each direction of orbit_array is one walk, read in one np.fromiter;
    # it gives the floats of the scalar steps, bit for bit, or the error
    # of the step that escapes; and the array forms agree row for row
    assert {system.kind for system in _WALK_SYSTEMS} == set(_KINDS)
    for system in _WALK_SYSTEMS:
        try:
            want = _stepped_orbit(system, x, y, n_fwd, n_bwd)
        except NonFiniteError as err:
            with pytest.raises(NonFiniteError) as got:
                orbit_array(system, x, y, n_fwd=n_fwd, n_bwd=n_bwd)
            assert str(got.value) == str(err)
            continue
        rows = orbit_array(system, x, y, n_fwd=n_fwd, n_bwd=n_bwd)
        assert rows.tobytes() == want.tobytes()
        for batched, point in ((step_array, step_xy), (step_inverse_array, step_inverse_xy)):
            try:
                stepped = np.array([point(system, *row) for row in rows.tolist()])
            except NonFiniteError:
                continue
            assert batched(system, rows).tobytes() == stepped.tobytes()


def test_orbit_forward_example(cat):
    pts = orbit_array(cat, 0.5, 0.5, n_fwd=2)
    assert pts.tolist() == [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]]


def test_orbit_indexing_consistency(perturbed):
    pts = orbit_array(perturbed, 0.21, 0.68, n_fwd=4, n_bwd=4)
    # row i is f^(i-4)(x), row 4 is x; stepping any row forward gives the next
    assert pts[4].tolist() == [0.21, 0.68]
    nxt = np.array([step_xy(perturbed, *pts[i]) for i in range(8)])
    assert Space.TORUS2.dist(nxt, pts[1:]).max() <= 1e-9


def test_system_json_round_trip(all_systems):
    for system in all_systems:
        again = SystemSpec.from_json(system.to_json())
        assert again == system


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError) as exc:
        SystemSpec.from_json({"kind": "catmap3", "params": {}})
    assert exc.value.field == "system.kind"


def test_henon_requires_nonzero_b():
    with pytest.raises(ConfigError):
        SystemSpec.henon(1.4, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "abc", None])
def test_non_finite_or_non_numeric_params_rejected(bad):
    # json.load accepts NaN and Infinity, so a config can carry them
    for obj in (
        {"kind": "PerturbedCatMap", "params": {"kappa": bad}},
        {"kind": "StandardMap", "params": {"K_s": bad}},
        {"kind": "Henon", "params": {"a": 1.4, "b": bad}},
        {"kind": "Henon", "params": {"a": bad, "b": 0.3}},
    ):
        with pytest.raises(ConfigError) as exc:
            SystemSpec.from_json(obj)
        assert exc.value.field == "system.params"


def test_determinant_grid_check_uses_the_jacobian():
    # at this size the shear's 2 + c and 1 + c round to the same float, so
    # the computed det Df = (2 + c) - (1 + c) vanishes on the grid
    with pytest.raises(ConfigError) as exc:
        SystemSpec.perturbed_cat_map(1e17)
    assert exc.value.field == "system.params"
    SystemSpec.perturbed_cat_map(1e3)


def test_henon_escape_raises(henon):
    with pytest.raises(NonFiniteError):
        step_xy(henon, 1e30, 0.0)


# (x, y), space, folded (x, y) or the error raised; % 1.0 rounds -1e-300 up
# to 1.0, which the door folds to 0.0
_DOOR_CASES = [
    ((-0.25, 1.75), Space.TORUS2, (0.75, 0.75)),
    ((-0.0, 1.0), Space.TORUS2, (0.0, 0.0)),
    ((1.0, -0.0), Space.TORUS2, (0.0, 0.0)),
    ((-1e-300, 0.5), Space.TORUS2, (0.0, 0.5)),
    ((-0.25, 1.75), Space.PLANE, (-0.25, 1.75)),
    ((-0.0, 1e300), Space.PLANE, (-0.0, 1e300)),
    ((math.nan, 0.5), Space.TORUS2, NonFiniteError),
    ((0.5, math.inf), Space.TORUS2, NonFiniteError),
    ((-math.inf, 0.0), Space.PLANE, NonFiniteError),
]


def test_torus_canonicalization():
    for xy, space, want in _DOOR_CASES:
        if want is NonFiniteError:
            with pytest.raises(NonFiniteError):
                Point2(*xy, space)
            continue
        p = Point2(*xy, space)
        assert type(p) is np.ndarray and p.shape == (2,) and p.dtype == np.float64
        assert p.tolist() == list(want), xy
        assert [math.copysign(1.0, v) for v in p.tolist()] == [math.copysign(1.0, v) for v in want], xy


def test_step_inverse_array_rows_equal_scalar(all_systems):
    # the float and array forms of each kind's step, inverse and Jacobian
    # come from one formula and agree bit for bit
    rows = np.random.default_rng(9).random((64, 2))
    for system in all_systems:
        step, inverse, jac = system.maps()
        for batched, point in ((step_array, step), (step_inverse_array, inverse), (jac_array, jac)):
            want = np.array([point(x, y) for x, y in rows.tolist()])
            assert np.array_equal(batched(system, rows).reshape(len(rows), -1), want)


@pytest.mark.parametrize(
    "system, rows, error",
    [
        (SystemSpec.henon(1.4, 0.3), [[0.1, 0.1], [0.2, 1e49], [0.3, 1e50]], NonFiniteError),
        # forward, 1 - a x^2 passes -1e50 from row 2 on; backward no row escapes
        (SystemSpec.henon(1.4, 0.3), [[0.1, 0.1], [1e20, 0.0], [1e25, 0.0], [1e30, 0.0]], NonFiniteError),
    ],
)
def test_step_inverse_array_error_names_first_failing_row(system, rows, error):
    # in each direction the batch raises the error of its first row that
    # fails on its own, or passes when no row fails
    rows = np.array(rows)
    failing = 0
    for batched, point in ((step_inverse_array, step_inverse_xy), (step_array, step_xy)):
        first = None
        for x, y in rows:
            try:
                point(system, x, y)
            except error as err:
                first = err
                break
        if first is None:
            batched(system, rows)
            continue
        failing += 1
        with pytest.raises(error) as got:
            batched(system, rows)
        assert str(got.value) == str(first)
    assert failing, "no row fails on its own"
