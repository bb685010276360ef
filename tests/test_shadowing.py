import math

import numpy as np
import pytest

from nuspec.dynamics import Point2, Space, SystemSpec, jac_array, orbit_array, step_xy
from nuspec.errors import DegenerateOrbitError, NonConvergenceError
from nuspec.lyapunov import _transport_sweeps
from nuspec.shadowing import (
    _solve_cyclic,
    assemble,
    cat_rational_orbit,
    check_domination,
    displaced_pseudo_orbit,
    newton_refine_periodic,
    shadowing_profile,
)

CAT_A = np.array([[2, 1], [1, 1]])


def torus(x, y):
    return Point2(x, y, Space.TORUS2)


def _canonical(sol):
    # a torus solution's coordinates lie in [0, 1), never at 1.0
    assert ((sol.points >= 0.0) & (sol.points < 1.0)).all(), sol.points
    return sol


def _dyadic_cycle(cat):
    # (1/16, 0) has period 12 under the cat map; dyadic rationals make the
    # float orbit exact, so it returns to its start bit for bit
    pts = orbit_array(cat, 1 / 16, 0.0, n_fwd=12)
    assert np.array_equal(pts[-1], pts[0])
    return pts


def test_assemble_true_orbit_zero_delta(cat):
    pts = _dyadic_cycle(cat)
    po = assemble([pts[:6], pts[5:]], cat)
    assert po.delta == 0.0
    assert po.total_length == 12


def test_assemble_fixed_point_periodic(cat):
    po = assemble([orbit_array(cat, 0.0, 0.0, n_fwd=5)], cat)
    assert po.delta == 0.0


def test_assemble_junction_mismatch(cat):
    # a closed cycle whose only mismatch is a 1e-4 step at the junction into the second arc
    pts = _dyadic_cycle(cat)
    second = pts[6:].copy()
    second[0, 0] += 1e-4
    po = assemble([pts[:7], second], cat)
    assert abs(po.delta - 1e-4) < 1e-9
    assert po.total_length == 12


@pytest.mark.parametrize("arcs", [[], [np.zeros((4, 3))], [np.zeros((1, 2))], [np.zeros((4, 2)), np.zeros((1, 2))]])
def test_assemble_refuses_malformed_arcs(cat, arcs):
    with pytest.raises(ValueError):
        assemble(arcs, cat)


def test_newton_fixed_point_from_jitter(cat):
    # at the second start the last update rounds a tiny negative coordinate up to 1.0
    for jitter in ((1e-3, -1e-3), (1.257302210933933e-4, -1.3210486329130188e-4)):
        po = assemble([orbit_array(cat, *jitter, n_fwd=1)], cat)
        sol = _canonical(newton_refine_periodic(cat, po, tol=1e-12))
        assert sol.period == 1
        assert sol.residual <= 1e-12
        assert Space.TORUS2.dist(sol.points[:1], np.zeros((1, 2)))[0] <= 1e-12


def test_newton_residual_is_exact(cat):
    # a 3-cycle at the fixed point with row 1 moved by 2^-60 in x: the
    # residual is |(-2^-59, -2^-60)| = sqrt(5) 2^-60, not a wrap rounded to 0
    arc = np.zeros((4, 2))
    arc[1, 0] = 2.0**-60
    sol = newton_refine_periodic(cat, assemble([arc], cat), tol=1e-11)
    assert sol.newton_iters == 0
    assert sol.residual == 1.939479807224432e-18


def test_newton_recovers_rational_orbit(cat):
    period, pts = cat_rational_orbit(5, start=(1, 2))
    rng = np.random.default_rng(6)
    jittered = (pts + 1e-5 * rng.standard_normal(pts.shape)) % 1.0
    arc = np.vstack([jittered, jittered[:1]])
    po = assemble([arc], cat)
    sol = _canonical(newton_refine_periodic(cat, po, tol=1e-12))
    err = np.abs(sol.points * 5 - np.round(sol.points * 5)).max()
    assert err <= 1e-10 * 5
    assert np.abs(sol.points - pts).max() <= 1e-10


def test_newton_glued_perturbed_p60(perturbed):
    # scaffold: continue a rational cat orbit to the perturbed map
    period, guess = cat_rational_orbit(30)
    assert period == 60
    arc0 = np.vstack([guess, guess[:1]])
    po0 = assemble([arc0], perturbed)
    ref = _canonical(newton_refine_periodic(perturbed, po0, tol=1e-12, max_iter=40))

    po = displaced_pseudo_orbit(perturbed, ref.points, period // 2, jitter=2e-5)
    assert po.delta <= 1e-4
    sol = _canonical(newton_refine_periodic(perturbed, po, tol=1e-11, max_iter=10))
    assert sol.residual <= 1e-11
    assert sol.newton_iters <= 10
    # quadratic contraction once inside the basin
    h = sol.residual_history
    for r_prev, r_next in zip(h, h[1:]):
        if r_prev < 1e-3:
            assert r_next <= 100.0 * r_prev**2 + 1e-15


def test_newton_nonconvergence_reports_residual(cat):
    rng = np.random.default_rng(11)
    pts = rng.random((8, 2))
    arc = np.vstack([pts, pts[:1]])
    po = assemble([arc], cat)
    with pytest.raises(NonConvergenceError) as exc:
        newton_refine_periodic(cat, po, tol=1e-14, max_iter=1)
    assert exc.value.residual is not None and exc.value.residual > 1e-14


def test_newton_degenerate_orbit(standard):
    # zero-strength standard map is a parabolic twist: det(Df^p - I) == 0
    from nuspec.dynamics import SystemSpec

    twist = SystemSpec.standard_map(0.0)
    x = torus(0.1, 0.25)  # rational rotation number 1/4
    pts = orbit_array(twist, *x.tolist(), n_fwd=4)
    rng = np.random.default_rng(2)
    arc = (pts + 1e-5 * rng.standard_normal(pts.shape)) % 1.0
    po = assemble([arc], twist)
    with pytest.raises(DegenerateOrbitError):
        newton_refine_periodic(twist, po, tol=1e-11)


def _hyperbolic_cycle(lam, p, rng):
    """p step Jacobians whose product is conjugate to diag(lam, 1/lam):
    A_j = S_{j+1} D S_j^{-1} with unit shears S_j, S_0 = S_p = I, and
    D = diag(lam^(1/p), lam^(-1/p)); |det(Df^p - I)| = (lam - 1)^2 / lam."""
    shears = [np.eye(2)] + [np.array([[1.0, s], [0.0, 1.0]]) for s in rng.uniform(-1, 1, p - 1)] + [np.eye(2)]
    D = np.diag([lam ** (1.0 / p), lam ** (-1.0 / p)])
    return np.array([shears[j + 1] @ D @ np.linalg.inv(shears[j]) for j in range(p)])


@pytest.mark.parametrize("p", [1, 2, 7, 40])
def test_solve_cyclic_degeneracy_threshold(p):
    # the threshold is 1e-12: a cycle at 1e-14 is refused, one at 1e-10 solved
    rng = np.random.default_rng(p)
    rhs = rng.standard_normal((p, 2))
    with pytest.raises(DegenerateOrbitError):
        _solve_cyclic(_hyperbolic_cycle(1.0 + 1e-7, p, rng), rhs)
    jacs = _hyperbolic_cycle(1.0 + 1e-5, p, rng)
    delta = _solve_cyclic(jacs, rhs)
    resid = np.roll(delta, -1, axis=0) - np.einsum("jrc,jc->jr", jacs, delta) - rhs
    assert np.abs(resid).max() <= 1e-8 * np.abs(delta).max()
    assert np.abs(delta).max() > 1e3  # the near-singular direction is resolved, not lost


def test_solve_cyclic_exactly_singular():
    # Df = I: the factor has a zero pivot, which is a degenerate cycle too
    with pytest.raises(DegenerateOrbitError):
        _solve_cyclic(np.eye(2)[None], np.ones((1, 2)))


def test_newton_henon_fixed_point(henon):
    a, b = 1.4, 0.3
    x_fp = (-(1 - b) + math.sqrt((1 - b) ** 2 + 4 * a)) / (2 * a)
    po = assemble([orbit_array(henon, x_fp + 1e-3, b * x_fp - 1e-3, n_fwd=1)], henon)
    sol = newton_refine_periodic(henon, po, tol=1e-12)
    assert abs(sol.points[0, 0] - x_fp) <= 1e-10
    assert abs(sol.points[0, 1] - b * x_fp) <= 1e-10


def test_refinement_idempotent(cat):
    period, pts = cat_rational_orbit(7)
    arc = np.vstack([pts, pts[:1]])
    po = assemble([arc], cat)
    sol = _canonical(newton_refine_periodic(cat, po, tol=1e-11))
    arc2 = np.vstack([sol.points, sol.points[:1]])
    po2 = assemble([arc2], cat)
    again = _canonical(newton_refine_periodic(cat, po2, tol=1e-11))
    assert again.newton_iters <= 1
    assert np.abs(again.points - sol.points).max() <= 1e-11


def test_forward_consistency_small_periods(cat, perturbed):
    # f^p(z_0) returns to z_0; checked at small p where the lambda^p
    # error amplification of forward iteration stays below the budget
    tol = 1e-11
    for system, q, start in ((cat, 5, (1, 2)), (perturbed, 8, (1, 0))):
        period, pts = cat_rational_orbit(q, start=start)
        assert period <= 12
        arc = np.vstack([pts, pts[:1]])
        po = assemble([arc], system)
        sol = _canonical(newton_refine_periodic(system, po, tol=tol, max_iter=40))
        w = tuple(sol.points[0])
        for _ in range(sol.period):
            w = step_xy(system, *w)
        assert Space.TORUS2.dist(np.array([w]), sol.points[:1])[0] <= 10 * sol.period * tol


def test_cat_rationality_of_refined_orbits(cat):
    # any converged cat-map cycle has rational coordinates with denominator
    # dividing |det(A^p - I)| = |2 - tr(A^p)|
    rng = np.random.default_rng(31)
    for q, start in ((5, (1, 2)), (7, (1, 0)), (8, (1, 1))):
        period, pts = cat_rational_orbit(q, start=start)
        jittered = (pts + 1e-6 * rng.standard_normal(pts.shape)) % 1.0
        arc = np.vstack([jittered, jittered[:1]])
        po = assemble([arc], cat)
        sol = _canonical(newton_refine_periodic(cat, po, tol=1e-12, max_iter=40))
        Ap = np.linalg.matrix_power(CAT_A, period)
        denom = abs(2 - int(Ap[0, 0] + Ap[1, 1]))
        frac = np.abs(sol.points * denom - np.round(sol.points * denom))
        assert frac.max() <= 1e-9 * denom


def test_profile_of_own_orbit_passes(cat):
    period, pts = cat_rational_orbit(7)
    arc = np.vstack([pts, pts[:1]])
    po = assemble([arc], cat)
    sol = newton_refine_periodic(cat, po, tol=1e-12)
    prof = shadowing_profile(cat, sol, po, tau=1e-9, epsilon=0.9)
    assert prof.passed
    assert prof.distances.max() == 0.0


def test_profile_junction_pass_and_fail(cat):
    # dyadic rational orbit: exact float arithmetic, period 12 at q=16
    period, pts = cat_rational_orbit(16, start=(1, 0))
    assert period == 12
    arc0 = np.vstack([pts, pts[:1]])
    po0 = assemble([arc0], cat)
    ref = newton_refine_periodic(cat, po0, tol=1e-12)
    po = displaced_pseudo_orbit(cat, ref.points, period // 2, jitter=9e-5)
    assert 1e-6 < po.delta <= 1e-4
    sol = newton_refine_periodic(cat, po, tol=1e-12)
    good = shadowing_profile(cat, sol, po, tau=1e-3, epsilon=0.9)
    assert good.passed
    bad = shadowing_profile(cat, sol, po, tau=1e-7, epsilon=0.9)
    assert not bad.passed
    # violations sit at the junctions of the two segments
    junctions = {0, period // 2, period}
    assert min(abs(bad.first_fail_index - j) for j in junctions) <= 1


def test_profile_monotone_in_tau_epsilon(cat):
    period, pts = cat_rational_orbit(16, start=(1, 0))
    arc0 = np.vstack([pts, pts[:1]])
    po0 = assemble([arc0], cat)
    ref = newton_refine_periodic(cat, po0, tol=1e-12)
    po = displaced_pseudo_orbit(cat, ref.points, period // 2, jitter=9e-5)
    sol = newton_refine_periodic(cat, po, tol=1e-12)
    base = shadowing_profile(cat, sol, po, tau=1e-3, epsilon=0.9)
    assert base.passed
    assert shadowing_profile(cat, sol, po, tau=2e-3, epsilon=0.9).passed
    assert shadowing_profile(cat, sol, po, tau=1e-3, epsilon=0.5).passed


def _domination_by_jacobians(system, pts, E, F, lam, S_list):
    """Reference for check_domination: push both unit fields S steps forward
    with the Jacobians at every window start t < len(pts) - S and take the
    worst margin -2 lam - (1/S) log(|Df^S E_t| / |Df^S F_t|)."""
    jacs = jac_array(system, pts)
    margins = {}
    for S in S_list:
        worst = math.inf
        for t in range(len(pts) - S):
            v, w = E[t], F[t]
            for s in range(S):
                v = jacs[t + s] @ v
                w = jacs[t + s] @ w
            worst = min(worst, -2.0 * lam - (math.log(np.linalg.norm(v)) - math.log(np.linalg.norm(w))) / S)
        margins[S] = worst
    return all(m >= 0 for m in margins.values()), margins


@pytest.mark.parametrize(
    "system",
    [
        SystemSpec.cat_map(),
        SystemSpec.perturbed_cat_map(0.05),
        SystemSpec.perturbed_cat_map(0.12),
        SystemSpec.standard_map(1.2),
    ],
    ids=["CatMap", "PerturbedCatMap-0.05", "PerturbedCatMap-0.12", "StandardMap-1.2"],
)
@pytest.mark.parametrize("swap", [False, True])
def test_domination_matches_jacobian_loop(system, swap):
    # the stretch logs of the block sweep give the loop's margins and flags
    # on the CLI's default orbit: 40 points plus the largest S
    S_list = [1, 5, 10]
    for x in ((0.317, 0.203), (0.731, 0.562)):
        pts, vu, vs, log_u, log_s = (a[:, 0] for a in _transport_sweeps(system, np.array([x]), 0, 50))
        E, F, log_E, log_F = (vu, vs, log_u, log_s) if swap else (vs, vu, log_s, log_u)
        for lam in (0.0, 0.1, 0.9):
            rep = check_domination(log_E, log_F, S0=1, lam=lam, S_list=S_list)
            ok, margins = _domination_by_jacobians(system, pts, E, F, lam, S_list)
            assert rep.ok == ok
            assert rep.margins.keys() == margins.keys()
            assert all(abs(rep.margins[S] - margins[S]) <= 1e-9 for S in S_list)


def test_domination_cat_eigenfields(cat_eigen_logs):
    log_s, log_u = cat_eigen_logs
    rep = check_domination(log_s, log_u, S0=1, lam=0.9, S_list=[1, 5, 10])
    assert rep.ok
    expected = 2 * math.log((3 + math.sqrt(5)) / 2) - 1.8
    for S in (1, 5, 10):
        assert abs(rep.margins[S] - expected) <= 1e-9

    swapped = check_domination(log_u, log_s, S0=1, lam=0.9, S_list=[1, 5, 10])
    assert not swapped.ok
    assert all(m < 0 for m in swapped.margins.values())

    lax = check_domination(log_s, log_u, S0=1, lam=0.0, S_list=[1, 5, 10])
    assert lax.ok


@pytest.mark.parametrize(
    "n_E, n_F, S0, S_list",
    [
        (41, 41, 0, [0]),  # no window of 0 steps
        (41, 41, -2, [-1, 5]),
        (11, 11, 1, [20]),  # no window start: 11 logs hold no 20-step window
        (11, 11, 1, [5, 11]),
        (41, 40, 1, [1, 5]),  # the two fields need logs at the same points
        (3, 41, 1, [1]),
        (41, 41, 2, [1, 5]),  # S below S0
    ],
)
def test_domination_refuses_bad_input(n_E, n_F, S0, S_list):
    with pytest.raises(ValueError):
        check_domination(np.zeros(n_E), np.zeros(n_F), S0=S0, lam=0.9, S_list=S_list)


def test_domination_longest_window():
    # S = n - 1 has the one window t = 0; its margin reads the first n - 1 logs
    log_E = np.array([-1.0, -2.0, -3.0, 50.0])
    rep = check_domination(log_E, np.zeros(4), S0=1, lam=0.0, S_list=[3])
    assert rep.margins == {3: 2.0}
