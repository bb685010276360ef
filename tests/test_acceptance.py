"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them)."""

import json
import math
import time

import numpy as np
import pytest

from nuspec.cli import main as cli_main
from nuspec.dynamics import CAT_EXPONENT, Point2, Space, orbit_array
from nuspec.lyapunov import lyapunov_spectrum
from nuspec.recurrence import SetSpec, interval_hit_check, nonlacunarity_profile, recurrence_scaling, return_times
from nuspec.shadowing import assemble, check_domination, newton_refine_periodic, shadowing_profile
from nuspec.specification import SlowVaryingFn, gns_certificate, ns_certificate

BOUND_CAT = 2.0 / CAT_EXPONENT


def torus(x, y):
    return Point2(x, y, Space.TORUS2)


def _report(num, message):
    print(f"PASS criterion {num}: {message}")


def test_criterion_1_lyapunov_oracle(cat):
    t0 = time.perf_counter()
    spec = lyapunov_spectrum(cat, torus(0.3141, 0.2718), N=100_000)
    elapsed = time.perf_counter() - t0
    lo, hi = spec.exponents
    assert abs(hi - 0.9624236501) <= 1e-3
    assert abs(lo + 0.9624236501) <= 1e-3
    assert elapsed < 5.0
    _report(1, f"cat spectrum ({lo:+.6f}, {hi:+.6f}) in {elapsed:.2f}s")


def test_criterion_2_recurrence_bound(cat, cat_spectrum):
    t0 = time.perf_counter()
    x = torus(0.7364, 0.2146)
    radii = [2.0**-e for e in range(4, 15)]
    rep = recurrence_scaling(cat, x, radii, grid=5, T_max=400, spectrum=cat_spectrum)
    elapsed = time.perf_counter() - t0
    assert rep.limsup_estimate <= BOUND_CAT * 1.35
    assert rep.limsup_estimate >= BOUND_CAT * 0.5
    assert elapsed < 60.0
    # censored radii are reported, never silently dropped
    assert len(rep.censored) == len(radii)
    censored = [r for r, c in zip(rep.radii, rep.censored) if c]
    _report(
        2,
        f"limsup {rep.limsup_estimate:.3f} vs bound {rep.bound:.4f} "
        f"(censored: {censored}) in {elapsed:.1f}s",
    )


def test_criterion_3_nonlacunarity(cat):
    x = torus(0.2917, 0.6204)
    gamma = SetSpec.ball(x, math.sqrt(0.05 / math.pi), Space.TORUS2)
    seq = return_times(cat, x, gamma, count_fwd=500, count_bwd=5, horizon=120_000)
    assert seq.count_fwd == 500
    prof = nonlacunarity_profile(seq, thresholds=(100,))
    dev = prof.tail_deviation[100]
    assert dev <= 0.10
    eps = 0.2
    N = interval_hit_check(seq, eps, N_start=1)
    assert N is not None
    n_max = int(math.floor((seq.horizon + 1) / (1.0 + eps)))
    for n in range(N, n_max + 1):
        idx = int(np.searchsorted(seq.forward, n, side="left"))
        assert idx < seq.count_fwd and seq.forward[idx] < n * (1.0 + eps)
    _report(3, f"tail_deviation(100) = {dev:.4f}, interval check holds from N = {N}")


def test_criterion_4_shadowing(perturbed):
    # rational cat orbit continued to the perturbed map, then re-glued as a
    # two-segment pseudo-orbit with a contracting-direction displacement
    from nuspec.shadowing import cat_rational_orbit, displaced_pseudo_orbit

    period, guess = cat_rational_orbit(30)
    arc0 = np.vstack([guess, guess[:1]])
    po0 = assemble([arc0], perturbed)
    ref = newton_refine_periodic(perturbed, po0, tol=1e-12, max_iter=40)

    po = displaced_pseudo_orbit(perturbed, ref.points, period // 2, jitter=2e-5)
    assert po.delta <= 1e-4
    assert 55 <= po.total_length <= 70
    sol = newton_refine_periodic(perturbed, po, tol=1e-11, max_iter=12)
    assert sol.residual <= 1e-11
    assert sol.newton_iters <= 12
    spec = lyapunov_spectrum(perturbed, torus(0.3141, 0.2718), N=100_000)
    prof = shadowing_profile(
        perturbed, sol, po, tau=100.0 * po.delta, epsilon=0.8 * spec.lambda_u
    )
    assert prof.passed
    _report(
        4,
        f"p={sol.period}, gap {po.delta:.2e}, residual {sol.residual:.2e} in "
        f"{sol.newton_iters} iterations, profile max ratio {prof.max_ratio:.3f}",
    )


@pytest.fixture(scope="module")
def criterion5_certificates(cat, perturbed, cat_ctx, perturbed_ctx):
    rng = np.random.default_rng(2026)
    out = {}
    for name, system, ctx in (("CatMap", cat, cat_ctx), ("PerturbedCatMap", perturbed, perturbed_ctx)):
        eta = ctx.epsilon / 10
        q = SlowVaryingFn.constant(1.0, eta)
        picks = rng.choice(len(ctx.block_points), size=10, replace=False)
        certs = {}
        for idx in picks:
            x = ctx.block_points[int(idx)][0]
            for mn in (100, 200, 400, 800):
                certs[(int(idx), mn)] = ns_certificate(
                    system, x, mn, mn, 0.05, eta, q, ctx
                )
        out[name] = (ctx, [int(i) for i in picks], certs)
    return out


def test_criterion_5_ns_certificates(criterion5_certificates):
    for name, (ctx, picks, certs) in criterion5_certificates.items():
        for mn in (100, 200, 400, 800):
            good = 0
            for idx in picks:
                cert = certs[(idx, mn)]
                assert cert.period <= cert.m + cert.n + cert.K
                assert len(cert.margins_j) == 2 * mn + 1
                if cert.in_ball:
                    assert (cert.margins_distance < cert.margins_allowance).all()
                    good += 1
            assert good >= 9, f"{name} m=n={mn}: only {good}/10 in-ball"
        _report(5, f"{name}: >= 9/10 certificates in-ball at every size, p <= m+n+K")


def test_criterion_6_sublinearity(criterion5_certificates):
    for name, (ctx, picks, certs) in criterion5_certificates.items():
        eta = ctx.epsilon / 10
        budget = 2 * eta / ctx.epsilon + 0.15
        mean_100 = np.mean([certs[(i, 100)].ratio for i in picks])
        mean_800 = np.mean([certs[(i, 800)].ratio for i in picks])
        worst_800 = max(certs[(i, 800)].ratio for i in picks)
        assert mean_800 <= mean_100
        assert worst_800 <= budget
        _report(
            6,
            f"{name}: mean K/(m+n) {mean_100:.3f} @100 -> {mean_800:.3f} @800, "
            f"max @800 {worst_800:.3f} <= {budget:.3f}",
        )


def test_criterion_7_gns(cat, mix_ctx):
    pts = [mix_ctx.block_points[i][0] for i in (0, 7, 13)]
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    segs = [(p, 60, 60) for p in pts]
    cert = gns_certificate(cat, segs, 0.1, eta, q, mix_ctx)
    assert cert.all_in_ball
    assert cert.sum_gaps <= cert.gap_budget
    assert cert.pair_bound_ok
    target = cert.gap_budget + 7
    cert2 = gns_certificate(cat, segs, 0.1, eta, q, mix_ctx, target_total_gap=target)
    assert cert2.sum_gaps == target
    assert cert2.period == sum(60 + 60 + g for g in cert2.gaps)
    assert cert2.all_in_ball
    _report(
        7,
        f"gaps {cert.gaps} (budget {cert.gap_budget}); prescribed total {target} hit "
        f"exactly with period {cert2.period}",
    )


def test_criterion_8_mixing_periods(cat, mix_ctx):
    x = mix_ctx.block_points[4][0]
    eta = mix_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    base = ns_certificate(cat, x, 100, 100, 0.1, eta, q, mix_ctx)
    floor = 200 + base.K
    periods = []
    for extra in range(5):
        cert = ns_certificate(
            cat, x, 100, 100, 0.1, eta, q, mix_ctx, connector_gap=mix_ctx.bounds.M_k + extra
        )
        assert cert.in_ball
        assert cert.period >= floor
        periods.append(cert.period)
    assert periods == list(range(periods[0], periods[0] + 5))
    _report(8, f"consecutive periods {periods} >= m+n+K = {floor}")


def test_criterion_9_domination(cat):
    pts = orbit_array(cat, 0.317, 0.203, n_fwd=40)
    vu = np.array([1.0, (math.sqrt(5) - 1) / 2])
    vs = np.array([1.0, -(math.sqrt(5) + 1) / 2])
    vu /= np.linalg.norm(vu)
    vs /= np.linalg.norm(vs)
    E = np.tile(vs, (len(pts), 1))
    F = np.tile(vu, (len(pts), 1))
    rep = check_domination(cat, pts, E, F, S0=1, lam=0.9, S_list=[1, 5, 10])
    assert rep.ok
    swapped = check_domination(cat, pts, F, E, S0=1, lam=0.9, S_list=[1, 5, 10])
    assert not swapped.ok and all(m < 0 for m in swapped.margins.values())
    _report(9, f"margins {dict((k, round(v, 4)) for k, v in rep.margins.items())}; swapped fails")


def test_criterion_10_plain_ball_reduction(cat, cat_ctx):
    x = cat_ctx.block_points[7][0]
    eta = cat_ctx.epsilon / 10
    q = SlowVaryingFn.constant(1.0, eta)
    theta = 0.05
    cert = ns_certificate(cat, x, 120, 120, theta, eta, q, cat_ctx)
    plain = np.full(241, theta)
    assert cert.margins_allowance.tolist() == plain.tolist()
    _report(10, "q == 1 allowances are bit-identical to the plain-ball radius")


def test_criterion_11_reproducibility(tmp_path):
    for exp, extra in (
        ("lyapunov", ["--set", "N=40000"]),
        ("ns-cert", ["--set", "fixed_point=true", "--set", "m=20", "--set", "n=20", "--set", "spectrum_N=20000"]),
    ):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{exp}-{tag}"
            assert cli_main([exp, "--out", str(out)] + extra) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1], f"{exp} reports differ between identical runs"
    _report(11, "byte-identical report.json across reruns (lyapunov, ns-cert)")
