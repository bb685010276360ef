import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nuspec import lyapunov
from nuspec.dynamics import (
    Point2,
    Space,
    SystemSpec,
    jac_array,
    orbit_array,
    step_xy,
)
from nuspec.errors import NonFiniteError
from nuspec.lyapunov import (
    _GENERIC,
    PesinBlockParams,
    _transport_sweeps,
    block_defects,
    block_sample,
    lyapunov_spectrum,
    pesin_block_index,
)

CAT_EXP = math.log((3 + math.sqrt(5)) / 2)


def torus(x, y):
    return Point2(x, y, Space.TORUS2)


def test_cat_spectrum_closed_form(cat_spectrum):
    lo, hi = cat_spectrum.exponents
    assert abs(hi - CAT_EXP) <= 1e-3
    assert abs(lo + CAT_EXP) <= 1e-3
    assert cat_spectrum.is_hyperbolic


def test_qr_period_invariance(cat):
    x = torus(0.61, 0.17)
    a = lyapunov_spectrum(cat, x, N=10_000, qr_period=1)
    b = lyapunov_spectrum(cat, x, N=10_000, qr_period=10)
    assert abs(a.exponents[1] - b.exponents[1]) <= 1e-6
    assert abs(a.exponents[0] - b.exponents[0]) <= 1e-6


def test_spectrum_symmetry(cat_spectrum, perturbed_spectrum):
    # both maps are area-preserving: the contracting exponent is 0 - l1, so the
    # exponents cancel exactly
    assert sum(cat_spectrum.exponents) == 0.0
    assert sum(perturbed_spectrum.exponents) == 0.0


def test_perturbed_exponent_near_cat(perturbed_spectrum):
    assert abs(perturbed_spectrum.lambda_u - 0.9624) <= 0.05


def test_sum_rule_henon(henon):
    # dissipative: the exponents sum to log|b|, to the one rounding of
    # (log|b| - l1) + l1
    spec = lyapunov_spectrum(henon, Point2(0.1, 0.1, Space.PLANE), N=40_000, transient=1000)
    assert abs(sum(spec.exponents) - math.log(0.3)) <= math.ulp(math.log(0.3))


def _gram_schmidt_exponents(system, x0, N, transient=0):
    """Reference: two tangent columns, re-orthonormalized by Gram-Schmidt
    after every step, where cancellation cannot yet eat the second column."""
    x, y = orbit_array(system, *x0.tolist(), n_fwd=transient)[-1].tolist()
    jac = system.jac()
    u1, u2, v1, v2 = 1.0, 0.0, 0.0, 1.0
    acc1 = acc2 = 0.0
    for _ in range(N):
        a11, a12, a21, a22 = jac(x, y)
        u1, u2 = a11 * u1 + a12 * u2, a21 * u1 + a22 * u2
        v1, v2 = a11 * v1 + a12 * v2, a21 * v1 + a22 * v2
        x, y = step_xy(system, x, y)
        r1 = math.hypot(u1, u2)
        u1, u2 = u1 / r1, u2 / r1
        proj = u1 * v1 + u2 * v2
        v1, v2 = v1 - proj * u1, v2 - proj * u2
        r2 = math.hypot(v1, v2)
        v1, v2 = v1 / r2, v2 / r2
        acc1 += math.log(r1)
        acc2 += math.log(r2)
    return acc1 / N, acc2 / N


@pytest.mark.parametrize(
    "system, x0, transient",
    [
        (SystemSpec.cat_map(), Point2(0.3141, 0.2718), 0),
        (SystemSpec.perturbed_cat_map(0.05), Point2(0.3141, 0.2718), 0),
        (SystemSpec.perturbed_cat_map(0.15), Point2(0.3141, 0.2718), 0),
        (SystemSpec.henon(1.4, 0.3), Point2(0.1, 0.1, Space.PLANE), 1000),
    ],
    ids=["cat", "perturbed", "perturbed-strong", "henon"],
)
def test_contracting_exponent_matches_gram_schmidt(system, x0, transient):
    # summing 1e5 logs in another grouping moves an exponent by about 2e-12,
    # so 1e-10 is as tight as the two schemes can be asked to agree
    top, low = _gram_schmidt_exponents(system, x0, 100_000, transient)
    spec = lyapunov_spectrum(system, x0, N=100_000, transient=transient)
    assert abs(spec.lambda_u - top) <= 1e-10
    assert abs(spec.exponents[0] - low) <= 1e-10


def test_transient_keeps_no_rows(cat):
    # the transient is walked, not stored: 10^6 rows would be 16 MB
    tracemalloc.start()
    try:
        lyapunov_spectrum(cat, torus(0.3141, 0.2718), N=1000, transient=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("transient", [1, 7, 1000])
def test_transient_equals_a_start_at_its_last_row(all_systems, transient):
    # x0 off the unit square on the torus: both ways must fold it alike
    for system in all_systems:
        x0 = np.array([1.1, -0.3] if system.space is Space.TORUS2 else [0.1, 0.1])
        last = orbit_array(system, *x0.tolist(), n_fwd=transient)[-1]
        spec = lyapunov_spectrum(system, x0, N=2000, transient=transient)
        assert spec.exponents == lyapunov_spectrum(system, last, N=2000).exponents


@pytest.mark.parametrize("K_s", [6.0, 12.0])
def test_standard_map_spectrum_is_hyperbolic(K_s):
    # a second Gram-Schmidt column collapses to zero here within ten steps
    spec = lyapunov_spectrum(SystemSpec.standard_map(K_s), Point2(0.3141, 0.2718), N=100_000)
    assert spec.is_hyperbolic
    assert sum(spec.exponents) == 0.0


def line_angle(u, v) -> float:
    """Acute angle between the lines spanned by u and v."""
    cross = abs(float(u[0] * v[1] - u[1] * v[0]))
    dot = abs(float(u[0] * v[0] + u[1] * v[1]))
    return math.atan2(cross, dot)


def directions(system, x, warm):
    """Expanding and contracting unit directions at x, each transported over
    warm steps toward x."""
    _, vu, vs, _, _ = _transport_sweeps(system, x[None], 0, 0, warm=warm)
    return vu[0, 0], vs[0, 0]


def test_oseledec_cat_eigendirections(cat):
    Eu, Es = directions(cat, torus(0.31, 0.27), warm=80)
    vu = np.array([1.0, (math.sqrt(5) - 1) / 2])
    vs = np.array([1.0, -(math.sqrt(5) + 1) / 2])
    assert line_angle(Eu, vu) <= 1e-8
    assert line_angle(Es, vs) <= 1e-8
    # the two eigenvectors of the symmetric cat matrix are orthogonal
    assert abs(line_angle(Eu, Es) - math.pi / 2) <= 1e-8


def test_direction_equivariance(cat, perturbed):
    rng = np.random.default_rng(21)
    for system in (cat, perturbed):
        for _ in range(100):
            x = torus(*rng.random(2))
            Eu, Es = directions(system, x, warm=60)
            fx = torus(*step_xy(system, *x.tolist()))
            Eu_next, Es_next = directions(system, fx, warm=60)
            J = jac_array(system, x[None])[0]
            assert line_angle(J @ Eu, Eu_next) <= 1e-6
            assert line_angle(J @ Es, Es_next) <= 1e-6


def test_block_index_cat_is_one(cat):
    params = PesinBlockParams(lam=0.96, mu=0.96, epsilon=0.2, window=(50, 50, 20))
    assert pesin_block_index(cat, torus(0.31, 0.27), params) == 1


def test_block_index_overclaimed_rate_is_none(cat):
    params = PesinBlockParams(lam=2.0, mu=0.96, epsilon=0.2, window=(50, 50, 20))
    assert pesin_block_index(cat, torus(0.31, 0.27), params) is None


def test_block_index_epsilon_monotone(perturbed):
    x = torus(0.41, 0.13)
    lam = mu = 0.95
    window = (80, 80, 20)
    k_small = pesin_block_index(perturbed, x, PesinBlockParams(lam, mu, 0.1, window))
    k_large = pesin_block_index(perturbed, x, PesinBlockParams(lam, mu, 0.2, window))
    assert k_small is not None and k_large is not None
    assert k_large <= k_small


def test_block_nesting(perturbed):
    params = PesinBlockParams(lam=0.95, mu=0.95, epsilon=0.095, window=(100, 100, 30))
    x = torus(0.87, 0.44)
    k = pesin_block_index(perturbed, x, params)
    assert k is not None
    # the largest of the three defects at x is within epsilon * k' for every k' >= k
    worst = max(float(d[0]) for d in block_defects(perturbed, x[None], params))
    for k_prime in (k, k + 1, k + 7, 60):
        assert worst <= params.epsilon * k_prime + 1e-12


def test_block_drift(perturbed):
    # index of f(x) and f^{-1}(x) exceeds the index of x by at most 1
    params = PesinBlockParams(lam=0.95, mu=0.95, epsilon=0.095, window=(100, 100, 25))
    samples = block_sample(perturbed, params, 100, seed=13, spacing=37)
    checked = 0
    for x, k in samples:
        if k is None:
            continue
        for neighbor in (torus(*step_xy(perturbed, *x.tolist())), torus(*step_xy(perturbed, *x.tolist(), forward=False))):
            k_n = pesin_block_index(perturbed, neighbor, params)
            assert k_n is not None and k_n <= k + 1
        checked += 1
    assert checked >= 90


def test_block_sample_cat_all_small_index(cat):
    params = PesinBlockParams(lam=0.96, mu=0.96, epsilon=0.096, window=(100, 100, 25))
    samples = block_sample(cat, params, 200, seed=3)
    assert all(k is not None and k <= 3 for _, k in samples)


def test_block_sample_single(cat):
    params = PesinBlockParams(lam=0.96, mu=0.96, epsilon=0.096, window=(50, 50, 10))
    samples = block_sample(cat, params, 1, seed=4)
    assert len(samples) == 1
    assert samples[0][1] is not None


def test_block_fraction_monotone_in_epsilon(perturbed):
    fractions = []
    for eps_ratio in (0.05, 0.1, 0.2):
        eps = eps_ratio * 0.95
        params = PesinBlockParams(lam=0.95, mu=0.95, epsilon=eps, window=(100, 100, 20))
        samples = block_sample(perturbed, params, 30, seed=8)
        fractions.append(sum(k is not None for _, k in samples) / len(samples))
    assert fractions[0] <= fractions[1] <= fractions[2]


def test_params_from_spectrum_convention(cat_spectrum):
    params = PesinBlockParams.from_spectrum(cat_spectrum)
    assert params.lam == abs(cat_spectrum.lambda_s)
    assert params.mu == cat_spectrum.lambda_u
    assert abs(params.epsilon - 0.1 * min(params.lam, params.mu)) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        PesinBlockParams(lam=1.0, mu=1.0, epsilon=0.3)  # epsilon >= min/4


# ---------------------------------------------------------------------------
# batched transport sweeps against a per-point scalar reference


def _unit(v):
    n = np.hypot(v[0], v[1])
    v = v / n
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = -v
    return v


def _scalar_sweeps(system, x, y, jmin, jmax, warm=64):
    """One point at a time: scalar orbit steps, a 2x2 product per step, the
    Jacobian forward and its adjugate backward."""
    n_bwd, n_fwd = warm - jmin, jmax + warm
    total = n_bwd + n_fwd + 1
    pts = np.empty((total, 2))
    pts[n_bwd] = (x % 1.0, y % 1.0)
    for i in range(n_bwd + 1, total):
        pts[i] = step_xy(system, *pts[i - 1])
    for i in range(n_bwd - 1, -1, -1):
        pts[i] = step_xy(system, *pts[i + 1], forward=False)
    jacs = jac_array(system, pts)
    vu = np.empty((total, 2))
    vu[0] = _unit(_GENERIC)
    for t in range(total - 1):
        vu[t + 1] = _unit(jacs[t] @ vu[t])
    vs = np.empty((total, 2))
    vs[-1] = _unit(_GENERIC)
    for t in range(total - 2, -1, -1):
        (a11, a12), (a21, a22) = jacs[t]
        vs[t] = _unit(np.array([[a22, -a12], [-a21, a11]]) @ vs[t + 1])
    sl = slice(warm, n_bwd + jmax + 1)
    return pts[sl], vu[sl], vs[sl]


@pytest.mark.parametrize(
    "system",
    [SystemSpec.cat_map(), SystemSpec.perturbed_cat_map(0.05), SystemSpec.perturbed_cat_map(0.12), SystemSpec.standard_map(1.2)],
    ids=["cat", "perturbed", "perturbed-strong", "standard"],
)
def test_transport_sweeps_batched_equals_scalar(system):
    base = np.random.default_rng(21).random((9, 2))
    pts, vu, vs, log_u, log_s = _transport_sweeps(system, base, -40, 30)
    assert pts.shape == (71, 9, 2) and log_u.shape == log_s.shape == (71, 9)
    for p, (x, y) in enumerate(base):
        ref = _scalar_sweeps(system, x, y, -40, 30)
        for got, want in zip((pts[:, p], vu[:, p], vs[:, p]), ref):
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "system", [SystemSpec.perturbed_cat_map(0.12), SystemSpec.standard_map(1.2)], ids=["perturbed-strong", "standard"]
)
def test_block_defects_batched_equals_single(system):
    # the (m, n) reduction runs one m row at a time over all points; every
    # point's defects must be the ones it gets alone, bit for bit
    params = PesinBlockParams(lam=0.9, mu=0.9, epsilon=0.09, window=(40, 40, 10))
    base = np.random.default_rng(8).random((150, 2))
    batched = np.column_stack(block_defects(system, base, params))
    single = np.vstack([np.column_stack(block_defects(system, row[None], params)) for row in base])
    assert batched.tobytes() == single.tobytes()


# block indices of the ninety-point sample below; a change to the block sweep's
# floats that moves an index across a multiple of epsilon shows here
BLOCK_SAMPLE_PIN = [
    5, 5, 2, 8, 12, 3, 6, 9, 17, 18, 11, 1, 1, 5, 2, 6, 5, 4, 4, 6, 1, 3, 5, 6, 8, 5, 4, 4, 1, 6,
    1, 2, 4, 1, 1, 5, 9, 10, 7, 4, 6, 1, 5, 5, 5, 7, 7, 2, 6, 5, 6, 6, 5, 2, 1, 3, 6, 10, 13, 9,
    5, 3, 2, 5, 1, 4, 5, 3, 2, 5, 3, 6, 1, 7, 6, 1, 3, 7, 6, 3, 2, 4, 3, 1, 1, 1, 3, 1, 1, 1,
]


def test_block_sample_matches_pointwise_index():
    # ninety points classified in one sweep each get the index they get on
    # their own; the strong perturbation spreads the indices
    system = SystemSpec.perturbed_cat_map(0.12)
    params = PesinBlockParams(lam=0.9, mu=0.9, epsilon=0.09, window=(60, 60, 15))
    samples = block_sample(system, params, 90, seed=5, spacing=11)
    assert [k for _, k in samples] == BLOCK_SAMPLE_PIN
    for x, k in samples:
        assert pesin_block_index(system, x, params) == k


# block-index histogram of StandardMap(6)'s seed-0 context: 66 points
# classified with indices 9..60, 34 with none
STANDARD6_BLOCK_HISTOGRAM = {
    9: 2, 11: 1, 14: 1, 15: 2, 17: 2, 18: 1, 19: 1, 20: 3, 22: 1, 23: 6, 24: 3, 26: 3, 27: 4,
    28: 3, 29: 1, 30: 1, 31: 2, 32: 2, 33: 1, 34: 2, 35: 2, 36: 1, 38: 2, 40: 1, 41: 1, 42: 2,
    43: 2, 44: 3, 45: 2, 46: 1, 48: 1, 49: 1, 52: 1, 53: 1, 54: 1, 59: 1, 60: 1, None: 34,
}


def test_block_histogram_standard_map_pinned():
    # the non-uniform regime, with the params build_cover_context measures
    # at seed 0: the spectrum from default_rng(0), block samples from seed 1
    system = SystemSpec.standard_map(6.0)
    spectrum = lyapunov_spectrum(system, np.random.default_rng(0).random(2), N=100_000, qr_period=10)
    params = PesinBlockParams.from_spectrum(spectrum, epsilon_ratio=0.1, window=(200, 200, 50))
    samples = block_sample(system, params, 100, seed=1)
    assert Counter(k for _, k in samples) == Counter(STANDARD6_BLOCK_HISTOGRAM)


def test_parallel_direction_fields_have_no_index(monkeypatch, cat):
    # coinciding fields put the angle defect at +inf: no k holds, and no
    # floating-point warning or error escapes
    sweeps = lyapunov._transport_sweeps

    def parallel(*args, **kwargs):
        pts, vu, _, log_u, log_s = sweeps(*args, **kwargs)
        return pts, vu, vu, log_u, log_s

    monkeypatch.setattr(lyapunov, "_transport_sweeps", parallel)
    params = PesinBlockParams(lam=0.96, mu=0.96, epsilon=0.096, window=(50, 50, 10))
    x = torus(0.31, 0.27)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert block_defects(cat, x[None], params)[2].tolist() == [math.inf]
        assert pesin_block_index(cat, x, params) is None
        assert [k for _, k in block_sample(cat, params, 5, seed=4)] == [None] * 5


def test_block_sample_error_is_first_points(henon):
    # every backward Henon orbit escapes; the error must be the first sampled
    # point's own, whichever point of the sample escapes first
    params = PesinBlockParams(lam=1.6, mu=0.4, epsilon=0.09)
    with pytest.raises(NonFiniteError) as batched:
        block_sample(henon, params, 50, seed=3)
    x, y = np.random.default_rng(3).random(2)
    for _ in range(200):
        x, y = step_xy(henon, x, y)
    with pytest.raises(NonFiniteError) as single:
        pesin_block_index(henon, Point2(x, y, Space.PLANE), params)
    assert str(batched.value) == str(single.value)


# the lyapunov experiment at its defaults and a context's spectrum (its seed
# point, spectrum_N = 100 000), for each kind; prints their exponents in hex
_SPECTRA = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
from nuspec import cli
from nuspec.dynamics import Space, SystemSpec
from nuspec.lyapunov import lyapunov_spectrum

def spectra():
    out = []
    for obj in json.loads(SYSTEMS):
        system = SystemSpec.from_json(obj)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({"system": obj, "seed": 0}))
            assert cli.main(["lyapunov", "--config", str(config), "--out", tmp + "/out"]) == 0
            report = json.loads((Path(tmp) / "out" / "report.json").read_text())
        out.append([float.hex(e) for e in report["results"]["exponents"]])
        if system.space is Space.TORUS2:
            spec = lyapunov_spectrum(system, np.random.default_rng(0).random(2), N=100_000, qr_period=10)
            out.append([float.hex(e) for e in spec.exponents])
    return out
"""

_SIMD_SYSTEMS = [
    SystemSpec.cat_map(),
    SystemSpec.perturbed_cat_map(0.05),
    SystemSpec.standard_map(6.0),
    SystemSpec.henon(1.4, 0.3),
]


def test_spectra_do_not_depend_on_numpys_simd_path():
    # numpy picks its cos kernel by CPU; with its AVX-512 paths switched off
    # the spectrum's array Jacobians must still give the exponents of this
    # process, bit for bit (numpy ignores a feature name it does not know)
    systems = json.dumps([s.to_json() for s in _SIMD_SYSTEMS])
    ns = {"SYSTEMS": systems}
    exec(_SPECTRA, ns)
    want = ns["spectra"]()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    code = f"SYSTEMS = {systems!r}\n{_SPECTRA}\nprint(json.dumps(spectra()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == want
