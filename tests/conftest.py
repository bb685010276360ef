"""Shared fixtures; the certificate contexts are expensive (long sampling
orbits) and session-scoped so the module tests and the acceptance suite
reuse the same ones."""

import math

import numpy as np
import pytest

from nuspec import cli, specification
from nuspec.dynamics import Point2, SystemSpec
from nuspec.lyapunov import lyapunov_spectrum
from nuspec.shadowing import newton_refine_periodic
from nuspec.specification import build_cover_context

CAT_A = ((2, 1), (1, 1))


@pytest.fixture(scope="session")
def cat():
    return SystemSpec.cat_map()


@pytest.fixture(scope="session")
def perturbed():
    return SystemSpec.perturbed_cat_map(0.05)


@pytest.fixture(scope="session")
def standard():
    return SystemSpec.standard_map(1.2)


@pytest.fixture(scope="session")
def henon():
    return SystemSpec.henon(1.4, 0.3)


@pytest.fixture(scope="session")
def all_systems(cat, perturbed, standard, henon):
    return [cat, perturbed, standard, henon]


@pytest.fixture(scope="session")
def cat_spectrum(cat):
    return lyapunov_spectrum(cat, Point2(0.3141, 0.2718), N=100_000)


@pytest.fixture(scope="session")
def perturbed_spectrum(perturbed):
    return lyapunov_spectrum(perturbed, Point2(0.3141, 0.2718), N=100_000)


@pytest.fixture(scope="session")
def cat_ctx(cat):
    return build_cover_context(
        cat, theta=0.05, seed=11, block_samples=200, sampling_orbit_length=400_000
    )


@pytest.fixture(scope="session")
def perturbed_ctx(perturbed):
    return build_cover_context(
        perturbed, theta=0.05, seed=11, block_samples=200, sampling_orbit_length=400_000
    )


@pytest.fixture(scope="session")
def mix_ctx(cat):
    # coarser cover: few balls keep the mixing-mode level scan, which walks
    # every gap from h_cap down, and the r^2 connector checks cheap
    return build_cover_context(
        cat,
        theta=0.1,
        seed=7,
        block_samples=100,
        sampling_orbit_length=200_000,
        mixing_mode=True,
        delta=0.2,
    )


@pytest.fixture(scope="session")
def cat_eigen_logs():
    """Per-step stretch logs (log lambda_s, log lambda_u) of the cat map's
    constant eigenfields at the 41 points of a 40-step orbit."""
    return np.full(41, math.log((3 - math.sqrt(5)) / 2)), np.full(41, math.log((3 + math.sqrt(5)) / 2))


@pytest.fixture
def newton_solutions(monkeypatch):
    """The solution rows of every cyclic Newton refinement that the
    certificate code and the CLI run during the test, in call order."""
    found = []

    def recording(*args, **kwargs):
        sol = newton_refine_periodic(*args, **kwargs)
        found.append(sol.points)
        return sol

    for module in (specification, cli):
        monkeypatch.setattr(module, "newton_refine_periodic", recording)
    return found


def _mat_vec(M, v):
    return M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1]


def _cat_exact_distance(Z) -> float:
    """Largest torus distance between the rows of a float cat-map cycle Z,
    a (p, 2) array, and the exact periodic orbit that they stand for.

    The integer carries k_j = round(A z_j - z_{j+1}) (indices mod p) fix the
    exact orbit z*_{j+1} = A z*_j - k_j, so (A^p - I) z*_0 = s with
    s = sum_j A^(p-1-j) k_j.  That is solved in Python ints over
    D = |det(A^p - I)|, and the numerators n_{j+1} = A n_j mod D are walked
    around the cycle."""
    Z = np.asarray(Z, dtype=float)
    p = len(Z)
    carries = np.rint(Z @ np.array(CAT_A).T - np.roll(Z, -1, axis=0)).astype(np.int64).tolist()
    s = (0, 0)
    Ap = ((1, 0), (0, 1))
    for k in carries:
        s = tuple(a + b for a, b in zip(_mat_vec(CAT_A, s), k))
        Ap = tuple(zip(*(_mat_vec(CAT_A, col) for col in zip(*Ap))))
    (a, b), (c, d) = Ap
    det = (a - 1) * (d - 1) - b * c
    D = abs(det)
    sign = 1 if det > 0 else -1
    num = tuple(sign * v % D for v in _mat_vec(((d - 1, -b), (-c, a - 1)), s))
    worst = 0.0
    for row in Z.tolist():
        gap = [z - n / D for z, n in zip(row, num)]
        worst = max(worst, math.hypot(*(g - round(g) for g in gap)))
        num = tuple(v % D for v in _mat_vec(CAT_A, num))
    return worst


@pytest.fixture(scope="session")
def cat_exact_distance():
    return _cat_exact_distance


def random_points(rng, count, space):
    return [Point2(float(a), float(b), space) for a, b in rng.random((count, 2))]
