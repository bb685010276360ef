"""Shared fixtures; the certificate contexts are expensive (long sampling
orbits) and session-scoped so the module tests and the acceptance suite
reuse the same ones."""

import pytest

from nuspec.dynamics import Point2, SystemSpec
from nuspec.lyapunov import lyapunov_spectrum
from nuspec.specification import build_cover_context


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


def random_points(rng, count, space):
    return [Point2(float(a), float(b), space) for a, b in rng.random((count, 2))]
