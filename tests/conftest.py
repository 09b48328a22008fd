import numpy as np
import pytest

from rssd.lti import CompensatorBank, FrequencyGrid, PlantSet, StateSpacePlant


@pytest.fixture
def grid():
    return FrequencyGrid.default()


@pytest.fixture
def coarse_grid():
    return FrequencyGrid(np.logspace(-2, 3, 120))


def random_stable_siso(rng, max_order=3) -> StateSpacePlant:
    """Random strictly proper stable SISO plant with poles in [-5, -0.1]."""
    n = int(rng.integers(1, max_order + 1))
    poles = -rng.uniform(0.1, 5.0, size=n)
    A = np.diag(poles)
    B = rng.normal(0.0, 1.0, size=(n, 1))
    C = rng.normal(0.0, 1.0, size=(1, n))
    return StateSpacePlant(A, B, C, np.zeros((1, 1)))


def random_siso(rng, max_order=2) -> StateSpacePlant:
    """Random SISO plant whose poles may be unstable but stay off the axis."""
    n = int(rng.integers(1, max_order + 1))
    poles = rng.uniform(0.2, 4.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    A = np.diag(poles)
    B = rng.normal(0.0, 1.0, size=(n, 1))
    C = rng.normal(0.0, 1.0, size=(1, n))
    return StateSpacePlant(A, B, C, np.zeros((1, 1)))


def identity_banks(m, r):
    return CompensatorBank.identity(m, "in"), CompensatorBank.identity(r, "out")


def mimo_family(seed, members):
    """Seeded 3-input x 5-output family of order-8 plants with two RHP poles:
    A = T diag(p) T' with each member scaling every pole by 1 + 0.1 U(-1, 1),
    shared B ~ N(0, 1), C = 5 N(0, 1), D = 0; the seed orders the members."""
    n, m, r = 8, 3, 5
    rng = np.random.default_rng(3)
    T, _ = np.linalg.qr(rng.normal(size=(n, n)))
    poles = np.concatenate([[1.0, 0.5], -rng.uniform(0.5, 4.0, n - 2)])
    B = rng.normal(size=(n, m))
    C = 5.0 * rng.normal(size=(r, n))
    scales = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(members, n))
    order = np.random.default_rng(seed).permutation(members)
    return PlantSet(tuple(
        StateSpacePlant(T @ np.diag(poles * scales[k]) @ T.T, B, C,
                        np.zeros((r, m)), f"member{k}")
        for k in order))
