import numpy as np
import pytest

from rssd.lti import (
    CompensatorBank,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    eval_response,
    is_imag_axis,
)
from rssd.vgap import paraconjugate


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


def static(k):
    return StateSpacePlant.from_gain(np.array([[float(k)]]), label=f"k{k}")


def oscillator(w, T=np.eye(2)):
    """1/(s^2 + w^2), poles at +-j w, in the state basis T x."""
    Ti = np.linalg.inv(T)
    return StateSpacePlant(T @ [[0.0, 1.0], [-w * w, 0.0]] @ Ti,
                           T @ [[0.0], [1.0]], [[1.0, 0.0]] @ Ti, [[0.0]],
                           f"osc{w}")


def degenerate_catalogue():
    """16 SISO plants at the edges of what the library takes, five of them
    static (n = 0)."""
    T = np.array([[1.0, 0.4], [-0.3, 2.0]])
    Ti = np.linalg.inv(T)
    hidden = np.diag([1.0, -1.0])  # the unstable mode is uncontrollable
    B, C = np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]])
    return {
        "zero": static(0.0), "one": static(1.0), "minus-one": static(-1.0),
        "lag": StateSpacePlant.siso(-1.0), "unstable": StateSpacePlant.siso(1.0),
        "integrator": StateSpacePlant.siso(0.0), "oscillator": oscillator(1.0),
        "zero-B": StateSpacePlant([[-1.0]], [[0.0]], [[1.0]], [[0.0]]),
        "zero-C": StateSpacePlant([[-1.0]], [[1.0]], [[0.0]], [[0.0]]),
        "hidden-diagonal": StateSpacePlant(hidden, B, C, [[0.0]]),
        "hidden-mixed": StateSpacePlant(T @ hidden @ Ti, T @ B, C @ Ti, [[0.0]]),
        "feedthrough": StateSpacePlant([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
        "huge": static(1e150), "tiny": static(1e-150),
        "fast": StateSpacePlant.siso(-1e8, 1e8),
        "slow": StateSpacePlant.siso(-1e-8, 1e-8),
    }


def identity_banks(m, r):
    return CompensatorBank.identity(m), CompensatorBank.identity(r)


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


def oscillator_family(rng):
    """Three 3-output x 2-input order-4 plants sharing B, C and a state
    basis: poles (0.7, -1, -1.5, -2), (+-2j, 0.7, -1.5) and
    (0.8, 0.3, -1.5, -2.5)."""
    T, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    B, C = rng.normal(size=(4, 2)), rng.normal(size=(3, 4))
    oscillator = np.diag([0.0, 0.0, 0.7, -1.5])
    oscillator[0, 1], oscillator[1, 0] = 2.0, -2.0
    return PlantSet(tuple(
        StateSpacePlant(T @ block @ T.T, B, C, np.zeros((3, 2)))
        for block in (np.diag([0.7, -1.0, -1.5, -2.0]), oscillator,
                      np.diag([0.8, 0.3, -1.5, -2.5]))))


def eig_counts(plant):
    """(open-RHP count, imaginary-axis count) of the eigenvalues of A."""
    eig = np.linalg.eigvals(plant.A)
    axis = is_imag_axis(eig)
    return int(np.count_nonzero(~axis & (eig.real > 0))), int(np.count_nonzero(axis))


def reference_winding(p1, p2, indent=1e-3, radius=1e6, num=4000):
    """Winding number of det(I + P2~ P1) from densely sampled phase.

    The contour runs up the imaginary axis from -j radius to j radius,
    indented right around the axis poles of P1 and P2~, and closes along the
    right semicircle of that radius.
    """
    p2t = paraconjugate(p2)
    poles = [lam.imag for p in (p1, p2t) if p.n for lam in np.linalg.eigvals(p.A)
             if abs(lam.real) < 1e-9]
    w = np.logspace(-6, np.log10(radius), num)
    axis = np.concatenate([-w[::-1], [0.0], w])
    pieces, lo = [], -np.inf
    for w0 in sorted(set(np.round(poles, 9))):
        pieces.append(1j * axis[(axis > lo) & (axis < w0 - indent)])
        theta = np.linspace(-np.pi / 2, np.pi / 2, 200)
        pieces.append(1j * w0 + indent * np.exp(1j * theta))
        lo = w0 + indent
    pieces.append(1j * axis[axis > lo])
    pieces.append(radius * np.exp(1j * np.linspace(np.pi / 2, -np.pi / 2, 2000)))
    s = np.concatenate(pieces)
    det = np.linalg.det(np.eye(p1.m) + eval_response(p2t, s) @ eval_response(p1, s))
    steps = np.angle(det[1:] / det[:-1])
    assert np.max(np.abs(steps)) < np.pi / 2, "reference contour too coarse"
    # the closed path runs clockwise around the right half-plane
    return int(np.rint(-steps.sum() / (2.0 * np.pi)))


def reference_condition(p1, p2):
    """Vinnicombe's winding index wno det(I + P2~ P1) + eta(P1) - eta(P2)
    - eta_0(P2), from the dense-phase winding number and the eigenvalues of
    each plant's A; the nu-gap's condition holds iff it is 0."""
    (eta1, _), (eta2, eta0_2) = eig_counts(p1), eig_counts(p2)
    return reference_winding(p1, p2) + eta1 - eta2 - eta0_2
