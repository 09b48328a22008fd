import warnings
from collections import Counter

import numpy as np
import pytest

import rssd.vgap
from conftest import random_siso, random_stable_siso
from rssd.errors import ComputationFailed, DetVanishesOnContour, DimensionMismatch
from rssd.lti import FrequencyGrid, PlantSet, StateSpacePlant, cascade, eval_response
from rssd.scp import j1_fitness, sampled_member
from rssd.vgap import (
    COARSE_STRIDE,
    TIE_RTOL,
    SampledPlant,
    VgapResult,
    central_from_matrix,
    central_plant,
    gap_matrix,
    nu_gap,
    paraconjugate,
    pole_counts,
    sample,
    winding_number_det,
)


def static(k):
    return StateSpacePlant.from_gain(np.array([[float(k)]]), label=f"k{k}")


def static_gap(k1, k2):
    return abs(k1 - k2) / np.sqrt((1 + k1 ** 2) * (1 + k2 ** 2))


def random_plant(rng, m, r, unstable, order=3):
    """Random plant with orthogonally mixed real poles and a feedthrough."""
    poles = rng.uniform(0.3, 4.0, size=order)
    poles *= np.where(rng.random(order) < 0.5, 1.0, -1.0) if unstable else -1.0
    q, _ = np.linalg.qr(rng.normal(size=(order, order)))
    return StateSpacePlant(q @ np.diag(poles) @ q.T, rng.normal(size=(order, m)),
                           rng.normal(size=(r, order)),
                           0.3 * rng.normal(size=(r, m)))


def random_family(rng, size, m, r, order=4):
    """Members sharing B, C and a state basis, with one unstable pole; each
    member moves every pole by up to 10%, so most pairs are closer than 1."""
    q, _ = np.linalg.qr(rng.normal(size=(order, order)))
    poles = -rng.uniform(0.5, 4.0, size=order)
    poles[0] = 1.0
    B = rng.normal(size=(order, m))
    C = rng.normal(size=(r, order))
    return PlantSet(tuple(
        StateSpacePlant(q @ np.diag(poles * (1 + 0.1 * rng.uniform(-1, 1, order)))
                        @ q.T, B, C, np.zeros((r, m)), f"member{k}")
        for k in range(size)))


def mixed_pair(rng, m, r, order=4):
    """A stable and an unstable plant sharing B, C and D != 0, whose slowest
    pole crosses the axis (+-0.05); their nu-gap condition holds."""
    q, _ = np.linalg.qr(rng.normal(size=(order, order)))
    poles = -rng.uniform(0.5, 4.0, size=order)
    B, C = rng.normal(size=(order, m)), rng.normal(size=(r, order))
    D = 0.3 * rng.normal(size=(r, m))
    pair = []
    for sign in (1.0, -1.0):
        p = poles * (1 + 0.1 * rng.uniform(-1, 1, order))
        p[0] = 0.05 * sign
        pair.append(StateSpacePlant(q @ np.diag(p) @ q.T, B, C, D))
    return pair


def axis_chain(rng, size, m, r, order=4):
    """Members sharing B, C and D != 0 whose first pole walks from +0.7 to
    -0.6: neighbours are close, while members far apart across the axis
    fail the winding condition and read 1."""
    q, _ = np.linalg.qr(rng.normal(size=(order, order)))
    poles = -rng.uniform(0.5, 4.0, size=order)
    B, C = rng.normal(size=(order, m)), rng.normal(size=(r, order))
    D = 0.3 * rng.normal(size=(r, m))
    plants = []
    for first in np.linspace(0.7, -0.6, size):
        p = poles * (1 + 0.1 * rng.uniform(-1, 1, order))
        p[0] = first
        plants.append(StateSpacePlant(q @ np.diag(p) @ q.T, B, C, D))
    return PlantSet(tuple(plants))


def svd_factors(resp):
    """(I + P P*)^(-1/2) and (I + P* P)^(-1/2) per point from a full SVD."""
    u, s, vh = np.linalg.svd(resp)
    k = s.shape[1]

    def factor(vecs, size):
        d = np.ones((resp.shape[0], size))
        d[:, :k] = 1.0 / np.sqrt(1.0 + s ** 2)
        return (vecs * d[:, None, :]) @ vecs.conj().swapaxes(1, 2)

    return factor(u, resp.shape[1]), factor(vh.conj().swapaxes(1, 2), resp.shape[2])


def svd_psi(p1, p2, omegas):
    """sigma_max of Psi(P1(jw), P2(jw)) from SVDs only."""
    s = 1j * np.asarray(omegas, dtype=float)
    r1, r2 = eval_response(p1, s), eval_response(p2, s)
    psi = svd_factors(r2)[0] @ (r1 - r2) @ svd_factors(r1)[1]
    return np.linalg.svd(psi, compute_uv=False)[:, 0]


def golden_grid_peak(f_batch, grid, max_refined=8, rel_tol=1e-4, rounds=40):
    """Reference peak search: each grid-local maximum polished by one-point
    golden-section steps in log-frequency (the engine before batched
    refinement), at most ``rounds`` steps to a bracket within ``rel_tol``."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def golden_max(f, a, b):
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(rounds):
            if (b - a) <= rel_tol * max(abs(a), abs(b), 1e-300):
                break
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        return (c, fc) if fc >= fd else (d, fd)

    def f_scalar(w):
        return float(f_batch(np.array([w]))[0])

    pts = grid.points
    vals = np.asarray(f_batch(pts), dtype=float)
    best_v = vals.max()
    interior = np.arange(1, pts.size - 1)
    is_max = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    cand = list(interior[is_max])
    if vals[0] >= vals[1]:
        cand.append(0)
    if vals[-1] >= vals[-2]:
        cand.append(pts.size - 1)
    cand.sort(key=lambda i: -vals[i])
    for i in cand[:max_refined]:
        lo, hi = pts[max(i - 1, 0)], pts[min(i + 1, pts.size - 1)]
        if lo > 0:
            _, v = golden_max(lambda t: f_scalar(10.0 ** t), np.log10(lo), np.log10(hi))
        else:
            _, v = golden_max(f_scalar, lo, hi)
        best_v = max(best_v, v)
    return float(best_v)


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


def seeded_families():
    """The 24 families of the bitwise pruning test, then those seeded 43
    (five members, well-separated rows) and 47 (three members)."""
    for seed in range(24):
        rng = np.random.default_rng(200 + seed)
        size = 1 + seed % 6
        m, r = (1, 1) if seed % 12 < 6 else (3, 5)
        if seed < 12:
            D = 0.3 * rng.normal(size=(r, m))
            yield PlantSet(tuple(StateSpacePlant(p.A, p.B, p.C, D)
                                 for p in random_family(rng, size, m, r)))
        else:
            yield axis_chain(rng, size, m, r)
    yield random_family(np.random.default_rng(43), 5, 3, 5)
    yield random_family(np.random.default_rng(47), 3, 3, 5)


def coarse_row_bounds(pset, grid):
    """Each row's largest clipped grid sigma_max Psi on every
    COARSE_STRIDE-th grid point."""
    samples = [sample(p, grid) for p in pset]
    n = len(pset)
    coarse = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values = np.clip(rssd.vgap._grid_sigma(samples[i], samples[j]), 0, 1)
            coarse[i, j] = coarse[j, i] = values[::COARSE_STRIDE].max()
    return coarse.max(axis=1)


def coarse_bound_search(mat, bounds):
    """Pairs a search ranking rows by their coarse ``bounds`` evaluates
    exactly: rows in ascending (bound, index) until a bound exceeds the
    least row maximum found by more than TIE_RTOL."""
    n = len(mat)
    best, pairs = np.inf, set()
    for i in sorted(range(n), key=lambda i: (bounds[i], i)):
        if bounds[i] > best * (1.0 + TIE_RTOL):
            break
        pairs |= {(min(i, j), max(i, j)) for j in range(n) if j != i}
        best = min(best, mat[i].max())
    return pairs


def exact_pairs(pset, grid, monkeypatch):
    """central_plant's result and the index pairs it ran the winding test
    on, which every exactly evaluated pair does first."""
    index = {id(p): k for k, p in enumerate(pset)}
    pairs = []

    def counted(p1, p2, _fn=rssd.vgap.winding_number_det):
        pairs.append((index[id(p1)], index[id(p2)]))
        return _fn(p1, p2)

    monkeypatch.setattr(rssd.vgap, "winding_number_det", counted)
    result = central_plant(pset, grid)
    monkeypatch.undo()
    return result, pairs


class TestPoleCounts:
    def test_stable_plant(self):
        assert pole_counts(StateSpacePlant.siso(-1.0, 1.0)) == (0, 0)

    def test_unstable_and_axis(self):
        A = np.diag([1.0, 0.0, -2.0])
        p = StateSpacePlant(A, np.ones((3, 1)), np.ones((1, 3)),
                            np.zeros((1, 1)))
        assert pole_counts(p) == (1, 1)


class TestParaconjugate:
    def test_response_is_conjugate_transpose_on_axis(self):
        rng = np.random.default_rng(3)
        p = random_stable_siso(rng)
        pt = paraconjugate(p)
        from rssd.lti import eval_response
        s = np.array([0.7j])
        direct = eval_response(p, s)[0]
        para = eval_response(pt, s)[0]
        assert para[0, 0] == pytest.approx(np.conj(direct[0, 0]))


class TestWindingNumber:
    def test_static_versus_unstable(self):
        # det(I + P2~ P1) for P1 = 2, P2 = 1/(s-1): one RHP zero, no RHP pole
        p1 = static(2.0)
        p2 = StateSpacePlant.siso(1.0, 1.0)
        assert winding_number_det(p1, p2) == 1

    def test_symmetric_orderings_compensate(self):
        p1 = static(2.0)
        p2 = StateSpacePlant.siso(1.0, 1.0)
        w12 = winding_number_det(p1, p2)
        w21 = winding_number_det(p2, p1)
        eta1, _ = pole_counts(p1)
        eta2, eta0_2 = pole_counts(p2)
        assert w12 + eta1 - eta2 - eta0_2 == 0
        eta2b, eta0b = pole_counts(p1)
        eta1b, _ = pole_counts(p2)
        assert w21 + eta1b - eta2b - eta0b == 0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("unstable", [(False, False), (False, True),
                                          (True, True)])
    def test_matches_dense_phase_reference(self, m, unstable):
        rng = np.random.default_rng(40 + 10 * m + 2 * unstable[0] + unstable[1])
        for _ in range(6):
            p1 = random_plant(rng, m, m, unstable[0])
            p2 = random_plant(rng, m, m, unstable[1])
            assert winding_number_det(p1, p2) == reference_winding(p1, p2)
            assert winding_number_det(p2, p1) == reference_winding(p2, p1)

    def test_shared_axis_eigenvalue_is_a_cancellation(self):
        # P2 = 1/(s+1) carries an unobservable integrator (in a mixed state
        # basis), which stays in A_z as an uncontrollable mode of P2~ beside
        # P1's integrator pole
        T = np.array([[1.0, 0.4], [-0.3, 2.0]])
        Ti = np.linalg.inv(T)
        p1 = StateSpacePlant.siso(0.0, 1.0)
        p2 = StateSpacePlant(T @ np.diag([-1.0, 0.0]) @ Ti, T @ [[1.0], [1.0]],
                             np.array([[1.0, 0.0]]) @ Ti, [[0.0]])
        x = cascade(p1, paraconjugate(p2))
        assert np.min(np.abs(np.linalg.eigvals(x.A - x.B @ x.C))) < 1e-12
        for a, b in ((p1, p2), (p2, p1)):
            assert winding_number_det(a, b) == reference_winding(a, b)

    def test_double_integrator_cancelled_by_double_zero(self):
        # P1 = s^2/(s+1)^2 against P2 = 1/s^2: the hidden Jordan block at 0
        # that A_z keeps splits off the axis by ~1e-8 and must not be counted
        p1 = StateSpacePlant([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]],
                             [[-1.0, -2.0]], [[1.0]])
        p2 = StateSpacePlant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                             [[1.0, 0.0]], [[0.0]])
        for a, b in ((p1, p2), (p2, p1)):
            assert winding_number_det(a, b) == reference_winding(a, b)

    def test_axis_zero_off_the_indentations_fails_condition(self, grid):
        # det(1 + P2~ P1) = s/(s+1) for P1 = 2/(s+1), P2 = -1/2
        p1 = StateSpacePlant.siso(-1.0, 2.0)
        p2 = static(-0.5)
        with pytest.raises(DetVanishesOnContour):
            winding_number_det(p1, p2)
        got = nu_gap(p1, p2, grid)
        assert not got.condition_met and got.value == 1.0

    def test_zero_at_infinity_fails_condition(self, grid):
        # det(1 + P2~ P1) = 1/(1-s) for P1 = 1, P2 = -s/(s+1): nonzero on
        # every finite frequency, zero at infinity
        p1 = static(1.0)
        p2 = StateSpacePlant([[-1.0]], [[1.0]], [[1.0]], [[-1.0]])
        with pytest.raises(DetVanishesOnContour):
            winding_number_det(p1, p2)
        assert nu_gap(p1, p2, grid).value == 1.0

class TestNuGap:
    def test_static_pair_closed_form(self, grid):
        got = nu_gap(static(1.0), static(2.0), grid)
        assert got.condition_met
        assert got.value == pytest.approx(static_gap(1.0, 2.0), abs=1e-9)

    def test_identical_plants(self, grid):
        p = StateSpacePlant.siso(-1.0, 1.0)
        assert nu_gap(p, p, grid).value < 1e-7

    def test_integrator_inverted_integrator_distance_one(self, grid):
        # 1/s versus s/(0.001 s + 1): nearly inverse behaviour, gap ~ 1
        p1 = StateSpacePlant.siso(0.0, 1.0)
        p2 = StateSpacePlant(np.array([[-1000.0]]), np.array([[1000.0]]),
                             np.array([[-1000.0]]), np.array([[1000.0]]))
        assert nu_gap(p1, p2, grid).value > 0.99

    def test_sign_flip_fails_condition(self, grid):
        # P and -P with high gain: det(I + P~P) stays positive but the
        # static pair (1, -1) gives gap 1 via the closed form
        got = nu_gap(static(1.0), static(-1.0), grid)
        assert got.value == pytest.approx(1.0)

    def test_stable_unstable_mixed_pair_symmetry(self, grid):
        p1 = StateSpacePlant.siso(-1.0, 1.0)
        p2 = StateSpacePlant.siso(1.0, 1.0)
        g12 = nu_gap(p1, p2, grid).value
        g21 = nu_gap(p2, p1, grid).value
        assert g12 == pytest.approx(g21, abs=1e-8)

    def test_symmetry_random_stable_pairs(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p1 = random_stable_siso(rng)
            p2 = random_stable_siso(rng)
            assert nu_gap(p1, p2, grid).value == pytest.approx(
                nu_gap(p2, p1, grid).value, abs=1e-8)

    def test_value_clamped_to_unit_interval(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = nu_gap(random_siso(rng), random_siso(rng), grid).value
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("k", [1e155, 1e158, 1e160])
    def test_response_whose_square_overflows_raises(self, k, grid):
        # |k/(jw + 1)|^2 overflows on the grid: k = 1e160 once read as
        # identical to 1/(s + 1), with only RuntimeWarnings to show for it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputationFailed, match="plant 'huge':"):
                nu_gap(StateSpacePlant.siso(-1.0, k, "huge"),
                       StateSpacePlant.siso(-1.0, 1.0), grid)

    def test_largest_squarable_response_keeps_its_value(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nu_gap(StateSpacePlant.siso(-1.0, 1e154),
                         StateSpacePlant.siso(-1.0, 1.0), grid)
        assert got.condition_met and got.value == 0.99999999995

    def test_refinement_point_whose_square_overflows_raises(self):
        # squares that overflow only off the grid name both plants
        grid = FrequencyGrid(np.logspace(3, 5, 20))
        s1 = sample(StateSpacePlant.siso(-1.0, 1e156, "huge"), grid)
        s2 = sample(StateSpacePlant.siso(-1.0, 1.0, "lag"), grid)
        with pytest.raises(ComputationFailed, match="plant 'huge' or 'lag':"):
            rssd.vgap._psi_sigma(s1, s2)(np.array([1e-3]))


class TestCentralPlant:
    def test_static_trio(self, grid):
        pset = PlantSet((static(0.5), static(1.0), static(2.0)))
        result = central_plant(pset, grid)
        assert result.index == 1
        assert result.epsilon == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-6)

    def test_gap_matrix_symmetric_zero_diagonal(self, grid):
        pset = PlantSet((static(0.5), static(1.0), static(2.0)))
        mat = gap_matrix(pset, grid)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 0.0)

    def test_singleton_epsilon_zero(self, grid):
        result = central_plant(PlantSet((static(1.0),)), grid)
        assert result.index == 0
        assert result.epsilon == 0.0

    def test_pruned_search_matches_matrix_bitwise(self, coarse_grid):
        # N = 1..6, SISO and 3x5, D != 0; the first 12 families are close
        # members, the last 12 mixed-stability chains with pairs reading 1
        split_by_one = 0
        for seed in range(24):
            rng = np.random.default_rng(200 + seed)
            size = 1 + seed % 6
            m, r = (1, 1) if seed % 12 < 6 else (3, 5)
            if seed < 12:
                D = 0.3 * rng.normal(size=(r, m))
                pset = PlantSet(tuple(StateSpacePlant(p.A, p.B, p.C, D)
                                      for p in random_family(rng, size, m, r)))
            else:
                pset = axis_chain(rng, size, m, r)
            mat = gap_matrix(pset, coarse_grid)
            oracle = central_from_matrix(mat)
            assert central_plant(pset, coarse_grid) == oracle
            split_by_one += bool(np.any(mat == 1.0) and oracle.epsilon < 1.0)
        assert split_by_one >= 3

    def test_ties_break_to_smallest_index(self, coarse_grid):
        fam = random_family(np.random.default_rng(47), 3, 3, 5)
        c = central_plant(fam, coarse_grid).index
        a, b = (k for k in range(3) if k != c)
        # adjacent copies see every other member in the same operand order,
        # so their rows are equal bit for bit
        duplicated = PlantSet((fam[a], fam[c], fam[c], fam[b]))
        for pset, index in ((duplicated, 1), (PlantSet(fam.plants[:2]), 0)):
            result = central_plant(pset, coarse_grid)
            assert result.index == index
            assert result == central_from_matrix(gap_matrix(pset, coarse_grid))

    def test_rows_one_ulp_apart_tie(self, coarse_grid, monkeypatch):
        # row 2's maximum is 1 ulp below those of rows 0 and 1: all three
        # tie and index 0 wins.  Each pair's coarse bound and exact value are
        # read from the matrix, so row 2 is evaluated first and the tying
        # bounds of rows 0 and 1 must not prune them
        x = 0.3
        mat = np.array([[0.0, np.nextafter(x, 1.0), 0.1],
                        [np.nextafter(x, 1.0), 0.0, x],
                        [0.1, x, 0.0]])
        pset = PlantSet((static(1.0), static(2.0), static(3.0)))
        index = {id(p): k for k, p in enumerate(pset)}
        monkeypatch.setattr(rssd.vgap, "_coarse_sigma", lambda samples, pairs:
                            np.array([[mat[i, j]] for i, j in pairs]))
        monkeypatch.setattr(rssd.vgap, "_pair_gap", lambda s1, s2: VgapResult(
            mat[index[id(s1.plant)], index[id(s2.plant)]], True))
        want = central_from_matrix(mat)
        assert want == rssd.vgap.CentralPlantResult(0, np.nextafter(x, 1.0))
        assert central_plant(pset, coarse_grid) == want

    def test_appended_duplicate_ties_with_its_member(self, coarse_grid):
        # the copy's pairs with the members before it run with their operands
        # swapped, so its row may differ from its member's in the last bits;
        # the two tie and the member's smaller index wins on both routes
        for pset in seeded_families():
            c = central_plant(pset, coarse_grid).index
            duplicated = PlantSet(pset.plants + (pset[c],))
            result = central_plant(duplicated, coarse_grid)
            assert result.index == c
            assert result == central_from_matrix(gap_matrix(duplicated,
                                                            coarse_grid))

    def test_exact_pairs_only_in_the_central_row(self, coarse_grid,
                                                 monkeypatch):
        # with well-separated row maxima every other row's bound exceeds the
        # central row's maximum, so only the central row's N - 1 pairs run
        # the winding test and the peak refinement (the full matrix runs 10)
        pset = random_family(np.random.default_rng(43), 5, 3, 5)
        row_max = np.sort(gap_matrix(pset, coarse_grid).max(axis=1))
        assert row_max[1] > 1.2 * row_max[0]
        calls = Counter()
        for name in ("winding_number_det", "grid_peak"):
            def counted(*args, _name=name, _fn=getattr(rssd.vgap, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(rssd.vgap, name, counted)
        central_plant(pset, coarse_grid)
        assert 0 < calls["winding_number_det"] <= len(pset) - 1
        assert 0 < calls["grid_peak"] <= len(pset) - 1

    def test_exact_pairs_those_of_the_coarse_bound_search(self, coarse_grid,
                                                          monkeypatch):
        # rows are evaluated exactly in the order, and up to the row, that
        # their coarse bounds give: 77 pairs over these families
        total = 0
        for pset in seeded_families():
            result, pairs = exact_pairs(pset, coarse_grid, monkeypatch)
            mat = gap_matrix(pset, coarse_grid)
            assert result == central_from_matrix(mat)
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == coarse_bound_search(
                mat, coarse_row_bounds(pset, coarse_grid))
            total += len(pairs)
        assert total == 77

    def test_central_row_not_first_on_coarse_bounds(self, coarse_grid,
                                                    monkeypatch):
        # the row first on coarse bounds is evaluated exactly first; the
        # central row's bound does not lose to its maximum, so it follows
        pset = random_family(np.random.default_rng(148), 4, 3, 5)
        mat = gap_matrix(pset, coarse_grid)
        oracle = central_from_matrix(mat)
        coarse = coarse_row_bounds(pset, coarse_grid)
        first = min(range(4), key=lambda i: (coarse[i], i))
        assert first != oracle.index
        result, pairs = exact_pairs(pset, coarse_grid, monkeypatch)
        assert result == oracle
        assert set(pairs) == coarse_bound_search(mat, coarse)
        assert all(first in pair for pair in pairs[:len(pset) - 1])
        assert all(oracle.index in pair for pair in pairs[len(pset) - 1:])

    def test_coarse_values_are_the_grids_own(self, coarse_grid):
        # each coarse bound is a maximum over a subset of the very values
        # the full grid holds, so it never exceeds the grid maximum the peak
        # refinement starts from; all pairs' coarse values, taken in one
        # stacked batch, are each pair's own bit for bit
        pset = random_family(np.random.default_rng(39), 4, 3, 5)
        samples = [sample(p, coarse_grid) for p in pset]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        stacked = rssd.vgap._coarse_sigma(samples, pairs)
        assert stacked.shape == (len(pairs), coarse_grid.points[::COARSE_STRIDE].size)
        for (i, j), row in zip(pairs, stacked):
            full = rssd.vgap._grid_sigma(samples[i], samples[j])
            assert np.array_equal(row, full[::COARSE_STRIDE])

    def test_end_members_with_one_factor(self, coarse_grid):
        # pair (i, j), i < j, reads P_j's left factor and P_i's right one:
        # the first member needs no left factor and the last no right one
        for pset in seeded_families():
            n = len(pset)
            samples = [SampledPlant.of(p, coarse_grid,
                                       eval_response(p, 1j * coarse_grid.points),
                                       pole_counts(p), left=i > 0,
                                       right=i < n - 1)
                       for i, p in enumerate(pset)]
            assert samples[0].left is None and samples[-1].right is None
            assert central_plant(samples, coarse_grid) == central_from_matrix(
                gap_matrix(pset, coarse_grid))

    def test_j1_under_identity_banks_is_the_raw_central_plant(self,
                                                               coarse_grid):
        # J1bar0 is J1 under identity banks: each sampled member stands as
        # its own augmented plant, and J1's index and epsilon are those of
        # central_plant on the raw plants, bit for bit
        for pset in seeded_families():
            members = [sampled_member(p, coarse_grid) for p in pset]
            assert all(m.augmented is p for m, p in zip(members, pset))
            j1, index, p_cp = j1_fitness(members, coarse_grid)
            want = central_plant(pset, coarse_grid)
            assert index == want.index and p_cp is pset[index]
            assert np.float64(j1).tobytes() == np.float64(want.epsilon).tobytes()


class TestSampling:
    def test_gap_matrix_matches_unsampled_pairs_bitwise(self, coarse_grid):
        pset = random_family(np.random.default_rng(35), 5, 3, 5)
        mat = gap_matrix(pset, coarse_grid)
        assert np.any(mat[~np.eye(5, dtype=bool)] < 1.0)
        for i in range(5):
            for j in range(i + 1, 5):
                assert mat[i, j] == nu_gap(pset[i], pset[j], coarse_grid).value

    @pytest.mark.parametrize("seed, rel", [(37, 1e-6), (38, 1e-12)])
    def test_mimo_value_matches_dense_psi_reference(self, seed, rel,
                                                    coarse_grid):
        # seed 37 peaks inside the grid; seed 38 peaks at the first grid
        # point, so its value is the sampled one, not a refined one
        from scipy.linalg import sqrtm

        pset = random_family(np.random.default_rng(seed), 2, 2, 3)
        got = nu_gap(pset[0], pset[1], coarse_grid)
        assert got.condition_met
        s = 1j * np.logspace(-2, 3, 4000)
        r1, r2 = eval_response(pset[0], s), eval_response(pset[1], s)
        dense = max(
            np.linalg.norm(np.linalg.inv(sqrtm(np.eye(3) + b @ b.conj().T))
                           @ (a - b)
                           @ np.linalg.inv(sqrtm(np.eye(2) + a.conj().T @ a)), 2)
            for a, b in zip(r1, r2))
        assert got.value == pytest.approx(dense, rel=rel)

    def test_central_plant_samples_each_member_once(self, coarse_grid,
                                                    monkeypatch):
        pset = random_family(np.random.default_rng(36), 4, 3, 5)
        sizes = []

        def counted(plant, s_values):
            sizes.append(np.size(s_values))
            return eval_response(plant, s_values)

        counts = []
        monkeypatch.setattr(rssd.vgap, "eval_response", counted)
        monkeypatch.setattr(rssd.vgap, "pole_counts",
                            lambda plant: counts.append(plant) or pole_counts(plant))
        result = central_plant(pset, coarse_grid)
        assert result.epsilon < 1.0
        assert sizes.count(coarse_grid.points.size) == len(pset)
        assert len(counts) == len(pset)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (1, 1)])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_factors_match_svd(self, shape, scale, coarse_grid):
        # both factors from one eigh of the smaller Gram stay exact where an
        # eigh of the larger one resolves its unit eigenvalues only to
        # eps |P|^2.  A square P has no larger side; its factors carry the
        # Gram's own eps kappa(P)^2 error (4.7e-13 for this plant, kappa
        # about 870, at scale 1e3; two eighs reach 2.2e-12)
        r, m = shape
        p = random_plant(np.random.default_rng(43), m, r, unstable=True, order=4)
        p = StateSpacePlant(p.A, p.B, scale * p.C, scale * p.D)
        got = sample(p, coarse_grid)
        left, right = svd_factors(got.response)
        tol = 1e-12 if r == m > 1 else 1e-13
        np.testing.assert_allclose(got.left, left, rtol=0.0, atol=tol)
        np.testing.assert_allclose(got.right, right, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_one_sided_factors_bitwise(self, shape, coarse_grid):
        # off the grid Psi reads only P2's left and P1's right factor; each
        # one alone is the same floats as when both are formed
        r, m = shape
        p = random_plant(np.random.default_rng(46), m, r, unstable=True, order=4)
        resp = eval_response(p, 1j * coarse_grid.points)
        left, right = rssd.vgap._factors(resp)
        only_left = rssd.vgap._factors(resp, right=False)
        only_right = rssd.vgap._factors(resp, left=False)
        assert only_left[1] is None and only_right[0] is None
        assert np.array_equal(only_left[0], left)
        assert np.array_equal(only_right[1], right)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_refinement_factors_from_one_eigh_bitwise(self, shape, coarse_grid):
        # off the grid both members' factors come from one eigh of their
        # stacked Grams: the same floats as two one-sided _factors calls
        r, m = shape
        p1, p2 = mixed_pair(np.random.default_rng(47), m, r)
        pts = coarse_grid.points
        omegas = np.sqrt(pts[1:] * pts[:-1])
        s1, s2 = sample(p1, coarse_grid), sample(p2, coarse_grid)
        got = rssd.vgap._psi_sigma(s1, s2)(omegas)
        r1, r2 = eval_response(p1, 1j * omegas), eval_response(p2, 1j * omegas)
        l2 = rssd.vgap._factors(r2, right=False)[0]
        m1 = rssd.vgap._factors(r1, left=False)[1]
        assert np.array_equal(got, rssd.margins.sigma_max(l2 @ (r1 - r2) @ m1))

    @pytest.mark.parametrize("m, r", [(2, 3), (3, 2)])
    def test_psi_sigma_from_gram_matches_svd(self, m, r, coarse_grid,
                                             monkeypatch):
        # the function nu_gap peaks reads sigma_max(Psi) from eigvalsh of
        # the smaller Gram, on the grid and off it
        peaked = []
        monkeypatch.setattr(rssd.vgap, "grid_peak",
                            lambda f, grid: peaked.append(f) or (0.0, 0.0))
        p1, p2 = mixed_pair(np.random.default_rng(44), m, r)
        assert nu_gap(p1, p2, coarse_grid).condition_met
        pts = coarse_grid.points
        for omegas in (pts, np.sqrt(pts[1:] * pts[:-1])):
            np.testing.assert_allclose(peaked[0](omegas), svd_psi(p1, p2, omegas),
                                       rtol=1e-12, atol=0.0)

    def test_refined_peaks_against_golden_and_dense_references(self,
                                                               monkeypatch):
        # tall, wide and square pairs with D != 0, stable/unstable ones
        # among them; the grid holds w = 0 so DC peaks are refined too
        grid = FrequencyGrid(np.concatenate([[0.0], np.logspace(-3, 5, 400)]))
        rng = np.random.default_rng(45)
        pairs = [mixed_pair(rng, m, r) for m, r in [(2, 3), (3, 2), (2, 2)]]
        for m, r in [(3, 5), (5, 3)]:
            fam = random_family(rng, 2, m, r)
            D = 0.3 * rng.normal(size=(r, m))
            pairs.append([StateSpacePlant(p.A, p.B, p.C, D) for p in fam])
        peaked = []
        grid_peak = rssd.vgap.grid_peak
        monkeypatch.setattr(rssd.vgap, "grid_peak",
                            lambda f, g: peaked.append(f) or grid_peak(f, g))
        dense = np.concatenate([[0.0], np.logspace(-3, 5, 8001)])
        for p1, p2 in pairs:
            got = nu_gap(p1, p2, grid)
            assert got.condition_met and 0.0 < got.value < 1.0
            reference = golden_grid_peak(peaked[-1], grid)
            assert got.value >= reference * (1.0 - 1e-12)
            psi = svd_psi(p1, p2, dense)
            i = int(np.argmax(psi))
            fine = np.linspace(dense[max(i - 1, 0)], dense[min(i + 1, dense.size - 1)],
                               2001)
            oracle = max(psi[i], svd_psi(p1, p2, fine).max())
            assert got.value == pytest.approx(oracle, abs=1e-6)


class TestInvariance:
    """The nu-gap of MIMO pairs is a property of the transfer functions."""

    def pairs(self, seed):
        pset = random_family(np.random.default_rng(seed), 4, 2, 3)
        return [(pset[i], pset[j]) for i in range(4) for j in range(i + 1, 4)]

    def assert_same_gaps(self, pairs, transform, grid):
        reached = 0
        for p1, p2 in pairs:
            before = nu_gap(p1, p2, grid)
            after = nu_gap(transform(p1), transform(p2), grid)
            assert after.condition_met == before.condition_met
            assert after.value == pytest.approx(before.value, abs=1e-9)
            reached += before.condition_met
        assert reached > 0

    def test_state_similarity(self, coarse_grid):
        rng = np.random.default_rng(51)
        pairs = self.pairs(52)
        n = pairs[0][0].n
        T = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        Ti = np.linalg.inv(T)

        def similar(p):
            return StateSpacePlant(T @ p.A @ Ti, T @ p.B, p.C @ Ti, p.D)

        self.assert_same_gaps(pairs, similar, coarse_grid)

    def test_unitary_input_output_rotations(self, coarse_grid):
        rng = np.random.default_rng(53)
        pairs = self.pairs(54)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))

        def rotated(p):
            return StateSpacePlant(p.A, p.B @ V, U @ p.C, U @ p.D @ V)

        self.assert_same_gaps(pairs, rotated, coarse_grid)


class TestRefusals:
    # each input guard refuses with its own typed error
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: sample(sample(static(1), FrequencyGrid.default()),
                                    FrequencyGrid.default()),
                     "different grid", id="other-grid"),
        pytest.param(lambda: winding_number_det(
            static(1), StateSpacePlant.from_gain(np.ones((2, 1)))),
                     "share input/output", id="channel-counts"),
    ])
    def test_refused(self, build, match):
        with pytest.raises(DimensionMismatch, match=match):
            build()
