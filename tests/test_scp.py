import re

import numpy as np
import pytest
from scipy.linalg import block_diag

import rssd.margins
import rssd.scp
from conftest import (
    degenerate_catalogue,
    eig_counts,
    identity_banks,
    mimo_family,
    oscillator_family,
    reference_condition,
)
from rssd.errors import (
    ComputationFailed,
    DimensionMismatch,
    OutOfBox,
    RssdError,
    UnstableSection,
)
from rssd.lti import (
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    augment_plant,
    eval_response,
    is_imag_axis,
)
from rssd.margins import linf_norm
from rssd.scp import (
    ScpConstraints,
    augment,
    check_constraints,
    decode_banks,
    j1_fitness,
    sampled_member,
    transmission_zeros,
)
from rssd.vgap import central_plant, winding_number_det


def static_trio():
    return PlantSet(tuple(
        StateSpacePlant.from_gain(np.array([[g]]), label=f"g{g}")
        for g in (0.5, 1.0, 2.0)))


def sampled(pset, grid):
    """The family as J1 takes it: members with their grid responses."""
    return [sampled_member(p, grid) for p in pset]


def under(banks, pset, grid=FrequencyGrid.default()):
    """The family as the constraint check and J1 take it: sampled on
    ``grid`` and augmented under ``banks`` = (w_in, w_out)."""
    return augment(*banks, sampled(pset, grid))


WIDE = ((-100.0, 100.0),) * 4


def wide_banks(in_boxes=WIDE):
    return ScpConstraints(in_boxes, WIDE, dc_floor_db=0.0, band=(0.01, 0.1))


class TestDecodeBank:
    def test_published_coefficients(self):
        w_in, w_out = decode_banks([1.0, 7.36, 0.007, 10.1, 0.0, 2.0, 0.0, 1.0],
                                   wide_banks())
        sec_in, sec_out = w_in.sections[0], w_out.sections[0]
        assert sec_in.b / sec_in.d == pytest.approx(0.7287, abs=1e-4)
        assert sec_out.b / sec_out.d == 2.0

    def test_out_of_box_rejected(self):
        with pytest.raises(OutOfBox):
            decode_banks([1.0, 7.36, 0.007, 10.1, 0.0, 1.0, 0.0, 1.0],
                         wide_banks(((0.0, 0.5),) + WIDE[1:]))

    def test_unstable_section_rejected(self):
        with pytest.raises(UnstableSection):
            decode_banks([0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, -1.0], wide_banks())

    def test_gene_count_checked(self):
        with pytest.raises(DimensionMismatch):
            decode_banks([1.0, 2.0], wide_banks())

    def test_bank_layout_checked(self):
        with pytest.raises(DimensionMismatch):
            wide_banks(WIDE[:3])  # a partial section
        wide_banks().require_banks(1, 1)
        with pytest.raises(DimensionMismatch):
            wide_banks().require_banks(2, 1)


class TestTransmissionZeros:
    def test_siso_zero(self):
        # (s+2)/((s+1)(s+3))
        A = np.diag([-1.0, -3.0])
        B = np.ones((2, 1))
        C = np.array([[0.5, 0.5]])
        tz = transmission_zeros(StateSpacePlant(A, B, C, np.zeros((1, 1))))
        assert tz.size == 1
        assert tz[0] == pytest.approx(-2.0)

    def test_no_finite_zero(self):
        tz = transmission_zeros(StateSpacePlant.siso(-1.0, 1.0))
        assert tz.size == 0

    def test_non_square_empty(self):
        p = StateSpacePlant(np.diag([-1.0]), np.ones((1, 2)),
                            np.ones((1, 1)), np.zeros((1, 2)))
        assert transmission_zeros(p).size == 0


def roots(rng, count):
    """``count`` random roots, real ones of either sign and conjugate pairs."""
    out = []
    while len(out) < count:
        if count - len(out) >= 2 and rng.random() < 0.4:
            pair = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0))
            out += [pair, pair.conjugate()]
        else:
            out.append(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0))
    return np.array(out, dtype=complex)


def siso_channel(rng, rel_degree):
    """Controllable-canonical (A, B, C, D) of k n(s)/d(s), deg d - deg n =
    ``rel_degree``, and the roots of n."""
    n = int(rng.integers(max(rel_degree, 1), rel_degree + 4))
    den = np.poly(roots(rng, n)).real
    zeros = roots(rng, n - rel_degree)
    num = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * np.atleast_1d(
        np.poly(zeros).real)
    num = np.concatenate([np.zeros(n + 1 - num.size), num])
    rem = num - num[0] * den  # the strictly proper part's numerator
    A = np.eye(n, k=1)
    A[-1] = -den[:0:-1]
    return A, np.eye(n)[:, -1:], rem[:0:-1][None, :], num[:1, None], zeros


def known_zero_plant(rng):
    """A square plant of 1-3 SISO channels of relative degree 0-3 seen through
    a similarity of condition up to 100 and orthogonal input/output
    rotations, and its transmission zeros (the channels' numerator roots)."""
    m = int(rng.integers(1, 4))
    channels = [siso_channel(rng, int(rng.integers(0, 4))) for _ in range(m)]
    A, B, C, D = (block_diag(*parts) for parts in list(zip(*channels))[:4])
    n = A.shape[0]
    q1, q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    T = q1 @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, n)) @ q2
    T_inv = np.linalg.inv(T)
    q_in, q_out = (np.linalg.qr(rng.normal(size=(m, m)))[0] for _ in range(2))
    plant = StateSpacePlant(T_inv @ A @ T, T_inv @ B @ q_in.T, q_out @ C @ T,
                            q_out @ D @ q_in.T)
    return plant, np.concatenate([ch[4] for ch in channels])


def zero_error(got, want):
    """Largest relative distance of a greedy one-to-one match, inf when the
    counts differ."""
    if got.size != want.size:
        return np.inf
    got, worst = list(got), 0.0
    for w in want:
        i = int(np.argmin(np.abs(np.array(got) - w)))
        worst = max(worst, abs(got.pop(i) - w) / max(1.0, abs(w)))
    return worst


def pencil_rank_gap(plant, z):
    """sigma_min / sigma_max of the system pencil at z."""
    n = plant.n
    pencil = np.block([[plant.A - z * np.eye(n), plant.B], [plant.C, plant.D]])
    sv = np.linalg.svd(pencil, compute_uv=False)
    return sv[-1] / sv[0]


class TestZeroDeflation:
    """The deflation counts zeros at infinity as infinite, where the system
    pencil's QZ left rounded ones finite, and refuses a singular pencil."""

    @pytest.mark.parametrize("seed", range(20))
    def test_chain_has_no_finite_zeros(self, seed):
        # 1/(s + 1)^3 in a rotated basis: QZ returned +-5.4e7 for seed 0
        J = np.eye(3, k=1) - np.eye(3)
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        plant = StateSpacePlant(q @ J @ q.T, q[:, 2:], q[:, :1].T, [[0.0]])
        assert transmission_zeros(plant).size == 0

    def test_cb_zero_leaves_n_minus_2m_zeros(self):
        # relative degree 2 in both channels; QZ returned 5 zeros, three of
        # them near |s| = 2e6
        rng = np.random.default_rng(1)
        A, C = rng.normal(size=(6, 6)), rng.normal(size=(2, 6))
        B = np.linalg.svd(C)[2][2:].T @ rng.normal(size=(4, 2))
        plant = StateSpacePlant(A, B, C, np.zeros((2, 2)))
        zeros = transmission_zeros(plant)
        assert zeros.size == 2
        assert max(pencil_rank_gap(plant, z) for z in zeros) < 1e-12

    def test_known_numerator_roots(self):
        rng = np.random.default_rng(2024)
        errors = [zero_error(transmission_zeros(p), want)
                  for p, want in (known_zero_plant(rng) for _ in range(2000))]
        assert max(errors) < 1e-5

    def test_input_output_scaling_moves_no_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            plant, _ = known_zero_plant(rng)
            ref = transmission_zeros(plant)
            for a in (1e-4, 1.0, 1e4):
                for b in (1e-4, 1.0, 1e4):
                    scaled = StateSpacePlant(plant.A, a * plant.B, b * plant.C,
                                             a * b * plant.D)
                    assert zero_error(transmission_zeros(scaled), ref) < 1e-6

    def test_rank_one_b_is_singular(self):
        # QZ returned two finite values, though every s is a zero
        rng = np.random.default_rng(5)
        plant = StateSpacePlant(rng.normal(size=(3, 3)),
                                rng.normal(size=(3, 1)) @ rng.normal(size=(1, 2)),
                                rng.normal(size=(2, 3)), np.zeros((2, 2)), "rank1")
        with pytest.raises(ComputationFailed,
                           match="plant 'rank1': singular system pencil"):
            transmission_zeros(plant)

    @pytest.mark.parametrize("B, C, D, why", [
        ([[1.0, 0.0], [1.0, 0.0]], np.eye(2), np.zeros((2, 2)), "input 1"),
        (np.eye(2), [[1.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], "output 1"),
        ([[1e-170, 0.0], [1e-170, 0.0]], np.eye(2), np.zeros((2, 2)), "input 1"),
    ])
    def test_zero_column_or_row_is_singular(self, B, C, D, why):
        plant = StateSpacePlant(-np.eye(2), B, C, D, "dead")
        with pytest.raises(ComputationFailed, match=f"'dead'.*{why}"):
            transmission_zeros(plant)

    @pytest.mark.parametrize("b", [1e-170, 1e170])
    def test_column_norm_out_of_range(self, b):
        # -1/(s + 1) with B = b, C = -1/b: the squares in the 2-norms of
        # B's column and C's row under- or overflow, yet neither is zero
        plant = StateSpacePlant([[-1.0]], [[b]], [[-1.0 / b]], [[0.0]])
        assert transmission_zeros(plant).size == 0

    def test_static_plant(self):
        assert transmission_zeros(
            StateSpacePlant.from_gain([[1.0, 2.0], [3.0, 4.0]])).size == 0
        with pytest.raises(ComputationFailed, match="normal rank below 2"):
            transmission_zeros(StateSpacePlant.from_gain([[1.0, 2.0], [2.0, 4.0]]))


class TestScpConstraints:
    @pytest.mark.parametrize("change", [
        {"band": (0.01, np.inf)},
        {"band": (0.1, 0.01)},
        {"dc_floor_db": np.nan},
        {"dc_floor_db": -np.inf},
        {"in_boxes": ((0.0, np.inf),) + WIDE[1:]},
        {"out_boxes": ((1.0, -1.0),) + WIDE[1:]},
    ], ids=lambda c: next(iter(c)))
    def test_bad_numbers_rejected(self, change):
        args = {"in_boxes": WIDE, "out_boxes": WIDE, "dc_floor_db": 0.0,
                "band": (0.01, 0.1), **change}
        with pytest.raises(DimensionMismatch):
            ScpConstraints(**args)


class TestCheckConstraints:
    def make(self, floor_db=-20.0, band=(0.01, 0.1)):
        return ScpConstraints(WIDE, WIDE, floor_db, band)

    def test_identity_banks_pass_loose_constraints(self):
        loud = PlantSet(tuple(
            StateSpacePlant.from_gain(np.array([[g]])) for g in (1.5, 2.0, 3.0)))
        report = check_constraints(under(identity_banks(1, 1), loud),
                                   self.make())
        assert report.passed

    def test_dc_floor_violation(self):
        report = check_constraints(under(identity_banks(1, 1), static_trio()),
                                   self.make(floor_db=20.0))
        assert not report.passed
        assert any("DC" in r or "dB" in r for r in report.reasons)

    def test_band_violation(self):
        # plant 1/(s+1) falls below 0 dB beyond 1 rad/s
        pset = PlantSet((StateSpacePlant.siso(-1.0, 1.0),))
        report = check_constraints(under(identity_banks(1, 1), pset),
                                   self.make(floor_db=-20.0, band=(0.1, 10.0)))
        assert not report.passed

    def test_overflowing_hamiltonian_leaves_band_undecided(self):
        # the crossing test's Hamiltonian of 1e160/(s+1) overflows: an
        # undecided band is a violation, and no overflow warning escapes
        pset = PlantSet((StateSpacePlant.siso(-1.0, 1e160),))
        report = check_constraints(under(identity_banks(1, 1), pset),
                                   self.make())
        assert report.reasons == (
            "plant 0: band undecided: Hamiltonian eigen-solve failed: "
            "Array must not contain infs or NaNs",)

    def test_pole_zero_cancellation_flagged(self):
        # compensator zero at -1 cancels the plant pole at -1
        pset = PlantSet((StateSpacePlant.siso(-1.0, 10.0),))
        w_in = CompensatorBank((FirstOrderSection(1.0, 1.0, 0.1, 1.0),))
        _, w_out = identity_banks(1, 1)
        report = check_constraints(under((w_in, w_out), pset), self.make())
        assert not report.passed
        assert any("cancels" in r for r in report.reasons)

    def test_compensator_pole_on_plant_zero_flagged(self):
        # a section pole at -2 cancels the zero of (s+2)/((s+1)(s+3))
        pset = PlantSet((siso([1.0, 2.0], [1.0, 4.0, 3.0]),))
        w_in = CompensatorBank((FirstOrderSection(0.0, 2.0, 1.0, 2.0),))
        _, w_out = identity_banks(1, 1)
        report = check_constraints(under((w_in, w_out), pset), self.make())
        assert [r for r in report.reasons if "cancels" in r] == [
            "plant 0: compensator pole -2 cancels a plant zero"]

    @pytest.mark.parametrize("name", list(degenerate_catalogue()))
    def test_degenerate_plant_under_identity_banks(self, name, grid):
        # a verdict whose reasons print finite numbers, or a typed error
        # (a plant with no path through it has no system pencil to deflate)
        with np.errstate(over="raise", invalid="raise", divide="raise",
                         under="ignore"):
            try:
                report = check_constraints(
                    [sampled_member(degenerate_catalogue()[name], grid)],
                    self.make())
            except RssdError:
                return
        assert report.passed == (not report.reasons)
        assert not any(re.search(r"\b(nan|inf)\b", r, re.I)
                       for r in report.reasons)


def siso(num, den):
    """Controllable-canonical realization of num(s)/den(s), den monic and
    deg num <= deg den."""
    den = np.asarray(den, float)
    num = np.concatenate([np.zeros(len(den) - len(num)), num])
    n = len(den) - 1
    d = num[0]
    c = (num[1:] - d * den[1:])[::-1]
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1] = -den[1:][::-1]
    B = np.zeros((n, 1))
    B[-1] = 1.0
    return StateSpacePlant(A, B, c.reshape(1, n), [[d]])


def random_bank(rng, channels):
    """Stable lead/lag sections: poles in [-10, -0.01], gains either side of 1."""
    d = 10.0 ** rng.uniform(-2.0, 1.0, channels)
    a = rng.uniform(0.0, 2.0, channels)
    b = d * 10.0 ** rng.uniform(-1.5, 0.5, channels)
    return CompensatorBank(tuple(FirstOrderSection(*coef) for coef in
                                 zip(a, b, np.ones(channels), d)))


def dense_sigma_min(sys, omega):
    """sigma_min(sys(jw)) in modal coordinates, from the smaller Gram."""
    lam, V = np.linalg.eig(sys.A)
    left, right = sys.C @ V, np.linalg.solve(V, sys.B)
    residues = (left.T[:, :, None] * right[:, None, :]).reshape(sys.n, -1)
    resp = ((1.0 / (1j * omega[:, None] - lam)) @ residues).reshape(
        omega.size, sys.r, sys.m) + sys.D
    gram = resp.conj().swapaxes(1, 2) @ resp
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, 0], 0.0))


def band_reasons(report):
    return [r for r in report.reasons if "band" in r]


class TestExactBand:
    """sigma_min > 0 dB on the band is decided by one Hamiltonian per plant:
    at lo, and no crossing of 0 dB inside the band."""

    def check(self, plant, band, floor_db=-20.0):
        return check_constraints(
            under(identity_banks(plant.m, plant.r), PlantSet((plant,))),
            ScpConstraints(WIDE, WIDE, floor_db, band))

    def test_notch_between_grid_points_rejected(self):
        # a -44 dB notch midway between two default-grid points: every
        # grid sample in the band clears 0 dB, the band does not
        pts = FrequencyGrid.default().points
        k = int(np.searchsorted(pts, 0.05))
        wz = float(np.sqrt(pts[k - 1] * pts[k]))
        notch = siso([3.0, 3.0 * 2e-5 * wz, 3.0 * wz * wz],
                     [1.0, 0.01 * wz, wz * wz])
        in_band = pts[(pts >= 0.01) & (pts <= 0.1)]
        assert np.all(dense_sigma_min(notch, in_band) > 1.0)
        assert dense_sigma_min(notch, np.array([wz]))[0] < 0.01
        report = self.check(notch, (0.01, 0.1))
        assert not report.passed
        (reason,) = band_reasons(report)
        assert reason.startswith("plant 0: sigma_min <= 0 dB inside band near ")
        assert float(reason.split("near ")[1].split()[0]) == pytest.approx(
            wz, rel=0.01)

    def test_seeded_agreement_with_dense_oracle(self):
        # exact band verdict per plant == sigma_min <= 1 anywhere on 20k
        # log points plus the band edges, over random banks and five bands
        pset = mimo_family(1, 3)
        members = sampled(pset, FrequencyGrid.default())
        rng = np.random.default_rng(5)
        bands = ((0.001, 0.1), (0.05, 2.0), (0.5, 50.0), (0.0, 1.0),
                 (0.01, 0.02))
        outcomes = set()
        for _ in range(4):
            w_in, w_out = random_bank(rng, 3), random_bank(rng, 5)
            augs = [augment_plant(w_out, p, w_in) for p in pset]
            augmented = augment(w_in, w_out, members)
            for band in bands:
                omega = np.union1d(
                    np.geomspace(max(band[0], 1e-6), band[1], 20_000), band)
                want = [bool(np.any(dense_sigma_min(a, omega) <= 1.0))
                        for a in augs]
                report = check_constraints(
                    augmented,
                    ScpConstraints(((-9.0, 9.0),) * 12, ((-9.0, 9.0),) * 20,
                                   -300.0, band))
                got = [any(r.startswith(f"plant {i}:")
                           for r in band_reasons(report))
                       for i in range(len(pset))]
                assert got == want, (band, report.reasons)
                assert len(report.reasons) == sum(got)
                outcomes.update(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("num, band, passed", [
        ([2.0], (0.1, np.sqrt(3.0)), False),
        ([2.0], (0.1, np.sqrt(3.0) * (1 - 1e-6)), True),
        ([2.0, 0.5], (0.5, 10.0), False),
        ([2.0, 0.5], (0.5 * (1 + 1e-6), 10.0), True),
    ])
    def test_crossing_on_band_edge_violates(self, num, band, passed):
        # |2/(jw + 1)| falls through 1 at sqrt(3), the band's hi, and
        # |(2jw + 0.5)/(jw + 1)| rises through it at 0.5, the band's lo:
        # sigma = 1 is not above 0 dB
        report = self.check(siso(num, [1.0, 1.0]), band)
        assert report.passed == passed
        if not passed:
            edge = band[1] if len(num) == 1 else band[0]
            assert band_reasons(report) == [
                f"plant 0: sigma_min <= 0 dB inside band near {edge:.4g} rad/s"]

    def test_integrator_dc_and_band_taken_as_w_to_0(self):
        # 1/s is infinite at DC, and |1/jw| = 1 exactly at w = 1
        integrator = siso([1.0], [1.0, 0.0])
        assert self.check(integrator, (0.0, 0.5)).passed
        report = self.check(integrator, (0.0, 1.0))
        assert report.reasons == (
            "plant 0: sigma_min <= 0 dB inside band near 1 rad/s",)

    @pytest.mark.parametrize("band, passed", [((0.5, 1.1), True),
                                              ((0.5, 1.3), False)])
    def test_axis_pole_inside_band(self, band, passed):
        # 2 + 1/(s^2 + 1): infinite at w = 1, -1 at w = 2/sqrt(3); sigma_min
        # keeps its limit across the pole, which H(1) has no eigenvalue at
        report = self.check(siso([2.0, 0.0, 3.0], [1.0, 0.0, 1.0]), band)
        assert report.passed == passed
        if not passed:
            assert band_reasons(report) == [
                "plant 0: sigma_min <= 0 dB inside band near 1.155 rad/s"]

    def test_band_edge_on_axis_pole_raises(self):
        # 1/(s^2 + 1) has no value at lo = 1; the pole is the plant's, so
        # every candidate would hit it, and the check fails instead
        with pytest.raises(ComputationFailed, match="a frequency point is a pole"):
            self.check(siso([1.0], [1.0, 0.0, 1.0]), (1.0, 2.0))

    @pytest.mark.parametrize("gain", [1.0, 1.0 + 1e-8, 1.0 - 1e-8])
    def test_unit_feedthrough_rejected_undecided(self, gain):
        # k (s + 2)/(s + 1) with |k| near 1: I - D^T D is (nearly) singular,
        # so the band cannot be decided; the candidate is rejected, not raised
        report = self.check(siso([gain, 2.0 * gain], [1.0, 1.0]), (0.01, 0.1))
        assert report.reasons == (
            "plant 0: band undecided: a feedthrough singular value is 0 dB",)

    def test_feedthrough_off_0_db_decided(self):
        assert self.check(siso([1.001, 2.002], [1.0, 1.0]), (0.01, 0.1)).passed
        report = self.check(siso([0.999, 1.998], [1.0, 1.0]), (0.01, 100.0))
        assert band_reasons(report) == [
            "plant 0: sigma_min <= 0 dB inside band near 38.69 rad/s"]

    def test_static_plant_decided_at_lo(self, monkeypatch):
        monkeypatch.setattr(rssd.scp, "crossings", None)
        assert self.check(StateSpacePlant.from_gain([[1.5]]), (0.0, 1.0)).passed
        assert not self.check(StateSpacePlant.from_gain([[1.0]]), (0.0, 1.0)).passed

    def test_norm_and_band_share_one_hamiltonian(self, monkeypatch):
        real = rssd.margins.crossings
        assert rssd.scp.crossings is real
        gammas = []

        def spy(sys, gamma):
            gammas.append(gamma)
            return real(sys, gamma)

        monkeypatch.setattr(rssd.margins, "crossings", spy)
        monkeypatch.setattr(rssd.scp, "crossings", spy)
        lag = siso([2.0], [1.0, 1.0])
        assert linf_norm(lag)[0] == pytest.approx(2.0)
        assert gammas and all(g > 1.0 for g in gammas)
        del gammas[:]
        assert not self.check(lag, (0.1, 10.0)).passed
        assert gammas == [1.0]


class TestJ1Fitness:
    def test_identity_banks_match_raw_central_plant(self, grid):
        j1, idx = j1_fitness(
            under(identity_banks(1, 1), static_trio(), grid), grid)
        assert idx == 1
        assert j1 == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-6)

    def test_good_compensator_shrinks_j1(self, grid):
        # normalizing each plant towards gain 1 shrinks the spread
        w_in = CompensatorBank((FirstOrderSection(0.0, 1.0, 0.0, 1.0),))
        w_out = w_in
        base, _ = j1_fitness(under((w_in, w_out), static_trio(), grid), grid)
        assert base > 0

    def test_product_route_matches_augmented_state_space(self, grid,
                                                         monkeypatch):
        # static banks (every seeded workload's) and dynamic ones: the grid
        # samples J1 builds from bank products are the augmented plants'
        pset = mimo_family(2, 3)
        static = tuple(FirstOrderSection(0.0, b, 0.0, 1.0) for b in
                       (0.2, 1.1, 0.7, 1.4, 0.3, 0.9, 1.2, 0.5))
        dynamic = tuple(FirstOrderSection(a, b, c, d) for a, b, c, d in
                        ((0.5, 2.0, 1.0, 3.0), (0.0, 1.0, 0.2, 1.0),
                         (1.0, 0.3, 1.0, 0.4), (0.0, 2.0, 0.5, 1.0),
                         (2.0, 1.0, 1.0, 2.0), (0.0, 0.8, 0.0, 1.0),
                         (1.0, 5.0, 0.1, 2.0), (0.3, 0.3, 1.0, 1.0)))
        captured = []

        def spy(members, g):
            captured[:] = members
            return central_plant(members, g)

        monkeypatch.setattr(rssd.scp, "central_plant", spy)
        for sections in (static, dynamic):
            w_in = CompensatorBank(sections[:3])
            w_out = CompensatorBank(sections[3:])
            j1_fitness(under((w_in, w_out), pset, grid), grid)
            assert len(captured) == len(pset)
            for got, p in zip(captured, pset):
                aug = augment_plant(w_out, p, w_in)
                assert all(np.array_equal(getattr(got.plant, k), getattr(aug, k))
                           for k in "ABCD")
                want = eval_response(aug, 1j * grid.points)
                err = np.linalg.norm(got.response - want, axis=(1, 2))
                assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))

    def test_pole_counts_from_member_and_section_poles(self, grid,
                                                       monkeypatch):
        # the winding condition of each augmented pair counts P_i's poles
        # and the sections' poles, as eig of each augmented A would: here a
        # member with poles at +-2j, seeded dynamic banks, and a section pole
        # within IMAG_AXIS_RTOL of the origin
        rng = np.random.default_rng(23)
        pset = oscillator_family(rng)
        assert [eig_counts(p) for p in pset] == [(1, 0), (1, 2), (2, 0)]
        near_origin = FirstOrderSection(1.0, 2.0, 1.0, 1e-10)
        assert is_imag_axis(near_origin.pole)
        captured = []

        def spy(members, g):
            captured[:] = members
            return central_plant(members, g)

        monkeypatch.setattr(rssd.scp, "central_plant", spy)
        seen = set()
        for k in range(4):
            w_in, w_out = random_bank(rng, 2), random_bank(rng, 3)
            if k % 2:
                w_in = CompensatorBank((near_origin,) + w_in.sections[1:])
            j1_fitness(under((w_in, w_out), pset, grid), grid)
            plants = [got.plant for got in captured]
            assert len(plants) == len(pset)
            for a in plants:
                seen.add(eig_counts(a))
                for b in plants:
                    assert winding_number_det(a, b) == reference_condition(a, b)
        assert {(1, 0), (1, 3), (2, 1)} <= seen

    def test_augmented_once_per_banks(self, grid):
        # a member augmented under other banks is augmented anew from its
        # raw plant, keeping poles and zeros
        pset = mimo_family(2, 3)
        rng = np.random.default_rng(31)
        first = (random_bank(rng, 3), random_bank(rng, 5))
        second = (random_bank(rng, 3), random_bank(rng, 5))
        members = under(first, pset, grid)
        again = augment(*second, members)
        for m, n, p in zip(members, again, pset, strict=True):
            assert n.plant is p and n.poles is m.poles and n.zeros is m.zeros
            assert n.banks == second
            want = augment_plant(second[1], p, second[0])
            assert all(np.array_equal(getattr(n.augmented, k), getattr(want, k))
                       for k in "ABCD")

    def test_static_banks_equal_scaled_members(self, grid):
        # W_out P W_in with static banks is the member with B diag(W_in)
        # and diag(W_out) C under identity banks
        pset = mimo_family(2, 3)
        w_in = CompensatorBank(tuple(FirstOrderSection(0.0, b, 0.0, d)
                                     for b, d in ((0.3, 1.0), (1.2, 2.0),
                                                  (0.9, 0.5))))
        w_out = CompensatorBank(tuple(FirstOrderSection(0.0, b, 0.0, 1.0)
                                      for b in (1.4, 0.2, 0.8, 1.1, 0.6)))
        g_in = np.diag([s.b / s.d for s in w_in.sections])
        g_out = np.diag([s.b / s.d for s in w_out.sections])
        scaled = PlantSet(tuple(
            StateSpacePlant(p.A, p.B @ g_in, g_out @ p.C, g_out @ p.D @ g_in,
                            p.label) for p in pset))
        j1, idx = j1_fitness(under((w_in, w_out), pset, grid), grid)
        ref, ref_idx = j1_fitness(sampled(scaled, grid), grid)
        assert idx == ref_idx
        assert j1 == pytest.approx(ref, rel=1e-13, abs=0.0)
